"""Record benchmark figures of a parent and a change checkout in a BENCH_*.json file.

    python3 tools/record_bench.py ../parent . --out BENCH_7.json \
        --seeds 71 72 73 74 75 76 77 78 79 80

For every workload of BENCHMARK.json and every seed it runs
`benchmark/run.py --trace 0` for the benchmark's run_seconds once in each
checkout, the two taking turns at going first, and keeps the last JSON
line of each run.  It also runs the tier-1 suite with `--durations=0`
TIER1_REPEATS times in each checkout, the two taking turns at going
first.  It refuses to start while either checkout holds a __pycache__
under src/ or benchmark/.  The file holds, per checkout, each metric's
runs, median and quartiles, the share of failed operations, the `src/`
line count in total and by module, and the suite's summary lines, wall
times (runs, median and quartiles) and per-test median call times; how
many seeds the change won on each metric; for each end-to-end metric
the change/parent ratio of medians and whether it stays within the
metric's BENCHMARK.json bound (no worse than 1 - bound of the parent's
median where higher is better, 1 + bound where lower is); and the
machine: python, numpy, BLAS and the number of processors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Tier-1 runs per checkout: its times are medians, like every other figure.
TIER1_REPEATS = 3


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1(checkout: Path) -> dict:
    """Summary line, wall time and per-test call times of one tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", "--durations-min=0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    calls = {}
    for line in lines:
        match = re.fullmatch(r"([0-9.]+)s call\s+(\S+)", line.strip())
        if match:
            calls[match[2]] = float(match[1])
    return {"summary": lines[-1].strip("= ") if lines else "", "wall_s": wall,
            "call_s": calls}


def tier1_medians(runs: list[dict]) -> dict:
    """Summary lines, wall times and per-test median call times of runs."""
    tests = {name for run in runs for name in run["call_s"]}
    return {"summary": [run["summary"] for run in runs],
            "wall_s": summary([run["wall_s"] for run in runs]),
            "call_s": {name: statistics.median(
                run["call_s"][name] for run in runs if name in run["call_s"])
                for name in sorted(tests)}}


def src_lines_by_module(checkout: Path) -> dict:
    """Line count of each module under src/, by its path there."""
    src = checkout / "src"
    return {p.relative_to(src).as_posix(): len(p.read_text().splitlines())
            for p in sorted(src.rglob("*.py"))}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def _against_bound(parent: float, change: float, metric: dict) -> dict:
    """change/parent ratio of medians and whether it is within the bound."""
    ratio = change / parent
    if metric["better"] == "higher":
        within = ratio >= 1.0 - metric["bound"]
    else:
        within = ratio <= 1.0 + metric["bound"]
    return {"ratio": ratio, "bound": metric["bound"],
            "better": metric["better"], "within_bound": bool(within)}


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[41, 42, 43])
    args = parser.parse_args(argv)
    if len(args.seeds) < 3:
        parser.error("need at least 3 seeds: figures are medians")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    # byte code compiled earlier spares one side the compile that setup_s
    # measures, so the two sides would not be alike
    cached = [str(p) for path in checkouts.values()
              for part in ("src", "benchmark")
              for p in sorted((path / part).rglob("__pycache__"))]
    if cached:
        parser.error("remove the __pycache__ directories first: "
                     + ", ".join(cached))
    results = {label: {} for label in checkouts}
    runs = {label: [] for label in checkouts}
    for i in range(TIER1_REPEATS):
        order = list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]
        for label in order:
            runs[label].append(tier1(checkouts[label]))
            print(label, "tier-1:", runs[label][-1]["summary"],
                  file=sys.stderr)
    suites = {label: tier1_medians(runs[label]) for label in checkouts}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for i, seed in enumerate(args.seeds):
            order = list(checkouts) if i % 2 == 0 else list(checkouts)[::-1]
            for label in order:
                line = run_once(checkouts[label], workload, seed)
                results[label].setdefault(workload, []).append(line)
                print(label, workload, seed, json.dumps(line["metrics"]),
                      file=sys.stderr)
    report = {"machine": machine(), "seeds": args.seeds,
              "seconds": BENCHMARK["run_seconds"], "checkouts": {}}
    for label, path in checkouts.items():
        modules = src_lines_by_module(path)
        entry = {"src_lines": sum(modules.values()),
                 "src_lines_by_module": modules, "tier1": suites[label],
                 "workloads": {}}
        for workload, lines in results[label].items():
            entry["workloads"][workload] = {
                "correct": all(r["correct"] for r in lines),
                "failed_share": (sum(r["failed"] for r in lines)
                                 / max(1, sum(r["attempted"] for r in lines))),
                "metrics": {name: {"unit": m["unit"],
                                   **summary([r["metrics"][name]["value"]
                                              for r in lines])}
                            for name, m in lines[0]["metrics"].items()}}
        report["checkouts"][label] = entry
    base, new = (report["checkouts"][label]["workloads"] for label in checkouts)
    ends = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    higher = {name: m["better"] == "higher" for name, m in ends.items()}
    report["wins_of_change"] = {
        workload: {name: sum((b > a) if higher[name] else (b < a)
                             for a, b in zip(base[workload]["metrics"][name]
                                             ["runs"], m["runs"]))
                   for name, m in new[workload]["metrics"].items()}
        for workload in new}
    report["bounds_of_change"] = {
        workload: {name: _against_bound(
            base[workload]["metrics"][name]["median"], m["median"],
            ends[name]) for name, m in new[workload]["metrics"].items()
            if name in ends}
        for workload in new}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

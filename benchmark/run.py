"""Benchmark of the socialbayes package, one workload per run.

    python3 benchmark/run.py --workload mean-process --seed 1 --seconds 30 --trace 0

Workloads: mean-process, ensemble, verify-cli (see README.md).  The run
imports the package from the checkout's src/, builds the workload's
inputs from the seed (repeated; the median is setup_s), runs one untimed
round whose outputs are checked against references computed by the
benchmark, then repeats whole timed rounds until --seconds have passed.
Every timed round must reproduce the checked round exactly.

Times are taken against a speed reference: a fixed computation of the
benchmark's own, timed right before and after every case, whose nominal
time is REF_NOMINAL_S.  A case's figure is the median over the rounds
of its wall time divided by the reference's mean time around it, times
REF_NOMINAL_S; so the figures read as wall-clock figures on a machine
running at a fixed speed, and the machine's speed swings between and
within runs cancel out.  Each case names the reference whose work is
like its own (see REFERENCES).

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the
time untraced and half with every layer wrapped in spans, and reports
the per-layer metrics, per round, plus trace.overhead_s.  The last line
of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import os

# One BLAS thread: with the interpreter's thread that is at most two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import fields, is_dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmark_out"
SETUP_REPEATS = 5
REF_NOMINAL_S = 0.02
# reference name -> (agents, steps).  "small" is interpreter dispatch
# and tiny array calls; "wide" is 101-wide array arithmetic and a
# 101 x 101 matrix-vector product, which a slower machine slows less.
REFERENCES = {"small": (4, 2000), "wide": (100, 1400)}

END_TO_END = {
    "steps_per_s": "steps/s",
    "wide_steps_per_s": "steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference_seconds(name: str = "small") -> float:
    """Wall time of the named speed reference.

    A noisy mean recursion in plain numpy plus interpreter arithmetic,
    the mix of work the package's kernels spend their time in, so it
    slows and speeds up with them.  It never changes, whatever the
    package does.
    """
    n, steps = REFERENCES[name]
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    a = np.eye(n + 1)
    a[1:, 0] = 1.0
    deg = a.sum(axis=1)
    y = np.ones(n + 1)
    p = np.ones(n + 1)
    acc = 0
    for i in range(steps):
        g = rng.standard_normal(n + 1)
        y = np.where(deg > 0, (p * y + a @ (y + g)) / (p + deg), y)
        p = p + deg
        acc += i * 3 % 7
    return time.perf_counter() - t0


class Probe:
    """Spans from the benchmark's own call sites; inert until tracing."""

    tracer = None

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


def import_package():
    """Import socialbayes afresh (its modules only) and return it."""
    for name in [m for m in sys.modules
                 if m == "socialbayes" or m.startswith("socialbayes.")]:
        del sys.modules[name]
    sb = importlib.import_module("socialbayes")
    importlib.import_module("socialbayes.cli")
    return sb


def same(a, b) -> bool:
    """Exact equality of case outputs: arrays, dataclasses, containers."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return (a.shape == b.shape and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"))
    if is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return (isinstance(b, dict) and a.keys() == b.keys()
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same(x, y) for x, y in zip(a, b)))
    if isinstance(a, float) and a != a:
        return isinstance(b, float) and b != b
    return a == b


def run_rounds(cases, checked, seconds, probe):
    """Whole rounds of every case until `seconds` pass.

    Returns (rounds, {label: [(wall time, reference time)]}, [round time
    in reference units], mismatches).  A case's reference time is the
    mean of its speed reference timed right before and after it; a case
    whose output differs from the checked round is a mismatch.
    """
    timings = {c.label: [] for c in cases}
    walls = []
    mismatches = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        last = (None, 0.0)  # the reference timed just before, and its time
        wall = 0.0
        for case in cases:
            before = (last[1] if last[0] == case.reference
                      else reference_seconds(case.reference))
            with probe.span("case:" + case.label):
                t0 = time.perf_counter()
                out = case.run()
                elapsed = time.perf_counter() - t0
            last = (case.reference, reference_seconds(case.reference))
            ref = (before + last[1]) / 2
            timings[case.label].append((elapsed, ref))
            wall += elapsed / ref
            if not same(out, checked[case.label]):
                mismatches.append("%s: round %d output differs from the "
                                  "checked round" % (case.label, rounds + 1))
        walls.append(wall)
        rounds += 1
    return rounds, timings, walls, mismatches


def relative(pairs) -> float:
    """Median of wall time over reference time, times REF_NOMINAL_S."""
    return REF_NOMINAL_S * statistics.median(t / r for t, r in pairs)


def timed_setup(workload, seed, workdir):
    """SETUP_REPEATS fresh imports and input builds: (sb, inputs, setup_s)."""
    pairs = []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds()
        t0 = time.perf_counter()
        sb = import_package()
        inputs = workload.build(sb, seed, workdir)
        elapsed = time.perf_counter() - t0
        pairs.append((elapsed, (before + reference_seconds()) / 2))
    return sb, inputs, relative(pairs)


def end_to_end(cases, timings, setup_s):
    def rate(wide):
        chosen = [c for c in cases if c.wide == wide]
        return (sum(c.steps for c in chosen)
                / sum(relative(timings[c.label]) for c in chosen))

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"steps_per_s": rate(False), "wide_steps_per_s": rate(True),
            "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socialbayes" / "__init__.py").is_file():
        print("socialbayes sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    probe = Probe()
    sb, inputs, setup_s = timed_setup(workload, args.seed,
                                      OUT / workload.name)
    cases = workload.cases(sb, inputs, probe)
    checked = {c.label: c.run() for c in cases}
    problems, failed_ops = workload.check(sb, inputs, checked)
    ops = sum(1 for out in checked.values() for key in out
              if not key.startswith("_"))

    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, timings, walls, mismatches = run_rounds(cases, checked, seconds,
                                                    probe)
    if args.trace:
        metrics, units, traced = trace_run(sb, workload, args, probe, cases,
                                           checked, walls, seconds)
        rounds += traced["rounds"]
        mismatches += traced["mismatches"]
    else:
        metrics = end_to_end(cases, timings, setup_s)
        units = END_TO_END
    problems += mismatches
    for line in problems:
        print("check failed: " + line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds * ops,
        "failed": rounds * len(failed_ops),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def trace_run(sb, workload, args, probe, cases, checked, untraced_walls,
              seconds):
    """Traced half of a --trace 1 run: one traced set-up, then rounds."""
    import spans

    tracer = spans.Tracer()
    tracer.install(sb)
    probe.tracer = tracer
    try:
        with tracer.span("setup"):
            workload.build(sb, args.seed, OUT / workload.name)
        first = len(tracer.start)
        tracer.counts.clear()  # counters cover the rounds alone
        rounds, _, walls, mismatches = run_rounds(cases, checked, seconds,
                                                  probe)
    finally:
        tracer.uninstall()
        probe.tracer = None
    tracer.save(OUT / ("spans-%s-seed%d.npz" % (workload.name, args.seed)))
    metrics, units = spans.per_layer(tracer, first, rounds, cases)
    metrics["trace.overhead_s"] = REF_NOMINAL_S * (
        statistics.median(walls) - statistics.median(untraced_walls))
    units["trace.overhead_s"] = "s"
    return metrics, units, {"rounds": rounds, "mismatches": mismatches}


if __name__ == "__main__":
    sys.exit(main())

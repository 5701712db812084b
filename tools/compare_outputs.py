"""Compare the files the CLI writes in a parent and a change checkout.

    python3 tools/compare_outputs.py ../parent .

Each checkout runs the five subcommands (simulate, expected, verify,
counterexample, ratefit) on nine configs: its configs/example.ini, its
configs/counterexample.ini, and seven copies of its example.ini
(DERIVED): one with inject_fault = transition, one with a random
schedule (kind = random, edge_probability = 0.2), two wide ones at
horizon 300, n = 100 on the ring and n = 30 on a random schedule with
edge_probability = 0.1, one with n = 30 on the ring at horizon 300 (4
runs, runs * n^2 = 3,600), one with n = 100 and ensemble = 20 at
horizon 1000, large enough to split its runs over processes, and one
whose sums overflow (n = 30, truth = x0 = 1.7e308, horizon 30).  Each
side runs in its own empty working directory, every config writing to
its own --out directory there, with no byte code left under src/.  The
exit codes and every written file are compared, a file by
tables.files_match (equal after its timestamp line).
Prints one line per difference; exit status 1 on any, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from socialbayes.tables import files_match  # noqa: E402

COMMANDS = ("simulate", "expected", "verify", "counterexample", "ratefit")


# label: the (old, new) text replacements that derive a config from
# example.ini.  The wide configs reach past n = 8 for the noisy kernel
# (n = 100 on a ring, whose rows have at most two senders, and a random
# n = 30) and past n = 24 for run_expected.  The mid-ring config's ring
# patterns have at most two senders a row but its runs * n^2 is under
# 10,000, where a checkout that picks sum or product by run count
# multiplies them.  The overflow config's step sums overflow, so
# simulate and expected stop with a run error.  The
# split config's ensemble, 20 runs * 1000 steps * 101 entries, is past
# dynamics._SPLIT_MIN, so its runs are stepped in forked processes.
DERIVED = {
    "fault": (("inject_fault = none", "inject_fault = transition"),),
    "random": (("\nkind = periodic\n",
                "\nkind = random\nedge_probability = 0.2\n"),),
    "wide-ring": (("\nn = 4\n", "\nn = 100\n"),
                  ("\nhorizon = 1000\n", "\nhorizon = 300\n")),
    "wide-random": (("\nn = 4\n", "\nn = 30\n"),
                    ("\nkind = periodic\n",
                     "\nkind = random\nedge_probability = 0.1\n"),
                    ("\nhorizon = 1000\n", "\nhorizon = 300\n")),
    "mid-ring": (("\nn = 4\n", "\nn = 30\n"),
                 ("\nhorizon = 1000\n", "\nhorizon = 300\n")),
    "split": (("\nn = 4\n", "\nn = 100\n"),
              ("\nensemble = 4\n", "\nensemble = 20\n")),
    "overflow": (("\nn = 4\n", "\nn = 30\n"),
                 ("\ntruth = 0.0\n", "\ntruth = 1.7e308\n"),
                 ("\nx0 = 2.0\n", "\nx0 = 1.7e308\n"),
                 ("\nhorizon = 1000\n", "\nhorizon = 30\n")),
}


def configs(checkout: Path, workdir: Path) -> dict:
    """Label -> config path of the nine configs, the DERIVED ones written
    in workdir; ValueError when example.ini lacks a replaced text."""
    example = checkout / "configs" / "example.ini"
    paths = {"example": example,
             "counterexample": checkout / "configs" / "counterexample.ini"}
    for label, replacements in DERIVED.items():
        text = example.read_text()
        for old, new in replacements:
            if old not in text:
                raise ValueError(f"{example} has no {old.strip()!r}")
            text = text.replace(old, new)
        paths[label] = workdir / (label + ".ini")
        paths[label].write_text(text)
    return paths


def run_side(checkout: Path, workdir: Path) -> dict:
    """Run every subcommand on every config in workdir with checkout's
    package; returns {(label, command): exit code}, the files written
    under workdir/out/<label>."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    codes = {}
    for label, config in configs(checkout, workdir).items():
        for command in COMMANDS:
            codes[label, command] = subprocess.run(
                [sys.executable, "-m", "socialbayes.cli", command, "--config",
                 str(config), "--out", str(workdir / "out" / label)],
                cwd=workdir, env=env, capture_output=True).returncode
    return codes


def compare_dirs(parent: Path, change: Path) -> list[str]:
    """One line per file written on one side only or differing by
    files_match, by its path under the two directories."""
    files = {side: {p.relative_to(root).as_posix()
                    for p in root.rglob("*") if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    problems = []
    for name in sorted(files["parent"] | files["change"]):
        if name not in files["change"]:
            problems.append("only in parent: " + name)
        elif name not in files["parent"]:
            problems.append("only in change: " + name)
        elif not files_match(parent / name, change / name):
            problems.append("differs: " + name)
    return problems


def compare_codes(parent: dict, change: dict) -> list[str]:
    return ["exit code of %s on %s: parent %d, change %d"
            % (command, label, parent[label, command], change[label, command])
            for label, command in parent
            if parent[label, command] != change[label, command]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side in ("parent", "change"):
            workdir = Path(tmp) / side
            workdir.mkdir()
            sides[side] = run_side(getattr(args, side).resolve(), workdir)
        for (label, command), code in sides["change"].items():
            print("%s %s: exit %d" % (label, command, code))
        problems = (compare_codes(sides["parent"], sides["change"])
                    + compare_dirs(Path(tmp) / "parent" / "out",
                                   Path(tmp) / "change" / "out"))
        written = sum(1 for p in (Path(tmp) / "change" / "out").rglob("*")
                      if p.is_file())
    for line in problems:
        print(line)
    print("%d file(s) written by the change, %d difference(s)"
          % (written, len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

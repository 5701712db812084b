"""Compare the files the CLI writes in a parent and a change checkout.

    python3 tools/compare_outputs.py ../parent .

Each checkout runs the five subcommands (simulate, expected, verify,
counterexample, ratefit) on four configs: its configs/example.ini, its
configs/counterexample.ini, a copy of its example.ini with
inject_fault = transition, and a copy with a random schedule
(kind = random, edge_probability = 0.2).  Each side runs in its own
empty working directory, every config writing to its own --out
directory there, with no byte code left under src/.  The exit codes
and every written file are compared, a file by tables.files_match
(equal after its timestamp line).
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


def configs(checkout: Path, workdir: Path) -> dict:
    """Label -> config path of the four configs, the fault and random
    copies made in workdir."""
    example = checkout / "configs" / "example.ini"
    fault, random = workdir / "fault.ini", workdir / "random.ini"
    fault.write_text(example.read_text().replace(
        "inject_fault = none", "inject_fault = transition"))
    random.write_text(example.read_text().replace(
        "\nkind = periodic\n", "\nkind = random\nedge_probability = 0.2\n"))
    return {"example": example,
            "counterexample": checkout / "configs" / "counterexample.ini",
            "fault": fault, "random": random}


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

"""Tabular output for trajectories, summaries, and check reports.

Every table is a CSV file: a timestamp line, a block of ``# key: value``
metadata, then a header row (``t,agent,mean,precision`` or the columns
of that table) and one row per (time, agent) pair or per check.  The
writers hand write_table a sequence per column, which it writes a
column at a time with the ``csv`` module's quoting: a field holding a
comma (a check name such as ``diagonal_bound[s=0,kappa=3]``), a quote
or a newline is quoted, so every file is byte for byte what
``csv.writer`` writes, but for a field holding a bare carriage return,
which is quoted too so that it reads back.  Files are UTF-8, written
and read with no newline translation.

The first line of every file is the generation timestamp and is the only
line excluded when comparing files for reproducibility; everything after
it is deterministic for a fixed config and seed.  Floats are rendered
with ``repr`` (shortest round-trip form), so equal inputs give equal
bytes.  The truth agent's precision is written as ``inf``; every
precision column comes from the ledger rows of dynamics.ledger_for_times.

A column reads back by its written text: int64 if numpy parses every cell
as one (``str`` of an int), else float64 if it parses every cell as one
(``repr`` of a float, ``2.0``, ``inf`` and ``nan`` too), else the strings
as an object array; an empty column is float64.  An unquoted body of
numbers is read in one np.loadtxt pass, every other body by csv.reader.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dynamics import (EnsembleResult, SystemParams, Trajectory,
                       _precisions, ledger_for_times)
from .expected import ExpectedTrajectory
from .schedules import GraphSchedule

def timestamp_line() -> str:
    return "# generated: " + datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def format_value(x) -> str:
    """Deterministic text form: repr for floats, str for ints/strings."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_table(path, meta: dict, columns: list[str], body, fmt: str = "csv") -> Path:
    """Write `body`, one sequence of cells per name in `columns`, under a
    meta block.

    Cells are strings, ints and floats (numpy float64 and integer scalars
    included), each written as its str (repr for a float, as format_value
    gives it) in the bytes csv.writer writes: quoted when it holds a
    comma, quote, newline or carriage return, and "" for a row of one
    empty cell.  One pass over a column's cell types serves its checks;
    a column of numbers alone is not scanned for quoting.  A ValueError,
    raised before anything is written: columns other in count than the
    names or unequal in length, a repeated name (whose columns would read
    back as one), any `fmt` but "csv", a meta key or value
    whose text holds a line break, a meta key or header that read_table
    would not give back (a key holding ": " or named generated, or a
    header written starting "# ", a meta line), an int cell outside
    int64, which would read back as a float, or a bool cell (Python's or
    numpy's), whose str is not format_value's 1 or 0.
    """
    if fmt != "csv":
        raise ValueError("unknown format %r; tables are csv" % (fmt,))
    lines = ["# %s: %s" % (k, format_value(v)) for k, v in meta.items()]
    for key, line in zip(meta, lines):
        if "\n" in line or "\r" in line:
            raise ValueError("meta %r holds a line break" % (key,))
        if ": " in str(key) or str(key) == "generated":
            raise ValueError("meta key %r does not read back" % (key,))
    lengths = sorted({len(column) for column in body})
    if len(body) != len(columns) or len(lengths) > 1:
        raise ValueError("%d columns of %s cells under %d names"
                         % (len(body), lengths, len(columns)))
    seen = set()
    for name in map(str, columns):
        if name in seen:
            raise ValueError("column %r is repeated" % (name,))
        seen.add(name)
    cells = []
    for name, column in zip(columns, body):
        kinds = set(map(type, column))
        if kinds & {bool, np.bool_}:
            raise ValueError("column %r holds a bool" % (name,))
        ints = {k for k in kinds if issubclass(k, (int, np.integer))}
        values = column if kinds == {int} else [
            int(v) for v in column if type(v) in ints] if ints else ()
        if values and not -2 ** 63 <= min(values) <= max(values) < 2 ** 63:
            raise ValueError("column %r holds an int outside int64" % (name,))
        texts = [str(name), *map(str, column)]
        numbers = all(issubclass(k, (int, float, np.number)) for k in kinds)
        if _QUOTED.search(texts[0] if numbers else "".join(texts)):
            texts = ['"%s"' % c.replace('"', '""') if _QUOTED.search(c)
                     else c for c in texts]
        cells.append(texts)
    if len(cells) == 1:
        cells[0] = [cell or '""' for cell in cells[0]]
    if cells and cells[0][0].startswith("# "):
        raise ValueError("column %r would read back as meta" % (columns[0],))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([timestamp_line(), *lines, *map(
        ",".join, zip(*cells))]) + "\n", encoding="utf-8", newline="")
    return path


_QUOTED = re.compile('[,"\n\r]')  # a cell the writer quotes


@dataclass
class TableData:
    """Parsed table: metadata plus one array per column."""

    meta: dict
    columns: dict

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]


def read_table(path) -> TableData:
    """Read a file written by write_table, each column int64, else float64,
    else strings, by its text as the module docstring says.  A body with
    no quote or carriage return whose first row is numbers goes to one
    np.loadtxt pass, each column as its first cell's type; any other body,
    or one that pass refuses, to csv.reader, where a row with more or
    fewer cells than the header is a ValueError naming its line."""
    lines = Path(path).read_bytes().decode("utf-8").split("\n")
    meta = {}
    for h, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            break
    else:
        raise ValueError("no header row in %s" % path)
    meta.pop("generated", None)
    body = "\n".join(lines[h:])
    if '"' not in body and "\r" not in body:
        header, data = lines[h].split(","), lines[h + 1:]
        first = next((line.split(",") for line in data if line), [])
        kinds = [_as_array([cell]).dtype for cell in first]
        if len(kinds) == len(header) and np.dtype(object) not in kinds:
            try:
                parsed = np.loadtxt(data, [("", k) for k in kinds], ndmin=1,
                                    delimiter=",", comments=None, unpack=True)
            except ValueError:  # a ragged row, a string, a float under an int
                pass
            else:
                return TableData(meta=meta, columns={
                    name: col.copy() for name, col in zip(header, parsed)})
    header, *data = [row for row in csv.reader(io.StringIO(body)) if row]
    if set(map(len, data)) - {len(header)}:
        reader = csv.reader(io.StringIO(body))
        row = next(r for r in reader if r and len(r) != len(header))
        raise ValueError("%s, line %d: %d cells under a %d-column header"
                         % (path, h + reader.line_num, len(row), len(header)))
    columns = zip(*data) if data else [()] * len(header)
    return TableData(meta=meta, columns={
        name: _as_array(cells) for name, cells in zip(header, columns)})


def _as_array(cells) -> np.ndarray:
    if not cells:
        return np.empty(0)
    for dtype in (np.int64, np.float64):
        try:
            np.array(cells[:1], dtype)  # the first cell rules a type out
            return np.array(cells, dtype)
        except (ValueError, OverflowError):
            pass
    return np.array(cells, dtype=object)


TRAJECTORY_COLUMNS = ["t", "agent", "mean", "precision"]


def _trajectory_meta(params: SystemParams, kind: str, extra=None) -> dict:
    return {
        "kind": kind,
        "n": params.n,
        "truth": float(params.truth),
        "tau": float(params.tau),
        "tau0": float(params.tau0),
        "truth_noise": "on" if params.truth_noise else "off",
        "seed": params.seed,
        **(extra or {}),
    }


def _trajectory_columns(times, means, precisions) -> list:
    """t, agent, value, value columns of Python numbers, a row per (time,
    agent) pair."""
    n1 = means.shape[1]
    return [np.repeat(np.asarray(times, dtype=np.int64), n1).tolist(),
            list(range(n1)) * len(times),
            np.asarray(means, dtype=np.float64).ravel().tolist(),
            np.asarray(precisions, dtype=np.float64).ravel().tolist()]


def write_trajectory(path, traj: Trajectory) -> Path:
    meta = _trajectory_meta(traj.params, "simulated", {"run": traj.run_index})
    body = _trajectory_columns(traj.times, traj.means, traj.precisions)
    return write_table(path, meta, TRAJECTORY_COLUMNS, body)


def write_expected_trajectory(path, expected: ExpectedTrajectory,
                              schedule: GraphSchedule) -> Path:
    """Expected-process table in the trajectory format, kind `expected`."""
    ledger = ledger_for_times(schedule, expected.params, expected.times)
    prec = _precisions(ledger, expected.params.tau)
    meta = _trajectory_meta(expected.params, "expected", {"run": 0})
    body = _trajectory_columns(expected.times, expected.means, prec)
    return write_table(path, meta, TRAJECTORY_COLUMNS, body)


SUMMARY_COLUMNS = ["t", "agent", "mean", "variance"]


def write_ensemble_summary(path, ens: EnsembleResult) -> Path:
    """Per-time, per-agent mean and across-run variance (ddof=1 when M > 1)."""
    meta = _trajectory_meta(ens.params, "ensemble-summary", {"runs": ens.n_runs})
    mean = ens.means.mean(axis=0)
    ddof = 1 if ens.n_runs > 1 else 0
    var = ens.means.var(axis=0, ddof=ddof)
    body = _trajectory_columns(ens.times, mean, var)
    return write_table(path, meta, SUMMARY_COLUMNS, body)


def trajectory_norms(table: TableData):
    """(times, sup-norm of truth-shifted means) from a trajectory table.

    Works on expected, simulated, and ensemble-summary tables; the truth
    value comes from the metadata block.
    """
    truth = float(table.meta.get("truth", 0.0))
    t = np.asarray(table["t"])
    agent = np.asarray(table["agent"])
    mean = np.asarray(table["mean"], dtype=float)
    learners = agent >= 1
    times, group = np.unique(t[learners], return_inverse=True)
    norms = np.full(len(times), -np.inf)
    np.maximum.at(norms, group, np.abs(mean[learners] - truth))
    return times, norms


CHECK_COLUMNS = ["name", "lhs", "rhs", "margin", "status"]


def _verdict(check) -> str:
    return "pass" if check.passed else ("gated" if check.gated else "FAIL")


def write_check_report(path, checks, extra_meta=None) -> Path:
    """One row per bound check: name, lhs, rhs, margin, pass/FAIL/gated."""
    meta = {"kind": "check-report", "checks": len(checks), **(extra_meta or {})}
    body = [[c.name for c in checks],
            *([float(getattr(c, k)) for c in checks] for k in CHECK_COLUMNS[1:4]),
            [_verdict(c) for c in checks]]
    return write_table(path, meta, CHECK_COLUMNS, body)


def check_report_text(checks) -> str:
    """Human side of the verify report: aligned one-line-per-check text."""
    lines = []
    width = max([len(c.name) for c in checks], default=4)
    for c in checks:
        lines.append("%-*s  lhs=%-24s rhs=%-24s margin=%-24s %s"
                     % (width, c.name, format_value(float(c.lhs)),
                        format_value(float(c.rhs)), format_value(float(c.margin)),
                        _verdict(c)))
    return "\n".join(lines)


RATE_COLUMNS = ["t", "norm"]


def write_rate_table(path, times, norms, meta=None) -> Path:
    return write_table(path, {"kind": "rate-table", **(meta or {})},
                       RATE_COLUMNS, [[*map(int, times)], [*map(float, norms)]])


def write_rate_report(path, fit, meta=None) -> Path:
    columns = ["slope", "intercept", "bound", "slack", "window_lo", "window_hi",
               "n_points", "status"]
    row = (float(fit.slope), float(fit.intercept), float(fit.theoretical_bound),
           float(fit.slack), int(fit.window[0]), int(fit.window[1]),
           int(fit.n_points), fit.status)
    return write_table(path, {"kind": "rate-report", **(meta or {})},
                       columns, [[cell] for cell in row])


SWITCH_COLUMNS = ["k", "t_k", "s_k", "value_at_t", "bound_at_t",
                  "value_at_s", "bound_at_s"]


def write_switch_table(path, switches) -> Path:
    meta = {"kind": "switch-table", "cycles": len(switches)}
    body = [[(int if j < 3 else float)(getattr(sw, name)) for sw in switches]
            for j, name in enumerate(SWITCH_COLUMNS)]  # k, t_k, s_k are ints
    return write_table(path, meta, SWITCH_COLUMNS, body)


def _comparable_bytes(path) -> bytes:
    """The file's bytes, past its first line when that is a timestamp."""
    data = Path(path).read_bytes()
    if data.startswith(b"# generated:"):
        data = data.partition(b"\n")[2]
    return data


def files_match(path_a, path_b) -> bool:
    """Byte-level equality ignoring each file's leading timestamp line."""
    return _comparable_bytes(path_a) == _comparable_bytes(path_b)

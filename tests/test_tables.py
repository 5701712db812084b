"""Every table writer reads back exactly."""

import csv
import dataclasses
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from socialbayes.analysis import BoundCheck, fit_rate, sweep_window_checks
from socialbayes.dynamics import SystemParams, run_ensemble, run_simulation
from socialbayes.expected import run_expected
from socialbayes.schedules import (
    make_counterexample_schedule,
    make_periodic_schedule,
)
from socialbayes.tables import (
    CHECK_COLUMNS,
    RATE_COLUMNS,
    SUMMARY_COLUMNS,
    SWITCH_COLUMNS,
    TRAJECTORY_COLUMNS,
    files_match,
    format_value,
    ledger_for_times,
    read_table,
    trajectory_norms,
    write_check_report,
    write_ensemble_summary,
    write_expected_trajectory,
    write_rate_report,
    write_rate_table,
    write_switch_table,
    write_table,
    write_trajectory,
)

PARAMS = SystemParams(n=3, tau=2.0, tau0=1.0, truth=0.5, seed=5)
SCHEDULE = make_periodic_schedule(3, 3, peer_rule="ring")

# Each test keeps its [csv] id; tables have one format.
pytestmark = pytest.mark.parametrize("fmt", ["csv"])


def _assert_reads_back(path, columns, rows, kind=None):
    table = read_table(path)
    assert list(table.columns) == columns
    for j, name in enumerate(columns):
        assert table[name].tolist() == [row[j] for row in rows], name
    if kind is not None:
        assert table.meta["kind"] == kind


def _columns(rows, width):
    """Rows turned into the one list per column that write_table takes."""
    return [[row[j] for row in rows] for j in range(width)]


def _trajectory_rows(times, means, precisions):
    return [(int(t), i, means[k, i], precisions[k, i])
            for k, t in enumerate(times) for i in range(means.shape[1])]


def test_write_table_quotes_awkward_fields(tmp_path, fmt):
    columns = ["name", "value", "count"]
    rows = [("diagonal_bound[s=0,kappa=3]", 0.1, 1),
            ('say "hi", twice', float("inf"), 2),
            ("plain", -1e-300, 3)]
    path = write_table(tmp_path / ("t." + fmt), {"kind": "x, y"}, columns,
                       _columns(rows, 3))
    _assert_reads_back(path, columns, rows, "x, y")


def test_write_table_is_csv_only(tmp_path, fmt):
    """fmt names the one format; any other value writes nothing."""
    path = write_table(tmp_path / ("t." + fmt), {}, ["t"], [[1]], fmt)
    assert read_table(path)["t"].tolist() == [1]
    with pytest.raises(ValueError, match="tables are csv"):
        write_table(tmp_path / "t.jsonl", {}, ["t"], [[1]], "jsonl")
    assert not (tmp_path / "t.jsonl").exists()


def test_write_trajectory(tmp_path, fmt):
    traj = run_simulation(SCHEDULE, PARAMS, 20, x0=2.0, record_every=3)
    path = write_trajectory(tmp_path / ("run." + fmt), traj)
    _assert_reads_back(path, TRAJECTORY_COLUMNS, _trajectory_rows(
        traj.times, traj.means, traj.precisions), "simulated")


def test_write_expected_trajectory(tmp_path, fmt):
    expected = run_expected(SCHEDULE, PARAMS, 20, x0=2.0)
    times = np.r_[np.arange(0, 20, 3), 20]
    thinned = dataclasses.replace(expected, times=times,
                                  means=expected.means[times],
                                  norms=expected.norms[times])
    path = write_expected_trajectory(tmp_path / ("e." + fmt), thinned,
                                     SCHEDULE)
    counts = np.cumsum([np.zeros(4, dtype=np.int64)]
                       + [SCHEDULE.arrays_at(t)[1] for t in range(20)], axis=0)
    precisions = PARAMS.tau * (PARAMS.ratio + counts[times])
    precisions[:, 0] = np.inf
    _assert_reads_back(path, TRAJECTORY_COLUMNS, _trajectory_rows(
        times, expected.means[times], precisions), "expected")


def test_expected_precision_exact_at_non_dyadic_ratio(tmp_path, fmt):
    """The precision column is tau * (ratio + int64 receive count) to the
    last bit, also at ratio 1/3, where a float running sum drifts."""
    params = SystemParams(n=4, tau=3.0, tau0=1.0)
    schedule = make_periodic_schedule(4, 3, peer_rule="ring")
    horizon = 3000
    expected = run_expected(schedule, params, horizon, x0=2.0)
    path = write_expected_trajectory(tmp_path / ("e." + fmt), expected,
                                     schedule)
    counts = np.cumsum([np.zeros(5, dtype=np.int64)]
                       + [schedule.arrays_at(t)[1] for t in range(horizon)],
                       axis=0)
    precisions = params.tau * (params.ratio + counts)
    precisions[:, 0] = np.inf
    table = read_table(path)
    assert np.array_equal(table["precision"], precisions.ravel())


def test_write_ensemble_summary(tmp_path, fmt):
    ens = run_ensemble(SCHEDULE, PARAMS, 20, n_runs=3, x0=2.0, record_every=5)
    path = write_ensemble_summary(tmp_path / ("s." + fmt), ens)
    mean = ens.means.mean(axis=0)
    var = ens.means.var(axis=0, ddof=1)
    rows = [(int(t), i, mean[k, i], var[k, i])
            for k, t in enumerate(ens.times) for i in range(4)]
    _assert_reads_back(path, SUMMARY_COLUMNS, rows, "ensemble-summary")


def test_write_check_report(tmp_path, fmt):
    checks = sweep_window_checks(SCHEDULE, PARAMS, 12, 3)
    checks += [BoundCheck("gated[s=0,kappa=3]", 1.0, 0.0, status="burn-in"),
               BoundCheck("failing[pairs=2]", 2.0, 1.0)]
    assert any("," in c.name for c in checks)
    path = write_check_report(tmp_path / ("verify." + fmt), checks)
    rows = [(c.name, c.lhs, c.rhs, c.margin,
             "pass" if c.passed else ("gated" if c.gated else "FAIL"))
            for c in checks]
    _assert_reads_back(path, CHECK_COLUMNS, rows, "check-report")


def test_write_rate_table_and_report(tmp_path, fmt):
    expected = run_expected(SCHEDULE, PARAMS, 200, x0=2.0)
    path = write_rate_table(tmp_path / ("points." + fmt), expected.times,
                            expected.norms)
    _assert_reads_back(path, RATE_COLUMNS,
                       list(zip(expected.times.tolist(), expected.norms)),
                       "rate-table")
    fit = fit_rate(expected.times, expected.norms, window=(10, 200), d=3,
                   kappa=3)
    path = write_rate_report(tmp_path / ("fit." + fmt), fit)
    columns = ["slope", "intercept", "bound", "slack", "window_lo",
               "window_hi", "n_points", "status"]
    row = (fit.slope, fit.intercept, fit.theoretical_bound, fit.slack,
           fit.window[0], fit.window[1], fit.n_points, fit.status)
    _assert_reads_back(path, columns, [row], "rate-report")


def test_write_switch_table(tmp_path, fmt):
    schedule = make_counterexample_schedule(1.0, 2000)
    switches = schedule.switches
    assert switches
    path = write_switch_table(tmp_path / ("sw." + fmt), switches)
    rows = [(sw.k, sw.t_k, sw.s_k, sw.value_at_t, sw.bound_at_t,
             sw.value_at_s, sw.bound_at_s) for sw in switches]
    _assert_reads_back(path, SWITCH_COLUMNS, rows, "switch-table")


def test_write_table_cells_as_format_value_writes_them(tmp_path, fmt):
    """Cells go to the csv module as they are; the bytes are those of the
    per-cell format_value path."""
    columns = ["name", "value", "count"]
    rows = [("diagonal_bound[s=0,kappa=3]", float("inf"), 1),
            ("neg", float("-inf"), np.int64(2)),
            ("nan", float("nan"), 3),
            ("zero", -0.0, 4),
            ("big", 1e16, 5),
            ("small", 1e-05, 6),
            ("numpy", np.float64(0.1), np.int64(-7)),
            ("numpy-inf", np.float64(-np.inf), 8)]
    path = write_table(tmp_path / ("t." + fmt), {"kind": "cells"}, columns,
                       _columns(rows, 3))
    table = read_table(path)
    body = io.StringIO()
    csv.writer(body, lineterminator="\n").writerows(
        [columns] + [list(map(format_value, row)) for row in rows])
    assert path.read_text().splitlines()[2:] == body.getvalue().splitlines()
    for j, name in enumerate(columns):
        want = np.array([row[j] for row in rows])
        assert np.array_equal(table[name], want,
                              equal_nan=want.dtype.kind == "f"), name
    assert np.signbit(table["value"][3])


def _csv_module_body(meta, columns, rows):
    body = io.StringIO()
    body.writelines("# %s: %s\n" % (k, format_value(v))
                    for k, v in meta.items())
    csv.writer(body, lineterminator="\n").writerows([columns] + rows)
    return body.getvalue()


def test_write_table_bytes_are_the_csv_modules(tmp_path, fmt):
    """The column-wise writer gives csv.writer's bytes on awkward cells:
    commas, quotes, CR and LF, an empty string as a first cell, a middle
    cell and alone in a row, numpy scalars and extreme floats."""
    rows = [("", 1.5, np.int64(3)),
            ('a "quoted", cell', np.float64(0.1), ""),
            ("cr\rand\nlf", float("inf"), -7),
            ("x", float("nan"), np.int64(-2 ** 62)),
            ("y", -1e-300, 0), ("z", 1e300, 1), ("", np.float64(-0.0), "")]
    tables = {"three": (["name", "value", "count"], rows),
              "one": ([""], [("",), ("a,b",), (" ",), ('"',), ("",)]),
              "numbers": (["v"], [(v,) for v in (1e16, 1e-05, 0.5, 2.0)]),
              "empty": (["a", "b"], [])}
    for name, (columns, rows) in tables.items():
        path = write_table(tmp_path / (name + "." + fmt), {"kind": "a, b"},
                           columns, _columns(rows, len(columns)))
        with open(path, newline="") as f:
            assert f.read().split("\n", 1)[1] == _csv_module_body(
                {"kind": "a, b"}, columns, rows), name


@pytest.mark.parametrize("cells", [
    ["a\rb", "plain", ""],
    ["a\r\nb", "x,y", "c\rd", 'say "hi"', "\r", "e\n"]],
    ids=["alone", "with-other-quoted-cells"])
def test_carriage_returns_read_back(tmp_path, fmt, cells):
    """A cell holding a carriage return, bare or before a newline, is
    quoted and reads back as written, beside other quoted cells or none;
    it used to split its row or lose the carriage return."""
    path = write_table(tmp_path / ("t." + fmt), {"kind": "x"}, ["t", "name"],
                       [list(range(len(cells))), cells])
    assert path.read_bytes().count(b'"a\r') == 1
    table = read_table(path)
    assert table["name"].tolist() == cells
    assert table["t"].tolist() == list(range(len(cells)))


@pytest.mark.parametrize("meta", [{"kind": "x\ny"}, {"kind": "x\ry"},
                                  {"a\nb": 1}, {"n": 2, "kind": "x\r\n"}])
def test_write_table_refuses_line_breaks_in_meta(tmp_path, fmt, meta):
    """A meta key or value holding a line break would end the meta block
    ({"kind": "x\ny"} read back as kind x and a column y): refused,
    naming the key, and nothing is written."""
    key = next(k for k, v in meta.items() if set("\r\n") & set(k + str(v)))
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^meta %s holds a line break$"
                       % re.escape(repr(key))):
        write_table(path, meta, ["t"], [[1]])
    assert not path.exists()


@pytest.mark.parametrize("key", ["a: b", "generated"])
def test_write_table_refuses_meta_keys_that_do_not_read_back(tmp_path, fmt,
                                                             key):
    """read_table splits a meta line at its first ": " and drops the
    timestamp's key, so {"a: b": 1} would read back as {"a": "b: 1"} and
    a generated key not at all: refused, naming the key, and nothing is
    written."""
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^meta key %s does not read back$"
                       % re.escape(repr(key))):
        write_table(path, {key: 1, "kind": "x"}, ["t"], [[1]])
    assert not path.exists()
    meta = {"a:": "b", "a b": ":c", "generated_at": 1}  # these read back
    assert read_table(write_table(path, meta, ["t"], [[1]])).meta == {
        k: str(v) for k, v in meta.items()}


@pytest.mark.parametrize("columns", [["# a", "b"], ["# a"], ["# ", "b"]])
def test_write_table_refuses_a_header_read_back_as_meta(tmp_path, fmt,
                                                        columns):
    """read_table takes a line starting with "# " before the header for
    meta, so a header "# a,b" would read back as meta {"a,b": ""} with the
    first row as header: refused, naming the column, and nothing is
    written.  A first column "#" or "# a,b" (written quoted) reads back."""
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^column %s would read back as meta$"
                       % re.escape(repr(columns[0]))):
        write_table(path, {}, columns, [[1], [2], [3]][:len(columns)])
    assert not path.exists()
    for first in ("#", "# a,b"):
        table = read_table(write_table(path, {"kind": "x"}, [first, "b"],
                                       [[1, 3], [2, 4]]))
        assert table.meta == {"kind": "x"}
        assert list(table.columns) == [first, "b"]
        assert table[first].tolist() == [1, 3]


@pytest.mark.parametrize("big", [2 ** 63, -2 ** 63 - 1, 2 ** 70,
                                 np.uint64(2 ** 64 - 1)])
def test_write_table_refuses_ints_past_int64(tmp_path, fmt, big):
    """An int outside int64 would make its column read back as float64
    (2**63 as 9.223372036854776e+18): refused, naming the column, and
    nothing is written.  The int64 bounds themselves read back."""
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^column 'a' holds an int outside "
                       "int64$"):
        write_table(path, {}, ["b", "a"], [[1, 2], [big, 5]])
    assert not path.exists()
    body = [[-2 ** 63, 5], [np.int64(2 ** 63 - 1), np.uint64(1)]]
    table = read_table(write_table(path, {}, ["a", "b"], body))
    assert table["a"].dtype == table["b"].dtype == np.int64
    assert table["a"].tolist() == [-2 ** 63, 5]
    assert table["b"].tolist() == [2 ** 63 - 1, 1]


@pytest.mark.parametrize("body", [
    [[-2 ** 63, 5], [2 ** 63 - 1, True]],
    [[1, 2], [np.bool_(False), 0.5]],
    [["x", "y"], [False, True]]], ids=["with-ints", "numpy", "alone"])
def test_write_table_refuses_bools(tmp_path, fmt, body):
    """A bool cell was written as its str, True or False, where
    format_value gives 1 or 0, and a column of ints and a bool read back
    as strings: refused, naming the column, and nothing is written."""
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^column 'b' holds a bool$"):
        write_table(path, {}, ["a", "b"], body)
    assert not path.exists()


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                np.inf, -np.inf, np.nan]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats()
_ONE_LINE = st.text(st.characters(blacklist_characters="\n\r"))


def _same_floats(got, want) -> bool:
    """Equal bit for bit but for NaN payloads and signs: repr writes every
    NaN as nan."""
    want = np.array(want, dtype=np.float64)
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan].view(np.int64),
                               want[~nan].view(np.int64)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(meta=st.dictionaries(
           _ONE_LINE.filter(lambda k: ": " not in k and k != "generated"),
           st.integers() | _FLOATS | _ONE_LINE, max_size=4),
       rows=st.lists(st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1), _FLOATS),
                     max_size=6))
def test_tables_round_trip(tmp_path, fmt, meta, rows):
    """Meta values read back as their written text, an int64 column as
    int64 and a float64 column bit for bit (-0.0, subnormals, the largest
    finite floats, inf and nan among them); a table with no rows reads
    back as empty float64 columns."""
    table = read_table(write_table(tmp_path / "t.csv", meta, ["i", "x"],
                                   _columns(rows, 2)))
    assert table.meta == {k: format_value(v) for k, v in meta.items()}
    for k, v in meta.items():
        if isinstance(v, float):
            assert _same_floats(np.array([float(table.meta[k])]), [v])
    ints, floats = table["i"], table["x"]
    assert ints.dtype == (np.int64 if rows else np.float64)
    assert ints.tolist() == [i for i, _ in rows]
    assert floats.dtype == np.float64
    assert _same_floats(floats, [x for _, x in rows])


def _split_reader(path) -> dict:
    """The columns of a body with no quote or carriage return as the
    reader used to give them, splitting each line at its commas and typing
    each column by numpy's parse of all its cells: the oracle of the one
    np.loadtxt pass."""
    lines = path.read_text(encoding="utf-8").split("\n")
    h = next(h for h, line in enumerate(lines) if not line.startswith("# "))
    header, *data = [line.split(",") for line in lines[h:] if line]
    columns = zip(*data) if data else [()] * len(header)
    return {name: _typed(cells) for name, cells in zip(header, columns)}


def _typed(cells) -> np.ndarray:
    """int64 if numpy parses every cell as one, else float64, else the
    strings; an empty column is float64."""
    if not cells:
        return np.empty(0)
    for dtype in (np.int64, np.float64):
        try:
            return np.array(cells, dtype)
        except (ValueError, OverflowError):
            pass
    return np.array(cells, dtype=object)


def _same_array(got, want) -> bool:
    """Equal in dtype, shape and bits (NaN payloads and signs included)."""
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    if want.dtype == object:
        return got.tolist() == want.tolist()
    return np.array_equal(got.view(np.int64), want.view(np.int64))


# Texts a csv body must quote, or read as meta or blank, and texts numpy
# parses as numbers one way or another (with underscores, in other
# digits, past int64, as a signed nan).
_AWKWARD = st.sampled_from([",", '"', "\r", "\n", "\r\n", "# ", "#", "# a",
                            " ", "", "a,b", 'say "hi"', "x\rx"])
_NUMBER_TEXT = st.sampled_from(["1", "-0", " 2", "2.5", "1e5", "nan", "-nan",
                                "inf", "1_0", "\u0661", "0x1",
                                "9223372036854775808"])
_TEXT = _AWKWARD | _NUMBER_TEXT | st.text(
    st.sampled_from(',"\r\n# \t\x00\x85\u2028a1.5e-_\u0661'), max_size=4)
_CELLS = {"int": st.integers(-2 ** 63, 2 ** 63 - 1), "float": _FLOATS,
          "text": _TEXT}


@st.composite
def _tables(draw):
    """Unique column names and columns of ints, floats or texts."""
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=3))
    names = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds),
                          unique=True))
    length = draw(st.integers(0, 4))
    return names, [draw(st.lists(_CELLS[kind], min_size=length,
                                 max_size=length)) for kind in kinds]


@settings(derandomize=True, database=None, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_tables())
@example(table=([" "], [[1, 2]]))  # a header line of blanks alone
@example(table=(["t", "x"], [[1, 2], ["3", "4 # c"]]))  # "#" under numbers
def test_text_tables_round_trip(tmp_path, fmt, table):
    """A table of awkward names and texts (commas, quotes, CR, LF, "# ",
    blanks, text numpy reads as numbers) beside int and float columns
    reads back exactly, each column typed by its written text, or is
    refused before anything is written.  Where the body has no quote or
    carriage return, every column equals the old split reader's in dtype
    and bits."""
    names, body = table
    path = tmp_path / "t.csv"
    path.unlink(missing_ok=True)
    try:
        write_table(path, {}, names, body)
    except ValueError:
        assert names[0].startswith("# ") and not path.exists()
        return
    got = read_table(path)
    assert list(got.columns) == names
    for name, cells in zip(names, body):
        assert _same_array(got[name], _typed([str(c) for c in cells])), name
    if not set('"\r') & set(path.read_text(encoding="utf-8")):
        oracle = _split_reader(path)
        assert all(_same_array(got[name], oracle[name]) for name in names)


def test_files_match_compares_bytes_past_the_timestamp(tmp_path, fmt):
    """files_match skips a first line only when it is a timestamp and
    compares the rest byte for byte, line breaks included."""
    cells = ["p\rq", "p\nq", "p\rq"]
    a, b, c = (write_table(tmp_path / ("%d.csv" % k), {"kind": "x"},
                           ["t", "name"], [[1], [cell]])
               for k, cell in enumerate(cells))
    assert read_table(a)["name"][0] == "p\rq" and not files_match(a, b)
    assert files_match(a, c)
    body = "# kind: x\nt\n1\n"
    files = {"early": "# generated: 2026-01-01T00:00:00Z\n" + body,
             "late": "# generated: 2026-06-30T12:00:00Z\n" + body,
             "crlf": "# generated: 2026-01-01T00:00:00Z\n"
                     + body.replace("\n", "\r\n"),
             "untimed": "# kind: y\n" + body, "other": "# kind: z\n" + body}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode())
    assert files_match(tmp_path / "early", tmp_path / "late")
    assert not files_match(tmp_path / "early", tmp_path / "crlf")
    assert not files_match(tmp_path / "untimed", tmp_path / "other")


def test_write_table_refuses_ragged_rows(tmp_path, fmt):
    """Columns of unequal lengths, a row with a cell too many or too few,
    or more or fewer columns than names write nothing: the file could
    not be read back."""
    for body in ([[1, 2], [2.0]], [[1], [2.0], [3]], [[1, 2]]):
        with pytest.raises(ValueError, match="columns of .* cells under 2 "
                           "names$"):
            write_table(tmp_path / ("t." + fmt), {}, ["t", "mean"], body)
    assert not (tmp_path / ("t." + fmt)).exists()


@pytest.mark.parametrize("columns, name", [
    (["a", "a"], "a"), (["t", "a", "t"], "t"), (["1", 1, "b"], "1")],
    ids=["pair", "apart", "by-text"])
def test_write_table_refuses_repeated_columns(tmp_path, fmt, columns, name):
    """A repeated column name (as written, so "1" and 1 repeat) wrote a
    header that read back as one column, ["a", "a"] over [1] and [2] as
    {'a': [2]}: refused, naming it, and nothing is written."""
    path = tmp_path / ("t." + fmt)
    with pytest.raises(ValueError, match="^column '%s' is repeated$" % name):
        write_table(path, {}, columns, [[1], [2], [3]][:len(columns)])
    assert not path.exists()


def test_empty_and_one_column_tables_read_back_exactly(tmp_path, fmt):
    """Empty string cells, blank-looking cells and a cell with a newline
    in a one-column table, and a table with no rows, read back as written."""
    cells = ["", "a,b", " ", "two\nlines", '"', ""]
    path = write_table(tmp_path / ("one." + fmt), {}, ["name"], [cells])
    assert read_table(path)["name"].tolist() == cells
    path = write_table(tmp_path / ("num." + fmt), {}, ["v"], [[0.5, 2]])
    assert read_table(path)["v"].tolist() == [0.5, 2.0]
    path = write_table(tmp_path / ("none." + fmt), {"kind": "x"}, ["a"], [[]])
    table = read_table(path)
    assert list(table.columns) == ["a"] and table["a"].size == 0
    assert table.meta == {"kind": "x"}


@pytest.mark.parametrize("body, line", [
    ("t,mean\n1,2.0\n2,3.0,9\n3,4.0\n", 5),
    ("t,mean\n1,2.0\n2\n3,4.0\n", 5),
    ('t,name\n1,"a,b"\n2,"c",9\n', 5),
    ('t,name\n1,"a\nb"\n2\n', 6),
    ("t,mean\n1,2.0\n2,3.0\n3,4.0,\n", 6),
    ("t,mean\n1\n2,3.0\n", 4),
    ("t,name\n1,a\n2,b,c\n", 5)],
    ids=["long", "short", "quoted-long", "short-after-newline-cell",
         "trailing-comma-last", "short-first", "text-long"])
def test_ragged_rows_name_the_file_and_line(tmp_path, fmt, body, line):
    """A row with a cell too many or too few is a ValueError naming the
    file and its line (the timestamp is line 1), in a body of numbers,
    where the one np.loadtxt pass refuses it, as in a quoted body or one
    of strings; it was dropped or an IndexError."""
    path = tmp_path / ("t." + fmt)
    path.write_text("# generated: 2026-01-01T00:00:00Z\n# kind: x\n" + body)
    with pytest.raises(ValueError, match=r"t\.%s, line %d: " % (fmt, line)):
        read_table(path)


def _read_strictly(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read_table(path)


@pytest.mark.parametrize("cells, dtype", [
    ([0.0, 2.0], np.float64),  # whole floats stay floats
    ([0, 2], np.int64),
    ([1e300, -1e300], np.float64),  # whole, far past int64
    ([1, 2.5], np.float64),
    (["ring", "x, y"], object),
    (["1", " ", "2.5"], object),  # a blank-looking row among numbers
    (["9223372036854775808", "1"], np.float64),  # int text past int64
    (["1", "-9223372036854775809"], np.float64)])
def test_columns_read_back_by_their_text(tmp_path, fmt, cells, dtype):
    """A column's type is the one its written text gives, not one guessed
    from its values, and reading it raises no warning."""
    path = write_table(tmp_path / ("t." + fmt), {}, ["v"], [cells])
    column = _read_strictly(path)["v"]
    assert column.dtype == dtype
    assert column.tolist() == np.array(cells, dtype).tolist()


def test_empty_table_columns_are_float(tmp_path, fmt):
    path = write_table(tmp_path / ("t." + fmt), {}, CHECK_COLUMNS,
                       [[] for _ in CHECK_COLUMNS])
    table = _read_strictly(path)
    assert list(table.columns) == CHECK_COLUMNS
    assert all(table[name].dtype == np.float64 and table[name].size == 0
               for name in CHECK_COLUMNS)


def test_expected_at_the_truth_reads_back_float(tmp_path, fmt):
    """A run that starts at the truth writes 2.0 for every mean: the column
    is still float64, beside the int64 t and agent columns."""
    params = SystemParams(n=3, truth=2.0)
    expected = run_expected(SCHEDULE, params, 12, x0=2.0)
    path = write_expected_trajectory(tmp_path / ("e." + fmt), expected,
                                     SCHEDULE)
    table = _read_strictly(path)
    assert table["mean"].dtype == np.float64
    assert np.array_equal(table["mean"], expected.means.ravel())
    assert table["t"].dtype == table["agent"].dtype == np.int64


def test_trajectory_norms_on_unsorted_rows(tmp_path, fmt):
    """Grouped maxima equal a per-time loop, rows in any order."""
    rng = np.random.default_rng(4)
    times = np.repeat(rng.choice(500, size=60, replace=False), 4)
    rows = [(int(t), i % 4, float(v), 1.0) for i, (t, v) in enumerate(
        zip(times, rng.normal(size=times.size)))]
    rng.shuffle(rows)
    path = write_table(tmp_path / ("t." + fmt), {"truth": 0.25},
                       TRAJECTORY_COLUMNS, _columns(rows, 4))
    got_times, got_norms = trajectory_norms(read_table(path))
    t = np.array([r[0] for r in rows])
    agent = np.array([r[1] for r in rows])
    mean = np.array([r[2] for r in rows])
    want_times = np.unique(t[agent >= 1])
    want = [np.max(np.abs(mean[(t == tk) & (agent >= 1)] - 0.25))
            for tk in want_times]
    assert np.array_equal(got_times, want_times)
    assert np.array_equal(got_norms, want)


def test_ledger_times_go_by_the_integer_rule(fmt):
    """2.5 is an error (it was truncated to the row of t = 2), 2.0 is 2,
    and a negative time stays an error."""
    want = ledger_for_times(SCHEDULE, PARAMS, [0, 2, 7])
    assert np.array_equal(ledger_for_times(SCHEDULE, PARAMS, [0.0, 2.0, 7.0]),
                          want)
    for times in ([2.5], [np.nan], [-1]):
        with pytest.raises(ValueError, match="ledger times"):
            ledger_for_times(SCHEDULE, PARAMS, times)

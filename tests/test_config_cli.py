"""Config files and the command-line runner."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from socialbayes import analysis, cli, schedules
from socialbayes.cli import main
from socialbayes.config import (
    CHECK_NAMES,
    ConfigError,
    RatefitSpec,
    VerifySpec,
    _KEYS,
    _KINDS,
    build_schedule,
    load_config,
    parse_config,
)
from socialbayes.dynamics import SystemParams
from socialbayes.expected import run_expected
from socialbayes.schedules import (
    CounterexampleSchedule,
    PeriodicSchedule,
    RandomSchedule,
    TableSchedule,
    make_counterexample_schedule,
)
from socialbayes.tables import (
    files_match,
    read_table,
    write_expected_trajectory,
    write_table,
)

ROOT = Path(__file__).resolve().parent.parent

BASE = """
[params]
n = 4
seed = 11
x0 = 2.0

[schedule]
kind = periodic
kappa = 3
peer_rule = ring

[run]
horizon = 120
ensemble = 2
record_every = 10
"""

# the same experiment on the two-agent trap schedule
TRAP = BASE.replace("n = 4", "n = 2").replace(
    "kind = periodic\nkappa = 3\npeer_rule = ring", "kind = counterexample")


def config_file(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- config


def test_parse_optional_sections():
    text = BASE + """
[verify]
checks = identities norms
kappa = 3
inject_fault = none

[ratefit]
input = expected.csv
window = 10 120
d = 2
kappa = 3

[output]
directory = results
format = csv
"""
    cfg = parse_config(text)
    assert cfg.verify == VerifySpec(checks=("identities", "norms"), kappa=3)
    assert cfg.ratefit == RatefitSpec("expected.csv", (10, 120), 2, 3)
    assert cfg.out_dir == "results"


def test_build_schedule_kinds():
    assert isinstance(build_schedule(parse_config(BASE)), PeriodicSchedule)
    rnd = BASE.replace("kind = periodic\nkappa = 3\npeer_rule = ring",
                       "kind = random\nkappa = 2\nedge_probability = 0.5")
    assert isinstance(build_schedule(parse_config(rnd)), RandomSchedule)
    ce = BASE.replace("n = 4", "n = 2").replace(
        "kind = periodic\nkappa = 3\npeer_rule = ring", "kind = counterexample")
    assert isinstance(build_schedule(parse_config(ce)), CounterexampleSchedule)
    tbl = BASE.replace("kind = periodic\nkappa = 3\npeer_rule = ring",
                       "kind = explicit-table\nedges =\n    0 1 0")
    assert isinstance(build_schedule(parse_config(tbl)), TableSchedule)


def test_missing_seed_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(BASE.replace("seed = 11\n", ""))
    assert "seed" in str(err.value)


def test_counterexample_needs_two_agents():
    bad = TRAP.replace("n = 2", "n = 4")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "n = 2" in str(err.value)


PEER_EDGES_1X = "peer_rule = edges\npeer_edges =\n    1 2\n    1 x"


def test_bad_values_carry_section_and_key():
    cases = [
        (BASE.replace("kappa = 3", "kappa = three"), "schedule"),
        (BASE.replace("kind = periodic", "kind = lattice"), "kind"),
        (BASE.replace("horizon = 120", "horizon = -3"), "horizon"),
        (BASE.replace("ensemble = 2", "ensemble = 0"), "ensemble"),
        (BASE.replace("x0 = 2.0", "x0 = 1.0 2.0"), "x0"),
        (BASE.replace("x0 = 2.0", "x0 = 2.0 nan 1.0 1.0"), "x0"),
        (BASE.replace("x0 = 2.0", "x0 = 2.0\ntruth = inf"), "truth"),
        (BASE.replace("x0 = 2.0", "x0 = 2.0\ntau0 = nan"), "tau"),
        (BASE.replace("seed = 11", "seed = -1"), "[params].seed"),
        (BASE + "\n[verify]\nchecks = identities gravity\n", "gravity"),
        (BASE + "\n[verify]\nkappa = 0\n", "[verify].kappa"),
        (BASE + "\n[verify]\nkappa = -3\n", "[verify].kappa"),
        (BASE + "\n[output]\nformat = parquet\n", "format"),
        (BASE + "\n[output]\nformat = jsonl\n", "[output].format"),
        (BASE + "\n[ratefit]\ninput = a\nwindow = 9 3\nd = 2\nkappa = 3\n",
         "window"),
        (BASE + "\n[ratefit]\ninput = a\nwindow = 3 9\nd = 2\nkappa = 3\n"
         "slack = inf\n", "[ratefit].slack"),
        (BASE + "\n[ratefit]\ninput = a\nwindow = 3 9\nd = 2\nkappa = 0\n",
         "[ratefit].kappa"),
        (BASE + "\n[ratefit]\ninput = a\nwindow = 3 9\nd = 0\nkappa = 3\n",
         "[ratefit].d"),
        (BASE.replace("peer_rule = ring", PEER_EDGES_1X),
         "[schedule].peer_edges: line 2"),
        (BASE.replace("peer_rule = ring",
                      "peer_rule = edges\npeer_edges =\n    1 2 3"),
         "[schedule].peer_edges: line 1"),
        (BASE.replace("kind = periodic\nkappa = 3\npeer_rule = ring",
                      "kind = explicit-table\nedges =\n    0 1 0\n    1 x 0"),
         "[schedule].edges: line 2"),
        # unknown keys and sections, never a silent default
        (BASE.replace("record_every = 10", "record_evry = 5"),
         "[run].record_evry: unknown key"),
        (TRAP.replace("kind = counterexample",
                      "kind = counterexample\nstrat = 3.0"),
         "[schedule].strat: unknown key"),
        (BASE.replace("seed = 11", "seed = 11\nkappa = 3"),
         "[params].kappa: unknown key"),
        (BASE + "\n[typo_section]\nchecks = norms\n",
         "[typo_section]: unknown section"),
        (BASE + "\n[output]\nformat = csv\ndirectory = o\ndir = p\n",
         "[output].dir: unknown key"),
    ]
    for text, needle in cases:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert needle in str(err.value)


PERIODIC = "kind = periodic\nkappa = 3\npeer_rule = ring"
RANDOM = BASE.replace(PERIODIC, "kind = random\nkappa = 3\n"
                      "edge_probability = 0.5")
_RATEFIT_AT = "\n[ratefit]\ninput = a\nd = 2\nkappa = 3\nwindow = "

# Values the API's rules refuse, each reported under its own key.
_API_RULE_CASES = {
    "periodic-kappa-0": (BASE.replace("kappa = 3", "kappa = 0"),
                         "[schedule].kappa"),
    "random-kappa-0": (RANDOM.replace("kappa = 3", "kappa = 0"),
                       "[schedule].kappa"),
    "edge-probability-1.5": (RANDOM.replace("= 0.5", "= 1.5"),
                             "[schedule].edge_probability"),
    "start-nan": (TRAP.replace("kind = counterexample",
                               "kind = counterexample\nstart = nan"),
                  "[schedule].start"),
    "table-horizon--2": (BASE.replace(PERIODIC, "kind = explicit-table\n"
                                      "horizon = -2\nedges =\n    0 1 0"),
                         "[schedule].horizon"),
    "tau0-nan": (BASE.replace("x0 = 2.0", "x0 = 2.0\ntau0 = nan"),
                 "[params].tau0"),
    "tau-0": (BASE.replace("x0 = 2.0", "x0 = 2.0\ntau = 0"), "[params].tau"),
    "x0-two-of-four": (BASE.replace("x0 = 2.0", "x0 = 1 2"), "[params].x0"),
    "window-three-times": (BASE + _RATEFIT_AT + "1 2 3\n",
                           "[ratefit].window"),
}


@pytest.mark.parametrize("text, needle", list(_API_RULE_CASES.values()),
                         ids=list(_API_RULE_CASES))
def test_values_go_by_the_api_rules(text, needle):
    """Each key is read through the API's rule for it, and a value that
    breaks it names the key: the schedule's used to reach build_schedule,
    which named no key, and tau0 was reported as tau."""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert needle in str(err.value)


def test_one_x0_value_broadcasts():
    """A single x0 value is kept as one value, and every learner starts
    at it, as with a scalar."""
    cfg = parse_config(BASE)
    assert cfg.x0 == (2.0,)
    sched = build_schedule(cfg)
    assert np.array_equal(run_expected(sched, cfg.params, 9, x0=cfg.x0).means,
                          run_expected(sched, cfg.params, 9, x0=2.0).means)


def test_schedule_keys_of_any_kind_are_known():
    """[schedule] knows the keys of every kind; a kind ignores the others'."""
    text = BASE.replace("peer_rule = ring", "peer_rule = ring\nstart = 3.0\n"
                        "edge_probability = 0.5")
    assert parse_config(text).schedule == parse_config(BASE).schedule


@pytest.mark.parametrize("command", ["simulate", "expected", "verify",
                                     "ratefit", "counterexample"])
def test_peer_edges_need_peer_rule_edges(tmp_path, capsys, command):
    """Periodic peer_edges under another peer_rule, or none, stop every
    subcommand with exit 2; they used to be dropped in silence."""
    for rule in ("", "peer_rule = ring\n"):
        text = BASE.replace("peer_rule = ring", rule + "peer_edges = 1 2")
        with pytest.raises(ConfigError, match=r"^\[schedule\]\.peer_edges: "
                           r"needs peer_rule = edges$"):
            parse_config(text)
        out = tmp_path / "o"
        assert main([command, "--config", config_file(tmp_path, text),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[schedule].peer_edges" in err and "Traceback" not in err
        assert not out.exists()
    # another kind's keys stay known and unread
    assert parse_config(RANDOM.replace("kappa = 3", "kappa = 3\npeer_edges = "
                                       "1 2")) == parse_config(RANDOM)


def test_example_config_shows_every_key():
    """configs/example.ini shows each key of the key tables in its
    section, set or commented out, and no key they do not declare."""
    shown, section = {}, None
    for line in (ROOT / "configs" / "example.ini").read_text().splitlines():
        head = re.fullmatch(r"\[(\w+)\]", line)
        key = re.match(r"[#;]?\s*(\w+)\s*=", line)
        if head:
            section = head[1]
        elif key and section:
            shown.setdefault(section, set()).add(key[1])
    assert shown == {name: set(keys) for name, keys in _KEYS.items()}
    assert set(_KEYS["schedule"]) == {"kind"}.union(*_KINDS.values())


def test_external_edge_file(tmp_path):
    edge_file = tmp_path / "edges.txt"
    edge_file.write_text("# listener speaker pairs per time\n0 1 0\n1 2 0\n")
    text = BASE.replace("n = 4", "n = 2").replace(
        "kind = periodic\nkappa = 3\npeer_rule = ring",
        "kind = explicit-table\npath = %s" % edge_file)
    sched = build_schedule(parse_config(text))
    assert sched.edges_at(0) == ((1, 0),)
    assert sched.edges_at(1) == ((2, 0),)


# ------------------------------------------------------------------- cli


def test_simulate_writes_runs_and_summary(tmp_path, capsys):
    cfg = config_file(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "run-0000.csv").exists()
    assert (out / "run-0001.csv").exists()
    table = read_table(out / "summary.csv")
    assert table.meta["kind"] == "ensemble-summary"
    assert table.meta["runs"] == "2"
    assert "variance" in table.columns


def test_simulate_single_row_at_zero_horizon(tmp_path):
    text = BASE.replace("horizon = 120", "horizon = 0") \
               .replace("ensemble = 2", "ensemble = 1")
    cfg = config_file(tmp_path, text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    table = read_table(out / "run-0000.csv")
    assert list(np.unique(table["t"])) == [0]


def test_rerun_is_byte_identical(tmp_path):
    cfg = config_file(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    for name in ("run-0000.csv", "run-0001.csv", "summary.csv"):
        assert files_match(a / name, b / name)


def test_seed_override_changes_output(tmp_path):
    cfg = config_file(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b),
                 "--seed", "99"]) == 0
    assert not files_match(a / "run-0000.csv", b / "run-0000.csv")


@pytest.mark.parametrize("command", ["simulate", "expected"])
def test_overflowing_run_exits_2(tmp_path, capsys, command):
    """Finite inputs whose step sums overflow are a run error, exit 2,
    before anything is written."""
    text = BASE.replace("n = 4", "n = 30\ntruth = 1.7e308") \
               .replace("x0 = 2.0", "x0 = 1.7e308")
    cfg = config_file(tmp_path, text)
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "\nrun error: " in "\n" + capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    cfg = config_file(tmp_path, BASE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", "-3"]) == 2
    assert "[params].seed" in capsys.readouterr().err


def test_negative_horizon_override_is_config_error(tmp_path, capsys):
    cfg = config_file(tmp_path, BASE)
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--horizon", "-1"]) == 2
    assert "[run].horizon" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "expected", "counterexample"])
def test_bad_record_times_are_config_errors(tmp_path, capsys, command):
    """Every command thins by one rule and reports a time outside
    [0, horizon] as [run].record_times, exit 2."""
    text = BASE.replace("horizon = 120", "horizon = 50")
    if command == "counterexample":
        text = text.replace("n = 4", "n = 2").replace(
            "kind = periodic\nkappa = 3\npeer_rule = ring",
            "kind = counterexample")
    for times in ("0 10 80", "-2 10", ""):
        cfg = config_file(tmp_path, text.replace(
            "record_every = 10", "record_times = " + times))
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "[run].record_times" in err and "Traceback" not in err


def test_expected_warns_on_ensemble(tmp_path, capsys):
    cfg = config_file(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "deterministic" in captured.err
    table = read_table(out / "expected.csv")
    assert table.meta["kind"] == "expected"
    # truth agent's precision stays symbolic infinity
    prec = table["precision"]
    agents = table["agent"]
    assert np.all(np.isinf(np.asarray(prec, dtype=float)[agents == 0]))


def test_expected_respects_record_times(tmp_path):
    text = BASE.replace("record_every = 10", "record_times = 0 7 120")
    cfg = config_file(tmp_path, text)
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out)]) == 0
    table = read_table(out / "expected.csv")
    assert list(np.unique(table["t"])) == [0, 7, 120]


def test_verify_passes_on_clean_schedule(tmp_path):
    cfg = config_file(tmp_path, BASE + "\n[verify]\nchecks = identities norms\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = read_table(out / "verify.csv")
    assert set(report["status"].tolist()) == {"pass"}
    assert (out / "verify.txt").exists()


def test_verify_runs_the_norm_sweep_once_per_process(tmp_path, monkeypatch):
    """The norm sweep takes no config input, so repeated verify calls
    report the same checks from one sweep."""
    calls = []
    sweep = analysis.check_norm_inequalities
    monkeypatch.setattr(analysis, "check_norm_inequalities",
                        lambda: calls.append(1) or sweep())
    cli._norm_checks.cache_clear()
    cfg = config_file(tmp_path, BASE + "\n[verify]\nchecks = norms\n")
    try:
        for run in ("a", "b"):
            out = str(tmp_path / run)
            assert main(["verify", "--config", cfg, "--out", out]) == 0
    finally:
        cli._norm_checks.cache_clear()
    assert len(calls) == 1
    first, second = (tmp_path / run / "verify.csv" for run in ("a", "b"))
    assert files_match(first, second)
    assert read_table(first)["name"].tolist() == [c.name for c in sweep()]


@pytest.mark.parametrize("command", ["verify", "expected"])
def test_command_draws_each_random_step_once(tmp_path, monkeypatch, command):
    """One call compiles the random schedule once and every check and
    table reads that: no step's peer draws are made twice."""
    text = BASE.replace("n = 4", "n = 8").replace(
        "kind = periodic\nkappa = 3\npeer_rule = ring",
        "kind = random\nkappa = 3\nedge_probability = 0.3").replace(
        "horizon = 120", "horizon = 300")
    cfg = config_file(tmp_path, text)
    assert parse_config(text).verify.checks == CHECK_NAMES  # all six
    steps = []
    real = schedules.RandomSchedule._compile

    def counted(self, start, stop):
        steps.extend(range(start, stop))
        return real(self, start, stop)

    monkeypatch.setattr(schedules.RandomSchedule, "_compile", counted)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sorted(steps) == list(range(300))


def test_verify_empty_selection_succeeds(tmp_path):
    cfg = config_file(tmp_path, BASE + "\n[verify]\nchecks =\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = read_table(out / "verify.csv")
    assert report.columns == {} or len(report["name"]) == 0


def test_verify_fault_injection_fails(tmp_path):
    cfg = config_file(
        tmp_path,
        BASE + "\n[verify]\nchecks = identities\ninject_fault = transition\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
    report = read_table(out / "verify.csv")
    assert "FAIL" in set(report["status"].tolist())


def test_verify_windowed_checks_on_random(tmp_path):
    text = BASE.replace("kind = periodic\nkappa = 3\npeer_rule = ring",
                        "kind = random\nkappa = 3\nedge_probability = 0.3") \
               .replace("horizon = 120", "horizon = 60")
    cfg = config_file(tmp_path, text + "\n[verify]\nchecks = diagonal contraction\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    report = read_table(out / "verify.csv")
    names = report["name"].tolist()
    assert any(n.startswith("diagonal_bound") for n in names)
    assert any(n.startswith("contraction") for n in names)
    assert not any(n.startswith("truth_pull") for n in names)
    # names hold commas; quoting keeps them whole and the columns aligned
    assert all(n.endswith("]") for n in names)
    assert report["lhs"].dtype == np.float64


def test_counterexample_command(tmp_path, capsys):
    text = """
[params]
n = 2
seed = 5
x0 = 2.0 2.0

[schedule]
kind = counterexample

[run]
horizon = 200000
record_every = 1000
"""
    cfg = config_file(tmp_path, text)
    out = tmp_path / "out"
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
    switches = read_table(out / "switches.csv")
    t_k = switches["t_k"]
    s_k = switches["s_k"]
    merged = np.ravel(np.column_stack([t_k, s_k]))
    assert np.all(np.diff(merged) > 0)  # dumped switch times strictly increase
    assert (out / "trajectory.csv").exists()
    assert "status: pass" in (out / "verdict.txt").read_text()


def test_counterexample_runs_the_mean_process_once(tmp_path, monkeypatch):
    text = """
[params]
n = 2
seed = 5
x0 = 2.0 2.0

[schedule]
kind = counterexample

[run]
horizon = 5000
record_every = 100
"""
    cfg = config_file(tmp_path, text)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_expected(*args, **kwargs)

    monkeypatch.setattr(analysis, "run_expected", counted)
    monkeypatch.setattr(cli, "run_expected", counted)
    out = tmp_path / "out"
    assert main(["counterexample", "--config", cfg, "--out", str(out)]) == 0
    assert len(calls) == 1
    # trajectory.csv is the replayed trajectory, thinned as configured
    monkeypatch.undo()
    schedule = make_counterexample_schedule(1.0, 5000)
    fresh = run_expected(schedule, SystemParams(n=2, seed=5), 5000, x0=2.0)
    keep = fresh.times % 100 == 0
    write_expected_trajectory(
        tmp_path / "ref.csv", dataclasses.replace(
            fresh, times=fresh.times[keep], means=fresh.means[keep],
            norms=fresh.norms[keep]), schedule)
    assert files_match(out / "trajectory.csv", tmp_path / "ref.csv")


def test_counterexample_insufficient_horizon(tmp_path):
    text = """
[params]
n = 2
seed = 5

[schedule]
kind = counterexample

[run]
horizon = 4
"""
    cfg = config_file(tmp_path, text)
    code = main(["counterexample", "--config", cfg,
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "insufficient horizon" in (tmp_path / "o" / "verdict.txt").read_text()


def test_counterexample_rejects_other_schedules(tmp_path):
    cfg = config_file(tmp_path, BASE)
    assert main(["counterexample", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


RATEFIT = """
[ratefit]
input = expected.csv
window = 10 120
d = 2
kappa = 3
"""


def test_ratefit_on_expected_output(tmp_path, capsys):
    cfg = config_file(tmp_path, BASE + RATEFIT)
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out)]) == 0
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("(pass)\n")
    report = read_table(out / "ratefit.csv")
    assert float(report["slope"][0]) < 0
    assert report["status"][0] == "ok"
    points = read_table(out / "ratefit-points.csv")
    assert len(points["t"]) > 5


def test_ratefit_prints_the_verdict(tmp_path, capsys):
    """A fit that misses its bound prints FAIL and exits 1; the report's
    status column still says the fit itself went through."""
    cfg = config_file(tmp_path, BASE + RATEFIT + "slack = -5\n")
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out.endswith("(FAIL)\n")
    assert read_table(out / "ratefit.csv")["status"][0] == "ok"


@pytest.mark.parametrize("slack", ["inf", "-inf", "nan"])
def test_non_finite_ratefit_slack_is_config_error(tmp_path, capsys, slack):
    """slack = inf would pass every fit; nan would fail every fit."""
    cfg = config_file(tmp_path, BASE + RATEFIT + "slack = %s\n" % slack)
    out = tmp_path / "out"
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[ratefit].slack" in err and "Traceback" not in err
    assert not out.exists()


_BAD_TABLES = {
    "empty": "",
    "no-header": "# generated: 2026-01-01T00:00:00Z\n# kind: expected\n",
    "no-t-column": "# kind: expected\nagent,mean\n1,0.5\n",
    "short-row": "t,agent,mean\n0,1,0.5\n1,1\n",
    "long-row": "t,agent,mean\n0,1,0.5\n1,1,0.25,9\n2,1,0.125\n",
    "quoted-long-row": 't,agent,mean\n0,1,"0.5"\n1,1,0.25,9\n',
    "text-mean": "t,agent,mean\n0,1,0.5\n1,1,high\n",
    "jsonl": '{"generated": "2026-01-01T00:00:00Z"}\n'
             '{"meta": {"kind": "expected"}}\n'
             '{"t": 0, "agent": 1, "mean": 0.5}\n',
}


@pytest.mark.parametrize("content", list(_BAD_TABLES.values()),
                         ids=list(_BAD_TABLES))
def test_ratefit_bad_input_table_is_config_error(tmp_path, capsys, content):
    """An input that is not a trajectory table is [ratefit].input, exit 2,
    with nothing written."""
    (tmp_path / "table.csv").write_text(content)
    cfg = config_file(tmp_path, BASE + RATEFIT.replace(
        "expected.csv", str(tmp_path / "table.csv")))
    out = tmp_path / "out"
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[ratefit].input" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("window", ["130 200", "115 125"])
def test_ratefit_window_too_sparse_is_config_error(tmp_path, capsys, window):
    """A window past the table's last time (no sample) or holding one
    positive sample is reported as [ratefit].window, exit 2."""
    text = BASE + """
[ratefit]
input = expected.csv
window = %s
d = 2
kappa = 3
""" % window
    cfg = config_file(tmp_path, text)
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "[ratefit].window" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_ratefit_missing_input(tmp_path):
    text = BASE + """
[ratefit]
input = nowhere.csv
window = 10 120
d = 2
kappa = 3
"""
    cfg = config_file(tmp_path, text)
    assert main(["ratefit", "--config", cfg,
                 "--out", str(tmp_path / "empty")]) == 2


def test_ratefit_without_section(tmp_path):
    cfg = config_file(tmp_path, BASE)
    assert main(["ratefit", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "ghost.ini")]) == 2


@pytest.mark.parametrize("where", ["config", "edge-file"])
@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_file_is_config_error(tmp_path, capsys, kind, where):
    """A directory or a file that is not UTF-8, given as the config or as
    [schedule] path, is a config error (exit 2, nothing written), not an
    IsADirectoryError or UnicodeDecodeError traceback."""
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"[params]\nn = 2\n# caf\xe9\n")
    cfg = str(bad)
    if where == "edge-file":
        cfg = config_file(tmp_path, BASE.replace(
            PERIODIC, "kind = explicit-table\npath = %s" % bad))
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    if where == "edge-file":
        assert "[schedule].path" in err
    assert not out.exists()


def test_horizon_override(tmp_path):
    cfg = config_file(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out),
                 "--horizon", "40"]) == 0
    table = read_table(out / "expected.csv")
    assert table["t"].max() == 40


def test_non_integer_peer_edge_is_config_error(tmp_path, capsys):
    """A peer edge line '1 x' is a config error, exit 2, not a traceback."""
    cfg = config_file(tmp_path, BASE.replace("peer_rule = ring",
                                             PEER_EDGES_1X))
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[schedule].peer_edges: line 2" in err and "Traceback" not in err


def test_out_of_range_peer_edge_is_config_error(tmp_path, capsys):
    """Peer edges are read through the schedule's rule when the config is
    parsed: an agent past n is a config error, exit 2, nothing written."""
    text = BASE.replace("n = 4", "n = 2").replace(
        "peer_rule = ring", "peer_rule = edges\npeer_edges = 1 9")
    with pytest.raises(ConfigError, match=r"^\[schedule\]\.peer_edges: bad "
                       r"peer edge \(1, 9\)$"):
        parse_config(text)
    out = tmp_path / "o"
    assert main(["simulate", "--config", config_file(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[schedule].peer_edges: bad peer edge (1, 9)" in err
    assert not out.exists()


def test_trap_construction_error_is_schedule_error(tmp_path, capsys):
    """A trap start the construction cannot hold is exit 2, with the
    construction's message, and writes nothing."""
    text = TRAP.replace("kind = counterexample",
                        "kind = counterexample\nstart = 1.0")
    out = tmp_path / "o"
    assert main(["counterexample", "--config", config_file(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("schedule error: agent 2 mean 1.0 below bound 1.25 "
                   "entering cycle 1\n")
    assert not out.exists()


def test_unknown_key_is_config_error(tmp_path, capsys):
    """A misspelt key stops the run with exit 2 before anything is
    written."""
    cfg = config_file(tmp_path, BASE.replace("record_every = 10",
                                             "record_evry = 5"))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[run].record_evry" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("start", ["nan", "inf"])
def test_non_finite_trap_start_is_config_error(tmp_path, capsys, start):
    text = TRAP.replace("kind = counterexample",
                        "kind = counterexample\nstart = " + start)
    cfg = config_file(tmp_path, text.replace("horizon = 120",
                                             "horizon = 2000"))
    assert main(["counterexample", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "[schedule]" in err and "start" in err and "Traceback" not in err


# Config faults each command stops on with exit 2, and what stderr says.
_EXIT_2_CASES = {
    "truth-noise-maybe": (BASE.replace("x0 = 2.0", "x0 = 2.0\ntruth_noise = "
                                       "maybe"), "[params].truth_noise"),
    "no-params": (BASE.replace("[params]\nn = 4\nseed = 11\nx0 = 2.0\n", ""),
                  "[params]: section missing"),
    "record-every-and-times": (BASE.replace(
        "record_every = 10", "record_every = 10\nrecord_times = 0 5"),
        "[run].record_every: record_every and record_times are exclusive"),
    "table-without-edges": (BASE.replace(PERIODIC, "kind = explicit-table\n"
                                         "horizon = 5"),
                            "explicit-table needs 'edges' lines or 'path'"),
    "syntax-error": (BASE + "\njust words\n", "parsing errors"),
    "table-edge-past-n": (BASE.replace(PERIODIC, "kind = explicit-table\n"
                                       "edges = 0 9 0"),
                          "[schedule]: cannot build explicit-table schedule"),
}


@pytest.mark.parametrize("text, needle", list(_EXIT_2_CASES.values()),
                         ids=list(_EXIT_2_CASES))
def test_config_faults_exit_2(tmp_path, capsys, text, needle):
    out = tmp_path / "o"
    assert main(["simulate", "--config", config_file(tmp_path, text),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and needle in err
    assert "Traceback" not in err and not out.exists()


def test_truth_noise_flag_parses():
    """truth_noise reads a configparser flag; the example sets it on."""
    assert parse_config(BASE.replace("x0 = 2.0", "x0 = 2.0\ntruth_noise = "
                                     "off")).params.truth_noise is False
    assert load_config(ROOT / "configs" / "example.ini").params.truth_noise


def test_window_checks_on_a_table_need_verify_kappa(tmp_path, capsys):
    """An explicit table has no kappa, so the window checks need
    [verify] kappa: exit 2 without it, nothing written."""
    text = BASE.replace(PERIODIC, "kind = explicit-table\nhorizon = 120\n"
                        "edges = 0 1 0")
    out = tmp_path / "o"
    assert main(["verify", "--config", config_file(tmp_path, text),
                 "--out", str(out)]) == 2
    assert "[verify].kappa" in capsys.readouterr().err
    assert not out.exists()
    text += "\n[verify]\nchecks = diagonal\nkappa = 3\n"
    assert main(["verify", "--config", config_file(tmp_path, text),
                 "--out", str(out)]) == 0


def test_ratefit_on_a_converged_series(tmp_path, capsys):
    """A series whose norms are all zero in the window passes, printed as
    converged before window."""
    times = range(0, 121, 10)
    body = [[t for t in times for _ in range(5)], [*range(5)] * len(times),
            [0.0] * 5 * len(times), [1.0] * 5 * len(times)]
    write_table(tmp_path / "flat.csv", {"kind": "expected", "truth": 0.0},
                ["t", "agent", "mean", "precision"], body)
    cfg = config_file(tmp_path, BASE + RATEFIT.replace(
        "expected.csv", str(tmp_path / "flat.csv")))
    out = tmp_path / "out"
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("(converged before window)\n")
    assert read_table(out / "ratefit.csv")["status"][0] == (
        "converged before window")


def test_table_schedule_beyond_coverage_is_config_error(tmp_path):
    text = BASE.replace("n = 4", "n = 2").replace(
        "kind = periodic\nkappa = 3\npeer_rule = ring",
        "kind = explicit-table\nedges =\n    0 1 0\n    1 2 0")
    cfg = config_file(tmp_path, text)  # run horizon 120 >> table coverage 2
    assert main(["simulate", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_jsonl_format_is_config_error(tmp_path, capsys):
    """JSONL output is gone: asking for it stops the run before anything
    is written."""
    cfg = config_file(tmp_path, BASE + "\n[output]\nformat = jsonl\n")
    out = tmp_path / "out"
    assert main(["expected", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "[output].format" in err and "Traceback" not in err
    assert not out.exists()


def test_pipeline_smoke(tmp_path):
    """Simulate -> summary -> ratefit consumes the summary without error.

    Scaled-down version of the full pipeline: n=10, kappa=4, a modest
    ensemble, and a short horizon keep it test-suite sized.
    """
    text = """
[params]
n = 10
seed = 77
x0 = 2.0

[schedule]
kind = periodic
kappa = 4
peer_rule = ring

[run]
horizon = 2000
ensemble = 30
record_every = 20

[ratefit]
input = summary.csv
window = 100 2000
d = 2
kappa = 4
"""
    cfg = config_file(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["ratefit", "--config", cfg, "--out", str(out)]) == 0
    report = read_table(out / "ratefit.csv")
    assert float(report["slope"][0]) < 0

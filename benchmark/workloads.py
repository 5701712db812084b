"""The benchmark's workloads: their inputs, timed cases and checks.

A workload builds its inputs from the seed (`build`, timed as set-up),
lists its cases (`cases`), and checks one round of case outputs against
the references in checks.py (`check`).  A case runs a fixed set of
operations and returns {operation: output}; keys starting with "_" are
auxiliary outputs (text reports) and count as no operation.  A case is
"wide" when it runs n = 100 agents; its steps feed wide_steps_per_s,
the other cases' steps feed steps_per_s.  The n = 100 kernels of
run_expected and run_ensemble spend their time in 101-wide array
arithmetic and take the "wide" speed reference; the CLI's n = 100 cases
spend theirs in Python loops over edges and per-query generator set-up,
like every other case, and take the "small" one.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import checks


@dataclass
class Case:
    label: str
    wide: bool
    steps: int
    run: Callable[[], dict]
    reference: str = "small"  # speed reference its time is taken against


def _x0(rng, n: int) -> np.ndarray:
    return rng.uniform(1.0, 3.0, n)


class MeanProcess:
    """run_expected on the criterion-1 case and two rings, and the trap."""

    name = "mean-process"
    H1, H4, H100, HTRAP = 50_000, 50_000, 20_000, 30_000
    CHECK_STEPS = 3000  # steps compared with the reference recurrence

    def build(self, sb, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 1])
        return SimpleNamespace(
            n1=sb.make_periodic_schedule(1, 1),
            n4=sb.make_periodic_schedule(4, 3, "ring"),
            n100=sb.make_periodic_schedule(100, 3, "ring"),
            trap=sb.make_counterexample_schedule(1.0, self.HTRAP),
            x4=_x0(rng, 4), x100=_x0(rng, 100))

    def cases(self, sb, inp, probe):
        def expected(schedule, n, horizon, x0):
            return lambda: {"run_expected": sb.run_expected(
                schedule, sb.SystemParams(n=n), horizon, x0=x0)}

        def trap():
            return {"counterexample_check": sb.counterexample_check(
                inp.trap, sb.SystemParams(n=2), self.HTRAP)}

        return [
            Case("n1", False, self.H1, expected(inp.n1, 1, self.H1, 2.0)),
            Case("n4", False, self.H4, expected(inp.n4, 4, self.H4, inp.x4)),
            Case("trap", False, self.HTRAP, trap),
            Case("n100", True, self.H100,
                 expected(inp.n100, 100, self.H100, inp.x100), "wide"),
        ]

    def check(self, sb, inp, out):
        problems = []
        runs = {label: out[label]["run_expected"] for label in ("n1", "n4", "n100")}
        problems += checks.closed_form(runs["n1"].means[:, 1])
        for label, traj in runs.items():
            problems += checks.truth_pinned(label, traj.means, 0.0)
            problems += checks.norms_non_increasing(label, traj.norms)
        for label, n, x0 in (("n4", 4, inp.x4), ("n100", 100, inp.x100)):
            own = checks.mean_recurrence(checks.ring_patterns(n, 3), 1.0,
                                         np.r_[0.0, x0], self.CHECK_STEPS)
            problems += checks.matches_recurrence(label, runs[label].means, own)
            traj = runs[label]
            problems += checks.rate_bound(label, traj.times, traj.norms, 1e4,
                                          traj.times[-1], d=2, kappa=3)
        lowest, hears = checks.trap_walk(inp.trap, self.HTRAP, 1.0, 2.0)
        problems += checks.trap(out["trap"]["counterexample_check"], lowest,
                                hears)
        return problems, set()


class Ensemble:
    """run_ensemble on the criterion-5/6 ring (n = 4) and on n = 100.

    Both cases draw their noise from master seed 2026, criterion 5's
    streams, so the statistical check reads the same on every seed; the
    seed draws the initial means, which shift every run by the same
    deterministic amount.
    """

    name = "ensemble"
    H = 1000
    RUNS = {"n4": 40, "n100": 20}
    TIMES = (0, 10, 100, 316, 1000)
    MASTER_SEED = 2026
    SOLO = (0, 1, -1)  # members re-run alone

    def build(self, sb, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        return SimpleNamespace(
            schedules={"n4": sb.make_periodic_schedule(4, 3, "ring"),
                       "n100": sb.make_periodic_schedule(100, 3, "ring")},
            x0={"n4": _x0(rng, 4), "n100": _x0(rng, 100)})

    def _params(self, sb, label):
        return sb.SystemParams(n=int(label[1:]), seed=self.MASTER_SEED)

    def cases(self, sb, inp, probe):
        def ensemble(label):
            return lambda: {"run_ensemble": sb.run_ensemble(
                inp.schedules[label], self._params(sb, label), self.H,
                self.RUNS[label], x0=inp.x0[label], record_times=self.TIMES)}

        return [Case("n4", False, self.RUNS["n4"] * self.H, ensemble("n4")),
                Case("n100", True, self.RUNS["n100"] * self.H,
                     ensemble("n100"), "wide")]

    def check(self, sb, inp, out):
        problems = []
        for label, runs in self.RUNS.items():
            n = int(label[1:])
            ens = out[label]["run_ensemble"]
            schedule = inp.schedules[label]
            own = checks.mean_recurrence(checks.ring_patterns(n, 3), 1.0,
                                         np.r_[0.0, inp.x0[label]], self.H)
            problems += checks.within_standard_errors(
                label, ens.means, own[list(self.TIMES)], pooled=n > 8)
            problems += checks.ledger_matches(
                label, ens.ledger,
                checks.receive_ledger(schedule, 1.0, self.TIMES))
            solo = {r % runs: sb.run_simulation(
                schedule, self._params(sb, label), self.H, x0=inp.x0[label],
                record_times=self.TIMES, run_index=r % runs).means
                for r in self.SOLO}
            problems += checks.members_match(label, ens.means, solo)
        return problems, set()


_CHECK_LIST = "identities diagonal contraction truth_pull decay norms"

_CONFIG = """\
[params]
n = {n}
seed = {seed}
x0 = {x0}

[schedule]
{schedule}

[run]
horizon = {horizon}
ensemble = {runs}
record_every = {every}

[verify]
checks = {checks}
kappa = 3
inject_fault = {fault}

[ratefit]
input = expected.csv
window = {lo} {horizon}
d = {n}
kappa = 3
slack = 0.05

[output]
directory = {out}
format = csv
"""


class VerifyCli:
    """socialbayes.cli.main in-process on generated configs.

    Each subcommand call is one case; the tables it writes are read back
    inside the same case.  Random schedules: n = 8 with p = 0.2 and
    n = 100 with p = 0.01, both kappa = 3 and seeded from the workload
    seed; the trap at a 10,000-step horizon; and the n = 8 verify again
    with inject_fault = transition.  At n = 100 the seed moves the
    largest receive count d between 7 and 9; horizon 185 issues the same
    two product-decay checks for each, so the work barely moves with it.
    """

    name = "verify-cli"
    RANDOM = {  # label: (n, edge probability, horizon, runs)
        "n8": (8, 0.2, 300, 2),
        "n100": (100, 0.01, 185, 2),
    }
    EVERY = 5
    RATE_LO = 10
    HCX, CX_EVERY = 10_000, 500

    def build(self, sb, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        configs = {}
        for label, (n, p, horizon, runs) in self.RANDOM.items():
            fields = dict(
                n=n, seed=int(rng.integers(2**31)), horizon=horizon, runs=runs,
                x0=" ".join(repr(float(v)) for v in _x0(rng, n)),
                schedule="kind = random\nkappa = 3\nedge_probability = %r" % p,
                every=self.EVERY, checks=_CHECK_LIST, lo=self.RATE_LO,
                fault="none", out=workdir / label)
            configs[label] = _CONFIG.format(**fields)
            if label == "n8":
                configs["fault"] = _CONFIG.format(
                    **{**fields, "fault": "transition",
                       "out": workdir / "fault"})
        configs["cx"] = _CONFIG.format(
            n=2, seed=7, x0="2.0 2.0", horizon=self.HCX, runs=1,
            schedule="kind = counterexample\nstart = 2.0", every=self.CX_EVERY,
            checks=_CHECK_LIST, lo=self.RATE_LO, fault="none",
            out=workdir / "cx")
        paths = {}
        for label, text in configs.items():
            paths[label] = workdir / (label + ".ini")
            paths[label].write_text(text)
        return SimpleNamespace(paths=paths, workdir=workdir)

    def cases(self, sb, inp, probe):
        def call(command, label, reads=(), texts=()):
            def run():
                out_dir = inp.workdir / label
                sink = io.StringIO()
                with probe.span("cli." + command), \
                        contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    try:
                        code = sb.cli.main([command, "--config",
                                            str(inp.paths[label])])
                    except SystemExit as exc:
                        code = exc.code
                result = {command: code}
                for name in reads:
                    try:
                        result[name] = sb.tables.read_table(out_dir / name)
                    except (OSError, ValueError, IndexError) as exc:
                        result[name] = "error: %r" % exc
                for name in texts:
                    lines = (out_dir / name).read_text().splitlines()
                    result["_" + name] = "\n".join(lines[1:])  # no timestamp
                return result
            return run

        cases = []
        for label, (n, _, horizon, runs) in self.RANDOM.items():
            wide = n > 8
            run_files = ["run-%04d.csv" % r for r in range(runs)]
            cases += [
                Case(label + ".simulate", wide, horizon,
                     call("simulate", label, run_files + ["summary.csv"])),
                Case(label + ".expected", wide, horizon,
                     call("expected", label, ["expected.csv"])),
                Case(label + ".verify", wide, horizon,
                     call("verify", label, ["verify.csv"], ["verify.txt"])),
                Case(label + ".ratefit", wide, horizon,
                     call("ratefit", label,
                          ["ratefit-points.csv", "ratefit.csv"])),
            ]
        cases.append(Case("fault.verify", False, self.RANDOM["n8"][2],
                          call("verify", "fault", ["verify.csv"],
                               ["verify.txt"])))
        cases.append(Case("cx.counterexample", False, self.HCX,
                          call("counterexample", "cx",
                               ["switches.csv", "trajectory.csv"],
                               ["verdict.txt"])))
        return cases

    def check(self, sb, inp, out):
        """(problems, failed operations) for one round of outputs.

        A read-back that differs from the API's result, or that raised, is
        a failed operation; everything else must hold for the output to be
        correct.
        """
        problems, failed = [], set()

        def compare(case, name, columns):
            table = out[case][name]
            if isinstance(table, str):
                failed.add((case, name))
                return
            if checks.table_equals("%s %s" % (case, name), table, columns):
                failed.add((case, name))

        for label in list(self.RANDOM) + ["fault"]:
            cfg = sb.load_config(inp.paths[label])
            schedule = sb.build_schedule(cfg)
            params, horizon = cfg.params, cfg.horizon
            x0 = np.asarray(cfg.x0)
            api = (sb.check_transition_identities(schedule, params, horizon)
                   + sb.sweep_window_checks(schedule, params, horizon, 3)
                   + sb.check_norm_inequalities())
            fault = label == "fault"
            case = label + ".verify"
            problems += checks.exit_codes(out[case], {"verify": int(fault)})
            problems += checks.statuses(
                case, checks.report_statuses(out[case]["_verify.txt"]), api,
                fault)
            compare(case, "verify.csv", _check_columns(api, fault))
            if fault:
                continue
            problems += self._check_runs(sb, label, out, compare, schedule,
                                         params, horizon, x0, cfg)
        problems += self._check_trap(sb, inp, out, compare)
        return problems, failed

    def _check_runs(self, sb, label, out, compare, schedule, params, horizon,
                    x0, cfg):
        problems = []
        for command in ("simulate", "expected", "ratefit"):
            case = "%s.%s" % (label, command)
            problems += checks.exit_codes(out[case], {command: 0})
        ens = sb.run_ensemble(schedule, params, horizon, cfg.ensemble, x0=x0,
                              record_every=self.EVERY)
        ledger = checks.receive_ledger(schedule, params.ratio, ens.times)
        for r in range(cfg.ensemble):
            compare(label + ".simulate", "run-%04d.csv" % r,
                    _trajectory_columns(ens.times, ens.means[r], ledger, params))
        compare(label + ".simulate", "summary.csv", {
            **_grid(ens.times, params.n),
            "mean": ens.means.mean(axis=0).ravel(),
            "variance": ens.means.var(axis=0, ddof=1).ravel()})
        expected = sb.run_expected(schedule, params, horizon, x0=x0)
        keep = ens.times  # same thinning: every EVERY steps plus the horizon
        compare(label + ".expected", "expected.csv",
                _trajectory_columns(keep, expected.means[keep], ledger, params))
        norms = expected.norms[keep]
        spec = cfg.ratefit
        fit = sb.fit_rate(keep, norms, spec.window, spec.d, spec.kappa,
                          spec.slack)
        case = label + ".ratefit"
        compare(case, "ratefit-points.csv", {"t": keep, "norm": norms})
        compare(case, "ratefit.csv", {
            "slope": [fit.slope], "intercept": [fit.intercept],
            "bound": [fit.theoretical_bound], "n_points": [fit.n_points],
            "status": np.array([fit.status], dtype=object)})
        table = out[label + ".expected"]["expected.csv"]
        report = out[case]["ratefit.csv"]
        if not isinstance(table, str) and not isinstance(report, str):
            learners = table["agent"] >= 1
            t = table["t"][learners]
            dev = np.abs(table["mean"][learners] - params.truth)
            times = np.unique(t)
            own_norms = [dev[t == k].max() for k in times]
            own = checks.loglog_slope(times, own_norms, *spec.window)
            problems += checks.slope_matches(case, float(report["slope"][0]),
                                             own)
        return problems

    def _check_trap(self, sb, inp, out, compare):
        case = "cx.counterexample"
        problems = checks.exit_codes(out[case], {"counterexample": 0})
        cfg = sb.load_config(inp.paths["cx"])
        trap = sb.make_counterexample_schedule(cfg.params.ratio, self.HCX,
                                               start=2.0)
        verdict = sb.counterexample_check(trap, cfg.params, self.HCX)
        if "status: pass" not in out[case]["_verdict.txt"].splitlines():
            problems.append("%s: verdict.txt does not read pass" % case)
        if verdict.status != "pass":
            problems.append("%s: API verdict %r" % (case, verdict.status))
        sw = trap.switches
        compare(case, "switches.csv", {
            "k": [s.k for s in sw], "t_k": [s.t_k for s in sw],
            "s_k": [s.s_k for s in sw], "value_at_t": [s.value_at_t for s in sw],
            "value_at_s": [s.value_at_s for s in sw]})
        times = np.r_[np.arange(0, self.HCX, self.CX_EVERY), self.HCX]
        traj = sb.run_expected(trap, cfg.params, self.HCX, x0=2.0)
        ledger = checks.receive_ledger(trap, cfg.params.ratio, times)
        compare(case, "trajectory.csv",
                _trajectory_columns(times, traj.means[times], ledger,
                                    cfg.params))
        return problems


def _grid(times, n):
    return {"t": np.repeat(times, n + 1), "agent": np.tile(np.arange(n + 1),
                                                          len(times))}


def _trajectory_columns(times, means, ledger, params):
    precision = params.tau * ledger
    precision[:, 0] = np.inf
    return {**_grid(times, params.n), "mean": means.ravel(),
            "precision": precision.ravel()}


def _check_columns(api, fault: bool):
    """verify.csv columns for the API's checks.

    The transition fault is injected by the CLI alone, so for it only the
    names and statuses are known: its two identity checks read FAIL.
    """
    status = ["pass" if c.passed else ("gated" if c.gated else "FAIL")
              for c in api]
    columns = {"name": np.array([c.name for c in api], dtype=object)}
    if fault:
        status = ["FAIL" if c.name.startswith(("stochasticity[", "reduction["))
                  else s for c, s in zip(api, status)]
    else:
        columns["lhs"] = [float(c.lhs) for c in api]
        columns["rhs"] = [float(c.rhs) for c in api]
    columns["status"] = np.array(status, dtype=object)
    return columns


WORKLOADS = {w.name: w for w in (MeanProcess(), Ensemble(), VerifyCli())}

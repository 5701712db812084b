"""Command-line experiment runner.

Subcommands: simulate | expected | verify | counterexample | ratefit.
Every subcommand takes --config PATH plus optional --seed, --out, and
--horizon overrides.  Exit status: 0 when all selected checks pass, 1 on
a check failure, 2 on configuration or precondition errors and on a run
whose means overflow, so the tool can gate CI jobs on the model's bound
suite.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import analysis, tables
from .config import (
    ConfigError,
    ExperimentConfig,
    build_schedule,
    load_config,
)
from .dynamics import Trajectory, _record_times, run_ensemble
from .expected import run_expected
from .schedules import (
    ScheduleConstructionError,
    ScheduleHorizonError,
    _count,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

# [verify] selection name -> check-name prefixes it covers
_WINDOW_CHECKS = {
    "diagonal": "diagonal_bound[",
    "contraction": "contraction[",
    "truth_pull": "truth_pull[",
    "decay": "product_decay[",
}


def _say(msg: str):
    print(msg)


def _warn(msg: str):
    print("warning: " + msg, file=sys.stderr)


def _out_dir(cfg: ExperimentConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _times(cfg: ExperimentConfig) -> np.ndarray:
    """Record times by the rule every run uses; a bad time is a config error."""
    try:
        return _record_times(cfg.horizon, cfg.record_every, cfg.record_times)
    except ValueError as exc:
        raise ConfigError(str(exc), "run", "record_times") from None


def _thin_expected(expected, times: np.ndarray):
    return dataclasses.replace(expected, times=times,
                               means=expected.means[times],
                               norms=expected.norms[times])


def cmd_simulate(cfg: ExperimentConfig) -> int:
    schedule = build_schedule(cfg)
    ens = run_ensemble(schedule, cfg.params, cfg.horizon,
                       n_runs=cfg.ensemble, x0=cfg.x0,
                       record_times=_times(cfg))
    out = _out_dir(cfg)
    for r in range(ens.n_runs):
        traj = Trajectory(times=ens.times, means=ens.means[r],
                          ledger=ens.ledger, params=cfg.params, run_index=r)
        tables.write_trajectory(out / ("run-%04d.csv" % r), traj)
    summary = tables.write_ensemble_summary(out / "summary.csv", ens)
    _say("simulated %d run(s), horizon %d; wrote %s" %
         (ens.n_runs, cfg.horizon, summary))
    return EXIT_OK


def cmd_expected(cfg: ExperimentConfig) -> int:
    if cfg.ensemble > 1:
        _warn("expected process is deterministic; ignoring ensemble = %d"
              % cfg.ensemble)
    schedule = build_schedule(cfg)
    times = _times(cfg)
    expected = run_expected(schedule, cfg.params, cfg.horizon, x0=cfg.x0)
    thinned = _thin_expected(expected, times)
    path = tables.write_expected_trajectory(_out_dir(cfg) / "expected.csv",
                                            thinned, schedule)
    _say("expected process over horizon %d; wrote %s" % (cfg.horizon, path))
    return EXIT_OK


@functools.cache
def _norm_checks() -> tuple:
    """The norm sweep has a fixed seed and no config input: run it once."""
    return tuple(analysis.check_norm_inequalities())


def cmd_verify(cfg: ExperimentConfig) -> int:
    schedule = build_schedule(cfg)
    selected = cfg.verify.checks
    checks = []
    if "identities" in selected:
        checks.extend(analysis.check_transition_identities(
            schedule, cfg.params, cfg.horizon,
            _fault=cfg.verify.inject_fault == "transition"))
    windowed = [name for name in selected if name in _WINDOW_CHECKS]
    if windowed:
        kappa = cfg.verify.kappa
        if kappa is None:
            kappa = getattr(schedule, "kappa", None)
        if kappa is None:
            raise ConfigError("windowed checks need kappa (schedule kind "
                              "has none)", "verify", "kappa")
        swept = analysis.sweep_window_checks(schedule, cfg.params,
                                             cfg.horizon, kappa)
        prefixes = tuple(_WINDOW_CHECKS[name] for name in windowed)
        checks.extend(c for c in swept if c.name.startswith(prefixes))
    if "norms" in selected:
        checks.extend(_norm_checks())

    out = _out_dir(cfg)
    tables.write_check_report(
        out / "verify.csv", checks,
        extra_meta={"inject_fault": cfg.verify.inject_fault})
    text = tables.check_report_text(checks)
    (out / "verify.txt").write_text(
        tables.timestamp_line() + "\n" + text + ("\n" if text else ""))
    if text:
        _say(text)
    failed = [c for c in checks if not c.passed and not c.gated]
    gated = sum(1 for c in checks if c.gated)
    _say("verify: %d check(s), %d failed, %d gated"
         % (len(checks), len(failed), gated))
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_counterexample(cfg: ExperimentConfig) -> int:
    if cfg.schedule.kind != "counterexample":
        raise ConfigError("this command needs kind = counterexample",
                          "schedule", "kind")
    schedule = build_schedule(cfg)
    times = _times(cfg)
    verdict = analysis.counterexample_check(schedule, cfg.params, cfg.horizon)

    out = _out_dir(cfg)
    tables.write_switch_table(out / "switches.csv", schedule.switches)
    tables.write_expected_trajectory(out / "trajectory.csv",
                                     _thin_expected(verdict.trajectory, times),
                                     schedule)
    lines = [
        "status: %s" % verdict.status,
        "cycles realized: %d" % verdict.cycles_realized,
        "min truth-shifted mean: %s" % tables.format_value(verdict.min_shifted),
        "truth edge counts: %s" % (verdict.truth_edge_counts,),
    ]
    (out / "verdict.txt").write_text(
        tables.timestamp_line() + "\n" + "\n".join(lines) + "\n")
    for line in lines:
        _say(line)
    return EXIT_OK if verdict.passed else EXIT_CHECK_FAILED


def _resolve_input(cfg: ExperimentConfig, name: str) -> Path:
    # an absolute name joined to the output directory is itself
    for cand in (Path(name), Path(cfg.out_dir) / name):
        if cand.exists():
            return cand
    raise ConfigError("input file not found: %s" % name, "ratefit", "input")


def cmd_ratefit(cfg: ExperimentConfig) -> int:
    if cfg.ratefit is None:
        raise ConfigError("section missing", "ratefit")
    spec = cfg.ratefit
    path = _resolve_input(cfg, spec.input)
    try:
        times, norms = tables.trajectory_norms(tables.read_table(path))
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            csv.Error) as exc:
        raise ConfigError("cannot read %s as a trajectory table (%s: %s)"
                          % (path, type(exc).__name__, exc),
                          "ratefit", "input") from None
    try:
        fit = analysis.fit_rate(times, norms, window=spec.window, d=spec.d,
                                kappa=spec.kappa, slack=spec.slack)
    except ValueError as exc:  # too few samples of the table in the window
        raise ConfigError(str(exc), "ratefit", "window") from None
    out = _out_dir(cfg)
    meta = {"input": spec.input}
    tables.write_rate_table(out / "ratefit-points.csv", times, norms,
                            meta=meta)
    tables.write_rate_report(out / "ratefit.csv", fit, meta)
    verdict = "pass" if fit.passed else "FAIL"
    if fit.status != "ok":
        verdict = fit.status
    _say("rate fit over [%d, %d]: slope %.6f vs bound %.6f + slack %.2f (%s)"
         % (fit.window[0], fit.window[1], fit.slope, fit.theoretical_bound,
            fit.slack, verdict))
    return EXIT_OK if fit.passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "simulate": (cmd_simulate, "run the noisy belief dynamics, write "
                               "trajectories and an ensemble summary"),
    "expected": (cmd_expected, "run the deterministic expected process"),
    "verify": (cmd_verify, "evaluate the bound and identity checks"),
    "counterexample": (cmd_counterexample, "build the alternating trap "
                                           "schedule and check its claims"),
    "ratefit": (cmd_ratefit, "fit a convergence rate from a trajectory file"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socialbayes",
        description="Simulation and verification toolkit for Bayesian "
                    "learning over time-varying networks with a truth agent.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, metavar="PATH",
                        help="experiment config file")
        sp.add_argument("--seed", type=int, metavar="N",
                        help="override the config's master seed")
        sp.add_argument("--out", metavar="DIR",
                        help="override the output directory")
        sp.add_argument("--horizon", type=int, metavar="N",
                        help="override the run horizon")
        sp.set_defaults(func=func)
    return parser


def _override(value: int, section: str, key: str, least: int) -> int:
    """--seed or --horizon by its config key's rule (_count)."""
    try:
        return _count(value, key, least)
    except ValueError as exc:
        raise ConfigError(str(exc), section, key) from None


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        seed = _override(args.seed, "params", "seed", 0)
        cfg = dataclasses.replace(
            cfg, params=dataclasses.replace(cfg.params, seed=seed))
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.horizon is not None:
        cfg = dataclasses.replace(
            cfg, horizon=_override(args.horizon, "run", "horizon", 0))
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        return args.func(cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (ScheduleHorizonError, ScheduleConstructionError) as exc:
        print("schedule error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as exc:
        print("run error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

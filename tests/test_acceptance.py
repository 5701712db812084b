"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each test measures its own runtime against the stated budget.  Criterion 6
(fourth-moment decay) demands a fitted exponent of -1.5 or steeper; the
realized decay for the reference schedule follows t^-1 (the effective
window contraction is about t^-0.25, and for Gaussian deviations the
fourth moment tracks 3 Var^2), so that check fails by a wide, stable
margin.  The shortfall is structural, not statistical noise, and the
check is kept at its stated threshold rather than weakened.
"""

import time

import numpy as np
import pytest

from socialbayes.analysis import (
    TOL,
    check_norm_inequalities,
    check_transition_identities,
    counterexample_check,
    estimate_deviation_moments,
    fit_rate,
    sweep_window_checks,
)
from socialbayes.cli import main
from socialbayes.dynamics import SystemParams, run_ensemble
from socialbayes.expected import run_expected
from socialbayes.schedules import (
    make_counterexample_schedule,
    make_periodic_schedule,
    verify_truth_hearing,
)
from socialbayes.tables import files_match


def _report(num: int, name: str, ok: bool, detail: str):
    line = "criterion %d (%s): %s - %s" % (num, name,
                                           "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def test_criterion_1_closed_form_oracle():
    """Single agent hearing the truth every step: y_t = 2/(1+t) exactly."""
    start = time.perf_counter()
    sched = make_periodic_schedule(1, 1)
    params = SystemParams(n=1, seed=0)
    out = run_expected(sched, params, 100_000, x0=2.0)
    t = np.arange(100_001)
    err = float(np.max(np.abs(out.means[:, 1] - 2.0 / (1.0 + t))))
    elapsed = time.perf_counter() - start
    ok = err <= 1e-12 and elapsed < 1.0
    _report(1, "closed-form oracle", ok,
            "max error %.3e, %.2f s" % (err, elapsed))


def test_criterion_2_stochasticity_suite(standard_cases):
    """Every transition row sums to one; truth pull closes the reduction."""
    start = time.perf_counter()
    worst = 0.0
    for case in standard_cases:
        params = SystemParams(n=case.schedule.n, seed=0)
        for check in check_transition_identities(case.schedule, params, 1000):
            worst = max(worst, check.lhs)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 30.0
    _report(2, "stochasticity and reduction", ok,
            "worst row deviation %.3e over 24 schedules, %.1f s"
            % (worst, elapsed))


def test_criterion_3_contraction_bound_suite(standard_cases):
    """Diagonal, contraction, truth-pull, and decay bounds hold at every
    checkpoint whose preconditions are met."""
    start = time.perf_counter()
    issued = gated = 0
    worst_margin = np.inf
    failures = []
    for case in standard_cases:
        params = SystemParams(n=case.schedule.n, seed=0)
        checks = sweep_window_checks(case.schedule, params, 1000, case.kappa)
        for c in checks:
            if c.gated:
                gated += 1
                continue
            issued += 1
            worst_margin = min(worst_margin, c.margin)
            if not c.passed:
                failures.append("%s:%s" % (case.label, c.name))
    elapsed = time.perf_counter() - start
    ok = not failures and worst_margin >= -TOL and elapsed < 120.0
    _report(3, "contraction bound suite", ok,
            "%d checkpoints issued (%d gated), worst margin %.3e, %.1f s%s"
            % (issued, gated, worst_margin, elapsed,
               "; failures: " + ", ".join(failures[:5]) if failures else ""))


def test_criterion_4_rate_check():
    """Expected-process sup norm decays no slower than the rate bound."""
    start = time.perf_counter()
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, seed=0)
    out = run_expected(sched, params, 1_000_000, x0=2.0)
    fit = fit_rate(out.times, out.norms, window=(10_000, 1_000_000),
                   d=2, kappa=3, slack=0.05)
    elapsed = time.perf_counter() - start
    ok = fit.passed and elapsed < 60.0
    _report(4, "convergence rate", ok,
            "slope %.4f vs bound %.4f + 0.05 slack, %.1f s"
            % (fit.slope, fit.theoretical_bound, elapsed))


def test_criterion_5_monte_carlo_consistency():
    """Ensemble means track the expected process within 4 standard errors."""
    start = time.perf_counter()
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, seed=2026)
    m = 2000
    spot = [100, 1000]
    ens = run_ensemble(sched, params, 1000, n_runs=m, x0=2.0,
                       record_times=spot)
    expected = run_expected(sched, params, 1000, x0=2.0)
    mean = ens.means[:, :, 1:].mean(axis=0)
    se = ens.means[:, :, 1:].std(axis=0, ddof=1) / np.sqrt(m)
    gap = np.abs(mean - expected.means[spot][:, 1:])
    worst = float(np.max(gap / se))
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 300.0
    _report(5, "Monte-Carlo consistency", ok,
            "worst |mean - expected| = %.2f standard errors (M=%d), %.1f s"
            % (worst, m, elapsed))


def test_criterion_6_fourth_moment_decay():
    """Deviation fourth moments must fit a decay exponent of -1.5 or
    steeper across four half-decades.

    Known red: the measured exponent sits near -1.0 for this schedule
    because the realized contraction is too slow for the -2 target rate
    (see the module docstring and README).  The check runs at full size
    and reports the measured value.
    """
    start = time.perf_counter()
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, seed=2026)
    report = estimate_deviation_moments(sched, params, horizon=10_000,
                                        n_runs=2000)
    elapsed = time.perf_counter() - start
    ok = report.exponent <= -1.5 and elapsed < 600.0
    _report(6, "fourth-moment decay", ok,
            "fitted exponent %.3f (need <= -1.5) over t in %s, M=%d, %.0f s"
            % (report.exponent, report.times.tolist(), report.n_runs,
               elapsed))


def test_criterion_7_counterexample():
    """The alternating trap keeps both agents a unit above the truth for
    a million steps while defeating every fixed hearing window."""
    start = time.perf_counter()
    sched = make_counterexample_schedule(1.0, 1_000_000)
    params = SystemParams(n=2, seed=0)
    verdict = counterexample_check(sched, params)
    hearing_fails = all(
        not verify_truth_hearing(sched, kappa, sched.horizon).passed
        for kappa in (10, 100, 1000))
    margins_ok = all(ms >= -TOL and mt >= -TOL
                     for _, ms, mt in verdict.cycle_margins)
    counts_ok = min(verdict.truth_edge_counts) > 4
    elapsed = time.perf_counter() - start
    ok = (verdict.status == "pass" and verdict.min_shifted >= 1.0 - TOL
          and margins_ok and counts_ok and hearing_fails and elapsed < 60.0)
    _report(7, "counterexample schedule", ok,
            "min shifted mean %.6f, %d cycles, truth edges %s, "
            "hearing defeated for kappa in {10,100,1000}: %s, %.1f s"
            % (verdict.min_shifted, verdict.cycles_realized,
               verdict.truth_edge_counts, hearing_fails, elapsed))


def test_criterion_8_norm_inequality_suite():
    """Product-norm inequalities hold across 1000 random matrix pairs."""
    start = time.perf_counter()
    checks = check_norm_inequalities(n_pairs=1000)
    worst = min(c.margin for c in checks)
    elapsed = time.perf_counter() - start
    ok = all(c.passed for c in checks) and worst >= -1e-12 and elapsed < 5.0
    _report(8, "norm inequalities", ok,
            "worst margin %.3e over 1000 pairs, %.2f s" % (worst, elapsed))


def test_criterion_9_reproducibility(tmp_path):
    """Any config rerun with the same seed gives byte-identical files,
    timestamp header aside."""
    start = time.perf_counter()
    config = tmp_path / "exp.ini"
    config.write_text("""
[params]
n = 4
seed = 314
x0 = 2.0

[schedule]
kind = periodic
kappa = 3
peer_rule = ring

[run]
horizon = 300
ensemble = 2
record_every = 10

[verify]
checks = identities norms

[ratefit]
input = expected.csv
window = 10 300
d = 2
kappa = 3
""")
    produced = []
    for label in ("a", "b"):
        out = tmp_path / label
        for command in ("simulate", "expected", "verify", "ratefit"):
            assert main([command, "--config", str(config),
                         "--out", str(out)]) == 0
        produced.append(sorted(p.name for p in out.iterdir()))
    assert produced[0] == produced[1]
    mismatched = [name for name in produced[0]
                  if not files_match(tmp_path / "a" / name,
                                     tmp_path / "b" / name)]
    elapsed = time.perf_counter() - start
    ok = not mismatched
    _report(9, "reproducibility", ok,
            "%d files identical modulo timestamps, %.1f s%s"
            % (len(produced[0]), elapsed,
               "; mismatched: " + ", ".join(mismatched) if mismatched else ""))

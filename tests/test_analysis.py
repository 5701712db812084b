"""Bound checks, rate fits, moment estimates, and verdicts."""

import dataclasses

import numpy as np
import pytest

from socialbayes.analysis import (
    TOL,
    BoundCheck,
    burn_in_threshold,
    check_contraction,
    check_diagonal_bound,
    check_norm_inequalities,
    check_product_decay,
    check_transition_identities,
    check_truth_pull_accumulation,
    consensus_verdict,
    counterexample_check,
    estimate_deviation_moments,
    fit_rate,
    fourth_moment_summary,
    norm_inf,
    norm_max,
    standard_schedule_set,
    sweep_window_checks,
)
from socialbayes.dynamics import SystemParams, run_simulation
from socialbayes.expected import transition_bundles
from socialbayes.schedules import (
    make_counterexample_schedule,
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
)


def test_bound_check_semantics():
    good = BoundCheck("x", 1.0, 2.0)
    assert good.passed and not good.gated and good.margin == 1.0
    tight = BoundCheck("x", 1.0, 1.0 - TOL / 2)
    assert tight.passed  # within tolerance of equality
    bad = BoundCheck("x", 2.0, 1.0)
    assert not bad.passed and not bad.gated
    skipped = BoundCheck("x", np.nan, np.nan, status="precondition unmet")
    assert skipped.gated and not skipped.passed


def test_diagonal_bound_single_agent_chain():
    """Truth-only 1x1 chain: suffix products and the ledger ratio admit
    exact fractions, pinning the worst offset's margin."""
    sched = make_periodic_schedule(1, 1)
    params = SystemParams(n=1, seed=0)
    check = check_diagonal_bound(sched, params, s=4, kappa=2)
    assert check.passed
    # worst offset keeps only the last step: product 6/7 against P_4/P_6 = 5/7
    assert check.lhs == pytest.approx(5.0 / 7.0)
    assert check.rhs == pytest.approx(6.0 / 7.0)
    assert check.margin == pytest.approx(1.0 / 7.0)


def test_diagonal_bound_needs_no_hearing():
    # no truth edges at all: the bound is unconditional and trivially tight
    sched = make_table_schedule(2, [(t, 1, 2) for t in range(10)], horizon=10)
    check = check_diagonal_bound(sched, SystemParams(n=2, seed=0), 0, 5)
    assert check.passed and not check.gated


def test_contraction_single_agent_window():
    sched = make_periodic_schedule(1, 1)
    params = SystemParams(n=1, seed=0)
    check = check_contraction(sched, params, s=4, kappa=2)
    assert check.passed
    # product 5/7 against 1 - P_4 / P_6^2 = 1 - 5/49
    assert check.lhs == pytest.approx(5.0 / 7.0)
    assert check.rhs == pytest.approx(1.0 - 5.0 / 49.0)


def test_contraction_gated_without_hearing():
    sched = make_table_schedule(2, [(t, 1, 2) for t in range(6)], horizon=6)
    check = check_contraction(sched, SystemParams(n=2, seed=0), 0, 3)
    assert check.gated
    assert check.status == "precondition unmet"


def test_truth_pull_single_agent_window():
    sched = make_periodic_schedule(1, 1)
    params = SystemParams(n=1, seed=0)
    check = check_truth_pull_accumulation(sched, params, s=4, kappa=2)
    assert check.passed
    assert check.rhs == pytest.approx(1.0 / 6.0 + 1.0 / 7.0)
    assert check.lhs == pytest.approx(1.0 / 7.0)


def test_burn_in_threshold_formula():
    params = SystemParams(n=4, seed=0)  # ratio 1
    assert burn_in_threshold(params, 3, 2) == pytest.approx(12.0 + 1.0 / 6.0)
    heavy = SystemParams(n=4, tau0=0.5, seed=0)  # ratio 1/2 -> delta 1/2
    assert burn_in_threshold(heavy, 3, 2) == pytest.approx(24.0 + 0.5 / 6.0)


def test_product_decay_gates_and_passes():
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, seed=0)
    early = check_product_decay(sched, params, m0=2, m=3, kappa=3, d=2)
    assert early.gated
    assert "m*" in early.detail["reason"]
    ok = check_product_decay(sched, params, m0=13, m=5, kappa=3, d=2)
    assert ok.passed and ok.lhs < ok.rhs
    capped = check_product_decay(sched, params, m0=13, m=5, kappa=3, d=1)
    assert capped.gated and "degree cap" in capped.detail["reason"]


def test_product_decay_zero_windows_trivial():
    sched = make_periodic_schedule(2, 2)
    check = check_product_decay(sched, SystemParams(n=2, seed=0),
                                m0=20, m=0, kappa=2, d=1)
    assert check.passed
    assert check.lhs == 1.0 and check.rhs == 1.0


def test_transition_identities_tight():
    sched = make_random_schedule(6, 3, 0.4, seed=2)
    checks = check_transition_identities(sched, SystemParams(n=6, seed=0), 200)
    assert len(checks) == 2
    for c in checks:
        assert c.passed
        assert c.lhs <= 1e-13  # exact construction, only roundoff shows up


def test_transition_identities_catch_a_corrupted_bundle():
    sched = make_random_schedule(6, 3, 0.4, seed=2)
    params = SystemParams(n=6, seed=0)
    walk = list(transition_bundles(sched, params, 0, 50))
    full = walk[0].full.copy()
    full[1, 1] += 1e-3
    walk[0] = dataclasses.replace(walk[0], full=full, reduced=full[1:, 1:],
                                  truth_pull=full[1:, 0])
    checks = check_transition_identities(sched, params, 50, _bundles=walk)
    for c in checks:
        assert not c.passed and not c.gated
        assert c.detail["worst_t"] == 0
        assert abs(c.lhs - 1e-3) <= 1e-12


def test_norm_helpers():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert norm_inf(m) == 3.0
    assert norm_max(m) == 2.0


def test_norm_inequalities_suite():
    checks = check_norm_inequalities(n_pairs=200, size=6, seed=9)
    assert len(checks) == 3
    for c in checks:
        assert c.passed
        assert 0 <= c.detail["worst_pair"] < 200


def test_fit_rate_recovers_power_law():
    t = np.arange(1, 2001)
    norms = 3.0 * t ** -0.5
    fit = fit_rate(t, norms, window=(100, 2000), d=1, kappa=2, slack=0.05)
    assert fit.slope == pytest.approx(-0.5, abs=1e-9)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-9)
    assert fit.theoretical_bound == -0.25
    assert fit.passed  # -0.5 <= -0.25 + 0.05
    tight = fit_rate(t, 3.0 * t ** -0.1, window=(100, 2000), d=1, kappa=2)
    assert not tight.passed


def test_fit_rate_converged_series_trivially_passes():
    t = np.arange(1, 101)
    norms = np.zeros(100)
    fit = fit_rate(t, norms, window=(10, 100), d=1, kappa=1)
    assert fit.status == "converged before window"
    assert fit.passed


def test_fit_rate_needs_points_in_window():
    t = np.arange(1, 50)
    with pytest.raises(ValueError):
        fit_rate(t, 1.0 / t, window=(1000, 2000), d=1, kappa=1)


def test_sweep_window_checks_all_pass_on_periodic_ring():
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    checks = sweep_window_checks(sched, SystemParams(n=4, seed=0), 300, 3)
    families = {"diagonal_bound": 0, "contraction": 0, "truth_pull": 0,
                "product_decay": 0}
    for c in checks:
        fam = c.name.split("[")[0]
        families[fam] += 1
        assert c.passed or c.gated, c.name
        if not c.gated:
            assert c.margin >= -TOL
    assert families["diagonal_bound"] == 100
    assert families["contraction"] == 100
    assert families["product_decay"] >= 1


def test_fourth_moment_summary_shape():
    dev = np.array([[[1.0, 2.0]], [[3.0, 0.0]]])  # (M=2, K=1, n=2)
    out = fourth_moment_summary(dev)
    assert out.shape == (1, 2)
    assert out[0, 0] == pytest.approx((1.0 + 81.0) / 2)
    assert out[0, 1] == pytest.approx(8.0)


def test_estimate_deviation_moments_small_grid():
    sched = make_periodic_schedule(2, 2, peer_rule="ring")
    params = SystemParams(n=2, seed=5)
    report = estimate_deviation_moments(sched, params, horizon=100,
                                        n_runs=120, x0=2.0, times=[50, 100])
    assert list(report.times) == [50, 100]
    assert report.moments.shape == (2, 2)
    assert report.n_runs == 120
    assert np.all(report.max_moments > 0)
    assert report.max_moments[1] < report.max_moments[0]


def test_estimate_deviation_moments_needs_enough_runs():
    sched = make_periodic_schedule(2, 2)
    with pytest.raises(ValueError):
        estimate_deviation_moments(sched, SystemParams(n=2, seed=0),
                                   horizon=100, n_runs=50)


def test_counterexample_check_passes_and_counts():
    sched = make_counterexample_schedule(1.0, 200_000)
    verdict = counterexample_check(sched, SystemParams(n=2, seed=0))
    assert verdict.status == "pass"
    assert verdict.min_shifted >= 1.0 - TOL
    assert verdict.cycles_realized == len(sched.switches)
    assert min(verdict.truth_edge_counts) >= verdict.cycles_realized
    for _, margin_s, margin_t in verdict.cycle_margins:
        assert margin_s >= -TOL and margin_t >= -TOL


def test_counterexample_check_insufficient_horizon():
    sched = make_counterexample_schedule(1.0, 10)
    verdict = counterexample_check(sched, SystemParams(n=2, seed=0))
    assert verdict.status == "insufficient horizon"


def test_consensus_verdict_pass_and_causes():
    params = SystemParams(n=2, seed=3)
    sched = make_periodic_schedule(2, 2, peer_rule="ring")
    traj = run_simulation(sched, params, 4000, x0=2.0)
    verdict = consensus_verdict(traj.means[-1], traj.ledger[-1], params,
                                eps_mean=0.2, precision_floor=100.0)
    assert verdict.passed and verdict.cause == ""

    strict = consensus_verdict(traj.means[-1], traj.ledger[-1], params,
                               eps_mean=1e-9, precision_floor=100.0)
    assert not strict.passed and "mean" in strict.cause

    frozen = consensus_verdict(np.array([0.0, 0.0, 2.0]),
                               np.array([1.0, 500.0, 1.0]), params,
                               eps_mean=0.5, precision_floor=100.0)
    assert not frozen.passed
    assert "isolated" in frozen.cause
    assert frozen.isolated_agents == (2,)


def test_standard_schedule_set_composition():
    cases = standard_schedule_set()
    assert len(cases) == 24
    labels = [c.label for c in cases]
    assert len(set(labels)) == 24
    for case in cases:
        assert case.schedule.n in (2, 4, 8, 10)
        assert case.kappa in (1, 3, 5)

"""Bound checks, rate fits, moment estimates, and verdicts."""

import math

import numpy as np
import pytest

from socialbayes import schedules
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
    counterexample_check,
    estimate_deviation_moments,
    fit_rate,
    norm_inf,
    sweep_window_checks,
)
from socialbayes.dynamics import SystemParams
from socialbayes.expected import bundle_at, run_expected
from socialbayes.schedules import (
    _BLOCK_STEPS,
    make_counterexample_schedule,
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
    max_degree,
    verify_truth_hearing,
)
from socialbayes.tables import ledger_for_times


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
    """The seam of `inject_fault = transition`: 1e-3 on W[0, 1, 1]."""
    sched = make_random_schedule(6, 3, 0.4, seed=2)
    params = SystemParams(n=6, seed=0)
    checks = check_transition_identities(sched, params, 50, _fault=True)
    for c in checks:
        assert not c.passed and not c.gated
        assert c.detail["worst_t"] == 0
        assert abs(c.lhs - 1e-3) <= 1e-12
    # the fault touches a copy: the schedule's own stacks stay exact
    for c in check_transition_identities(sched, params, 50):
        assert c.passed


def test_norm_helpers():
    m = np.array([[1.0, -2.0], [0.5, 0.25]])
    assert norm_inf(m) == 3.0 and type(norm_inf(m)) is float
    assert norm_inf([1.0, -2.0]) == 3.0  # a vector is one row
    # a stack gives each matrix's norm, over its last two axes
    stack = np.stack([m, -2.0 * m, m.T])
    assert np.array_equal(norm_inf(stack), [3.0, 6.0, 2.25])
    assert np.array_equal(norm_inf(stack[None]), [[3.0, 6.0, 2.25]])


def _norm_max(m):
    """Largest absolute entry."""
    return float(np.max(np.abs(m)))


def test_norm_inequalities_suite():
    checks = check_norm_inequalities(n_pairs=200, size=6, seed=9)
    assert len(checks) == 3
    for c in checks:
        assert c.passed
        assert 0 <= c.detail["worst_pair"] < 200


def _norm_sweep_by_pair(n_pairs=1000, size=8, seed=4096):
    """The norm sweep one pair at a time: R then S drawn per pair, and per
    inequality the first pair of least margin kept as (lhs, rhs, pair)."""
    rng = np.random.default_rng(seed)
    worst = {}
    for idx in range(n_pairs):
        r = rng.uniform(-1.0, 1.0, (size, size))
        s = rng.uniform(-1.0, 1.0, (size, size))
        rs = r @ s
        for key, lhs, rhs in (
                ("inf_submult", norm_inf(rs), norm_inf(r) * norm_inf(s)),
                ("mixed_bound", _norm_max(rs), norm_inf(r) * _norm_max(s)),
                ("congruence_bound", _norm_max(r @ s @ r.T),
                 norm_inf(r) ** 2 * _norm_max(s))):
            if key not in worst or rhs - lhs < worst[key][1] - worst[key][0]:
                worst[key] = (lhs, rhs, idx)
    return [(f"{key}[pairs={n_pairs}]", lhs, rhs, idx)
            for key, (lhs, rhs, idx) in worst.items()]


@pytest.mark.parametrize("args", [(), (50, 3, 1), (2000, 16, 7), (1, 8, 0)])
def test_norm_inequalities_match_the_per_pair_sweep(args):
    """The batched sweep reports bit for bit the checks of the per-pair
    loop: names, sides, margins and the first pair of least margin."""
    got = [(c.name, c.lhs.hex(), c.rhs.hex(), c.margin.hex(),
            c.detail["worst_pair"], c.status)
           for c in check_norm_inequalities(*args)]
    assert got == [(name, lhs.hex(), rhs.hex(), (rhs - lhs).hex(), idx, "ok")
                   for name, lhs, rhs, idx in _norm_sweep_by_pair(*args)]
    assert all(type(row[4]) is int for row in got)


_NORM_SWEEP_COUNTS = {"n_pairs=0": ({"n_pairs": 0}, "^n_pairs "),
                      "n_pairs=2.5": ({"n_pairs": 2.5}, "^n_pairs "),
                      "size=0": ({"size": 0}, "^size "),
                      "seed=-1": ({"seed": -1}, "^seed "),
                      "seed=1.5": ({"seed": 1.5}, "^seed ")}


@pytest.mark.parametrize("kwargs, match", list(_NORM_SWEEP_COUNTS.values()),
                         ids=list(_NORM_SWEEP_COUNTS))
def test_norm_inequalities_counts_go_by_the_count_rule(kwargs, match):
    """n_pairs = 0 died in numpy's argmin, 2.5 raised a bare TypeError and
    size = 0 failed a zero-size reduction: each is a ValueError naming its
    input, and 3.0 is 3."""
    with pytest.raises(ValueError, match=match):
        check_norm_inequalities(**kwargs)
    assert repr(check_norm_inequalities(3.0, 4.0, 9.0)) == repr(
        check_norm_inequalities(3, 4, 9))


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
    with pytest.raises(ValueError, match="align"):
        fit_rate(t, 1.0 / t[1:], window=(10, 40), d=1, kappa=1)


@pytest.mark.parametrize("d,kappa", [(0, 1), (-1, 1), (1, 0)])
def test_fit_rate_rejects_bad_degree_cap_and_window(d, kappa):
    """d = 0 divided by zero and d = -1 gave a positive bound that any
    series passed: both are errors, like kappa < 1."""
    t = np.arange(1, 50)
    with pytest.raises(ValueError):
        fit_rate(t, 1.0 / t, window=(10, 40), d=d, kappa=kappa)


@pytest.mark.parametrize("slack", [math.inf, -math.inf, math.nan])
def test_fit_rate_rejects_non_finite_slack(slack):
    """slack = inf passed every fit, nan failed every one."""
    t = np.arange(1, 50)
    with pytest.raises(ValueError, match="slack"):
        fit_rate(t, 1.0 / t, window=(2, 10), d=1, kappa=1, slack=slack)


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


@pytest.mark.parametrize("kappa", [0, -2, 2.5, math.nan])
@pytest.mark.parametrize("call", [
    lambda s, p, k: check_diagonal_bound(s, p, 0, k),
    lambda s, p, k: check_contraction(s, p, 0, k),
    lambda s, p, k: check_truth_pull_accumulation(s, p, 0, k),
    lambda s, p, k: sweep_window_checks(s, p, 30, k),
    lambda s, p, k: check_product_decay(s, p, 20, 1, k, 2),
    lambda s, p, k: burn_in_threshold(p, k, 2),
], ids=["diagonal", "contraction", "truth_pull", "sweep", "decay", "burn_in"])
def test_window_length_below_one_is_rejected(call, kappa):
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    with pytest.raises(ValueError, match="kappa"):
        call(sched, SystemParams(n=4, seed=0), kappa)


@pytest.mark.parametrize("d", [0, -1])
def test_product_decay_rejects_degree_cap_below_one(d):
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    with pytest.raises(ValueError, match="degree cap"):
        check_product_decay(sched, SystemParams(n=4, seed=0), 20, 1, 3, d)


def test_fractional_window_counts_are_rejected():
    """A window that started at -0.5 and a TypeError become ValueErrors;
    3.0 counts as 3."""
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, seed=0)
    with pytest.raises(ValueError, match="kappa"):
        verify_truth_hearing(sched, 2.5, 30)
    for m0, m in ((20.5, 1), (20, 1.5), (-1, 1), (20, -1)):
        with pytest.raises(ValueError, match="^m0 " if m == 1 else "^m "):
            check_product_decay(sched, params, m0, m, 3, 2)
    assert verify_truth_hearing(sched, 3.0, 30).kappa == 3
    assert check_product_decay(sched, params, 20.0, 1.0, 3.0, 2.0) == \
        check_product_decay(sched, params, 20, 1, 3, 2)


def _reference_checks(schedule, params, horizon, kappa):
    """The identity and window checks by per-bundle loops over bundle_at:
    one TransitionBundle and one `@` at a time."""
    walk = [bundle_at(schedule, params, t) for t in range(horizon)]
    checks = []
    for name, dev in (
            ("stochasticity", lambda b: b.full.sum(axis=1) - 1.0),
            ("reduction",
             lambda b: b.truth_pull + b.reduced.sum(axis=1) - 1.0)):
        devs = [float(np.max(np.abs(dev(b)))) for b in walk]
        worst = max(devs, default=0.0)
        checks.append(BoundCheck(f"{name}[T={horizon}]", worst, 0.0, detail={
            "worst_t": devs.index(worst) if worst > 0.0 else -1}))

    def hears(win):
        return bool(np.all(sum(b.truth_pull for b in win) > 0.0))

    for s in range(0, horizon - kappa + 1, kappa):
        win, at = walk[s:s + kappa], {"s": s, "kappa": kappa}
        p0, p1 = win[0].ledger_before[1:], win[-1].ledger_after[1:]
        suffix, cands = np.eye(schedule.n), []
        for off in range(kappa - 1, -1, -1):  # product over [s+off+1, s+k)
            margins = np.diag(suffix) - p0 / p1
            i = int(np.argmin(margins))
            cands.append((margins[i], off, i, np.diag(suffix)[i]))
            suffix = suffix @ win[off].reduced
        _, off, i, diag = min(reversed(cands), key=lambda c: c[0])
        tag = f"[s={s},kappa={kappa}]"
        checks.append(BoundCheck("diagonal_bound" + tag, float((p0 / p1)[i]),
                                 float(diag),
                                 detail={**at, "l": off, "agent": i + 1}))
        if not hears(win):
            for name in ("contraction", "truth_pull"):
                checks.append(BoundCheck(
                    name + tag, math.nan, math.nan, "precondition unmet",
                    {**at, "reason": "truth hearing fails in window"}))
            continue
        prod = np.eye(schedule.n)
        pull = np.zeros(schedule.n)
        for b in win:
            prod = b.reduced @ prod
            pull = pull + b.truth_pull
        checks.append(BoundCheck("contraction" + tag, norm_inf(prod),
                                 1.0 - float(np.min(p0 / p1 ** 2)),
                                 detail=dict(at)))
        i = int(np.argmin(pull - 1.0 / p1))
        checks.append(BoundCheck("truth_pull" + tag, float(1.0 / p1[i]),
                                 float(pull[i]), detail={**at, "agent": i + 1}))
    d = max_degree(schedule, horizon)  # so no degree-cap gate can show
    for m in (1, 5, 20) if d > 0 else ():
        m0 = math.ceil(burn_in_threshold(params, kappa, d))
        s, e = m0 * kappa, (m0 + m) * kappa
        if e > horizon:
            continue
        name = f"product_decay[m0={m0},m={m},kappa={kappa}]"
        at = {"m0": m0, "m": m, "kappa": kappa, "d": d}
        if not all(hears(walk[u:u + kappa]) for u in range(s, e, kappa)):
            checks.append(BoundCheck(
                name, math.nan, math.nan, "precondition unmet",
                {**at, "reason": "truth hearing fails in some window"}))
            continue
        prod = np.eye(schedule.n)
        for b in walk[s:e]:
            prod = b.reduced @ prod
        harmonic = sum(1.0 / (m0 + j) for j in range(2, m + 2))
        checks.append(BoundCheck(name, norm_inf(prod),
                                 math.exp(-harmonic / (2.0 * d * kappa)),
                                 detail={**at, "span": (s, e)}))
    return checks


def _fields(check):
    """Every field of a check, floats by their bits (so nan equals nan)."""
    return (check.name, np.float64(check.lhs).tobytes(),
            np.float64(check.rhs).tobytes(), check.status, check.detail)


@pytest.mark.parametrize("schedule,horizon,kappa,cuts", [
    # the identity span crosses groups of W (34 steps at n = 30)
    (make_random_schedule(30, 4, 0.1, seed=11, horizon=300), 300, 4, None),
    # the span crosses a compiled block boundary; decay checks are issued
    (make_periodic_schedule(4, 3, peer_rule="ring"), _BLOCK_STEPS + 110, 3,
     None),
    # agent 3 hears the truth every 5th step: some windows are gated
    (make_table_schedule(3, [(t, 1, 0) for t in range(0, 80, 2)]
                         + [(t, 2, 1) for t in range(80)]
                         + [(t, 3, 0) for t in range(0, 80, 5)], 80), 80, 2,
     None),
    (make_periodic_schedule(4, 3, peer_rule="ring"), 0, 3, None),
    (make_periodic_schedule(4, 3, peer_rule="ring"), 2, 3, None),  # no window
    # blocks of 10 steps and W stacks of 7 (windows: of 6), neither a
    # multiple of kappa: windows and decay spans straddle both cuts
    (make_random_schedule(4, 3, 0.3, seed=19), 300, 3, (10, 7 * 200)),
], ids=["random-n30", "ring-blocks", "table-gated", "horizon-0",
        "below-kappa", "small-cuts"])
def test_batched_checks_match_per_bundle_reference(monkeypatch, schedule,
                                                   horizon, kappa, cuts):
    if cuts is not None:
        monkeypatch.setattr(schedules, "_BLOCK_STEPS", cuts[0])
        monkeypatch.setattr(schedules, "_STACK_BUDGET", cuts[1])
        assert schedule.compiled.steps == cuts[0]
    params = SystemParams(n=schedule.n, tau0=1.0 / 3.0, seed=0)
    got = (check_transition_identities(schedule, params, horizon)
           + sweep_window_checks(schedule, params, horizon, kappa))
    want = _reference_checks(schedule, params, horizon, kappa)
    assert [_fields(c) for c in got] == [_fields(c) for c in want]
    if cuts is not None:  # the case issues every family, decay included
        assert {c.name.split("[")[0] for c in got} == {
            "stochasticity", "reduction", "diagonal_bound", "contraction",
            "truth_pull", "product_decay"}


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
    # the default grid starts at t = 100
    with pytest.raises(ValueError, match="t=100"):
        estimate_deviation_moments(sched, SystemParams(n=2, seed=0),
                                   horizon=99, n_runs=100)


@pytest.mark.parametrize("times", [[], [50.7, 100]])
def test_estimate_deviation_moments_rejects_bad_times(times):
    """An empty grid and a fractional time are errors; 50.7 was taken as
    50 before."""
    with pytest.raises(ValueError):
        estimate_deviation_moments(make_periodic_schedule(2, 2),
                                   SystemParams(n=2, seed=0), horizon=100,
                                   n_runs=100, times=times)


@pytest.mark.parametrize("times", [[10, 500], [-1, 50], [101]])
def test_estimate_deviation_moments_keeps_times_within_horizon(times):
    """Checkpoints go by the record rule: a time outside [0, horizon] is
    an error naming them, not a run past the horizon."""
    with pytest.raises(ValueError, match="record times"):
        estimate_deviation_moments(make_periodic_schedule(2, 2),
                                   SystemParams(n=2, seed=0), horizon=100,
                                   n_runs=100, times=times)


def test_estimate_deviation_moments_takes_horizon_as_a_count():
    """The horizon goes by the count rule: 150.5 is an error (it built a
    default grid up to it), 150.0 is 150."""
    sched = make_periodic_schedule(1, 1)
    params = SystemParams(n=1, seed=3)
    with pytest.raises(ValueError, match="horizon"):
        estimate_deviation_moments(sched, params, horizon=150.5, n_runs=100)
    got = estimate_deviation_moments(sched, params, horizon=150.0,
                                     n_runs=100)
    want = estimate_deviation_moments(sched, params, horizon=150, n_runs=100)
    assert list(got.times) == list(want.times) == [100]
    assert np.array_equal(got.moments, want.moments)


_HORIZON_CHECKS = {
    "verify_truth_hearing": lambda s, p, h: verify_truth_hearing(s, 3, h),
    "check_transition_identities": check_transition_identities,
    "sweep_window_checks": lambda s, p, h: sweep_window_checks(s, p, h, 3),
    "max_degree": lambda s, p, h: max_degree(s, h),
}


@pytest.mark.parametrize("check", list(_HORIZON_CHECKS.values()),
                         ids=list(_HORIZON_CHECKS))
def test_check_horizons_go_by_the_count_rule(check):
    """A horizon of 30.0 is 30 and 30.5 a ValueError, and the refused
    call leaves the schedule's compiled blocks as they were: it held
    float slots that broke every later walk."""
    params = SystemParams(n=3, seed=2)

    def ring():
        return make_periodic_schedule(3, 3, peer_rule="ring")

    sched = ring()
    with pytest.raises(ValueError, match="horizon"):
        check(sched, params, 30.5)
    assert repr(check(sched, params, 30.0)) == repr(check(ring(), params, 30))
    fresh = ring()
    assert np.array_equal(run_expected(sched, params, 40, x0=2.0).means,
                          run_expected(fresh, params, 40, x0=2.0).means)
    assert np.array_equal(ledger_for_times(sched, params, [0, 7, 31, 40]),
                          ledger_for_times(fresh, params, [0, 7, 31, 40]))


def test_window_starts_and_walk_spans_go_by_the_count_rule():
    """A window start s and a walk's start and stop are counts: 3.0 is 3,
    and a fractional one or a stop before the start is a ValueError."""
    sched = make_periodic_schedule(3, 3, peer_rule="ring")
    params = SystemParams(n=3)
    with pytest.raises(ValueError, match="^s "):
        check_diagonal_bound(sched, params, 2.5, 3)
    with pytest.raises(ValueError, match="^start "):
        sched.compiled.blocks(2.5, 4)
    with pytest.raises(ValueError, match="^stop "):
        sched.compiled.blocks(5, 4)
    assert repr(check_diagonal_bound(sched, params, 3.0, 3)) == \
        repr(check_diagonal_bound(sched, params, 3, 3))


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
    assert verdict.status == "insufficient horizon" and not verdict.passed
    assert verdict.cycles_realized == 0 and verdict.cycle_margins == []


def test_counterexample_check_horizon_goes_by_the_count_rule():
    """50.0 is 50 (the verdict held the float 50.0); 50.5 and -1 are
    errors, as are a horizon past the trap's and a schedule that is not
    the trap."""
    sched = make_counterexample_schedule(1.0, 2000)
    params = SystemParams(n=2, seed=0)
    verdict = counterexample_check(sched, params, 50.0)
    assert type(verdict.horizon) is int and verdict.passed
    assert repr(verdict) == repr(counterexample_check(sched, params, 50))
    assert verdict.cycles_realized == len(verdict.cycle_margins) > 0
    for horizon in (50.5, -1):
        with pytest.raises(ValueError, match="^horizon "):
            counterexample_check(sched, params, horizon)
    with pytest.raises(ValueError, match="beyond the materialized"):
        counterexample_check(sched, params, 2001)
    with pytest.raises(ValueError, match="counterexample schedule"):
        counterexample_check(make_periodic_schedule(2, 2), params)


def test_standard_schedule_set_composition(standard_cases):
    assert len(standard_cases) == 24
    labels = [c.label for c in standard_cases]
    assert len(set(labels)) == 24
    for case in standard_cases:
        assert case.schedule.n in (2, 4, 8, 10)
        assert case.kappa in (1, 3, 5)

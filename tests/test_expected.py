"""Deterministic mean recursion and its transition algebra."""

import numpy as np
import pytest

import socialbayes.expected as expected_module
import socialbayes.schedules as schedules_module
from socialbayes.dynamics import SystemParams, initial_state
from socialbayes.expected import (
    bundle_at,
    run_expected,
    transition_bundle,
    transition_bundles,
)
from socialbayes.schedules import (
    _BLOCK_STEPS,
    ScheduleHorizonError,
    make_counterexample_schedule,
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
)


def test_single_agent_closed_form():
    """Hearing the truth every step from x0=2, ratio 1: y_t = 2/(1+t)."""
    params = SystemParams(n=1, seed=0)
    sched = make_periodic_schedule(1, 1)
    out = run_expected(sched, params, 1000, x0=2.0)
    t = np.arange(1001)
    assert np.max(np.abs(out.means[:, 1] - 2.0 / (1.0 + t))) <= 1e-13


def test_two_agents_truth_only_stay_symmetric():
    params = SystemParams(n=2, seed=0)
    sched = make_periodic_schedule(2, 1, phases=[0, 0])
    out = run_expected(sched, params, 200, x0=2.0)
    assert np.array_equal(out.means[:, 1], out.means[:, 2])
    t = np.arange(201)
    assert np.max(np.abs(out.means[:, 1] - 2.0 / (1.0 + t))) <= 1e-13


def test_transition_rows_sum_to_one():
    params = SystemParams(n=4, seed=0)
    sched = make_random_schedule(4, 3, 0.5, seed=3)
    for t in range(30):
        b = bundle_at(sched, params, t)
        assert np.max(np.abs(b.full.sum(axis=1) - 1.0)) <= 1e-12
        assert np.array_equal(b.full[0], np.eye(5)[0])


def test_reduction_identity():
    # truth pull plus reduced row sums reconstruct the stochastic rows
    params = SystemParams(n=3, tau=2.0, tau0=5.0, seed=0)
    sched = make_periodic_schedule(3, 2, peer_rule="complete")
    for t in range(10):
        b = bundle_at(sched, params, t)
        assert np.max(np.abs(b.truth_pull + b.reduced.sum(axis=1) - 1.0)) <= 1e-12
        assert np.all(b.reduced >= 0)


def test_bundle_ledger_bookkeeping():
    params = SystemParams(n=2, tau0=3.0, seed=0)
    sched = make_periodic_schedule(2, 2, peer_rule="ring")
    b0 = bundle_at(sched, params, 0)
    assert np.allclose(b0.ledger_before, 3.0)
    _, deg = sched.arrays_at(0)
    assert np.array_equal(b0.ledger_after, b0.ledger_before + deg)


def test_transition_bundle_validates_inputs():
    led = np.array([1.0, 1.0, 1.0])
    deg = np.array([0, 1, 0])
    a = np.zeros((3, 3))
    a[1, 0] = 1.0
    transition_bundle(a, deg, led)  # sane input passes
    bad = a.copy()
    bad[1, 2] = -1.0
    with pytest.raises(ValueError):
        transition_bundle(bad, deg, led)
    with pytest.raises(ValueError):
        transition_bundle(a[:2, :2], deg, led)
    with pytest.raises(ValueError):
        transition_bundle(a, deg, np.array([1.0, -1.0, 1.0]))
    leaky = a.copy()
    leaky[0, 1] = 1.0  # truth row must stay inert
    with pytest.raises(ValueError):
        transition_bundle(leaky, deg, led)


@pytest.mark.parametrize("n", [3, expected_module._STACK_MAX_N + 1])
def test_run_expected_fixed_point_at_truth(n):
    """Started at the truth, the means stay there on both step paths."""
    params = SystemParams(n=n, truth=4.0, seed=0)
    sched = make_periodic_schedule(n, 1, peer_rule="complete")
    out = run_expected(sched, params, 20, x0=4.0)
    assert np.allclose(out.means, 4.0, atol=1e-14)


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_scanned_norms_never_increase(n):
    """The scan's chunk products round differently from one product per
    step, and still keep the sup norm from growing, over ten schedules."""
    params = SystemParams(n=n, truth=-1.0, tau=3.0, tau0=1.0)
    for seed in range(10):
        sched = make_random_schedule(n, 4, 0.3, seed=seed)
        out = run_expected(sched, params, 500, x0=np.linspace(-3, 3, n))
        assert np.all(np.diff(out.norms) <= 1e-15), seed


def test_expected_norms_never_increase():
    """Each row of the reduced block is a subconvex combination, so the
    truth-shifted sup norm cannot grow."""
    params = SystemParams(n=5, truth=-1.0, seed=0)
    sched = make_random_schedule(5, 4, 0.3, seed=12)
    out = run_expected(sched, params, 500, x0=np.linspace(-3, 3, 5))
    assert np.all(np.diff(out.norms) <= 1e-15)


def test_expected_shifted_property():
    params = SystemParams(n=2, truth=1.5, seed=0)
    sched = make_periodic_schedule(2, 1)
    out = run_expected(sched, params, 5, x0=2.5)
    assert np.allclose(out.shifted, out.means[:, 1:] - 1.5)


def _reduced_product(sched, params, s, t):
    """Product of the walk's reduced blocks over [s, t), newest on the left."""
    acc = np.eye(sched.n)
    for b in transition_bundles(sched, params, s, t):
        acc = b.reduced @ acc
    return acc


def test_reduced_product_propagates_shifted_means():
    """z_t = (product of reduced blocks over [s, t)) z_s when no agent
    hears the truth in between; with truth edges the product still maps
    z_s to z_t because the pull term vanishes against truth = 0."""
    params = SystemParams(n=3, truth=0.0, seed=0)
    sched = make_periodic_schedule(3, 2, peer_rule="ring")
    out = run_expected(sched, params, 40, x0=[1.0, -2.0, 0.5])
    for s, t in [(0, 5), (3, 17), (10, 40)]:
        prod = _reduced_product(sched, params, s, t)
        assert np.allclose(prod @ out.shifted[s], out.shifted[t], atol=1e-12)
    assert np.array_equal(_reduced_product(sched, params, 7, 7), np.eye(3))


def test_reduced_product_rejects_reversed_window():
    sched = make_periodic_schedule(2, 1)
    with pytest.raises(ValueError):
        transition_bundles(sched, SystemParams(n=2), 5, 3)
    with pytest.raises(ValueError):
        transition_bundles(sched, SystemParams(n=2), -1, 3)


@pytest.mark.parametrize("offset", [-6, 0, 4])
def test_bundle_walk_slices_match_walk_from_zero(offset):
    """A walk started at s yields bitwise the bundles a walk from 0 reaches
    at s..s+k-1, also when [s, s+k) crosses a compile-block boundary."""
    params = SystemParams(n=4, tau=3.0, tau0=1.0)  # ratio 1/3, not dyadic
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    start, k = _BLOCK_STEPS + offset, 12
    whole = list(transition_bundles(sched, params, 0, start + k))[start:]
    part = list(transition_bundles(sched, params, start, start + k))
    assert [b.t for b in part] == list(range(start, start + k))
    for a, b in zip(whole, part, strict=True):
        for name in ("full", "reduced", "truth_pull", "noise_mix",
                     "ledger_before", "ledger_after"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(bundle_at(sched, params, start).full, part[0].full)


def test_bundle_walk_matches_transition_bundle():
    """Every field of a walked bundle is bitwise the validated one-step
    bundle on the ledger ratio + (integer receive counts)."""
    params = SystemParams(n=5, tau=3.0, tau0=1.0)
    sched = make_random_schedule(5, 3, 0.4, seed=2)
    received = np.zeros(6, dtype=np.int64)
    for b in transition_bundles(sched, params, 0, 60):
        a, deg = sched.arrays_at(b.t)
        want = transition_bundle(a, deg, params.ratio + received, b.t)
        for name in ("full", "reduced", "truth_pull", "noise_mix",
                     "ledger_before", "ledger_after"):
            assert np.array_equal(getattr(b, name), getattr(want, name)), name
        received += deg


def test_run_expected_horizon_zero():
    params = SystemParams(n=2, seed=0)
    sched = make_periodic_schedule(2, 1)
    out = run_expected(sched, params, 0, x0=1.0)
    assert out.means.shape == (1, 3)
    assert out.norms[0] == 1.0


def test_run_expected_rejects_negative_horizon():
    sched = make_periodic_schedule(2, 1)
    with pytest.raises(ValueError):
        run_expected(sched, SystemParams(n=2), -1)


def test_isolated_agent_keeps_its_mean():
    # agent 2 never hears anyone: its expected mean is frozen
    rows = [(t, 1, 0) for t in range(50)]
    sched = make_table_schedule(2, rows, horizon=50)
    params = SystemParams(n=2, seed=0)
    out = run_expected(sched, params, 50, x0=[2.0, 3.0])
    assert np.all(out.means[:, 2] == 3.0)
    assert out.means[-1, 1] < 0.1
    assert out.norms[-1] == 3.0


def test_nonuniform_ratio_slows_convergence():
    fast = run_expected(make_periodic_schedule(1, 1),
                        SystemParams(n=1, tau0=1.0), 100, x0=2.0)
    slow = run_expected(make_periodic_schedule(1, 1),
                        SystemParams(n=1, tau0=25.0), 100, x0=2.0)
    assert slow.norms[-1] > fast.norms[-1]


def _bundle_loop(schedule, params, horizon, x0):
    """Mean recursion y_{t+1} = W_t y_t one arrays_at query at a time, W_t
    the validated transition_bundle on the ledger P_t = ratio + (integer
    receive counts before t)."""
    y = initial_state(params, x0).means
    received = np.zeros(params.n + 1, dtype=np.int64)
    means = [y]
    for t in range(horizon):
        a, deg = schedule.arrays_at(t)
        y = transition_bundle(a, deg, params.ratio + received, t).full @ y
        received = received + deg
        means.append(y)
    means = np.array(means)
    return means, np.max(np.abs(means[:, 1:] - params.truth), axis=1)


def _lean_loop(schedule, params, horizon, x0):
    """Mean recursion y + ((A - diag(D)) y) / P' one arrays_at query at a
    time, on the same ledger; a row that receives nothing adds 0 to y."""
    y = initial_state(params, x0).means
    received = np.zeros(params.n + 1, dtype=np.int64)
    means = [y]
    for t in range(horizon):
        a, deg = schedule.arrays_at(t)
        p_next = params.ratio + (received + deg)
        y = y + ((a - np.diag(deg)) @ y) / p_next
        received = received + deg
        means.append(y)
    means = np.array(means)
    return means, np.max(np.abs(means[:, 1:] - params.truth), axis=1)


def _longdouble_replay(schedule, params, horizon, x0):
    """(P y + A y) / P' in np.longdouble from edges_at alone, each ledger
    entry ratio + an exact integer count; returns y_0 .. y_horizon."""
    ld = np.longdouble
    y = [ld(v) for v in initial_state(params, x0).means]
    ratio = ld(params.ratio)
    counts = [0] * (params.n + 1)
    rules = {}
    out = [y]
    for t in range(horizon):
        edges = schedule.edges_at(t)
        rule = rules.get(edges)
        if rule is None:
            senders = {}
            for i, j in sorted(set(edges)):
                senders.setdefault(i, []).append(j)
            rule = rules[edges] = list(senders.items())
        new = list(y)
        for i, js in rule:
            p = ratio + counts[i]
            new[i] = (p * y[i] + sum(y[j] for j in js)) / (p + len(js))
            counts[i] += len(js)
        out.append(new)
        y = new
    return np.array(out, dtype=ld)


def _isolated_agent_table(n=3):
    # agents 3..n never receive; nobody receives after t = 120
    rows = [(t, 1, 0) for t in range(0, 120, 3)]
    rows += [(t, 2, 1) for t in range(0, 120, 2)]
    return make_table_schedule(n, rows, horizon=400)


_REFERENCE_CASES = {
    "single-agent": (lambda: make_periodic_schedule(1, 1),
                     SystemParams(n=1), 2.0),
    "ring-n4-k3": (lambda: make_periodic_schedule(4, 3, peer_rule="ring"),
                   SystemParams(n=4, tau=3.0, tau0=1.0), 2.0),
    "random": (lambda: make_random_schedule(5, 4, 0.3, seed=12),
               SystemParams(n=5, truth=-1.0), np.linspace(-3, 3, 5)),
    # ratio 3 and x0 = 0.7: (3 * 0.7) / 3 != 0.7, so a skipped no-op shows
    "table-isolated-quiet-tail": (_isolated_agent_table,
                                  SystemParams(n=3, tau0=3.0),
                                  [2.0, 3.0, 0.7]),
    "counterexample": (lambda: make_counterexample_schedule(1.0, 400),
                       SystemParams(n=2, truth=0.5), 2.5),
}


@pytest.mark.parametrize("horizon", [0, 1, 300])
@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_run_expected_bitwise_matches_reference_loop(case, horizon):
    """Bitwise the one-step loop while a chunk holds one product (horizons
    0 and 1); over 300 steps the scan's products round differently, so
    the gate is the long-double replay."""
    make, params, x0 = _REFERENCE_CASES[case]
    sched = make()
    out = run_expected(sched, params, horizon, x0=x0)
    if horizon <= 1:
        means, norms = _bundle_loop(sched, params, horizon, x0)
        assert np.array_equal(out.means, means)
        assert np.array_equal(out.norms, norms)
        return
    exact = _longdouble_replay(sched, params, horizon, x0)
    assert float(np.max(np.abs(out.means - exact))) <= 5e-14
    norms = np.max(np.abs(exact[:, 1:] - np.longdouble(params.truth)), axis=1)
    assert float(np.max(np.abs(out.norms - norms))) <= 5e-14


def test_run_expected_bitwise_across_blocks(monkeypatch):
    """The scan's chunks sit at multiples of their length, so the means do
    not depend on where compiled blocks and W stacks cut: smaller blocks,
    not a multiple of any chunk length, and smaller stacks change no bit."""
    cases = [(lambda: make_periodic_schedule(4, 3, peer_rule="ring"),
              SystemParams(n=4, tau=3.0, tau0=1.0), 2.0,
              2 * _BLOCK_STEPS + 808),
             (lambda: make_random_schedule(10, 3, 0.3, seed=4),
              SystemParams(n=10, tau=3.0, tau0=1.0), np.linspace(0, 2, 10),
              4500),
             (lambda: make_random_schedule(16, 3, 0.3, seed=4),
              SystemParams(n=16, truth=0.5), np.linspace(-1, 2, 16), 3000),
             # one-step chunks (c = 1)
             (lambda: make_periodic_schedule(20, 3, peer_rule="ring"),
              SystemParams(n=20, tau=3.0, tau0=1.0), np.linspace(-1, 2, 20),
              1500)]
    whole = [run_expected(make(), params, horizon, x0=x0)
             for make, params, x0, horizon in cases]
    monkeypatch.setattr(schedules_module, "_BLOCK_STEPS", 700)
    monkeypatch.setattr(schedules_module, "_STACK_BUDGET", 3000)
    for (make, params, x0, horizon), want in zip(cases, whole):
        sched = make()
        assert sched.compiled.steps == 700
        out = run_expected(sched, params, horizon, x0=x0)
        assert np.array_equal(out.means, want.means)
        assert np.array_equal(out.norms, want.norms)


def _table_with_unwalked_patterns(n):
    # hears and ring pulls up to t = 300, then patterns no walk to 300 uses
    rows = [(t, 1 + t % n, 0) for t in range(0, 300, 2)]
    rows += [(t, 1 + t % n, 1 + (t + 1) % n) for t in range(1, 300, 3)]
    rows += [(t, 1 + t % n, 1 + (t + 3) % n) for t in range(300, 400)]
    return make_table_schedule(n, rows, horizon=400)


@pytest.mark.parametrize("kind", ["random", "truth-only", "table"])
def test_run_expected_above_stack_cutoff_matches_lean_loop(kind, monkeypatch):
    """Past _STACK_MAX_N the step is y + ((A - diag(D)) y) / P', bit for
    bit; on the truth-only schedule most rows are idle at every step; the
    table holds patterns no walked block uses, and its 64-step blocks
    each use a few of the rest."""
    monkeypatch.setattr(schedules_module, "_BLOCK_STEPS", 64)
    n = expected_module._STACK_MAX_N + 1
    sched = {"random": lambda: make_random_schedule(n, 3, 0.1, seed=8),
             "truth-only": lambda: make_periodic_schedule(n, 3),
             "table": lambda: _table_with_unwalked_patterns(n)}[kind]()
    params = SystemParams(n=n, tau=3.0, tau0=1.0, truth=0.25)
    x0 = np.linspace(-1.0, 2.0, n)
    means, norms = _lean_loop(sched, params, 300, x0)
    out = run_expected(sched, params, 300, x0=x0)
    assert np.array_equal(out.means, means)
    assert np.array_equal(out.norms, norms)


@pytest.mark.parametrize("n", [3, expected_module._STACK_MAX_N + 1])
def test_idle_agent_keeps_its_mean_bitwise(n):
    """An agent that receives nothing keeps its mean bit for bit: its row
    of W_t is e_i, and past _STACK_MAX_N its row of A_t - diag(D_t) is
    zero.  Ratio 3 and mean 0.7, as in the reference case."""
    params = SystemParams(n=n, tau0=3.0)
    x0 = np.r_[2.0, 3.0, np.full(n - 2, 0.7)]
    out = run_expected(_isolated_agent_table(n), params, 400, x0=x0)
    assert np.all(out.means[:, 3:] == 0.7)  # agents 3..n never receive
    assert np.all(out.means[121:] == out.means[120])  # nobody does after 120
    assert np.all(out.means[:, 0] == params.truth)


_ORACLE_CASES = {
    # name: (schedule, params, horizon, x0, gate on the absolute error);
    # the (P y + A y) / P' step reaches 4.3e-12 on the trap
    "trap-200k": (lambda: make_counterexample_schedule(1.0, 200_000),
                  SystemParams(n=2), 200_000, 2.0, 5e-13),
    "criterion-1-200k": (lambda: make_periodic_schedule(1, 1),
                         SystemParams(n=1), 200_000, 2.0, 1e-15),
    "ring-n4-ratio-1/3": (lambda: make_periodic_schedule(4, 3, "ring"),
                          SystemParams(n=4, tau=3.0, tau0=1.0), 50_000,
                          [2.0, -1.0, 0.5, 3.0], 5e-14),
    "random-n8-ratio-1/3": (lambda: make_random_schedule(8, 3, 0.3, seed=5),
                            SystemParams(n=8, tau=3.0, tau0=1.0), 5000,
                            np.linspace(1.0, 3.0, 8), 5e-14),
    # the largest n whose scan takes chunks longer than one step
    "random-n16-ratio-1/3": (lambda: make_random_schedule(16, 3, 0.3, seed=5),
                             SystemParams(n=16, tau=3.0, tau0=1.0), 3000,
                             np.linspace(1.0, 3.0, 16), 5e-14),
    # past _STACK_MAX_N: the per-pattern step
    "random-n30-ratio-1/3": (lambda: make_random_schedule(30, 3, 0.1, seed=8),
                             SystemParams(n=30, tau=3.0, tau0=1.0), 2000,
                             np.linspace(-1.0, 2.0, 30), 5e-14),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_run_expected_error_against_longdouble_replay(case):
    make, params, horizon, x0, gate = _ORACLE_CASES[case]
    sched = make()
    out = run_expected(sched, params, horizon, x0=x0)
    exact = _longdouble_replay(sched, params, horizon, x0)
    assert float(np.max(np.abs(out.means - exact))) <= gate


def test_run_expected_keeps_schedule_horizon_check():
    table = make_table_schedule(2, [(t, 1, 0) for t in range(50)], horizon=50)
    run_expected(table, SystemParams(n=2), 50)
    with pytest.raises(ScheduleHorizonError):
        run_expected(table, SystemParams(n=2), 51)
    periodic = make_periodic_schedule(2, 3, horizon=10)
    with pytest.raises(ScheduleHorizonError):
        run_expected(periodic, SystemParams(n=2), 11)


def test_walked_bundles_chain_bitwise():
    """Each step's divisor is the next step's ledger bit for bit: both are
    ratio + an integer count, rounded once, at a non-dyadic ratio too."""
    params = SystemParams(n=6, tau=3.0, tau0=1.0)
    bundles = list(transition_bundles(make_random_schedule(6, 3, 0.3, seed=2),
                                      params, 0, 400))
    for b, nxt in zip(bundles, bundles[1:]):
        assert np.array_equal(b.ledger_after, nxt.ledger_before), b.t

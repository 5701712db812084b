"""Graph schedules: construction, truth hearing, and the precision ledger."""

import gc
import tracemalloc

import numpy as np
import pytest

from conftest import FloatStacks
from socialbayes import schedules
from socialbayes.analysis import (check_transition_identities,
                                  sweep_window_checks)
from socialbayes.dynamics import SystemParams, run_ensemble
from socialbayes.expected import _laplacians, bundle_at, run_expected
from socialbayes.schedules import (
    CompiledSchedule,
    CounterexampleSchedule,
    RandomSchedule,
    ScheduleConstructionError,
    ScheduleHorizonError,
    default_pull_tolerance,
    make_counterexample_schedule,
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
    max_degree,
    verify_truth_hearing,
)
from socialbayes.tables import ledger_for_times


def test_periodic_truth_edges_once_per_window():
    sched = make_periodic_schedule(4, 3)
    for start in range(0, 30, 3):
        hears = np.zeros(5, dtype=int)
        for t in range(start, start + 3):
            a, _ = sched.arrays_at(t)
            hears += (a[:, 0] > 0).astype(int)
        assert list(hears[1:]) == [1, 1, 1, 1]
        assert hears[0] == 0  # the truth hears nobody


def test_periodic_phases_control_hearing_times():
    sched = make_periodic_schedule(2, 4, phases=[0, 3])
    assert (1, 0) in sched.edges_at(0)
    assert (2, 0) not in sched.edges_at(0)
    assert (2, 0) in sched.edges_at(3)
    assert sched.edges_at(7) == sched.edges_at(3)


def test_ring_degrees():
    sched = make_periodic_schedule(4, 1, peer_rule="ring")
    _, deg = sched.arrays_at(5)
    # every agent: one peer plus the truth edge each step when kappa = 1
    assert list(deg) == [0, 2, 2, 2, 2]
    assert max_degree(sched, 10) == 2


def test_complete_peer_rule():
    sched = make_periodic_schedule(3, 2, peer_rule="complete")
    a, deg = sched.arrays_at(1)
    assert a[1, 2] == 1 and a[1, 3] == 1 and a[2, 1] == 1
    assert a[1, 1] == 0 and a[2, 2] == 0
    assert deg[3] in (2, 3)


def test_truth_row_stays_inert():
    for sched in (make_periodic_schedule(3, 2, peer_rule="complete"),
                  make_random_schedule(3, 2, 0.5, seed=1)):
        for t in range(6):
            a, deg = sched.arrays_at(t)
            # the truth hears nobody: row 0 is all zeros
            assert deg[0] == 0 and not a[0].any()


def test_arrays_are_read_only_and_cached():
    sched = make_periodic_schedule(2, 2)
    a1, d1 = sched.arrays_at(0)
    a2, d2 = sched.arrays_at(2)
    # same residue -> a view of the same cached pattern
    assert np.shares_memory(a1, a2) and np.shares_memory(d1, d2)
    with pytest.raises(ValueError):
        a1[1, 0] = 5.0


def test_random_schedule_is_reproducible_and_hears():
    s1 = make_random_schedule(5, 3, 0.3, seed=77)
    s2 = make_random_schedule(5, 3, 0.3, seed=77)
    for t in range(12):
        assert s1.edges_at(t) == s2.edges_at(t)
    assert make_random_schedule(5, 3, 0.3, seed=78).edges_at(4) != s1.edges_at(4) \
        or True  # draws may coincide at one step; the check below is the real one
    assert verify_truth_hearing(s1, 3, horizon=300).passed


def test_random_schedule_edge_probability_extremes():
    none = make_random_schedule(3, 2, 0.0, seed=5)
    full = make_random_schedule(3, 2, 1.0, seed=5)
    for t in range(4):
        peers = [e for e in none.edges_at(t) if e[1] != 0]
        assert peers == []
        a, _ = full.arrays_at(t)
        off = a[1:, 1:].copy()
        np.fill_diagonal(off, 1.0)
        assert off.all()


def test_table_schedule_explicit_rows():
    sched = make_table_schedule(2, [(0, 1, 0), (0, 2, 1), (1, 2, 0)])
    assert sched.edges_at(0) == ((1, 0), (2, 1))
    assert sched.edges_at(1) == ((2, 0),)
    assert sched.horizon == 2
    with pytest.raises(ScheduleHorizonError):
        sched.edges_at(2)


def test_table_schedule_validates_endpoints():
    with pytest.raises(ValueError):
        make_table_schedule(2, [(0, 3, 0)])
    with pytest.raises(ValueError):
        make_table_schedule(2, [(0, 1, 1)])  # self-loop
    with pytest.raises(ValueError):
        make_table_schedule(2, [(0, 0, 1)])  # truth never listens
    with pytest.raises(ValueError):
        make_table_schedule(2, [(-1, 1, 0)])


def test_integer_inputs_carry_their_ranges():
    """_integral takes bounds as _real does and states the whole rule in
    its one message; the negative table time, the phase outside
    [0, kappa) and the record and ledger times outside their ranges are
    refused by it."""
    assert schedules._integral([0, 3.0, 5], "x", 0, 5).tolist() == [0, 3, 5]
    assert schedules._integral([], "x", 0, 5).tolist() == []
    for values, low, high, rule in (
            ([-1], 0, None, "x must be integers and >= 0"),
            ([6], 0, 5, "x must be integers and >= 0 and <= 5"),
            ([2.5], 0, 5, "x must be integers and >= 0 and <= 5"),
            ([6.0], None, 5, "x must be integers and <= 5"),
            ([np.nan], None, None, "x must be integers"),
            ([2 ** 63 + 1], 0, None, "x must be integers and >= 0")):
        with pytest.raises(ValueError, match="^%s$" % rule):
            schedules._integral(values, "x", low, high)
    with pytest.raises(ValueError, match="^edge table entries must be "
                       "integers and >= 0$"):
        make_table_schedule(2, [(-1, 1, 0)])
    with pytest.raises(ValueError, match="^phases must be integers and >= 0 "
                       "and <= 2$"):
        make_periodic_schedule(2, 3, phases=[0, 3])
    with pytest.raises(ValueError, match="one phase in .* per agent"):
        make_periodic_schedule(2, 3, phases=[0])


def test_one_step_queries_refuse_negative_times():
    for sched in (make_periodic_schedule(2, 2),
                  make_random_schedule(2, 2, 0.5, seed=1),
                  make_table_schedule(2, [(0, 1, 0)]),
                  make_counterexample_schedule(1.0, 50)):
        for query in (sched.arrays_at, sched.edges_at):
            with pytest.raises(ScheduleHorizonError, match="negative time"):
                query(-1)


def test_table_edges_lie_below_a_given_horizon():
    for t in (3, 4):
        with pytest.raises(ValueError, match="past the given horizon"):
            make_table_schedule(2, [(0, 1, 0), (t, 2, 0)], horizon=3)
    sched = make_table_schedule(2, [(2, 2, 0)], horizon=3)
    assert sched.edges_at(2) == ((2, 0),)


def test_ring_of_one_agent_has_no_peer_edges():
    sched = make_periodic_schedule(1, 2, peer_rule="ring")
    assert [sched.edges_at(t) for t in range(4)] == [(), ((1, 0),)] * 2


def test_table_schedule_declared_horizon_allows_quiet_tail():
    sched = make_table_schedule(2, [(0, 1, 0)], horizon=5)
    assert sched.edges_at(4) == ()
    with pytest.raises(ScheduleHorizonError):
        sched.edges_at(5)


def _from_edges(sched, t):
    """Step t's adjacency and receive counts built from edges_at alone,
    each listed edge counted."""
    a = np.zeros((sched.n + 1, sched.n + 1))
    for i, j in sched.edges_at(t):
        a[i, j] += 1.0
    return a, a.sum(axis=1).astype(np.int64)


def _assert_block_matches(sched, blk, start, stop):
    assert blk.start == start
    # every kind's patterns are one read-only bool stack and its int64
    # degree rows, the stack's row counts
    for patterns in (blk.adjacency, blk.degrees):
        assert isinstance(patterns, np.ndarray)
        assert not patterns.flags.writeable
    assert blk.adjacency.dtype == bool and blk.degrees.dtype == np.int64
    assert np.array_equal(blk.degrees, blk.adjacency.sum(axis=2))
    assert blk.adjacency.shape == (len(blk.degrees), sched.n + 1, sched.n + 1)
    assert blk.slots.shape == (stop - start,)
    degrees = blk.degrees[blk.slots]
    assert degrees.shape == (stop - start, sched.n + 1)
    for row, t in enumerate(range(start, stop)):
        a, deg = sched.arrays_at(t)
        assert a.dtype == bool and deg.dtype == np.int64
        assert np.array_equal(blk.adjacency[blk.slots[row]], a)
        assert np.array_equal(blk.degrees[blk.slots[row]], deg)
        assert np.array_equal(degrees[row], deg)
        ref_a, ref_deg = _from_edges(sched, t)
        assert np.array_equal(a, ref_a) and np.array_equal(deg, ref_deg)


def test_compiled_schedule_blocks_match_queries(monkeypatch):
    # a repeated edge counts once, in edges_at as in the compiled form
    table = make_table_schedule(3, [(t, 1, 0) for t in range(0, 30, 4)]
                                + [(t, 2, 3) for t in range(10, 50)]
                                + [(12, 2, 3), (20, 1, 0)], horizon=60)
    for sched in (make_periodic_schedule(3, 4, peer_rule="ring"),
                  make_periodic_schedule(3, 4, peer_rule=[(1, 2), (2, 3),
                                                          (1, 2)]),
                  make_random_schedule(3, 2, 0.5, seed=4), table):
        compiled = CompiledSchedule(sched)
        for start, stop in [(0, 0), (0, 7), (7, 60), (5, 40)]:
            _assert_block_matches(sched, compiled.block(start, stop), start,
                                  stop)
        if not isinstance(sched, RandomSchedule):  # a random stack need not dedupe
            blk = compiled.block(0, 60)
            unique = {a.tobytes() for a in blk.adjacency}
            assert len(unique) == len(blk.adjacency)
    with pytest.raises(ScheduleHorizonError):
        CompiledSchedule(table).block(50, 61)

    trap = make_counterexample_schedule(1.0, 20_000)
    compiled = CompiledSchedule(trap)
    hears = sorted(trap.truth_times_1 + trap.truth_times_2)
    assert len(hears) > 10
    for t in hears:  # every interval starts at a hear or the step after it
        lo, hi = max(t - 2, 0), min(t + 3, trap.horizon)
        _assert_block_matches(trap, compiled.block(lo, hi), lo, hi)

    # a random schedule across many small blocks, most of them dropped:
    # a step takes 16 + 8 * 5 = 56 bytes, so 3 steps a block
    monkeypatch.setattr(schedules, "_COMPILE_BUDGET", 8 * 3 * 56)
    sched = make_random_schedule(3, 2, 0.5, seed=9)
    compiled = sched.compiled
    assert compiled.steps == 3
    for start, stop in [(0, 40), (5, 17), (31, 64), (0, 64)]:
        t = start
        for blk in compiled.blocks(start, stop):  # in order, cut to the span
            assert 1 <= len(blk.slots) <= 3
            end = t + len(blk.slots)
            assert end % 3 == 0 or end == stop  # blocks sit at multiples of 3
            _assert_block_matches(sched, blk, t, t + len(blk.slots))
            assert np.array_equal(blk.received, sum(
                (sched.arrays_at(u)[1] for u in range(t)), np.zeros(4, int)))
            t += len(blk.slots)
        assert t == stop
        assert compiled.nbytes <= 8 * 3 * 56


def test_blocks_do_not_depend_on_walk_order(monkeypatch):
    """One-step walks in rising order leave full blocks for a later walk,
    and only blocks that fit the budget are held."""
    monkeypatch.setattr(schedules, "_COMPILE_BUDGET", 8 * 3 * 56)
    sched = make_random_schedule(3, 2, 0.5, seed=9, horizon=50)
    compiled = sched.compiled
    for t in range(10):
        assert [blk.start for blk in compiled.blocks(t, t + 1)] == [t]
    assert [(blk.start, len(blk.slots)) for blk in compiled.blocks(0, 50)] \
        == [(s, 3) for s in range(0, 48, 3)] + [(48, 2)]
    assert len(compiled._counts) == 18  # one receive-count row per block
    # 3 steps of 56 bytes a block (a bool matrix, a degree row and a
    # slot): the first 8 blocks fit 1,344 bytes
    assert sorted(compiled._held) == list(range(8))
    assert compiled.nbytes == 8 * 3 * 56


def test_walk_holds_its_schedule():
    """A walk over a schedule nothing else holds runs to its end; the
    compiled form alone says its schedule is gone."""
    walk = schedules._stacks(make_random_schedule(3, 2, 0.5, seed=4), 1.0,
                             0, 8, 1)
    gc.collect()
    assert [t0 for t0, *_ in walk] == list(range(8))
    compiled = make_periodic_schedule(3, 4).compiled
    gc.collect()
    with pytest.raises(ReferenceError):
        compiled.blocks(0, 4)


def test_random_compile_holds_bounded_memory():
    """At n = 100 the compiled form holds the same bytes, and a walk peaks
    at the same traced memory, after 2,000 and after 8,000 steps, both
    past the 1,520 steps the budget holds, up to one block; what it
    holds stays within the budget."""
    held, peaks = [], []
    for horizon in (2000, 8000):
        sched = make_random_schedule(100, 3, 0.05, seed=1)
        tracemalloc.start()
        assert max_degree(sched, horizon) > 0
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        held.append(sched.compiled.nbytes)
    one_block = schedules._COMPILE_BUDGET // 8
    assert abs(held[1] - held[0]) <= one_block
    assert max(held) <= schedules._COMPILE_BUDGET
    assert abs(peaks[1] - peaks[0]) <= one_block


@pytest.mark.parametrize("n", [1, 8, 100, 300])
def test_freeze_degrees_are_row_counts(n):
    """_freeze's degree rows equal count_nonzero's row counts, all-true
    and all-false rows included; at n = 300 a row holds more ones than a
    uint8 sum could."""
    stack = np.random.default_rng(n).random((5, n + 1, n + 1)) < 0.3
    stack[0] = True
    stack[1] = False
    stack[2, ::2] = True
    frozen, degrees = schedules._freeze(stack.copy())
    assert np.array_equal(frozen, stack)
    assert degrees.dtype == np.int64 and not degrees.flags.writeable
    assert np.array_equal(degrees, np.count_nonzero(stack, axis=2))


def test_float_windows_cast_fixed_sets_once():
    """A fixed pattern set is cast to float64 once per block, whatever the
    window; a random block is cast a window of at most an eighth of the
    budget at a time (25 steps at n = 100), never whole.  Each step's
    cast, by run_expected's _laplacians, is its A - diag(D)."""
    for sched, stop, steps, lengths, casts in (
            (make_periodic_schedule(100, 5, "ring"), 400, 16, [16] * 25, 1),
            (make_random_schedule(100, 3, 0.01, seed=2), 190, 190,
             [25] * 7 + [15], 8)):
        blk = sched.compiled.block(0, stop)
        windows = list(schedules._float_windows(blk, steps, _laplacians))
        assert [len(w[2]) for w in windows] == lengths
        assert len({id(w[1]) for w in windows}) == casts
        for j, cast, slots in windows:
            assert cast.dtype == np.float64
            assert cast.nbytes <= schedules._COMPILE_BUDGET // 8
            for lap, k in zip(cast[slots], blk.slots[j:j + len(slots)]):
                assert np.array_equal(
                    lap, blk.adjacency[k] - np.diag(blk.degrees[k]))


@pytest.mark.parametrize("truth_noise", [True, False])
def test_bool_stacks_match_float_reference(truth_noise):
    """At n = 100, p = 0.01 the mean process, an ensemble and the identity
    and window checks over bool stacks in 190-step blocks are bitwise what
    they are over float64 stacks in 25-step blocks (conftest.FloatStacks),
    past the first bool block's end."""
    horizon, x0 = 200, np.linspace(-1.0, 2.0, 100)
    params = SystemParams(n=100, seed=3, truth_noise=truth_noise)
    results = []
    for sched, steps in ((make_random_schedule(100, 3, 0.01, seed=11), 190),
                         (FloatStacks(make_random_schedule(
                             100, 3, 0.01, seed=11)), 25)):
        assert sched.compiled.steps == steps
        mean = run_expected(sched, params, horizon, x0=x0)
        ens = run_ensemble(sched, params, horizon, 3, x0=x0, record_every=7)
        checks = (check_transition_identities(sched, params, horizon)
                  + sweep_window_checks(sched, params, horizon, 3))
        assert checks
        results.append((mean.means, mean.norms, ens.means, ens.ledger,
                        np.array([repr(c) for c in checks])))
    for ours, reference in zip(*results):
        assert np.array_equal(ours, reference)


def test_truth_hearing_reports_first_violation():
    """Hearing only at powers of two fails kappa=10 first at window start 17."""
    rows = [(t, 1, 0) for t in range(1000)]
    rows += [(2 ** k, 2, 0) for k in range(10)]
    sched = make_table_schedule(2, rows, horizon=1000)
    verdict = verify_truth_hearing(sched, 10, horizon=1000)
    assert not verdict.passed
    assert verdict.violation == (2, 17)
    assert not verdict  # __bool__ mirrors passed


def _truth_hearing_tally(sched, kappa, horizon):
    """First (agent, window start) missing the truth, from edges_at."""
    last = [-1] * (sched.n + 1)
    for t in range(horizon):
        for i, j in sched.edges_at(t):
            if j == 0:
                last[i] = t
        for i in range(1, sched.n + 1):
            if t - kappa + 1 >= 0 and last[i] < t - kappa + 1:
                return i, t - kappa + 1
    return None


@pytest.mark.parametrize("kappa", [1, 3, 4, 5, 6])
def test_truth_hearing_matches_edges_at_tally(kappa):
    """The compiled truth column gives the tally's first violation, also
    when windows straddle compiled blocks (the periodic case)."""
    cases = [(make_random_schedule(8, 5, 0.3, seed=21), 400),
             (make_periodic_schedule(3, 4, peer_rule="ring"), 9000)]
    if kappa > 1:
        trap = make_counterexample_schedule(1.0, 20_000)
        cases.append((trap, trap.horizon))
    for sched, horizon in cases:
        for k in (kappa, 10 * kappa, 300 * kappa):
            verdict = verify_truth_hearing(sched, k, horizon)
            expected = _truth_hearing_tally(sched, k, horizon)
            assert verdict.violation == expected, (type(sched).__name__, k)
            assert verdict.passed == (expected is None)


def test_truth_hearing_passes_on_periodic():
    sched = make_periodic_schedule(6, 4)
    verdict = verify_truth_hearing(sched, 4, horizon=200)
    assert verdict.passed and verdict.violation is None


def test_truth_hearing_fails_for_too_small_window():
    sched = make_periodic_schedule(3, 4)
    assert not verify_truth_hearing(sched, 3, horizon=100).passed


def test_precision_ledger_exact_integer_accumulation():
    sched = make_periodic_schedule(3, 2, peer_rule="ring")
    total = np.zeros(4, dtype=np.int64)
    for t in range(7):
        total += sched.arrays_at(t)[1]
    led = bundle_at(sched, SystemParams(n=3), 7).ledger_before
    assert np.array_equal(led, 1.0 + total)
    assert led[0] == 1.0  # truth entry never grows


def test_counterexample_switch_times_strictly_increase():
    sched = make_counterexample_schedule(1.0, 200_000)
    times = []
    for sw in sched.switches:
        times.extend([sw.t_k, sw.s_k])
    assert all(a < b for a, b in zip(times, times[1:]))
    assert len(sched.switches) >= 4


def test_counterexample_bounds_hold_at_switches():
    sched = make_counterexample_schedule(1.0, 200_000)
    for sw in sched.switches:
        assert sw.value_at_t >= sw.bound_at_t - 1e-12
        assert sw.value_at_s >= sw.bound_at_s - 1e-12
        assert sw.bound_at_t == 1.0 + 2.0 ** (-2 * sw.k)
        assert sw.bound_at_s == 1.0 + 2.0 ** (-2 * sw.k + 1)


def test_counterexample_truth_gaps_stretch():
    """The gap between consecutive truth edges grows without bound."""
    sched = make_counterexample_schedule(1.0, 500_000)
    gaps1 = np.diff(sched.truth_times_1)
    gaps2 = np.diff(sched.truth_times_2)
    assert gaps1.max() > 1000 and gaps2.max() > 1000
    for kappa in (10, 100):
        assert not verify_truth_hearing(sched, kappa, sched.horizon).passed


def test_counterexample_intervals_are_pinned():
    """The canonical trap's intervals over 30,000 steps: the first step
    and the one receive edge of each, as the construction first gave them."""
    sched = make_counterexample_schedule(1.0, 30_000)
    slots = sched.compiled.block(0, 30_000).slots
    starts = np.flatnonzero(np.diff(slots, prepend=-1))
    assert starts.tolist() == [0, 1, 31, 32, 60, 61, 62, 159, 160, 472, 473,
                               693, 694, 867, 868, 2069, 2070, 7062, 7063,
                               11551, 11552, 14346, 14347]
    assert [sched.edges_at(t)[0] for t in starts] == [
        (1, 0), (1, 2), (2, 0), (2, 1), (1, 0), (2, 0), (2, 1)] + [
        (1, 0), (1, 2), (2, 0), (2, 1)] * 4


@pytest.mark.parametrize("start, message", [
    (1.0, "agent 2 mean 1.0 below bound 1.25 entering cycle 1"),
    (1.3, "pull target 1.3 cannot reach bound 1.5 at cycle 1"),
    (1.5, "agent 1 mean 1.4375 below bound 1.5 at s_1=23")])
def test_counterexample_construction_errors(start, message):
    """A start too close to the truth breaks a defining bound, and the
    construction says which, where."""
    with pytest.raises(ScheduleConstructionError) as err:
        make_counterexample_schedule(1.0, 30_000, start=start)
    assert str(err.value) == message


def test_counterexample_is_two_agent_only():
    sched = make_counterexample_schedule(1.0, 1000)
    assert sched.n == 2
    assert isinstance(sched, CounterexampleSchedule)


def test_default_pull_tolerance_halves_quadratically():
    assert default_pull_tolerance(1) == 2.0 ** -4
    assert default_pull_tolerance(3) == 2.0 ** -8


def test_pull_after_s_k_always_reaches_the_next_bound():
    """Agent 1 leaves s_k at or above 1 + 2^(1-2k), and that plus the pull
    tolerance reaches cycle k + 1's bound 1 + 2^(-2(k+1)) in float64, so
    the trap needs no check that agent 2's pull target can reach it."""
    for k in range(1, 41):
        assert ((1.0 + 2.0 ** (1 - 2 * k)) + default_pull_tolerance(k)
                >= 1.0 + 2.0 ** (-2 * (k + 1)))


def test_schedule_sizes_are_integers():
    """n and kappa go by _integral's rule: 3.0 is 3, 2.5 is refused."""
    for make in (lambda n, kappa: make_periodic_schedule(n, kappa, "ring"),
                 lambda n, kappa: make_random_schedule(n, kappa, 0.3, seed=5),
                 lambda n, kappa: make_table_schedule(n, [(1, 1, 0)])):
        a, b = make(3.0, 2.0), make(3, 2)
        assert type(a.n) is int and a.n == 3
        assert getattr(a, "kappa", 2) == 2
        assert all(a.edges_at(t) == b.edges_at(t) for t in range(2))
        for n in (2.5, np.nan):
            with pytest.raises(ValueError):
                make(n, 2)
    for make in (make_periodic_schedule,
                 lambda n, kappa: make_random_schedule(n, kappa, 0.3, seed=5)):
        with pytest.raises(ValueError):
            make(3, 2.5)


def test_table_and_periodic_inputs_are_integers():
    """Edge times and endpoints, peer pairs and phases go by _integral's
    rule: 3.0 is 3, a fraction is refused, never truncated."""
    a = make_table_schedule(2, [(0.0, 1.0, 0), (1, 2.0, 0.0)], horizon=3)
    b = make_table_schedule(2, [(0, 1, 0), (1, 2, 0)], horizon=3)
    assert all(a.edges_at(t) == b.edges_at(t) for t in range(3))
    p = make_periodic_schedule(3, 3, peer_rule=[(1.0, 2)], phases=[0.0, 2, 1])
    assert p.phases == (0, 2, 1)
    assert p.edges_at(0) == make_periodic_schedule(
        3, 3, peer_rule=[(1, 2)], phases=[0, 2, 1]).edges_at(0)
    bad = [lambda: make_table_schedule(2, [(0.5, 1, 0), (1, 2, 0)]),
           lambda: make_table_schedule(2, [(0, 1, 0), (1, 2.7, 0)]),
           lambda: make_table_schedule(2, [(0, 1, np.nan)]),
           lambda: make_periodic_schedule(2, 3, phases=[0.5, 2.9]),
           lambda: make_periodic_schedule(3, 3, peer_rule=[(1.5, 2)])]
    for make in bad:
        with pytest.raises(ValueError, match="must be integers"):
            make()


@pytest.mark.filterwarnings("error")
def test_integers_past_int64_are_refused():
    """A value past int64 is refused by _integral's rule: not wrapped
    (2^64 - 1 read as the time -1), overflowed or cast with a warning."""
    for make in (lambda: make_table_schedule(2, [(2 ** 64 - 1, 1, 0)]),
                 lambda: make_table_schedule(2, [(2 ** 70, 1, 0)]),
                 lambda: ledger_for_times(make_periodic_schedule(2, 2),
                                          SystemParams(n=2), [1e19])):
        with pytest.raises(ValueError, match="must be integers"):
            make()


@pytest.mark.parametrize("ratio, start", [(np.nan, 2.0), (np.inf, 2.0),
                                          (1.0, np.nan), (1.0, np.inf)])
def test_counterexample_rejects_non_finite_inputs(ratio, start):
    with pytest.raises(ValueError, match="ratio" if start == 2.0 else "start"):
        make_counterexample_schedule(ratio, 2000, start=start)


def test_schedule_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        make_periodic_schedule(0, 2)
    with pytest.raises(ValueError):
        make_periodic_schedule(2, 0)
    with pytest.raises(ValueError):
        make_periodic_schedule(2, 2, peer_rule="mesh")
    with pytest.raises(ValueError):
        make_periodic_schedule(2, 2, phases=[0, 5])
    # a negative or fractional horizon is refused when the schedule is built
    for horizon in (-5, 2.5):
        with pytest.raises(ValueError, match="horizon"):
            make_periodic_schedule(2, 3, horizon=horizon)
        with pytest.raises(ValueError, match="horizon"):
            make_random_schedule(2, 3, 0.5, seed=1, horizon=horizon)


@pytest.mark.parametrize("p", [-0.1, 1.5, np.nan])
def test_edge_probability_goes_by_the_real_rule(p):
    with pytest.raises(ValueError, match="^edge probability must be finite"):
        make_random_schedule(3, 2, p, seed=1)
    assert make_random_schedule(3, 2, 1, seed=1).edge_probability == 1.0


@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 + 3])
@pytest.mark.parametrize("n", [1, 3, 8])
def test_random_peers_read_one_stream_in_step_order(n, seed):
    """Step t's peer edges are slice t of one long draw from numpy's
    SeedSequence([seed, 101]) stream, thresholded with the diagonal
    dropped: through edges_at, through blocks compiled from step 0 and
    through blocks compiled from inside the stream."""
    steps, p = 40, 0.3
    ref = np.random.default_rng(np.random.SeedSequence(
        [seed, schedules._TAG_PEERS])).random((steps, n, n)) < p
    ref[:, np.arange(n), np.arange(n)] = False
    sched = make_random_schedule(n, 3, p, seed=seed)
    for t in range(steps):
        peers = np.zeros((n, n), dtype=bool)
        for i, j in sched.edges_at(t):
            peers[i - 1, j - 1] = j > 0
        assert np.array_equal(peers, ref[t]), t
    for start, stop in ((0, steps), (0, 9), (9, 26), (26, steps), (13, 14)):
        blk = sched._compile(start, stop)
        assert np.array_equal(blk.adjacency[blk.slots][:, 1:, 1:],
                              ref[start:stop]), (start, stop)
    phases = np.random.default_rng(np.random.SeedSequence(
        [seed, schedules._TAG_PHASES])).integers(0, 3, size=n)
    assert sched.phases == tuple(phases.tolist())


@pytest.mark.parametrize("seed", [2.7, 1.5, np.nan, np.inf])
def test_random_schedule_rejects_fractional_or_non_finite_seed(seed):
    with pytest.raises(ValueError):
        make_random_schedule(3, 3, 0.3, seed=seed)


def test_random_schedule_seed_checks():
    """An integral float seed is that integer; a negative one is refused."""
    a = make_random_schedule(3, 3, 0.3, seed=2.0)
    b = make_random_schedule(3, 3, 0.3, seed=2)
    assert all(a.edges_at(t) == b.edges_at(t) for t in range(20))
    with pytest.raises(ValueError):
        make_random_schedule(3, 3, 0.3, seed=-1)

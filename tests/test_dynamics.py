"""Noisy belief dynamics: conjugate updates, RNG streams, trajectories."""

import os
import threading
import warnings
from functools import partial

import numpy as np
import pytest

from socialbayes import dynamics, expected, schedules
from socialbayes.dynamics import (
    BeliefState,
    SystemParams,
    emit_signals,
    initial_state,
    ledger_for_times,
    run_ensemble,
    run_simulation,
    run_stream,
    step_per_agent,
    update_agent,
)
from socialbayes.schedules import (
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
)


def test_update_agent_single_signal():
    # tau = tau0 = 1, one signal: posterior mean is the plain average
    mean, prec = update_agent(2.0, 1.0, [4.0], 1.0)
    assert mean == 3.0 and prec == 2.0


def test_update_agent_batch_and_empty():
    mean, prec = update_agent(1.0, 2.0, [0.0, 0.0], 1.0)
    assert mean == pytest.approx(0.5) and prec == 4.0
    mean, prec = update_agent(1.0, 2.0, [], 1.0)
    assert mean == 1.0 and prec == 2.0


def test_update_agent_precision_weighting():
    # strong prior barely moves; weak prior follows the signal
    strong, _ = update_agent(0.0, 100.0, [10.0], 1.0)
    weak, _ = update_agent(0.0, 0.01, [10.0], 1.0)
    assert strong < 0.2 and weak > 9.0


def test_initial_state_broadcasts():
    params = SystemParams(n=3, truth=5.0)
    assert list(initial_state(params, 2.0).means) == [5.0, 2.0, 2.0, 2.0]
    assert list(initial_state(params, [1.0, 2.0, 3.0]).means) == [5.0, 1.0, 2.0, 3.0]
    # an n+1 vector may carry any value at index 0; it is pinned anyway
    assert initial_state(params, [9.0, 1.0, 2.0, 3.0]).means[0] == 5.0
    with pytest.raises(ValueError):
        initial_state(params, [1.0, 2.0])


def test_initial_precisions():
    params = SystemParams(n=2, tau=4.0, tau0=2.0)
    state = initial_state(params, 0.0)
    assert state.precisions[0] == np.inf
    assert np.allclose(state.precisions[1:], 2.0)  # tau * (tau0/tau)


def test_emit_signals_truth_coordinates():
    params = SystemParams(n=2, truth=3.0, truth_noise=False)
    state = initial_state(params, 0.0)
    batch = emit_signals(state.means, state.ledger, params, run_stream(1))
    assert batch.theta[0] == 3.0
    assert batch.eps[0] == 0.0
    assert batch.a[0] == 3.0

    noisy = SystemParams(n=2, truth=3.0, truth_noise=True)
    batch = emit_signals(state.means, state.ledger, noisy, run_stream(1))
    assert batch.theta[0] == 3.0
    assert batch.eps[0] != 0.0


def test_emit_signals_rejects_dead_ledger():
    params = SystemParams(n=1)
    with pytest.raises(ValueError):
        emit_signals(np.zeros(2), np.array([1.0, 0.0]), params, run_stream(0))


def test_per_agent_matches_matrix_path():
    """The per-agent oracle replays the batched kernel to 1e-12 per entry.

    Each recorded step of run_simulation is fed through step_per_agent
    from the kernel's own state, with the signals emit_signals draws from
    the run's stream.  Summation order differs between the two paths
    (explicit sum vs BLAS), so agreement is to accumulation tolerance,
    not bitwise; the ledger is exact.  At n = 5 the kernel steps by chunk
    gains, every recorded state walked from its chunk's anchor.
    """
    params = SystemParams(n=5, tau=2.0, tau0=3.0, truth=1.0, seed=11)
    assert params.n <= dynamics._GAIN_MAX_N
    sched = make_random_schedule(5, 3, 0.4, seed=11)
    traj = run_simulation(sched, params, 100, x0=np.linspace(-2, 2, 5),
                          record_every=1, run_index=2)
    rng = run_stream(params.seed, 2)
    for t in range(100):
        state = BeliefState(traj.means[t], traj.ledger[t], t, params)
        drawn = emit_signals(state.means, state.ledger, params, rng)
        nxt = step_per_agent(state, sched.arrays_at(t)[0], drawn)
        assert np.max(np.abs(nxt.means - traj.means[t + 1])) <= 1e-12
        assert np.array_equal(nxt.ledger, traj.ledger[t + 1])


def test_no_edges_is_exact_identity():
    """Agents that hear nobody keep their posterior bit for bit."""
    # at ratio 0.1, (p*x)/p rounds away from x for these means; the step
    # (p/p') x + (A sig)/p' keeps them, as p/p' is exactly 1 and the A row
    # adds 0
    params = SystemParams(n=3, tau=10.0, seed=2)
    sched = make_table_schedule(3, [(1, 1, 0)], horizon=2)  # step 0 empty
    traj = run_simulation(sched, params, 2, x0=[0.1, -0.7, 0.7],
                          record_every=1)
    assert np.array_equal(traj.means[1], traj.means[0])
    assert np.array_equal(traj.ledger[1], traj.ledger[0])
    # at step 1 only agent 1 hears; agents 2 and 3 stay put exactly
    assert traj.means[2, 1] != traj.means[1, 1]
    assert np.array_equal(traj.means[2, 2:], traj.means[1, 2:])


def test_final_distribution_is_gaussian():
    """Linear dynamics with Gaussian draws: skewness and excess kurtosis
    of x_T across runs sit inside 3 standard errors of zero."""
    params = SystemParams(n=3, seed=31)
    sched = make_periodic_schedule(3, 2, peer_rule="ring")
    ens = run_ensemble(sched, params, 50, n_runs=5000, x0=2.0,
                       record_times=[50])
    m = 5000
    se_skew, se_kurt = np.sqrt(6.0 / m), np.sqrt(24.0 / m)
    for i in range(1, 4):
        x = ens.means[:, 0, i]
        z = (x - x.mean()) / x.std()
        skew = np.mean(z ** 3)
        exkurt = np.mean(z ** 4) - 3.0
        assert abs(skew) <= 3 * se_skew
        assert abs(exkurt) <= 3 * se_kurt


def test_truth_coordinate_pinned():
    params = SystemParams(n=3, truth=-2.5, seed=4)
    sched = make_periodic_schedule(3, 2, peer_rule="complete")
    traj = run_simulation(sched, params, 50, x0=1.0)
    assert np.all(traj.means[:, 0] == -2.5)


def test_run_simulation_reproducible():
    params = SystemParams(n=3, seed=123)
    sched = make_periodic_schedule(3, 2, peer_rule="ring")
    t1 = run_simulation(sched, params, 200, x0=2.0)
    t2 = run_simulation(sched, params, 200, x0=2.0)
    assert np.array_equal(t1.means, t2.means)
    t3 = run_simulation(sched, params, 200, x0=2.0, run_index=1)
    assert not np.array_equal(t1.means, t3.means)


def test_seed_changes_noise():
    sched = make_periodic_schedule(2, 1)
    a = run_simulation(sched, SystemParams(n=2, seed=1), 50, x0=1.0)
    b = run_simulation(sched, SystemParams(n=2, seed=2), 50, x0=1.0)
    assert not np.array_equal(a.means, b.means)


def test_ledger_matches_schedule_degrees():
    params = SystemParams(n=2, tau=1.0, tau0=3.0, seed=0)
    sched = make_periodic_schedule(2, 2, peer_rule="ring")
    traj = run_simulation(sched, params, 10)
    total = np.zeros(3, dtype=np.int64)
    for t in range(10):
        assert np.array_equal(traj.ledger[t], 3.0 + total)
        total += sched.arrays_at(t)[1]


def test_record_every_and_final_time():
    params = SystemParams(n=1, seed=0)
    sched = make_periodic_schedule(1, 1)
    traj = run_simulation(sched, params, 95, record_every=10)
    assert list(traj.times[:3]) == [0, 10, 20]
    assert traj.times[-1] == 95  # final state always recorded


def test_record_times_subset():
    params = SystemParams(n=1, seed=0)
    sched = make_periodic_schedule(1, 1)
    traj = run_simulation(sched, params, 100, record_times=[0, 7, 99])
    assert list(traj.times) == [0, 7, 99]
    for times in ([101], [-1, 5]):
        with pytest.raises(ValueError, match="^record times must be "
                           "integers and >= 0 and <= 100$"):
            run_simulation(sched, params, 100, record_times=times)


def test_horizon_zero_single_row():
    params = SystemParams(n=2, seed=0)
    sched = make_periodic_schedule(2, 1)
    traj = run_simulation(sched, params, 0, x0=1.5)
    assert traj.times.shape == (1,)
    assert list(traj.means[0]) == [0.0, 1.5, 1.5]


def test_ensemble_members_match_solo_runs():
    """Run r of an ensemble replays run_simulation with run_index=r."""
    params = SystemParams(n=3, seed=21)
    sched = make_periodic_schedule(3, 2, peer_rule="ring")
    ens = run_ensemble(sched, params, 100, n_runs=3, x0=2.0, record_every=10)
    for r in range(3):
        solo = run_simulation(sched, params, 100, x0=2.0, record_every=10,
                              run_index=r)
        assert np.array_equal(ens.means[r], solo.means)
    assert ens.n_runs == 3
    assert np.array_equal(ens.times, solo.times)


def _mixed_table(n=12, horizon=60):
    """A table past _GAIN_MAX_N whose steps mix patterns: a ring plus the
    truth (at most two senders a row), three agents hearing three senders
    each, and nobody hearing (the table's empty pattern)."""
    edges = []
    for t in range(horizon):
        if t % 3 == 0:
            edges += [(t, i, i % n + 1) for i in range(1, n + 1)]
            edges += [(t, i, 0) for i in range(1 + t % 2, n + 1, 2)]
        elif t % 3 == 1:
            edges += [(t, i, j) for i in (1, 2, 3) for j in (0, 4, 4 + i)]
    return make_table_schedule(n, edges, horizon)


def _count_sums(monkeypatch):
    """Count the index sums the per-step kernel takes."""
    calls = []
    inner = dynamics._two_sender_sum
    monkeypatch.setattr(dynamics, "_two_sender_sum",
                        lambda *args: calls.append(1) or inner(*args))
    return calls


_CUT = dynamics._GAIN_MAX_N


@pytest.mark.parametrize("n, rule, budget, n_runs", [
    pytest.param(3, "ring", 64, 4, id="3-ring-64"),
    pytest.param(3, "ring", 24, 4, id="3-ring-24"),
    pytest.param(100, "complete", None, 4, id="100-complete-None"),
    pytest.param(_CUT, "ring", None, 4, id=f"{_CUT}-ring-None"),
    pytest.param(_CUT + 1, "ring", None, 4, id=f"{_CUT + 1}-ring-None"),
    pytest.param(100, "ring", None, 20, id="100-ring-20runs-rule"),
    pytest.param(12, "table", None, 4, id="12-table-rule")])
def test_ensemble_members_match_solo_runs_batched(monkeypatch, n, rule,
                                                  budget, n_runs):
    """Members stay bitwise equal to solo runs when the noise budget is
    below one run's chunk of normals (budgets 64 and 24 at n=3: the runs go
    one per group, each noise window one whole chunk, over the budget) and
    at n=100 with ~100 senders per row, where one matrix-matrix product
    over the runs would round differently from each run's own
    matrix-vector product; at the chunk-gain cutoff n and one past it, on
    either side of the kernel choice; and past it, on a ring at 20 runs
    and a table mixing two- and three-sender patterns, where each pattern
    is summed or multiplied by its senders alone."""
    params = SystemParams(n=n, tau=0.5, seed=21)
    if rule == "table":
        sched = _mixed_table(n)
    else:
        sched = make_periodic_schedule(n, 2, peer_rule=rule)
    solo = [run_simulation(sched, params, 60, x0=2.0, record_every=7,
                           run_index=r).means for r in range(n_runs)]
    if budget is not None:
        monkeypatch.setattr(dynamics, "_NOISE_BUDGET", budget)
    ens = run_ensemble(sched, params, 60, n_runs=n_runs, x0=2.0,
                       record_every=7)
    for r in range(n_runs):
        assert np.array_equal(ens.means[r], solo[r])


def _dense_steps(sched, params, horizon, x0, n_runs):
    """Every run's means at t = 0 .. horizon by the per-step kernel's
    arithmetic with every pattern multiplied as float64:
    sig = (x + g_u / sqrt(tau P_t)) + g_e / sqrt(tau), the truth's g_u
    over an infinite precision and its g_e dropped when it emits no
    noise, then x' = (A_t sig) / P_{t+1} + (P_t / P_{t+1}) x with one
    np.matmul item per run, P ratio + an int64 count."""
    n1 = params.n + 1
    x = np.tile(initial_state(params, x0).means, (n_runs, 1))
    draws = np.array([run_stream(params.seed, r).standard_normal(
        (horizon, 2, n1)) for r in range(n_runs)])
    counts = np.zeros(n1, dtype=np.int64)
    out = [x]
    for t in range(horizon):
        a, deg = sched.arrays_at(t)
        p, p_next = params.ratio + counts, params.ratio + (counts + deg)
        u = draws[:, t, 0] / np.sqrt(dynamics._precisions(p, params.tau))
        e = draws[:, t, 1] * (1.0 / np.sqrt(params.tau))
        if not params.truth_noise:
            e[:, 0] = 0.0
        sig = x + u
        sig += e
        x = np.matmul(a.astype(np.float64), sig[:, :, None])[:, :, 0]
        x /= p_next
        x += (p / p_next) * out[-1]
        counts += deg
        out.append(x)
    return np.array(out).transpose(1, 0, 2)


_DENSE_CASES = {
    # name: (schedule, truth, truth_noise); every row of the first four
    # has at most two senders, the mixed table's some, the others' none
    "ring-n100": (lambda: make_periodic_schedule(100, 3, "ring"), 0.5, True),
    "ring-n100-truth0-quiet": (
        lambda: make_periodic_schedule(100, 3, "ring"), 0.0, False),
    "truth-only-n50": (lambda: make_periodic_schedule(50, 4), 0.5, True),
    "truth-only-n50-quiet": (lambda: make_periodic_schedule(50, 4), 0.5,
                             False),
    "mixed-table-n12": (_mixed_table, 0.5, True),
    "random-n30": (lambda: make_random_schedule(30, 3, 0.1, seed=4), 0.5,
                   True),
    "random-n30-sparse": (lambda: make_random_schedule(30, 3, 0.02, seed=4),
                          0.5, True),
    "complete-n100": (lambda: make_periodic_schedule(100, 3, "complete"),
                      0.5, True),
}


@pytest.mark.parametrize("solo", [True, False])
@pytest.mark.parametrize("case", sorted(_DENSE_CASES))
def test_increment_kernel_is_the_dense_steps(monkeypatch, case, solo):
    """The per-step kernel equals the dense per-step arithmetic bit for bit,
    for one run alone and for 3 together, record times inside and across
    windows; x0 holds -0.0 and +0.0, so states start at both zeros.  The
    index sum runs exactly where a used pattern has at most two senders a
    row, once a step for all runs, whatever their number."""
    make, truth, truth_noise = _DENSE_CASES[case]
    sched = make()
    params = SystemParams(n=sched.n, tau=0.7, tau0=1.3, truth=truth, seed=3,
                          truth_noise=truth_noise)
    assert sched.n > dynamics._GAIN_MAX_N
    horizon, n_runs = 60, 1 if solo else 3
    x0 = np.linspace(-3.0, 3.0, sched.n)
    x0[:2] = -0.0, 0.0
    calls = _count_sums(monkeypatch)
    ens = run_ensemble(sched, params, horizon, n_runs=n_runs, x0=x0,
                       record_every=7)
    want = _dense_steps(sched, params, horizon, x0, n_runs)[:, ens.times]
    assert np.array_equal(ens.means.view(np.uint64), want.view(np.uint64))
    served = [sched.arrays_at(t)[1].max() <= 2 for t in range(horizon)]
    assert len(calls) == sum(served)


def test_two_sender_sum_is_the_product_bit_for_bit():
    """For rows with 0, 1 and 2 senders the index sum equals the float64
    product bit for bit, over every ordered pair (a, b) of signals from
    +-0, subnormals, 1e-300 .. 1e300 and the largest finite value (whose
    sums overflow to inf either way), with a = -b cancellation among
    them: the product's sum starts from +0, so -0 + -0 gives +0."""
    tiny = np.finfo(np.float64).smallest_subnormal
    values = [0.0, -0.0, tiny, -tiny, 3 * tiny, 2.2250738585072014e-308,
              -2.2250738585072014e-308, 1e-300, -1e-300, 0.1, -0.3, 1.0,
              -1.0, 1e300, -1e300, np.finfo(np.float64).max,
              -np.finfo(np.float64).max]
    a, b = (v.ravel() for v in np.meshgrid(values, values))
    sig = np.stack([a, b, -a, -b, 0.5 * a, b], axis=1)
    rows = [(), (5,), (0, 1), (0, 2), (1, 3), (2, 5)]  # senders per row
    stack = np.zeros((1, 6, 6), dtype=bool)
    for i, senders in enumerate(rows):
        stack[0, i, list(senders)] = True
    blk = schedules.Block(0, *schedules._freeze(stack),
                          np.zeros(1, dtype=np.intp))
    (op,) = dynamics._operators(blk, np.arange(1))
    ext = np.zeros((len(sig), 7))
    ext[:, :6] = sig
    with np.errstate(over="ignore"):
        got = dynamics._two_sender_sum(ext, *op)
        want = np.matmul(stack[0].astype(np.float64),
                         sig[:, :, None])[:, :, 0]
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.isinf(want).any() and not np.signbit(want[:, 0]).any()


def test_ledger_exact_at_non_dyadic_ratio():
    """The ledger is ratio + integer receive counts exactly, at a ratio
    tau0/tau = 1/3 whose float running sum would drift."""
    params = SystemParams(n=4, tau=3.0, tau0=1.0, seed=9)
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    traj = run_simulation(sched, params, 3000, x0=2.0, record_every=1)
    counts = np.cumsum([sched.arrays_at(t)[1] for t in range(3000)], axis=0)
    assert np.array_equal(traj.ledger[1:], params.ratio + counts)


_TALLY_SCHEDULES = {
    "ring-n4": lambda: make_periodic_schedule(4, 3, peer_rule="ring"),
    "mixed-table-n12": _mixed_table,
    "ring-n100": lambda: make_periodic_schedule(100, 3, peer_rule="ring"),
    # horizon 400 passes its 190-step compiled-block cut
    "random-n100": lambda: make_random_schedule(100, 3, 0.03, seed=5),
}


@pytest.mark.parametrize("record", ["horizon-0", "first", "last", "every"])
@pytest.mark.parametrize("kind", list(_TALLY_SCHEDULES))
def test_recorded_ledger_is_the_degree_tally(kind, record):
    """A run's recorded ledger is ratio + the cumulative arrays_at degrees
    at its record times, on both noisy kernels, at horizon 0, at {0},
    at {horizon} and at every step; so is ledger_for_times at those
    times repeated and shuffled."""
    sched = _TALLY_SCHEDULES[kind]()
    horizon = 0 if record == "horizon-0" else (sched.horizon or 400)
    params = SystemParams(n=sched.n, tau=3.0, tau0=1.0, seed=4)
    times = {"horizon-0": [0], "first": [0], "last": [horizon],
             "every": np.arange(horizon + 1)}[record]
    traj = run_simulation(sched, params, horizon, x0=2.0, record_times=times)
    counts = np.zeros((horizon + 1, sched.n + 1), dtype=np.int64)
    for t in range(horizon):
        counts[t + 1] = counts[t] + sched.arrays_at(t)[1]
    assert np.array_equal(traj.ledger, params.ratio + counts[times])
    shuffled = np.random.default_rng(0).permutation(np.repeat(times, 2))
    assert np.array_equal(ledger_for_times(sched, params, shuffled),
                          params.ratio + counts[shuffled])


_HUGE = 1.7e308  # a finite value whose two-signal sums overflow


@pytest.mark.parametrize("n", [30, 100])
@pytest.mark.parametrize("entry", ["ensemble", "simulation", "expected"])
def test_overflowing_means_raise(n, entry):
    """Finite inputs whose step sums overflow raise FloatingPointError,
    naming the first time, where an ensemble member and its solo run fail
    alike, rather than returning inf or NaN means."""
    sched = make_periodic_schedule(n, 3, peer_rule="ring")
    params = SystemParams(n=n, truth=_HUGE, seed=3)
    run = {"ensemble": partial(run_ensemble, n_runs=20),
           "simulation": run_simulation,
           "expected": expected.run_expected}[entry]
    with pytest.raises(FloatingPointError, match="not finite at t = 1"
                       ) as caught, np.errstate(all="ignore"):
        run(sched, params, 30, x0=_HUGE)
    if entry != "expected":
        assert str(caught.value) == "run 0 is not finite at t = 1, agent 3"


def test_truth_far_from_the_means_raises_at_zero():
    """|x0 - truth| overflows at t = 0 even though both are finite."""
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, truth=-_HUGE)
    with pytest.raises(FloatingPointError, match="at t = 0$"), \
            np.errstate(all="ignore"):
        expected.run_expected(sched, params, 10, x0=_HUGE)


def test_convex_gain_kernel_stays_finite_near_the_largest_float():
    """At n = 4 the gain kernel and the stack scan form convex
    combinations W x, so the overflowing case above stays finite."""
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, truth=_HUGE, seed=3)
    for result in (run_ensemble(sched, params, 30, 20, x0=_HUGE),
                   run_simulation(sched, params, 30, x0=_HUGE),
                   expected.run_expected(sched, params, 30, x0=_HUGE)):
        assert np.isfinite(result.means).all()


def _force_split(monkeypatch, workers):
    """Split every ensemble over `workers` processes whatever its work;
    count the forks this process makes."""
    forks, fork = [], os.fork
    monkeypatch.setattr(dynamics, "_SPLIT_MIN", 0)
    monkeypatch.setattr(dynamics, "_workers", lambda: workers)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_SPLIT_CASES = {
    "gain-n4": lambda: make_periodic_schedule(4, 3, peer_rule="ring"),
    "two-sender-n100": lambda: make_periodic_schedule(100, 3,
                                                      peer_rule="ring"),
    "dense-random-n30": lambda: make_random_schedule(30, 3, 0.1, seed=8),
}


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("record", [{"record_every": 1},
                                    {"record_times": [0, 7, 30, 59]},
                                    {"record_times": [60]}],
                         ids=["every", "few", "horizon"])
@pytest.mark.parametrize("n_runs", [5, 7])
@pytest.mark.parametrize("case", list(_SPLIT_CASES))
def test_split_ensemble_is_the_serial_one(monkeypatch, case, n_runs, record,
                                          workers):
    """Runs split over forked processes give the serial run's means and
    ledger bit for bit, on the gain kernel and on both per-step paths,
    for every record set and odd run counts; no child outlives the call."""
    sched = _SPLIT_CASES[case]()
    params = SystemParams(n=sched.n, tau=0.5, seed=27)
    serial = run_ensemble(sched, params, 60, n_runs, x0=2.0, **record)
    forks = _force_split(monkeypatch, workers)
    split = run_ensemble(sched, params, 60, n_runs, x0=2.0, **record)
    assert len(forks) == workers - 1
    _no_child_left()
    assert np.array_equal(split.means, serial.means)
    assert np.array_equal(split.ledger, serial.ledger)


@pytest.mark.parametrize("case", list(_SPLIT_CASES))
def test_split_with_no_records_is_the_serial_one(monkeypatch, case):
    """An ensemble past the threshold with no record time has nothing to
    send back, so it does not fork and returns the serial run's empty
    means and ledger."""
    sched = _SPLIT_CASES[case]()
    params = SystemParams(n=sched.n, seed=27)
    serial = run_ensemble(sched, params, 60, 5, x0=2.0, record_times=[])
    forks = _force_split(monkeypatch, 2)
    split = run_ensemble(sched, params, 60, 5, x0=2.0, record_times=[])
    assert forks == []
    assert split.means.shape == serial.means.shape == (5, 0, sched.n + 1)
    assert np.array_equal(split.ledger, serial.ledger)


def test_split_members_are_their_solo_runs(monkeypatch):
    sched = make_periodic_schedule(100, 3, peer_rule="ring")
    params = SystemParams(n=100, seed=27)
    forks = _force_split(monkeypatch, 3)
    ens = run_ensemble(sched, params, 40, 7, x0=2.0, record_every=9)
    assert len(forks) == 2
    for r in range(7):
        assert np.array_equal(ens.means[r], run_simulation(
            sched, params, 40, x0=2.0, record_every=9, run_index=r).means)


def test_overflow_names_one_agent_whatever_the_worker_count(monkeypatch):
    """Signals that overflow to inf are summed by index, never multiplied
    into NaN (0 * inf), whatever the run count: a run split over two
    workers, stepped with its 19 fellows in one process, or alone first
    fails at the same time and agent."""
    sched = make_periodic_schedule(30, 3, peer_rule="ring")
    params = SystemParams(n=30, truth=_HUGE, seed=3)
    kwargs = {"x0": _HUGE, "record_times": [0, 2000]}
    texts = []
    with np.errstate(all="ignore"):
        with monkeypatch.context() as serial:
            serial.setattr(dynamics, "_SPLIT_MIN", 2 ** 62)
            with pytest.raises(FloatingPointError) as caught:
                run_ensemble(sched, params, 2000, 20, **kwargs)
            texts.append(str(caught.value))
        with pytest.raises(FloatingPointError) as caught:
            run_simulation(sched, params, 2000, run_index=0, **kwargs)
        texts.append(str(caught.value))
        forks = _force_split(monkeypatch, 2)
        with pytest.raises(FloatingPointError) as caught:
            run_ensemble(sched, params, 2000, 20, **kwargs)
        texts.append(str(caught.value))
    assert len(forks) == 1
    _no_child_left()
    assert texts == ["run 0 is not finite at t = 2000, agent 1"] * 3


def _refuse_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("case", ["under-threshold", "one-run", "one-cpu",
                                  "second-thread"])
def test_split_falls_back_to_one_process(monkeypatch, case):
    """Nothing forks for work under _SPLIT_MIN (the 40-run n = 4 ensemble
    of the benchmark, 0.2M), for one run, on one CPU, or while a second
    thread is alive."""
    sched = make_periodic_schedule(4, 3, peer_rule="ring")
    params = SystemParams(n=4, seed=27)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(dynamics, "_workers",
                        lambda: 1 if case == "one-cpu" else 2)
    if case != "under-threshold":
        monkeypatch.setattr(dynamics, "_SPLIT_MIN", 0)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait, args=(60,))
    if case == "second-thread":
        waiter.start()
    try:
        run_ensemble(sched, params, 1000, 1 if case == "one-run" else 40,
                     x0=2.0, record_times=[0, 10, 100, 316, 1000])
    finally:
        stop.set()
        if case == "second-thread":
            waiter.join(timeout=60)
            assert not waiter.is_alive()


def _after_kernels(monkeypatch, act, children_only=True):
    """Wrap both kernels so that act(out) follows each call: in a forked
    child only, where children_only, so not in the parent's group."""
    parent = os.getpid()
    for name in ("_gain_steps", "_increment_steps"):
        def wrapped(*args, _inner=getattr(dynamics, name)):
            _inner(*args)
            if not children_only or os.getpid() != parent:
                act(args[-1])
        monkeypatch.setattr(dynamics, name, wrapped)


def _fail(out):
    raise RuntimeError("a run group failed")


def test_failing_child_raises_after_every_child_is_reaped(monkeypatch):
    sched = make_periodic_schedule(100, 3, peer_rule="ring")
    params = SystemParams(n=100, seed=27)
    _force_split(monkeypatch, 3)
    _after_kernels(monkeypatch, _fail)
    with pytest.raises(ChildProcessError) as caught:
        run_ensemble(sched, params, 20, 6, x0=2.0)
    _no_child_left()
    assert str(caught.value) == ("2 of 2 forked run groups failed, the "
                                 "first with RuntimeError: a run group failed")


@pytest.mark.parametrize("n", [4, 100])
def test_non_finite_record_in_a_child_raises_the_serial_error(monkeypatch,
                                                             n):
    """The finiteness check reads the joined means in this process, so a
    non-finite record of a child's last run names it as the serial run
    does."""
    sched = make_periodic_schedule(n, 3, peer_rule="ring")
    params = SystemParams(n=n, seed=27)

    def poison(out):
        out[-1, -1, -1] = np.nan

    with monkeypatch.context() as serial:
        _after_kernels(serial, poison, children_only=False)
        with pytest.raises(FloatingPointError) as alone:
            run_ensemble(sched, params, 20, 5, x0=2.0)
    _force_split(monkeypatch, 2)
    _after_kernels(monkeypatch, poison)
    with pytest.raises(FloatingPointError) as caught:
        run_ensemble(sched, params, 20, 5, x0=2.0)
    _no_child_left()
    assert str(caught.value) == str(alone.value) == \
        f"run 4 is not finite at t = 20, agent {n}"


@pytest.mark.parametrize("field", ["tau", "tau0", "truth"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        SystemParams(n=2, **{field: value})


@pytest.mark.parametrize("field, value", [("tau", np.nan), ("tau0", np.nan),
                                          ("tau", 0.0), ("tau0", -1.0),
                                          ("truth", np.inf)])
def test_params_errors_name_their_field(field, value):
    """Each real field goes by _real's rule and its message names it:
    tau0 = nan read "tau, tau0 and truth must be finite"."""
    with pytest.raises(ValueError, match="^%s must be finite" % field):
        SystemParams(n=2, **{field: value})


def test_whole_float_seed_past_int64_is_exact():
    """A whole float seed is taken by int(), not through an int64 cast that
    wrapped 1e19 with a RuntimeWarning; an int past 2^64 passes as it is."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SystemParams(n=2, seed=1e19).seed == 10 ** 19
        assert SystemParams(n=2, seed=2 ** 64 + 3).seed == 2 ** 64 + 3
        assert make_periodic_schedule(2, 3, horizon=1e19).horizon == 10 ** 19


def test_initial_state_broadcasts_one_value():
    params = SystemParams(n=3, truth=0.5)
    want = initial_state(params, 2.0).means
    assert list(want) == [0.5, 2.0, 2.0, 2.0]
    for x0 in ([2.0], np.array([2.0]), (2,)):
        assert np.array_equal(initial_state(params, x0).means, want)
    with pytest.raises(ValueError, match="x0"):
        initial_state(params, [1.0, 2.0])


def test_params_take_n_as_an_integer():
    """n goes by _integral's rule: 3.0 is 3, and the mean process runs."""
    params = SystemParams(n=3.0)
    assert type(params.n) is int and params == SystemParams(n=3)
    expected.run_expected(make_periodic_schedule(3, 2), params, 4)
    for n in (2.5, np.nan):
        with pytest.raises(ValueError):
            SystemParams(n=n)


@pytest.mark.parametrize("x0", [np.nan, [1.0, np.inf], [0.0, 1.0, np.nan]])
def test_initial_state_rejects_non_finite_x0(x0):
    with pytest.raises(ValueError, match="finite"):
        initial_state(SystemParams(n=2), x0)


def test_ensemble_runs_are_independent():
    params = SystemParams(n=2, seed=8)
    sched = make_periodic_schedule(2, 1)
    ens = run_ensemble(sched, params, 50, n_runs=4, x0=1.0)
    finals = ens.means[:, -1, 1]
    assert len(set(finals.tolist())) == 4


def test_ensemble_rejects_empty():
    sched = make_periodic_schedule(2, 1)
    with pytest.raises(ValueError):
        run_ensemble(sched, SystemParams(n=2), 10, n_runs=0)


def test_noise_shrinks_with_accumulated_precision():
    """Late-time steps move beliefs far less than early ones."""
    params = SystemParams(n=1, seed=15)
    sched = make_periodic_schedule(1, 1)
    traj = run_simulation(sched, params, 2000, x0=2.0)
    early = np.abs(np.diff(traj.means[1:20, 1]))
    late = np.abs(np.diff(traj.means[-20:, 1]))
    assert late.max() < early.max() / 10


@pytest.mark.parametrize("kwargs", [{"record_times": [3.7]},
                                    {"record_times": [np.nan]},
                                    {"record_every": 2.5},
                                    {"record_every": np.inf}])
def test_fractional_or_non_finite_record_times_are_rejected(kwargs):
    sched = make_periodic_schedule(2, 1)
    with pytest.raises(ValueError, match="integers"):
        run_simulation(sched, SystemParams(n=2), 10, **kwargs)


@pytest.mark.parametrize("n_runs", [2.5, np.nan, np.inf])
def test_fractional_or_non_finite_run_count_is_rejected(n_runs):
    sched = make_periodic_schedule(2, 1)
    with pytest.raises(ValueError, match="integers"):
        run_ensemble(sched, SystemParams(n=2), 10, n_runs=n_runs)


def test_integral_floats_count_as_integers():
    params = SystemParams(n=2, seed=6)
    sched = make_periodic_schedule(2, 1)
    ints = run_ensemble(sched, params, 40, n_runs=2, record_times=[3, 17])
    floats = run_ensemble(sched, params, 40, n_runs=2.0,
                          record_times=[3.0, 17.0])
    assert floats.n_runs == 2 and list(floats.times) == [3, 17]
    assert np.array_equal(floats.means, ints.means)
    every = run_simulation(sched, params, 40, record_every=2.0)
    assert np.array_equal(every.times, np.arange(0, 41, 2))
    # a horizon of 3.0 is 3 at every run entry
    for run in (lambda h: expected.run_expected(sched, params, h),
                lambda h: run_simulation(sched, params, h),
                lambda h: run_ensemble(sched, params, h, n_runs=2)):
        a, b = run(3.0), run(3)
        assert list(a.times) == [0, 1, 2, 3]
        assert np.array_equal(a.means, b.means)


def test_run_index_is_a_count():
    """run_index goes by the count rule: 3.0 runs stream 3, and -1 and
    2.5 are errors naming run_index."""
    params = SystemParams(n=2, seed=6)
    sched = make_periodic_schedule(2, 1)
    ints = run_simulation(sched, params, 20, run_index=3)
    floats = run_simulation(sched, params, 20, run_index=3.0)
    assert type(floats.run_index) is int and floats.run_index == 3
    assert np.array_equal(floats.means, ints.means)
    for bad in (-1, 2.5):
        with pytest.raises(ValueError, match="run_index"):
            run_simulation(sched, params, 20, run_index=bad)


@pytest.mark.parametrize("run", [run_simulation,
                                 partial(run_ensemble, n_runs=2)],
                         ids=["simulation", "ensemble"])
def test_record_every_and_record_times_are_exclusive(run):
    """Both record arguments at once is an error, as in a config file."""
    sched = make_periodic_schedule(2, 1)
    with pytest.raises(ValueError, match="exclusive"):
        run(sched, SystemParams(n=2), 20, record_every=10, record_times=[5])


def _exact_variances(sched, params, horizon):
    """Diagonals of the exact deviation covariance at t = 0 .. horizon.

    Walks Sigma_{t+1} = W_t Sigma_t W_t^T + N_t Q_t N_t^T from the
    schedule's arrays, with W_t = (P_t + A_t) / P_{t+1}, N_t = A_t / P_{t+1}
    and Q_t = diag(1/(tau P_t) + 1/tau), whose truth entry is 1/tau, or 0
    when the truth emits no noise.
    """
    ledger = np.full(params.n + 1, params.ratio)
    sigma = np.zeros((params.n + 1, params.n + 1))
    out = [np.diag(sigma).copy()]
    for t in range(horizon):
        a, deg = sched.arrays_at(t)
        after = ledger + deg
        w = (np.diag(ledger) + a) / after[:, None]
        mix = a / after[:, None]
        q = 1.0 / (params.tau * ledger) + 1.0 / params.tau
        q[0] = 1.0 / params.tau if params.truth_noise else 0.0
        sigma = w @ sigma @ w.T + (mix * q) @ mix.T
        ledger = after
        out.append(np.diag(sigma).copy())
    return np.array(out)


@pytest.mark.parametrize("truth_noise", [True, False])
def test_ensemble_variance_matches_exact_covariance(truth_noise):
    """Each agent's sample variance over 4000 runs sits within 5 standard
    errors, sigma^2 sqrt(2/(M-1)), of the exact variance at 3 times: a
    wrong noise scale in the gains shows here, where the mean checks and
    members == solo cannot see it."""
    params = SystemParams(n=3, tau=3.0, tau0=1.0, seed=41,
                          truth_noise=truth_noise)
    sched = make_periodic_schedule(3, 3, peer_rule="ring")
    times, m = [5, 20, 60], 4000
    ens = run_ensemble(sched, params, 60, n_runs=m, x0=1.5,
                       record_times=times)
    exact = _exact_variances(sched, params, 60)[times, 1:]
    sample = ens.means[:, :, 1:].var(axis=0, ddof=1)
    assert np.all(np.abs(sample - exact) <= 5 * exact * np.sqrt(2 / (m - 1)))


def _narrow_schedule(kind, n=dynamics._GAIN_MAX_N):
    if kind == "periodic":
        return make_periodic_schedule(n, 3, peer_rule="ring")
    return make_random_schedule(n, 3, 0.5, seed=7)


def _outputs(sched, params, horizon=450):
    ens = run_ensemble(sched, params, horizon, n_runs=5, x0=2.0,
                       record_every=7)
    solo = run_simulation(sched, params, horizon, x0=2.0, record_every=1,
                          run_index=1)
    return ens.means, ens.ledger, solo.means, solo.ledger


@pytest.mark.parametrize("n", [4, dynamics._GAIN_MAX_N])
@pytest.mark.parametrize("kind", ["periodic", "random"])
def test_gain_path_ignores_block_cuts(monkeypatch, kind, n):
    """Compiled blocks of 100 steps, not a multiple of the chunk length,
    give bitwise the runs of the default blocks: a chunk that crosses a
    block boundary is carried across it."""
    params = SystemParams(n=n, tau=3.0, tau0=1.0, seed=5)
    default = _outputs(_narrow_schedule(kind, n), params)
    monkeypatch.setattr(schedules, "_BLOCK_STEPS", 100)
    sched = _narrow_schedule(kind, n)
    cut = _outputs(sched, params)
    assert sched.compiled.steps == 100
    for x, y in zip(default, cut):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("budget", [24, 64, "two-run groups",
                                    "multi-chunk windows"])
def test_gain_path_ignores_noise_budget(monkeypatch, budget):
    """Runs one per group (24, 64: below one chunk of normals), two per
    group with a short last group, and five per group over windows of
    three chunks give bitwise the runs of the default budget."""
    n = dynamics._GAIN_MAX_N
    params = SystemParams(n=n, tau=3.0, tau0=1.0, seed=5, truth_noise=False)
    sched = _narrow_schedule("random")
    default = _outputs(sched, params, 300)
    c = schedules._chunk_steps(n)
    span = 2 * (n + 1) * c  # one run's normals in one chunk
    if budget == "two-run groups":
        budget = 2 * span + 1
    elif budget == "multi-chunk windows":
        budget = 3 * (n + 1) * span
    monkeypatch.setattr(dynamics, "_NOISE_BUDGET", budget)
    for x, y in zip(default, _outputs(sched, params, 300)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("t", [64, 77])
def test_gain_path_ignores_record_set_and_horizon(t):
    """x_t recorded alone, with every step, and at horizons t and t + 37 is
    bitwise the same, at an anchor time and inside a chunk."""
    params = SystemParams(n=dynamics._GAIN_MAX_N, tau=2.0, seed=13)
    sched = _narrow_schedule("periodic")
    seen = []
    for horizon in (t, t + 37):
        for kwargs in ({"record_times": [t]}, {"record_every": 1}):
            traj = run_simulation(sched, params, horizon, x0=1.0,
                                  run_index=2, **kwargs)
            seen.append(traj.means[list(traj.times).index(t)])
            ens = run_ensemble(sched, params, horizon, n_runs=3, x0=1.0,
                               **kwargs)
            seen.append(ens.means[2, list(ens.times).index(t)])
    for x in seen[1:]:
        assert np.array_equal(x, seen[0])


@pytest.mark.parametrize("seed", [1.5, np.nan, np.inf, -1])
def test_params_reject_bad_seed(seed):
    """A seed is a nonnegative integer: 1.5 is not run as seed 1."""
    with pytest.raises(ValueError):
        SystemParams(n=2, seed=seed)


@pytest.mark.parametrize("run_index", [0, 5, 2 ** 32])
@pytest.mark.parametrize("seed", [0, 2 ** 32, 2 ** 64 + 3])
def test_run_stream_is_numpy_stream(seed, run_index):
    """A run draws from numpy's SeedSequence([seed, 201, r]) stream."""
    ref = np.random.default_rng(np.random.SeedSequence([seed, 201, run_index]))
    assert np.array_equal(run_stream(seed, run_index).standard_normal(64),
                          ref.standard_normal(64))


def test_integral_float_seed_is_that_seed():
    sched = make_periodic_schedule(2, 3, peer_rule="ring")
    a = run_simulation(sched, SystemParams(n=2, seed=3.0), 20, x0=1.0)
    b = run_simulation(sched, SystemParams(n=2, seed=3), 20, x0=1.0)
    assert np.array_equal(a.means, b.means)


def _noisy_longdouble_replay(sched, params, horizon, x0, n_runs):
    """Every run's means at t = 0 .. horizon in np.longdouble, from edges_at
    alone and the normals run_stream draws, two rows of n+1 a step:
    sig = x + g_u / sqrt(tau P_t) + g_e / sqrt(tau), the truth's sample
    the truth itself and its noise dropped when it emits none, then
    x_i' = (P_i x_i + sum of received sig) / P_i', each P ratio + an exact
    integer count."""
    ld, n1 = np.longdouble, params.n + 1
    tau, ratio = ld(params.tau), ld(params.ratio)
    x = np.tile(initial_state(params, x0).means.astype(ld), (n_runs, 1))
    draws = np.array([run_stream(params.seed, r).standard_normal(
        (horizon, 2, n1)) for r in range(n_runs)]).astype(ld)
    counts = np.zeros(n1, dtype=np.int64)
    out = [x]
    for t in range(horizon):
        a = np.zeros((n1, n1), dtype=ld)
        for i, j in sched.edges_at(t):
            a[i, j] = 1
        p = ratio + counts.astype(ld)
        u = draws[:, t, 0] / np.sqrt(tau * p)
        u[:, 0] = 0
        e = draws[:, t, 1] / np.sqrt(tau)
        if not params.truth_noise:
            e[:, 0] = 0
        deg = np.count_nonzero(a, axis=1)
        x = (p * x + (x + u + e) @ a.T) / (ratio + (counts + deg).astype(ld))
        counts += deg
        out.append(x)
    return np.array(out).transpose(1, 0, 2)


_NOISY_ORACLE_CASES = {
    # name: (schedule, n, horizon); all at ratio 1/3, 3 runs
    "gains-ring-n4": (lambda: make_periodic_schedule(4, 3, "ring"), 10_000),
    "gains-random-n8": (lambda: make_random_schedule(8, 3, 0.3, seed=5), 5000),
    "per-step-random-n30": (lambda: make_random_schedule(30, 3, 0.1, seed=8),
                            2000),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("case", sorted(_NOISY_ORACLE_CASES))
def test_noisy_kernels_error_against_longdouble_replay(case):
    """Both noisy kernels stay within 5e-14 of a long-double replay of the
    same draws, like the mean process: the chunk gains at n = 4 and 8,
    the per-step kernel past _GAIN_MAX_N."""
    make, horizon = _NOISY_ORACLE_CASES[case]
    sched = make()
    params = SystemParams(n=sched.n, tau=3.0, tau0=1.0, truth=0.5, seed=23)
    assert (sched.n <= dynamics._GAIN_MAX_N) == case.startswith("gains")
    x0 = np.linspace(-1.0, 2.5, sched.n)
    ens = run_ensemble(sched, params, horizon, n_runs=3, x0=x0,
                       record_every=5)
    exact = _noisy_longdouble_replay(sched, params, horizon, x0, 3)
    assert float(np.max(np.abs(ens.means - exact[:, ens.times]))) <= 5e-14

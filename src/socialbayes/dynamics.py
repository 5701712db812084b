"""Stochastic belief dynamics for memoryless Gaussian agents.

Each learning agent i holds a Gaussian belief N(x_i, 1/precision_i); the truth
agent (index 0) holds a point mass at the truth value.  At every step each
agent with outgoing edges samples one value from its own belief, adds
observation noise of variance 1/tau, and sends the same signal to all
listeners.  The two normals reach a listener only through their sum, so
a signal is drawn as x_i plus one standard normal scaled by _signal_sd,
sqrt(1/(tau P_i) + 1/tau): the same joint law from n+1 normals a step.
A receiver conjugates its Gaussian with the incoming signals, which
keeps beliefs Gaussian and gives the closed-form update

    mean'      = (precision * mean + tau * sum(signals)) / (precision + k*tau)
    precision' = precision + k*tau

for k received signals.  Precisions are therefore schedule-determined: we
track them as ledger values tau0/tau + (integer signal counts) and scale by
tau on demand, so incremental and from-scratch accounting agree exactly.
The kernels write means only: a run's recorded ledger is read once from
the schedule by ledger_for_times, which written tables read too, and a
run whose recorded means overflow raises FloatingPointError.

With the signals' raw normals g, the step is linear:
x_{t+1} = W_t x_t + N_t g_t, W_t the mean process's stochastic matrix and
N_t = (A_t / P_{t+1}) diag(_signal_sd).  For narrow n the runs therefore
step by chunks of steps: a chunk's end state is one matrix-vector product
of a gain shared by every run with the run's start state and normals, the
gains built from the W stacks of schedules._stacks.  Past that cutoff
they step one at a time, each pattern summed by index for all runs at
once where no row has more than two senders (a ring plus the truth, or
the truth alone), else multiplied run by run (_increment_steps).  So a
run's arithmetic, inf and NaN included, is its own whatever the run
count, and an ensemble member is bit for bit the run it would be alone.
Run r draws from numpy's SeedSequence([seed, 201, r]) stream,
run_stream's, whether it runs alone or in an ensemble, so a large
ensemble splits its runs into contiguous groups stepped in forked
processes (_split), still bit for bit whatever the number of workers.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass

import numpy as np

from .schedules import (Block, GraphSchedule, _chunk_steps, _count,
                        _float_windows, _integral, _real, _stacks)

# Stream tag for per-run dynamics generators; schedules use their own tags.
_TAG_RUN = 201

# Noise is drawn in windows of steps holding at most _NOISE_BUDGET standard
# normals (512 KiB) over the runs drawn together, so memory stays flat in
# the number of runs and the horizon.  The chunk-gain kernel draws for a
# group of runs at a time, each stream filling whole chunks per call, so
# many runs do not shrink a window to a few steps.
_NOISE_BUDGET = 2 ** 16

# The runs step by chunk gains while n <= _GAIN_MAX_N, past it one step at
# a time.  Measured per call on rings at M = 1, 2, 40 and 2000 runs with
# records every step, every 5 and at 5 times (CHANGES.md): the gains won
# every case up to n = 8 and lost with dense records at n = 16.
_GAIN_MAX_N = 8

# An ensemble splits its runs over forked processes where its work, runs *
# horizon * (n + 1), is at least _SPLIT_MIN.  Measured on 2 CPUs against
# one process, on rings at n = 4 and 100 and a random n = 30 (CHANGES.md):
# the split lost at 0.1-0.2M on every shape and was mixed from 0.3M to 1M
# (at 1.01M the n = 100 ring tied, 0.99 and 1.07); from 1.2M on it won
# 1.3-1.6x on every shape, forking costing a few ms against tens of ms.
# Re-timed on the rings with one normal per signal, half the draws a run:
# mixed at 0.5-1M, and from 1.5M on it won 1.2-1.5x.
_SPLIT_MIN = 1_000_000

# Bytes of a failed child's error text in _split's shared map.
_NOTE = 256


def run_stream(seed: int, run_index: int = 0) -> np.random.Generator:
    """Dynamics stream for one run, numpy's SeedSequence([seed, 201,
    run_index]): the one definition, so distinct runs never share draws."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _TAG_RUN, int(run_index)]))


@dataclass(frozen=True)
class SystemParams:
    """Model constants: agent count, noise scales, truth, master seed.

    tau is the observation precision (1/sigma^2), tau0 the shared prior
    precision.  truth_noise controls whether the truth agent's emitted signal
    carries observation noise like everyone else's; the mean process is
    unaffected either way.  n and seed go by schedules._count's rule (3.0
    is 3, 2.5 a ValueError), tau, tau0 (both > 0) and truth by _real's.
    """

    n: int
    tau: float = 1.0
    tau0: float = 1.0
    truth: float = 0.0
    seed: int = 0
    truth_noise: bool = True

    def __post_init__(self):
        for key, value in (("n", _count(self.n, "n")),
                           ("seed", _count(self.seed, "seed", 0)),
                           ("tau", _real(self.tau, "tau", 0, strict=True)),
                           ("tau0", _real(self.tau0, "tau0", 0, strict=True)),
                           ("truth", _real(self.truth, "truth"))):
            object.__setattr__(self, key, value)

    @property
    def ratio(self) -> float:
        return self.tau0 / self.tau


@dataclass(frozen=True)
class BeliefState:
    """Belief means and precision ledger at one time.

    means[0] is pinned to the truth value.  ledger[i] = tau0/tau + number of
    signals agent i has received so far; actual precisions are tau * ledger
    for i >= 1 and infinite for the truth agent.
    """

    means: np.ndarray
    ledger: np.ndarray
    t: int
    params: SystemParams

    @property
    def precisions(self) -> np.ndarray:
        return _precisions(self.ledger, self.params.tau)


def _precisions(ledger: np.ndarray, tau: float) -> np.ndarray:
    """tau * ledger along the last axis, with the truth's entry inf."""
    p = tau * np.asarray(ledger, dtype=np.float64)
    p[..., 0] = np.inf  # point mass at the truth
    return p


def ledger_for_times(schedule: GraphSchedule, params: SystemParams,
                     times) -> np.ndarray:
    """Ledger rows at the requested times, the one producer of a recorded
    ledger, for runs and written tables alike.

    Each row is ratio + (int64 receive count), from Block.ledger of the
    schedule's compiled blocks below the latest time, in one pass; times
    go by _integral's rule, at least 0.
    """
    times = _integral(times, "ledger times", 0)
    out = np.full((len(times), params.n + 1), params.ratio)
    for blk in schedule.compiled.blocks(0, int(times.max(initial=0))):
        before = blk.ledger(params.ratio)[0]
        inside = (times >= blk.start) & (times < blk.start + len(before))
        out[inside] = before[times[inside] - blk.start]
    return out


def initial_state(params: SystemParams, x0=None) -> BeliefState:
    """State at t=0: prior ledger, means x0 by _real's rule, one value
    broadcast or n values, or n+1 whose first, the truth's, is ignored."""
    m = np.full(params.n + 1, params.truth)
    if x0 is not None:
        x0 = _real(x0, "x0")
        if np.size(x0) == params.n + 1:
            m[1:] = x0[1:]
        elif np.size(x0) in (1, params.n):
            m[1:] = x0
        else:
            raise ValueError("x0 must have 1, n or n+1 values")
    ledger = np.full(params.n + 1, params.ratio)
    return BeliefState(m, ledger, 0, params)


def _signal_sd(ledger: np.ndarray, params: SystemParams) -> np.ndarray:
    """The one noise law: each agent's signal sd about its mean along the
    last axis, sqrt(1/(tau P) + 1/tau), its belief sample's variance plus
    the observation noise's.  The truth's sample is the truth itself
    (P = inf), so its entry is 1/sqrt(tau), or 0 when truth_noise is off."""
    sd = np.sqrt(1.0 / _precisions(ledger, params.tau) + 1.0 / params.tau)
    if not params.truth_noise:
        sd[..., 0] = 0.0
    return sd


def emit_signals(means: np.ndarray, ledger: np.ndarray, params: SystemParams,
                 rng: np.random.Generator) -> np.ndarray:
    """Every agent's outgoing signal for one step: mean_i plus one standard
    normal per agent scaled by _signal_sd, a sample of N(mean_i,
    1/(tau*ledger_i)) plus N(0, 1/tau) observation noise.  The truth
    agent's signal is the truth plus that noise, or the truth exactly when
    truth_noise is off.
    """
    if np.any(ledger[1:] <= 0):
        raise ValueError("ledger entries must be positive")
    return means + rng.standard_normal(means.size) * _signal_sd(ledger, params)


def update_agent(mean: float, precision: float, signals, tau: float):
    """Conjugate Gaussian update of one agent for its received signals.

    Returns (mean', precision').  With no signals the belief is unchanged.
    """
    signals = np.atleast_1d(np.asarray(signals, dtype=np.float64))
    k = signals.size
    new_precision = precision + k * tau
    new_mean = (precision * mean + tau * signals.sum()) / new_precision
    return float(new_mean), float(new_precision)


def step_per_agent(state: BeliefState, adjacency: np.ndarray,
                   signals: np.ndarray) -> BeliefState:
    """Reference path: apply update_agent to each receiver separately, for
    one step's signals as emit_signals draws them."""
    params = state.params
    means = state.means.copy()
    ledger = state.ledger.copy()
    for i in range(1, params.n + 1):
        senders = np.flatnonzero(adjacency[i])
        if senders.size == 0:
            continue
        mean, _ = update_agent(means[i], params.tau * ledger[i],
                               signals[senders], params.tau)
        means[i] = mean
        ledger[i] += senders.size
    return BeliefState(means, ledger, state.t + 1, params)


@dataclass(frozen=True)
class Trajectory:
    """Recorded run: means and precision ledger at the requested times."""

    times: np.ndarray            # (K,)
    means: np.ndarray            # (K, n+1)
    ledger: np.ndarray           # (K, n+1), schedule-determined
    params: SystemParams
    run_index: int = 0

    @property
    def precisions(self) -> np.ndarray:
        return _precisions(self.ledger, self.params.tau)


def _record_times(horizon: int, record_every, record_times) -> np.ndarray:
    """Sorted record times, the one rule for runs and written tables.

    Every record_every-th step plus the horizon, or the given times;
    ValueError for both arguments at once, for a time outside
    [0, horizon] and for a time or step that is not an integer (an
    integral float such as 3.0 is one).
    """
    if record_times is not None:
        if record_every is not None:
            raise ValueError("record_every and record_times are exclusive")
        return np.unique(_integral(record_times, "record times", 0, horizon))
    step = 1 if record_every is None else _count(record_every, "record_every")
    times = np.arange(0, horizon + 1, step, dtype=np.int64)
    if times.size == 0 or times[-1] != horizon:
        times = np.append(times, horizon)
    return times


def _workers() -> int:
    """The CPUs this process may run on (1 where it cannot ask): at most
    this many processes step one ensemble."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_core(schedule: GraphSchedule, params: SystemParams, horizon: int,
              x0, times: np.ndarray, n_runs: int, run_index: int = 0):
    """The one noisy kernel: steps runs run_index .. run_index+n_runs-1 together.

    x holds one row per run.  Each run fills its noise from its own stream
    in step order, whatever the window, so it draws the values
    step-by-step draws would, and each run's arithmetic is its own
    matrix-vector products: every member is bit-for-bit the run it would
    be alone.  While n <= _GAIN_MAX_N the runs step by chunk gains
    (_gain_steps), past it one step at a time (_increment_steps), either
    writing means only.  Where the work, runs * horizon * (n + 1), is at
    least _SPLIT_MIN, the runs go in contiguous groups to at most
    _workers() processes (_split), and the means are bitwise the same
    whatever the worker count.  Nothing splits for one run or one CPU,
    with no record time (nothing to send back), where os.fork does not
    exist, or while another thread is alive: a forked child holds only
    the thread that forked.  Returns means (M, K, n+1) at `times` and
    their ledger (K, n+1) by ledger_for_times, read after every group is
    done.  A record that is not finite (a sum overflowed) is a
    FloatingPointError naming the first in time order.
    """
    means = np.empty((n_runs, times.size, params.n + 1))
    x = np.tile(initial_state(params, x0).means, (n_runs, 1))
    kernel = _gain_steps if params.n <= _GAIN_MAX_N else _increment_steps

    def step(lo: int, hi: int, out: np.ndarray):
        streams = [run_stream(params.seed, r)
                   for r in range(run_index + lo, run_index + hi)]
        kernel(schedule, params, horizon, x[lo:hi], streams, times, out)

    groups = 1
    if (n_runs > 1 and times.size
            and n_runs * horizon * (params.n + 1) >= _SPLIT_MIN
            and hasattr(os, "fork") and threading.active_count() == 1):
        groups = min(n_runs, _workers())
    if groups > 1:
        _split(step, [n_runs * j // groups for j in range(groups + 1)], means)
    else:
        step(0, n_runs, means)
    if not np.isfinite(means).all():
        k, r, i = np.argwhere(~np.isfinite(means.swapaxes(0, 1)))[0]
        raise FloatingPointError(f"run {run_index + r} is not finite at "
                                 f"t = {times[k]}, agent {i}")
    return means, ledger_for_times(schedule, params, times)


def _split(step, cuts: list, means: np.ndarray):
    """step(lo, hi, out) for each run group [cuts[j], cuts[j + 1]), writing
    its rows of means.  This process steps the first group into means;
    each other group runs in a forked child, which writes its rows into
    one anonymous shared map and leaves by os._exit.  Every child is
    reaped before this returns or raises; then their rows are copied into
    means, so no shared map outlives the call.  ChildProcessError when a
    child failed, with the first failure's "type: message", which the
    child leaves in its _NOTE bytes of the map.
    """
    rest = means[cuts[1]:]
    buf = mmap.mmap(-1, rest.nbytes + _NOTE * (len(cuts) - 2))
    shared = np.frombuffer(buf, means.dtype, rest.size).reshape(rest.shape)
    pids = []
    try:
        for j, (lo, hi) in enumerate(zip(cuts[1:-1], cuts[2:])):
            pid = os.fork()
            if pid == 0:  # the child: never return into the caller
                try:
                    step(lo, hi, shared[lo - cuts[1]:hi - cuts[1]])
                    os._exit(0)
                except BaseException as exc:
                    note = f"{type(exc).__name__}: {exc}".encode()[:_NOTE]
                    at = rest.nbytes + j * _NOTE
                    buf[at:at + len(note)] = note
                finally:
                    os._exit(1)
            pids.append(pid)
        step(0, cuts[1], means[:cuts[1]])
    finally:
        status = [os.waitpid(pid, 0)[1] for pid in pids]
    failed = [j for j, code in enumerate(status) if code]
    if failed:
        at = rest.nbytes + failed[0] * _NOTE
        note = buf[at:at + _NOTE].rstrip(b"\0").decode(errors="replace")
        raise ChildProcessError(
            f"{len(failed)} of {len(pids)} forked run groups failed, the "
            f"first with {note or f'wait status {status[failed[0]]}'}")
    rest[...] = shared


def _gain_windows(schedule: GraphSchedule, params: SystemParams, horizon: int,
                  width: int):
    """Steps [0, horizon) in windows of width steps anchored at its multiples.

    Yields per window of L steps from w0: w0; the step maps (L, n+1, 2(n+1)),
    S_i = [W_i | N_i] with W_i from _stacks and
    N_i = (A_i / P_{i+1}) diag(_signal_sd(P_i)), so x_{i+1} = S_i [x_i; g_i]
    for the step's n+1 raw normals g_i, one per agent.  _stacks joins a
    window across compiled-block cuts, so no window depends on where
    blocks cut.
    """
    n1 = params.n + 1
    for w0, a, w, p, q in _stacks(schedule, params.ratio, 0, horizon, width):
        maps = np.empty((len(a), n1, 2, n1))
        maps[:, :, 0] = w
        np.multiply(a / q[:, :, None], _signal_sd(p, params)[:, None],
                    out=maps[:, :, 1])
        yield w0, maps.reshape(len(a), n1, 2 * n1)


def _chunk_gains(maps: np.ndarray, c: int) -> np.ndarray:
    """Gain G = [Phi | K_0 ... K_{c-1}] of each whole chunk of c step maps.

    Phi = W_{c-1} ... W_0 and K_i = R_i N_i, with the suffix products
    R_{c-1} = I, R_i = R_{i+1} W_{i+1}, each built over all chunks by one
    batched product, so x_c = G [x_0; g_0 .. g_{c-1}] for the chunk's raw
    normals g_i (n+1 a step) in the order they are drawn.
    """
    k, n1 = len(maps) // c, maps.shape[1]
    maps = maps[:k * c].reshape(k, c, n1, 2 * n1)
    w = maps[..., :n1]
    suffix = np.empty(w.shape)
    suffix[:, -1] = np.eye(n1)
    for i in range(c - 2, -1, -1):
        np.matmul(suffix[:, i + 1], w[:, i + 1], out=suffix[:, i])
    gains = np.empty((k, n1, n1 + n1 * c))
    np.matmul(suffix[:, 0], w[:, 0], out=gains[:, :, :n1])
    kicks = gains[:, :, n1:].reshape(k, n1, c, n1).transpose(0, 2, 1, 3)
    np.matmul(suffix, maps[..., n1:], out=kicks)  # a view: K_i in place
    return gains


@np.errstate(over="ignore", invalid="ignore")
def _gain_steps(schedule: GraphSchedule, params: SystemParams, horizon: int,
                x: np.ndarray, streams, times: np.ndarray, means: np.ndarray):
    """Step every run by chunk gains, writing the means in place.

    The recursion x_{i+1} = S_i [x_i; g_i], S_i = [W_i | N_i]
    (_gain_windows), is linear in the state and in the step's raw normals
    g_i, one per agent, so over a chunk of c steps anchored at a multiple
    of c (c from schedules._chunk_steps) a run ends at one matrix-vector
    product of the chunk's gain (_chunk_gains), shared by every run, with
    [x_a; the chunk's normals]: one np.matmul item per run, never one
    product over the runs.  A time inside a chunk (a record or the
    horizon) is walked to from the anchor a by the step maps.  So x_t is a
    fixed function of x_a and the chunk's data, whatever the number of
    runs, noise budget, block cuts, record set or horizon.  Runs go in
    groups whose noise window of whole chunks stays within _NOISE_BUDGET
    normals.
    """
    n_runs, n1 = x.shape
    c = _chunk_steps(params.n)
    span = n1 * c  # one run's normals in one chunk
    group = max(1, min(n_runs, _NOISE_BUDGET // span))
    # a window's gains hold n+1 rows per normal of one run: they stay
    # within the budget too
    width = c * max(1, _NOISE_BUDGET // (max(group, n1) * span))
    # A run's row holds x_a, then the window's normals, [x_a, g_a, g_{a+1},
    # ...].  Chunk j reads [x_a; g_a .. g_{a+c-1}] from offset j * span, so
    # x_a goes over the last normals of chunk j - 1, spent by then; a walk
    # writes x_{a+i+1} over the spent g_{a+i}, just before g_{a+i+1}.
    buf = np.empty((group, n1 + width * n1))
    pending = times.tolist() + [horizon + 1]  # no record is past horizon
    k = 0
    for w0, maps in _gain_windows(schedule, params, horizon, width):
        gains, first = _chunk_gains(maps, c), k
        for r0 in range(0, n_runs, group):
            rows = buf[:min(group, n_runs - r0)]
            xs, k = x[r0:r0 + len(rows)], first
            step = np.empty((len(rows), n1, 1))
            for stream, row in zip(streams[r0:], rows):
                stream.standard_normal(out=row[n1:n1 + n1 * len(maps)])
            for j, a in enumerate(range(w0, w0 + len(maps), c)):
                chunk = rows[:, j * span:j * span + n1 + span]
                chunk[:, :n1] = xs
                if a + c <= horizon:
                    np.matmul(gains[j], chunk[..., None], out=xs[..., None])
                stop, end = k, min(a + c, horizon + 1)
                while pending[stop] < end:
                    stop += 1
                if stop == k:
                    continue
                at, i0 = np.array(pending[k:stop]) - a, a - w0
                for i in range(at[-1]):  # walk from the anchor
                    s = chunk[:, n1 * i:n1 * i + 2 * n1]
                    np.matmul(maps[i0 + i], s[..., None], out=step)
                    s[:, n1:] = step[..., 0]
                states = chunk[:, np.add.outer(n1 * at, np.arange(n1))]
                means[r0:r0 + len(rows), k:stop] = states
                k = stop
    if pending[k] == horizon:  # the horizon is an anchor
        means[:, k] = x


def _operators(blk: Block, indices: np.ndarray) -> list:
    """Each pattern of indices as _increment_steps applies it, by the
    pattern alone: where no row has more than two senders, its (first,
    second) sender columns, n + 1, the signal buffer's +0 column, where a
    row has fewer; else the pattern as float64.  Eligibility is read from
    the degree rows first, so a busier pattern costs no index work."""
    two = blk.degrees[indices].max(axis=1) <= 2
    ops = [None] * len(indices)
    dense, served = np.flatnonzero(~two), np.flatnonzero(two)
    for k, a in zip(dense, blk.adjacency[indices[dense]].astype(np.float64)):
        ops[k] = a
    a, d = blk.adjacency[indices[served]], blk.degrees[indices[served]]
    n1 = blk.adjacency.shape[1]
    first = np.where(d > 0, a.argmax(axis=2), n1)
    second = np.where(d > 1, n1 - 1 - a[:, :, ::-1].argmax(axis=2), n1)
    for k, f, s in zip(served.tolist(), first, second):
        ops[k] = (f, s)
    return ops


def _two_sender_sum(ext: np.ndarray, first: np.ndarray,
                    second: np.ndarray) -> np.ndarray:
    """A sig for every run from ext, the (runs, n+2) signals and a +0
    column: each row's two senders' signals summed, then +0 added, as a
    product's sum starts from +0 (so -0 + -0 gives +0)."""
    new = ext.take(first, axis=1)
    new += ext.take(second, axis=1)
    new += 0.0
    return new


@np.errstate(over="ignore", invalid="ignore")
def _increment_steps(schedule: GraphSchedule, params: SystemParams,
                     horizon: int, x: np.ndarray, streams, times: np.ndarray,
                     means: np.ndarray):
    """Step every run one step at a time, writing the means in place.

    Each compiled block of the schedule is walked in windows of at most B
    steps (schedules._float_windows), B chosen so the noise buffer (runs,
    B, n+1) stays within _NOISE_BUDGET entries, scaled by _signal_sd once
    a window.  A step forms the runs' signals x + noise once, beside a +0
    column, and takes A_t sig as _operators picks by the pattern alone:
    each row's two signals summed by index over all runs at once, or a
    matrix-vector product per run.  The two agree bit for bit on finite
    signals: a row's product is +0 plus its senders' signals plus exact
    zero terms, so in any summation order, with or without FMA, it is the
    correctly rounded a + b (or a, or +0).  On others a product turns
    0 * inf into NaN where the sum keeps inf.
    """
    n_runs, n1 = x.shape
    width = max(1, min(_NOISE_BUDGET // (n_runs * n1), horizon))
    buf = np.empty((n_runs, width, n1))
    ext = np.zeros((n_runs, n1 + 1))  # each run's signals, then +0
    signals = ext[:, :n1]
    pending = times.tolist() + [-1]  # no step is -1
    k = 0
    for blk in schedule.compiled.blocks(0, horizon):
        before, after = blk.ledger(params.ratio)
        keep = before[:-1] / after  # P_t / P_{t+1}
        for c0, ops, slots in _float_windows(blk, width, _operators):
            c1 = c0 + len(slots)
            t0 = blk.start + c0
            noise = buf[:, :c1 - c0]
            for stream, out in zip(streams, noise):
                stream.standard_normal(out=out)
            noise *= _signal_sd(before[c0:c1], params)
            for t, op, p_next, kept in zip(range(t0, blk.start + c1),
                                           [ops[s] for s in slots.tolist()],
                                           after[c0:c1], keep[c0:c1]):
                if t == pending[k]:
                    means[:, k] = x
                    k += 1
                np.add(x, noise[:, t - t0], out=signals)
                # a matrix-vector product per run, as a solo run takes it:
                # one signals @ A.T over the runs rounds differently
                new = (_two_sender_sum(ext, *op) if type(op) is tuple else
                       np.matmul(op, signals[:, :, None])[:, :, 0])
                new /= p_next
                # (P_t / P_{t+1}) x + A_t sig / P_{t+1}: a row that receives
                # nothing, the truth row among them, adds 0 to exactly 1 * x,
                # so it stays put, as a conjugate update with no signals
                new += kept * x
                x = new
    if horizon == pending[k]:
        means[:, k] = x


def run_simulation(schedule: GraphSchedule, params: SystemParams, horizon: int,
                   x0=None, record_every=None, record_times=None,
                   run_index: int = 0) -> Trajectory:
    """Simulate one run of the noisy belief recursion.

    Reproducible from (params.seed, run_index, schedule, params): the run owns
    stream (seed, run tag, run_index).  horizon = 0 records only the initial
    state.  run_index is a count (3.0 is 3; -1 and 2.5 are errors).  The
    deterministic mean process is run_expected.
    """
    run_index = _count(run_index, "run_index", 0)
    horizon = _count(horizon, "horizon", 0)
    times = _record_times(horizon, record_every, record_times)
    means, ledger = _run_core(schedule, params, horizon, x0, times, 1,
                              run_index)
    return Trajectory(times, means[0], ledger, params, run_index)


@dataclass(frozen=True)
class EnsembleResult:
    """Monte-Carlo batch over one schedule: per-run means at recorded times."""

    times: np.ndarray      # (K,)
    means: np.ndarray      # (M, K, n+1)
    ledger: np.ndarray     # (K, n+1), shared across runs by construction
    params: SystemParams
    n_runs: int


def run_ensemble(schedule: GraphSchedule, params: SystemParams, horizon: int,
                 n_runs: int, x0=None, record_every=None,
                 record_times=None) -> EnsembleResult:
    """Independent runs over a shared schedule (run r uses stream index r)."""
    n_runs = _count(n_runs, "n_runs")
    horizon = _count(horizon, "horizon", 0)
    times = _record_times(horizon, record_every, record_times)
    means, ledger = _run_core(schedule, params, horizon, x0, times, n_runs)
    return EnsembleResult(times, means, ledger, params, n_runs)

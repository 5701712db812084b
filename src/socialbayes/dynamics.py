"""Stochastic belief dynamics for memoryless Gaussian agents.

Each learning agent i holds a Gaussian belief N(x_i, 1/precision_i); the truth
agent (index 0) holds a point mass at the truth value.  At every step each
agent with outgoing edges samples one value from its own belief, adds
observation noise of variance 1/tau, and sends the same signal to all
listeners.  A receiver conjugates its Gaussian with the incoming signals,
which keeps beliefs Gaussian and gives the closed-form update

    mean'      = (precision * mean + tau * sum(signals)) / (precision + k*tau)
    precision' = precision + k*tau

for k received signals.  Precisions are therefore schedule-determined: we
track them as ledger values tau0/tau + (integer signal counts) and scale by
tau on demand, so incremental and from-scratch accounting agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedules import GraphSchedule

# Stream tag for per-run dynamics generators; schedules use their own tags.
_TAG_RUN = 201

# Noise is drawn in blocks of steps holding at most _NOISE_BUDGET standard
# normals (512 KiB) over all runs together, so memory stays flat in the
# number of runs and the horizon.
_NOISE_BUDGET = 2 ** 16


def run_stream(seed: int, run_index: int = 0) -> np.random.Generator:
    """Dynamics stream for one run; distinct runs never share draws."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _TAG_RUN, int(run_index)]))


@dataclass(frozen=True)
class SystemParams:
    """Model constants: agent count, noise scales, truth, master seed.

    tau is the observation precision (1/sigma^2), tau0 the shared prior
    precision.  truth_noise controls whether the truth agent's emitted signal
    carries observation noise like everyone else's; the mean process is
    unaffected either way.
    """

    n: int
    tau: float = 1.0
    tau0: float = 1.0
    truth: float = 0.0
    seed: int = 0
    truth_noise: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one learning agent")
        if not all(map(np.isfinite, (self.tau, self.tau0, self.truth))):
            raise ValueError("tau, tau0 and truth must be finite")
        if self.tau <= 0 or self.tau0 <= 0:
            raise ValueError("precisions must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

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
        p = self.params.tau * self.ledger
        p[0] = np.inf  # point mass at the truth
        return p


def initial_state(params: SystemParams, x0=None) -> BeliefState:
    """State at t=0: given means (scalar broadcast or per-agent), prior ledger."""
    m = np.empty(params.n + 1)
    if x0 is None:
        m[:] = params.truth
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if not np.all(np.isfinite(x0)):
            raise ValueError("x0 must be finite")
        if x0.ndim == 0:
            m[1:] = float(x0)
        elif x0.size == params.n:
            m[1:] = x0
        elif x0.size == params.n + 1:
            m[1:] = x0[1:]
        else:
            raise ValueError("x0 must be scalar, length n, or length n+1")
    m[0] = params.truth
    ledger = np.full(params.n + 1, params.ratio)
    return BeliefState(m, ledger, 0, params)


@dataclass(frozen=True)
class SignalBatch:
    """One step's emissions: belief samples theta, observation noise eps."""

    theta: np.ndarray
    eps: np.ndarray

    @property
    def a(self) -> np.ndarray:
        """Signals actually sent, a = theta + eps."""
        return self.theta + self.eps


def emit_signals(means: np.ndarray, ledger: np.ndarray, params: SystemParams,
                 rng: np.random.Generator) -> SignalBatch:
    """Sample every agent's outgoing signal for one step.

    theta_i ~ N(mean_i, 1/(tau*ledger_i)) for learning agents; the truth agent
    emits theta_0 = truth exactly.  eps ~ N(0, 1/tau) iid, dropped on the
    truth coordinate when truth_noise is off.
    """
    if np.any(ledger[1:] <= 0):
        raise ValueError("ledger entries must be positive")
    g = rng.standard_normal((2, means.size))
    u = g[0] / np.sqrt(params.tau * ledger)
    u[0] = 0.0  # point mass: the truth agent's sample is the truth itself
    eps = g[1] / np.sqrt(params.tau)
    if not params.truth_noise:
        eps[0] = 0.0
    return SignalBatch(means + u, eps)


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
                   batch: SignalBatch) -> BeliefState:
    """Reference path: apply update_agent to each receiver separately."""
    params = state.params
    a = batch.a
    means = state.means.copy()
    ledger = state.ledger.copy()
    for i in range(1, params.n + 1):
        senders = np.flatnonzero(adjacency[i])
        if senders.size == 0:
            continue
        mean, _ = update_agent(means[i], params.tau * ledger[i],
                               a[senders], params.tau)
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
    signals: np.ndarray | None = None  # (K, n+1) emitted signals, optional

    @property
    def precisions(self) -> np.ndarray:
        p = self.params.tau * self.ledger.copy()
        p[:, 0] = np.inf
        return p


def _record_times(horizon: int, record_every, record_times) -> np.ndarray:
    """Sorted record times, the one rule for runs and written tables.

    Every record_every-th step plus the horizon, or the given times;
    ValueError for a time outside [0, horizon].
    """
    if record_times is not None:
        times = np.unique(np.asarray(record_times, dtype=np.int64))
        if times.size and (times[0] < 0 or times[-1] > horizon):
            raise ValueError("record times outside [0, horizon]")
        return times
    step = 1 if record_every is None else int(record_every)
    if step < 1:
        raise ValueError("record_every must be >= 1")
    times = np.arange(0, horizon + 1, step, dtype=np.int64)
    if times.size == 0 or times[-1] != horizon:
        times = np.append(times, horizon)
    return times


def _run_core(schedule: GraphSchedule, params: SystemParams, horizon: int,
              x0, times: np.ndarray, n_runs: int, run_index: int = 0,
              record_signals: bool = False):
    """The one noisy kernel: steps runs run_index .. run_index+n_runs-1 together.

    x holds one row per run; the ledger is shared, taken as ratio + int64
    receive counts like run_expected's.  Each compiled block of the
    schedule is walked in chunks of B steps, B chosen so the noise buffer
    (runs, B, 2, n+1) stays within _NOISE_BUDGET entries; each run fills
    its slice from its own stream, which yields the values step-by-step
    draws would.  So every member is bit-for-bit the run it would be
    alone.  Returns means (M, K, n+1), ledger (K, n+1) and signals
    (M, K, n+1) or None, at `times`.
    """
    n1 = params.n + 1
    means = np.empty((n_runs, times.size, n1))
    ledger = np.empty((times.size, n1))
    signals = (np.full((n_runs, times.size, n1), np.nan) if record_signals
               else None)
    x = np.tile(initial_state(params, x0).means, (n_runs, 1))
    ratio, tau = params.ratio, params.tau
    width = max(1, min(_NOISE_BUDGET // (n_runs * 2 * n1), horizon))
    streams = [run_stream(params.seed, run_index + r) for r in range(n_runs)]
    buf = np.empty((n_runs, width, 2, n1))
    pending = times.tolist() + [-1]  # no step is -1
    k = 0
    for blk in schedule.compiled.blocks(0, horizon):
        before, after = blk.ledger(ratio)
        keep = before[:-1] / after  # P_t / P_{t+1}
        adjacency, slots = blk.adjacency, blk.slots.tolist()
        for c0 in range(0, len(slots), width):
            c1 = min(c0 + width, len(slots))
            t0 = blk.start + c0
            noise = buf[:, :c1 - c0]
            for stream, out in zip(streams, noise):
                stream.standard_normal(out=out)
            noise[:, :, 0] /= np.sqrt(tau * before[c0:c1])
            noise[:, :, 0, 0] = 0.0  # point mass: the truth agent's sample
            noise[:, :, 1] *= 1.0 / np.sqrt(tau)
            if not params.truth_noise:
                noise[:, :, 1, 0] = 0.0
            for t, slot, p, p_next, kept in zip(range(t0, blk.start + c1),
                                                slots[c0:c1], before[c0:c1],
                                                after[c0:c1], keep[c0:c1]):
                sig = x + noise[:, t - t0, 0]
                sig += noise[:, t - t0, 1]
                if t == pending[k]:
                    means[:, k] = x
                    ledger[k] = p
                    if signals is not None:
                        signals[:, k] = sig
                    k += 1
                # one matrix-vector product per run, as a solo run takes it;
                # a single sig @ A.T rounds differently once rows have many
                # senders
                new = np.matmul(adjacency[slot], sig[:, :, None])[:, :, 0]
                new /= p_next
                # (P_t / P_{t+1}) x + A_t sig / P_{t+1}: a row that receives
                # nothing, the truth row among them, adds 0 to exactly 1 * x,
                # so it stays put, as a conjugate update with no signals
                new += kept * x
                x = new
    if horizon == pending[k]:
        means[:, k] = x
        ledger[k] = before[-1] if horizon else ratio
    return means, ledger, signals


def run_simulation(schedule: GraphSchedule, params: SystemParams, horizon: int,
                   x0=None, record_every=None, record_times=None,
                   record_signals: bool = False,
                   run_index: int = 0) -> Trajectory:
    """Simulate one run of the noisy belief recursion.

    Reproducible from (params.seed, run_index, schedule, params): the run owns
    stream (seed, run tag, run_index).  horizon = 0 records only the initial
    state.  The deterministic mean process is run_expected.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    times = _record_times(horizon, record_every, record_times)
    means, ledger, signals = _run_core(schedule, params, horizon, x0, times,
                                       1, run_index, record_signals)
    return Trajectory(times, means[0], ledger, params, run_index,
                      None if signals is None else signals[0])


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
    if n_runs < 1:
        raise ValueError("need at least one run")
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    times = _record_times(horizon, record_every, record_times)
    means, ledger, _ = _run_core(schedule, params, horizon, x0, times, n_runs)
    return EnsembleResult(times, means, ledger, params, n_runs)

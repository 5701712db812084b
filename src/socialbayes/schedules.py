"""Time-varying directed communication graphs.

All graphs live on node set {0, 1, ..., n} where node 0 is the truth agent
and nodes 1..n are the learning agents.  An edge (i, j) at time t means agent
i *receives* a signal from agent j during step t.  Row 0 of every adjacency
matrix is (1, 0, ..., 0): the truth agent listens only to itself, so the full
transition matrix built from it is stochastic while the truth value stays put.

Schedules are deterministic objects: querying the same schedule twice at the
same t yields identical edge sets (randomized schedules are seeded, with a
stream independent of any learning-process randomness).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np


class ScheduleHorizonError(IndexError):
    """Query beyond the range a table-backed or materialized schedule covers."""


class ScheduleConstructionError(RuntimeError):
    """An adaptive schedule could not maintain its defining invariant."""


# RNG stream tags; schedule randomness never shares a stream with run dynamics.
_TAG_PEERS = 101
_TAG_PHASES = 102

# Steps per CompiledSchedule.blocks block: bounds a walk's degree and
# ledger scratch memory.
_BLOCK_STEPS = 4096


def _schedule_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(index)]))


class GraphSchedule:
    """Base class: a deterministic map t -> adjacency matrix on {0..n}.

    Subclasses implement edges_at(t) returning the receive edges among rows
    i >= 1 (truth edges are (i, 0)).  adjacency_at / arrays_at build and cache
    the dense forms used by the dynamics loops.
    """

    kind = "base"

    def __init__(self, n: int, horizon: int | None = None):
        if n < 1:
            raise ValueError("need at least one learning agent")
        self.n = int(n)
        self.horizon = None if horizon is None else int(horizon)
        self._pattern_cache: dict = {}

    # -- subclass surface -------------------------------------------------

    def edges_at(self, t: int) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------

    def _check_t(self, t: int):
        if t < 0:
            raise ScheduleHorizonError(f"negative time {t}")
        if self.horizon is not None and t >= self.horizon:
            raise ScheduleHorizonError(
                f"t={t} beyond schedule horizon {self.horizon}")

    def _pattern(self, edges: tuple[tuple[int, int], ...]):
        cached = self._pattern_cache.get(edges)
        if cached is not None:
            return cached
        m = self.n + 1
        a = np.zeros((m, m))
        a[0, 0] = 1.0  # truth self-loop; keeps the full transition stochastic
        deg = np.zeros(m, dtype=np.int64)
        for i, j in edges:
            if not (1 <= i <= self.n) or not (0 <= j <= self.n):
                raise ValueError(f"edge ({i}, {j}) out of node range")
            if i == j:
                raise ValueError(f"learning agent self-loop ({i}, {j})")
            if a[i, j] == 0.0:
                a[i, j] = 1.0
                deg[i] += 1
        a.setflags(write=False)
        deg.setflags(write=False)
        cached = (a, deg)
        self._pattern_cache[edges] = cached
        return cached

    def adjacency_at(self, t: int) -> np.ndarray:
        """Dense (n+1)x(n+1) 0/1 adjacency at time t (read-only view)."""
        self._check_t(t)
        return self._pattern(self.edges_at(t))[0]

    def arrays_at(self, t: int):
        """(adjacency, ledger degree vector) at time t, both cached."""
        self._check_t(t)
        return self._pattern(self.edges_at(t))

    def cycle_patterns(self):
        """Patterns of one period, step t using entry t % period, or None.

        Lets CompiledSchedule index a periodic schedule without querying it
        step by step; None (the default) means no such structure is known.
        """
        return None


class CompiledSchedule:
    """A schedule as a stack of unique (adjacency, degree) patterns.

    block(start, stop) gives each step's pattern slot and its degree rows,
    so a run compiles its horizon block by block and memory stays bounded
    by the block size.  A schedule with cycle_patterns() maps step t to
    slot t % period with no per-step query; any other schedule is queried
    through arrays_at, which keeps its horizon check.
    """

    def __init__(self, schedule: GraphSchedule):
        self.schedule = schedule
        self.adjacency: list[np.ndarray] = []
        self.degrees: list[np.ndarray] = []
        # per slot: the rows that receive nothing, None when every learner does
        self.idle: list[np.ndarray | None] = []
        self._slots: dict[int, int] = {}
        cycle = schedule.cycle_patterns()
        if cycle is not None:
            self._cycle = np.array([self._slot(p) for p in cycle],
                                   dtype=np.intp)
            self._cycle_degrees = np.array([deg for _, deg in cycle],
                                           dtype=np.int64)
        else:
            self._cycle = None

    def _slot(self, pattern) -> int:
        # patterns come from the schedule's cache, so identity is equality;
        # holding them here keeps the ids valid
        a, deg = pattern
        k = self._slots.get(id(a))
        if k is None:
            k = self._slots[id(a)] = len(self.adjacency)
            self.adjacency.append(a)
            self.degrees.append(deg)
            idle = deg == 0
            self.idle.append(idle if idle[1:].any() else None)
        return k

    def block(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """(pattern slots, (stop-start, n+1) int64 degree rows) of [start, stop)."""
        if not 0 <= start <= stop:
            raise ValueError("need 0 <= start <= stop")
        if self._cycle is not None:
            if stop > start:
                self.schedule._check_t(stop - 1)
            phase = np.arange(start, stop) % self._cycle.size
            return self._cycle[phase], self._cycle_degrees[phase]
        patterns = [self.schedule.arrays_at(t) for t in range(start, stop)]
        slots = np.array([self._slot(p) for p in patterns], dtype=np.intp)
        degrees = np.array([deg for _, deg in patterns], dtype=np.int64)
        return slots, degrees.reshape(len(patterns), self.schedule.n + 1)

    def blocks(self, start: int, stop: int):
        """Yield (first step, slots, degree rows) over [start, stop),
        _BLOCK_STEPS at a time, so a walk holds one block, not the span."""
        for b0 in range(start, stop, _BLOCK_STEPS):
            yield (b0, *self.block(b0, min(b0 + _BLOCK_STEPS, stop)))


def ledger_rows(ratio: float, received: np.ndarray, degrees: np.ndarray):
    """Ledger rows before each step of a block, and each step's divisor.

    before[j] is ratio + an int64 receive count, rounded once and never a
    float running sum, so it does not drift whatever the ratio; the
    divisor is before[j] + degrees[j].  received (the counts before the
    block) is advanced past the block in place.  A block of one all-zero
    row gives the ledger after `received` alone.
    """
    cumulative = np.cumsum(degrees, axis=0)
    before = ratio + (received + cumulative - degrees)
    received += cumulative[-1]
    return before, before + degrees


def max_degree(schedule: GraphSchedule, horizon: int) -> int:
    """Largest receive count over agents and steps t < horizon."""
    return max((int(degrees.max()) for _, _, degrees
                in CompiledSchedule(schedule).blocks(0, horizon)), default=0)


@dataclass(frozen=True)
class TruthHearingVerdict:
    """Outcome of the sliding-window truth-hearing check."""

    passed: bool
    kappa: int
    horizon: int
    violation: tuple[int, int] | None = None  # (agent, window start) or None

    def __bool__(self) -> bool:
        return self.passed


def verify_truth_hearing(schedule: GraphSchedule, kappa: int,
                         horizon: int) -> TruthHearingVerdict:
    """Check that every agent hears the truth in every length-kappa window.

    A window is [w, w+kappa) with w+kappa <= horizon.  Returns the first
    violating (agent, window start), scanning windows in order and agents by
    index, or a passing verdict.
    """
    if kappa < 1:
        raise ValueError("window length must be >= 1")
    n = schedule.n
    last_hear = np.full(n + 1, -1, dtype=np.int64)
    for t in range(horizon):
        for i, j in schedule.edges_at(t):
            if j == 0:
                last_hear[i] = t
        w = t - kappa + 1
        if w >= 0:
            for i in range(1, n + 1):
                if last_hear[i] < w:
                    return TruthHearingVerdict(False, kappa, horizon, (i, w))
    return TruthHearingVerdict(True, kappa, horizon)


class TableSchedule(GraphSchedule):
    """Explicit edge table: a finite list of (t, i, j) receive edges.

    Bounded by an explicit horizon; queries past it raise, since the table
    carries no rule for extrapolation.
    """

    kind = "explicit-table"

    def __init__(self, n: int, edges: list[tuple[int, int, int]],
                 horizon: int | None = None):
        by_time: dict[int, list[tuple[int, int]]] = {}
        max_t = -1
        for t, i, j in edges:
            if t < 0:
                raise ValueError(f"negative time in edge table: {t}")
            by_time.setdefault(int(t), []).append((int(i), int(j)))
            max_t = max(max_t, int(t))
        if horizon is None:
            horizon = max_t + 1 if max_t >= 0 else 0
        if max_t >= horizon:
            raise ValueError("edge table extends past the given horizon")
        super().__init__(n, horizon)
        self._by_time = {t: tuple(sorted(es)) for t, es in by_time.items()}
        for es in self._by_time.values():
            self._pattern(es)  # validates node ranges eagerly

    def edges_at(self, t):
        self._check_t(t)
        return self._by_time.get(t, ())


class PeriodicSchedule(GraphSchedule):
    """Deterministic periodic schedule with one truth edge per agent per window.

    Agent i hears the truth at times t with t mod kappa == phases[i-1]
    (default phase i mod kappa).  Peer edges repeat every step according to
    peer_rule: 'none', 'ring' (i receives from i%n+1), 'complete', or an
    explicit list of (i, j) pairs.
    """

    kind = "periodic"

    def __init__(self, n: int, kappa: int, peer_rule="none",
                 phases: list[int] | None = None, horizon: int | None = None):
        if kappa < 1:
            raise ValueError("window length must be >= 1")
        super().__init__(n, horizon)
        self.kappa = int(kappa)
        if phases is None:
            phases = [i % kappa for i in range(1, n + 1)]
        if len(phases) != n or any(not (0 <= p < kappa) for p in phases):
            raise ValueError("need one phase in [0, kappa) per agent")
        self.phases = tuple(int(p) for p in phases)
        self.peer_rule = peer_rule
        peers = _peer_edges(n, peer_rule)
        self._residue_edges = []
        for r in range(kappa):
            es = list(peers)
            es += [(i, 0) for i in range(1, n + 1) if self.phases[i - 1] == r]
            self._residue_edges.append(tuple(sorted(es)))

    def edges_at(self, t):
        self._check_t(t)
        return self._residue_edges[t % self.kappa]

    def cycle_patterns(self):
        return [self._pattern(es) for es in self._residue_edges]


def _peer_edges(n: int, peer_rule) -> list[tuple[int, int]]:
    if isinstance(peer_rule, str):
        if peer_rule == "none":
            return []
        if peer_rule == "ring":
            if n == 1:
                return []
            return [(i, i % n + 1) for i in range(1, n + 1)]
        if peer_rule == "complete":
            return [(i, j) for i in range(1, n + 1)
                    for j in range(1, n + 1) if i != j]
        raise ValueError(f"unknown peer rule {peer_rule!r}")
    edges = [(int(i), int(j)) for i, j in peer_rule]
    for i, j in edges:
        if not (1 <= i <= n) or not (1 <= j <= n) or i == j:
            raise ValueError(f"bad peer edge ({i}, {j})")
    return edges


class RandomSchedule(GraphSchedule):
    """Seeded random schedule with truth hearing guaranteed by construction.

    Peer edges (i, j), i != j, i,j >= 1 appear independently with probability
    edge_probability at every step.  Each agent additionally hears the truth
    exactly once per aligned window [m*kappa, (m+1)*kappa), at a per-agent
    phase drawn uniformly once from the schedule stream; consecutive hears are
    then exactly kappa apart, so every sliding length-kappa window contains
    one.  All draws are functions of (seed, t) only, so queries are
    deterministic and need no table.
    """

    kind = "random"

    def __init__(self, n: int, kappa: int, edge_probability: float, seed: int,
                 horizon: int | None = None):
        if kappa < 1:
            raise ValueError("window length must be >= 1")
        if not (0.0 <= edge_probability <= 1.0):
            raise ValueError("edge probability must lie in [0, 1]")
        super().__init__(n, horizon)
        self.kappa = int(kappa)
        self.edge_probability = float(edge_probability)
        self.seed = int(seed)
        rng = _schedule_rng(seed, _TAG_PHASES, 0)
        self.phases = tuple(int(p) for p in rng.integers(0, kappa, size=n))

    def edges_at(self, t):
        self._check_t(t)
        es = [(i, 0) for i in range(1, self.n + 1)
              if t % self.kappa == self.phases[i - 1]]
        p = self.edge_probability
        if p > 0.0:
            rng = _schedule_rng(self.seed, _TAG_PEERS, t)
            draws = rng.random((self.n, self.n))
            np.fill_diagonal(draws, 1.0)  # no self-loops
            for i0, j0 in np.argwhere(draws < p):
                es.append((int(i0) + 1, int(j0) + 1))
        return tuple(sorted(es))


def make_periodic_schedule(n: int, kappa: int, peer_rule="none",
                           phases=None, horizon=None) -> PeriodicSchedule:
    """Periodic schedule; truth heard once per window by every agent."""
    return PeriodicSchedule(n, kappa, peer_rule, phases, horizon)


def make_random_schedule(n: int, kappa: int, edge_probability: float,
                         seed: int, horizon=None) -> RandomSchedule:
    """Seeded random schedule; truth hearing holds for every window."""
    return RandomSchedule(n, kappa, edge_probability, seed, horizon)


def make_table_schedule(n: int, edges, horizon=None) -> TableSchedule:
    """Schedule backed by an explicit (t, i, j) edge list."""
    return TableSchedule(n, edges, horizon)


@dataclass(frozen=True)
class SwitchRecord:
    """One completed alternation cycle of the trap schedule.

    Stores the realized switch times with the mean values and lower bounds the
    construction must maintain at them (margins are value - bound).
    """

    k: int
    t_k: int
    s_k: int
    value_at_s: float    # agent 1's mean at s_k, truth-shifted
    bound_at_s: float    # 1 + 2^(1-2k)
    value_at_t: float    # agent 2's mean at t_k, truth-shifted
    bound_at_t: float    # 1 + 2^(-2k)


def default_pull_tolerance(k: int) -> float:
    """Gap threshold ending pull phase k: the two means within 2^(-2k-2)."""
    return 2.0 ** (-2 * k - 2)


class CounterexampleSchedule(GraphSchedule):
    """Adaptive two-agent schedule whose mean process never reaches the truth.

    The two agents alternate: agent 1 hears the truth once at t_k, then pulls
    toward agent 2 (frozen) until their means are within a shrinking
    tolerance; agent 2 then hears the truth once at s_k and pulls toward
    agent 1.  Both agents hear the truth infinitely often, yet the gaps
    between hears grow without bound, and the deterministic mean of each agent
    stays at or above 1 + truth forever (for the canonical start 2 + truth,
    unit noise and prior variance).

    Switch times come from co-running the deterministic mean recursion during
    construction; the defining lower bounds at each realized switch are
    validated as the phases complete, and violation raises
    ScheduleConstructionError.  The schedule is materialized up to `horizon`
    and immutable afterwards.
    """

    kind = "counterexample"

    def __init__(self, ratio: float, horizon: int, start: float = 2.0,
                 tolerance_rule=default_pull_tolerance):
        if ratio <= 0:
            raise ValueError("precision ratio must be positive")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        super().__init__(2, horizon)
        self.ratio = float(ratio)
        self.start = float(start)
        self.switches: list[SwitchRecord] = []
        self.truth_times_1: list[int] = []
        self.truth_times_2: list[int] = []
        self._starts: list[int] = []
        self._edges: list[tuple[tuple[int, int], ...]] = []
        self._materialize(tolerance_rule)

    def _add_interval(self, start: int, edge: tuple[int, int]):
        self._starts.append(start)
        self._edges.append((edge,))

    def _materialize(self, tol_rule):
        horizon = self.horizon
        z1 = z2 = self.start  # truth-shifted means; truth itself sits at 0
        p1 = p2 = self.ratio
        t = 0
        k = 1
        while t < horizon:
            tol = float(tol_rule(k))
            if tol <= 0:
                raise ScheduleConstructionError(
                    f"tolerance rule returned {tol} at k={k}")
            bound_t = 1.0 + 2.0 ** (-2 * k)
            bound_s = 1.0 + 2.0 ** (1 - 2 * k)
            t_k = t
            if z2 < bound_t:
                raise ScheduleConstructionError(
                    f"agent 2 mean {z2} below bound {bound_t} entering cycle {k}")
            if z2 + tol < bound_s:
                raise ScheduleConstructionError(
                    f"pull target {z2} cannot reach bound {bound_s} at cycle {k}")
            # agent 1 hears the truth once, then pulls toward frozen agent 2
            self._add_interval(t, (1, 0))
            self.truth_times_1.append(t)
            z1 = z1 * p1 / (p1 + 1.0)
            p1 += 1.0
            t += 1
            if t >= horizon:
                break
            if abs(z1 - z2) > tol:
                self._add_interval(t, (1, 2))
                while abs(z1 - z2) > tol and t < horizon:
                    z1 = (p1 * z1 + z2) / (p1 + 1.0)
                    p1 += 1.0
                    t += 1
                if abs(z1 - z2) > tol:
                    break  # horizon hit mid-pull; cycle k stays unrealized
            if t >= horizon:
                break  # gap closed exactly at the boundary; no room for s_k
            s_k = t
            if z1 < bound_s:
                raise ScheduleConstructionError(
                    f"agent 1 mean {z1} below bound {bound_s} at s_{k}={s_k}")
            # agent 2 hears the truth once, then pulls toward frozen agent 1;
            # z2 was frozen through the whole cycle, so it still holds its
            # value from t_k.
            self._add_interval(t, (2, 0))
            self.truth_times_2.append(t)
            self.switches.append(
                SwitchRecord(k, t_k, s_k, z1, bound_s, z2, bound_t))
            z2 = z2 * p2 / (p2 + 1.0)
            p2 += 1.0
            t += 1
            if t >= horizon:
                break
            next_bound = 1.0 + 2.0 ** (-2 * (k + 1))
            if z1 + tol < next_bound:
                raise ScheduleConstructionError(
                    f"pull target {z1} cannot reach bound {next_bound} "
                    f"after s_{k}")
            if abs(z2 - z1) > tol:
                self._add_interval(t, (2, 1))
                while abs(z2 - z1) > tol and t < horizon:
                    z2 = (p2 * z2 + z1) / (p2 + 1.0)
                    p2 += 1.0
                    t += 1
            k += 1

    def edges_at(self, t):
        self._check_t(t)
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._edges[idx]


def make_counterexample_schedule(ratio: float, horizon: int, start: float = 2.0,
                                 tolerance_rule=default_pull_tolerance
                                 ) -> CounterexampleSchedule:
    """Two-agent alternating schedule defeating any fixed hearing window.

    `ratio` is tau0/tau and `start` the common truth-shifted initial mean;
    the canonical instance is ratio=1, start=2.
    """
    return CounterexampleSchedule(ratio, horizon, start, tolerance_rule)

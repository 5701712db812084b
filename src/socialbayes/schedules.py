"""Time-varying directed communication graphs.

All graphs live on node set {0, 1, ..., n} where node 0 is the truth agent
and nodes 1..n are the learning agents.  An edge (i, j) at time t means agent
i *receives* a signal from agent j during step t.  Row 0 of every adjacency
matrix is all zeros: the truth agent hears nobody, so, like every agent that
receives nothing, it keeps its value.

Schedules are deterministic objects: querying the same schedule twice at the
same t yields identical edge sets (randomized schedules are seeded, with a
stream independent of any learning-process randomness).  A random
schedule reads its peer draws from one numpy stream, (seed, 101) by
_schedule_rng, in step order, n * n uniforms a step: edges_at and a
compiled block starting at step t both advance the stream to t * n * n
outputs, so they give the same edges bit for bit.  A compiled block
holds its adjacency as a read-only bool stack; _stacks is the one
builder of the mean process's float64 transition stacks W_t from the
compiled blocks.
"""

from __future__ import annotations

import bisect
import functools
import numbers
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ScheduleHorizonError(IndexError):
    """Query beyond the range a table-backed or materialized schedule covers."""


class ScheduleConstructionError(RuntimeError):
    """An adaptive schedule could not maintain its defining invariant."""


# RNG stream tags; schedule randomness never shares a stream with run dynamics.
_TAG_PEERS = 101
_TAG_PHASES = 102

# Steps per compiled block at most: bounds a walk's scratch memory.
_BLOCK_STEPS = 4096

# Bytes of compiled blocks a schedule keeps for later walks (16 MiB); one
# block takes at most an eighth, so at n = 100 a random schedule compiles
# 190 steps per block and keeps its first 1,520 steps.  A per-pattern
# kernel casts at most an eighth to float64 at once (_float_windows).
_COMPILE_BUDGET = 2 ** 24

# Bytes of W in one group of a transition stack (256 KiB) by default:
# scratch memory stays flat in the horizon and a group stays in cache
# while it is used.
_STACK_BUDGET = 2 ** 18


def _integral(values, name: str, low=None, high=None) -> np.ndarray:
    """values as int64, the one rule for integer arrays: an integral float
    such as 3.0 is taken as 3.  ValueError naming name for a non-finite or
    fractional value, one whose float64 value is 2^63 or more in magnitude,
    past int64, or one outside [low, high], a bound of None left open."""
    rule = (f"{name} must be integers" + ("" if low is None else
            f" and >= {low}") + ("" if high is None else f" and <= {high}"))
    values = np.asarray(values)
    if values.dtype.kind != "i":
        floats = values.astype(np.float64)
        if not np.all(np.isfinite(floats) & (floats == np.round(floats))
                      & (np.abs(floats) < 2.0 ** 63)):
            raise ValueError(rule)
    values = values.astype(np.int64)
    if ((low is not None and np.any(values < low))
            or (high is not None and np.any(values > high))):
        raise ValueError(rule)
    return values


def _count(value, name: str, least: int = 1) -> int:
    """value as an int, the one rule for counts, horizons, seeds and walk
    spans: any Integral passes as it is, so a seed may pass 2^64; another
    number must be finite and whole and goes by int() (3.0 is 3, 1e19 is
    10^19; 2.5, nan and inf are errors).  ValueError below least."""
    if not isinstance(value, numbers.Integral):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be integers")
        value = int(float(value))
    if value < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


def _real(value, name: str, low=-np.inf, high=np.inf, strict=False):
    """value as a float, or an array of them as float64: the one rule for
    real inputs.  ValueError naming name unless every entry is finite and
    within [low, high], or (low, high] when strict."""
    values = np.asarray(value, dtype=np.float64)
    above = values > low if strict else values >= low
    if not np.all(np.isfinite(values) & above & (values <= high)):
        raise ValueError(f"{name} must be finite" + ("" if low == -np.inf else
                         f" and {'>' if strict else '>='} {low:g}")
                         + ("" if high == np.inf else f" and <= {high:g}"))
    return float(values) if values.ndim == 0 else values


def _schedule_rng(seed: int, tag: int, skip: int = 0) -> np.random.Generator:
    """The stream of (seed, tag), advanced by skip outputs: the one
    definition of a schedule's stream.  A float64 from random() takes one
    output, so step t of an (n, n)-a-step draw starts at skip t * n * n
    (PCG64 advances in O(log skip) steps)."""
    bits = np.random.PCG64(np.random.SeedSequence([int(seed), tag]))
    return np.random.Generator(bits.advance(skip))


class Block(NamedTuple):
    """Steps [start, start + len(slots)) of a schedule as arrays.

    Step start + j uses the bool matrix adjacency[slots[j]] and its int64
    receive counts degrees[slots[j]]; received counts the receives before
    start (CompiledSchedule.blocks sets it).  The patterns are one
    read-only (k, n+1, n+1) bool stack and its (k, n+1) int64 degree rows,
    as _freeze makes them: a fixed pattern set's are made once and shared
    by every block, a random block's hold one pattern per step.  Arithmetic
    casts them where it needs floats (_transitions, _float_windows).
    """

    start: int
    adjacency: np.ndarray
    degrees: np.ndarray  # one row per pattern
    slots: np.ndarray
    received: np.ndarray | None = None

    def ledger(self, ratio: float):
        """(ledger rows before each step and after the last, each step's
        divisor: the row after it).

        A ledger row is ratio + an int64 receive count, rounded once and
        never a float running sum, so it does not drift whatever the ratio,
        and a step's divisor is the next step's ledger bit for bit.
        """
        before = ratio + np.cumsum(np.vstack([
            self.received, self.degrees[self.slots]]), axis=0)
        return before, before[1:]


def _freeze(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (k, n+1, n+1) bool stack made read-only, and its read-only (k, n+1)
    int64 receive counts, its row counts: its bytes summed in int32, exact
    for any row length below 2^31 and cheaper than count_nonzero's."""
    degrees = stack.view(np.uint8).sum(axis=2, dtype=np.int32).astype(np.int64)
    stack.flags.writeable = degrees.flags.writeable = False
    return stack, degrees


def _patterns(n: int, edge_sets) -> tuple[np.ndarray, np.ndarray]:
    """The _freeze'd (k, n+1, n+1) stack of k edge sets and its degree
    rows; a repeated edge counts once.  Raises ValueError on a bad edge."""
    stack = np.zeros((len(edge_sets), n + 1, n + 1), dtype=bool)
    for a, edges in zip(stack, edge_sets):
        i, j = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        bad = (i < 1) | (i > n) | (j < 0) | (j > n) | (i == j)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"edge ({i[k]}, {j[k]}) is a self-loop or "
                             "out of node range")
        a[i, j] = True
    return _freeze(stack)


class GraphSchedule:
    """Base class: a deterministic map t -> adjacency matrix on {0..n}.

    Subclasses implement edges_at(t), the receive edges among rows i >= 1
    (truth edges are (i, 0)), which is the definition, and _compile(start,
    stop), the same steps as a Block.  Walks read `compiled`; arrays_at is
    the one-step query.  n, the horizon and a kind's kappa go by _count's
    rule, its phases (in [0, kappa)) and edge entries (>= 0) by
    _integral's: 3.0 is 3, 2.5 a ValueError.
    """

    # Bytes one step adds to a compiled block, its slot; a kind that makes
    # a pattern per step adds its bool matrix and int64 degree row too.
    _step_bytes = np.dtype(np.intp).itemsize

    def __init__(self, n: int, horizon: int | None = None):
        self.n = _count(n, "n")
        self.horizon = (None if horizon is None
                        else _count(horizon, "horizon", 0))

    def edges_at(self, t: int) -> tuple[tuple[int, int], ...]:
        raise NotImplementedError

    @functools.cached_property
    def compiled(self) -> CompiledSchedule:
        """The schedule's one compiled form, made on first use."""
        return CompiledSchedule(self)

    def _check_t(self, t: int):
        if t < 0:
            raise ScheduleHorizonError(f"negative time {t}")
        if self.horizon is not None and t >= self.horizon:
            raise ScheduleHorizonError(
                f"t={t} beyond schedule horizon {self.horizon}")

    def adjacency_at(self, t: int) -> np.ndarray:
        """Dense (n+1)x(n+1) bool adjacency at time t (read-only)."""
        return self.arrays_at(t)[0]

    def arrays_at(self, t: int):
        """(bool adjacency, int64 ledger degree vector) at time t, both
        read-only."""
        self._check_t(t)
        blk = self._compile(t, t + 1)
        return blk.adjacency[blk.slots[0]], blk.degrees[blk.slots[0]]


class CompiledSchedule:
    """A schedule compiled into Blocks, kept for reuse within a byte budget.

    Block j holds steps [j * steps, (j + 1) * steps), cut at the horizon,
    whatever the order of the walks: it is compiled up to the last step a
    walk needs and extended when a later walk goes further.  The first
    blocks compiled are kept while they fit in _COMPILE_BUDGET bytes; a
    block past the budget is compiled again by each walk that reaches it.
    Each whole block's receive-count sum is kept for good, so a walk from
    any start compiles no earlier step again.  Only a weak reference
    leads back to the schedule, which holds this object: a cycle would
    keep the blocks until the cyclic collector ran.
    """

    def __init__(self, schedule: GraphSchedule):
        self._schedule = weakref.ref(schedule)
        self.steps = max(1, min(_BLOCK_STEPS,
                                _COMPILE_BUDGET // 8 // schedule._step_bytes))
        self._counts = [np.zeros(schedule.n + 1, dtype=np.int64)]  # before j
        self._held: dict[int, Block] = {}
        self.nbytes = 0

    def _checked(self, start: int, stop: int) -> tuple:
        """(the schedule, start, stop) once start and stop pass _count's
        rule and [start, stop) is found within the schedule's horizon."""
        start = _count(start, "start", 0)
        stop = _count(stop, "stop", start)
        schedule = self._schedule()
        if schedule is None:
            raise ReferenceError("the compiled schedule no longer exists")
        if stop > start:
            schedule._check_t(stop - 1)
        return schedule, start, stop

    def block(self, start: int, stop: int) -> Block:
        """Steps [start, stop) compiled afresh, within the schedule's horizon."""
        schedule, start, stop = self._checked(start, stop)
        return schedule._compile(start, stop)

    def blocks(self, start: int, stop: int):
        """Iterator over the Blocks covering [start, stop) in order, cut to
        it.  The span is checked now, and the iterator holds the schedule."""
        return self._blocks(*self._checked(start, stop))

    def _blocks(self, schedule: GraphSchedule, start: int, stop: int):
        j = min(start // self.steps, len(self._counts) - 1)
        while j * self.steps < stop:
            lo = j * self.steps
            end = lo + self.steps
            if schedule.horizon is not None:
                end = min(end, schedule.horizon)
            blk = self._held.pop(j, None)
            have = 0 if blk is None else len(blk.slots)
            self.nbytes -= have * schedule._step_bytes
            need = min(stop, end) - lo
            if have < need:  # compile only the steps a walk reaches
                more = self.block(lo + have, lo + need)
                blk = more if blk is None else _joined(blk, more)
                if need == end - lo and j == len(self._counts) - 1:
                    self._counts.append(self._counts[j]
                                        + _counts(blk.degrees, blk.slots))
            nbytes = len(blk.slots) * schedule._step_bytes
            if self.nbytes + nbytes <= _COMPILE_BUDGET:
                self._held[j] = blk
                self.nbytes += nbytes
            a, b = max(start, lo), min(stop, lo + len(blk.slots))
            if a < b:
                yield blk._replace(start=a, slots=blk.slots[a - lo:b - lo],
                                   received=self._counts[j] + _counts(
                                       blk.degrees, blk.slots[:a - lo]))
            j += 1


def _joined(head: Block, tail: Block) -> Block:
    """The steps of head, then those of tail."""
    if tail.adjacency is head.adjacency:  # one shared pattern set
        return head._replace(slots=np.concatenate([head.slots, tail.slots]))
    return Block(head.start, *_freeze(np.concatenate(
        [head.adjacency, tail.adjacency])), np.concatenate(
            [head.slots, tail.slots + len(head.adjacency)]))


def _counts(degrees: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """int64 receive counts summed over steps using these pattern slots."""
    return np.bincount(slots, minlength=len(degrees)) @ degrees


def _float_windows(blk: Block, steps: int, cast):
    """(first offset, cast(blk, indices), each step's slot into it) per
    window of at most `steps` of blk's steps, a cast indexed like its
    pattern indices.  The patterns a block uses are cast once, one cast
    every window yields, if their float64 fits an eighth of
    _COMPILE_BUDGET (a fixed set's), else each window of at most that
    many steps casts its own (a random block's, one per step)."""
    cap = max(1, _COMPILE_BUDGET // 8 // (8 * blk.adjacency[0].size))
    used, slots = np.unique(blk.slots, return_inverse=True)
    if len(used) <= cap:
        ops = cast(blk, used)
        for j in range(0, len(slots), steps):
            yield j, ops, slots[j:j + steps]
        return
    steps = min(steps, cap)
    for j in range(0, len(slots), steps):
        own = blk.slots[j:j + steps]
        yield j, cast(blk, own), np.arange(len(own))


def _transitions(a: np.ndarray, before: np.ndarray,
                 after: np.ndarray) -> np.ndarray:
    """W_j = (P_j + A_j) / P_{j+1} for a (k, n+1, n+1) stack a, with
    P_{j+1} = P_j + A_j 1.

    Each W_j is stochastic, and a row that receives nothing, the truth row
    among them, is a unit vector exactly.  Each entry is rounded as
    (diag(P_j) + A_j) / P_{j+1} rounds it.
    """
    w = a / after[:, :, None]
    diagonal = np.s_[:, ::a.shape[-1] + 1]
    w.reshape(len(a), -1)[diagonal] = (
        before + a.reshape(len(a), -1)[diagonal]) / after
    return w


def _budget_steps(n: int, unit: int = 1) -> int:
    """The most steps, a whole number of units, whose W stack fits in
    _STACK_BUDGET bytes; one unit at least."""
    return unit * max(1, _STACK_BUDGET // (8 * (n + 1) ** 2 * unit))


def _chunk_steps(n: int) -> int:
    """Chunk length c of the mean scan and the ensemble's chunk gains,
    measured per step on ring and random schedules, one BLAS thread: from
    n = 17 on, a chunk's c - 1 matrix products cost more than they save."""
    return next((c for top, c in ((4, 32), (10, 16), (16, 8)) if n <= top), 1)


def _stacks(schedule: GraphSchedule, ratio: float, start: int, stop: int,
            steps: int | None = None):
    """The W stacks of steps [start, stop), the one builder of them.

    Yields per group of `steps` steps counted from start, the last cut at
    stop (by default the steps _STACK_BUDGET bytes of W hold): its first
    step, adjacency stack A, W stack (_transitions) and ledger rows
    before and after each step, ratio + int64 receive counts.  A group is
    joined across compiled-block cuts, so no group depends on where blocks
    cut.  The span is checked now, not on the first group.
    """
    groups = _groups(schedule.compiled.blocks(start, stop), ratio, start,
                     stop, steps or _budget_steps(schedule.n))
    return ((t0, a, _transitions(a, p, q), p, q) for t0, a, p, q in groups)


def _groups(blocks, ratio: float, start: int, stop: int, steps: int):
    """(first step, A, ledger rows before, after) of each group of _stacks."""
    held = []
    for blk in blocks:
        before, after = blk.ledger(ratio)
        j = 0
        while j < len(blk.slots):
            k = min(steps - (blk.start + j - start) % steps,
                    len(blk.slots) - j)
            held.append((blk.adjacency[blk.slots[j:j + k]], before[j:j + k],
                         after[j:j + k]))
            j += k
            t = blk.start + j
            if (t - start) % steps and t < stop:
                continue
            a, p, q = (x[0] if len(x) == 1 else np.concatenate(x)
                       for x in zip(*held))
            held = []
            yield t - len(a), a, p, q


def max_degree(schedule: GraphSchedule, horizon: int) -> int:
    """Largest receive count over agents and steps t < horizon."""
    horizon = _count(horizon, "horizon", 0)
    return max((int(blk.degrees[blk.slots].max())
                for blk in schedule.compiled.blocks(0, horizon)), default=0)


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
    kappa = _count(kappa, "window length kappa")
    horizon = _count(horizon, "horizon", 0)
    heard = np.full(schedule.n, -1, dtype=np.int64)  # last hear per learner
    for blk in schedule.compiled.blocks(0, horizon):
        steps = np.arange(blk.start, blk.start + len(blk.slots))
        hears = blk.adjacency[blk.slots, 1:, 0]
        last = np.maximum.accumulate(np.vstack(
            [heard, np.where(hears, steps[:, None], -1)]), axis=0)[1:]
        # window [t - kappa + 1, t] misses agent i; none when t < kappa - 1
        late = np.argwhere(last < (steps - kappa + 1)[:, None])
        if late.size:
            return TruthHearingVerdict(False, kappa, horizon, (
                int(late[0, 1]) + 1, int(steps[late[0, 0]]) - kappa + 1))
        heard = last[-1]
    return TruthHearingVerdict(True, kappa, horizon)


class TableSchedule(GraphSchedule):
    """Explicit edge table: a finite list of (t, i, j) receive edges.

    Bounded by an explicit horizon; queries past it raise, since the table
    carries no rule for extrapolation.
    """

    def __init__(self, n: int, edges: list[tuple[int, int, int]],
                 horizon: int | None = None):
        by_time: dict[int, list[tuple[int, int]]] = {}
        max_t = -1
        for t, i, j in _integral(edges, "edge table entries", 0).tolist():
            by_time.setdefault(t, []).append((i, j))
            max_t = max(max_t, t)
        if horizon is None:
            horizon = max_t + 1 if max_t >= 0 else 0
        if max_t >= horizon:
            raise ValueError("edge table extends past the given horizon")
        super().__init__(n, horizon)
        self._by_time = {t: tuple(sorted(set(es)))
                         for t, es in by_time.items()}
        times = sorted(self._by_time)
        index = {(): 0}  # pattern 0 is the empty step
        slots = [index.setdefault(self._by_time[t], len(index)) for t in times]
        self._patterns = _patterns(self.n, list(index))  # validates eagerly
        # listed times and their slots, ended by the horizon (slot 0)
        self._times = np.array(times + [horizon], dtype=np.int64)
        self._time_slots = np.array(slots + [0], dtype=np.intp)

    def edges_at(self, t):
        self._check_t(t)
        return self._by_time.get(t, ())

    def _compile(self, start, stop):
        steps = np.arange(start, stop)
        k = np.searchsorted(self._times, steps)
        return Block(start, *self._patterns,
                     np.where(self._times[k] == steps, self._time_slots[k], 0))


class PeriodicSchedule(GraphSchedule):
    """Deterministic periodic schedule with one truth edge per agent per window.

    Agent i hears the truth at times t with t mod kappa == phases[i-1]
    (default phase i mod kappa).  Peer edges repeat every step according to
    peer_rule: 'none', 'ring' (i receives from i%n+1), 'complete', or an
    explicit list of (i, j) pairs.
    """

    def __init__(self, n: int, kappa: int, peer_rule="none",
                 phases: list[int] | None = None, horizon: int | None = None):
        super().__init__(n, horizon)
        n = self.n
        self.kappa = kappa = _count(kappa, "window length kappa")
        if phases is None:
            phases = [i % kappa for i in range(1, n + 1)]
        phases = _integral(phases, "phases", 0, kappa - 1).tolist()
        if len(phases) != n:
            raise ValueError("need one phase in [0, kappa) per agent")
        self.phases = tuple(phases)
        self.peer_rule = peer_rule
        peers = _peer_edges(n, peer_rule)
        self._residue_edges = []
        for r in range(kappa):
            es = list(peers)
            es += [(i, 0) for i in range(1, n + 1) if self.phases[i - 1] == r]
            self._residue_edges.append(tuple(sorted(set(es))))
        self._cycle = _patterns(n, self._residue_edges)

    def edges_at(self, t):
        self._check_t(t)
        return self._residue_edges[t % self.kappa]

    def cycle_patterns(self) -> tuple[np.ndarray, np.ndarray]:
        """(adjacency, degrees) of one period; step t uses entry t % kappa."""
        return self._cycle

    def _compile(self, start, stop):
        return Block(start, *self.cycle_patterns(),
                     np.arange(start, stop) % self.kappa)


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
    edges = [(i, j) for i, j in _integral(peer_rule, "peer edges").tolist()]
    for i, j in edges:
        if not (1 <= i <= n) or not (1 <= j <= n) or i == j:
            raise ValueError(f"bad peer edge ({i}, {j})")
    return edges


class RandomSchedule(GraphSchedule):
    """Seeded random schedule with truth hearing guaranteed by construction.

    Peer edges (i, j), i != j, i,j >= 1 appear independently with probability
    edge_probability at every step.  Each agent additionally hears the truth
    exactly once per aligned window [m*kappa, (m+1)*kappa), at a per-agent
    phase drawn uniformly once from the (seed, 102) stream; consecutive
    hears are then exactly kappa apart, so every sliding length-kappa window
    contains one.  Step t's peer draws are the (n, n) uniforms at t * n * n
    of the (seed, 101) stream, which any query reaches by advancing it, so
    queries are deterministic and need no table.
    """

    def __init__(self, n: int, kappa: int, edge_probability: float, seed: int,
                 horizon: int | None = None):
        super().__init__(n, horizon)
        n = self.n
        self.kappa = kappa = _count(kappa, "window length kappa")
        self.edge_probability = _real(edge_probability, "edge probability",
                                      0, 1)
        self.seed = _count(seed, "seed", 0)
        rng = _schedule_rng(self.seed, _TAG_PHASES)
        self.phases = tuple(int(p) for p in rng.integers(0, kappa, size=n))
        self._step_bytes = (n + 1) ** 2 + 8 * (n + 2)

    def edges_at(self, t):
        self._check_t(t)
        n, p = self.n, self.edge_probability
        es = [(i, 0) for i in range(1, n + 1)
              if t % self.kappa == self.phases[i - 1]]
        if p > 0.0:
            rng = _schedule_rng(self.seed, _TAG_PEERS, int(t) * n * n)
            draws = rng.random((n, n))
            np.fill_diagonal(draws, 1.0)  # no self-loops
            for i0, j0 in np.argwhere(draws < p):
                es.append((int(i0) + 1, int(j0) + 1))
        return tuple(sorted(es))

    def _compile(self, start, stop):
        """edges_at's draws, read from one stream in step order and
        thresholded straight into an adjacency stack."""
        n, steps = self.n, np.arange(start, stop)
        stack = np.zeros((steps.size, n + 1, n + 1), dtype=bool)
        stack[:, 1:, 0] = steps[:, None] % self.kappa == np.array(self.phases)
        if self.edge_probability > 0.0:
            rng = _schedule_rng(self.seed, _TAG_PEERS, int(start) * n * n)
            draws = np.empty((n, n))  # one reused buffer: no fresh pages
            for a in stack:
                rng.random(out=draws)
                np.less(draws, self.edge_probability, out=a[1:, 1:])
            learners = np.arange(1, n + 1)
            stack[:, learners, learners] = False  # no self-loops
        return Block(start, *_freeze(stack), np.arange(steps.size))


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

    def __init__(self, ratio: float, horizon: int, start: float = 2.0):
        self.ratio = _real(ratio, "precision ratio", 0, strict=True)
        self.start = _real(start, "start")
        super().__init__(2, _count(horizon, "horizon"))
        self.switches: list[SwitchRecord] = []
        self.truth_times_1: list[int] = []
        self.truth_times_2: list[int] = []
        self._starts: list[int] = []
        self._edges: list[tuple[tuple[int, int], ...]] = []
        self._materialize()
        self._patterns = _patterns(2, self._edges)  # one per interval

    def _materialize(self):
        z = [0.0, self.start, self.start]  # truth-shifted means by agent,
        p = [0.0, self.ratio, self.ratio]  # and ledgers; 0 is the truth
        t, k = 0, 1
        while t < self.horizon:
            tol = default_pull_tolerance(k)
            bound_t = 1.0 + 2.0 ** (-2 * k)
            bound_s = 1.0 + 2.0 ** (1 - 2 * k)
            t_k = t
            if z[2] < bound_t:
                raise ScheduleConstructionError(
                    f"agent 2 mean {z[2]} below bound {bound_t} entering cycle {k}")
            if z[2] + tol < bound_s:
                raise ScheduleConstructionError(
                    f"pull target {z[2]} cannot reach bound {bound_s} at cycle {k}")
            t = self._hear_and_pull(1, z, p, t, tol)
            if t >= self.horizon:
                break  # no room for s_k; a pull cut here leaves cycle k open
            if z[1] < bound_s:
                raise ScheduleConstructionError(
                    f"agent 1 mean {z[1]} below bound {bound_s} at s_{k}={t}")
            # z[2] is agent 2's mean at t_k: it is frozen until s_k = t
            self.switches.append(
                SwitchRecord(k, t_k, t, z[1], bound_s, z[2], bound_t))
            t = self._hear_and_pull(2, z, p, t, tol)
            k += 1

    def _hear_and_pull(self, a: int, z: list, p: list, t: int,
                       tol: float) -> int:
        """Agent a hears the truth once at step t, then pulls toward the
        other agent, frozen, until their means are within tol or the
        horizon is reached; z and p, the truth-shifted means and ledgers,
        change in place.  Returns the step after the last."""
        b = 3 - a
        self._starts.append(t)
        self._edges.append(((a, 0),))
        (self.truth_times_1, self.truth_times_2)[a - 1].append(t)
        z[a] = z[a] * p[a] / (p[a] + 1.0)
        p[a] += 1.0
        t += 1
        if t < self.horizon and abs(z[a] - z[b]) > tol:
            self._starts.append(t)
            self._edges.append(((a, b),))
            while abs(z[a] - z[b]) > tol and t < self.horizon:
                z[a] = (p[a] * z[a] + z[b]) / (p[a] + 1.0)
                p[a] += 1.0
                t += 1
        return t

    def edges_at(self, t):
        self._check_t(t)
        idx = bisect.bisect_right(self._starts, t) - 1
        return self._edges[idx]

    def _compile(self, start, stop):
        return Block(start, *self._patterns, np.searchsorted(
            self._starts, np.arange(start, stop), side="right") - 1)


def make_counterexample_schedule(ratio: float, horizon: int,
                                 start: float = 2.0) -> CounterexampleSchedule:
    """Two-agent alternating schedule defeating any fixed hearing window.

    `ratio` is tau0/tau and `start` the common truth-shifted initial mean;
    the canonical instance is ratio=1, start=2.
    """
    return CounterexampleSchedule(ratio, horizon, start)

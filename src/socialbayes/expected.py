"""Deterministic mean process and its transition algebra.

Taking expectations through the noisy belief recursion leaves a linear
system: y_{t+1} = W_t y_t with W_t = (P_t + D_t)^{-1}(P_t + A_t), a
stochastic matrix whose row 0 is (1, 0, ..., 0).  Deleting row and column 0
gives the sub-stochastic learning-agent block B_t; the deleted column
reappears as the truth-pull vector alpha_t (weight an agent moves toward the
truth when it hears it), and rows obey alpha_t + B_t 1 = 1 exactly.  The
truth-shifted means z_t = y_t[1:] - truth then satisfy z_{t+1} = B_t z_t, so
long products of the B blocks control how fast everyone converges - or fails
to.  The noise-mixing block M_t = (P_{t+1}^{-1} A_t)[1:, 1:] plays the same
role for the deviation process in the stochastic recursion.

The bundle walk, the narrow mean process, the window and identity checks
and the ensemble's chunk gains share one source: the W_t stacks of
schedules._stacks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, initial_state
from .schedules import (GraphSchedule, _budget_steps, _count, _stacks,
                        _transitions)

# run_expected steps by the W stack while n <= _STACK_MAX_N; past it the
# per-pattern arithmetic is faster (measured on ring, truth-only and
# random schedules: the stack wins up to n = 24, loses on a ring at 28).
_STACK_MAX_N = 24

# Chunk length c of run_expected's scan at n <= _STACK_MAX_N: the c of the
# first (largest n, c) entry that holds n, else 1 (one product per step).
# Measured per step on ring and random schedules, one BLAS thread: from
# n = 18 on, a chunk's c - 1 matrix products cost more than the calls
# they save.
_SCAN_CHUNKS = ((4, 32), (10, 16), (16, 8))


@dataclass(frozen=True)
class TransitionBundle:
    """All transition blocks for one step, built from (A_t, D_t, P_t).

    full is stochastic with row 0 = e_0; reduced is the learning-agent block
    (entrywise nonnegative, row sums <= 1); truth_pull[i-1] is the weight
    agent i puts on the truth signal (zero unless it hears the truth);
    noise_mix maps sender noise into receiving agents.  ledger_after is the
    updated precision diagonal P_{t+1} = P_t + D_t.
    """

    t: int
    full: np.ndarray          # (n+1, n+1) stochastic
    reduced: np.ndarray       # (n, n) sub-stochastic
    truth_pull: np.ndarray    # (n,)
    noise_mix: np.ndarray     # (n, n)
    ledger_before: np.ndarray
    ledger_after: np.ndarray


def transition_bundle(adjacency: np.ndarray, deg: np.ndarray,
                      ledger: np.ndarray, t: int = 0) -> TransitionBundle:
    """Build the transition blocks for one step.

    deg is the ledger degree vector, adjacency's row sums; the truth row
    of both is zero, as the truth hears nobody.  full is built by
    _transitions, the builder of every W stack, so it is bitwise the W_t
    of a walk or of run_expected.  P_{t+1} = P_t + D_t; a ledger the
    package makes, the ratio (the truth's entry) + integer counts, gets
    ratio + (counts + D_t), rounded once, the next row of a walk's.
    Only the inputs are validated here;
    check_transition_identities measures how far the result is from
    stochastic.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    p = np.asarray(ledger, dtype=np.float64)
    m = a.shape[0]
    if a.shape != (m, m) or p.shape != (m,) or deg.shape != (m,):
        raise ValueError("shape mismatch between adjacency, degrees, ledger")
    if np.any(p <= 0):
        raise ValueError("ledger entries must be positive")
    if deg[0] != 0 or np.any(a[0] != 0.0):
        raise ValueError("truth row must be zero: the truth hears nobody")
    if np.any(a < 0):
        raise ValueError("adjacency entries must be nonnegative")
    if not np.array_equal(a.sum(axis=1), deg):
        raise ValueError("degrees disagree with adjacency row sums")
    counts = np.rint(p - p[0])
    p_after = (p[0] + (counts + deg) if np.array_equal(p[0] + counts, p)
               else p + deg)
    full = _transitions(a[None], p[None], p_after[None])[0]
    noise_mix = a[1:, 1:] / p_after[1:, None]
    return TransitionBundle(t, full, full[1:, 1:], full[1:, 0], noise_mix, p,
                            p_after)


def transition_bundles(schedule: GraphSchedule, params: SystemParams,
                       start: int, stop: int) -> Iterator[TransitionBundle]:
    """Transition bundles of steps [start, stop), in order.

    The walk reads the schedule's compiled blocks, whose ledger rows are
    ratio + (int64 receive count), so a walk from any start yields
    bitwise the bundles a walk from 0 reaches there.  Each bundle is a
    view of one group of _stacks: full is the W_t that run_expected steps
    by, noise_mix comes from the same group.  The span is checked now.
    """
    return _bundles(_stacks(schedule, params.ratio, start, stop))


def _bundles(stacks):
    for t0, a, w, before, after in stacks:
        noise_mix = a[:, 1:, 1:] / after[:, 1:, None]
        for j in range(len(w)):
            yield TransitionBundle(t0 + j, w[j], w[j, 1:, 1:], w[j, 1:, 0],
                                   noise_mix[j], before[j], after[j])


def bundle_at(schedule: GraphSchedule, params: SystemParams,
              t: int) -> TransitionBundle:
    """Transition bundle at time t, its ledger counted from step 0."""
    return next(transition_bundles(schedule, params, t, t + 1))


@dataclass(frozen=True)
class ExpectedTrajectory:
    """Dense mean-process record: y_t, truth-shifted z_t, and sup norms."""

    times: np.ndarray      # (T+1,)
    means: np.ndarray      # (T+1, n+1), row t is y_t
    norms: np.ndarray      # (T+1,), max_i |y_{t,i} - truth| over i >= 1
    truth: float
    params: SystemParams

    @property
    def shifted(self) -> np.ndarray:
        """z_t = y_t[1:] - truth, one row per time."""
        return self.means[:, 1:] - self.truth


def _scan(w: np.ndarray, t0: int, c: int, means: np.ndarray):
    """Write means[t0 + 1 : t0 + 1 + len(w)] from the W stack of steps
    t0, t0 + 1, ..., t0 a multiple of c, by chunks of c steps.

    w becomes in place the running products W_t ... W_a of each chunk, a
    its first step.  A chunk's means are its products times the mean at
    a, so they do not depend on where groups or blocks cut, as long as
    each group starts on a chunk.
    """
    for j in range(1, c):
        cur = w[j::c]
        np.matmul(cur, w[j - 1::c][:len(cur)], out=cur)
    rows, y = means[t0 + 1:t0 + 1 + len(w)], means[t0]
    body = len(w) - len(w) % c  # whole chunks end at step t0 + body
    m = w.shape[-1]
    # A one-step chunk is one (m, m) @ (m,) product, cheapest by np.dot.
    shape, product = ((-1, c), np.matmul) if c > 1 else ((-1,), np.dot)
    for wk, out, end in zip(w[:body].reshape(*shape, m, m),
                            rows[:body].reshape(*shape, m),
                            rows[c - 1:body:c]):
        product(wk, y, out=out)
        y = end
    if body < len(w):  # a partial last chunk
        np.matmul(w[body:], y, out=rows[body:])


def run_expected(schedule: GraphSchedule, params: SystemParams, horizon: int,
                 x0=None) -> ExpectedTrajectory:
    """Run the deterministic mean recursion for `horizon` steps.

    Exact linear iteration, no RNG, with ledger rows P_t = ratio + (int64
    receive counts).  While n <= _STACK_MAX_N the means come by a chunked
    scan (_scan) of the W stacks of _stacks, in groups of whole chunks:
    y_{t+1} = (W_t ... W_a) y_a, a the last multiple of the chunk length
    at or before t, each W_t bitwise the `full` of transition_bundle.  The
    truth row and zero-receiver rows of W_t are unit vectors, so those
    entries stay exactly as they are.  Past it a step is the increment
    y + (L_t y) / P_{t+1}, L_t = A_t - diag(D_t) built once per pattern a
    compiled block uses; a row that receives nothing, the truth row among
    them, is a zero row of L_t, so its entry stays exactly as it is.  Sup
    norms are taken per W stack or block, so extra memory is one of them,
    not the horizon.
    """
    horizon = _count(horizon, "horizon", 0)
    init = initial_state(params, x0)
    truth = params.truth
    means = np.empty((horizon + 1, params.n + 1))
    norms = np.empty(horizon + 1)
    means[0] = init.means
    norms[0] = np.max(np.abs(init.means[1:] - truth))
    if params.n <= _STACK_MAX_N:
        chunk = next((c for top, c in _SCAN_CHUNKS if params.n <= top), 1)
        for t0, _, w, _, _ in _stacks(schedule, params.ratio, 0, horizon,
                                      _budget_steps(params.n, chunk)):
            _scan(w, t0, chunk, means)
            span = slice(t0 + 1, t0 + 1 + len(w))
            norms[span] = np.max(np.abs(means[span, 1:] - truth), axis=1)
    else:
        for blk in schedule.compiled.blocks(0, horizon):
            b0, b1 = blk.start, blk.start + len(blk.slots)
            _, after = blk.ledger(params.ratio)
            used, slots = np.unique(blk.slots, return_inverse=True)
            lap = blk.adjacency[used]  # L_k = A_k - diag(D_k), k used
            lap.reshape(len(lap), -1)[:, ::params.n + 2] -= blk.degrees[used]
            y = means[b0]
            for row, k, p_next in zip(means[b0 + 1:b1 + 1], slots.tolist(),
                                      after):
                np.dot(lap[k], y, out=row)
                row /= p_next
                row += y
                y = row
            norms[b0 + 1:b1 + 1] = np.max(
                np.abs(means[b0 + 1:b1 + 1, 1:] - truth), axis=1)
    return ExpectedTrajectory(np.arange(horizon + 1), means, norms, truth,
                              params)


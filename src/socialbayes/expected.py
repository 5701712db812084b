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

The mean process, the window and identity checks and the ensemble's
chunk gains share one source: the W_t stacks of schedules._stacks, the
mean process where _chunk_steps(n) > 1.  bundle_at gives one step's
blocks, by the validated one-step builder transition_bundle.
run_expected takes the sup norms of z_t in one pass after stepping; a
norm that overflowed raises FloatingPointError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, initial_state
from .schedules import (_STACK_BUDGET, Block, GraphSchedule, _budget_steps,
                        _chunk_steps, _count, _float_windows, _stacks,
                        _transitions)


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


def bundle_at(schedule: GraphSchedule, params: SystemParams,
              t: int) -> TransitionBundle:
    """Transition bundle at time t, its ledger counted from step 0:
    transition_bundle of the compiled step at t and its ledger row,
    ratio + (int64 receive count), so bitwise the step's W in every W
    stack (_stacks) and run_expected."""
    blk = next(schedule.compiled.blocks(t, t + 1))
    k = blk.slots[0]
    return transition_bundle(blk.adjacency[k], blk.degrees[k],
                             blk.ledger(params.ratio)[0][0], blk.start)


@dataclass(frozen=True)
class ExpectedTrajectory:
    """Dense mean-process record: y_t, truth-shifted z_t, and sup norms."""

    times: np.ndarray      # (T+1,)
    means: np.ndarray      # (T+1, n+1), row t is y_t
    norms: np.ndarray      # (T+1,), max_i |y_{t,i} - truth| over i >= 1
    params: SystemParams

    @property
    def shifted(self) -> np.ndarray:
        """z_t = y_t[1:] - truth, one row per time."""
        return self.means[:, 1:] - self.params.truth


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
    for wk, out, end in zip(w[:body].reshape(-1, c, m, m),
                            rows[:body].reshape(-1, c, m),
                            rows[c - 1:body:c]):
        np.matmul(wk, y, out=out)
        y = end
    if body < len(w):  # a partial last chunk
        np.matmul(w[body:], y, out=rows[body:])


def _laplacians(blk: Block, indices: np.ndarray) -> np.ndarray:
    """L_k = A_k - diag(D_k) in float64 for each pattern k of indices."""
    lap = blk.adjacency[indices].astype(np.float64)
    lap.reshape(len(lap), -1)[:, ::lap.shape[-1] + 1] -= blk.degrees[indices]
    return lap


@np.errstate(over="ignore", invalid="ignore")
def run_expected(schedule: GraphSchedule, params: SystemParams, horizon: int,
                 x0=None) -> ExpectedTrajectory:
    """Run the deterministic mean recursion for `horizon` steps.

    Exact linear iteration, no RNG, with ledger rows P_t = ratio + (int64
    receive counts).  Where c = _chunk_steps(n) > 1 the means come by a
    chunked scan (_scan) of the W stacks of _stacks, in groups of whole
    chunks: y_{t+1} = (W_t ... W_a) y_a, a the last multiple of c at or
    before t, each W_t bitwise the `full` of transition_bundle.  The
    truth row and zero-receiver rows of W_t are unit vectors, so those
    entries stay exactly as they are.  Where c = 1 a step is the
    increment y + (L_t y) / P_{t+1}, L_t from _laplacians once per
    pattern a block uses (schedules._float_windows); a row that receives
    nothing, the truth row among them, is a zero row of L_t, so its entry
    stays exactly as it is.  The sup norms are taken in one pass after
    stepping, over slices of _STACK_BUDGET bytes of means, so extra
    memory is one slice, not the horizon.  A norm that is not finite (a
    mean, or its distance from the truth, overflowed) is a
    FloatingPointError naming the first t.
    """
    horizon = _count(horizon, "horizon", 0)
    means = np.empty((horizon + 1, params.n + 1))
    means[0] = initial_state(params, x0).means
    chunk = _chunk_steps(params.n)
    if chunk > 1:
        for t0, _, w, _, _ in _stacks(schedule, params.ratio, 0, horizon,
                                      _budget_steps(params.n, chunk)):
            _scan(w, t0, chunk, means)
    else:
        for blk in schedule.compiled.blocks(0, horizon):
            _, after = blk.ledger(params.ratio)
            for j, lap, slots in _float_windows(blk, len(blk.slots),
                                                _laplacians):
                y = means[blk.start + j]
                for row, k, p_next in zip(means[blk.start + j + 1:],
                                          slots.tolist(), after[j:]):
                    np.dot(lap[k], y, out=row)
                    row /= p_next
                    row += y
                    y = row
    norms, rows = np.empty(horizon + 1), _STACK_BUDGET // (8 * params.n) + 1
    for r0 in range(0, horizon + 1, rows):
        np.max(np.abs(means[r0:r0 + rows, 1:] - params.truth), axis=1,
               out=norms[r0:r0 + rows])
    if not np.isfinite(norms).all():
        raise FloatingPointError("mean process is not finite at t = %d"
                                 % np.argmin(np.isfinite(norms)))
    return ExpectedTrajectory(np.arange(horizon + 1), means, norms, params)


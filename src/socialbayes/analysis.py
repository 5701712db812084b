"""Numerical verification: norms, contraction bounds, rates, deviations.

The checks here turn the convergence analysis of the mean process into
machine-verifiable statements about finite windows of a concrete schedule:

* diagonal bound - partial window products of the reduced blocks keep
  diagonal mass at least (P_s)_ii / (P_{s+kappa})_ii;
* window contraction - if every agent hears the truth inside the window,
  the full window product contracts the sup norm to at most
  1 - min_i (P_s)_ii / (P_{s+kappa})_ii^2;
* product decay - across m consecutive windows beyond a burn-in threshold,
  the product norm is bounded by a harmonic-sum exponential, which is what
  produces the power-law convergence rate t^(-1/(2*d*kappa));
* truth-pull accumulation - truth-pull weights summed over a hearing window
  are at least the reciprocal of the window-end precision.

Every window and identity check reads the W_t stacks of
schedules._stacks, never one transition bundle at a time.  One pass,
_window_checks, takes each group of whole windows and builds every
window's product, suffix diagonals and truth pull as batched matrix
products, then its diagonal, contraction and truth-pull checks.
norm_inf is the one infinity norm, of a matrix or of a stack.

Every check is reported as a BoundCheck with margin = rhs - lhs; a check
passes when the margin is no more negative than the shared tolerance.
Checks whose hypotheses fail (no truth hearing, burn-in not reached, degree
cap exceeded) report status "precondition unmet" instead of a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SystemParams, _record_times, run_ensemble
from .expected import ExpectedTrajectory, run_expected
from .schedules import (CounterexampleSchedule, GraphSchedule, _budget_steps,
                        _count, _real, _stacks, max_degree)

TOL = 1e-12

# Window counts m of the product-decay checks sweep_window_checks adds.
_DECAY_LENGTHS = (1, 5, 20)


def norm_inf(m: np.ndarray):
    """Operator infinity norm, the largest absolute row sum: a float for a
    matrix (a vector is one row), an array of them for a stack of
    matrices over its last two axes."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    norms = np.abs(m).sum(axis=-1).max(axis=-1)
    return float(norms) if m.ndim == 2 else norms


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality lhs <= rhs.

    margin = rhs - lhs; the check passes iff margin >= -TOL.  status is
    "precondition unmet" when the inequality's hypotheses do not hold at this
    checkpoint, in which case no verdict is issued.
    """

    name: str
    lhs: float
    rhs: float
    status: str = "ok"
    detail: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.status == "ok" and self.margin >= -TOL

    @property
    def gated(self) -> bool:
        """True when the hypotheses did not hold and no verdict was issued."""
        return self.status != "ok"


def _skipped(name: str, reason: str, **detail) -> BoundCheck:
    return BoundCheck(name, math.nan, math.nan, "precondition unmet",
                      {**detail, "reason": reason})


def _windows(schedule: GraphSchedule, params: SystemParams, start: int,
             stop: int, kappa: int):
    """W stacks of steps [start, stop), a whole number of windows of kappa
    steps, as (W, ledger rows before, ledger rows after), each shaped
    (windows, kappa, ...): the most whole windows _STACK_BUDGET bytes of W
    hold at a time.
    """
    steps = _budget_steps(schedule.n, kappa)
    for _, _, *group in _stacks(schedule, params.ratio, start, stop, steps):
        yield [x.reshape(-1, kappa, *x.shape[1:]) for x in group]


def _window_checks(schedule: GraphSchedule, params: SystemParams, s: int,
                   kappa: int, stop: int) -> list[BoundCheck]:
    """The diagonal, contraction and truth-pull checks of each window
    [s + j*kappa, s + (j+1)*kappa) inside [s, stop), window by window.

    For each group of windows from _windows it reads, a row per window,
    the ledger rows at the window's start and end, and builds its product
    B_{s+kappa-1} ... B_s newest on the left in step order, its suffix-
    product diagonals (row l for steps [s+l+1, s+kappa), ones at
    l = kappa-1) with the suffix products built oldest on the right, and
    its truth pull summed in step order from zeros.  The products by the
    identity are exact, so they are skipped.
    """
    s, kappa = _count(s, "s", 0), _count(kappa, "window length kappa")
    stop = s + (stop - s) // kappa * kappa
    checks = []
    for w, before, after in _windows(schedule, params, s, stop, kappa):
        b = w[:, :, 1:, 1:]
        prod = b[:, 0]
        for k in range(1, kappa):
            prod = np.matmul(b[:, k], prod)
        diags = np.ones(b.shape[:3])
        suffix = b[:, -1]
        for u in range(kappa - 2, -1, -1):
            diags[:, u] = np.diagonal(suffix, axis1=1, axis2=2)
            if u:
                suffix = np.matmul(suffix, b[:, u])
        pull = np.zeros(diags[:, 0].shape)
        for k in range(kappa):
            pull = pull + w[:, k, 1:, 0]
        p_start, p_end = before[:, 0, 1:], after[:, -1, 1:]
        ratio = p_start / p_end
        # the first (l, i) of least margin, as offsets then agents go up
        offset, agent = np.divmod(np.argmin((diags - ratio[:, None]).reshape(
            len(ratio), -1), axis=1), ratio.shape[1])
        norms = norm_inf(prod)
        shrink = 1.0 - np.min(p_start / p_end ** 2, axis=1)
        floor = 1.0 / p_end
        nearest = np.argmin(pull - floor, axis=1)
        hears = np.all(pull > 0.0, axis=1)
        for j, (off, i, k) in enumerate(zip(offset.tolist(), agent.tolist(),
                                            nearest.tolist())):
            tag, at = f"[s={s},kappa={kappa}]", {"s": s, "kappa": kappa}
            checks.append(BoundCheck(
                "diagonal_bound" + tag, float(ratio[j, i]),
                float(diags[j, off, i]), detail={**at, "l": off,
                                                 "agent": i + 1}))
            if hears[j]:
                checks += [BoundCheck("contraction" + tag, float(norms[j]),
                                      float(shrink[j]), detail=at),
                           BoundCheck("truth_pull" + tag, float(floor[j, k]),
                                      float(pull[j, k]),
                                      detail={**at, "agent": k + 1})]
            else:
                checks += [_skipped(name + tag, "truth hearing fails in "
                                    "window", **at)
                           for name in ("contraction", "truth_pull")]
            s += kappa
    return checks


def check_diagonal_bound(schedule: GraphSchedule, params: SystemParams,
                         s: int, kappa: int) -> BoundCheck:
    """Partial window products keep diagonal mass above the precision ratio.

    For each offset l in [0, kappa), the product of reduced blocks over steps
    [s+l+1, s+kappa) has (i, i) entry at least (P_s)_ii / (P_{s+kappa})_ii.
    Holds for any schedule; no hearing assumption needed.  l = kappa-1 gives
    the empty product (identity).  Reports the worst (l, i) margin.
    """
    return _window_checks(schedule, params, s, kappa, s + kappa)[0]


def check_contraction(schedule: GraphSchedule, params: SystemParams,
                      s: int, kappa: int) -> BoundCheck:
    """Window product contracts the sup norm when everyone hears the truth.

    ||product over [s, s+kappa)||_inf <= 1 - min_i (P_s)_ii/(P_{s+kappa})_ii^2.
    Requires each agent to hear the truth at least once in the window;
    otherwise the checkpoint is reported as precondition unmet.
    """
    return _window_checks(schedule, params, s, kappa, s + kappa)[1]


def check_truth_pull_accumulation(schedule: GraphSchedule,
                                  params: SystemParams, s: int,
                                  kappa: int) -> BoundCheck:
    """Truth-pull weights over a hearing window exceed 1/(P_{s+kappa})_ii.

    Each hearing step contributes pull 1/(P_{u+1})_ii >= 1/(P_{s+kappa})_ii,
    so one hear per window suffices.  Skipped when hearing fails.
    """
    return _window_checks(schedule, params, s, kappa, s + kappa)[2]


def burn_in_threshold(params: SystemParams, kappa: int, d: int) -> float:
    """Window index past which the harmonic product decay bound applies.

    m* = 2*d*kappa/delta + (tau0/tau)/(d*kappa), with
    delta = min(tau0/tau, 1).  kappa and d are integers >= 1.
    """
    kappa, d = _count(kappa, "window length kappa"), _count(d, "degree cap d")
    delta = min(params.ratio, 1.0)
    return 2.0 * d * kappa / delta + params.ratio / (d * kappa)


def check_product_decay(schedule: GraphSchedule, params: SystemParams,
                        m0: int, m: int, kappa: int, d: int) -> BoundCheck:
    """Multi-window product norm obeys the harmonic-sum exponential bound.

    ||product over [m0*kappa, (m0+m)*kappa)||_inf
        <= exp(-(1/(2*d*kappa)) * sum_{j=2}^{m+1} 1/(m0+j))
    valid once m0 >= burn-in threshold, every window hears the truth, and d
    really caps the receive degrees over the span.  m = 0 passes trivially.
    The product is one sequential product over the steps of the span, read
    from the W stacks.
    """
    m0, m = _count(m0, "m0", 0), _count(m, "m", 0)
    kappa, d = _count(kappa, "window length kappa"), _count(d, "degree cap d")
    name = f"product_decay[m0={m0},m={m},kappa={kappa}]"
    mstar = burn_in_threshold(params, kappa, d)
    if m0 < mstar:
        return _skipped(name, f"burn-in not reached (m* = {mstar:.3f})",
                        m0=m0, m=m, kappa=kappa, d=d)
    s, e = m0 * kappa, (m0 + m) * kappa
    prod, hears_all, deg_cap = None, True, 0
    for w, before, after in _windows(schedule, params, s, e, kappa):
        # a window's pull sums nonnegative terms: it is positive iff one is
        hears_all = hears_all and bool(np.all(np.any(w[:, :, 1:, 0] > 0.0,
                                                     axis=1)))
        deg_cap = max(deg_cap, round(float((after - before).max())))
        for b in w.reshape(-1, *w.shape[2:])[:, 1:, 1:]:
            prod = b if prod is None else b @ prod
    if not hears_all:
        return _skipped(name, "truth hearing fails in some window",
                        m0=m0, m=m, kappa=kappa, d=d)
    if deg_cap > d:
        return _skipped(name, f"degree cap {d} exceeded (saw {deg_cap})",
                        m0=m0, m=m, kappa=kappa, d=d)
    lhs = 1.0 if prod is None else norm_inf(prod)
    harmonic = sum(1.0 / (m0 + j) for j in range(2, m + 2))
    rhs = math.exp(-harmonic / (2.0 * d * kappa))
    return BoundCheck(name, lhs, rhs,
                      detail={"m0": m0, "m": m, "kappa": kappa, "d": d,
                              "span": (s, e)})


def check_transition_identities(schedule: GraphSchedule, params: SystemParams,
                                horizon: int, _fault: bool = False
                                ) -> list[BoundCheck]:
    """Stochasticity and reduction identities over every step t < horizon.

    Reports the worst |row sum - 1| of W_t and the worst
    |truth_pull + reduced row sum - 1|, i.e. W[:, 1:, 0] plus the row sums
    of W[:, 1:, 1:], as two equality checks (lhs = worst deviation,
    rhs = 0), each with the first step where it occurs.  _fault adds 1e-3
    to W[0, 1, 1] of the first W stack, built for this check alone: the
    fault that `inject_fault = transition` injects.
    """
    horizon = _count(horizon, "horizon", 0)
    worst, at = [0.0, 0.0], [-1, -1]
    for t0, _, w, _, _ in _stacks(schedule, params.ratio, 0, horizon):
        if _fault and t0 == 0:
            w[0, 1, 1] += 1e-3
        devs = (np.abs(w.sum(axis=2) - 1.0).max(axis=1),
                np.abs(w[:, 1:, 0] + w[:, 1:, 1:].sum(axis=2)
                       - 1.0).max(axis=1))
        for k, dev in enumerate(devs):
            j = int(np.argmax(dev))
            if dev[j] > worst[k]:
                worst[k], at[k] = float(dev[j]), t0 + j
    return [
        BoundCheck(f"stochasticity[T={horizon}]", worst[0], 0.0,
                   detail={"worst_t": at[0]}),
        BoundCheck(f"reduction[T={horizon}]", worst[1], 0.0,
                   detail={"worst_t": at[1]}),
    ]


def check_norm_inequalities(n_pairs: int = 1000, size: int = 8,
                            seed: int = 4096) -> list[BoundCheck]:
    """Random-matrix sweep of the three product-norm inequalities.

    For pairs (R, S) with entries uniform in [-1, 1]:
      ||R S||_inf <= ||R||_inf ||S||_inf,
      ||R S||_max <= ||R||_inf ||S||_max,
      ||R S R^T||_max <= ||R||_inf^2 ||S||_max.
    Each reported check carries the least margin over the sweep and the
    first pair that has it.  The pairs are drawn as one (n_pairs, 2, size,
    size) array, R then S of each pair, in the order per-pair draws fill.
    """
    n_pairs, size = _count(n_pairs, "n_pairs"), _count(size, "size")
    seed = _count(seed, "seed", 0)
    r, s = np.random.default_rng(seed).uniform(
        -1.0, 1.0, (n_pairs, 2, size, size)).transpose(1, 0, 2, 3)
    rs = r @ s
    inf_r, inf_s = norm_inf(r), norm_inf(s)
    max_s = np.abs(s).max(axis=(1, 2))
    sides = {
        "inf_submult": (norm_inf(rs), inf_r * inf_s),
        "mixed_bound": (np.abs(rs).max(axis=(1, 2)), inf_r * max_s),
        "congruence_bound": (np.abs(rs @ r.transpose(0, 2, 1)).max(axis=(1, 2)),
                             inf_r ** 2 * max_s)}
    checks = []
    for key, (lhs, rhs) in sides.items():
        idx = int(np.argmin(rhs - lhs))
        checks.append(BoundCheck(f"{key}[pairs={n_pairs}]", float(lhs[idx]),
                                 float(rhs[idx]), detail={"worst_pair": idx}))
    return checks


def sweep_window_checks(schedule: GraphSchedule, params: SystemParams,
                        horizon: int, kappa: int) -> list[BoundCheck]:
    """All window-anchored checks over aligned windows within the horizon.

    Reads the windows s = 0, kappa, 2*kappa, ... from the W stacks in one
    pass; at each start it runs the diagonal, contraction and truth-pull
    checks, then adds product-decay checks at the first admissible
    burn-in for each length of _DECAY_LENGTHS that fits the horizon, d the
    schedule's max_degree below the horizon.
    """
    d = max_degree(schedule, horizon)
    checks = _window_checks(schedule, params, 0, kappa, horizon)
    if d > 0:
        m0 = math.ceil(burn_in_threshold(params, kappa, d))
        for m in _DECAY_LENGTHS:
            if (m0 + m) * kappa <= horizon:
                checks.append(check_product_decay(schedule, params, m0, m,
                                                  kappa, d))
    return checks


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of a norm series against the rate bound.

    Passes when the fitted slope is at most theoretical_bound + slack: the
    series decays at least as fast as t^(-1/(2*d*kappa)) up to the statistical
    slack.  status "converged before window" flags an all-zero window (decay
    already complete; trivially passing).
    """

    slope: float
    intercept: float
    window: tuple[int, int]
    theoretical_bound: float
    slack: float
    n_points: int
    status: str = "ok"

    @property
    def passed(self) -> bool:
        if self.status == "converged before window":
            return True
        return self.slope <= self.theoretical_bound + self.slack


def _window(window) -> tuple:
    """fit_rate's window (lo, hi), ValueError unless 0 < lo < hi."""
    if len(window) != 2 or not 0 < window[0] < window[1]:
        raise ValueError("window must satisfy 0 < lo < hi")
    return tuple(window)


def fit_rate(times, norms, window: tuple[int, int], d: int, kappa: int,
             slack: float = 0.05) -> RateFit:
    """Fit log ||z_t|| against log t over a time window.

    Uses only strictly positive norms at strictly positive times inside
    [window[0], window[1]].  Raises when the window retains fewer than two
    points but some norms are positive, for d or kappa not an integer >= 1
    and for a non-finite slack.
    """
    d, kappa = _count(d, "degree cap d"), _count(kappa, "window length kappa")
    slack = _real(slack, "slack")
    times = np.asarray(times, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    if times.shape != norms.shape:
        raise ValueError("times and norms must align")
    lo, hi = _window(window)
    inside = (times >= lo) & (times <= hi) & (times > 0)
    if not np.any(inside):
        raise ValueError("window contains no samples")
    bound = -1.0 / (2.0 * d * kappa)
    keep = inside & (norms > 0.0)
    if not np.any(keep):
        return RateFit(-math.inf, -math.inf, (lo, hi), bound, slack, 0,
                       "converged before window")
    if keep.sum() < 2:
        raise ValueError("need at least two positive samples to fit")
    slope, intercept = np.polyfit(np.log(times[keep]), np.log(norms[keep]), 1)
    return RateFit(float(slope), float(intercept), (lo, hi), bound, slack,
                   int(keep.sum()))


@dataclass(frozen=True)
class MomentReport:
    """Empirical fourth moments of the deviation from the mean process.

    moments[k, i-1] estimates E[(x_{t_k,i} - y_{t_k,i})^4] over the ensemble;
    max_moments takes the worst agent per time; partial_sums accumulates
    max_moments along the checkpoint grid (summability indicator); exponent
    is the log-log slope of max_moments (nan when all checkpoints are zero).
    """

    times: np.ndarray
    moments: np.ndarray
    max_moments: np.ndarray
    partial_sums: np.ndarray
    exponent: float
    n_runs: int


def estimate_deviation_moments(schedule: GraphSchedule, params: SystemParams,
                               horizon: int, n_runs: int, x0=None,
                               times=None) -> MomentReport:
    """Monte-Carlo fourth moments of x_t - y_t on a checkpoint grid.

    Default grid is geometric from t = 100 in half-decades up to the horizon.
    Given times are taken by the record rule of the runs (_record_times:
    integers in [0, horizon], 3.0 is 3, 50.7 an error) and must not be
    empty.  Requires n_runs >= 100 for any reported fit.
    """
    n_runs = _count(n_runs, "n_runs", 100)
    horizon = _count(horizon, "horizon", 0)
    if times is None:
        if horizon < 100:
            raise ValueError("default grid starts at t=100; give times")
        times, e = [], 2.0
        while round(10.0 ** e) <= horizon:
            times.append(round(10.0 ** e))
            e += 0.5
    times = _record_times(horizon, None, times)
    if times.size == 0:
        raise ValueError("need at least one checkpoint time")
    expected = run_expected(schedule, params, int(times[-1]), x0)
    ensemble = run_ensemble(schedule, params, int(times[-1]), n_runs, x0,
                            record_times=times)
    dev = ensemble.means[:, :, 1:] - expected.means[times][None, :, 1:]
    moments = np.mean(dev ** 4, axis=0)
    max_moments = moments.max(axis=1)
    positive = (times > 0) & (max_moments > 0.0)
    if positive.sum() >= 2:
        exponent = float(np.polyfit(np.log(times[positive]),
                                    np.log(max_moments[positive]), 1)[0])
    else:
        exponent = math.nan
    return MomentReport(times, moments, max_moments,
                        np.cumsum(max_moments), exponent, n_runs)


@dataclass(frozen=True)
class CounterexampleVerdict:
    """Replay verification of the alternating trap schedule.

    status is "pass", "fail", or "insufficient horizon" (no completed
    alternation cycle inside the horizon).  min_shifted is the smallest
    truth-shifted mean over both agents and all times; cycle_margins holds
    (k, margin at s_k, margin at t_k); truth_edge_counts counts hears per
    agent within the horizon; trajectory is the replayed mean process.
    """

    status: str
    min_shifted: float
    cycles_realized: int
    cycle_margins: list
    truth_edge_counts: tuple[int, int]
    horizon: int
    trajectory: ExpectedTrajectory = field(repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def counterexample_check(schedule: CounterexampleSchedule,
                         params: SystemParams,
                         horizon: int | None = None) -> CounterexampleVerdict:
    """Re-run the mean recursion over the trap schedule and check its claims.

    Asserts the truth-shifted means never drop below 1, that both defining
    bounds hold at every realized switch pair, and reports per-agent truth
    hears.  Independent of the values recorded at construction: the
    trajectory is recomputed through the generic mean-process path.
    """
    if not isinstance(schedule, CounterexampleSchedule):
        raise ValueError("needs a counterexample schedule")
    horizon = (schedule.horizon if horizon is None
               else _count(horizon, "horizon", 0))
    if horizon > schedule.horizon:
        raise ValueError("horizon beyond the materialized schedule")
    x0 = params.truth + schedule.start
    traj = run_expected(schedule, params, horizon, x0=x0)
    shifted = traj.shifted  # (T+1, 2)
    min_shifted = float(shifted.min())
    margins = []
    ok = min_shifted >= 1.0 - TOL
    for rec in schedule.switches:
        if rec.s_k > horizon:
            break
        m_s = float(shifted[rec.s_k, 0] - rec.bound_at_s)
        m_t = float(shifted[rec.t_k, 1] - rec.bound_at_t)
        margins.append((rec.k, m_s, m_t))
        ok = ok and m_s >= -TOL and m_t >= -TOL
    counts = (sum(1 for t in schedule.truth_times_1 if t < horizon),
              sum(1 for t in schedule.truth_times_2 if t < horizon))
    if not margins:
        return CounterexampleVerdict("insufficient horizon", min_shifted, 0,
                                     [], counts, horizon, traj)
    return CounterexampleVerdict("pass" if ok else "fail", min_shifted,
                                 len(margins), margins, counts, horizon, traj)

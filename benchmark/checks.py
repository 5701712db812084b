"""Correctness checks that do not take the program's word for it.

The reference values here are computed by the benchmark itself, from the
model's definition (a plain numpy mean recurrence, a receive-count tally,
a closed form, a least-squares fit) or are properties every correct
output must have (truth pinned, sup norm non-increasing).  Each check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np

TOL_CLOSED_FORM = 1e-12
TOL_RECURRENCE = 1e-12
TOL_NORM_RISE = 1e-15
SLOPE_SLACK = 0.05
K_SE = 4.0


# -- reference computations ---------------------------------------------

def ring_patterns(n: int, kappa: int) -> list[np.ndarray]:
    """The periodic ring schedule's adjacency for each phase t % kappa.

    Built from the model's definition: agent i receives from its ring
    successor i % n + 1 every step and hears the truth (node 0) when
    t % kappa == i % kappa; row 0 is the truth self-loop.
    """
    patterns = []
    for r in range(kappa):
        a = np.zeros((n + 1, n + 1))
        a[0, 0] = 1.0
        for i in range(1, n + 1):
            if n > 1:
                a[i, i % n + 1] = 1.0
            if i % kappa == r:
                a[i, 0] = 1.0
        patterns.append(a)
    return patterns


def mean_recurrence(patterns, ratio: float, x0, steps: int,
                    truth: float = 0.0) -> np.ndarray:
    """y_0..y_steps of y_{t+1} = (P_t y + A_t y) / (P_t + D_t), row by row.

    Step t uses patterns[t % len(patterns)]; agents that receive nothing
    keep their value and node 0 stays at the truth.
    """
    y = np.array(x0, dtype=np.float64)
    p = np.full(y.size, float(ratio))
    out = np.empty((steps + 1, y.size))
    out[0] = y
    for t in range(steps):
        a = patterns[t % len(patterns)]
        deg = a[1:].sum(axis=1)
        heard = a[1:] @ y
        nxt = y.copy()
        for i in np.flatnonzero(deg > 0):
            nxt[i + 1] = (p[i + 1] * y[i + 1] + heard[i]) / (p[i + 1] + deg[i])
        nxt[0] = truth
        p[1:] += deg
        out[t + 1] = y = nxt
    return out


def receive_ledger(schedule, ratio: float, times) -> np.ndarray:
    """ratio + receive counts over steps t < time, tallied from edges_at."""
    times = np.asarray(times, dtype=np.int64)
    counts = np.zeros(schedule.n + 1)
    out = np.empty((times.size, schedule.n + 1))
    t = 0
    for k in np.argsort(times, kind="stable"):
        while t < times[k]:
            for i, _ in set(schedule.edges_at(t)):
                counts[i] += 1
            t += 1
        out[k] = ratio + counts
    return out


def trap_walk(schedule, horizon: int, ratio: float, start: float):
    """Truth-shifted means of the two-agent trap and each agent's hear times.

    Walks edges_at step by step with scalar arithmetic; returns the
    smallest shifted mean over both agents and all times, and the hear
    times of agents 1 and 2.
    """
    z = [0.0, start, start]
    p = [0.0, ratio, ratio]
    lowest = start
    hears = ([], [])
    for t in range(horizon):
        nxt = list(z)
        for i, j in schedule.edges_at(t):
            nxt[i] = (p[i] * z[i] + z[j]) / (p[i] + 1.0)
            p[i] += 1.0
            if j == 0:
                hears[i - 1].append(t)
        z = nxt
        lowest = min(lowest, z[1], z[2])
    return lowest, hears


def loglog_slope(times, norms, lo: float, hi: float) -> float:
    """Least-squares slope of log norm against log t over [lo, hi]."""
    times = np.asarray(times, dtype=np.float64)
    norms = np.asarray(norms, dtype=np.float64)
    keep = (times >= lo) & (times <= hi) & (norms > 0)
    return float(np.polyfit(np.log(times[keep]), np.log(norms[keep]), 1)[0])


# -- mean process ---------------------------------------------------------

def closed_form(means_agent: np.ndarray) -> list[str]:
    """Criterion 1: one agent hearing the truth every step, y_t = 2/(1+t)."""
    t = np.arange(means_agent.size)
    err = float(np.max(np.abs(means_agent - 2.0 / (1.0 + t))))
    if not err <= TOL_CLOSED_FORM:
        return ["closed form: max error %.3e > %.0e" % (err, TOL_CLOSED_FORM)]
    return []


def matches_recurrence(label: str, means: np.ndarray, own: np.ndarray,
                       truth: float = 0.0) -> list[str]:
    """The program's first rows agree with the reference recurrence."""
    rows = own.shape[0]
    scale = max(float(np.max(np.abs(own[0, 1:] - truth))), 1e-300)
    rel = float(np.max(np.abs(means[:rows] - own))) / scale
    if not rel <= TOL_RECURRENCE:
        return ["%s: differs from the reference recurrence by %.3e relative "
                "over %d steps" % (label, rel, rows - 1)]
    return []


def truth_pinned(label: str, means: np.ndarray, truth: float) -> list[str]:
    if not np.all(means[:, 0] == truth):
        return ["%s: coordinate 0 leaves the truth" % label]
    return []


def norms_non_increasing(label: str, norms: np.ndarray) -> list[str]:
    rise = float(np.max(np.diff(norms), initial=-np.inf))
    if rise > TOL_NORM_RISE:
        return ["%s: sup norm rises by %.3e" % (label, rise)]
    return []


def rate_bound(label: str, times, norms, lo: float, hi: float, d: int,
               kappa: int) -> list[str]:
    slope = loglog_slope(times, norms, lo, hi)
    bound = -1.0 / (2.0 * d * kappa) + SLOPE_SLACK
    if not slope <= bound:
        return ["%s: log-log slope %.4f over [%g, %g] above %.4f"
                % (label, slope, lo, hi, bound)]
    return []


def trap(verdict, lowest: float, hears) -> list[str]:
    """The trap keeps both agents a unit above the truth, hearing it rarely."""
    problems = []
    if verdict.status != "pass":
        problems.append("trap: verdict %r" % verdict.status)
    if not lowest >= 1.0 - 1e-12:
        problems.append("trap: reference shifted mean falls to %r" % lowest)
    if not abs(verdict.min_shifted - lowest) <= 1e-12 * abs(lowest):
        problems.append("trap: min shifted mean %r, reference %r"
                        % (verdict.min_shifted, lowest))
    counts = tuple(len(h) for h in hears)
    if tuple(verdict.truth_edge_counts) != counts:
        problems.append("trap: truth edge counts %s, tallied %s"
                        % (verdict.truth_edge_counts, counts))
    for agent, times in enumerate(hears, 1):
        if len(times) <= 4:
            problems.append("trap: agent %d hears the truth %d times"
                            % (agent, len(times)))
        elif not np.max(np.diff(times)) > 1000:
            problems.append("trap: agent %d never waits > 1000 steps" % agent)
    return problems


# -- ensemble -------------------------------------------------------------

def within_standard_errors(label: str, means: np.ndarray, own: np.ndarray,
                           pooled: bool = False) -> list[str]:
    """Ensemble means lie within K_SE standard errors of the mean process.

    means is (runs, times, n+1), own is (times, n+1).  pooled compares the
    agent-averaged mean at each time, one test per time instead of one
    per agent.  At t = 0, where the runs agree, rounding is allowed.
    """
    x = means[:, :, 1:]
    y = own[:, 1:]
    if pooled:
        x = x.mean(axis=2, keepdims=True)
        y = y.mean(axis=1, keepdims=True)
    err = np.abs(x.mean(axis=0) - y)
    se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    bad = err > np.maximum(K_SE * se, 1e-12 * np.maximum(1.0, np.abs(y)))
    if np.any(bad):
        k, i = np.argwhere(bad)[0]
        return ["%s: ensemble mean off by %.3e at time index %d, agent "
                "slot %d (%.1f standard errors)"
                % (label, err[k, i], k, i, err[k, i] / max(se[k, i], 1e-300))]
    return []


def ledger_matches(label: str, ledger: np.ndarray, own: np.ndarray) -> list[str]:
    if not np.array_equal(ledger, own):
        return ["%s: ledger differs from the tallied receive counts" % label]
    return []


def members_match(label: str, means: np.ndarray, solo: dict) -> list[str]:
    """solo maps run index -> means of a standalone run with that index."""
    bad = [r for r, m in solo.items() if not np.array_equal(means[r], m)]
    if bad:
        return ["%s: members %s differ from their solo runs" % (label, bad)]
    return []


# -- command line ---------------------------------------------------------

def exit_codes(codes: dict, expected: dict) -> list[str]:
    return ["%s exited %r, expected %r" % (k, codes.get(k), v)
            for k, v in expected.items() if codes.get(k) != v]


def report_statuses(text: str) -> dict:
    """{check name: status} from the text report verify.txt writes."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        fields = line.split()
        out[fields[0]] = fields[-1]
    return out


def statuses(label: str, report: dict, api_checks, fault: bool) -> list[str]:
    """The report lists the API's checks; none FAIL unless a fault is injected.

    With the transition fault, exactly the stochasticity and reduction
    checks must read FAIL.
    """
    problems = []
    names = [c.name for c in api_checks]
    if list(report) != names:
        problems.append("%s: report lists %d checks, API gives %d"
                        % (label, len(report), len(names)))
    for name, status in report.items():
        must_fail = fault and name.startswith(("stochasticity[", "reduction["))
        if (status == "FAIL") != must_fail:
            problems.append("%s: %s reads %s" % (label, name, status))
    return problems


def table_equals(label: str, table, columns: dict) -> list[str]:
    """Every named column of a read-back table equals the API's values."""
    problems = []
    for name, want in columns.items():
        got = table.columns.get(name)
        want = np.asarray(want)
        if got is None or got.shape != want.shape:
            problems.append("%s: column %s has shape %s, expected %s"
                            % (label, name, None if got is None else got.shape,
                               want.shape))
        elif not np.array_equal(got, want, equal_nan=_is_float(got, want)):
            problems.append("%s: column %s differs from the API result"
                            % (label, name))
    return problems


def _is_float(*arrays) -> bool:
    return all(a.dtype.kind == "f" for a in arrays)


def slope_matches(label: str, reported: float, own: float) -> list[str]:
    if not abs(reported - own) <= 1e-9 * max(1.0, abs(own)):
        return ["%s: reported slope %r, own fit %r" % (label, reported, own)]
    return []

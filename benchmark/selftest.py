"""Self-test of the benchmark's checks: none of them passes vacuously.

    python3 benchmark/selftest.py

Each check in checks.py is run twice on small outputs of the real
package: once as produced, where it must pass, and once deliberately
corrupted (a perturbed mean, a shifted ledger, a flipped exit code, a
shifted column, ...), where it must fail.  Exits 1 if any check passes
a corrupted output or fails a good one.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import numpy as np

import checks

SRC = Path(__file__).resolve().parent.parent / "src"


def _cases(sb):
    """(check name, problems on good output, problems on corrupted output)."""
    n1 = sb.run_expected(sb.make_periodic_schedule(1, 1), sb.SystemParams(n=1),
                         2000, x0=2.0)
    bumped = n1.means[:, 1].copy()
    bumped[100] += 1e-9
    yield "closed_form", checks.closed_form(n1.means[:, 1]), \
        checks.closed_form(bumped)

    ring = sb.make_periodic_schedule(4, 3, "ring")
    x0 = np.array([1.5, 2.5, 1.0, 3.0])
    traj = sb.run_expected(ring, sb.SystemParams(n=4), 20_000, x0=x0)
    own = checks.mean_recurrence(checks.ring_patterns(4, 3), 1.0,
                                 np.r_[0.0, x0], 300)
    means = traj.means.copy()
    means[200, 2] *= 1 + 1e-10
    yield "matches_recurrence", \
        checks.matches_recurrence("n4", traj.means, own), \
        checks.matches_recurrence("n4", means, own)
    means = traj.means.copy()
    means[5, 0] = 1e-300
    yield "truth_pinned", checks.truth_pinned("n4", traj.means, 0.0), \
        checks.truth_pinned("n4", means, 0.0)
    norms = traj.norms.copy()
    norms[10] = norms[9] + 1e-13
    yield "norms_non_increasing", \
        checks.norms_non_increasing("n4", traj.norms), \
        checks.norms_non_increasing("n4", norms)
    flat = np.full_like(traj.norms, traj.norms[-1])
    yield "rate_bound", \
        checks.rate_bound("n4", traj.times, traj.norms, 1e3, 2e4, 2, 3), \
        checks.rate_bound("n4", traj.times, flat, 1e3, 2e4, 2, 3)

    trap = sb.make_counterexample_schedule(1.0, 20_000)
    verdict = sb.counterexample_check(trap, sb.SystemParams(n=2))
    lowest, hears = checks.trap_walk(trap, 20_000, 1.0, 2.0)
    good = checks.trap(verdict, lowest, hears)
    for label, bad in (
            ("trap/min_shifted", checks.trap(dataclasses.replace(
                verdict, min_shifted=verdict.min_shifted - 1e-9), lowest,
                hears)),
            ("trap/edge_counts", checks.trap(dataclasses.replace(
                verdict, truth_edge_counts=(verdict.truth_edge_counts[0] + 1,
                                            verdict.truth_edge_counts[1])),
                lowest, hears)),
            ("trap/status", checks.trap(dataclasses.replace(
                verdict, status="fail"), lowest, hears)),
            ("trap/few_hears", checks.trap(verdict, lowest,
                                           (hears[0][:4], hears[1]))),
            ("trap/short_gaps", checks.trap(verdict, lowest,
                                            (list(range(0, 5000, 1000)),
                                             hears[1])))):
        yield label, good, bad

    params = sb.SystemParams(n=4, seed=2026)
    times = (0, 10, 100)
    ens = sb.run_ensemble(ring, params, 100, 40, x0=x0, record_times=times)
    own = checks.mean_recurrence(checks.ring_patterns(4, 3), 1.0,
                                 np.r_[0.0, x0], 100)[list(times)]
    means = ens.means.copy()
    means[:, 2, 3] += 0.5
    yield "within_standard_errors", \
        checks.within_standard_errors("n4", ens.means, own), \
        checks.within_standard_errors("n4", means, own)
    means = ens.means.copy()
    means[:, 2, 1:] += 0.5
    yield "within_standard_errors/pooled", \
        checks.within_standard_errors("n4", ens.means, own, pooled=True), \
        checks.within_standard_errors("n4", means, own, pooled=True)
    tally = checks.receive_ledger(ring, 1.0, times)
    shifted = ens.ledger.copy()
    shifted[1:, 1] += 1
    yield "ledger_matches", checks.ledger_matches("n4", ens.ledger, tally), \
        checks.ledger_matches("n4", shifted, tally)
    solo = sb.run_simulation(ring, params, 100, x0=x0, record_times=times,
                             run_index=1).means
    yield "members_match", checks.members_match("n4", ens.means, {1: solo}), \
        checks.members_match("n4", ens.means, {1: solo + 1e-15})

    yield "exit_codes", checks.exit_codes({"verify": 0}, {"verify": 0}), \
        checks.exit_codes({"verify": 1}, {"verify": 0})
    api = sb.check_transition_identities(ring, params, 30) \
        + sb.sweep_window_checks(ring, params, 30, 3)
    text = sb.check_report_text(api)
    flipped = text.replace(" pass", " FAIL", 1)
    yield "statuses", \
        checks.statuses("v", checks.report_statuses(text), api, False), \
        checks.statuses("v", checks.report_statuses(flipped), api, False)
    yield "statuses/fault", \
        checks.statuses("v", checks.report_statuses(flipped.replace(
            " pass", " FAIL", 1)), api, True), \
        checks.statuses("v", checks.report_statuses(text), api, True)

    table = sb.tables.TableData(meta={}, columns={
        "t": np.array([0, 10]), "mean": np.array([2.0, 1.5])})
    want = {"t": [0, 10], "mean": [2.0, 1.5]}
    shifted = sb.tables.TableData(meta={}, columns={
        "t": np.array([0, 10]), "mean": np.array([1.5, 2.0])})
    yield "table_equals", checks.table_equals("t", table, want), \
        checks.table_equals("t", shifted, want)
    yield "slope_matches", checks.slope_matches("r", -0.25, -0.25), \
        checks.slope_matches("r", -0.25 + 1e-6, -0.25)


def main() -> int:
    sys.path.insert(0, str(SRC))
    import socialbayes as sb

    bad = 0
    for name, good, corrupted in _cases(sb):
        ok = not good and bool(corrupted)
        bad += not ok
        print("%-32s %s" % (name, "ok" if ok else
                            "BROKEN good=%s corrupted=%s" % (good, corrupted)))
    print("%s" % ("all checks fail on corrupted output" if not bad
                  else "%d check(s) broken" % bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

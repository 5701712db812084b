"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans live in flat typed arrays
while the run goes on and are written out once, when it ends.  The
benchmark opens spans itself around each case and each CLI call, and
`install` wraps the package's public functions and schedule methods so
that every call into a layer opens a span too, wherever the package
imported the function.  A call into a layer from inside the same layer
(bundle_at calling transition_bundle, say) opens no second span, so
counts and self times are per entry into the layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute, layer).  "Class.method" attributes wrap the method
# on that class only; subclasses that override it are listed separately.
LAYERS = [
    ("schedules", "GraphSchedule.arrays_at", "schedules.query"),
    ("schedules", "GraphSchedule.adjacency_at", "schedules.query"),
    ("schedules", "TableSchedule.edges_at", "schedules.query"),
    ("schedules", "PeriodicSchedule.edges_at", "schedules.query"),
    ("schedules", "RandomSchedule.edges_at", "schedules.query"),
    ("schedules", "CounterexampleSchedule.edges_at", "schedules.query"),
    ("schedules", "CompiledSchedule.block", "schedules.compile"),
    ("schedules", "PeriodicSchedule.cycle_patterns", "schedules.compile"),
    ("schedules", "make_periodic_schedule", "schedules.build"),
    ("schedules", "make_random_schedule", "schedules.build"),
    ("schedules", "make_table_schedule", "schedules.build"),
    ("schedules", "make_counterexample_schedule", "schedules.build"),
    ("config", "build_schedule", "schedules.build"),
    ("expected", "run_expected", "expected.run"),
    ("expected", "transition_bundle", "expected.bundle"),
    ("expected", "bundle_at", "expected.bundle"),
    ("dynamics", "run_ensemble", "dynamics.ensemble"),
    ("dynamics", "run_simulation", "dynamics.ensemble"),
    ("analysis", "check_transition_identities", "analysis.identities"),
    ("analysis", "sweep_window_checks", "analysis.windows"),
    ("analysis", "check_diagonal_bound", "analysis.windows"),
    ("analysis", "check_contraction", "analysis.windows"),
    ("analysis", "check_truth_pull_accumulation", "analysis.windows"),
    ("analysis", "check_product_decay", "analysis.windows"),
    ("analysis", "check_norm_inequalities", "analysis.norms"),
    ("analysis", "fit_rate", "analysis.fit_rate"),
    ("analysis", "counterexample_check", "analysis.counterexample"),
    ("tables", "write_table", "tables.write"),
    ("tables", "write_trajectory", "tables.write"),
    ("tables", "write_expected_trajectory", "tables.write"),
    ("tables", "write_ensemble_summary", "tables.write"),
    ("tables", "write_check_report", "tables.write"),
    ("tables", "write_rate_table", "tables.write"),
    ("tables", "write_rate_report", "tables.write"),
    ("tables", "write_switch_table", "tables.write"),
    ("tables", "read_table", "tables.read"),
    ("tables", "ledger_for_times", "tables.ledger_for_times"),
    ("config", "load_config", "config.load"),
    ("config", "parse_config", "config.load"),
]


class Tracer:
    """Spans in typed arrays plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._stack_names: list[str | None] = [None]
        self._restore: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self._stack_names.append(name)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._stack_names.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_return=None):
        sig = inspect.signature(fn) if on_return is not None else None

        def traced(*args, **kwargs):
            if self._stack_names[-1] == name:
                result = fn(*args, **kwargs)
            else:
                idx = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(self, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sb):
        """Wrap every entry of LAYERS in the loaded package `sb`."""
        modules = [m for key, m in sys.modules.items()
                   if key == sb.__name__ or key.startswith(sb.__name__ + ".")]
        for modname, attr, layer in LAYERS:
            module = sys.modules[sb.__name__ + "." + modname]
            hook = _HOOKS.get(attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(layer, original, hook))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(layer, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def arrays(self):
        """(name ids, parents, starts, ends) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path: Path):
        name_id, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)


def _on_run_expected(tracer, args, result):
    tracer.count("expected.run.steps", int(args["horizon"]))


def _on_ensemble(tracer, args, result):
    tracer.count("dynamics.run_steps",
                 int(args.get("n_runs", 1)) * int(args["horizon"]))


def _on_sweep(tracer, args, result):
    tracer.count("analysis.windows.checks_issued", len(result))
    tracer.count("analysis.windows.checks_gated",
                 sum(1 for c in result if c.gated))


def _on_write_table(tracer, args, result):
    data = Path(result).read_bytes()
    header = 2 if args["fmt"] != "csv" else 2 + len(args["meta"])
    tracer.count("tables.write.bytes", len(data))
    tracer.count("tables.write.rows", data.count(b"\n") - header)


_HOOKS = {
    "run_expected": _on_run_expected,
    "run_ensemble": _on_ensemble,
    "run_simulation": _on_ensemble,
    "sweep_window_checks": _on_sweep,
    "write_table": _on_write_table,
}


def self_times(tracer: Tracer):
    """Per-span duration and self time (duration minus direct children)."""
    name_id, parent, start, end = tracer.arrays()
    duration = end - start
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=duration[has_parent],
                           minlength=duration.size)
    return name_id, parent, duration, duration - children


def layer_totals(tracer: Tracer, first_span: int = 0):
    """{layer: (calls, inclusive s, self s)} over spans from first_span on."""
    name_id, _, duration, own = self_times(tracer)
    totals = {}
    for nid, name in enumerate(tracer.names):
        mask = name_id[first_span:] == nid
        totals[name] = (int(mask.sum()),
                        float(duration[first_span:][mask].sum()),
                        float(own[first_span:][mask].sum()))
    return totals


def inclusive_under(tracer: Tracer, layer: str, ancestor: str,
                    first_span: int = 0) -> float:
    """Inclusive time of `layer` spans that sit under an `ancestor` span."""
    name_id, parent, start, end = tracer.arrays()
    ids = tracer._ids
    if layer not in ids or ancestor not in ids:
        return 0.0
    layer_id, anc_id = ids[layer], ids[ancestor]
    total = 0.0
    for idx in np.flatnonzero(name_id[first_span:] == layer_id) + first_span:
        p = parent[idx]
        while p >= 0 and name_id[p] != anc_id:
            p = parent[p]
        if p >= 0:
            total += end[idx] - start[idx]
    return total


# Per-layer metrics, per timed round: (name, unit, how it is derived).
_SELF = "self"
_CALLS = "calls"
_INCL = "inclusive"
PER_LAYER = [
    ("schedules.query.calls", "count", ("schedules.query", _CALLS)),
    ("schedules.query.self_s", "s", ("schedules.query", _SELF)),
    ("schedules.query.us_per_call", "us", None),
    ("schedules.compile.self_s", "s", ("schedules.compile", _SELF)),
    ("schedules.build.self_s", "s", None),
    ("expected.run.steps", "count", "expected.run.steps"),
    ("expected.run.self_s", "s", ("expected.run", _SELF)),
    ("expected.us_per_step.n1", "us", ("expected.run", "n1")),
    ("expected.us_per_step.n4", "us", ("expected.run", "n4")),
    ("expected.us_per_step.trap", "us", ("expected.run", "trap")),
    ("expected.us_per_step.n100", "us", ("expected.run", "n100")),
    ("expected.bundle.calls", "count", ("expected.bundle", _CALLS)),
    ("expected.bundle.self_s", "s", ("expected.bundle", _SELF)),
    ("dynamics.run_steps", "count", "dynamics.run_steps"),
    ("dynamics.ensemble.self_s", "s", ("dynamics.ensemble", _SELF)),
    ("dynamics.us_per_run_step.n4", "us", ("dynamics.ensemble", "n4")),
    ("dynamics.us_per_run_step.n100", "us", ("dynamics.ensemble", "n100")),
    ("analysis.identities.self_s", "s", ("analysis.identities", _SELF)),
    ("analysis.windows.self_s", "s", ("analysis.windows", _SELF)),
    ("analysis.windows.checks_issued", "count",
     "analysis.windows.checks_issued"),
    ("analysis.windows.checks_gated", "count", "analysis.windows.checks_gated"),
    ("analysis.norms.self_s", "s", ("analysis.norms", _SELF)),
    ("analysis.fit_rate.self_s", "s", ("analysis.fit_rate", _SELF)),
    ("analysis.counterexample.self_s", "s", ("analysis.counterexample", _SELF)),
    ("tables.write.self_s", "s", ("tables.write", _SELF)),
    ("tables.write.bytes", "B", "tables.write.bytes"),
    ("tables.write.rows", "count", "tables.write.rows"),
    ("tables.read.self_s", "s", ("tables.read", _SELF)),
    ("tables.ledger_for_times.self_s", "s",
     ("tables.ledger_for_times", _SELF)),
    ("config.load.self_s", "s", ("config.load", _SELF)),
    ("cli.simulate.s", "s", ("cli.simulate", _INCL)),
    ("cli.expected.s", "s", ("cli.expected", _INCL)),
    ("cli.verify.s", "s", ("cli.verify", _INCL)),
    ("cli.ratefit.s", "s", ("cli.ratefit", _INCL)),
    ("cli.counterexample.s", "s", ("cli.counterexample", _INCL)),
]


def per_layer(tracer: Tracer, first: int, rounds: int, cases):
    """Per-round layer metrics from spans at index first on (the rounds).

    Spans before `first` are the traced set-up; they count towards
    schedules.build.self_s only, which is the set-up's construction time
    plus the rounds' per round.  Counters hold the rounds alone.  A
    us_per_step figure is the inclusive time of the layer's calls inside
    the case of that label, per step of the case; it is 0 on a workload
    without that case.
    """
    rounds_tot = layer_totals(tracer, first)
    setup_tot = layer_totals(tracer)
    steps = {c.label: c.steps for c in cases}

    def total(layer, kind):
        calls, incl, own = rounds_tot.get(layer, (0, 0.0, 0.0))
        return {_CALLS: calls, _INCL: incl, _SELF: own}[kind] / rounds

    metrics = {}
    for name, _, source in PER_LAYER:
        if isinstance(source, str):
            metrics[name] = tracer.counts.get(source, 0) / rounds
        elif source is None:
            continue
        elif source[1] in (_SELF, _CALLS, _INCL):
            metrics[name] = total(*source)
        else:
            layer, label = source
            if label in steps:
                metrics[name] = 1e6 * inclusive_under(
                    tracer, layer, "case:" + label, first) / (
                        rounds * steps[label])
            else:
                metrics[name] = 0.0
    calls = metrics["schedules.query.calls"]
    metrics["schedules.query.us_per_call"] = (
        1e6 * metrics["schedules.query.self_s"] / calls if calls else 0.0)
    setup_build = (setup_tot.get("schedules.build", (0, 0.0, 0.0))[2]
                   - rounds_tot.get("schedules.build", (0, 0.0, 0.0))[2])
    metrics["schedules.build.self_s"] = (
        setup_build + total("schedules.build", _SELF))
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: metrics[name] for name in units}, units

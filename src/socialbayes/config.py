"""Experiment configuration: flat sectioned key-value files.

Sections: [params] (system parameters, master seed, initial means),
[schedule] (graph schedule spec), [run] (horizon, ensemble size,
recording cadence), and optional [verify], [ratefit], [output].  Each
key is declared once, with its converter and its default (... if it is
required), in _TABLE or, past [schedule]'s kind, in _KINDS; a section
holds only the keys declared for it, so a typo cannot fall back to a
default.  The master seed is mandatory: reruns of the same file must be
reproducible, so there is no wall-clock fallback.  Each value is read
through the API's rule for it (_count, _real, initial_state's, fit_rate's
window), and a value that breaks one, or an unreadable file, is a
ConfigError naming its section and key.  Only rules spanning keys are code.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import _window
from .dynamics import SystemParams, initial_state
from .schedules import (
    GraphSchedule,
    _count,
    _peer_edges,
    _real,
    make_counterexample_schedule,
    make_periodic_schedule,
    make_random_schedule,
    make_table_schedule,
)

PEER_RULES = ("none", "ring", "complete", "edges")
CHECK_NAMES = ("identities", "diagonal", "contraction", "truth_pull",
               "decay", "norms")
FAULT_HOOKS = ("none", "transition")


class ConfigError(ValueError):
    """Config problem with section/key context for diagnostics."""

    def __init__(self, message: str, section: str | None = None,
                 key: str | None = None):
        self.section = section
        self.key = key
        where = ""
        if section is not None:
            where = "[%s]" % section + ("." + key if key else "") + ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class ScheduleSpec:
    """Declarative schedule description; build_schedule turns it into arrays."""

    kind: str
    kappa: int | None = None
    peer_rule: str = "none"
    peer_edges: tuple = ()
    edge_probability: float | None = None
    start: float | None = None
    edges: tuple = ()            # explicit-table rows (t, i, j)
    table_horizon: int | None = None


@dataclass(frozen=True)
class VerifySpec:
    checks: tuple = CHECK_NAMES
    kappa: int | None = None
    inject_fault: str = "none"


@dataclass(frozen=True)
class RatefitSpec:
    input: str
    window: tuple
    d: int
    kappa: int
    slack: float = 0.05


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    schedule: ScheduleSpec
    horizon: int
    ensemble: int = 1
    x0: tuple = (0.0,)           # scalar broadcast when length 1
    record_every: int | None = 1
    record_times: tuple | None = None
    verify: VerifySpec = field(default_factory=VerifySpec)
    ratefit: RatefitSpec | None = None
    out_dir: str = "out"


# A converter takes a value's stripped text and its key; _get reports its
# ValueError as "cannot parse", its ConfigError with its own message.
def _text(raw: str, key: str) -> str:
    return raw


def _flag(raw: str, key: str) -> bool:
    """on/off, true/false, yes/no or 1/0, as configparser reads a flag."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("expected on/off") from None


def _as_count(least: int = 1):
    """An int by the API's rule for counts (_count)."""
    return lambda raw, key: _count(int(raw), key, least)


def _as_real(**bounds):
    """A float by the API's rule for reals (_real)."""
    return lambda raw, key: _real(float(raw), key, **bounds)


def _numbers(kind):
    """A tuple of at least one kind, split at spaces and commas."""
    def conv(raw: str, key: str) -> tuple:
        values = tuple(kind(p) for p in raw.replace(",", " ").split())
        if not values:
            raise ValueError("need at least one value")
        return values
    return conv


def _one_of(names: tuple, many: bool = False):
    """One of names, or with many a tuple of any of them split at spaces."""
    def conv(raw: str, key: str):
        for value in raw.split() if many else [raw]:
            if value not in names:
                raise ConfigError("unknown %s %r; expected one of %s"
                                  % (key, value, names))
        return tuple(raw.split()) if many else raw
    return conv


def _lines(form: str):
    """One tuple of integers per line, as many as `form` ('t i j', 'i j')
    names; blank lines and '#' comments are skipped."""
    def conv(raw: str, key: str) -> tuple:
        rows = []
        for lineno, line in enumerate(raw.splitlines(), 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != len(form.split()):
                raise ConfigError("line %d: expected %r, got %r"
                                  % (lineno, form, line.strip()))
            try:
                rows.append(tuple(int(p) for p in parts))
            except ValueError:
                raise ConfigError("line %d: non-integer field in %r"
                                  % (lineno, line.strip())) from None
        return tuple(rows)
    return conv


# [schedule]'s keys past kind, one table per kind, which reads only its own.
_KINDS = {
    "periodic": {"kappa": (_as_count(), ...),
                 "peer_rule": (_one_of(PEER_RULES), "none"),
                 "peer_edges": (_lines("i j"), None)},
    "random": {"kappa": (_as_count(), ...),
               "edge_probability": (_as_real(low=0, high=1), 0.0)},
    "counterexample": {"start": (_as_real(), 2.0)},
    "explicit-table": {
        "edges": (_lines("t i j"), ()),
        "path": (lambda raw, key: _lines("t i j")(_read(raw), key), ()),
        "horizon": (_as_count(0), None)},
}
SCHEDULE_KINDS = tuple(_KINDS)
# section -> key -> (converter, default); ... marks a required key.
_TABLE = {
    "params": {"n": (_as_count(), ...),
               "tau": (_as_real(low=0, strict=True), 1.0),
               "tau0": (_as_real(low=0, strict=True), 1.0),
               "truth": (_as_real(), 0.0), "seed": (_as_count(0), ...),
               "truth_noise": (_flag, True), "x0": (_numbers(float), None)},
    "schedule": {"kind": (_one_of(SCHEDULE_KINDS), ...)},
    "run": {"horizon": (_as_count(0), ...), "ensemble": (_as_count(), 1),
            "record_every": (_as_count(), None),
            "record_times": (_numbers(int), None)},
    "verify": {"checks": (_one_of(CHECK_NAMES, many=True), CHECK_NAMES),
               "kappa": (_as_count(), None),
               "inject_fault": (_one_of(FAULT_HOOKS), "none")},
    "ratefit": {"input": (_text, ...), "window": (
                    lambda raw, key: _window(_numbers(int)(raw, key)), ...),
                "d": (_as_count(), ...), "kappa": (_as_count(), ...),
                "slack": (_as_real(), 0.05)},
    "output": {"directory": (_text, "out"),
               "format": (_one_of(("csv",)), "csv")},
}
# The keys each section may hold; [schedule]'s are those of every kind.
_KEYS = {name: tuple(keys) for name, keys in _TABLE.items()}
_KEYS["schedule"] += tuple({k: 0 for kind in _KINDS.values() for k in kind})


def _get(section, key, conv, default=..., name=""):
    if key not in section:
        if default is ...:
            raise ConfigError("required key missing", name, key)
        return default
    raw = section[key].strip()
    try:
        return conv(raw, key)
    except ConfigError as exc:  # the converter's own message
        raise ConfigError(str(exc), name, key) from None
    except (TypeError, ValueError) as exc:
        raise ConfigError("cannot parse %r (%s)" % (raw, exc), name,
                          key) from None


def _values(cp, section: str, keys: dict) -> dict:
    """[section]'s value of each key in `keys`, a key table.  A section the
    file leaves out reads as empty unless one of its keys is required."""
    if section not in cp and ... in (d for _, d in keys.values()):
        raise ConfigError("section missing", section)
    sec = cp[section] if section in cp else {}
    return {key: _get(sec, key, conv, default, section)
            for key, (conv, default) in keys.items()}


def _schedule(cp, n: int) -> ScheduleSpec:
    kind = _values(cp, "schedule", _TABLE["schedule"])["kind"]
    if kind == "counterexample" and n != 2:
        raise ConfigError("counterexample schedule requires n = 2 "
                          "(got n = %d)" % n, "schedule", "kind")
    spec = _values(cp, "schedule", _KINDS[kind])
    if kind == "periodic":
        rows = spec["peer_edges"]
        if (rows is None) == (spec["peer_rule"] == "edges"):
            raise ConfigError("required key missing" if rows is None else
                              "needs peer_rule = edges", "schedule",
                              "peer_edges")
        try:
            spec["peer_edges"] = tuple(_peer_edges(n, rows or ()))
        except ValueError as exc:
            raise ConfigError(str(exc), "schedule", "peer_edges") from None
    if kind == "explicit-table":
        spec["edges"] += spec.pop("path")  # inline lines, a file, or both
        if not spec["edges"]:
            raise ConfigError("explicit-table needs 'edges' lines or 'path'",
                              "schedule", "kind")
        spec["table_horizon"] = spec.pop("horizon")
    return ScheduleSpec(kind=kind, **spec)


def parse_config(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        # configparser reports the offending line number itself
        raise ConfigError(str(exc))
    for name in cp.sections():
        if name not in _KEYS:
            raise ConfigError("unknown section; expected one of %s"
                              % (tuple(_KEYS),), name)
        for key in cp[name]:
            if key not in _KEYS[name]:
                raise ConfigError("unknown key; expected one of %s"
                                  % (_KEYS[name],), name, key)
    values = _values(cp, "params", _TABLE["params"])
    x0 = values.pop("x0")
    params = SystemParams(**values)
    x0 = x0 or (params.truth,)
    try:
        initial_state(params, x0)
    except ValueError as exc:
        raise ConfigError(str(exc), "params", "x0") from None
    schedule = _schedule(cp, params.n)
    run = _values(cp, "run", _TABLE["run"])
    if run["record_times"] is None:
        run["record_every"] = run["record_every"] or 1
    elif run["record_every"] is not None:
        raise ConfigError("record_every and record_times are exclusive",
                          "run", "record_every")
    return ExperimentConfig(
        params=params, schedule=schedule, x0=x0, **run,
        verify=VerifySpec(**_values(cp, "verify", _TABLE["verify"])),
        ratefit=(RatefitSpec(**_values(cp, "ratefit", _TABLE["ratefit"]))
                 if "ratefit" in cp else None),
        out_dir=_values(cp, "output", _TABLE["output"])["directory"])


def _read(path) -> str:
    """The UTF-8 text of a file; ConfigError if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s (%s)" % (path, exc)) from None


def load_config(path) -> ExperimentConfig:
    return parse_config(_read(path))


def build_schedule(cfg: ExperimentConfig) -> GraphSchedule:
    """Materialize the configured schedule for the configured horizon."""
    p, s = cfg.params, cfg.schedule
    try:
        if s.kind == "periodic":
            peer = s.peer_rule if s.peer_rule != "edges" else s.peer_edges
            return make_periodic_schedule(p.n, s.kappa, peer_rule=peer)
        if s.kind == "random":
            return make_random_schedule(p.n, s.kappa, s.edge_probability,
                                        seed=p.seed)
        if s.kind == "counterexample":
            return make_counterexample_schedule(
                p.ratio, max(cfg.horizon, 1), start=s.start)
        return make_table_schedule(p.n, s.edges, horizon=s.table_horizon)
    except (ValueError, IndexError) as exc:
        raise ConfigError("cannot build %s schedule: %s" % (s.kind, exc),
                          "schedule")

"""Experiment configuration: flat sectioned key-value files.

Sections: [params] (system parameters, master seed, initial means),
[schedule] (graph schedule spec), [run] (horizon, ensemble size,
recording cadence), and optional [verify], [ratefit], [output].  An
unknown section or key is an error, so a typo cannot fall back to a
default.  The master seed is mandatory: reruns of the same file must be
reproducible, so there is no wall-clock fallback.  config keeps no rule
of its own: each value is read through the API's rule for it (_count,
_real, initial_state's, fit_rate's window), and a value that breaks one,
or an unreadable file, is a ConfigError naming its section and key.
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

SCHEDULE_KINDS = ("periodic", "random", "counterexample", "explicit-table")
PEER_RULES = ("none", "ring", "complete", "edges")
CHECK_NAMES = ("identities", "diagonal", "contraction", "truth_pull",
               "decay", "norms")
FAULT_HOOKS = ("none", "transition")

# The keys each section may hold; [schedule]'s are those of every kind.
_KEYS = {
    "params": ("n", "tau", "tau0", "truth", "seed", "truth_noise", "x0"),
    "schedule": ("kind", "kappa", "peer_rule", "peer_edges",
                 "edge_probability", "start", "edges", "path", "horizon"),
    "run": ("horizon", "ensemble", "record_every", "record_times"),
    "verify": ("checks", "kappa", "inject_fault"),
    "ratefit": ("input", "window", "d", "kappa", "slack"),
    "output": ("directory", "format"),
}


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


def _get(section, key, conv, default=..., name=""):
    if key not in section:
        if default is ...:
            raise ConfigError("required key missing", name, key)
        return default
    raw = section[key].strip()
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError("cannot parse %r (%s)" % (raw, exc), name, key)


def _as_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError("expected on/off")


def _as_count(key: str, least: int = 1):
    """A _get converter: an int by the API's rule for counts (_count)."""
    return lambda raw: _count(int(raw), key, least)


def _as_real(key: str, **bounds):
    """A _get converter: a float by the API's rule for reals (_real)."""
    return lambda raw: _real(float(raw), key, **bounds)


def _as_x0(params: SystemParams):
    """A _get converter: initial means, a tuple as initial_state takes it."""
    def conv(raw: str) -> tuple:
        x0 = tuple(float(p) for p in raw.replace(",", " ").split())
        initial_state(params, x0)
        return x0
    return conv


def _as_ints(raw: str) -> tuple:
    return tuple(int(p) for p in raw.replace(",", " ").split())


def _parse_lines(raw: str, name: str, key: str, form: str) -> tuple:
    """One tuple of integers per line, as many as `form` ('t i j', 'i j')
    names; blank lines and '#' comments are skipped."""
    rows = []
    for lineno, line in enumerate(raw.splitlines(), 1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != len(form.split()):
            raise ConfigError("line %d: expected %r, got %r"
                              % (lineno, form, line.strip()), name, key)
        try:
            rows.append(tuple(int(p) for p in parts))
        except ValueError:
            raise ConfigError("line %d: non-integer field in %r"
                              % (lineno, line.strip()), name, key) from None
    return tuple(rows)


def _parse_params(cp) -> tuple:
    if "params" not in cp:
        raise ConfigError("section missing", "params")
    sec = cp["params"]
    name = "params"
    params = SystemParams(
        n=_get(sec, "n", _as_count("n"), name=name),
        tau=_get(sec, "tau", _as_real("tau", low=0, strict=True), 1.0, name),
        tau0=_get(sec, "tau0", _as_real("tau0", low=0, strict=True), 1.0, name),
        truth=_get(sec, "truth", _as_real("truth"), 0.0, name),
        # reproducibility first: the seed has no default
        seed=_get(sec, "seed", _as_count("seed", 0), name=name),
        truth_noise=_get(sec, "truth_noise", _as_bool, True, name))
    return params, _get(sec, "x0", _as_x0(params), (params.truth,), name)


def _parse_schedule(cp, params: SystemParams) -> ScheduleSpec:
    if "schedule" not in cp:
        raise ConfigError("section missing", "schedule")
    sec = cp["schedule"]
    name = "schedule"
    kind = _get(sec, "kind", str, name=name)
    if kind not in SCHEDULE_KINDS:
        raise ConfigError("unknown kind %r; expected one of %s"
                          % (kind, SCHEDULE_KINDS), name, "kind")
    if kind == "periodic":
        kappa = _get(sec, "kappa", _as_count("kappa"), name=name)
        peer_rule = _get(sec, "peer_rule", str, "none", name)
        if peer_rule not in PEER_RULES:
            raise ConfigError("unknown peer_rule %r" % peer_rule, name,
                              "peer_rule")
        peer_edges = ()
        if peer_rule == "edges":
            raw = _get(sec, "peer_edges", str, name=name)
            rows = _parse_lines(raw, name, "peer_edges", "i j")
            try:
                peer_edges = tuple(_peer_edges(params.n, rows))
            except ValueError as exc:
                raise ConfigError(str(exc), name, "peer_edges") from None
        return ScheduleSpec(kind=kind, kappa=kappa, peer_rule=peer_rule,
                            peer_edges=peer_edges)
    if kind == "random":
        kappa = _get(sec, "kappa", _as_count("kappa"), name=name)
        p = _get(sec, "edge_probability",
                 _as_real("edge_probability", low=0, high=1), 0.0, name)
        return ScheduleSpec(kind=kind, kappa=kappa, edge_probability=p)
    if kind == "counterexample":
        if params.n != 2:
            raise ConfigError("counterexample schedule requires n = 2 "
                              "(got n = %d)" % params.n, name, "kind")
        start = _get(sec, "start", _as_real("start"), 2.0, name)
        return ScheduleSpec(kind=kind, start=start)
    # explicit-table: inline edge lines, an external file, or both
    edges = ()
    if "edges" in sec:
        edges += _parse_lines(sec["edges"].strip(), name, "edges", "t i j")
    if "path" in sec:
        edges += _parse_lines(_read(sec["path"].strip(), name, "path"), name,
                              "path", "t i j")
    if not edges:
        raise ConfigError("explicit-table needs 'edges' lines or 'path'",
                          name, "kind")
    table_horizon = _get(sec, "horizon", _as_count("horizon", 0), None, name)
    return ScheduleSpec(kind=kind, edges=edges, table_horizon=table_horizon)


def _parse_run(cp) -> tuple:
    if "run" not in cp:
        raise ConfigError("section missing", "run")
    sec = cp["run"]
    name = "run"
    horizon = _get(sec, "horizon", _as_count("horizon", 0), name=name)
    ensemble = _get(sec, "ensemble", _as_count("ensemble"), 1, name)
    record_times = _get(sec, "record_times", _as_ints, None, name)
    if record_times == ():
        raise ConfigError("need at least one record time", name,
                          "record_times")
    record_every = _get(sec, "record_every", _as_count("record_every"), None,
                        name)
    if record_times is not None and record_every is not None:
        raise ConfigError("record_every and record_times are exclusive",
                          name, "record_every")
    if record_times is None and record_every is None:
        record_every = 1
    return horizon, ensemble, record_every, record_times


def _parse_verify(cp) -> VerifySpec:
    if "verify" not in cp:
        return VerifySpec()
    sec = cp["verify"]
    name = "verify"
    if "checks" in sec:
        names = tuple(sec["checks"].split())
        for c in names:
            if c not in CHECK_NAMES:
                raise ConfigError("unknown check %r; expected subset of %s"
                                  % (c, CHECK_NAMES), name, "checks")
    else:
        names = CHECK_NAMES
    kappa = _get(sec, "kappa", _as_count("kappa"), None, name)
    fault = _get(sec, "inject_fault", str, "none", name)
    if fault not in FAULT_HOOKS:
        raise ConfigError("unknown fault hook %r" % fault, name,
                          "inject_fault")
    return VerifySpec(checks=names, kappa=kappa, inject_fault=fault)


def _parse_ratefit(cp) -> RatefitSpec | None:
    if "ratefit" not in cp:
        return None
    sec = cp["ratefit"]
    name = "ratefit"
    inp = _get(sec, "input", str, name=name)
    window = _get(sec, "window", lambda raw: _window(_as_ints(raw)),
                  name=name)
    d = _get(sec, "d", _as_count("d"), name=name)
    kappa = _get(sec, "kappa", _as_count("kappa"), name=name)
    slack = _get(sec, "slack", _as_real("slack"), 0.05, name)
    return RatefitSpec(input=inp, window=window, d=d, kappa=kappa, slack=slack)


def _parse_output(cp) -> str:
    """The output directory; `format` may only name csv, the one format."""
    if "output" not in cp:
        return "out"
    sec = cp["output"]
    fmt = _get(sec, "format", str, "csv", "output")
    if fmt != "csv":
        raise ConfigError("unknown format %r; tables are csv" % fmt,
                          "output", "format")
    return _get(sec, "directory", str, "out", "output")


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
    params, x0 = _parse_params(cp)
    schedule = _parse_schedule(cp, params)
    horizon, ensemble, record_every, record_times = _parse_run(cp)
    out_dir = _parse_output(cp)
    return ExperimentConfig(
        params=params, schedule=schedule, horizon=horizon, ensemble=ensemble,
        x0=x0, record_every=record_every, record_times=record_times,
        verify=_parse_verify(cp), ratefit=_parse_ratefit(cp),
        out_dir=out_dir,
    )


def _read(path, section: str | None = None, key: str | None = None) -> str:
    """The UTF-8 text of a file; ConfigError if it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s (%s)" % (path, exc), section,
                          key) from None


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
            horizon = max(cfg.horizon, 1)
            return make_counterexample_schedule(p.ratio, horizon,
                                                start=s.start)
        return make_table_schedule(p.n, s.edges, horizon=s.table_horizon)
    except (ValueError, IndexError) as exc:
        raise ConfigError("cannot build %s schedule: %s" % (s.kind, exc),
                          "schedule")

"""Run configuration: a flat key-value document with dotted sections.

Grammar (one setting per line)::

    # full-line comments and blank lines are ignored
    key = value
    section.key = value

Keys are case-sensitive and may appear at most once; unknown keys are hard
errors, not warnings, because a silent typo in a physics parameter is the
costliest failure mode. Command-scoped keys (``build.*``, ``evolve.*``,
``scan.*``, ``verify.*``, ``regime.*``) may only be set when ``command``
selects that section, and a key with an ``only_if`` rule only where a field
of its section takes one of the rule's values (``evolve.alpha`` needs
``evolve.state = coherent``, ``format`` a command other than ``regime``).
Values use the shortest round-trip decimal form for floats,
``true``/``false`` for booleans, ``re+imj`` for complex numbers and
comma-separated items for lists.

Each key is one row of :data:`KEYS` (its :class:`RunConfig` section, field,
parser and rule), in the order :func:`emit_config` writes. Defaults come only
from the dataclasses (``IonParams``, ``DEFAULT_TRUNC``, ``Tolerances``,
``RegimeThresholds``, the ``*Spec`` classes), except that ``format`` follows
the command and ``scan.k_lowest`` is 8 for ``scan.kind = truncation``.

:func:`parse_config` and :func:`emit_config` are inverses on valid
configurations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .algebra import DEFAULT_TRUNC, TruncationSpec
from .analysis import DEFAULT_SEED, Tolerances
from .models import (HAMILTONIAN_BUILDERS, IonParams, RegimeThresholds,
                     is_sideband_resonant, phase_is_zero_or_pi)

COMMANDS = ("build", "verify", "evolve", "scan", "regime", "all-checks")
BUILDER_NAMES = tuple(sorted(HAMILTONIAN_BUILDERS))
VERIFY_CHECKS = ("qrm-transform", "guard", "dispersive", "jc-rabi", "speed", "rotation")
SCAN_KINDS = ("dispersive", "truncation", "lamb-dicke")


class ConfigError(ValueError):
    """Configuration syntax error or constraint violation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class BuildSpec:
    hamiltonian: str = "qrm"
    include_constant: bool = True


@dataclass(frozen=True)
class EvolveSpec:
    hamiltonian: str = "jc"
    state: str = "fock"
    spin: str = "e"
    fock: int = 0
    alpha: complex = 0j
    t_max: float = 10.0
    samples: int = 201
    times: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScanSpec:
    kind: str = "dispersive"
    etas: tuple[float, ...] = (0.08, 0.04, 0.02)
    n_list: tuple[int, ...] = (16, 32, 64)
    k_lowest: int = 10
    builder: str = "qrm"


@dataclass(frozen=True)
class VerifySpec:
    check: str = "qrm-transform"
    fock: int = 0


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: IonParams
    trunc: TruncationSpec
    seed: int = DEFAULT_SEED
    out: str | None = None
    format: str = "json"
    tol: Tolerances = Tolerances()
    build: BuildSpec = BuildSpec()
    evolve: EvolveSpec = EvolveSpec()
    scan: ScanSpec = ScanSpec()
    verify: VerifySpec = VerifySpec()
    regime: RegimeThresholds = RegimeThresholds()


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise ValueError(f"numeric fields must be finite, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}")


def _parse_bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text)
    except ValueError:
        raise ValueError(f"not a complex number: {text!r}")
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError(f"numeric fields must be finite, got {text!r}")
    return value


def _parse_list(text: str, item: Callable[[str], object]) -> tuple:
    parts = [part.strip() for part in text.split(",")]
    if any(not part for part in parts):
        raise ValueError(f"malformed list: {text!r}")
    return tuple(item(part) for part in parts)


def _format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


class _Key(NamedTuple):
    attr: str | None  # RunConfig attribute holding the section; None: a RunConfig field
    field: str
    parse: Callable[[str], object]
    choices: tuple[str, ...] = ()
    only_if: tuple[str, tuple[str, ...]] | None = None  # (section field, values it applies to)

    def applies_to(self, section) -> bool:
        return self.only_if is None or getattr(section, self.only_if[0]) in self.only_if[1]


_FLOATS = partial(_parse_list, item=_parse_float)
_INTS = partial(_parse_list, item=_parse_int)
_TRUNCATION_ONLY = ("kind", ("truncation",))

#: Every configuration key, in the order emit_config writes them.
KEYS: dict[str, _Key] = {
    "command": _Key(None, "command", str, COMMANDS),
    "nu": _Key("params", "nu", _parse_float),
    "Omega": _Key("params", "Omega", _parse_float),
    "eta": _Key("params", "eta", _parse_float),
    "phi_l": _Key("params", "phi_l", _parse_float),
    "delta": _Key("params", "delta", _parse_float),
    "trunc.n_max": _Key("trunc", "n_max", _parse_int),
    "trunc.guard": _Key("trunc", "guard", _parse_int),
    "seed": _Key(None, "seed", _parse_int),
    "format": _Key(None, "format", str, ("csv", "json"),
                   only_if=("command", ("build", "verify", "evolve", "scan", "all-checks"))),
    "tol.identity": _Key("tol", "identity", _parse_float),
    "tol.oracle": _Key("tol", "oracle", _parse_float),
    "tol.spectral": _Key("tol", "spectral", _parse_float),
    "tol.min_order": _Key("tol", "min_scaling_order", _parse_float),
    "out": _Key(None, "out", str),
    "build.hamiltonian": _Key("build", "hamiltonian", str, BUILDER_NAMES),
    "build.include_constant": _Key("build", "include_constant", _parse_bool,
                                   only_if=("hamiltonian", ("qrm",))),
    "evolve.hamiltonian": _Key("evolve", "hamiltonian", str, BUILDER_NAMES),
    "evolve.state": _Key("evolve", "state", str, ("fock", "coherent")),
    "evolve.spin": _Key("evolve", "spin", str, ("e", "g")),
    "evolve.fock": _Key("evolve", "fock", _parse_int, only_if=("state", ("fock",))),
    "evolve.alpha": _Key("evolve", "alpha", _parse_complex, only_if=("state", ("coherent",))),
    "evolve.t_max": _Key("evolve", "t_max", _parse_float),
    "evolve.samples": _Key("evolve", "samples", _parse_int),
    "evolve.times": _Key("evolve", "times", _FLOATS),
    "scan.kind": _Key("scan", "kind", str, SCAN_KINDS),
    "scan.etas": _Key("scan", "etas", _FLOATS, only_if=("kind", ("dispersive", "lamb-dicke"))),
    "scan.n_list": _Key("scan", "n_list", _INTS, only_if=_TRUNCATION_ONLY),
    "scan.k_lowest": _Key("scan", "k_lowest", _parse_int,
                          only_if=("kind", ("dispersive", "truncation"))),
    "scan.builder": _Key("scan", "builder", str, BUILDER_NAMES, only_if=_TRUNCATION_ONLY),
    "verify.check": _Key("verify", "check", str, VERIFY_CHECKS),
    "verify.fock": _Key("verify", "fock", _parse_int, only_if=("check", ("jc-rabi",))),
    "regime.ordering_factor": _Key("regime", "ordering_factor", _parse_float),
    "regime.ultrastrong_onset": _Key("regime", "ultrastrong_onset", _parse_float),
    "regime.dispersive_factor": _Key("regime", "dispersive_factor", _parse_float),
    "regime.resonant_max_g_ratio": _Key("regime", "resonant_max_g_ratio", _parse_float),
}

# RunConfig attribute -> constructor of that section from the keys set in it
_SECTIONS: dict[str, Callable[..., object]] = {
    "params": IonParams,
    "trunc": partial(replace, DEFAULT_TRUNC),
    "tol": Tolerances,
    "build": BuildSpec,
    "evolve": EvolveSpec,
    "scan": ScanSpec,
    "verify": VerifySpec,
    "regime": RegimeThresholds,
}

_REQUIRED = ("command", "Omega", "eta")


def _scope(key: str) -> str | None:
    """The command a key is restricted to, or None for a global key."""
    prefix = key.split(".")[0]
    return prefix if prefix in COMMANDS else None


def _scan_document(text: str) -> dict[str, tuple[str, int]]:
    """Raw key -> (value text, line number); rejects malformed lines and duplicates."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("missing key before '='", lineno)
        if key in raw:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        raw[key] = (value, lineno)
    return raw


def _check_value(key: str, value, line: int | None) -> None:
    choices = KEYS[key].choices
    if choices and value not in choices:
        raise ConfigError(f"{key} must be one of {', '.join(choices)}; got {value!r}", line)
    if KEYS[key].attr == "tol" and value <= 0:
        raise ConfigError(f"constraint violation: {key} > 0", line)


def parse_config(text: str, overrides: tuple[tuple[str, str], ...] = ()) -> RunConfig:
    """Parse a configuration document into a fully validated :class:`RunConfig`.

    ``overrides`` are (key, value-text) pairs applied after the document
    (command-line flags override file values); they go through the same
    grammar and validation.
    """
    raw = _scan_document(text)
    for key, value in overrides:
        raw[key.strip()] = (value.strip(), None)

    values: dict[str, object] = {}
    lines: dict[str, int | None] = {}
    for key, (value_text, lineno) in raw.items():
        if key not in KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        try:
            values[key] = KEYS[key].parse(value_text)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}", lineno)
        lines[key] = lineno

    for key in _REQUIRED:
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")

    command = values["command"]
    _check_value("command", command, lines["command"])
    for key in values:
        scope = _scope(key)
        if scope is not None and scope != command:
            raise ConfigError(
                f"key {key!r} applies to command {scope!r}, not {command!r}", lines[key]
            )
    if command in ("evolve", "scan"):
        values.setdefault("format", "csv")
    if values.get("scan.kind") == "truncation":
        values.setdefault("scan.k_lowest", 8)

    # table order: each section's keys are checked, then the section is built, so an
    # input with several errors always reports the same first one
    fields: dict[str, object] = {}
    for attr, group in groupby(KEYS.items(), key=lambda item: item[1].attr):
        group = [(key, spec) for key, spec in group if key in values]
        section_fields = {}
        for key, spec in group:
            _check_value(key, values[key], lines.get(key))
            section_fields[spec.field] = values[key]
        if attr is None:
            fields.update(section_fields)
            section = SimpleNamespace(**fields)
        else:
            try:
                section = fields[attr] = _SECTIONS[attr](**section_fields)
            except ValueError as exc:
                raise ConfigError(f"constraint violation: {exc}")
        prefix = "" if attr is None else f"{attr}."
        for key, spec in group:
            if not spec.applies_to(section):
                field, allowed = spec.only_if
                raise ConfigError(
                    f"{key} applies only to {prefix}{field} = {' or '.join(allowed)}", lines[key]
                )

    config = RunConfig(**fields)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    """Constraint checks against the target command, before any computation."""
    c = config
    if c.command == "evolve":
        if c.format != "csv":
            raise ConfigError("constraint violation: evolve emits csv (format = csv)")
        if c.evolve.fock < 0:
            raise ConfigError("constraint violation: evolve.fock >= 0")
        if c.evolve.fock >= c.trunc.n_max:
            raise ConfigError("constraint violation: evolve.fock < trunc.n_max")
        times = c.evolve.times or ()
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError("constraint violation: evolve.times strictly increasing")
        if c.evolve.t_max <= 0:
            raise ConfigError("constraint violation: evolve.t_max > 0")
        if c.evolve.samples < 2:
            raise ConfigError("constraint violation: evolve.samples >= 2")
        _builder_preconditions(c.evolve.hamiltonian, c)
    elif c.command == "build":
        if c.format != "json":
            raise ConfigError("constraint violation: build emits json (format = json)")
        _builder_preconditions(c.build.hamiltonian, c)
    elif c.command in ("verify", "all-checks"):
        if c.format != "json":
            raise ConfigError(
                f"constraint violation: {c.command} emits json (format = json)"
            )
        if c.command == "verify":
            _verify_preconditions(c)
    elif c.command == "scan":
        if c.scan.kind in ("dispersive", "lamb-dicke"):
            if len(c.scan.etas) < 2:
                raise ConfigError("constraint violation: scan.etas needs >= 2 entries")
            if any(e <= 0 for e in c.scan.etas):
                raise ConfigError("constraint violation: scan.etas > 0")
            if any(b >= a for a, b in zip(c.scan.etas, c.scan.etas[1:])):
                raise ConfigError("constraint violation: scan.etas strictly decreasing")
        else:
            if len(c.scan.n_list) < 2:
                raise ConfigError("constraint violation: scan.n_list needs >= 2 entries")
            if any(n < 1 for n in c.scan.n_list):
                raise ConfigError("constraint violation: scan.n_list >= 1")
            if any(b <= a for a, b in zip(c.scan.n_list, c.scan.n_list[1:])):
                raise ConfigError("constraint violation: scan.n_list strictly increasing")
        if c.scan.k_lowest < 1:
            raise ConfigError("constraint violation: scan.k_lowest >= 1")


def _builder_preconditions(name: str, c: RunConfig) -> None:
    p = c.params
    if name == "resonant" and p.delta != 0.0:
        raise ConfigError("constraint violation: resonant requires delta = 0")
    if name == "rabi-rotated" and not phase_is_zero_or_pi(p.phi_l):
        raise ConfigError("constraint violation: rabi-rotated requires phi_l in {0, pi}")


def _verify_preconditions(c: RunConfig) -> None:
    p = c.params
    check = c.verify.check
    if check == "qrm-transform" and (p.phi_l != 0.0 or p.delta != 0.0):
        raise ConfigError("constraint violation: qrm-transform requires phi_l = 0 and delta = 0")
    if check == "guard" and p.eta < 0.3:
        raise ConfigError("constraint violation: guard demonstration requires eta >= 0.3")
    if check == "jc-rabi":
        if not is_sideband_resonant(p):
            raise ConfigError("constraint violation: jc-rabi requires nu = 2*Omega")
        if p.eta <= 0 or p.Omega <= 0:
            raise ConfigError("constraint violation: jc-rabi requires eta > 0 and Omega > 0")
        if c.verify.fock >= c.trunc.n_max - c.trunc.guard:
            raise ConfigError("constraint violation: verify.fock < n_max - guard")


def _emit_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, complex):
        return _format_complex(value)
    if isinstance(value, tuple):
        return ",".join(_emit_value(v) for v in value)
    return str(value)


def emit_config(config: RunConfig) -> str:
    """Serialize a :class:`RunConfig` to the canonical document form.

    Only globally applicable keys plus the active command's section are
    written, and no unset optional key (``out``, ``evolve.times``) or key
    whose ``only_if`` rule fails (``format`` for ``regime``,
    ``build.include_constant`` off ``qrm``, ``evolve.alpha`` for a Fock
    start, ``scan.etas`` for ``scan.kind = truncation``, ...);
    ``parse_config(emit_config(c)) == c`` for every valid config.
    """
    out = []
    for key, spec in KEYS.items():
        if _scope(key) not in (None, config.command):
            continue
        section = config if spec.attr is None else getattr(config, spec.attr)
        value = getattr(section, spec.field)
        if value is None or not spec.applies_to(section):
            continue
        out.append(f"{key} = {_emit_value(value)}")
    return "\n".join(out) + "\n"

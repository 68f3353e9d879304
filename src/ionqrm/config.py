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
of its section takes one of the rule's values, or is unset where the rule
says so (``evolve.alpha`` needs ``evolve.state = coherent``, ``format`` a
command other than ``regime``, ``seed`` the command ``all-checks``,
``evolve.t_max`` and ``evolve.samples`` an unset ``evolve.times``).
A key set that what the command runs never reads is an error, and so is a
nonzero ``delta`` or ``phi_l`` it never reads (:data:`RUN_SKIPS`). A command
emits one of the formats :data:`FORMATS` lists for it, the first by default.
Every other rule on the values of a run is one row of :data:`_RULES`, so the
whole configuration is checked before any computation.
Values use the shortest round-trip decimal form for floats,
``true``/``false`` for booleans, ``re+imj`` for complex numbers and
comma-separated items for lists.

Each key is one row of :data:`KEYS` (its :class:`RunConfig` section, field,
parser and rule), in the order :func:`emit_config` writes, and each field has
exactly one key: a setting no key reaches, such as a check's gate bound, is a
constant of :mod:`ionqrm.analysis`. Defaults come only from the record classes
(``IonParams``, ``DEFAULT_TRUNC``, ``RegimeThresholds``, the ``*Spec``
classes), except that ``format`` follows :data:`FORMATS` and a
:data:`CHECKS` row may set its own. Each ``verify.check`` and ``scan.kind`` is a
:data:`CHECKS` row; the keys' choices, the ``only_if`` rules of the keys the rows
take and the rows' :data:`RUN_SKIPS` entries are all read from :data:`CHECKS`.

:func:`parse_config` and :func:`emit_config` are inverses on valid
configurations.
"""
from __future__ import annotations

import math
from functools import partial
from itertools import groupby
from operator import lt
from types import SimpleNamespace
from collections.abc import Callable

from .params import (DEFAULT_SEED, DEFAULT_TRUNC, MAX_SMALL_ROTATION, IonParams, Record,
                     RegimeThresholds, TruncationSpec, derived_couplings, is_sideband_resonant,
                     laser_phase_sign)

COMMANDS = ("build", "verify", "evolve", "scan", "regime", "all-checks")
#: The formats each command emits, its default first; ``regime`` prints text.
FORMATS: dict[str, tuple[str, ...]] = {
    "build": ("json",), "verify": ("json",), "evolve": ("csv",), "scan": ("csv", "json"),
    "all-checks": ("json",),
}
#: The key that selects what a command runs, for the commands that run a :data:`CHECKS` row.
SELECTORS = {"verify": "verify.check", "scan": "scan.kind"}
_DELTA_PHI = ("delta", "phi_l")


class _Check(Record):
    function: str  # the ionqrm.analysis function, looked up by name when the command runs
    settings: tuple[str, ...]  # what it is passed, in order: keys or RunConfig sections
    skips: tuple[str, ...]  # its RUN_SKIPS row
    defaults: tuple[tuple[str, object], ...] = ()  # (key, its value when unset)
    # a scan's CSV: the setting with a line per value, header, metric ({0} value, {1} previous)
    csv: tuple[str, str, str] | None = None


_DISPERSIVE = _Check(
    "dispersive_error_scan", ("params", "scan.etas", "trunc", "scan.k_lowest"), _DELTA_PHI,
    csv=("scan.etas", "eta,spectral_distance", "distance_eta_{0}"))
#: One row per ``verify.check`` and ``scan.kind``, keyed by (command, name), in the order
#: of each one's choices. ``verify dispersive`` is the JSON ``scan dispersive``.
CHECKS: dict[tuple[str, str], _Check] = {
    ("verify", "qrm-transform"): _Check("qrm_transform_check", ("params", "trunc"), _DELTA_PHI),
    ("verify", "guard"): _Check("guard_necessity_check", ("params", "trunc.n_max"),
                                (*_DELTA_PHI, "trunc.guard")),
    ("verify", "dispersive"): _DISPERSIVE,
    ("verify", "jc-rabi"): _Check("jc_rabi_experiment", ("params", "verify.fock", "trunc"),
                                  _DELTA_PHI),
    ("verify", "speed"): _Check("speed_comparison", ("params",), (*_DELTA_PHI, "trunc")),
    ("verify", "rotation"): _Check("rotation_diagnostic_check", ("params", "trunc"),
                                   (*_DELTA_PHI, "trunc.guard")),
    ("scan", "dispersive"): _DISPERSIVE,
    ("scan", "truncation"): _Check(
        "truncation_convergence", ("scan.builder", "params", "scan.n_list", "scan.k_lowest"),
        ("trunc",), defaults=(("scan.k_lowest", 8),),
        csv=("scan.n_list", "n_max,max_shift_from_prev", "shift_{1}_to_{0}")),
    ("scan", "lamb-dicke"): _Check("lamb_dicke_remainder_scan", ("params", "scan.etas"),
                                   (*_DELTA_PHI, "trunc"),
                                   csv=("scan.etas", "eta,remainder_norm", "norm_eta_{0}")),
}
VERIFY_CHECKS, SCAN_KINDS = (tuple(name for c, name in CHECKS if c == s) for s in SELECTORS)
# the RUN_SKIPS row name of each CHECKS row -> the row
_SELECTED = {f"{SELECTORS[command]} = {name}": check for (command, name), check in CHECKS.items()}
#: What each run never reads: a row per Hamiltonian builder (the keys of
#: ``models.HAMILTONIAN_BUILDERS``), per :data:`CHECKS` row (its ``skips``) and per other
#: command. :func:`_runs` gives a run's rows, so the truncation scan is its
#: ``scan.builder`` and ``scan.kind = truncation``. An entry is a :class:`RunConfig`
#: section or one key, and setting it is a ConfigError; for ``delta`` and ``phi_l``,
#: which always hold a value, a nonzero value is. ``jc``, ``ajc`` and ``zero`` have no
#: trap term ``nu``, ``regime`` never uses ``trunc``, ``evolve`` reads only
#: ``trunc.n_max`` and ``all-checks`` runs each check at its own points.
RUN_SKIPS: dict[str, tuple[str, ...]] = {
    "resonant": ("delta",),
    "lamb-dicke": ("delta",),
    "rabi-rotated": ("delta",),
    "jc": (*_DELTA_PHI, "nu"),
    "ajc": (*_DELTA_PHI, "nu"),
    "qrm": _DELTA_PHI,
    "qrm-detuned": ("phi_l",),
    "dispersive": _DELTA_PHI,
    "zero": (*_DELTA_PHI, "nu"),
    **{selector: check.skips for selector, check in _SELECTED.items()},
    "command = build": (),
    "command = evolve": ("trunc.guard",),
    "command = regime": ("delta", "trunc"),
    "command = all-checks": (*_DELTA_PHI, "nu"),
}
BUILDER_NAMES = tuple(sorted(run for run in RUN_SKIPS if " = " not in run))


class ConfigError(ValueError):
    """Configuration syntax error or constraint violation."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class BuildSpec(Record):
    hamiltonian: str = "qrm"
    include_constant: bool = True


class EvolveSpec(Record):
    hamiltonian: str = "jc"
    state: str = "fock"
    spin: str = "e"
    fock: int = 0
    alpha: complex = 0j
    t_max: float = 10.0
    samples: int = 201
    times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # checked here, with the section, so a bad value is reported as such
        # before the rule that t_max and samples apply only without times
        if self.t_max <= 0:
            raise ValueError("evolve.t_max > 0")
        if self.samples < 2:
            raise ValueError("evolve.samples >= 2")


class ScanSpec(Record):
    kind: str = "dispersive"
    etas: tuple[float, ...] = (0.08, 0.04, 0.02)
    n_list: tuple[int, ...] = (16, 32, 64)
    k_lowest: int = 10
    builder: str = "qrm"


class VerifySpec(Record):
    check: str = "qrm-transform"
    fock: int = 0


class RunConfig(Record):
    command: str
    params: IonParams
    trunc: TruncationSpec
    seed: int = DEFAULT_SEED
    out: str | None = None
    format: str = "json"
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


class _Key(Record):
    attr: str | None  # RunConfig attribute holding the section; None: a RunConfig field
    field: str
    parse: Callable[[str], object]
    choices: tuple[str, ...] = ()
    # (section field, the values it applies to); a value None stands for "field unset"
    only_if: tuple[str, tuple[str | None, ...]] | None = None

    def applies_to(self, section) -> bool:
        return self.only_if is None or getattr(section, self.only_if[0]) in self.only_if[1]


def _taken_by(key: str) -> tuple[str, tuple[str, ...]]:
    """The only_if rule of a key that some :data:`CHECKS` rows of its command take."""
    command = key.partition(".")[0]
    return SELECTORS[command].partition(".")[2], tuple(
        name for (c, name), check in CHECKS.items() if c == command and key in check.settings)


_FLOATS = partial(_parse_list, item=_parse_float)
_INTS = partial(_parse_list, item=_parse_int)
_WITHOUT_TIMES = ("times", (None,))  # an explicit grid replaces t_max and samples

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
    "seed": _Key(None, "seed", _parse_int, only_if=("command", ("all-checks",))),
    "format": _Key(None, "format", str, ("csv", "json"), only_if=("command", tuple(FORMATS))),
    "out": _Key(None, "out", str),
    "build.hamiltonian": _Key("build", "hamiltonian", str, BUILDER_NAMES),
    "build.include_constant": _Key("build", "include_constant", _parse_bool,
                                   only_if=("hamiltonian", ("qrm",))),
    "evolve.hamiltonian": _Key("evolve", "hamiltonian", str, BUILDER_NAMES),
    "evolve.state": _Key("evolve", "state", str, ("fock", "coherent")),
    "evolve.spin": _Key("evolve", "spin", str, ("e", "g")),
    "evolve.fock": _Key("evolve", "fock", _parse_int, only_if=("state", ("fock",))),
    "evolve.alpha": _Key("evolve", "alpha", _parse_complex, only_if=("state", ("coherent",))),
    "evolve.t_max": _Key("evolve", "t_max", _parse_float, only_if=_WITHOUT_TIMES),
    "evolve.samples": _Key("evolve", "samples", _parse_int, only_if=_WITHOUT_TIMES),
    "evolve.times": _Key("evolve", "times", _FLOATS),
    "scan.kind": _Key("scan", "kind", str, SCAN_KINDS),
    "scan.etas": _Key("scan", "etas", _FLOATS, only_if=_taken_by("scan.etas")),
    "scan.n_list": _Key("scan", "n_list", _INTS, only_if=_taken_by("scan.n_list")),
    "scan.k_lowest": _Key("scan", "k_lowest", _parse_int, only_if=_taken_by("scan.k_lowest")),
    "scan.builder": _Key("scan", "builder", str, BUILDER_NAMES,
                         only_if=_taken_by("scan.builder")),
    "verify.check": _Key("verify", "check", str, VERIFY_CHECKS),
    "verify.fock": _Key("verify", "fock", _parse_int, only_if=_taken_by("verify.fock")),
    "regime.ordering_factor": _Key("regime", "ordering_factor", _parse_float),
    "regime.ultrastrong_onset": _Key("regime", "ultrastrong_onset", _parse_float),
    "regime.dispersive_factor": _Key("regime", "dispersive_factor", _parse_float),
    "regime.resonant_max_g_ratio": _Key("regime", "resonant_max_g_ratio", _parse_float),
}

# RunConfig attribute -> constructor of that section from the keys set in it
_SECTIONS: dict[str, Callable[..., object]] = {
    "params": IonParams,
    "trunc": DEFAULT_TRUNC.replace,
    "build": BuildSpec,
    "evolve": EvolveSpec,
    "scan": ScanSpec,
    "verify": VerifySpec,
    "regime": RegimeThresholds,
}

_REQUIRED = ("command", "Omega", "eta")
# the selector of a run that runs a Hamiltonian builder -> the key that names it
_BUILDER_KEYS = {"command = build": "build.hamiltonian", "command = evolve": "evolve.hamiltonian",
                 **{run: key for run, check in _SELECTED.items() for key in check.settings
                    if key in KEYS and KEYS[key].choices == BUILDER_NAMES}}


def _increasing(values: tuple) -> bool:
    return all(map(lt, values, values[1:]))


def _small_rotations(c: RunConfig) -> bool:
    """Both small-rotation angles within MAX_SMALL_ROTATION at every ``scan.etas`` value;
    tested after the pole row, as the angles are undefined at 2*Omega = nu."""
    return all(
        max(abs(d.eps_counter), abs(d.eps_co)) <= MAX_SMALL_ROTATION
        for d in map(derived_couplings, (c.params.replace(eta=eta) for eta in c.scan.etas)))


#: Every rule on the values of a built config, in the order they are checked: (where,
#: test, rule). A row applies where ``where`` is one of the run's :data:`RUN_SKIPS` rows
#: or a setting that the :data:`CHECKS` row it runs takes, and a config it applies to that
#: fails ``test`` is the ConfigError ``constraint violation: <rule>``.
_RULES: tuple[tuple[str, Callable[[RunConfig], bool], str], ...] = (
    ("verify.check = guard", lambda c: c.params.eta >= 0.3,
     "guard demonstration requires eta >= 0.3"),
    ("verify.check = jc-rabi", lambda c: is_sideband_resonant(c.params),
     "jc-rabi requires nu = 2*Omega"),
    ("verify.check = jc-rabi", lambda c: min(c.params.eta, c.params.Omega) > 0,
     "jc-rabi requires eta > 0 and Omega > 0"),
    ("scan.etas", lambda c: len(c.scan.etas) >= 2, "scan.etas needs >= 2 entries"),
    ("scan.etas", lambda c: min(c.scan.etas) > 0, "scan.etas > 0"),
    ("scan.etas", lambda c: _increasing(c.scan.etas[::-1]), "scan.etas strictly decreasing"),
    ("scan.n_list", lambda c: len(c.scan.n_list) >= 2, "scan.n_list needs >= 2 entries"),
    ("scan.n_list", lambda c: min(c.scan.n_list) >= 1, "scan.n_list >= 1"),
    ("scan.n_list", lambda c: _increasing(c.scan.n_list), "scan.n_list strictly increasing"),
    ("scan.k_lowest", lambda c: c.scan.k_lowest >= 1, "scan.k_lowest >= 1"),
    ("verify.fock", lambda c: c.verify.fock >= 0, "verify.fock >= 0"),
    ("verify.fock", lambda c: c.verify.fock < c.trunc.interior_dim, "verify.fock < n_max - guard"),
    ("command = evolve", lambda c: c.evolve.fock >= 0, "evolve.fock >= 0"),
    ("command = evolve", lambda c: c.evolve.fock < c.trunc.n_max, "evolve.fock < trunc.n_max"),
    ("command = evolve", lambda c: _increasing(c.evolve.times or ()),
     "evolve.times strictly increasing"),
    # premises that ionqrm.analysis and params.derived_couplings check again for Python
    # callers, as ValueError and ResonancePoleError
    *((run, lambda c: not is_sideband_resonant(c.params),
       "the dispersive couplings need nu != 2*Omega")
      for run in ("dispersive", "verify.check = dispersive", "scan.kind = dispersive")),
    *((run, test, rule) for run in ("verify.check = dispersive", "scan.kind = dispersive")
      for test, rule in ((lambda c: c.scan.k_lowest <= 2 * c.trunc.interior_dim,
                          "scan.k_lowest <= 2 * (trunc.n_max - trunc.guard)"),
                         (_small_rotations, f"small-rotation angles <= {MAX_SMALL_ROTATION} "
                                            "at every scan.etas value"))),
    ("scan.kind = truncation", lambda c: c.scan.k_lowest <= 2 * c.scan.n_list[0],
     "scan.k_lowest <= 2 * scan.n_list[0]"),
    # at Omega = 0 the Lamb-Dicke remainder vanishes identically: no order to fit
    ("scan.kind = lamb-dicke", lambda c: c.params.Omega > 0, "lamb-dicke scan requires Omega > 0"),
    ("command = all-checks", lambda c: c.seed >= 0, "seed >= 0"),
)


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


def parse_config(text: str, overrides: tuple[tuple[str, str], ...] = ()) -> RunConfig:
    """Parse a configuration document into a fully validated :class:`RunConfig`.

    ``overrides`` are (key, value-text) pairs applied after the document
    (command-line flags override file values); they go through the same
    grammar and validation. A key may appear once among them, as in a document.
    """
    raw, given = _scan_document(text), {}
    for key, value in overrides:
        key = key.strip()
        if key in given:
            raise ConfigError(f"duplicate key {key!r}")
        given[key] = (value.strip(), None)
    raw.update(given)

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

    for key in _REQUIRED:  # "command" first: an unknown command is named before a missing key
        if key not in values:
            raise ConfigError(f"missing required key {key!r}")
        if key == "command":
            _check_value(key, values[key], lines[key])

    command = values["command"]
    for key in values:
        scope = _scope(key)
        if scope is not None and scope != command:
            raise ConfigError(
                f"key {key!r} applies to command {scope!r}, not {command!r}", lines[key]
            )
    if command in FORMATS:
        values.setdefault("format", FORMATS[command][0])
    # a run that never reads trunc.guard, or no trunc key, holds guard 0 in its section, so
    # trunc.n_max is not checked against the default guard (a name not checked yet may
    # have no row)
    runs = _runs(lambda key: values[key] if key in values else _value(RunConfig, key))
    unguarded = any({"trunc", "trunc.guard"} & {*RUN_SKIPS.get(run, ())} for run in runs)
    for key, value in next((_SELECTED[run].defaults for run in runs if run in _SELECTED), ()):
        values.setdefault(key, value)  # the defaults of the CHECKS row the command runs

    # table order: each section's keys are checked, then the section is built, so an
    # input with several errors always reports the same first one
    fields: dict[str, object] = {}
    for attr, group in groupby(KEYS.items(), key=lambda item: item[1].attr):
        group = [(key, spec) for key, spec in group if key in values]
        section_fields = {}
        for key, spec in group:
            _check_value(key, values[key], lines.get(key))
            section_fields[spec.field] = values[key]
        if attr == "trunc" and unguarded:
            section_fields.setdefault("guard", 0)
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
                values = " or ".join("unset" if v is None else v for v in allowed)
                raise ConfigError(
                    f"{key} applies only to {prefix}{field} = {values}", lines[key]
                )

    config = RunConfig(**fields)
    _validate(config, runs, lines)
    return config


def _validate(c: RunConfig, runs: tuple[str, ...], lines: dict[str, int | None]) -> None:
    """Every rule on a built config, before any computation: the command's format, the
    :data:`_RULES` rows that apply, then a nonzero delta or phi_l, or a key set, that
    ``runs`` would drop, and the phase of ``rabi-rotated``.

    ``runs`` are the skip rows of what the command runs (:func:`_runs`) and
    ``lines`` maps each key the input set to its line number.
    """
    if c.command in FORMATS and c.format not in FORMATS[c.command]:
        f = FORMATS[c.command][0]
        raise ConfigError(f"constraint violation: {c.command} emits {f} (format = {f})")
    names = set(runs).union(*(_SELECTED[run].settings for run in runs if run in _SELECTED))
    for where, test, rule in _RULES:
        if where in names and not test(c):
            raise ConfigError(f"constraint violation: {rule}")
    for param in _DELTA_PHI:
        run = next((run for run in runs if param in RUN_SKIPS[run]), None)
        if run is not None and getattr(c.params, param) != 0.0:
            raise ConfigError(f"constraint violation: {run} requires {param} = 0")
    for key, line in lines.items():
        run = _skipping_run(runs, key)
        if run is not None:
            raise ConfigError(f"{key} is not read by {run}", line)
    if runs[0] == "rabi-rotated" and laser_phase_sign(c.params.phi_l) is None:
        raise ConfigError("constraint violation: rabi-rotated requires phi_l in {0, pi}")


def _value(config: RunConfig, key: str):
    """The value ``config`` holds for ``key``, or its section ``key`` if that is no key."""
    if key not in KEYS:
        return getattr(config, key)
    spec = KEYS[key]
    return getattr(config if spec.attr is None else getattr(config, spec.attr), spec.field)


def selected_check(config: RunConfig) -> tuple[_Check, dict[str, object]]:
    """The :data:`CHECKS` row a verify or scan config runs, and its settings' values."""
    check = CHECKS[config.command, _value(config, SELECTORS[config.command])]
    return check, {key: _value(config, key) for key in check.settings}


def _runs(setting: Callable[[str], object]) -> tuple[str, ...]:
    """The :data:`RUN_SKIPS` rows of what the command runs: its builder, if any, then
    the setting that selects it. ``setting(key)`` is the value of ``key``."""
    command = setting("command")
    key = SELECTORS.get(command, "command")
    selector = f"{key} = {setting(key)}"
    if selector in _BUILDER_KEYS:
        return setting(_BUILDER_KEYS[selector]), selector
    return (selector,)


def _skipping_run(runs: tuple[str, ...], key: str) -> str | None:
    """The first of ``runs`` whose skip row names ``key`` or its section; None for
    ``delta`` and ``phi_l``, whose entries rule on the value, not on the key set."""
    if key in _DELTA_PHI:
        return None
    return next((run for run in runs
                 if key in RUN_SKIPS[run] or KEYS[key].attr in RUN_SKIPS[run]), None)


def _emit_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return f"{value.real!r}{'+' if value.imag >= 0 else '-'}{abs(value.imag)!r}j"
    if isinstance(value, tuple):
        return ",".join(_emit_value(v) for v in value)
    return str(value)  # an int, a name or a float, whose str is its shortest round-trip form


def emit_config(config: RunConfig) -> str:
    """Serialize a :class:`RunConfig` to the canonical document form.

    Only globally applicable keys plus the active command's section are
    written, and no unset optional key (``out``, ``evolve.times``), key whose
    ``only_if`` rule fails (``format`` for ``regime``, ``evolve.alpha`` for a
    Fock start, ...) or key that :data:`RUN_SKIPS` names for the run;
    ``parse_config(emit_config(c)) == c`` for every valid config.
    """
    runs = _runs(partial(_value, config))
    out = []
    for key, spec in KEYS.items():
        if _scope(key) not in (None, config.command) or _skipping_run(runs, key) is not None:
            continue
        section = config if spec.attr is None else getattr(config, spec.attr)
        value = getattr(section, spec.field)
        if value is None or not spec.applies_to(section):
            continue
        out.append(f"{key} = {_emit_value(value)}")
    return "\n".join(out) + "\n"

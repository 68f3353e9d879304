"""Tests for the configuration grammar and round-tripping."""
import re
import typing
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ionqrm import (HAMILTONIAN_BUILDERS, ConfigError, IonParams, TruncationSpec, emit_config,
                    parse_config)
from ionqrm.config import (_RULES, CHECKS, COMMANDS, KEYS, RUN_SKIPS, SCAN_KINDS, VERIFY_CHECKS,
                           RunConfig)
from ionqrm.params import Record


def test_minimal_document_gets_defaults():
    cfg = parse_config("command = verify\nnu = 1\nOmega = 0.7\neta = 0.3\n")
    assert cfg.command == "verify"
    assert cfg.trunc.n_max == 64 and cfg.trunc.guard == 16
    assert cfg.params.nu == 1.0 and cfg.params.phi_l == 0.0 and cfg.params.delta == 0.0
    assert cfg.seed == 2024
    assert cfg.format == "json"
    assert cfg.verify.check == "qrm-transform"


def test_comments_and_blank_lines_ignored():
    text = "# a run\n\ncommand = regime\nOmega = 0.5\n# trailer\neta = 0.02\n"
    assert parse_config(text).command == "regime"


def test_negative_eta_names_the_invariant():
    with pytest.raises(ConfigError, match="eta >= 0"):
        parse_config("command = verify\nOmega = 0.7\neta = -0.1\n")


def test_duplicate_key_is_syntax_error_with_line():
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config("command = verify\nOmega = 0.7\nOmega = 0.9\neta = 0.1\n")


# a typo, and each former tol key: the gate bounds are constants of ionqrm.analysis
@pytest.mark.parametrize("key", ["Omeag", "tol.identity", "tol.oracle", "tol.spectral",
                                 "tol.min_order"])
def test_unknown_key_is_hard_error(key):
    with pytest.raises(ConfigError, match=f"^line 2: unknown key '{key}'$"):
        parse_config(f"command = verify\n{key} = 0.7\neta = 0.1\nOmega = 0.7\n")


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("command = verify\nOmega 0.7\neta = 0.1\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key 'eta'"):
        parse_config("command = verify\nOmega = 0.7\n")


def test_key_scoped_to_other_command_rejected():
    text = "command = regime\nOmega = 0.5\neta = 0.02\nevolve.t_max = 3.0\n"
    with pytest.raises(ConfigError, match="applies to command 'evolve'"):
        parse_config(text)


def test_non_finite_values_rejected():
    with pytest.raises(ConfigError, match="finite"):
        parse_config("command = verify\nOmega = inf\neta = 0.1\n")


def test_guard_constraint_checked():
    with pytest.raises(ConfigError, match="guard"):
        parse_config(
            "command = verify\nOmega = 0.7\neta = 0.3\ntrunc.n_max = 8\ntrunc.guard = 8\n"
        )


def test_overrides_replace_file_values():
    cfg = parse_config(
        "command = all-checks\nOmega = 0.7\neta = 0.3\n", (("eta", "0.4"), ("seed", "7"))
    )
    assert cfg.params.eta == 0.4 and cfg.seed == 7


def test_an_override_key_given_twice_is_a_duplicate_key():
    text = "command = all-checks\nOmega = 0.7\neta = 0.3\n"
    for overrides in ((("eta", "0.4"), ("eta", "0.5")), (("seed", "7"), (" seed ", "7"))):
        with pytest.raises(ConfigError, match="^duplicate key '(eta|seed)'$"):
            parse_config(text, overrides)
    # once each, an override still replaces the document's value
    assert parse_config(text, (("eta", "0.4"), ("Omega", "0.5"))).params.eta == 0.4


@pytest.mark.parametrize("fock", ["-1", "-3"])
def test_verify_fock_must_be_a_fock_level(fock):
    text = "command = verify\nOmega = 0.5\neta = 0.02\nverify.check = jc-rabi\n"
    with pytest.raises(ConfigError, match="^constraint violation: verify.fock >= 0$"):
        parse_config(text, (("verify.fock", fock),))
    # the upper bound is the rule after it
    with pytest.raises(ConfigError, match="verify.fock < n_max - guard"):
        parse_config(text, (("verify.fock", "48"),))


def test_evolve_rejects_json_format():
    with pytest.raises(ConfigError, match="evolve emits csv"):
        parse_config("command = evolve\nOmega = 0.5\neta = 0.1\nformat = json\n")


def test_evolve_times_must_increase():
    text = "command = evolve\nOmega = 0.5\neta = 0.1\nevolve.times = 0.0,2.0,1.0\n"
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(text)


def test_empty_evolve_times_is_a_malformed_list():
    text = "command = evolve\nOmega = 0.5\neta = 0.1\nevolve.times =\n"
    with pytest.raises(ConfigError, match="line 4: evolve.times: malformed list"):
        parse_config(text)


@pytest.mark.parametrize(
    "key, value, message",
    [("evolve.t_max", "-3", "evolve.t_max > 0"), ("evolve.samples", "1", "evolve.samples >= 2")],
    ids=["t_max", "samples"],
)
def test_evolve_grid_is_checked_with_explicit_times(key, value, message):
    text = f"command = evolve\nOmega = 0.5\neta = 0.1\nevolve.times = 0,1,2\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


@pytest.mark.parametrize("key, value", [("evolve.t_max", "4.5"), ("evolve.samples", "7")])
def test_grid_key_beside_explicit_times_is_rejected(key, value):
    text = "command = evolve\nOmega = 0.5\neta = 0.1\nevolve.times = 0,1,2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text + f"{key} = {value}\n")
    assert str(err.value) == f"line 5: {key} applies only to evolve.times = unset"
    # the key applies again once times is gone, and neither is written beside times
    assert parse_config(text.replace("evolve.times = 0,1,2", f"{key} = {value}")) != (
        parse_config(text))
    cfg = parse_config(text)
    emitted = emit_config(cfg)
    assert "evolve.t_max" not in emitted and "evolve.samples" not in emitted
    assert parse_config(emitted) == cfg


def test_verify_jc_rabi_preconditions_checked_before_compute():
    text = "command = verify\nOmega = 0.6\neta = 0.02\nverify.check = jc-rabi\n"
    with pytest.raises(ConfigError, match="nu = 2"):
        parse_config(text)


def test_scan_etas_must_decrease():
    text = "command = scan\nOmega = 1.0\neta = 0.08\nscan.etas = 0.02,0.04\n"
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config(text)


def test_scan_k_lowest_default_depends_on_kind():
    disp = parse_config("command = scan\nOmega = 1.0\neta = 0.08\n")
    assert disp.scan.k_lowest == 10
    trunc = parse_config(
        "command = scan\nOmega = 1.0\neta = 0.3\nscan.kind = truncation\n"
    )
    assert trunc.scan.k_lowest == 8


def _random_config_text(rng) -> str:
    command = str(rng.choice(["build", "verify", "evolve", "scan", "regime", "all-checks"]))
    nu, omega = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0)
    lines = [
        f"command = {command}",
        f"nu = {nu!r}",
        f"Omega = {omega!r}",
        f"eta = {rng.uniform(0.0, 1.0)!r}",
        f"seed = {int(rng.integers(0, 10_000))}",
        f"trunc.n_max = {int(rng.integers(8, 100))}",
        "trunc.guard = 4",
    ]
    if command != "all-checks":  # seed applies only to all-checks; drawn anyway, same stream
        del lines[4]
    if command == "build":
        hamiltonian = str(rng.choice(['qrm', 'jc', 'ajc', 'zero']))
        include_constant = str(rng.choice(['true', 'false']))
        lines.append(f"build.hamiltonian = {hamiltonian}")
        if hamiltonian == "qrm":  # the key is rejected for every other builder
            lines.append(f"build.include_constant = {include_constant}")
    elif command == "evolve":
        lines.remove("trunc.guard = 4")  # evolve reads trunc.n_max only; the line is drawn
        lines.append(f"evolve.hamiltonian = {rng.choice(['jc', 'ajc', 'qrm', 'zero'])}")
        lines.append(f"evolve.spin = {rng.choice(['e', 'g'])}")
        lines.append(f"evolve.t_max = {rng.uniform(1.0, 20.0)!r}")
        lines.append(f"evolve.samples = {int(rng.integers(2, 400))}")
        if rng.random() < 0.3:
            a = rng.uniform(-1, 1)
            b = rng.uniform(-1, 1)
            sign = "+" if b >= 0 else "-"
            lines.append("evolve.state = coherent")
            lines.append(f"evolve.alpha = {a!r}{sign}{abs(b)!r}j")
    elif command == "scan":
        kind = str(rng.choice(["dispersive", "lamb-dicke", "truncation"]))
        lines.append(f"scan.kind = {kind}")
        if kind == "truncation":
            lines.append("scan.n_list = 8,16,32")
        else:
            # the small-rotation angles, at most eta*nu / (2*|2*Omega - nu|), stay <= 0.2 in
            # a dispersive scan: the etas halve until they do, with no draw
            etas = [0.08, 0.04, 0.02]
            while kind == "dispersive" and etas[0] * nu > 0.4 * abs(2 * omega - nu):
                etas = [eta / 2 for eta in etas]
            lines.append(f"scan.etas = {','.join(map(repr, etas))}")
            if kind == "dispersive" and "trunc.n_max = 8" in lines:  # the default 10 > 2 * 4
                lines.append("scan.k_lowest = 8")
    elif command == "verify":
        lines.append("verify.check = speed")
    elif command == "regime":
        lines.append(f"regime.ordering_factor = {rng.uniform(2.0, 20.0)!r}")
    # none of these reads trunc.*; the lines were drawn anyway, so the stream is the same
    if {"command = regime", "scan.kind = lamb-dicke", "scan.kind = truncation",
            "verify.check = speed"} & set(lines):
        lines = [line for line in lines if not line.startswith("trunc.")]
    # nor do jc, ajc, zero and all-checks read nu
    if command == "all-checks" or {f"{command}.hamiltonian = {name}"
                                   for name in ("jc", "ajc", "zero")} & set(lines):
        lines = [line for line in lines if not line.startswith("nu = ")]
    return "\n".join(lines) + "\n"


def test_round_trip_property_over_random_configs():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cfg = parse_config(_random_config_text(rng))
        again = parse_config(emit_config(cfg))
        assert again == cfg


def test_emit_is_deterministic():
    cfg = parse_config("command = verify\nOmega = 0.7\neta = 0.3\n")
    assert emit_config(cfg) == emit_config(cfg)
    assert "verify.check = qrm-transform" in emit_config(cfg)


@pytest.mark.parametrize(
    "section, hamiltonian, message",
    [
        ("build", "jc", "build.include_constant applies only to build.hamiltonian = qrm"),
        # a constant shift changes no population, so evolve has no such key
        ("evolve", None, "unknown key 'evolve.include_constant'"),
    ],
    ids=["build-jc", "evolve-None"],
)
@pytest.mark.parametrize("value", ["true", "false"])
def test_include_constant_rejected_off_qrm(section, hamiltonian, message, value):
    text = f"command = {section}\nOmega = 0.5\neta = 0.1\n"
    if hamiltonian is not None:
        text += f"{section}.hamiltonian = {hamiltonian}\n"
    line = len(text.splitlines()) + 1
    with pytest.raises(ConfigError) as err:
        parse_config(text + f"{section}.include_constant = {value}\n")
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"
    emitted = emit_config(parse_config(text))
    assert "include_constant" not in emitted
    assert parse_config(emitted) == parse_config(text)


# a valid value differing from the default for every key, with the keys it needs
_NON_DEFAULT = {
    "command": {"command": "build"},
    "nu": {"nu": "2.0"},
    "Omega": {"Omega": "1.5"},
    "eta": {"eta": "0.05"},
    "phi_l": {"phi_l": "3.141592653589793"},
    "delta": {"command": "build", "build.hamiltonian": "qrm-detuned", "delta": "0.25"},
    "trunc.n_max": {"command": "build", "trunc.n_max": "32"},
    "trunc.guard": {"command": "build", "trunc.guard": "4"},
    "seed": {"command": "all-checks", "seed": "7"},
    "format": {"command": "scan", "format": "json"},
    "out": {"out": "result.json"},
    "build.hamiltonian": {"command": "build", "build.hamiltonian": "jc"},
    "build.include_constant": {"command": "build", "build.include_constant": "false"},
    "evolve.hamiltonian": {"command": "evolve", "evolve.hamiltonian": "resonant"},
    "evolve.state": {"command": "evolve", "evolve.state": "coherent"},
    "evolve.spin": {"command": "evolve", "evolve.spin": "g"},
    "evolve.fock": {"command": "evolve", "evolve.fock": "3"},
    "evolve.alpha": {"command": "evolve", "evolve.state": "coherent",
                     "evolve.alpha": "0.5-0.25j"},
    "evolve.t_max": {"command": "evolve", "evolve.t_max": "4.5"},
    "evolve.samples": {"command": "evolve", "evolve.samples": "11"},
    "evolve.times": {"command": "evolve", "evolve.times": "0.0,0.5,2.0"},
    "scan.kind": {"command": "scan", "scan.kind": "lamb-dicke"},
    "scan.etas": {"command": "scan", "scan.etas": "0.1,0.05"},
    "scan.n_list": {"command": "scan", "scan.kind": "truncation", "scan.n_list": "8,16"},
    "scan.k_lowest": {"command": "scan", "scan.k_lowest": "4"},
    "scan.builder": {"command": "scan", "scan.kind": "truncation", "scan.builder": "jc"},
    "verify.check": {"command": "verify", "verify.check": "speed"},
    "verify.fock": {"command": "verify", "verify.check": "jc-rabi", "Omega": "0.5",
                    "eta": "0.02", "verify.fock": "2"},
    "regime.ordering_factor": {"regime.ordering_factor": "5.0"},
    "regime.ultrastrong_onset": {"regime.ultrastrong_onset": "0.2"},
    "regime.dispersive_factor": {"regime.dispersive_factor": "0.05"},
    "regime.resonant_max_g_ratio": {"regime.resonant_max_g_ratio": "0.2"},
}


def _document(pairs: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


@pytest.mark.parametrize("key", list(KEYS))
def test_every_key_round_trips_at_a_non_default_value(key):
    pairs = {"command": "regime", "Omega": "0.7", "eta": "0.3", **_NON_DEFAULT[key]}
    cfg = parse_config(_document(pairs))
    emitted = emit_config(cfg)
    assert f"{key} = {pairs[key]}" in emitted.splitlines()
    assert parse_config(emitted) == cfg
    if key not in ("command", "Omega", "eta"):
        del pairs[key]
        assert parse_config(_document(pairs)) != cfg, f"{key} set to its default"


def test_every_key_is_documented_in_readme():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [key for key in KEYS if f"`{key}`" not in readme] == []
    # every key with an only_if rule is a row of the "applies only to" table
    table = readme.split("| key | applies only to |")[1].split("\n\n")[0]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    restricted = [key for key, spec in KEYS.items() if spec.only_if is not None]
    assert [key for key in restricted if not any(f"`{key}`" in row for row in rows)] == []


def test_every_rule_is_a_row_of_the_readme_rule_table_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| where | rule |")[1].split("\n\n")[0]
    rows = [re.findall(r"`([^`]*)`", line) for line in table.splitlines()[2:]]
    assert rows == [[where, rule] for where, _, rule in _RULES]


# a nonzero value of each parameter that a RUN_SKIPS row may require to be 0
_NONZERO = {"delta": 0.4, "phi_l": 0.7}


def _assert_known_entries(runs):
    # an entry is one of RunConfig's keyed sections, one key, delta or phi_l; of the ion's
    # parameters a row names only nu (a key set is rejected), delta or phi_l (a nonzero
    # value is): Omega and eta are required
    sections = {k.attr for k in KEYS.values()} - {None}
    entries = {s for run in runs for s in RUN_SKIPS[run]}
    assert entries <= sections | set(KEYS) | set(_NONZERO)
    assert entries & set(IonParams._fields) <= {"nu", *_NONZERO}


def test_builder_reads_names_every_builder_and_only_nu_delta_or_phi_l():
    assert set(HAMILTONIAN_BUILDERS) <= set(RUN_SKIPS)
    _assert_known_entries(HAMILTONIAN_BUILDERS)


def test_run_reads_names_every_verify_check_scan_kind_and_other_command():
    selectors = [f"verify.check = {check}" for check in VERIFY_CHECKS]
    selectors += [f"scan.kind = {kind}" for kind in SCAN_KINDS]
    selectors += [f"command = {command}" for command in COMMANDS
                  if command not in ("verify", "scan")]
    # RUN_SKIPS holds a row per builder and per selector, and no other
    assert sorted(RUN_SKIPS) == sorted([*HAMILTONIAN_BUILDERS, *selectors])
    _assert_known_entries(selectors)


def test_every_check_row_names_a_public_analysis_function_and_settings_that_exist():
    import inspect

    import ionqrm
    import ionqrm.analysis as analysis

    sections = {spec.attr for spec in KEYS.values()} - {None}
    for (command, name), check in CHECKS.items():
        assert check.function in ionqrm._HOMES["analysis"], (command, name)
        assert [s for s in check.settings if s not in KEYS and s not in sections] == []
        # the settings bind to the function's parameters, in order
        inspect.signature(getattr(analysis, check.function)).bind(*check.settings)
        if command == "scan":  # a CSV line per value of a setting the row takes
            assert check.csv[0] in check.settings, name
    # the selectors' choices and the only_if rules of the keys the rows take are the table's
    assert (VERIFY_CHECKS, SCAN_KINDS) == tuple(
        tuple(name for c, name in CHECKS if c == command) for command in ("verify", "scan"))
    assert KEYS["scan.k_lowest"].only_if == ("kind", ("dispersive", "truncation"))
    assert KEYS["verify.fock"].only_if == ("check", ("jc-rabi",))


def test_readme_run_table_names_every_run_and_what_it_skips():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| run | reads | never reads")[1].split("\n\n")[0]
    rows = [line.split("|") for line in table.splitlines()[2:]]
    cells = [(re.findall(r"`([^`]*)`", row[1]), set(re.findall(r"`([^`]*)`", row[-2])))
             for row in rows]
    for run, skips in RUN_SKIPS.items():
        row = [skipped for runs, skipped in cells if run in runs]
        assert len(row) == 1, run
        # a section is written as `<section>.*`
        assert [s for s in skips if s not in row[0] and f"{s}.*" not in row[0]] == [], run


def test_every_run_config_field_is_the_target_of_exactly_one_key():
    # a field no key reaches is a knob only code can turn: it belongs in a constant
    hints = typing.get_type_hints(RunConfig)
    fields = Counter()
    for name in RunConfig._fields:
        if isinstance(hints[name], type) and issubclass(hints[name], Record):
            fields.update((name, field) for field in hints[name]._fields)
        else:
            fields[(None, name)] += 1
    targets = Counter((spec.attr, spec.field) for spec in KEYS.values())
    assert fields - targets == Counter()  # a field no key sets
    assert targets - fields == Counter()  # a key without a field, or two keys on one


@pytest.mark.parametrize("run, text", [
    ("command = regime", "command = regime\nOmega = 0.5\neta = 0.02\n"),
    ("scan.kind = lamb-dicke", "command = scan\nOmega = 0.7\neta = 0.3\nscan.kind = lamb-dicke\n"),
    ("qrm", "command = build\nOmega = 0.7\neta = 0.3\n"),
    ("jc", "command = evolve\nOmega = 0.5\neta = 0.05\n"),
    ("qrm", "command = scan\nOmega = 0.7\neta = 0.3\nscan.kind = truncation\n"),
    ("verify.check = jc-rabi",
     "command = verify\nOmega = 0.5\neta = 0.02\nverify.check = jc-rabi\n"),
    ("verify.check = speed", "command = verify\nOmega = 0.7\neta = 0.3\nverify.check = speed\n"),
])
def test_emit_writes_no_key_of_a_section_the_run_skips(run, text):
    cfg = parse_config(text)
    emitted = emit_config(cfg)
    assert [line for line in emitted.splitlines() if line.split(".")[0] in RUN_SKIPS[run]] == []
    assert parse_config(emitted) == cfg


@pytest.mark.parametrize("text, run, skipped, kept", [
    ("command = scan\nOmega = 0.7\neta = 0.3\nscan.kind = truncation\n",
     "scan.kind = truncation", {"trunc.n_max": "40", "trunc.guard": "4"}, ()),
    ("command = verify\nOmega = 0.7\neta = 0.3\nverify.check = guard\n",
     "verify.check = guard", {"trunc.guard": "4"}, ("trunc.n_max",)),
    ("command = evolve\nOmega = 0.35\neta = 0.11\nevolve.hamiltonian = jc\n",
     "command = evolve", {"trunc.guard": "4"}, ("trunc.n_max",)),
    ("command = verify\nOmega = 0.7\neta = 0.2\nverify.check = rotation\n",
     "verify.check = rotation", {"trunc.guard": "4"}, ("trunc.n_max",)),
    ("command = build\nOmega = 0.7\neta = 0.3\nbuild.hamiltonian = zero\n",
     "zero", {"nu": "1.3"}, ()),
    ("command = all-checks\nOmega = 0.7\neta = 0.3\nseed = 7\n",
     "command = all-checks", {"nu": "1.3"}, ()),
])
def test_keys_the_run_skips_are_rejected_and_never_emitted(text, run, skipped, kept):
    cfg = parse_config(text)
    emitted = emit_config(cfg)
    keys = {line.split(" = ")[0] for line in emitted.splitlines()}
    assert keys.isdisjoint(skipped) and keys >= set(kept)
    assert parse_config(emitted) == cfg
    for key, value in skipped.items():
        with pytest.raises(ConfigError, match=f"^line 5: {key} is not read by {run}$"):
            parse_config(f"{text}{key} = {value}\n")
    for key in kept:  # still read: n_max sets the run's cutoff, any from 1 up,
        for n_max in (1, 16, 24):  # as the section holds guard 0, not the default 16
            again = parse_config(f"{text}{key} = {n_max}\n")
            assert again.trunc == TruncationSpec(n_max=n_max, guard=0)
            assert parse_config(emit_config(again)) == again


@pytest.mark.parametrize("text, run", [
    ("command = regime\nOmega = 0.7\neta = 0.3\n", "command = regime"),
    ("command = verify\nOmega = 0.7\neta = 0.3\nverify.check = speed\n", "verify.check = speed"),
    ("command = scan\nOmega = 0.7\neta = 0.3\nscan.kind = lamb-dicke\n",
     "scan.kind = lamb-dicke"),
    ("command = scan\nOmega = 0.7\neta = 0.3\nscan.kind = truncation\n",
     "scan.kind = truncation"),
])
def test_a_run_that_reads_no_trunc_key_names_trunc_n_max_at_every_value(text, run):
    # its section holds guard 0, so no n_max is checked against the default guard 16
    assert parse_config(text).trunc == TruncationSpec(n_max=64, guard=0)
    for n_max in (1, 8, 16, 40):
        with pytest.raises(ConfigError, match=f": trunc.n_max is not read by {run}$"):
            parse_config(f"{text}trunc.n_max = {n_max}\n")


def _build_or_reject(name: str, **params):
    """The builder's matrix, or None when the builder itself rejects the parameters."""
    try:
        return HAMILTONIAN_BUILDERS[name](IonParams(Omega=0.35, eta=0.11, **params),
                                          TruncationSpec(8))
    except ValueError:
        return None


@pytest.mark.parametrize("param", list(_NONZERO))
@pytest.mark.parametrize("name", sorted(HAMILTONIAN_BUILDERS))
def test_builder_reads_matches_what_each_builder_reads(name, param):
    base = _build_or_reject(name)
    assert base is not None
    h = _build_or_reject(name, **{param: _NONZERO[param]})
    if param not in RUN_SKIPS[name]:
        # the value changes the matrix, or the builder's own precondition rejects it
        assert h is None or not np.array_equal(h, base)
    else:
        # the builder drops the value (or rejects it itself), so the configuration must
        # reject it
        assert h is None or np.array_equal(h, base)

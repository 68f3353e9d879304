"""Tests for the configuration grammar and round-tripping."""
from pathlib import Path

import numpy as np
import pytest

from ionqrm import ConfigError, emit_config, parse_config
from ionqrm.config import KEYS


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


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="unknown key 'Omeag'"):
        parse_config("command = verify\nOmeag = 0.7\neta = 0.1\nOmega = 0.7\n")


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
        "command = verify\nOmega = 0.7\neta = 0.3\n", (("eta", "0.4"), ("seed", "7"))
    )
    assert cfg.params.eta == 0.4 and cfg.seed == 7


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
    lines = [
        f"command = {command}",
        f"nu = {rng.uniform(0.5, 2.0)!r}",
        f"Omega = {rng.uniform(0.0, 2.0)!r}",
        f"eta = {rng.uniform(0.0, 1.0)!r}",
        f"seed = {int(rng.integers(0, 10_000))}",
        f"trunc.n_max = {int(rng.integers(8, 100))}",
        "trunc.guard = 4",
    ]
    if command == "build":
        hamiltonian = str(rng.choice(['qrm', 'jc', 'ajc', 'zero']))
        include_constant = str(rng.choice(['true', 'false']))
        lines.append(f"build.hamiltonian = {hamiltonian}")
        if hamiltonian == "qrm":  # the key is rejected for every other builder
            lines.append(f"build.include_constant = {include_constant}")
    elif command == "evolve":
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
            lines.append("scan.etas = 0.08,0.04,0.02")
    elif command == "verify":
        lines.append("verify.check = speed")
    elif command == "regime":
        lines.append(f"regime.ordering_factor = {rng.uniform(2.0, 20.0)!r}")
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
    "delta": {"delta": "0.25"},
    "trunc.n_max": {"trunc.n_max": "32"},
    "trunc.guard": {"trunc.guard": "4"},
    "seed": {"seed": "7"},
    "format": {"command": "scan", "format": "json"},
    "tol.identity": {"tol.identity": "1e-11"},
    "tol.oracle": {"tol.oracle": "1e-08"},
    "tol.spectral": {"tol.spectral": "1e-07"},
    "tol.min_order": {"tol.min_order": "2.5"},
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

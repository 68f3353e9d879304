"""End-to-end tests of the command-line surface."""
import contextlib
import functools
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from ionqrm import (HAMILTONIAN_BUILDERS, IonParams, ResonancePoleError, TruncationSpec,
                    coherent_state, fock_state)
from ionqrm import cli
from ionqrm.cli import EXIT_CHECKS_FAILED, EXIT_ERROR, EXIT_OK, main
from ionqrm.config import (BUILDER_NAMES, CHECKS, COMMANDS, FORMATS, KEYS, RUN_SKIPS, SCAN_KINDS,
                           SELECTORS, VERIFY_CHECKS, ConfigError, _scope, parse_config)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_regime_prints_label_and_ratios(capsys):
    code, out, _ = run_cli(["regime", "--set", "Omega=0.5", "--set", "eta=0.02"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "JC-resonant"
    assert lines[1] == "g_ratio = 0.01"
    assert lines[2] == "omega_ratio = 0.5"


def test_regime_out_writes_the_file_and_nothing_to_stdout(tmp_path, capsys):
    args = ["regime", "--set", "Omega=0.5", "--set", "eta=0.02"]
    _, expected, _ = run_cli(args, capsys)
    out_file = tmp_path / "regime.txt"
    code, out, _ = run_cli(args + ["--out", str(out_file)], capsys)
    assert code == EXIT_OK
    assert out == ""
    assert out_file.read_text() == expected


def test_evolve_zero_hamiltonian_constant_rows(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    args = [
        "evolve",
        "--set", "Omega=0.5",
        "--set", "eta=0.1",
        "--set", "evolve.hamiltonian=zero",
        "--set", "evolve.t_max=2.0",
        "--set", "evolve.samples=5",
        "--out", str(out_file),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "time,P_e,mean_n,fidelity,norm_residual"
    assert len(lines) == 6
    for line in lines[1:]:
        t, pe, mean_n, fid, resid = line.split(",")
        assert pe == "1.0" and mean_n == "0.0" and fid == "" and resid == "0.0"


def test_evolve_reruns_are_byte_identical(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "command = evolve\n"
        "Omega = 0.5\n"
        "eta = 0.05\n"
        "evolve.hamiltonian = jc\n"
        "evolve.t_max = 40.0\n"
        "evolve.samples = 101\n"
    )
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["evolve", "--config", str(config), "--out", str(out_a)]) == EXIT_OK
    assert main(["evolve", "--config", str(config), "--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_build_writes_matrix_json(tmp_path, capsys):
    out_file = tmp_path / "h.json"
    args = [
        "build",
        "--set", "Omega=0.5",
        "--set", "eta=0.1",
        "--set", "trunc.n_max=4",
        "--set", "trunc.guard=0",
        "--set", "build.hamiltonian=jc",
        "--out", str(out_file),
    ]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["schema_version"] == 1
    assert payload["dim"] == 8
    assert len(payload["entries"]) == 64
    # <e,0|H|g,1> = i*eta*Omega -> row 0, column 5
    re, im = payload["entries"][5]
    assert re == pytest.approx(0.0) and im == pytest.approx(0.05)


def test_verify_report_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    args = ["verify", "--set", "Omega=0.7", "--set", "eta=0.3", "--out", str(out_file)]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["name"] == "qrm-transform"
    assert payload["passed"] is True
    assert payload["tolerance"] == 1e-8


def test_scan_dispersive_rows(capsys):
    args = ["scan", "--set", "Omega=1.0", "--set", "eta=0.08"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "eta,spectral_distance"
    assert len(lines) == 4
    assert lines[1].startswith("0.08,")


def test_scan_json_format_carries_full_report(capsys):
    args = ["scan", "--set", "Omega=1.0", "--set", "eta=0.08", "--format", "json"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["name"] == "dispersive-error-scan"
    assert payload["metrics"]["order"] >= 1.8


def test_scan_truncation_rows(capsys):
    args = [
        "scan",
        "--set", "Omega=0.7",
        "--set", "eta=0.3",
        "--set", "scan.kind=truncation",
        "--set", "scan.n_list=16,32,64",
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n_max,max_shift_from_prev"
    assert lines[1] == "16,"
    assert len(lines) == 4


def test_config_error_yields_machine_parsable_record(capsys):
    code, _, err = run_cli(["verify", "--set", "Omega=0.7", "--set", "eta=-1"], capsys)
    assert code == EXIT_ERROR
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert "eta >= 0" in record["message"]


@pytest.mark.parametrize(
    "command, hamiltonian, message",
    [
        ("build", "jc", "build.include_constant applies only to build.hamiltonian = qrm"),
        # a constant shift changes no population, so evolve has no such key
        ("evolve", "resonant", "unknown key 'evolve.include_constant'"),
    ],
    ids=["build-jc", "evolve-resonant"],
)
def test_include_constant_off_qrm_is_one_config_error(command, hamiltonian, message, capsys):
    args = [
        command,
        "--set", "Omega=0.5",
        "--set", "eta=0.1",
        "--set", f"{command}.hamiltonian={hamiltonian}",
        "--set", f"{command}.include_constant=true",
    ]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_ERROR
    assert out == ""
    records = err.splitlines()
    assert len(records) == 1
    record = json.loads(records[0])
    assert record["error"] == "ConfigError"
    assert record["message"] == message


_FORMAT_RULE = "format applies only to command = build or verify or evolve or scan or all-checks"

# (command, builder, parameter): a nonzero value the builder would drop without a word
_DROPPED = [
    ("build", "lamb-dicke", "delta"), ("build", "rabi-rotated", "delta"),
    ("build", "jc", "delta"), ("build", "ajc", "delta"), ("build", "qrm", "delta"),
    ("build", "dispersive", "delta"), ("build", "zero", "delta"),
    ("evolve", "jc", "phi_l"), ("evolve", "ajc", "phi_l"), ("evolve", "qrm", "phi_l"),
    ("evolve", "qrm-detuned", "phi_l"), ("evolve", "dispersive", "phi_l"),
    ("evolve", "zero", "phi_l"),
    ("scan", "resonant", "delta"), ("scan", "jc", "phi_l"),
]


# (command, what it runs, parameter): a nonzero value that a verify check, scan kind or
# command other than a builder would drop
_RUN_DROPPED = [
    *(("verify", f"verify.check = {check}", param)
      for check in VERIFY_CHECKS for param in ("delta", "phi_l")),
    ("scan", "scan.kind = dispersive", "delta"), ("scan", "scan.kind = dispersive", "phi_l"),
    ("scan", "scan.kind = lamb-dicke", "delta"), ("scan", "scan.kind = lamb-dicke", "phi_l"),
    ("regime", "command = regime", "delta"),
    ("all-checks", "command = all-checks", "delta"),
    ("all-checks", "command = all-checks", "phi_l"),
]


# (command, what it runs, key, value): a key of a section the run never reads
_RUN_SKIPPED = [
    ("regime", "command = regime", "trunc.n_max", "40"),
    ("regime", "command = regime", "trunc.guard", "4"),
    ("scan", "scan.kind = lamb-dicke", "trunc.n_max", "40"),
    ("scan", "scan.kind = lamb-dicke", "trunc.guard", "4"),
    ("verify", "verify.check = speed", "trunc.n_max", "40"),
    ("verify", "verify.check = speed", "trunc.guard", "4"),
    ("scan", "scan.kind = truncation", "trunc.n_max", "40"),
    ("scan", "scan.kind = truncation", "trunc.guard", "4"),
    ("verify", "verify.check = guard", "trunc.guard", "4"),
    ("verify", "verify.check = rotation", "trunc.guard", "4"),
    ("evolve", "command = evolve", "trunc.guard", "4"),
    # the sideband couplings have no trap term, and the suite runs at its own points
    *((command, builder, "nu", "1.3") for command in ("build", "evolve", "scan")
      for builder in ("jc", "ajc", "zero")),
    ("all-checks", "command = all-checks", "nu", "1.3"),
]


# a changed value of each key that a verify or scan may accept; command, format and the
# selectors pick the run, and out only where its output goes
_READ_SET_CHANGES = {
    "nu": "1.3", "Omega": "0.77", "eta": "0.35", "phi_l": "0.4", "delta": "0.2",
    "trunc.n_max": "32", "trunc.guard": "8", "seed": "7", "scan.etas": "0.1,0.05",
    "scan.n_list": "8,16", "scan.k_lowest": "4", "scan.builder": "jc", "verify.fock": "1",
}
# the corpus point (Omega, eta) of each CHECKS row name; the others run at (0.7, 0.3)
_CHECK_POINTS = {"dispersive": ("1.0", "0.08"), "jc-rabi": ("0.5", "0.02"),
                 "rotation": ("0.7", "0.2")}
_DISPERSIVE_ETA = "the scan rebuilds the params at each scan.etas value; eta is echoed only"
_DISPERSIVE_GUARD = "trunc.guard only bounds scan.k_lowest (k_lowest <= 2 * interior_dim)"
# (command, row, format, key) accepted and never read: each fails until the key is
# rejected or read
_UNREAD = {
    ("verify", "dispersive", "json", "eta"): _DISPERSIVE_ETA,
    ("scan", "dispersive", "csv", "eta"): _DISPERSIVE_ETA,
    ("scan", "dispersive", "json", "eta"): _DISPERSIVE_ETA,
    ("scan", "lamb-dicke", "csv", "eta"): _DISPERSIVE_ETA,
    ("scan", "lamb-dicke", "json", "eta"): _DISPERSIVE_ETA,
    ("scan", "lamb-dicke", "csv", "nu"):
        "nu*n cancels in h_resonant - h_lamb_dicke; only the JSON relative_order reads nu",
    ("verify", "dispersive", "json", "trunc.guard"): _DISPERSIVE_GUARD,
    ("scan", "dispersive", "csv", "trunc.guard"): _DISPERSIVE_GUARD,
    ("scan", "dispersive", "json", "trunc.guard"): _DISPERSIVE_GUARD,
}
# accepted and read, but with no output byte moved at the corpus point
_READ_SET_EXEMPT = {
    ("verify", "guard", "json", "Omega"): "edge_norm is the same at Omega = 0.3, 0.7 and 0.77",
    ("verify", "jc-rabi", "json", "trunc.guard"): "only the verify.fock bound reads it",
}


def _check_argv(command, name, fmt, **changed):
    omega, eta = _CHECK_POINTS.get(name, ("0.7", "0.3"))
    sets = {"Omega": omega, "eta": eta, SELECTORS[command]: name, "format": fmt, **changed}
    return (command, *(word for key, value in sets.items() for word in ("--set", f"{key}={value}")))


def _accepted(argv):
    try:
        parse_config("", (("command", argv[0]), *(tuple(a.split("=", 1)) for a in argv[2::2])))
    except ConfigError:
        return False
    return True


# every (command, row, format, key) whose changed key parse_config accepts
_READ_SET = [(command, name, fmt, key) for command, name in CHECKS for fmt in FORMATS[command]
             for key, value in _READ_SET_CHANGES.items()
             if _accepted(_check_argv(command, name, fmt, **{key: value}))]


def test_the_read_set_tables_name_accepted_cases_and_every_key_a_check_may_take():
    assert set(_UNREAD) | set(_READ_SET_EXEMPT) <= set(_READ_SET)
    # the global keys and those of the verify and scan sections, but the ones that pick the run
    others = set(COMMANDS) - set(SELECTORS)
    scoped = {key for key in KEYS if key.split(".")[0] not in others}
    assert set(_READ_SET_CHANGES) == scoped - {"command", "format", "out", *SELECTORS.values()}


@functools.lru_cache(maxsize=None)  # each base run is compared with every change of it
def _masked_output(argv: tuple[str, ...]) -> str:
    """stdout of a command line that exits 0 or 2, with its echoed params and trunc masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (EXIT_OK, EXIT_CHECKS_FAILED), err.getvalue()
    if not out.getvalue().startswith("{"):
        return out.getvalue()  # CSV or text: nothing is echoed
    document = json.loads(out.getvalue())
    for report in document.get("reports", [document]):
        del report["params"], report["trunc"]  # the echo would hide a key never read
    return json.dumps(document, sort_keys=True)


@pytest.mark.parametrize("command, name, fmt, key", [
    pytest.param(*case, id="-".join(case),
                 marks=[pytest.mark.xfail(strict=True, reason=_UNREAD[case])] if case in _UNREAD
                 else [])
    for case in _READ_SET if case not in _READ_SET_EXEMPT])
def test_every_key_a_check_accepts_moves_its_output(command, name, fmt, key):
    base = _masked_output(_check_argv(command, name, fmt))
    assert _masked_output(_check_argv(command, name, fmt, **{key: _READ_SET_CHANGES[key]})) != base


def test_verify_and_scan_run_the_analysis_binding_their_row_names(capsys, monkeypatch):
    import ionqrm.analysis as analysis
    from ionqrm.analysis import VerificationReport

    calls = []

    def stub(name):
        def run(*args):
            calls.append(args)
            return VerificationReport(name=name, gates=(("x", "<=", 1.0),), tolerance=1.0,
                                      metrics={"x": 0.5})
        return run

    monkeypatch.setattr(analysis, "speed_comparison", stub("stub-speed"))
    monkeypatch.setattr(analysis, "truncation_convergence", stub("stub-truncation"))
    point = ["--set", "Omega=0.7", "--set", "eta=0.3"]
    code, out, _ = run_cli(["verify", *point, "--set", "verify.check=speed"], capsys)
    assert code == EXIT_OK and json.loads(out)["name"] == "stub-speed"
    code, out, _ = run_cli(["scan", *point, "--set", "scan.kind=truncation", "--format", "json"],
                           capsys)
    assert code == EXIT_OK and json.loads(out)["name"] == "stub-truncation"
    # each stub is passed its row's settings, in order: k_lowest is the truncation row's 8
    assert calls == [(IonParams(0.7, 0.3),), ("qrm", IonParams(0.7, 0.3), (16, 32, 64), 8)]


# the base runs of the other commands, (command, run) -> the settings of each of its points:
# each builder from a coherent start and from |g,1> (run "<builder>-fock") at a small
# cutoff, regime at one point per threshold (decoupling, ultrastrong, dispersive,
# JC-resonant) and all-checks at the reference point
_RUN_BASES = {
    **{("build", name): [{"Omega": "0.7", "eta": "0.3", "trunc.n_max": "16", "trunc.guard": "2",
                          "build.hamiltonian": name}] for name in BUILDER_NAMES},
    **{("evolve", name): [{"Omega": "0.7", "eta": "0.3", "trunc.n_max": "8",
                           "evolve.hamiltonian": name, "evolve.state": "coherent",
                           "evolve.alpha": "0.5+0.3j", "evolve.spin": "g"}]
       for name in BUILDER_NAMES},
    **{("evolve", f"{name}-fock"): [{"Omega": "0.7", "eta": "0.3", "trunc.n_max": "8",
                                     "evolve.hamiltonian": name, "evolve.spin": "g",
                                     "evolve.fock": "1"}]
       for name in BUILDER_NAMES},
    ("regime", "regime"): [{"Omega": omega, "eta": eta} for omega, eta in (
        ("0.0005", "0.2"), ("0.7", "0.3"), ("1.0", "0.08"), ("0.5", "0.02"))],
    ("all-checks", "all-checks"): [{"Omega": "0.7", "eta": "0.3"}],
}
# the changed values of each key those commands may take but the ones that pick the run:
# the checks' values of the global keys, with pi as a second phi_l (rabi-rotated and regime
# read it as pi or not pi); evolve.state is left out, as each start sets a key that only
# its own state takes (evolve.alpha or evolve.fock)
_RUN_CHANGES = {
    **{key: (value,) for key, value in _READ_SET_CHANGES.items() if _scope(key) is None},
    "phi_l": (_READ_SET_CHANGES["phi_l"], repr(math.pi)),
    "build.include_constant": ("false",), "evolve.spin": ("e",), "evolve.fock": ("2",),
    "evolve.alpha": ("0.2-0.4j",),
    "evolve.t_max": ("3.5",), "evolve.samples": ("7",), "evolve.times": ("0.0,0.5,2.0",),
    "regime.ordering_factor": ("20",), "regime.ultrastrong_onset": ("0.2",),
    "regime.dispersive_factor": ("0.01",), "regime.resonant_max_g_ratio": ("0.005",),
}
_ZERO = "zero reads no parameter, and Omega and eta are required keys (ROADMAP item 7)"
_SUITE = ("every check runs at its own points; the suite benchmark workload sets Omega and "
          "eta, so they stay required until it changes (ROADMAP item 1)")
# (command, run, key, value) accepted and never read: each fails until the key is rejected
_RUN_UNREAD = {
    **{(command, run, key, _RUN_CHANGES[key][0]): _ZERO
       for command, run in (("build", "zero"), ("evolve", "zero"), ("evolve", "zero-fock"))
       for key in ("Omega", "eta")},
    **{("all-checks", "all-checks", key, _RUN_CHANGES[key][0]): _SUITE for key in ("Omega", "eta")},
    **{("build", name, "trunc.guard", _RUN_CHANGES["trunc.guard"][0]):
       "no builder reads trunc.guard and build only echoes it; rejecting it moves every build "
       "entry of the corpus (ROADMAP item 7)" for name in BUILDER_NAMES},
}
# accepted and read, but with no output byte moved from these starting states
_RUN_EXEMPT = {
    **{("evolve", run, "phi_l", repr(math.pi)):
       "sigma_z maps H(0) onto H(pi) and only flips the sign of the spin-eigenstate start, so "
       "the populations are the same"
       for run in ("resonant", "lamb-dicke", "resonant-fock", "lamb-dicke-fock")},
    **{("evolve", f"{name}-fock", "trunc.n_max", _RUN_CHANGES["trunc.n_max"][0]):
       "|g,1> lies in one exact block of H (a JC or AJC pair, or a 1x1 block), the same at "
       "every cutoff that holds it" for name in ("jc", "ajc", "dispersive", "zero")},
    ("regime", "regime", "phi_l", "0.4"):
        "the label reads phi_l only as pi or not pi (laser_phase_sign), and 0.4 is not pi",
}


def _run_argvs(command, run, **changed):
    return [(command, *(word for key, value in {**point, **changed}.items()
                        for word in ("--set", f"{key}={value}")))
            for point in _RUN_BASES[command, run]]


# every (command, run, key, value) whose changed key parse_config accepts at every point
_RUN_READ_SET = [(command, run, key, value) for command, run in _RUN_BASES
                 for key, values in _RUN_CHANGES.items() for value in values
                 if all(map(_accepted, _run_argvs(command, run, **{key: value})))]


def test_the_run_read_set_tables_name_accepted_cases_and_every_key_a_run_may_take():
    assert set(_RUN_UNREAD) | set(_RUN_EXEMPT) <= set(_RUN_READ_SET)
    assert not set(_RUN_UNREAD) & set(_RUN_EXEMPT)
    scoped = {key for key in KEYS if _scope(key) in (None, "build", "evolve", "regime")}
    assert set(_RUN_CHANGES) == scoped - {"command", "format", "out", "build.hamiltonian",
                                          "evolve.hamiltonian", "evolve.state"}
    # every changed value is accepted by some run
    assert {(key, value) for _, _, key, value in _RUN_READ_SET} == {
        (key, value) for key, values in _RUN_CHANGES.items() for value in values}


@pytest.mark.parametrize("command, run, key, value", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}-{case[2]}={case[3]}",
                 marks=[pytest.mark.xfail(strict=True, reason=_RUN_UNREAD[case])]
                 if case in _RUN_UNREAD else [])
    for case in _RUN_READ_SET if case not in _RUN_EXEMPT])
def test_every_key_a_run_accepts_moves_its_output(command, run, key, value):
    base = list(map(_masked_output, _run_argvs(command, run)))
    assert list(map(_masked_output, _run_argvs(command, run, **{key: value}))) != base


def _run_skipped_case(command, run, key, value):
    extra = ["--set", f"{key}={value}"]
    if run in BUILDER_NAMES:
        extra += _builder_args(command, run)
    elif not run.startswith("command"):
        extra += ["--set", run.replace(" = ", "=")]
    if run == "verify.check = jc-rabi":
        extra += ["--set", "nu=1.4"]  # its sideband resonance nu = 2*Omega
    return (command, extra, f"{key} is not read by {run}")


# every command but all-checks runs nothing random, so none reads seed
_SEEDLESS = ("build", "verify", "evolve", "scan", "regime")


def _run_dropped_case(command, run, param):
    value = "0.4" if param == "delta" else "0.7"
    extra = ["--set", f"{param}={value}"]
    if not run.startswith("command"):
        extra += ["--set", run.replace(" = ", "=")]
    if run == "verify.check = jc-rabi":
        extra += ["--set", "nu=1.4"]  # its sideband resonance nu = 2*Omega
    return (command, extra, f"constraint violation: {run} requires {param} = 0")


def _builder_args(command, builder):
    if command == "scan":
        return ["--set", "scan.kind=truncation", "--set", f"scan.builder={builder}"]
    return ["--set", f"{command}.hamiltonian={builder}"]


def _dropped_case(command, builder, param):
    value = "0.4" if param == "delta" else "0.7"
    return (command, [*_builder_args(command, builder), "--set", f"{param}={value}"],
            f"constraint violation: {builder} requires {param} = 0")


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("evolve", ["--set", "evolve.alpha=0.5+0.1j"],
         "evolve.alpha applies only to evolve.state = coherent"),
        ("evolve", ["--set", "evolve.state=coherent", "--set", "evolve.fock=2"],
         "evolve.fock applies only to evolve.state = fock"),
        ("scan", ["--set", "scan.n_list=8,16"],
         "scan.n_list applies only to scan.kind = truncation"),
        ("scan", ["--set", "scan.kind=lamb-dicke", "--set", "scan.builder=jc"],
         "scan.builder applies only to scan.kind = truncation"),
        ("verify", ["--set", "verify.check=speed", "--set", "verify.fock=1"],
         "verify.fock applies only to verify.check = jc-rabi"),
        ("regime", ["--set", "format=json"], _FORMAT_RULE),
        ("regime", ["--format", "csv"], _FORMAT_RULE),
        ("scan", ["--set", "scan.kind=truncation", "--set", "scan.etas=0.1,0.05"],
         "scan.etas applies only to scan.kind = dispersive or lamb-dicke"),
        ("scan", ["--set", "scan.kind=lamb-dicke", "--set", "scan.k_lowest=4"],
         "scan.k_lowest applies only to scan.kind = dispersive or truncation"),
        ("scan", [*_builder_args("scan", "rabi-rotated"), "--set", "phi_l=0.7"],
         "constraint violation: rabi-rotated requires phi_l in {0, pi}"),
        ("evolve", ["--set", "evolve.times=0,1,2", "--set", "evolve.t_max=4.5"],
         "evolve.t_max applies only to evolve.times = unset"),
        ("evolve", ["--set", "evolve.samples=7", "--set", "evolve.times=0,1,2"],
         "evolve.samples applies only to evolve.times = unset"),
        *(_dropped_case(*case) for case in _DROPPED),
        *(_run_dropped_case(*case) for case in _RUN_DROPPED),
        *(_run_skipped_case(*case) for case in _RUN_SKIPPED),
        *((command, ["--set", "seed=99"], "seed applies only to command = all-checks")
          for command in _SEEDLESS),
    ],
    ids=["evolve.alpha", "evolve.fock", "scan.n_list", "scan.builder", "verify.fock",
         "format", "--format", "scan.etas", "scan.k_lowest", "scan-rabi-rotated-phi_l",
         "evolve.t_max-with-times", "evolve.samples-with-times",
         *("-".join(case) for case in _DROPPED),
         *(f"{run.replace(' = ', '=')}-{param}" for _, run, param in _RUN_DROPPED),
         *(f"{run.replace(' = ', '=')}-{key}" for _, run, key, _ in _RUN_SKIPPED),
         *(f"seed-{command}" for command in _SEEDLESS)],
)
def test_key_the_run_would_not_read_is_one_config_error(command, extra, message, capsys):
    args = [command, "--set", "Omega=0.7", "--set", "eta=0.3", *extra]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_ERROR
    assert out == ""
    records = err.splitlines()
    assert len(records) == 1
    record = json.loads(records[0])
    assert record["error"] == "ConfigError"
    assert record["message"] == message


@pytest.mark.parametrize("positional, other", [("build", "regime"), ("regime", "build")])
def test_set_command_is_one_config_error(positional, other, tmp_path, capsys):
    args = [positional, "--set", "Omega=0.5", "--set", "eta=0.02", "--set", f"command={other}"]
    code, out, err = run_cli(args, capsys)
    assert code == EXIT_ERROR
    assert out == ""
    records = err.splitlines()
    assert len(records) == 1
    record = json.loads(records[0])
    assert record["error"] == "ConfigError"
    assert record["message"] == "the command is the positional argument; --set cannot change it"
    # a config file's command is still replaced by the positional one
    config = tmp_path / "run.cfg"
    config.write_text(f"command = {other}\nOmega = 0.5\neta = 0.02\n")
    code, out, _ = run_cli(["regime", "--config", str(config)], capsys)
    assert code == EXIT_OK and out.startswith("JC-resonant")


_RES = ["--set", "Omega=0.5", "--set", "eta=0.02"]
_ONE_COMMAND = "expected one command, the one bare word; got "

# (argv, message): a command line that is one ConfigError record; a file name after
# --config or --out is relative to an empty directory
_BAD_COMMAND_LINES = [
    (["bogus", *_RES], "command must be one of build, verify, evolve, scan, regime, all-checks; "
                       "got 'bogus'"),
    # the command is checked before the required keys
    (["bogus"], "command must be one of build, verify, evolve, scan, regime, all-checks; "
                "got 'bogus'"),
    (_RES, _ONE_COMMAND + "[]"),
    (["regime", "build", *_RES], _ONE_COMMAND + "['regime', 'build']"),
    (["regime", *_RES, "--sett", "Omega=0.0005"], "unknown flag '--sett'"),
    (["regime", *_RES, "--se", "Omega=0.0005"], "unknown flag '--se'"),
    (["regime", *_RES, "--set-", "Omega=0.0005"], "unknown flag '--set-'"),
    (["regime", *_RES, "-s", "Omega=0.0005"], "unknown flag '-s'"),
    (["regime", *_RES, "--"], "unknown flag '--'"),
    (["regime", *_RES, "--set"], "--set expects a value"),
    (["regime", *_RES, "--out"], "--out expects a value"),
    (["regime", "--config", *_RES], "--config expects a value"),
    (["regime", "--out", "--set", "Omega=0.5", "--set", "eta=0.02"], "--out expects a value"),
    (["regime", *_RES, "--set", "Omega"], "--set expects KEY=VALUE, got 'Omega'"),
    (["regime", *_RES, "--set=Omega"], "--set expects KEY=VALUE, got 'Omega'"),
    (["regime", *_RES, "--set", "command=build"],
     "the command is the positional argument; --set cannot change it"),
    (["regime", *_RES, "--config", "a.cfg", "--config", "b.cfg"], "--config may be given once"),
    (["regime", *_RES, "--config=a.cfg", "--config", "a.cfg"], "--config may be given once"),
    (["regime", *_RES, "--set", "Omega=0.0005"], "duplicate key 'Omega'"),
    (["regime", *_RES, "--set", " eta =0.3"], "duplicate key 'eta'"),
    (["regime", *_RES, "--out", "a.txt", "--out", "b.txt"], "duplicate key 'out'"),
    (["regime", *_RES, "--set", "out=a.txt", "--out", "b.txt"], "duplicate key 'out'"),
    (["scan", *_RES, "--format", "csv", "--format=json"], "duplicate key 'format'"),
    (["scan", *_RES, "--set", "format=json", "--format", "csv"], "duplicate key 'format'"),
    (["all-checks", *_RES, "--format", "xml"], "format must be one of csv, json; got 'xml'"),
]


@pytest.mark.parametrize("argv, message", _BAD_COMMAND_LINES,
                         ids=[" ".join(argv) for argv, _ in _BAD_COMMAND_LINES])
def test_a_bad_command_line_is_one_config_error_record(argv, message, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_ERROR, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ConfigError", "message": message, "schema_version": 1}]
    assert list(tmp_path.iterdir()) == []


def _point(omega, eta):
    return ["--set", f"Omega={omega}", "--set", f"eta={eta}"]


_REF, _DISP = _point(0.7, 0.3), _point(1.0, 0.08)
_SMALL_ROTATION = "small-rotation angles <= 0.2 at every scan.etas value"
_TRUNCATION_K = "scan.k_lowest <= 2 * scan.n_list[0]"
_POLE = "the dispersive couplings need nu != 2*Omega"
# (where, rule) of each config._RULES row -> a command line that breaks that rule alone
_RULE_LINES = {
    ("verify.check = guard", "guard demonstration requires eta >= 0.3"):
        ["verify", *_point(0.7, 0.2), "--set", "verify.check=guard"],
    ("verify.check = jc-rabi", "jc-rabi requires nu = 2*Omega"):
        ["verify", *_REF, "--set", "verify.check=jc-rabi"],
    ("verify.check = jc-rabi", "jc-rabi requires eta > 0 and Omega > 0"):
        ["verify", *_point(0.5, 0.0), "--set", "verify.check=jc-rabi"],
    ("scan.etas", "scan.etas needs >= 2 entries"): ["scan", *_DISP, "--set", "scan.etas=0.08"],
    ("scan.etas", "scan.etas > 0"): ["scan", *_DISP, "--set", "scan.etas=0.08,0"],
    ("scan.etas", "scan.etas strictly decreasing"):
        ["scan", *_DISP, "--set", "scan.etas=0.02,0.04"],
    ("scan.n_list", "scan.n_list needs >= 2 entries"):
        ["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.n_list=16"],
    ("scan.n_list", "scan.n_list >= 1"):
        ["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.n_list=0,16"],
    ("scan.n_list", "scan.n_list strictly increasing"):
        ["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.n_list=32,16"],
    ("scan.k_lowest", "scan.k_lowest >= 1"): ["scan", *_DISP, "--set", "scan.k_lowest=0"],
    ("verify.fock", "verify.fock >= 0"):
        ["verify", *_RES, "--set", "verify.check=jc-rabi", "--set", "verify.fock=-1"],
    ("verify.fock", "verify.fock < n_max - guard"):
        ["verify", *_RES, "--set", "verify.check=jc-rabi", "--set", "verify.fock=48"],
    ("command = evolve", "evolve.fock >= 0"): ["evolve", *_RES, "--set", "evolve.fock=-1"],
    ("command = evolve", "evolve.fock < trunc.n_max"):
        ["evolve", *_RES, "--set", "trunc.n_max=8", "--set", "evolve.fock=8"],
    ("command = evolve", "evolve.times strictly increasing"):
        ["evolve", *_RES, "--set", "evolve.times=0,2,1"],
    # the sideband resonance nu = 2*Omega of _RES and of Omega = 0.5 at every eta
    ("dispersive", _POLE): ["build", *_RES, "--set", "build.hamiltonian=dispersive"],
    ("verify.check = dispersive", _POLE):
        ["verify", *_point(0.5, 0.08), "--set", "verify.check=dispersive"],
    ("scan.kind = dispersive", _POLE): ["scan", *_point(0.5, 0.08)],
    ("verify.check = dispersive", "scan.k_lowest <= 2 * (trunc.n_max - trunc.guard)"):
        ["verify", *_DISP, "--set", "verify.check=dispersive", "--set", "trunc.n_max=4",
         "--set", "trunc.guard=0"],
    ("verify.check = dispersive", _SMALL_ROTATION):
        ["verify", *_point(0.55, 0.08), "--set", "verify.check=dispersive"],
    ("scan.kind = dispersive", "scan.k_lowest <= 2 * (trunc.n_max - trunc.guard)"):
        ["scan", *_DISP, "--set", "scan.k_lowest=200"],
    ("scan.kind = dispersive", _SMALL_ROTATION): ["scan", *_point(0.55, 0.08)],
    ("scan.kind = truncation", _TRUNCATION_K):
        ["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.k_lowest=40"],
    ("scan.kind = lamb-dicke", "lamb-dicke scan requires Omega > 0"):
        ["scan", *_point(0.0, 0.1), "--set", "scan.kind=lamb-dicke"],
    ("command = all-checks", "seed >= 0"): ["all-checks", *_REF, "--set", "seed=-1"],
}
# rows whose rule no line can break alone: with n_list[0] < 1 no k_lowest >= 1 is within
# 2 * n_list[0], so the line breaks the truncation scan's k_lowest row as well
_ALSO_BREAKS = {("scan.n_list", "scan.n_list >= 1"): _TRUNCATION_K}
# rows that hold the premise of a later row: with the row off, that row's test raises
# ResonancePoleError, as the small-rotation angles are undefined at the pole
_PREMISES = {("verify.check = dispersive", _POLE), ("scan.kind = dispersive", _POLE)}


def test_every_config_rule_has_a_command_line_that_breaks_it():
    from ionqrm.config import _RULES

    assert list(_RULE_LINES) == [(where, rule) for where, _, rule in _RULES]


@pytest.mark.parametrize("where, rule", list(_RULE_LINES), ids=[
    f"{where}: {rule}" for where, rule in _RULE_LINES])
def test_a_config_rule_broken_alone_is_its_config_error_record(where, rule, monkeypatch,
                                                               capsys):
    import ionqrm.config as config

    argv = _RULE_LINES[where, rule]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (EXIT_ERROR, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "ConfigError", "message": f"constraint violation: {rule}", "schema_version": 1}]
    # with the row's test off the line is valid: it broke no other rule
    monkeypatch.setattr(config, "_RULES", tuple(
        (w, (lambda c: True) if (w, r) == (where, rule) else test, r)
        for w, test, r in config._RULES))
    try:
        parse_config("", tuple(cli._read_argv(argv)[1]))
    except ConfigError as exc:
        assert str(exc) == f"constraint violation: {_ALSO_BREAKS.get((where, rule))}"
    except ResonancePoleError:
        assert (where, rule) in _PREMISES
    else:
        assert (where, rule) not in {*_ALSO_BREAKS, *_PREMISES}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["regime", *_RES, "--help"], ["bogus", "-h"]])
def test_help_prints_the_cli_docstring_and_exits_zero(argv, capsys):
    assert run_cli(argv, capsys) == (EXIT_OK, cli.__doc__, "")
    # the help text names every command and flag, and the exit codes
    for word in (*COMMANDS, "--config", "--set", "--out", "--format", "--se", "Exit status"):
        assert word in cli.__doc__, word


def test_a_flag_takes_its_value_as_the_next_word_or_after_equals(tmp_path, capsys):
    two_words = ["regime", *_RES, "--out", str(tmp_path / "a.txt")]
    one_word = ["--set=Omega=0.5", "--set=eta=0.02", f"--out={tmp_path / 'b.txt'}", "regime"]
    assert run_cli(two_words, capsys) == run_cli(one_word, capsys) == (EXIT_OK, "", "")
    assert (tmp_path / "a.txt").read_text() == (tmp_path / "b.txt").read_text()
    assert (tmp_path / "a.txt").read_text().startswith("JC-resonant\n")


def test_a_command_line_value_overrides_the_document(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("Omega = 0.0005\neta = 0.02\nout = ignored.txt\n")
    code, out, _ = run_cli(["regime", "--config", str(config), "--set", "Omega=0.5",
                            "--out", str(tmp_path / "regime.txt")], capsys)
    assert (code, out) == (EXIT_OK, "")
    assert (tmp_path / "regime.txt").read_text().startswith("JC-resonant\n")
    assert not (tmp_path / "ignored.txt").exists()


@pytest.mark.parametrize("state", ["fock", "coherent"])
@pytest.mark.parametrize("builder", list(HAMILTONIAN_BUILDERS))
def test_evolve_csv_matches_dense_oracle(builder, state, tmp_path, capsys, dense_states):
    trunc = TruncationSpec(32)
    params = IonParams(Omega=0.35, eta=0.11, delta=0.2 if builder == "qrm-detuned" else 0.0)
    out_file = tmp_path / "run.csv"
    args = [
        "evolve",
        "--set", "Omega=0.35",
        "--set", "eta=0.11",
        "--set", f"delta={params.delta}",
        "--set", "trunc.n_max=32",
        "--set", f"evolve.hamiltonian={builder}",
        "--set", f"evolve.state={state}",
        "--set", "evolve.spin=g",
        "--set", "evolve.t_max=20.0",
        "--set", "evolve.samples=41",
        "--out", str(out_file),
    ]
    args += ["--set", "evolve.alpha=0.7-0.4j" if state == "coherent" else "evolve.fock=3"]
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_OK, err
    lines = out_file.read_text().splitlines()
    assert lines[0] == "time,P_e,mean_n,fidelity,norm_residual"
    rows = [line.split(",") for line in lines[1:]]
    assert all(row[3] == "" for row in rows)
    table = np.array([[float(row[i]) for i in (0, 1, 2, 4)] for row in rows])

    h = HAMILTONIAN_BUILDERS[builder](params, trunc)
    psi0 = (coherent_state("g", 0.7 - 0.4j, trunc) if state == "coherent"
            else fock_state("g", 3, trunc))
    times = np.linspace(0.0, 20.0, 41)
    probs = np.abs(dense_states(h, psi0, times)) ** 2
    expected = np.column_stack([
        times,
        probs[:, :32].sum(axis=1),
        probs @ np.tile(np.arange(32), 2),
        np.abs(np.sqrt(probs.sum(axis=1)) - 1.0),
    ])
    np.testing.assert_allclose(table, expected, rtol=0, atol=1e-12)


# the builders of the evolve-wide benchmark, at its size: n_max 256, 300 samples
_WIDE_BUILDERS = ("resonant", "qrm", "lamb-dicke", "jc", "dispersive")


def _wide_evolve(builder, out):
    return ["evolve", "--set", "Omega=0.37", "--set", "eta=0.11", "--set", "trunc.n_max=256",
            "--set", f"evolve.hamiltonian={builder}", "--set", "evolve.state=coherent",
            "--set", "evolve.alpha=0.8-0.4j", "--set", "evolve.t_max=40",
            "--set", "evolve.samples=300", "--out", str(out)]


@pytest.mark.parametrize("builder", _WIDE_BUILDERS)
def test_evolve_frees_h_before_the_first_eigh(builder, tmp_path, monkeypatch):
    import weakref

    from ionqrm import dynamics, models

    argv = _wide_evolve(builder, tmp_path / "run.csv")
    assert main(argv) == EXIT_OK  # fills the displacement basis cache, one eigh
    built, seen = [], []
    original = models.HAMILTONIAN_BUILDERS[builder]

    def keep_a_weakref(p, trunc):
        h = original(p, trunc)
        built.append(weakref.ref(h))
        return h

    def checked(function, stage):
        def run(*args, **kwargs):
            seen.append((stage, built[0]() is None))
            return function(*args, **kwargs)
        return run

    monkeypatch.setitem(models.HAMILTONIAN_BUILDERS, builder, keep_a_weakref)
    monkeypatch.setattr(np.linalg, "eigh", checked(np.linalg.eigh, "eigh"))
    # the dispersive model's 1x1 blocks need no eigh: every builder reaches _evolve
    monkeypatch.setattr(dynamics, "_evolve", checked(dynamics._evolve, "evolve"))
    assert main(argv) == EXIT_OK
    stages = ["evolve"] if builder == "dispersive" else ["eigh", "evolve"]
    assert seen == [(stage, True) for stage in stages]


@pytest.mark.parametrize("builder", _WIDE_BUILDERS)
def test_an_evolve_op_peaks_below_seven_mib(builder, tmp_path):
    import tracemalloc

    argv = _wide_evolve(builder, tmp_path / "run.csv")
    assert main(argv) == EXIT_OK  # fills the caches of the displacement basis
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.75 times H's 4 MiB: H goes before the first eigh, and only blocks or sectors
    # are gauged, so that an op stays within the heap the allocator keeps between ops
    assert peak < 7 * 2**20, peak / 2**20


def test_runtime_error_yields_record(capsys, monkeypatch):
    # an error only the computation finds, such as an order fitted to no remainder, is one
    # record on stderr; config rejects the Omega = 0 scan that gave one before computing
    import ionqrm.analysis as analysis

    def no_order(xs, ys):
        raise ValueError("scaling order undefined")

    monkeypatch.setattr(analysis, "_fit_order", no_order)
    args = ["scan", "--set", "Omega=0.7", "--set", "eta=0.1", "--set", "scan.kind=lamb-dicke",
            "--format", "json"]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (EXIT_ERROR, "")
    record = json.loads(err)
    assert record["error"] == "ValueError"
    args[2] = "Omega=0"
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (EXIT_ERROR, "")
    rule = "lamb-dicke scan requires Omega > 0"
    assert json.loads(err) == {"error": "ConfigError", "schema_version": 1,
                               "message": f"constraint violation: {rule}"}


def test_all_checks_exits_zero_and_lists_reports(tmp_path, capsys):
    out_file = tmp_path / "summary.json"
    args = ["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3", "--out", str(out_file)]
    code, _, _ = run_cli(args, capsys)
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["passed"] is True
    names = {r["name"] for r in payload["reports"]}
    assert {"operator-algebra", "qrm-transform-draws", "guard-necessity",
            "jc-rabi", "dispersive-error-scan", "regime-classifier"} <= names
    assert all(r["passed"] for r in payload["reports"])


def test_all_checks_nonzero_when_a_check_fails(tmp_path, capsys, monkeypatch):
    # a failing report must flip the exit code, so fake one
    import ionqrm.analysis as analysis
    from ionqrm.analysis import VerificationReport

    def fake_checks(trunc, seed):
        return [VerificationReport(name="stub", gates=(("x", "<=", 0.0),), tolerance=0.0,
                                   metrics={"x": 1.0})]

    monkeypatch.setattr(analysis, "run_all_checks", fake_checks)
    code, out, _ = run_cli(["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3"], capsys)
    assert code == EXIT_CHECKS_FAILED
    assert json.loads(out)["passed"] is False


def test_verify_and_a_json_scan_exit_2_exactly_when_their_report_fails(capsys, monkeypatch):
    # every verify and JSON scan of the corpus that runs: the report written has rows, each
    # naming one of its metrics, and the exit status is read from its pass flag
    from ionqrm.analysis import VerificationReport
    from oracles import rows_hold

    written = []
    to_dict = VerificationReport.to_dict

    def recording(report):
        written.append(report)
        return to_dict(report)

    monkeypatch.setattr(VerificationReport, "to_dict", recording)
    entries = [(argv, code) for argv, code in _corpus_tool()[0].ENTRIES if code != EXIT_ERROR
               and (argv[0] == "verify" or argv[0] == "scan" and "json" in argv)]
    failed = []
    for argv, expected in entries:
        written.clear()
        code, out, _ = run_cli(argv, capsys)
        (report,) = written
        assert report.gates and all(m in report.metrics for m, _, _ in report.gates), argv
        assert json.loads(out)["passed"] is report.passed is rows_hold(report), argv
        assert code == expected == (EXIT_OK if report.passed else EXIT_CHECKS_FAILED), argv
        if not report.passed:
            failed.append(report.name)
    assert len(entries) == 18 and failed == ["speed-comparison", "truncation-convergence-qrm"]
    # the same failing scan as CSV carries no pass flag and exits 0
    code, out, _ = run_cli(["scan", "--set", "Omega=0.7", "--set", "eta=0.3", "--set",
                            "scan.kind=truncation", "--set", "scan.n_list=4,8"], capsys)
    assert code == EXIT_OK and out.startswith("n_max,max_shift_from_prev\n")


def test_a_nan_oracle_deviation_is_one_error_record_not_a_nan_token(capsys, monkeypatch):
    import ionqrm.analysis as analysis

    oracle = analysis.displacement_laguerre

    def nan_oracle(alpha, trunc):
        out = oracle(alpha, trunc)
        out[1, 1] = np.nan
        return out

    monkeypatch.setattr(analysis, "displacement_laguerre", nan_oracle)
    code, out, err = run_cli(["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3"], capsys)
    assert code == EXIT_ERROR
    assert out == "" and "NaN" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ValueError"


def _build_entries(capsys, *sets):
    args = ["build", "--set", "Omega=0.7", "--set", "eta=0.3", "--set", "trunc.n_max=8",
            "--set", "trunc.guard=2"]
    for setting in sets:
        args += ["--set", setting]
    code, out, err = run_cli(args, capsys)
    return code, json.loads(out)["entries"] if code == EXIT_OK else err


def test_every_builder_that_accepts_phi_l_reads_it(capsys):
    readers = [name for name in BUILDER_NAMES if "phi_l" not in RUN_SKIPS[name]]
    assert readers == ["lamb-dicke", "rabi-rotated", "resonant"]
    for name in readers:
        at_zero, at_pi = (_build_entries(capsys, f"build.hamiltonian={name}", f"phi_l={phase!r}")
                          for phase in (0.0, math.pi))
        assert at_zero[0] == at_pi[0] == EXIT_OK
        assert at_zero[1] != at_pi[1], name


@pytest.mark.parametrize("phase", [math.pi, -math.pi, 3 * math.pi, math.pi + 5e-13,
                                   math.pi - 5e-13, math.pi + 5e-10, math.pi - 5e-10])
def test_regime_and_rabi_rotated_follow_the_one_phase_rule(phase, capsys):
    from ionqrm.params import laser_phase_sign

    sign = laser_phase_sign(phase)
    code, out, _ = run_cli(["regime", "--set", "Omega=0.5", "--set", "eta=0.02",
                            "--set", f"phi_l={phase!r}"], capsys)
    assert code == EXIT_OK
    assert (out.splitlines()[0] == "AJC-resonant") == (sign == -1.0)
    code, entries = _build_entries(capsys, "build.hamiltonian=rabi-rotated", f"phi_l={phase!r}")
    assert (code == EXIT_OK) == (sign is not None)
    if sign is not None:
        # entry (|e,0>, |e,0>) is nu*0 + sign*Omega
        assert entries[0] == [sign * 0.7, 0.0]


def test_scan_with_vanishing_remainder_is_an_error_not_nan(src_env):
    # Omega = 0 makes the Lamb-Dicke remainder vanish, so its order is undefined: config
    # rejects the line before any norm is computed
    proc = subprocess.run(
        [sys.executable, "-m", "ionqrm", "scan", "--set", "Omega=0", "--set", "eta=0.1",
         "--set", "scan.kind=lamb-dicke", "--format", "json"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == EXIT_ERROR
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert record["message"] == "constraint violation: lamb-dicke scan requires Omega > 0"


def test_json_output_rejects_non_finite_values():
    from ionqrm.cli import _json_text

    with pytest.raises(ValueError):
        _json_text({"order": float("nan")})


def test_module_entry_point_smoke(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "ionqrm", "regime", "--set", "Omega=1.0", "--set", "eta=2.5"],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stdout.splitlines()[0] == "deep-strong"


# Runs CLI commands in one fresh interpreter and prints, as JSON, the exit code,
# the scipy and numpy modules and the argument-parsing modules (argparse and the
# gettext and locale it loads) loaded after the import and after each command
# (by its label).
_COLD_CHILD = """
import contextlib, io, json, sys
import ionqrm

def loaded(code=None):
    seen = {"exit": code}
    for family in ("scipy", "numpy"):
        seen[family] = sorted(k for k in sys.modules
                              if k == family or k.startswith(family + "."))
    seen["argparse"] = [m for m in ("argparse", "gettext", "locale") if m in sys.modules]
    return seen

seen = {"import ionqrm": loaded()}
from ionqrm.cli import main
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    seen[label] = loaded(code)
print(json.dumps(seen))
"""


# Run before _COLD_CHILD, it makes every import of scipy or a scipy module fail, as
# where scipy is not installed, and checks that it does.
_NO_SCIPY = """
import sys

class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoScipy())
try:
    import scipy.special
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")
"""


def _run_cold(commands, src_env, prelude=""):
    proc = subprocess.run(
        [sys.executable, "-c", prelude + _COLD_CHILD, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_cheap_commands_never_load_scipy(src_env):
    base = ["--set", "Omega=0.7", "--set", "eta=0.3"]
    small = ["--set", "trunc.n_max=16", "--set", "trunc.guard=4"]
    evolve = ["--set", "evolve.state=coherent", "--set", "evolve.alpha=0.5+0.2j",
              "--set", "evolve.t_max=5", "--set", "evolve.samples=11"]
    commands = [
        ("regime", ["regime", *base]),
        ("build resonant", ["build", *base, *small, "--set", "build.hamiltonian=resonant"]),
        # evolve reads no trunc.guard
        ("evolve resonant", ["evolve", *base, *small[:2], *evolve,
                             "--set", "evolve.hamiltonian=resonant"]),
    ]
    for kind in ("dispersive", "truncation", "lamb-dicke"):
        commands.append((f"scan {kind}", ["scan", *base, "--set", f"scan.kind={kind}"]))
    for check in ("qrm-transform", "guard", "speed"):
        # speed reads no trunc.* key, and guard no trunc.guard
        trunc = {"qrm-transform": small, "guard": small[:2]}.get(check, [])
        commands.append((f"verify {check}", ["verify", *base, *trunc,
                                             "--set", f"verify.check={check}"]))
    seen = _run_cold(commands, src_env)
    assert list(seen) == ["import ionqrm"] + [label for label, _ in commands]
    # the qrm-transform report fails at this small cutoff, so that verify exits 2
    assert {label: run["exit"] for label, run in seen.items()} == {
        "import ionqrm": None, **{label: EXIT_OK for label, _ in commands},
        "verify qrm-transform": EXIT_CHECKS_FAILED}
    assert {label: run["scipy"] for label, run in seen.items() if run["scipy"]} == {}


def test_all_checks_runs_on_numpy_blas_only(src_env):
    # the Laguerre oracle is a numpy recurrence, so no command loads scipy (nor
    # scipy.linalg's own BLAS thread pool, which would compete with numpy's)
    seen = _run_cold([("all-checks", ["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3"])],
                     src_env)
    assert seen["all-checks"]["exit"] == EXIT_OK
    assert seen["all-checks"]["scipy"] == []


_ALL_CHECKS_SEEDS = (2024, 2**64 + 5)  # the second seeds the draws from three 32-bit words


def _every_command(out_dir):
    """(label, argv) of regime, build and evolve of each builder at a small n_max, each
    scan kind, each verify check, and all-checks at each of _ALL_CHECKS_SEEDS writing
    ``out_dir / f"all-checks-{seed}.json"``."""
    base = ["--set", "Omega=0.7", "--set", "eta=0.3"]
    small = ["--set", "trunc.n_max=16", "--set", "trunc.guard=4"]
    commands = [("regime", ["regime", *base])]
    for name in BUILDER_NAMES:
        commands.append((f"build {name}", ["build", *base, *small,
                                           "--set", f"build.hamiltonian={name}"]))
        # evolve reads no trunc.guard
        commands.append((f"evolve {name}", ["evolve", *base, *small[:2],
                                            "--set", f"evolve.hamiltonian={name}",
                                            "--set", "evolve.samples=11"]))
    commands += [(f"scan {kind}", ["scan", *base, "--set", f"scan.kind={kind}"])
                 for kind in SCAN_KINDS]
    for check in VERIFY_CHECKS:
        ion = base
        if check == "jc-rabi":  # its sideband resonance nu = 2*Omega
            ion = ["--set", "Omega=0.5", "--set", "eta=0.05"]
        commands.append((f"verify {check}", ["verify", *ion, "--set", f"verify.check={check}"]))
    commands += [(f"all-checks seed={seed}",
                  ["all-checks", *base, "--set", f"seed={seed}",
                   "--out", str(out_dir / f"all-checks-{seed}.json")])
                 for seed in _ALL_CHECKS_SEEDS]
    return commands


def test_every_command_runs_without_scipy(src_env, tmp_path):
    commands = _every_command(tmp_path)
    seen = _run_cold(commands, src_env, prelude=_NO_SCIPY)
    assert {label: run["exit"] for label, run in seen.items()} == {
        "import ionqrm": None, **{label: EXIT_OK for label, _ in commands}}


# Run before _COLD_CHILD, it makes every import of numpy.random or numpy.ma (or a module
# in either) fail, and checks that it does.
_NO_RANDOM_NO_MA = """
import sys

class _NoRandomNoMa:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"]):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, _NoRandomNoMa())
for blocked in ("numpy.random", "numpy.ma"):
    try:
        __import__(blocked)
    except ImportError:
        pass
    else:
        raise SystemExit(f"{blocked} was not blocked")
"""


def test_no_command_loads_numpy_random_or_numpy_ma(src_env, tmp_path):
    # the seeded draws come from analysis's own PCG64 stream and the block sizes from a
    # bincount, so a run needs numpy's core, linalg and fft only
    free, blocked = tmp_path / "free", tmp_path / "blocked"
    free.mkdir()
    blocked.mkdir()
    commands = _every_command(free)
    seen = _run_cold(commands, src_env)
    exits = {label: run["exit"] for label, run in seen.items()}
    assert exits == {"import ionqrm": None, **{label: EXIT_OK for label, _ in commands}}
    assert {label: loaded for label, run in seen.items()
            if (loaded := [m for m in run["numpy"]
                           if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"])])} == {}
    seen = _run_cold(_every_command(blocked), src_env, prelude=_NO_RANDOM_NO_MA)
    assert {label: run["exit"] for label, run in seen.items()} == exits
    for seed in _ALL_CHECKS_SEEDS:
        name = f"all-checks-{seed}.json"
        assert (blocked / name).read_bytes() == (free / name).read_bytes()


def test_import_and_regime_never_load_numpy(src_env, tmp_path):
    base = ["regime", "--set", "Omega=0.5", "--set", "eta=0.02"]
    commands = [
        ("regime", base),
        ("regime --out", [*base, "--out", str(tmp_path / "regime.txt")]),
        ("regime error record", ["regime", "--set", "Omega=-1", "--set", "eta=0.02"]),
        ("rejected command line", [*base, "--sett", "eta=0.3"]),
    ]
    seen = _run_cold(commands, src_env)
    assert {label: run["exit"] for label, run in seen.items()} == {
        "import ionqrm": None, "regime": EXIT_OK, "regime --out": EXIT_OK,
        "regime error record": EXIT_ERROR, "rejected command line": EXIT_ERROR}
    assert (tmp_path / "regime.txt").read_text().startswith("JC-resonant\n")
    assert {label: run["numpy"] for label, run in seen.items() if run["numpy"]} == {}
    assert {label: run["argparse"] for label, run in seen.items() if run["argparse"]} == {}


def _module_entry(argv, src_env):
    """What `python -m ionqrm ARGV` runs, with sys.modules visible afterwards: the exit
    code and the loaded modules of interest, then the first line it wrote."""
    child = (
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['ionqrm', *{argv!r}]\n"
        "out = io.StringIO()\n"
        "try:\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "        runpy.run_module('ionqrm', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "loaded = [m for m in ('numpy', 'dataclasses', 'inspect', 'json', 'argparse',\n"
        "                      'gettext', 'locale') if m in sys.modules]\n"
        "print(code, *loaded)\n"
        "print(out.getvalue().splitlines()[0])\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=src_env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_module_entry_point_regime_never_loads_numpy(src_env):
    # the records need no dataclasses (nor its inspect), json only writes errors, and
    # the command line needs no argparse (nor the gettext and locale it loads)
    argv = ["regime", "--set", "Omega=1.0", "--set", "eta=2.5"]
    assert _module_entry(argv, src_env) == [str(EXIT_OK), "deep-strong"]


def test_module_entry_point_rejects_a_command_line_without_argparse(src_env):
    argv = ["regime", "--set", "Omega=1.0", "--sett", "eta=2.5"]
    record = '{"error": "ConfigError", "message": "unknown flag \'--sett\'", "schema_version": 1}'
    assert _module_entry(argv, src_env) == [f"{EXIT_ERROR} json", record]


def test_scipy_users_resolve_their_lazy_imports(src_env):
    jc = ["--set", "Omega=0.5", "--set", "eta=0.05", "--set", "verify.check=jc-rabi"]
    rotation = ["--set", "Omega=0.7", "--set", "eta=0.3", "--set", "verify.check=rotation"]
    seen = _run_cold([("verify jc-rabi", ["verify", *jc]),
                      ("verify rotation", ["verify", *rotation])], src_env)
    # both commands exited 0 in the child; the 2x2 rotation they use is in closed form
    assert [run["exit"] for run in seen.values()] == [None, EXIT_OK, EXIT_OK]
    assert seen["import ionqrm"]["scipy"] == []
    assert seen["verify jc-rabi"]["scipy"] == []
    assert seen["verify rotation"]["scipy"] == []

    oracle = (
        "import sys\n"
        "from ionqrm import TruncationSpec, displacement_laguerre\n"
        "assert 'scipy' not in sys.modules\n"
        "d = displacement_laguerre(0.3 + 0.1j, TruncationSpec(8))\n"
        "print(repr(float(d[0, 0].real)), 'scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", oracle], capture_output=True, text=True,
                          env=src_env)
    assert proc.returncode == 0, proc.stderr
    vacuum, loaded = proc.stdout.split()
    # <0|D(alpha)|0> = exp(-|alpha|^2 / 2)
    assert float(vacuum) == pytest.approx(np.exp(-0.05), rel=1e-14)
    assert loaded == "False"


def _corpus_tool():
    """tools/cli_corpus.py of this checkout, as a module."""
    import importlib.util
    from pathlib import Path

    from conftest import SRC

    tool = Path(SRC).parent / "tools" / "cli_corpus.py"
    spec = importlib.util.spec_from_file_location("cli_corpus", tool)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus, str(tool)


def test_cli_corpus_runs_every_entry_to_its_exit_code(tmp_path):
    from pathlib import Path

    from conftest import SRC

    corpus, tool = _corpus_tool()
    proc = subprocess.run([sys.executable, tool, SRC], capture_output=True, text=True,
                          check=True)
    pinned = (Path(__file__).parent / "cli_corpus.txt").read_text().splitlines()
    got = proc.stdout.splitlines()
    assert got[0] == pinned[0] and len(got) == len(pinned)
    rows = [line.split(" ", 3) for line in got[2:]]
    assert len(rows) == len(corpus.ENTRIES) == 141
    for (digest, masked, code, argv), (entry, expected) in zip(rows, corpus.ENTRIES):
        assert argv == " ".join(entry) and len(digest) == len(masked) == 64
        assert int(code) == expected, argv
    # the full digests hold in the environment that wrote them; elsewhere the exit codes
    # and the digests with every number masked still check every other field
    moved = corpus.moved(pinned, got)
    assert moved == [], ("outputs moved; if on purpose, list them from --compare in "
                         "CHANGES.md and rewrite the file from tools/cli_corpus.py src:\n"
                         + "\n".join(moved))
    assert corpus._NUMBER.sub("#", '{"x": [-1.5e-17, 0.25], "n_max": 8, "k": "ajc"}') == (
        '{"x": [#, #], "n_max": #, "k": "ajc"}')
    # config rejects every invalid line before any computation, the 2*Omega = nu pole too
    dump = subprocess.run([sys.executable, tool, "--dump", SRC], capture_output=True,
                          text=True, check=True).stdout.splitlines()
    errors = {entry["argv"]: json.loads(entry["stderr"])["error"]
              for entry in map(json.loads, dump) if entry["code"] == EXIT_ERROR}
    assert {argv: error for argv, error in errors.items() if error != "ConfigError"} == {}


def test_cli_corpus_says_what_moved_in_each_entry():
    corpus, _ = _corpus_tool()
    header = ["# format", '# environment {"cpus": 2}']
    pinned = [*header, "a1 m1 0 regime x", "a2 m2 0 regime y", "a3 m3 1 regime z",
              "a4 m4 0 regime w"]
    got = [*header, "a1 m1 0 regime x", "b2 m2 0 regime y", "b3 n3 0 regime z",
           "b4 n4 0 regime w"]
    assert corpus.moved(pinned, got) == ["regime y: full digest only",
                                         "regime z: exit code 1 -> 0",
                                         "regime w: masked digest"]
    # in another environment only the exit codes and masked digests are compared
    elsewhere = [got[0], '# environment {"cpus": 4}', *got[2:]]
    assert corpus.moved(pinned, elsewhere) == ["regime z: exit code 1 -> 0",
                                               "regime w: masked digest"]
    assert corpus.moved(pinned, [*header, "a1 m1 0 regime v"]) == ["regime v: pinned as regime x"]


def test_cli_corpus_compare_shows_how_far_each_column_moved(tmp_path):
    import shutil

    from conftest import SRC

    corpus, tool = _corpus_tool()
    assert corpus.changes('{"a": 1.0, "b": [2, 3], "c": "x"}\n',
                          '{"a": 1.5, "b": [2, 3], "c": "y"}\n') == [
        "a: 1 of 1 numbers differ, max abs 0.5, max rel 0.5",
        "c: 1 of 1 other fields differ",
    ]
    assert corpus.changes("t,P_e\n0.0,1.0\n1.0,0.5\n", "t,P_e\n0.0,1.0\n1.0,0.25\n") == [
        "P_e: 1 of 2 numbers differ, max abs 0.25, max rel 0.5",
    ]

    same = subprocess.run([sys.executable, tool, "--compare", SRC, SRC],
                          capture_output=True, text=True)
    assert same.returncode == 0, same.stderr
    assert same.stdout == f"0 of {len(corpus.ENTRIES)} entries differ\n"
    # a checkout whose CSV numbers are rounded to 12 significant digits
    rounded = tmp_path / "src"
    shutil.copytree(SRC, rounded, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = rounded / "ionqrm" / "cli.py"
    text = cli_py.read_text()
    assert "    return repr(float(x))\n" in text
    cli_py.write_text(text.replace("    return repr(float(x))\n",
                                   "    return repr(float(f\"{float(x):.12g}\"))\n"))
    moved = subprocess.run([sys.executable, tool, "--compare", SRC, str(rounded)],
                           capture_output=True, text=True)
    assert moved.returncode == 1, moved.stderr
    lines = moved.stdout.splitlines()
    entries = [line for line in lines if not line.startswith("    ")][:-1]
    assert entries and all(line.endswith(": exit 0 -> 0") for line in entries)
    assert lines[-1] == f"{len(entries)} of {len(corpus.ENTRIES)} entries differ"
    columns = [line.split() for line in lines if line.startswith("    ")]
    assert {c[1] for c in columns} >= {"P_e:", "mean_n:", "spectral_distance:"}
    for column in columns:
        assert column[0] == "stdout" and column[5:8] == ["numbers", "differ,", "max"]
        assert float(column[12]) <= 5e-12, column


def test_output_is_written_atomically_no_temp_left_behind(tmp_path, capsys):
    out_file = tmp_path / "h.json"
    args = [
        "build",
        "--set", "Omega=0.5",
        "--set", "eta=0.1",
        "--set", "trunc.n_max=4",
        "--set", "trunc.guard=0",
        "--out", str(out_file),
    ]
    assert run_cli(args, capsys)[0] == EXIT_OK
    assert out_file.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".ionqrm-tmp-")]
    assert leftovers == []

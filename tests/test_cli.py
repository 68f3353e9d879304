"""End-to-end tests of the command-line surface."""
import json
import subprocess
import sys

import numpy as np
import pytest

from ionqrm import (HAMILTONIAN_BUILDERS, IonParams, TruncationSpec, coherent_state,
                    fock_state)
from ionqrm.cli import EXIT_CHECKS_FAILED, EXIT_ERROR, EXIT_OK, main


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
    ],
    ids=["evolve.alpha", "evolve.fock", "scan.n_list", "scan.builder", "verify.fock",
         "format", "--format", "scan.etas", "scan.k_lowest"],
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


def test_runtime_error_yields_record(capsys):
    # dispersive check at the sideband pole fails after config validation
    args = [
        "verify",
        "--set", "Omega=0.5",
        "--set", "eta=0.08",
        "--set", "verify.check=dispersive",
    ]
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_ERROR
    record = json.loads(err)
    assert record["error"] == "ResonancePoleError"


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
    import ionqrm.cli as cli
    from ionqrm.analysis import VerificationReport

    def fake_checks(trunc, seed, tol):
        return [VerificationReport(name="stub", passed=False, tolerance=0.0)]

    monkeypatch.setattr(cli.analysis, "run_all_checks", fake_checks)
    code, out, _ = run_cli(["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3"], capsys)
    assert code == EXIT_CHECKS_FAILED
    assert json.loads(out)["passed"] is False


def test_all_checks_applies_tol_identity_to_the_rotation_diagnostic(capsys):
    args = ["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3", "--set", "tol.identity=1e-30"]
    code, out, _ = run_cli(args, capsys)
    assert code == EXIT_CHECKS_FAILED
    reports = {r["name"]: r for r in json.loads(out)["reports"]}
    assert reports["rotation-diagnostic"]["tolerance"] == 1e-30
    assert reports["rotation-diagnostic"]["passed"] is False


def test_scan_with_vanishing_remainder_is_an_error_not_nan(src_env):
    # Omega = 0 makes the Lamb-Dicke remainder vanish, so its order is undefined
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
    assert record["error"] == "ValueError"
    assert "order undefined" in record["message"]


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


# Runs CLI commands in one fresh interpreter and prints, as JSON, the scipy
# modules loaded after the import and after each command (by its label).
_COLD_CHILD = """
import contextlib, io, json, sys
import ionqrm
from ionqrm.cli import main

def scipy_modules():
    return sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))

seen = {"import ionqrm": scipy_modules()}
for label, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 0, (label, code)
    seen[label] = scipy_modules()
print(json.dumps(seen))
"""


def _run_cold(commands, src_env):
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, json.dumps(commands)],
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
        ("evolve resonant", ["evolve", *base, *small, *evolve,
                             "--set", "evolve.hamiltonian=resonant"]),
    ]
    for kind in ("dispersive", "truncation", "lamb-dicke"):
        commands.append((f"scan {kind}", ["scan", *base, "--set", f"scan.kind={kind}"]))
    for check in ("qrm-transform", "guard", "speed"):
        commands.append((f"verify {check}", ["verify", *base, *small,
                                             "--set", f"verify.check={check}"]))
    seen = _run_cold(commands, src_env)
    assert list(seen) == ["import ionqrm"] + [label for label, _ in commands]
    assert {label: mods for label, mods in seen.items() if mods} == {}


def test_scipy_users_resolve_their_lazy_imports(src_env):
    jc = ["--set", "Omega=0.5", "--set", "eta=0.05", "--set", "verify.check=jc-rabi"]
    rotation = ["--set", "Omega=0.7", "--set", "eta=0.3", "--set", "verify.check=rotation"]
    seen = _run_cold([("verify jc-rabi", ["verify", *jc]),
                      ("verify rotation", ["verify", *rotation])], src_env)
    # both commands exited 0 in the child, so their function-local imports resolved
    assert seen["import ionqrm"] == []
    assert "scipy.linalg" in seen["verify jc-rabi"]

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
    assert loaded == "True"


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

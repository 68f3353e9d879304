"""Command-line surface.

Usage::

    ionqrm <command> [--config PATH] [--set key=value]... [--out PATH] [--format csv|json]

Commands: build, verify, evolve, scan, regime, all-checks. The positional
command and every ``--set`` pair override values from the config file; the
combined configuration is validated before any computation. Output files
are written atomically (temp file then rename); without ``--out`` results
go to stdout. Exit status: 0 on success, 1 on any error (with a
machine-parsable JSON record on stderr), 2 when ``all-checks`` finds a
failing report.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import analysis
from .config import COMMANDS, ConfigError, RunConfig, parse_config
from .dynamics import coherent_state, fock_state, propagate
from .models import HAMILTONIAN_BUILDERS, classify_regime, h_qrm

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECKS_FAILED = 2

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    """Shortest round-trip decimal representation."""
    return repr(float(x))


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ionqrm-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _json_text(payload: dict) -> str:
    # strict JSON: a NaN or infinity is an error, never a bare token
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _cmd_build(config: RunConfig) -> int:
    name = config.build.hamiltonian
    if name == "qrm":
        h = h_qrm(config.params, config.trunc, include_constant=config.build.include_constant)
    else:
        h = HAMILTONIAN_BUILDERS[name](config.params, config.trunc)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "hamiltonian",
        "name": name,
        "dim": int(h.shape[0]),
        "params": asdict(config.params),
        "trunc": asdict(config.trunc),
        "entries": [[float(z.real), float(z.imag)] for z in h.ravel()],
    }
    _write_text(config.out, _json_text(payload))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    p, trunc, tol = config.params, config.trunc, config.tol
    check = config.verify.check
    if check == "qrm-transform":
        report = analysis.qrm_transform_check(p, trunc, tol)
    elif check == "guard":
        report = analysis.guard_necessity_check(p, n_max=trunc.n_max, tol=tol)
    elif check == "dispersive":
        report = analysis.dispersive_error_scan(p, trunc=trunc, tol=tol)
    elif check == "jc-rabi":
        report = analysis.jc_rabi_experiment(p, config.verify.fock, trunc, tol=tol)
    elif check == "speed":
        report = analysis.speed_comparison(p, tol=tol)
    else:
        report = analysis.rotation_diagnostic_check(p, trunc, tol=tol)
    _write_text(config.out, _json_text(report.to_dict()))
    return EXIT_OK


def _initial_state(config: RunConfig) -> np.ndarray:
    e = config.evolve
    if e.state == "fock":
        return fock_state(e.spin, e.fock, config.trunc)
    return coherent_state(e.spin, e.alpha, config.trunc)


def _cmd_evolve(config: RunConfig) -> int:
    e = config.evolve
    h = HAMILTONIAN_BUILDERS[e.hamiltonian](config.params, config.trunc)
    if e.times is not None:
        times = np.asarray(e.times, dtype=float)
    else:
        times = np.linspace(0.0, e.t_max, e.samples)
    result = propagate(h, _initial_state(config), times)
    lines = ["time,P_e,mean_n,fidelity,norm_residual"]
    for i, t in enumerate(result.times):
        fid = "" if result.fidelity is None else _fmt(result.fidelity[i])
        lines.append(
            f"{_fmt(t)},{_fmt(result.p_excited[i])},{_fmt(result.mean_n[i])},"
            f"{fid},{_fmt(result.norm_residual[i])}"
        )
    _write_text(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_scan(config: RunConfig) -> int:
    p, s = config.params, config.scan
    if s.kind == "dispersive":
        report = analysis.dispersive_error_scan(
            p, etas=s.etas, trunc=config.trunc, k_lowest=s.k_lowest, tol=config.tol
        )
        rows = [("eta,spectral_distance")] + [
            f"{_fmt(eta)},{_fmt(report.metrics[f'distance_eta_{eta}'])}" for eta in s.etas
        ]
    elif s.kind == "lamb-dicke":
        report = analysis.lamb_dicke_remainder_scan(p, etas=s.etas, tol=config.tol)
        rows = [("eta,remainder_norm")] + [
            f"{_fmt(eta)},{_fmt(report.metrics[f'norm_eta_{eta}'])}" for eta in s.etas
        ]
    else:
        report = analysis.truncation_convergence(
            s.builder, p, s.n_list, s.k_lowest, tol=config.tol
        )
        rows = ["n_max,max_shift_from_prev"]
        rows.append(f"{s.n_list[0]},")
        for a, b in zip(s.n_list[:-1], s.n_list[1:]):
            rows.append(f"{b},{_fmt(report.metrics[f'shift_{a}_to_{b}'])}")
    if config.format == "json":
        _write_text(config.out, _json_text(report.to_dict()))
    else:
        _write_text(config.out, "\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_regime(config: RunConfig) -> int:
    p = config.params
    label = classify_regime(p, config.regime)
    g = p.eta * p.nu / 2.0
    out = [
        label.value,
        f"g_ratio = {_fmt(g / p.nu)}",
        f"omega_ratio = {_fmt(p.Omega / p.nu)}",
    ]
    _write_text(config.out, "\n".join(out) + "\n")
    return EXIT_OK


def _cmd_all_checks(config: RunConfig) -> int:
    reports = analysis.run_all_checks(trunc=config.trunc, seed=config.seed, tol=config.tol)
    passed = all(r.passed for r in reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "passed": passed,
        "reports": [r.to_dict() for r in reports],
    }
    _write_text(config.out, _json_text(payload))
    return EXIT_OK if passed else EXIT_CHECKS_FAILED


_DISPATCH = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "scan": _cmd_scan,
    "regime": _cmd_regime,
    "all-checks": _cmd_all_checks,
}


def _error_record(exc: Exception) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ConfigError) and exc.line is not None:
        payload["line"] = exc.line
    return json.dumps(payload, sort_keys=True) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ionqrm",
        description="Engineered quantum Rabi model: builders, dynamics and checks",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="path to a key-value configuration document")
    parser.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable; applied after the file)",
    )
    parser.add_argument("--out", help="output path (stdout when omitted)")
    parser.add_argument("--format", choices=["csv", "json"], help="output format")
    args = parser.parse_args(argv)

    try:
        text = ""
        if args.config is not None:
            with open(args.config, "r") as fh:
                text = fh.read()
        overrides: list[tuple[str, str]] = [("command", args.command)]
        for item in args.sets:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            overrides.append((key, value))
        if args.out is not None:
            overrides.append(("out", args.out))
        if args.format is not None:
            overrides.append(("format", args.format))
        config = parse_config(text, tuple(overrides))
        return _DISPATCH[config.command](config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(_error_record(exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

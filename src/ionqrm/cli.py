"""ionqrm: the single-beam quantum Rabi model as matrices, dynamics and checks.

Usage: ionqrm COMMAND [--config PATH] [--set KEY=VALUE]... [--out PATH] [--format FORMAT]
       ionqrm -h | --help

COMMAND, the one bare word, is build, verify, evolve, scan, regime or all-checks.
A flag takes its value after "=" (--out=run.csv) or as the next word, unless that
starts with "-", and is spelled in full: --se is an error, not --set. --config reads
a key-value document; --set, --out and --format each set one key (KEY, out, format)
over the document's value. Each flag but --set, and each key, may be given once,
and --set cannot set command. The whole configuration is validated before any
computation. Output files are written atomically; without --out results go to stdout.

Exit status: 0 on success and for --help; 1 on any error, with one JSON record on
stderr and nothing on stdout; 2 when a report that verify, scan --format json or
all-checks writes fails.
"""
from __future__ import annotations

import os
import sys
import tempfile

from .config import ConfigError, RunConfig, parse_config
from .params import SCHEMA_VERSION, classify_regime, qrm_coupling

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECKS_FAILED = 2
# handlers import numpy and the layers they need as they run: regime needs only the stdlib


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
    import json

    # strict JSON: a NaN or infinity is an error, never a bare token
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _exit_status(reports: list) -> int:
    """EXIT_CHECKS_FAILED when any report a command wrote fails, else EXIT_OK."""
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECKS_FAILED


def _cmd_build(config: RunConfig) -> int:
    from .models import HAMILTONIAN_BUILDERS, h_qrm

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
        "params": config.params.asdict(),
        "trunc": config.trunc.asdict(),
        "entries": [[float(z.real), float(z.imag)] for z in h.ravel()],
    }
    _write_text(config.out, _json_text(payload))
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    from . import analysis

    p, trunc, tol = config.params, config.trunc, config.tol
    check = config.verify.check
    if check == "qrm-transform":
        report = analysis.qrm_transform_check(p, trunc, tol)
    elif check == "guard":
        report = analysis.guard_necessity_check(p, n_max=trunc.n_max, tol=tol)
    elif check == "dispersive":
        report = analysis.dispersive_error_scan(p, trunc=trunc, tol=tol)
    elif check == "jc-rabi":
        report = analysis.jc_rabi_experiment(p, config.verify.fock, trunc)
    elif check == "speed":
        report = analysis.speed_comparison(p)
    else:
        report = analysis.rotation_diagnostic_check(p, trunc, tol=tol)
    _write_text(config.out, _json_text(report.to_dict()))
    return _exit_status([report])


def _cmd_evolve(config: RunConfig) -> int:
    import numpy as np

    from .dynamics import coherent_state, fock_state, propagate
    from .models import HAMILTONIAN_BUILDERS

    e = config.evolve
    if e.times is not None:
        times = np.asarray(e.times, dtype=float)
    else:
        times = np.linspace(0.0, e.t_max, e.samples)
    # H is an argument bound to no name here, so propagate frees it before the first eigh
    result = propagate(HAMILTONIAN_BUILDERS[e.hamiltonian](config.params, config.trunc),
                       fock_state(e.spin, e.fock, config.trunc) if e.state == "fock"
                       else coherent_state(e.spin, e.alpha, config.trunc), times)
    # the fidelity column stays in the schema and is always empty
    lines = ["time,P_e,mean_n,fidelity,norm_residual"]
    for i, t in enumerate(result.times):
        lines.append(
            f"{_fmt(t)},{_fmt(result.p_excited[i])},{_fmt(result.mean_n[i])},,"
            f"{_fmt(result.norm_residual[i])}"
        )
    _write_text(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_scan(config: RunConfig) -> int:
    from . import analysis

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
        report = analysis.truncation_convergence(s.builder, p, s.n_list, s.k_lowest)
        rows = ["n_max,max_shift_from_prev", f"{s.n_list[0]},"]
        for a, b in zip(s.n_list[:-1], s.n_list[1:]):
            rows.append(f"{b},{_fmt(report.metrics[f'shift_{a}_to_{b}'])}")
    text = _json_text(report.to_dict()) if config.format == "json" else "\n".join(rows) + "\n"
    _write_text(config.out, text)
    return _exit_status([report]) if config.format == "json" else EXIT_OK  # CSV: no flag


def _cmd_regime(config: RunConfig) -> int:
    p = config.params
    label = classify_regime(p, config.regime)
    out = [label.value, f"g_ratio = {_fmt(qrm_coupling(p) / p.nu)}",
           f"omega_ratio = {_fmt(p.Omega / p.nu)}"]
    _write_text(config.out, "\n".join(out) + "\n")
    return EXIT_OK


def _cmd_all_checks(config: RunConfig) -> int:
    from . import analysis

    reports = analysis.run_all_checks(trunc=config.trunc, seed=config.seed, tol=config.tol)
    status = _exit_status(reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "passed": status == EXIT_OK,
        "reports": [r.to_dict() for r in reports],
    }
    _write_text(config.out, _json_text(payload))
    return status


_DISPATCH = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "evolve": _cmd_evolve,
    "scan": _cmd_scan,
    "regime": _cmd_regime,
    "all-checks": _cmd_all_checks,
}


def _error_record(exc: Exception) -> str:
    import json

    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": type(exc).__name__,
        "message": str(exc),
    }
    if isinstance(exc, ConfigError) and exc.line is not None:
        payload["line"] = exc.line
    return json.dumps(payload, sort_keys=True) + "\n"


def _read_argv(argv: list[str]) -> tuple[str | None, list[tuple[str, str]]]:
    """The --config path and the (key, value) overrides that ``argv`` sets."""
    path, commands, overrides, words = None, [], [], iter(argv)
    for word in words:
        if not word.startswith("-"):
            commands.append(word)
            continue
        flag, eq, value = word.partition("=")
        if flag not in ("--config", "--set", "--out", "--format"):
            raise ConfigError(f"unknown flag {flag!r}")
        if not eq:
            value = next(words, None)
            if value is None or value.startswith("-"):
                raise ConfigError(f"{flag} expects a value")
        if flag == "--config":
            if path is not None:
                raise ConfigError("--config may be given once")
            path = value
        elif flag == "--set":
            key, eq, value = value.partition("=")
            if not eq:
                raise ConfigError(f"--set expects KEY=VALUE, got {key!r}")
            if key.strip() == "command":
                raise ConfigError("the command is the positional argument; --set cannot change it")
            overrides.append((key, value))
        else:
            overrides.append((flag[2:], value))
    if len(commands) != 1:
        raise ConfigError(f"expected one command, the one bare word; got {commands}")
    return path, [("command", commands[0]), *overrides]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(__doc__)
        return EXIT_OK
    try:
        path, overrides = _read_argv(argv)
        text = ""
        if path is not None:
            with open(path, "r") as fh:
                text = fh.read()
        config = parse_config(text, tuple(overrides))
        return _DISPATCH[config.command](config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(_error_record(exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, one op each, and its output checks.

Every workload drives the product the way a user does, through
``ionqrm.cli.main`` (in process) or ``python -m ionqrm`` (a fresh process),
one op at a time from a single client (a closed loop).  ``run`` is the timed
region; ``check`` runs outside it and returns ``(error, output bytes)``.
Only the standard library is imported at module level, so the parent
process in ``run.py`` stays free of numpy and ionqrm.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

EVOLVE_HEADER = "time,P_e,mean_n,fidelity,norm_residual"
EVOLVE_BUILDERS = ("resonant", "qrm", "lamb-dicke", "jc", "dispersive")
EVOLVE_N_MAX = 256
EVOLVE_SAMPLES = 300
NORM_RESIDUAL_MAX = 1e-8
# P_e is a sum of squared moduli; allow one part in 1e12 of rounding past [0, 1].
P_E_SLACK = 1e-12
REFERENCE_ATOL = 1e-8
TAIL_BEYOND = 10


def child_env(root: Path) -> dict:
    """The caller's environment with the checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _num(x: float) -> str:
    return f"{x:.6g}"


class Suite:
    """``ionqrm all-checks`` in process at the default truncation (n_max=64, guard=16)."""

    name = "suite"
    cycle = 1

    def __init__(self, root: Path, tmp: Path):
        self.out = tmp / "suite.json"

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"suite:{seed}")
        # a small pool, so seeds repeat and byte identity is checked
        return [{"seed": rng.randrange(1, 2**31)} for _ in range(4)]

    def run(self, inp: dict, traced: bool = False):
        from ionqrm import cli

        return cli.main(["all-checks", "--set", "Omega=0.7", "--set", "eta=0.3",
                         "--set", f"seed={inp['seed']}", "--out", str(self.out)])

    def check(self, inp: dict, rc) -> tuple[str | None, bytes]:
        import json

        if rc != 0:
            return f"exit {rc}", b""
        data = self.out.read_bytes()
        payload = json.loads(data)
        failing = [r["name"] for r in payload["reports"] if r["passed"] is not True]
        if failing or payload["passed"] is not True:
            return f"reports not passed: {failing}", data
        return None, data


class EvolveWide:
    """``ionqrm evolve`` in process at n_max=256 (dim 512), cycling through builders."""

    name = "evolve-wide"
    cycle = len(EVOLVE_BUILDERS)

    def __init__(self, root: Path, tmp: Path):
        self.out = tmp / "evolve.csv"

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"evolve-wide:{seed}")
        order = list(EVOLVE_BUILDERS)
        rng.shuffle(order)
        out = []
        for _ in range(2):  # two cycles of distinct parameters, then repeats
            for builder in order:
                omega = rng.uniform(0.1, 1.0)
                while abs(2.0 * omega - 1.0) < 0.1:  # clear of the 2*Omega = nu pole
                    omega = rng.uniform(0.1, 1.0)
                r, phase = rng.uniform(0.3, 1.5), rng.uniform(0.0, 2.0 * math.pi)
                out.append({
                    "builder": builder,
                    "Omega": _num(omega),
                    "eta": _num(rng.uniform(0.02, 0.2)),
                    "alpha": f"{r * math.cos(phase):.6g}{r * math.sin(phase):+.6g}j",
                    "spin": rng.choice("eg"),
                    "t_max": _num(rng.uniform(20.0, 60.0)),
                })
        return out

    def argv(self, inp: dict) -> list[str]:
        sets = {
            "Omega": inp["Omega"], "eta": inp["eta"], "trunc.n_max": str(EVOLVE_N_MAX),
            "evolve.hamiltonian": inp["builder"], "evolve.state": "coherent",
            "evolve.spin": inp["spin"], "evolve.alpha": inp["alpha"],
            "evolve.t_max": inp["t_max"], "evolve.samples": str(EVOLVE_SAMPLES),
        }
        argv = ["evolve"]
        for key, value in sets.items():
            argv += ["--set", f"{key}={value}"]
        return argv + ["--out", str(self.out)]

    def run(self, inp: dict, traced: bool = False):
        from ionqrm import cli

        return cli.main(self.argv(inp))

    def check(self, inp: dict, rc) -> tuple[str | None, bytes]:
        if rc != 0:
            return f"exit {rc}", b""
        data = self.out.read_bytes()
        lines = data.decode().splitlines()
        if lines[0] != EVOLVE_HEADER:
            return f"header {lines[0]!r}", data
        if len(lines) != EVOLVE_SAMPLES + 1:
            return f"{len(lines) - 1} rows, expected {EVOLVE_SAMPLES}", data
        for row in lines[1:]:
            _, p_e, _, _, residual = row.split(",")
            if not float(residual) <= NORM_RESIDUAL_MAX:
                return f"norm_residual {residual} > {NORM_RESIDUAL_MAX}", data
            if not -P_E_SLACK <= float(p_e) <= 1.0 + P_E_SLACK:
                return f"P_e {p_e} outside [0, 1]", data
        return None, data

    def reference_error(self, inp: dict, data: bytes) -> str | None:
        """Final-time P_e and mean_n against an independent expm propagation."""
        import numpy as np
        from scipy.linalg import expm

        from ionqrm import IonParams, TruncationSpec, coherent_state
        from ionqrm.models import HAMILTONIAN_BUILDERS

        trunc = TruncationSpec(n_max=EVOLVE_N_MAX, guard=16)
        p = IonParams(Omega=float(inp["Omega"]), eta=float(inp["eta"]))
        h = HAMILTONIAN_BUILDERS[inp["builder"]](p, trunc)
        psi0 = coherent_state(inp["spin"], complex(inp["alpha"]), trunc)
        psi = expm(-1j * float(inp["t_max"]) * h) @ psi0
        probs = np.abs(psi) ** 2
        p_e = float(probs[:EVOLVE_N_MAX].sum())
        mean_n = float(probs @ np.tile(np.arange(EVOLVE_N_MAX), 2))
        _, got_p_e, got_n, _, _ = data.decode().splitlines()[-1].split(",")
        dev = max(abs(float(got_p_e) - p_e), abs(float(got_n) - mean_n))
        if not dev <= REFERENCE_ATOL:
            return f"{inp['builder']}: final P_e/mean_n differ from expm by {dev:.3g}"
        return None


class CliCold:
    """A fresh ``python -m ionqrm regime`` process per op."""

    name = "cli-cold"
    cycle = 1

    def __init__(self, root: Path, tmp: Path):
        self.root = root
        self.env = child_env(root)
        self.import_samples: list[dict] = []

    def inputs(self, seed: int) -> list[dict]:
        rng = random.Random(f"cli-cold:{seed}")
        # log-uniform draws reach every regime label, from decoupling to deep-strong
        return [{"Omega": _num(math.exp(rng.uniform(math.log(3e-4), math.log(2.0)))),
                 "eta": _num(math.exp(rng.uniform(math.log(1e-3), math.log(3.0))))}
                for _ in range(8)]

    def argv(self, inp: dict) -> list[str]:
        return ["regime", "--set", f"Omega={inp['Omega']}", "--set", f"eta={inp['eta']}"]

    def run(self, inp: dict, traced: bool = False):
        flags = ["-X", "importtime"] if traced else []
        proc = subprocess.run([sys.executable, *flags, "-m", "ionqrm", *self.argv(inp)],
                              capture_output=True, env=self.env, cwd=self.root, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr, traced

    def check(self, inp: dict, result) -> tuple[str | None, bytes]:
        from ionqrm import cli

        rc, stdout, stderr, traced = result
        if rc != 0:
            return f"exit {rc}: {stderr[-200:]!r}", stdout
        if traced:  # stderr holds the -X importtime table and nothing else
            from tracing import parse_importtime

            if not all(line.startswith("import time:") for line in stderr.decode().splitlines()):
                return f"stderr {stderr[-200:]!r}", stdout
            self.import_samples.append(parse_importtime(stderr.decode()))
        elif stderr:
            return f"stderr {stderr[-200:]!r}", stdout
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ref_rc = cli.main(self.argv(inp))
        if ref_rc != 0 or stdout.decode() != buf.getvalue():
            return f"stdout {stdout!r} != in-process {buf.getvalue()!r}", stdout
        return None, stdout


WORKLOADS = {w.name: w for w in (Suite, EvolveWide, CliCold)}


def execute(workload, inp: dict, key: int, traced: bool = False) -> dict:
    """Run one op, time it, check it; an exception or failed check fails the op."""
    start = time.perf_counter()
    try:
        result = workload.run(inp, traced)
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
        elapsed = time.perf_counter() - start
        error, data = f"{type(exc).__name__}: {exc}", b""
    else:
        elapsed = time.perf_counter() - start
        try:
            error, data = workload.check(inp, result)
        except Exception as exc:  # noqa: BLE001 - malformed output fails the op
            error, data = f"check {type(exc).__name__}: {exc}", b""
    return {"key": key, "ms": 1e3 * elapsed, "error": error, "traced": traced,
            "digest": hashlib.sha256(data).hexdigest()}


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return xs[math.ceil(pct * n / 100) - 1], pct


def summarize(records: list[dict]) -> dict:
    """End-to-end figures of a list of op records.

    Ops that share an input must produce byte-identical output; every op of
    a group that does not is failed.  Latencies are taken over correct ops.
    """
    by_key: dict[int, set[str]] = {}
    for r in records:
        if r["error"] is None:
            by_key.setdefault(r["key"], set()).add(r["digest"])
    for r in records:
        if r["error"] is None and len(by_key[r["key"]]) > 1:
            r["error"] = "output differs from another run of the same input"
    good = [r["ms"] for r in records if r["error"] is None]
    failed = len(records) - len(good)
    out = {"attempted": len(records), "failed": failed,
           "failed_ratio": failed / len(records) if records else 1.0,
           "ops_per_s": 1e3 * len(good) / sum(r["ms"] for r in records) if records else 0.0,
           "samples": len(good)}
    if good:
        out["op_p50_ms"] = statistics.median(good)
        out["op_tail_ms"], out["tail_percentile"] = tail(good)
    digests = sorted({(r["key"], r["digest"]) for r in records})
    out["outputs_sha256"] = hashlib.sha256(repr(digests).encode()).hexdigest()
    return out

"""One benchmark worker process: set up, say READY, run the timed loop, report.

Started by ``run.py`` from a fresh interpreter, so the parent can time the
set-up (interpreter start, ``import ionqrm``, input generation and one
untimed warm-up op) up to the READY line.  The ops run in whole cycles of
the workload's input list until ``--seconds`` have passed.  With
``--trace 1`` each cycle runs twice, untraced and traced in alternating
order, and every traced pass yields one dict of per-op layer metrics.  The
last stdout line is a JSON object with everything ``run.py`` aggregates.
"""
from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--tmp", required=True, help="scratch directory inside the checkout")
    ap.add_argument("--index", type=int, required=True, help="0 runs the reference checks")
    args = ap.parse_args()

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import ionqrm

    if Path(ionqrm.__file__).resolve().parent != root / "src" / "ionqrm":
        raise SystemExit(f"imported ionqrm from {ionqrm.__file__}, not from {root}/src")
    from tracing import Tracer, parse_importtime, pass_metrics
    from workloads import WORKLOADS, CliCold, EvolveWide, child_env, execute

    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](root, tmp)
        inputs = workload.inputs(args.seed)
        warmup = execute(workload, inputs[0], 0)
        print("READY", flush=True)

        records: list[dict] = []
        passes: list[dict] = []
        first_outputs: dict[int, bytes] = {}
        deadline = time.perf_counter() + args.seconds
        cycle = 0
        while True:
            keys = [(cycle * workload.cycle + j) % len(inputs) for j in range(workload.cycle)]
            modes = [False]
            if args.trace:
                modes = [True, False] if cycle % 2 else [False, True]
            for traced in modes:
                tracer = Tracer() if traced else None
                for key in keys:
                    if tracer:
                        tracer.install()
                    try:
                        records.append(execute(workload, inputs[key], key, traced))
                    finally:
                        if tracer:
                            tracer.uninstall()
                    if isinstance(workload, EvolveWide) and key < workload.cycle \
                            and key not in first_outputs:
                        first_outputs[key] = workload.out.read_bytes()
                if tracer:
                    passes.append(pass_metrics(tracer.spans, len(keys)))
            cycle += 1
            if time.perf_counter() >= deadline:
                break

        who = resource.RUSAGE_CHILDREN if isinstance(workload, CliCold) else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

        # once per builder and run: the first op of each builder against expm
        if args.index == 0 and isinstance(workload, EvolveWide):
            for key, data in sorted(first_outputs.items()):
                error = workload.reference_error(inputs[key], data)
                if error:
                    next(r for r in records if r["key"] == key)["error"] = error

        imports: list[dict] = []
        if args.trace and isinstance(workload, CliCold):
            imports = workload.import_samples
        elif args.trace:
            for _ in range(3):
                proc = subprocess.run(
                    [sys.executable, "-X", "importtime", "-c", "import ionqrm"],
                    capture_output=True, env=child_env(root), cwd=root, timeout=60, check=True)
                imports.append(parse_importtime(proc.stderr.decode()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print(json.dumps({
        "warmup_error": warmup["error"], "records": records, "passes": passes,
        "imports": imports, "peak_rss_mb": peak_rss_mb, "env": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

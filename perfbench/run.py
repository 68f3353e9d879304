"""ionqrm benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client, inputs derived from ``--seed``):

* ``suite``: in-process ``ionqrm all-checks`` at n_max=64 (dim-128 matrices).
  Algebra, models and analysis dominate; dynamics is under a tenth of an op.
* ``evolve-wide``: in-process ``ionqrm evolve`` at n_max=256 (dim 512),
  cycling through five builders.  The dim-512 ``eigh`` in ``propagate`` and
  the large builders dominate.
* ``cli-cold``: a fresh ``python -m ionqrm regime`` process per op.  Import
  time dominates; compute is microseconds.

With ``--trace 0`` the set-up is timed ``SETUPS`` times: each time a fresh
worker interpreter imports ionqrm, builds the inputs and runs one untimed
warm-up op, then runs its share of the timed loop.  The end-to-end metrics
are ``op_p50_ms``, ``op_tail_ms`` (the highest percentile with at least ten
samples beyond it), ``ops_per_s``, ``setup_s`` (median over the set-ups)
and ``peak_rss_mb``.  ``failed_ratio`` is in the record line and in the
contract's ``attempted``/``failed`` fields.  With ``--trace 1`` one worker
alternates untraced and traced passes and the per-layer metrics are
reported (see ``tracing.py``).  No thread setting is changed: the program
runs with its defaults, and the environment is recorded.

Stdout: a ``{"record": ...}`` line with the environment, sample counts,
tail percentile, failed ratio and output digest, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  Exit status 2 without a
result when the checkout has no ``src/ionqrm`` or a worker fails.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import is_count, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, child_env, summarize  # noqa: E402

SETUPS = 5
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("IONQRM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _run_worker(args, index: int, seconds: float, tmp: Path,
                deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its final JSON object)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--tmp", str(tmp / f"w{index}"), "--index", str(index)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(ROOT), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - start
        if line.strip() != b"READY":
            raise BenchError(f"worker {index} did not get ready: {line[-200:]!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {index} exited {proc.returncode}")
    return setup_s, json.loads(out.decode().splitlines()[-1])


def _layer_metrics(passes: list[dict], records: list[dict], imports: list[dict]):
    """Median per-layer metrics over traced passes; counts must repeat exactly."""
    out, repeat = {}, True
    for name in layer_metric_names():
        if name.startswith("import."):
            out[name] = statistics.median(s[name] for s in imports) if imports else 0.0
        elif name == "trace.overhead_ratio":
            traced = [r["ms"] for r in records if r["traced"] and r["error"] is None]
            plain = [r["ms"] for r in records if not r["traced"] and r["error"] is None]
            out[name] = statistics.median(traced) / statistics.median(plain) \
                if traced and plain else 0.0
        elif is_count(name):
            values = {p[name] for p in passes}
            repeat &= len(values) == 1
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out, repeat


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ionqrm" / "__init__.py").is_file():
        print(f"no ionqrm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups = 1 if args.trace else SETUPS
    setup_times, results = [], []
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    try:
        for index in range(setups):
            setup_s, result = _run_worker(args, index, args.seconds / setups, tmp, deadline)
            setup_times.append(setup_s)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp.parent.rmdir()

    records = [r for res in results for r in res["records"]]
    summary = summarize(records)
    errors = [res["warmup_error"] for res in results if res["warmup_error"]]
    correct = summary["failed"] == 0 and not errors and "op_p50_ms" in summary
    if args.trace:
        values, repeat = _layer_metrics(results[0]["passes"], records, results[0]["imports"])
        correct &= repeat
        if not repeat:
            errors.append("layer counts differ between traced passes")
    else:
        values = {
            "op_p50_ms": summary.get("op_p50_ms"),
            "op_tail_ms": summary.get("op_tail_ms"),
            "ops_per_s": summary["ops_per_s"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(res["peak_rss_mb"] for res in results),
        }
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_ratio": summary["failed_ratio"],
        "samples": summary["samples"], "tail_percentile": summary.get("tail_percentile"),
        "setup_samples_s": setup_times, "outputs_sha256": summary["outputs_sha256"],
        "traced_passes": len(results[0]["passes"]),
        "errors": (errors + [r["error"] for r in records if r["error"]])[:10],
        "env": dict(results[0]["env"], git_commit=_git_commit(ROOT), cpu_count=os.cpu_count(),
                    **{v: os.environ.get(v) for v in THREAD_VARS}),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": bool(correct), "attempted": summary["attempted"], "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

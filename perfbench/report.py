"""Print every benchmark metric, by name and unit, for each workload.

Usage (from the root of a checkout)::

    python3 perfbench/report.py [--seed 1] [--seconds N] [--trace]

Runs ``run.py`` once per workload in BENCHMARK.json and prints the
end-to-end metrics with the failed ratio, tail percentile and sample count.
With ``--trace`` it also makes one traced run per workload and prints the
per-layer table sorted by self time, the counts, and the tracing overhead.
Exits 1 if any run fails or reports incorrect output.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def _print_layers(metrics: dict) -> None:
    value = {name: m["value"] for name, m in metrics.items()}
    timed = sorted((n for n in value if n.endswith(".self_ms") and value[n]),
                   key=lambda n: -value[n])
    print(f"  {'span (per op)':<44} {'self ms':>10} {'calls':>10}")
    for name in timed:
        calls = value.get(name[:-len("self_ms")] + "calls")
        print(f"  {name[:-len('.self_ms')]:<44} {value[name]:>10.3f} "
              f"{'' if calls is None else format(calls, 'g'):>10}")
    for name in sorted(value):
        if not name.endswith((".self_ms", ".calls")) and value[name]:
            print(f"  {name:<44} {value[name]:>10.4g} {metrics[name]['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="per run (default: run_seconds)")
    ap.add_argument("--trace", action="store_true", help="also make a traced run")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    ok = True
    for w in spec["workloads"]:
        record, result = _run(w["name"], args.seed, seconds, 0)
        ok &= result["correct"]
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']} "
              f"failed_ratio={record['failed_ratio']:g} samples={record['samples']} "
              f"tail=p{record['tail_percentile']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']}")
        if args.trace:
            record, result = _run(w["name"], args.seed, seconds, 1)
            ok &= result["correct"]
            print(f"  traced: {record['traced_passes']} passes, correct={result['correct']}")
            _print_layers(result["metrics"])
    print("environment:", json.dumps(record["env"], sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

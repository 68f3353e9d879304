"""Tests of the benchmark itself: every output check can fail, and the traced
layer counts repeat exactly.

Run from the repository root: ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import is_count, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, execute, summarize  # noqa: E402


def _edit_json(wl, rc, edit):
    payload = json.loads(wl.out.read_text())
    edit(payload)
    wl.out.write_text(json.dumps(payload))
    return rc


def _edit_csv(wl, rc, edit):
    lines = wl.out.read_text().splitlines()
    edit(lines)
    wl.out.write_text("\n".join(lines) + "\n")
    return rc


def _set_field(lines, row, col, value):
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)


def _flip_passed(payload):
    payload["reports"][3]["passed"] = False


def _wrong_label(result):
    rc, out, err, traced = result
    label, rest = out.split(b"\n", 1)
    return rc, (b"dispersive" if label == b"deep-strong" else b"deep-strong") + b"\n" + rest, \
        err, traced


FAULTS = {
    "suite": [
        ("flipped passed", lambda wl, rc: _edit_json(wl, rc, _flip_passed)),
        ("nonzero exit", lambda wl, rc: 2),
    ],
    "evolve-wide": [
        ("norm_residual 1e-6", lambda wl, rc: _edit_csv(wl, rc, lambda ls: _set_field(ls, 5, 4, "1e-06"))),
        ("P_e above 1", lambda wl, rc: _edit_csv(wl, rc, lambda ls: _set_field(ls, 9, 1, "1.5"))),
        ("missing row", lambda wl, rc: _edit_csv(wl, rc, lambda ls: ls.pop())),
        ("wrong header", lambda wl, rc: _edit_csv(wl, rc, lambda ls: _set_field(ls, 0, 3, "fid"))),
        ("nonzero exit", lambda wl, rc: 1),
    ],
    "cli-cold": [
        ("wrong regime label", lambda wl, result: _wrong_label(result)),
        ("stderr output", lambda wl, result: (result[0], result[1], b"warning\n", False)),
        ("nonzero exit", lambda wl, result: (1,) + result[1:]),
    ],
}
CASES = [(name, label, fault) for name, faults in FAULTS.items() for label, fault in faults]


@pytest.mark.parametrize("name, label, fault", CASES, ids=[f"{c[0]}: {c[1]}" for c in CASES])
def test_each_output_check_can_fail(name, label, fault, tmp_path):
    wl = WORKLOADS[name](ROOT, tmp_path)
    inp = wl.inputs(7)[0]
    good = execute(wl, inp, 0)
    assert good["error"] is None

    run = wl.run
    wl.run = lambda i, traced=False: fault(wl, run(i, traced))
    bad = execute(wl, inp, 1)
    assert bad["error"], label
    summary = summarize([good, bad])
    assert (summary["failed"], summary["failed_ratio"]) == (1, 0.5)


def test_evolve_reference_check_can_fail(tmp_path):
    wl = WORKLOADS["evolve-wide"](ROOT, tmp_path)
    inp = wl.inputs(7)[0]
    assert execute(wl, inp, 0)["error"] is None
    data = wl.out.read_bytes()
    assert wl.reference_error(inp, data) is None
    lines = data.decode().splitlines()
    p_e = float(lines[-1].split(",")[1])
    _set_field(lines, -1, 1, repr(p_e + 1e-6 if p_e < 0.5 else p_e - 1e-6))
    assert wl.reference_error(inp, ("\n".join(lines) + "\n").encode())


def test_repeated_input_with_other_bytes_fails():
    records = [{"key": 0, "ms": 1.0, "error": None, "traced": False, "digest": d}
               for d in ("a", "a", "b")]
    records.append({"key": 1, "ms": 1.0, "error": None, "traced": False, "digest": "c"})
    summary = summarize(records)
    assert (summary["failed"], summary["attempted"]) == (3, 4)


def _traced_counts(workload: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == layer_metric_names()
    return {name: m["value"] for name, m in metrics.items() if is_count(name)}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_across_runs(workload):
    first = _traced_counts(workload)
    assert first == _traced_counts(workload)
    if workload != "cli-cold":
        assert first["kernel.eigh.calls"] > 0 and first["kernel.eigh.dim3_sum"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

"""Span tracer that times ionqrm's layers from outside the package.

The tracer wraps the public functions of each layer at every module name the
other layers and the CLI call them through (including the ``from .algebra
import ...`` bindings and the ``HAMILTONIAN_BUILDERS`` table), plus the
``numpy.linalg`` kernels, so no file under ``src/`` is edited.  A span records
name, start, end, thread, parent and matrix dimension.  Spans that open in a
pool thread with nothing on that thread's stack take the open
``run_all_checks`` span as parent.

Self time is a span's duration minus the union of its children's intervals,
so overlapping job spans in the thread pool are not subtracted twice.
"""
from __future__ import annotations

import functools
import threading
import time

LAYER_FUNCTIONS = {
    "algebra": ("displacement_generator", "unitary_expm", "displacement_laguerre",
                "spin_tensor_osc"),
    "models": ("h_resonant", "h_qrm", "h_lamb_dicke", "h_jc", "h_ajc", "h_dispersive",
               "qrm_transform", "small_rotation", "rotation_diagnostic"),
    "dynamics": ("propagate", "coherent_state"),
    "config": ("parse_config",),
    "cli": ("main",),
}
# The jobs run_all_checks submits; a job span is named after the report it
# returns, and only calls made directly by run_all_checks open one.
ANALYSIS_JOBS = (
    "operator_algebra_check", "qrm_transform_property", "guard_necessity_check",
    "lamb_dicke_remainder_scan", "jc_rabi_experiment", "ajc_dynamics_check",
    "dispersive_error_scan", "chi_identity_check", "regime_check",
    "propagator_conservation_check", "rotation_diagnostic_check", "speed_comparison",
    "truncation_convergence",
)
JOB_REPORTS = (
    "operator-algebra", "qrm-transform-draws", "guard-necessity", "lamb-dicke-remainder",
    "jc-rabi", "ajc-dynamics", "dispersive-error-scan", "chi-identity",
    "regime-classifier", "propagator-conservation", "rotation-diagnostic",
    "speed-comparison", "truncation-convergence-qrm",
)
KERNELS = ("eigh", "eigvalsh")
KERNEL_DIMS = (32, 64, 128, 256, 512)
IMPORTS = ("ionqrm", "scipy", "numpy")
ROOT_SPAN = "analysis.run_all_checks"


class Tracer:
    """Collects spans while installed; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list[tuple[dict, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, dim: int = 0) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "thread": threading.get_ident(), "parent": parent, "dim": dim})
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn, kernel: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name, int(args[0].shape[-1]) if kernel else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return wrapper

    def _wrap_root(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(ROOT_SPAN)
            outer, self._root = self._root, sid
            try:
                return fn(*args, **kwargs)
            finally:
                self._root = outer
                self._close(sid)
        return wrapper

    def _wrap_job(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            if parent is None or self.spans[parent]["name"] != ROOT_SPAN:
                return fn(*args, **kwargs)
            sid = self._open("analysis.job")
            try:
                report = fn(*args, **kwargs)
                self.spans[sid]["name"] = f"analysis.{report.name}"
                return report
            finally:
                self._close(sid)
        return wrapper

    def install(self) -> None:
        """Replace every binding of the traced functions with a wrapper."""
        import sys

        import numpy

        from ionqrm import analysis, models

        wrappers = {}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"ionqrm.{layer}"]
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for name in ANALYSIS_JOBS:
            wrappers[id(getattr(analysis, name))] = self._wrap_job(getattr(analysis, name))
        wrappers[id(analysis.run_all_checks)] = self._wrap_root(analysis.run_all_checks)

        namespaces = [vars(m) for n, m in sorted(sys.modules.items())
                      if n == "ionqrm" or n.startswith("ionqrm.")]
        for namespace in namespaces + [models.HAMILTONIAN_BUILDERS]:
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patch(namespace, key, wrappers[id(value)])
        for name in KERNELS:
            fn = getattr(numpy.linalg, name)
            self._patch(vars(numpy.linalg), name, self._wrap(f"kernel.{name}", fn, kernel=True))

    def _patch(self, namespace: dict, key: str, new) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = new

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time in seconds: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for sid, s in enumerate(spans):
        clipped = [(max(a, s["start"]), min(b, s["end"])) for a, b in children.get(sid, [])]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in report order (mirrors BENCHMARK.json)."""
    names = []
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            names += [f"{layer}.{fn}.calls", f"{layer}.{fn}.self_ms"]
    names += [f"analysis.{r}.self_ms" for r in JOB_REPORTS + ("other-jobs",)]
    names += ["analysis.run_all_checks.self_ms", "analysis.job_concurrency"]
    for k in KERNELS:
        names += [f"kernel.{k}.calls", f"kernel.{k}.self_ms", f"kernel.{k}.dim3_sum"]
        for d in KERNEL_DIMS + ("other",):
            names += [f"kernel.{k}.d{d}.calls", f"kernel.{k}.d{d}.self_ms"]
    names += [f"import.{m}_ms" for m in IMPORTS]
    names += [f"{layer}.self_ms" for layer in ("algebra", "models", "dynamics", "analysis")]
    names += ["trace.overhead_ratio"]
    return names


def pass_metrics(spans: list[dict], n_ops: int) -> dict[str, float]:
    """Per-op layer metrics of one traced pass over ``n_ops`` ops.

    Counts (``*.calls``, ``*.dim3_sum``) are exact per-op averages over the
    pass; ``dim3_sum`` is the sum of dim**3 over kernel calls, computed from
    the argument shapes, not measured.  Times are in milliseconds per op.
    Import and overhead metrics are filled in by the caller.
    """
    m = {name: 0.0 for name in layer_metric_names()}
    selfs = self_times(spans)
    job_total = 0.0
    root_wall = 0.0
    for s, self_s in zip(spans, selfs):
        name, self_ms = s["name"], 1e3 * self_s
        layer = name.split(".", 1)[0]
        if name == ROOT_SPAN:
            m["analysis.run_all_checks.self_ms"] += self_ms
            root_wall += s["end"] - s["start"]
        elif layer == "analysis":
            key = name if f"{name}.self_ms" in m else "analysis.other-jobs"
            m[f"{key}.self_ms"] += self_ms
            job_total += s["end"] - s["start"]
        elif layer == "kernel":
            d = s["dim"] if s["dim"] in KERNEL_DIMS else "other"
            m[f"{name}.calls"] += 1
            m[f"{name}.self_ms"] += self_ms
            m[f"{name}.dim3_sum"] += s["dim"] ** 3
            m[f"{name}.d{d}.calls"] += 1
            m[f"{name}.d{d}.self_ms"] += self_ms
        else:
            m[f"{name}.calls"] += 1
            m[f"{name}.self_ms"] += self_ms
        if layer in ("algebra", "models", "dynamics", "analysis"):
            m[f"{layer}.self_ms"] += self_ms
    m["analysis.job_concurrency"] = job_total / root_wall if root_wall else 0.0
    for name in m:
        if name != "analysis.job_concurrency":
            m[name] /= n_ops
    return m


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".dim3_sum"))


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import ms of each package family from ``python -X importtime``.

    A family (``numpy`` and ``numpy.*``) is summed over its outermost
    entries, so nested submodules are not counted twice.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            cumulative_us = int(parts[1])
        except ValueError:
            continue  # the header line
        field = parts[2]
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((depth, field.strip(), cumulative_us))
    totals = {m: 0.0 for m in IMPORTS}
    ancestors: list[str] = []
    # importtime prints children before their parent; reversed, parents come first
    for depth, name, cumulative_us in reversed(entries):
        ancestors = ancestors[:depth]
        family = name.split(".", 1)[0]
        if family in totals and all(a.split(".", 1)[0] != family for a in ancestors):
            totals[family] += cumulative_us / 1e3
        ancestors.append(name)
    return {f"import.{m}_ms": v for m, v in totals.items()}

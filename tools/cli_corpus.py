"""Run a fixed corpus of ``ionqrm`` command lines and print a digest of each.

Usage::

    python tools/cli_corpus.py SRC_DIR
    python tools/cli_corpus.py --compare OLD_SRC_DIR NEW_SRC_DIR

The first form imports ``ionqrm`` from SRC_DIR (the ``src`` directory of a
checkout) and runs every entry of :data:`ENTRIES` through ``ionqrm.cli.main``
in this one process. It prints two header lines, the format and the
environment that produced the digests (:func:`environment`), then one line per
entry, ``sha256 masked-sha256 exit-code argv``. The first digest covers the
entry's stdout, a NUL byte and its stderr; the second is taken the same way
with every number replaced by ``#``, so it still checks every other field where
numpy or BLAS round differently. ``tests/cli_corpus.txt`` keeps this output:
``python tools/cli_corpus.py src > tests/cli_corpus.txt`` rewrites it. A
``--config`` document is written to a temporary file, and an ``--out`` file
goes to the same temporary directory; an entry's argv shows the name in place
of the file's path. An entry that raises SystemExit (as a command-line parser
may) is recorded with its exit code. :func:`moved` says, for each entry, whether its
exit code, its masked digest or only its full digest differs between two such outputs.

The second form shows how far the outputs moved. It runs the corpus on each
checkout in its own subprocess (``--dump SRC_DIR``, one JSON line per entry
with its exit code, stdout and stderr) and prints, for every entry whose bytes
or exit code differ, one line per CSV column, JSON key or ``key = value`` line
that changed: how many of its numbers differ and their largest absolute and
relative change, or how many of its other fields differ. It exits 1 when any
entry differs, else 0.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_REF = ["--set", "Omega=0.7", "--set", "eta=0.3"]  # the all-checks reference point
_RES = ["--set", "Omega=0.5", "--set", "eta=0.02"]  # the sideband resonance nu = 2*Omega
_DISP = ["--set", "Omega=1.0", "--set", "eta=0.08"]  # the dispersive scans' point
_PI = ["--set", f"phi_l={math.pi!r}"]
_NEAR_PI = [["--set", f"phi_l={math.pi + d!r}"] for d in (5e-10, -5e-10)]
_T8 = ["--set", "trunc.n_max=8", "--set", "trunc.guard=2"]
_COHERENT = ["--set", "evolve.state=coherent", "--set", "evolve.alpha=0.5+0.3j",
             "--set", "evolve.spin=g"]
_BUILDERS = ("resonant", "lamb-dicke", "rabi-rotated", "jc", "ajc", "qrm", "qrm-detuned",
             "dispersive", "zero")

#: Rejected documents, name -> (command, text): each is one ConfigError record, exit code 1.
DOCUMENTS = {
    "unknown-key": ("build", "Omega = 0.5\neta = 0.1\nbogus = 1\n"),
    "duplicate-key": ("build", "Omega = 0.5\neta = 0.1\nOmega = 0.6\n"),
    "csv-tolerance": ("scan", "Omega = 1.0\neta = 0.08\ntol.min_order = 2.5\n"),
    "unread-delta": ("build", "Omega = 0.5\neta = 0.1\ndelta = 0.2\nbuild.hamiltonian = jc\n"),
    "rotated-phase": ("build",
                      "Omega = 0.5\neta = 0.1\nphi_l = 0.3\nbuild.hamiltonian = rabi-rotated\n"),
}

#: (argv, expected exit code); ``--config NAME`` names an entry of :data:`DOCUMENTS` and
#: ``--out NAME`` a file in the temporary directory.
ENTRIES: list[tuple[list[str], int]] = [
    # 2**64 + 5 seeds the draws from three 32-bit words; a negative seed is an error record
    *[(["all-checks", *_REF, "--set", f"seed={seed}"], 0)
      for seed in (7, 2024, 99, 18446744073709551621)],
    (["all-checks", *_REF, "--set", "seed=-1"], 1),
    (["all-checks", *_REF, "--set", "trunc.n_max=48", "--set", "trunc.guard=12"], 0),
    *[(["regime", "--set", f"Omega={omega}", "--set", f"eta={eta}", *extra], 0)
      for omega, eta, extra in ((0.5, 0.02, []), (0.5, 0.02, _PI), (0.0005, 0.2, []),
                                (1.0, 2.5, []), (0.7, 0.3, []), (1.0, 0.08, []))],
    *[(["build", *_REF, *_T8, "--set", f"build.hamiltonian={name}"], 0)
      for name in _BUILDERS],
    (["build", *_REF, *_PI, *_T8, "--set", "build.hamiltonian=lamb-dicke"], 0),
    (["build", *_REF, *_T8, "--set", "build.include_constant=false"], 0),
    (["build", *_REF, "--set", "delta=0.1", *_T8,
      "--set", "build.hamiltonian=qrm-detuned"], 0),
    *[(["evolve", "--set", "Omega=0.7", "--set", "eta=0.1", "--set", "trunc.n_max=32",
        "--set", f"evolve.hamiltonian={name}", *state], 0)
      for name in _BUILDERS
      for state in (["--set", "evolve.fock=1"], _COHERENT)],
    (["evolve", *_RES, "--set", "trunc.n_max=32", "--set", "evolve.times=0.0,0.5,2.0,7.25"], 0),
    *[(["scan", *_REF, "--set", "scan.kind=truncation", "--set", f"scan.builder={name}"], 0)
      for name in _BUILDERS],
    *[(["scan", *point, "--set", f"scan.kind={kind}", "--format", fmt], 0)
      for kind, point in (("dispersive", _DISP), ("lamb-dicke", _REF))
      for fmt in ("csv", "json")],
    *[(["verify", *point, "--set", f"verify.check={check}"], 0)
      for check, point in (("qrm-transform", _REF), ("guard", _REF), ("dispersive", _DISP),
                           ("jc-rabi", _RES), ("speed", _REF),
                           ("rotation", ["--set", "Omega=0.7", "--set", "eta=0.2"]))],
    *[([command, "--config", name], 1) for name, (command, _) in DOCUMENTS.items()],
    # rejected command lines: each is one ConfigError record
    (["bogus", *_RES], 1),
    (["regime", *_RES, "--sett", "Omega=0.0005"], 1),
    (["regime", *_RES, "--set"], 1),
    (["regime", *_RES, "--set", "Omega=0.0005"], 1),
    (["regime", *_RES, "--set", "out=regime-a.txt", "--out", "regime-b.txt"], 1),
    (["build", "--config", "unknown-key", "--config", "duplicate-key"], 1),
    # the banded builders at the other special phase, a negative detuning and one Fock level
    (["build", *_REF, *_PI, *_T8, "--set", "build.hamiltonian=rabi-rotated"], 0),
    (["build", *_REF, "--set", "delta=-0.3", *_T8, "--set", "build.hamiltonian=qrm-detuned"], 0),
    *[(["build", *_REF, "--set", "trunc.n_max=1", "--set", "trunc.guard=0",
        "--set", f"build.hamiltonian={name}"], 0)
      for name in ("jc", "ajc", "rabi-rotated", "qrm-detuned")],
    # evolve off phi_l in {0, pi} (one dense complex block) and at phi_l = pi
    *[(["evolve", "--set", "Omega=0.7", "--set", "eta=0.1", *phase, "--set", "trunc.n_max=32",
        "--set", f"evolve.hamiltonian={name}", *_COHERENT], 0)
      for phase, names in ((["--set", "phi_l=0.4"], ("resonant", "lamb-dicke")),
                           (_PI, ("resonant", "lamb-dicke", "rabi-rotated")))
      for name in names],
    # evolve at the evolve-wide size: the QRM parity blocks and the Pi sectors at dim 512
    *[(["evolve", *_RES, "--set", "trunc.n_max=256", "--set", f"evolve.hamiltonian={name}",
        *_COHERENT, "--set", "evolve.t_max=30", "--set", "evolve.samples=300"], 0)
      for name in ("qrm", "resonant")],
    (["bogus"], 1),
    # the one laser-phase rule: 5e-10 off pi is neither 0 nor pi for regime and build
    *[(["regime", *_RES, *phase], 0) for phase in _NEAR_PI],
    *[(["build", *_RES, *phase, *_T8, "--set", "build.hamiltonian=rabi-rotated"], 1)
      for phase in _NEAR_PI],
    (["build", *_REF, *_PI, *_T8, "--set", "build.hamiltonian=resonant"], 0),
    (["scan", *_REF, *_PI, "--set", "scan.kind=truncation", "--set", "scan.builder=rabi-rotated"],
     0),
    # each check at a second point; speed's flag is false there (Omega/nu < 0.1): exit 2
    *[(["verify", "--set", f"Omega={omega}", "--set", f"eta={eta}",
        "--set", f"verify.check={check}"], 2 if check == "speed" else 0)
      for check, omega, eta in (("qrm-transform", 0.4, 0.15), ("guard", 0.4, 0.35),
                                ("dispersive", 1.5, 0.05), ("jc-rabi", 0.5, 0.05),
                                ("speed", 0.05, 0.02), ("rotation", 0.3, 0.1))],
    # a JSON scan exits 2 when its report fails: the QRM is far from converged at n_max = 8
    (["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.n_list=4,8",
      "--format", "json"], 2),
    # the rules of the check and scan rows, each broken once: one ConfigError record each
    (["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.etas=0.08,0.04"], 1),
    (["scan", *_REF, "--set", "scan.kind=lamb-dicke", "--set", "scan.k_lowest=4"], 1),
    (["scan", *_DISP, "--set", "scan.n_list=16,32"], 1),
    (["verify", *_REF, "--set", "verify.check=guard", "--set", "verify.fock=1"], 1),
    (["verify", "--set", "Omega=0.7", "--set", "eta=0.2", "--set", "verify.check=guard"], 1),
    (["verify", *_REF, "--set", "verify.check=jc-rabi"], 1),
    (["verify", *_RES, "--set", "verify.check=jc-rabi", "--set", "verify.fock=48"], 1),
    *[(["scan", *_DISP, "--set", f"scan.etas={etas}"], 1) for etas in ("0.02,0.04", "0.08")],
    *[(["scan", *_REF, "--set", "scan.kind=truncation", "--set", f"scan.n_list={n_list}"], 1)
      for n_list in ("16", "32,16")],
    (["scan", *_DISP, "--set", "scan.k_lowest=0"], 1),
    (["verify", *_REF, "--set", "verify.check=speed", "--set", "trunc.n_max=40"], 1),
    (["verify", *_REF, "--set", "verify.check=nope"], 1),
    (["scan", *_REF, "--set", "scan.kind=nope"], 1),
    # keys a run never reads: nu for jc and all-checks, trunc.guard for verify rotation
    (["build", *_REF, *_T8, "--set", "nu=1.3", "--set", "build.hamiltonian=jc"], 1),
    (["all-checks", *_REF, "--set", "nu=1.3"], 1),
    *[(["verify", "--set", "Omega=0.7", "--set", "eta=0.2", "--set", "verify.check=rotation",
        "--set", trunc], code) for trunc, code in (("trunc.guard=8", 1), ("trunc.n_max=8", 0))],
    # 2*Omega - nu = 1e-10: the sideband resonance, so the dispersive pole
    (["build", "--set", "Omega=0.50000000005", "--set", "eta=0.02", "--set", "trunc.n_max=2",
      "--set", "trunc.guard=0", "--set", "build.hamiltonian=dispersive"], 1),
    # premises that analysis checks again for Python callers: config rejects each line first
    (["scan", *_DISP, "--set", "scan.k_lowest=200"], 1),
    (["scan", "--set", "Omega=0.55", "--set", "eta=0.08"], 1),
    (["scan", *_REF, "--set", "scan.kind=truncation", "--set", "scan.k_lowest=40"], 1),
    # lines that break two rules: the record names the first
    (["verify", *_REF, "--set", "verify.check=jc-rabi", "--set", "verify.fock=-1"], 1),
    (["evolve", *_RES, "--set", "evolve.fock=-1", "--set", "evolve.times=1.0,0.5"], 1),
    (["verify", "--set", "Omega=0.7", "--set", "eta=0.2", "--set", "delta=0.1",
      "--set", "verify.check=guard"], 1),
    (["scan", *_DISP, "--set", "scan.etas=0.02,0.04", "--set", "tol.min_order=2.5"], 1),
    (["scan", *_REF, "--set", "scan.kind=lamb-dicke", "--set", "scan.etas=0.02,0.04",
      "--set", "trunc.n_max=32"], 1),
    # the dispersive check's premises: k_lowest within the interior, small rotations
    (["verify", *_DISP, "--set", "verify.check=dispersive", "--set", "trunc.n_max=4",
      "--set", "trunc.guard=0"], 1),
    (["verify", "--set", "Omega=0.55", "--set", "eta=0.08", "--set", "verify.check=dispersive"],
     1),
    # the dispersive scan at the pole 2*Omega = nu
    (["scan", "--set", "Omega=0.5", "--set", "eta=0.08"], 1),
    # trunc.n_max for runs that never read trunc, below the default guard
    (["regime", *_REF, "--set", "trunc.n_max=8"], 1),
    (["verify", *_REF, "--set", "verify.check=speed", "--set", "trunc.n_max=16"], 1),
    # no key moves a gate bound: a tol key, looser or stricter, is one unknown-key record
    (["verify", *_REF, "--set", "tol.spectral=0.5"], 1),
    (["all-checks", *_REF, "--set", "tol.identity=1e-30"], 1),
    (["scan", *_DISP, "--format", "json", "--set", "tol.min_order=2.5"], 1),
    # the transform draws at sizes where the operand layout of a product moves its bits
    *[(["all-checks", *_REF, "--set", f"trunc.n_max={n}", "--set", f"trunc.guard={n // 4}"], 2)
      for n in (16, 32)],
    *[(["verify", *point, "--set", "verify.check=qrm-transform"], 0)
      for point in (["--set", "Omega=0.7", "--set", "eta=0"],
                    [*_REF, "--set", "trunc.n_max=24", "--set", "trunc.guard=6"])],
    # at Omega = 0 the Lamb-Dicke remainder vanishes identically: no order to fit
    (["scan", "--set", "Omega=0", "--set", "eta=0.1", "--set", "scan.kind=lamb-dicke"], 1),
]


def _run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _outputs(src_dir: str):
    """(argv, exit code, stdout, stderr) of every entry, with ionqrm imported from src_dir."""
    src = Path(src_dir).resolve()
    sys.path.insert(0, str(src))
    import ionqrm
    from ionqrm.cli import main as cli_main

    if src not in Path(ionqrm.__file__).resolve().parents:
        raise SystemExit(f"ionqrm was imported from {ionqrm.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (_, text) in DOCUMENTS.items():
            Path(tmp, name).write_text(text)
        for argv, _ in ENTRIES:
            # the argument after --config or --out is a name: pass its file
            real = [str(Path(tmp, a)) if i and argv[i - 1] in ("--config", "--out") else a
                    for i, a in enumerate(argv)]
            yield (" ".join(argv), *_run(cli_main, real))


def _digest(out: str, err: str) -> str:
    return hashlib.sha256(out.encode() + b"\0" + err.encode()).hexdigest()


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _openblas() -> dict | None:
    """The thread count and kernel (core type) that the OpenBLAS numpy ships with picked
    when it loaded, or None when there is no such library to ask."""
    import ctypes
    import glob
    import os

    import numpy as np

    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                       "*openblas*")):
        lib = ctypes.CDLL(path)  # the copy numpy already loaded
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
            if threads is not None and core is not None:
                threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
                return {"threads": threads(), "core": core().decode()}
    return None


def environment() -> dict:
    """What the digests depend on: Python, numpy, its BLAS, the machine, numpy's SIMD set,
    the CPUs this process may run on, the thread variables and, where numpy ships
    OpenBLAS, the thread count and kernel it picked: the n_max 256 ``evolve`` entries
    differ in the last bit at 1 and 2 OpenBLAS threads."""
    import os
    import platform

    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var)
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine(),
            "simd": config["SIMD Extensions"], "cpus": cpus, "threads": threads,
            "openblas": _openblas()}


def moved(pinned: list[str], got: list[str]) -> list[str]:
    """What moved in each entry between two outputs of :func:`main`: its exit code, its
    masked digest or, when both ran in the same environment, only its full digest."""
    same_environment = pinned[1] == got[1]
    lines = []
    for want, row in zip(pinned[2:], got[2:]):
        (digest, masked, code, argv), want = row.split(" ", 3), want.split(" ", 3)
        if argv != want[3]:
            lines.append(f"{argv}: pinned as {want[3]}")
        elif code != want[2]:
            lines.append(f"{argv}: exit code {want[2]} -> {code}")
        elif masked != want[1]:
            lines.append(f"{argv}: masked digest")
        elif same_environment and digest != want[0]:
            lines.append(f"{argv}: full digest only")
    return lines


def main(src_dir: str) -> int:
    print("# sha256 masked-sha256 exit argv of each entry of tools/cli_corpus.py")
    print(f"# environment {json.dumps(environment(), sort_keys=True)}")
    for argv, code, out, err in _outputs(src_dir):
        print(_digest(out, err), _digest(_NUMBER.sub("#", out), _NUMBER.sub("#", err)), code,
              argv)
    return 0


def dump(src_dir: str) -> int:
    for argv, code, out, err in _outputs(src_dir):
        print(json.dumps({"argv": argv, "code": code, "stdout": out, "stderr": err}))
    return 0


def _flatten(value, path: str, out: dict[str, list[str]]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{path}[{i}]", out)
    else:
        out.setdefault(path, []).append(json.dumps(value))


def fields(text: str) -> dict[str, list[str]]:
    """The fields of one output, by column: JSON leaves by key path, CSV cells by header,
    ``key = value`` lines by key, and any other line by its number."""
    if text.lstrip().startswith("{"):
        out: dict[str, list[str]] = {}
        _flatten(json.loads(text), "", out)
        return out
    lines = text.splitlines()
    if lines and "," in lines[0]:
        header = lines[0].split(",")
        out = {name: [] for name in header}
        for row in lines[1:]:
            for name, cell in zip(header, row.split(",")):
                out[name].append(cell)
        return out
    out = {}
    for i, line in enumerate(lines):
        key, sep, value = line.partition(" = ")
        out.setdefault(key if sep else f"line {i + 1}", []).append(value if sep else line)
    return out


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def changes(old: str, new: str) -> list[str]:
    """One line per column of old and new that differs: numbers by count, max abs and max
    relative change; other fields by count."""
    before, after = fields(old), fields(new)
    lines = []
    for column in list(before) + [c for c in after if c not in before]:
        a, b = before.get(column, []), after.get(column, [])
        if a == b:
            continue
        if len(a) != len(b):
            lines.append(f"{column}: {len(a)} fields -> {len(b)}")
            continue
        moved = [(_number(x), _number(y)) for x, y in zip(a, b) if x != y]
        numeric = [(x, y) for x, y in moved if x is not None and y is not None]
        text = len(moved) - len(numeric)
        if numeric:
            dev = [abs(y - x) for x, y in numeric]
            rel = [d / abs(x) if x else math.inf if d else 0.0 for d, (x, _) in zip(dev, numeric)]
            lines.append(f"{column}: {len(numeric)} of {len(a)} numbers differ, "
                         f"max abs {max(dev):.3g}, max rel {max(rel):.3g}")
        if text:
            lines.append(f"{column}: {text} of {len(a)} other fields differ")
    return lines


def _dumped(src_dir: str) -> list[dict]:
    proc = subprocess.run([sys.executable, __file__, "--dump", src_dir], capture_output=True,
                          text=True, check=True)
    return [json.loads(line) for line in proc.stdout.splitlines()]


def compare(old_src: str, new_src: str) -> int:
    old, new = _dumped(old_src), _dumped(new_src)
    differ = 0
    for a, b in zip(old, new):
        if a == b:
            continue
        differ += 1
        print(f"{a['argv']}: exit {a['code']} -> {b['code']}")
        for stream in ("stdout", "stderr"):
            for line in changes(a[stream], b[stream]):
                print(f"    {stream} {line}")
    print(f"{differ} of {len(old)} entries differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        sys.exit(main(sys.argv[1]))
    if len(sys.argv) == 3 and sys.argv[1] == "--dump":
        sys.exit(dump(sys.argv[2]))
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    raise SystemExit(__doc__)

"""Run a fixed corpus of ``ionqrm`` command lines and print a digest of each.

Usage::

    python tools/cli_corpus.py SRC_DIR

imports ``ionqrm`` from SRC_DIR (the ``src`` directory of a checkout) and runs
every entry of :data:`ENTRIES` through ``ionqrm.cli.main`` in this one
process. Each entry prints one line, ``sha256 exit-code argv``, where the
digest covers the entry's stdout, a NUL byte and its stderr. Running it on two
checkouts and comparing the outputs with ``diff`` shows whether any command's
bytes or exit code changed. A ``--config`` document is written to a temporary
file; its argv shows the document's name in place of the file's path.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

_REF = ["--set", "Omega=0.7", "--set", "eta=0.3"]  # the all-checks reference point
_RES = ["--set", "Omega=0.5", "--set", "eta=0.02"]  # the sideband resonance nu = 2*Omega
_DISP = ["--set", "Omega=1.0", "--set", "eta=0.08"]  # the dispersive scans' point
_PI = ["--set", f"phi_l={math.pi!r}"]
_T8 = ["--set", "trunc.n_max=8", "--set", "trunc.guard=2"]
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

#: (argv, expected exit code); ``--config NAME`` names an entry of :data:`DOCUMENTS`.
ENTRIES: list[tuple[list[str], int]] = [
    *[(["all-checks", *_REF, "--set", f"seed={seed}"], 0) for seed in (7, 2024, 99)],
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
      for state in (["--set", "evolve.fock=1"],
                    ["--set", "evolve.state=coherent", "--set", "evolve.alpha=0.5+0.3j",
                     "--set", "evolve.spin=g"])],
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
]


def _run(main, argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode() + b"\0" + err.getvalue().encode()


def main(src_dir: str) -> int:
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
            # the argument after --config is a document's name: pass its file
            real = [str(Path(tmp, a)) if i and argv[i - 1] == "--config" else a
                    for i, a in enumerate(argv)]
            code, data = _run(cli_main, real)
            print(hashlib.sha256(data).hexdigest(), code, " ".join(argv))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1]))

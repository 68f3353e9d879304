"""Tests of the lazily resolved ``ionqrm`` package namespace."""
import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import ionqrm
import oracles

# every public name of the package
PUBLIC_NAMES = [
    "ConfigError", "DEFAULT_TRUNC", "DerivedCouplings",
    "EvolutionResult", "HAMILTONIAN_BUILDERS", "IonParams", "Regime", "RegimeThresholds",
    "ResonancePoleError", "RunConfig", "TruncationSpec",
    "VerificationReport", "ajc_dynamics_check", "annihilation", "chi_identity_check",
    "classify_regime", "coherent_state", "commutator", "dagger",
    "derived_couplings", "dispersive_error_scan", "displacement", "displacement_generator",
    "displacement_laguerre", "dominant_frequency", "emit_config",
    "fock_state", "guard_necessity_check", "h_ajc", "h_dispersive", "h_jc", "h_lamb_dicke",
    "h_qrm", "h_qrm_detuned", "h_rabi_rotated", "h_resonant", "interior_block",
    "jc_rabi_experiment", "lamb_dicke_remainder_scan",
    "operator_algebra_check", "osc_identity", "parse_config",
    "propagate", "propagator_conservation_check", "qrm_conjugate", "qrm_transform",
    "qrm_transform_check", "qrm_transform_property", "regime_check", "rotation_diagnostic",
    "rotation_diagnostic_check", "run_all_checks", "sigma_y", "small_rotation",
    "speed_comparison", "spin_tensor_osc", "truncation_convergence", "unitary_expm",
    "y_rotation",
]
# names that only the tests call: defined in tests/oracles.py, no longer in the package
ORACLE_NAMES = [
    "Spin", "creation", "expectation", "fidelity", "fock_gauge", "is_hermitian", "is_unitary",
    "number_op", "pauli",
]


def test_public_names_are_unchanged():
    assert len(PUBLIC_NAMES) == 59
    assert sorted(ionqrm.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(ionqrm))


@pytest.mark.parametrize("name", PUBLIC_NAMES + ORACLE_NAMES)
def test_each_name_is_the_object_of_its_home_module(name):
    if name in ORACLE_NAMES:
        home = oracles
        assert not hasattr(ionqrm, name)
        assert not any(hasattr(importlib.import_module(f"ionqrm.{module}"), name)
                       for module in ionqrm._HOMES)
        value = getattr(home, name)
    else:
        home = importlib.import_module(f"ionqrm.{ionqrm._HOME[name]}")
        value = getattr(ionqrm, name)
        assert value is getattr(home, name)
    if inspect.isfunction(value) or inspect.isclass(value):
        assert value.__module__ == home.__name__  # defined there, not imported


def test_scalar_definitions_live_only_in_params():
    import ionqrm.algebra
    import ionqrm.analysis
    import ionqrm.models
    import ionqrm.params

    # models and algebra bind only the params names they read: neither re-exports the rest
    for name in ("DerivedCouplings", "Regime", "RegimeThresholds", "ResonancePoleError",
                 "classify_regime", "is_sideband_resonant"):
        assert not hasattr(ionqrm.models, name)
    assert not hasattr(ionqrm.algebra, "DEFAULT_TRUNC")
    assert ionqrm.IonParams is ionqrm.params.IonParams is ionqrm.models.IonParams
    assert ionqrm.TruncationSpec is ionqrm.params.TruncationSpec \
        is ionqrm.algebra.TruncationSpec
    assert ionqrm.params.DEFAULT_SEED == ionqrm.analysis.DEFAULT_SEED == 2024


def test_every_relative_import_is_read_and_taken_from_its_home():
    # pyflakes' unused-import rule plus one of its own: a public name comes from its
    # _HOMES module, so no module becomes a second place to import it from
    problems = []
    for path in sorted(Path(ionqrm.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=path.name)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if bound not in read:
                    problems.append(f"{path.stem}: {bound} is imported and never read")
                home = ionqrm._HOME.get(alias.name)
                if node.module and home not in (None, node.module):
                    problems.append(f"{path.stem}: {alias.name} is imported from "
                                    f".{node.module}, its home is .{home}")
    assert problems == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ionqrm import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES
    assert namespace["h_jc"] is ionqrm.models.h_jc


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'h_missing'"):
        ionqrm.h_missing  # noqa: B018 - the lookup is the test
    assert not hasattr(ionqrm, "IonParam")
    # the gate bounds are constants of ionqrm.analysis, not a record a caller passes
    with pytest.raises(AttributeError, match="no attribute 'Tolerances'"):
        ionqrm.Tolerances  # noqa: B018 - the lookup is the test
    assert not hasattr(ionqrm.params, "Tolerances")
    assert [name for name in ionqrm._HOMES["analysis"]
            if "tol" in inspect.signature(getattr(ionqrm, name)).parameters] == []


def test_submodule_is_an_attribute_after_a_bare_import(src_env):
    child = (
        "import sys, ionqrm\n"
        "assert 'ionqrm.models' not in sys.modules\n"
        "print(ionqrm.models.h_qrm is ionqrm.h_qrm)\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=src_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"]


def test_every_name_the_perfbench_tracer_wraps_exists():
    # the tracer binds functions by name; a rename would otherwise show only in its own suite
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.LAYER_FUNCTIONS.items()
               for name in names
               if not hasattr(importlib.import_module(f"ionqrm.{layer}"), name)]
    missing += [f"analysis.{name}" for name in tracing.ANALYSIS_JOBS
                if not hasattr(ionqrm.analysis, name)]
    assert missing == []


# a module of 7 code lines: no blank line, comment or docstring counts, and a string that
# is not a docstring counts each line it spans
_CODE_LINES_FIXTURE = '''"""Module docstring
over two lines."""
import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring,
    two lines"""

    def f(self):
        """Function docstring."""
        return (os.sep +
                "b")
'''


def test_code_lines_counts_each_module_and_the_total(tmp_path):
    tool = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(_CODE_LINES_FIXTURE)
    (tmp_path / "sub" / "b.py").write_text("# comment\nx = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    proc = subprocess.run([sys.executable, str(tool), str(tmp_path)], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.splitlines() == ["7 a.py", "1 sub/b.py", "8 total"]

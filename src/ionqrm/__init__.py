"""Engineering the quantum Rabi model from a single resonant ion-laser beam.

Dense numerical toolkit with four layers: elementary operator algebra on
truncated spaces (one cached-basis displacement plus two oracles),
Hamiltonian and transformation builders, an eigendecomposition propagator,
and verification experiments that turn the scheme's operator identities and
approximations into pass/fail reports. The ``ionqrm`` CLI exposes all of it
behind a reproducible key-value configuration.

Every public name is resolved from its home module on first use (PEP 562),
so ``import ionqrm`` loads neither numpy nor any submodule, and the scalar
parameters in :mod:`ionqrm.params` never load numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names defined there
_HOMES = {
    "params": (
        "DEFAULT_TRUNC", "DerivedCouplings", "IonParams", "Regime", "RegimeThresholds",
        "ResonancePoleError", "Tolerances", "TruncationSpec", "classify_regime",
        "derived_couplings",
    ),
    "algebra": (
        "annihilation", "commutator", "dagger", "displacement", "displacement_generator",
        "displacement_laguerre", "interior_block", "osc_identity", "sigma_y", "spin_tensor_osc",
        "unitary_expm",
    ),
    "models": (
        "HAMILTONIAN_BUILDERS", "h_ajc", "h_dispersive", "h_jc", "h_lamb_dicke", "h_qrm",
        "h_qrm_detuned", "h_rabi_rotated", "h_resonant", "qrm_conjugate", "qrm_transform",
        "rotation_diagnostic", "small_rotation", "y_rotation",
    ),
    "dynamics": (
        "EvolutionResult", "coherent_state", "fock_state", "propagate",
    ),
    "analysis": (
        "VerificationReport", "ajc_dynamics_check",
        "chi_identity_check", "dispersive_error_scan", "dominant_frequency",
        "guard_necessity_check", "jc_rabi_experiment", "lamb_dicke_remainder_scan",
        "operator_algebra_check", "propagator_conservation_check", "qrm_transform_check",
        "qrm_transform_property", "regime_check", "rotation_diagnostic_check",
        "run_all_checks", "speed_comparison", "truncation_convergence",
    ),
    "config": ("ConfigError", "RunConfig", "emit_config", "parse_config"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOMES:  # a submodule not imported yet
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

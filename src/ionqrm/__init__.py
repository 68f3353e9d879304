"""Engineering the quantum Rabi model from a single resonant ion-laser beam.

Dense numerical toolkit with four layers: elementary operator algebra on
truncated spaces (one cached-basis displacement plus two oracles),
Hamiltonian and transformation builders, an eigendecomposition propagator,
and verification experiments that turn the scheme's operator identities and
approximations into pass/fail reports. The ``ionqrm`` CLI exposes all of it
behind a reproducible key-value configuration.
"""
from .algebra import (
    DEFAULT_TRUNC,
    Spin,
    TruncationSpec,
    annihilation,
    creation,
    commutator,
    dagger,
    displacement,
    displacement_generator,
    displacement_laguerre,
    interior_block,
    is_hermitian,
    is_unitary,
    number_op,
    osc_identity,
    pauli,
    sigma_y,
    spin_tensor_osc,
    unitary_expm,
)
from .models import (
    HAMILTONIAN_BUILDERS,
    DerivedCouplings,
    IonParams,
    Regime,
    RegimeThresholds,
    ResonancePoleError,
    classify_regime,
    derived_couplings,
    h_ajc,
    h_dispersive,
    h_jc,
    h_lamb_dicke,
    h_qrm,
    h_qrm_detuned,
    h_rabi_rotated,
    h_resonant,
    qrm_conjugate,
    qrm_transform,
    rotation_diagnostic,
    small_rotation,
    y_rotation,
)
from .dynamics import (
    EvolutionResult,
    coherent_state,
    expectation,
    fidelity,
    fock_state,
    propagate,
)
from .analysis import (
    DEFAULT_TOLERANCES,
    Tolerances,
    VerificationReport,
    ajc_dynamics_check,
    chi_identity_check,
    dispersive_error_scan,
    dominant_frequency,
    guard_necessity_check,
    jc_rabi_experiment,
    lamb_dicke_remainder_scan,
    operator_algebra_check,
    propagator_conservation_check,
    qrm_transform_check,
    qrm_transform_property,
    regime_check,
    rotation_diagnostic_check,
    run_all_checks,
    speed_comparison,
    truncation_convergence,
)
from .config import ConfigError, RunConfig, emit_config, parse_config

__version__ = "0.1.0"

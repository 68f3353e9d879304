"""Scalar parameters, derived couplings, the regime classifier and the schema version.

Everything here is plain Python on floats and imports only the standard
library, so configuration parsing and the ``regime`` command never load
numpy. :mod:`ionqrm.models`, :mod:`ionqrm.algebra` and
:mod:`ionqrm.analysis` import the names they read from here, and each is
defined only here. So are the scheme's conventions every layer reads: the
engineered coupling g = eta*nu/2 (:func:`qrm_coupling`), the diagonal offset
nu*eta^2/4 of the transformed resonant model (:func:`transform_offset`) and
the one test of the laser phases 0 and pi (:func:`laser_phase_sign`).
"""
from __future__ import annotations

import math
from enum import Enum

_PHASE_ATOL = 1e-12

#: Seed of every randomized check unless the configuration sets ``seed``.
DEFAULT_SEED = 2024

#: Version of every JSON document the package writes: reports, Hamiltonians, errors.
SCHEMA_VERSION = 1


class ResonancePoleError(ValueError):
    """Raised when a formula hits the 2*Omega = nu (or 2*Omega = -nu) pole."""


class Record:
    """Frozen value class: every parameter, configuration and result type.

    The fields are the class annotations, in order, and a class value is that
    field's default. An instance stores the fields it was given; the others
    read the class value, except that a dict, list or set default is copied
    for each instance. Construction takes the fields positionally or by
    keyword, raises ``TypeError`` for a missing, unknown or duplicate one,
    then calls ``__post_init__``. Equality and hash are those of the field
    tuple, and the repr is ``Name(field=value, ...)``. No code is generated
    per class, so defining one costs a class statement and nothing more.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._field_set = frozenset(cls._fields)
        cls._required = frozenset(name for name in cls._fields if not hasattr(cls, name))
        cls._copied = tuple(name for name in cls._fields
                            if isinstance(getattr(cls, name, None), (dict, list, set)))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        values = self.__dict__
        if args:
            if (len(args) > len(cls._fields)
                    or kwargs and not kwargs.keys().isdisjoint(cls._fields[:len(args)])):
                raise TypeError(cls._bad_arguments(args, kwargs))
            values.update(zip(cls._fields, args))
        values.update(kwargs)
        if not cls._required <= values.keys() <= cls._field_set:
            raise TypeError(cls._bad_arguments(args, kwargs))
        for name in cls._copied:
            if name not in values:
                values[name] = getattr(cls, name).copy()
        self.__post_init__()

    @classmethod
    def _bad_arguments(cls, args: tuple, kwargs: dict) -> str:
        fields = cls._fields
        if len(args) > len(fields):
            return (f"{cls.__name__}() takes {len(fields)} positional arguments "
                    f"but {len(args)} were given")
        for name in kwargs:
            if name not in fields:
                return f"{cls.__name__}() got an unexpected keyword argument {name!r}"
            if name in fields[:len(args)]:
                return f"{cls.__name__}() got multiple values for argument {name!r}"
        missing = [name for name in fields[len(args):]
                   if name in cls._required and name not in kwargs]
        return f"{cls.__name__}() missing required arguments: {', '.join(map(repr, missing))}"

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({items})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new instance."""
        return type(self)(**{**self.__dict__, **changes})

    def asdict(self) -> dict:
        """Field name -> value, in field order (a nested record stays a record)."""
        return dict(zip(self._fields, self._values()))


class IonParams(Record):
    """Physical parameters of the resonant ion-laser interaction.

    Omega is the laser Rabi coupling, eta the Lamb-Dicke parameter, nu the
    trap frequency, phi_l the laser phase and delta the atom-laser detuning
    (zero under the resonant condition; only the detuned Rabi builder
    accepts a nonzero value).
    """

    Omega: float
    eta: float
    nu: float = 1.0
    phi_l: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("Omega", "eta", "nu", "phi_l", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.nu <= 0:
            raise ValueError(f"nu > 0 violated (got {self.nu})")
        if self.eta < 0:
            raise ValueError(f"eta >= 0 violated (got {self.eta})")
        if self.Omega < 0:
            raise ValueError(f"Omega >= 0 violated (got {self.Omega})")


class DerivedCouplings(Record):
    """Coupling constants derived from :class:`IonParams`.

    eps_counter and eps_co are the small-rotation angles multiplying the
    counter-rotating and co-rotating pair generators; chi is the dispersive
    interaction constant. The Rabi coupling g is :func:`qrm_coupling`.
    """

    eps_counter: float
    eps_co: float
    chi: float


class Regime(Enum):
    JC_RESONANT = "JC-resonant"
    AJC_RESONANT = "AJC-resonant"
    DISPERSIVE = "dispersive"
    DECOUPLING = "decoupling"
    ULTRASTRONG = "ultrastrong"
    DEEP_STRONG = "deep-strong"
    UNCLASSIFIED = "unclassified"


class RegimeThresholds(Record):
    """Configurable ratio thresholds for :func:`classify_regime`.

    ordering_factor is the ratio read for a "much greater than" ordering,
    ultrastrong_onset the g/nu value where the ultrastrong regime starts,
    dispersive_factor the margin below every transition scale required of
    the coupling, and resonant_max_g_ratio the largest g/nu still labelled
    as a sideband resonance.
    """

    ordering_factor: float = 10.0
    ultrastrong_onset: float = 0.1
    dispersive_factor: float = 0.1
    resonant_max_g_ratio: float = 0.1

    def __post_init__(self) -> None:
        for name in ("ordering_factor", "ultrastrong_onset", "dispersive_factor",
                     "resonant_max_g_ratio"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite")


class TruncationSpec(Record):
    """Oscillator Fock cutoff plus an interior guard band.

    ``guard`` is the number of top Fock levels excluded from interior
    comparisons, so truncation artifacts at the edge do not pollute
    operator-identity checks.
    """

    n_max: int
    guard: int = 0

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max >= 1 violated (got {self.n_max})")
        if not 0 <= self.guard < self.n_max:
            raise ValueError(
                f"0 <= guard < n_max violated (got guard={self.guard}, n_max={self.n_max})"
            )

    @property
    def interior_dim(self) -> int:
        return self.n_max - self.guard


#: Default truncation for verification tasks.
DEFAULT_TRUNC = TruncationSpec(n_max=64, guard=16)


class Tolerances(Record):
    """The pass/fail thresholds a configuration can set, one ``tol.*`` key each.

    The fixed settings of the checks are constants of :mod:`ionqrm.analysis`.
    """

    identity: float = 1e-10
    oracle: float = 1e-9
    spectral: float = 1e-8
    min_scaling_order: float = 1.8


def qrm_coupling(p: IonParams) -> float:
    """The engineered Rabi coupling g = eta*nu/2; defined at every parameter, no pole."""
    return p.eta * p.nu / 2.0


def transform_offset(p: IonParams) -> float:
    """The constant nu*eta^2/4 on the diagonal of the transformed resonant model."""
    return p.nu * p.eta**2 / 4.0


def derived_couplings(p: IonParams) -> DerivedCouplings:
    """Evaluate the small-rotation angles and the chi shift.

    eps_counter = eta*nu / (2*(nu + 2*Omega))
    eps_co      = eta*nu / (2*(2*Omega - nu))
    chi         = 2*eta^2*nu^2*Omega / (4*Omega^2 - nu^2)

    Raises :class:`ResonancePoleError` at the sideband pole 2*Omega = nu
    (the 2*Omega = -nu pole is unreachable for valid parameters).
    """
    scale = max(p.nu, 2.0 * p.Omega)
    if abs(2.0 * p.Omega - p.nu) <= 1e-12 * scale:
        raise ResonancePoleError(
            f"2*Omega = nu pole (nu={p.nu}, Omega={p.Omega}); "
            "small-rotation angles are undefined at the sideband resonance"
        )
    eps_counter = p.eta * p.nu / (2.0 * (p.nu + 2.0 * p.Omega))
    eps_co = p.eta * p.nu / (2.0 * (2.0 * p.Omega - p.nu))
    chi = 2.0 * p.eta**2 * p.nu**2 * p.Omega / (4.0 * p.Omega**2 - p.nu**2)
    return DerivedCouplings(eps_counter=eps_counter, eps_co=eps_co, chi=chi)


def is_sideband_resonant(p: IonParams) -> bool:
    """True at the sideband resonance nu = 2*Omega, to 1e-9 relative."""
    return abs(p.nu - 2.0 * p.Omega) <= 1e-9 * (p.nu + 2.0 * p.Omega)


def laser_phase_sign(phi_l: float) -> float | None:
    """e^(i*phi_l) where it is real: +1.0 at phi_l = 0 and -1.0 at pi, modulo 2*pi
    within _PHASE_ATOL; None at every other phase.

    The one test of phi_l in {0, pi}. The builders take this sign as the drive's
    phase factor, so H is exactly real in the Fock-parity gauge there; -1.0 selects
    the AJC branch of the sideband resonance and the sign of the rotated Rabi form.
    """
    phase = math.remainder(phi_l, 2.0 * math.pi)
    if abs(phase) <= _PHASE_ATOL:
        return 1.0
    if abs(abs(phase) - math.pi) <= _PHASE_ATOL:
        return -1.0
    return None


def classify_regime(p: IonParams, thresholds: RegimeThresholds | None = None) -> Regime:
    """Classify the coupling regime of the engineered Rabi model.

    Uses g = eta*nu/2 and ratio thresholds only, so the label is invariant
    under a common rescaling of nu and Omega. Precedence: deep-strong,
    decoupling (nu >> g >> 2*Omega, which can sit exactly on the
    ultrastrong onset), ultrastrong, sideband resonance (nu = 2*Omega; AJC
    where :func:`laser_phase_sign` is -1, else JC), dispersive, unclassified.
    """
    t = thresholds or RegimeThresholds()
    g = qrm_coupling(p)
    if g / p.nu >= 1.0:
        return Regime.DEEP_STRONG
    if g > 0 and p.nu >= t.ordering_factor * g and g >= t.ordering_factor * 2.0 * p.Omega:
        return Regime.DECOUPLING
    if g / p.nu >= t.ultrastrong_onset:
        return Regime.ULTRASTRONG
    if is_sideband_resonant(p):
        if g / p.nu < t.resonant_max_g_ratio:
            if laser_phase_sign(p.phi_l) == -1.0:
                return Regime.AJC_RESONANT
            return Regime.JC_RESONANT
    scales = min(p.nu, 2.0 * p.Omega, abs(2.0 * p.Omega - p.nu), 2.0 * p.Omega + p.nu)
    if g < t.dispersive_factor * scales:
        return Regime.DISPERSIVE
    return Regime.UNCLASSIFIED

"""Shared numerics: system parameters, quasispins, CP mixing data, eigensolver.

All times are measured in units of the mass splitting (Delta m := 1) and the
decay widths are rescaled by the same factor.  The strangeness basis
{K0, K0bar} is the orthonormal reference frame; the lifetime (mass) basis
{K_S, K_L} is non-orthogonal once the CP asymmetry delta is nonzero, with
<K_S|K_L> = delta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PAULI_X", "PAULI_Y", "PAULI_Z", "ID2", "PAULI",
    "MesonParams", "kaon_defaults", "bmeson_defaults", "stable_defaults",
    "Quasispin", "KS_DIRECTION", "KL_DIRECTION", "K0BAR_DIRECTION",
    "hermitian_eigen",
    "CpBasisData", "cp_basis_data",
    "k0bar_state", "k1_state", "ks_state", "kl_state",
    "mass_to_strangeness_matrix", "CP_TO_STRANGENESS",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)

HERMITICITY_TOL = 1e-10

# Kaon constants.  The short width follows from tau_S = 5.4/11.4 in
# mass-splitting units; the width ratio from the measured lifetimes
# tau_S = 0.89e-10 s and tau_L = 5.17e-8 s; delta is the world-average
# leptonic charge asymmetry.
KAON_GAMMA_S = 11.4 / 5.4
KAON_LIFETIME_RATIO = 0.89e-10 / 5.17e-8
KAON_DELTA = 3.322e-3


def _require_finite(**values) -> None:
    """Raise a ValueError naming the first non-finite number or array entry."""
    for name, value in values.items():
        if isinstance(value, (float, int)):  # math.isfinite is the fast check
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        elif not np.isfinite(value).all():
            bad = np.asarray(value)[~np.isfinite(value)]
            raise ValueError(f"{name} must be finite, got {bad[0]}")


def _entries(rho, name: str = "state", *shapes: tuple[int, ...]) -> np.ndarray:
    """Complex entries of a DensityMatrix or array-like, checked finite.

    With shapes given, the entries must also have one of them.
    """
    m = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    if shapes and m.shape not in shapes:
        sizes = ("x".join(map(str, s)) if len(s) > 1 else f"{s[0]}-component"
                 for s in shapes)
        raise ValueError(f"expected a {' or '.join(sizes)} {name}, got shape {m.shape}")
    _require_finite(**{f"{name} entries": m})
    return m


@dataclass(frozen=True)
class MesonParams:
    """Decay widths and CP asymmetry of a two-state meson, Delta-m rescaled.

    Convention: the S state is the shorter lived one, gamma_s >= gamma_l.
    """

    gamma_s: float
    gamma_l: float
    delta: float = 0.0
    label: str = "custom"

    def __post_init__(self):
        _require_finite(gamma_s=self.gamma_s, gamma_l=self.gamma_l)
        if self.gamma_s < 0.0 or self.gamma_l < 0.0:
            raise ValueError("decay widths must be nonnegative")
        if self.gamma_s < self.gamma_l:
            raise ValueError("convention requires gamma_s >= gamma_l")
        if not abs(self.delta) < 1.0:
            raise ValueError("unphysical delta")

    @property
    def gamma_mean(self) -> float:
        """Damping rate of the mass-basis coherence, (gamma_s + gamma_l)/2."""
        return 0.5 * (self.gamma_s + self.gamma_l)

    @property
    def delta_gamma(self) -> float:
        """Half width difference (gamma_l - gamma_s)/2; nonpositive."""
        return 0.5 * (self.gamma_l - self.gamma_s)

    @property
    def tau_s(self) -> float:
        """Short lifetime in Delta-m units; inf for a stable system."""
        return math.inf if self.gamma_s == 0.0 else 1.0 / self.gamma_s


def kaon_defaults() -> MesonParams:
    """Neutral-kaon preset in mass-splitting units."""
    gs = KAON_GAMMA_S
    return MesonParams(gamma_s=gs, gamma_l=gs * KAON_LIFETIME_RATIO,
                       delta=KAON_DELTA, label="kaon")


def bmeson_defaults() -> MesonParams:
    """B-meson preset: equal widths 1/0.776, no CP asymmetry."""
    g = 1.0 / 0.776
    return MesonParams(gamma_s=g, gamma_l=g, delta=0.0, label="bmeson")


def stable_defaults() -> MesonParams:
    """Oscillating but non-decaying system (both widths zero)."""
    return MesonParams(gamma_s=0.0, gamma_l=0.0, delta=0.0, label="stable")


@dataclass(frozen=True)
class Quasispin:
    """Direction (alpha, phi) on the mass-eigenstate Bloch sphere.

    The associated state is cos(alpha/2)|K_S> + sin(alpha/2) e^{i phi}|K_L>.
    """

    alpha: float
    phi: float = 0.0

    def __post_init__(self):
        _require_finite(alpha=self.alpha, phi=self.phi)
        if not -1e-12 <= self.alpha <= math.pi + 1e-12:
            raise ValueError("alpha must lie in [0, pi]")
        object.__setattr__(self, "alpha", min(max(self.alpha, 0.0), math.pi))
        phi = math.fmod(self.phi, 2.0 * math.pi)
        if phi < 0.0:
            phi += 2.0 * math.pi
        if self.alpha == 0.0:
            phi = 0.0  # phase of the absent K_L component is irrelevant
        object.__setattr__(self, "phi", phi)

    def state_mass(self) -> np.ndarray:
        """Unit vector of mass-basis amplitudes."""
        return np.array([math.cos(0.5 * self.alpha),
                         math.sin(0.5 * self.alpha) * cmath.exp(1j * self.phi)])

    @classmethod
    def from_mass_state(cls, v: np.ndarray) -> "Quasispin":
        """Angles of a two-component state, global phase stripped."""
        v = _entries(v, "state", (2,))
        norm = np.linalg.norm(v)
        if norm < 1e-14:
            raise ValueError("zero vector has no direction")
        a0, a1 = v / norm
        alpha = 2.0 * math.atan2(abs(a1), abs(a0))
        phi = 0.0 if abs(a1) < 1e-14 or abs(a0) < 1e-14 else cmath.phase(a1 / a0)
        return cls(alpha=alpha, phi=phi)


KS_DIRECTION = Quasispin(0.0, 0.0)
KL_DIRECTION = Quasispin(math.pi, 0.0)
K0BAR_DIRECTION = Quasispin(0.5 * math.pi, math.pi)


def _require_hermitian(m: np.ndarray) -> None:
    """Raise unless each matrix on the leading axes of m is Hermitian.

    The tolerance is HERMITICITY_TOL times the matrix scale max(1, max |m_ij|).
    """
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if not (np.abs(m - m.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
            <= HERMITICITY_TOL * scale).all():
        raise ValueError("not hermitian")


def hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvector columns of a Hermitian matrix.

    m must be a finite 2x2, 4x4 or 16x16 matrix and pass the Hermiticity check.
    """
    m = _entries(m, "matrix", (2, 2), (4, 4), (16, 16))
    _require_hermitian(m)
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], vecs[:, ::-1]


@dataclass(frozen=True)
class CpBasisData:
    """Mixing weights p = 1+eps, q = 1-eps of the mass eigenstates.

    eps is taken real, the exact inverse of delta = 2 eps/(1+eps^2), so that
    <K_S|K_L> = delta holds to machine precision.
    """

    p: complex
    q: complex
    norm_n: float
    delta: float


def cp_basis_data(delta: float) -> CpBasisData:
    if not abs(delta) < 1.0:
        raise ValueError("unphysical delta")
    # stable form of (1 - sqrt(1 - delta^2))/delta
    eps = delta / (1.0 + math.sqrt(1.0 - delta * delta))
    p = 1.0 + eps
    q = 1.0 - eps
    return CpBasisData(p=complex(p), q=complex(q),
                       norm_n=math.sqrt(abs(p) ** 2 + abs(q) ** 2), delta=delta)


def k0bar_state() -> np.ndarray:
    return np.array([0.0, 1.0], dtype=complex)


def k1_state() -> np.ndarray:
    """CP-plus eigenstate (K0 - K0bar)/sqrt(2); equals K_S at delta = 0."""
    return np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


def ks_state(cp: CpBasisData) -> np.ndarray:
    """Short-lived eigenstate (p K0 - q K0bar)/N in strangeness coordinates."""
    return np.array([cp.p, -cp.q], dtype=complex) / cp.norm_n


def kl_state(cp: CpBasisData) -> np.ndarray:
    return np.array([cp.p, cp.q], dtype=complex) / cp.norm_n


def mass_to_strangeness_matrix(cp: CpBasisData) -> np.ndarray:
    """Columns are K_S and K_L in strangeness coordinates (non-unitary for delta != 0)."""
    return np.column_stack([ks_state(cp), kl_state(cp)])


# columns: the CP eigenstates K1 = (K0 - K0bar)/sqrt(2) and K2 = (K0 + K0bar)/sqrt(2)
CP_TO_STRANGENESS = np.column_stack([k1_state(), np.array([1.0, 1.0]) / math.sqrt(2.0)])

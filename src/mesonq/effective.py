"""Heisenberg-picture observables for the question "quasispin k at time t, or not".

Every such question is one rank-one construction.  The amplitudes a of k
over the lifetime states are propagated to the detection time,

    w = (a_S e^{-Gamma_S t/2}, a_L e^{i t - Gamma_L t/2}),

and the observable is O = 2|w><w| - 1 = -n0*1 + n.sigma.  The "no" outcome
absorbs everything that decayed before t, so Tr(O rho0) = P(yes) - P(no)
for any initial state rho0 on the surviving space.  Its spectrum is
2|w|^2 - 1 on w and -1 on the orthogonal complement of w: only the Bloch
length |n| = |w|^2 shrinks with time, and one eigenvalue stays pinned at -1
for every setting.  Every factor in w is at most one, so nothing overflows
at long times.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CP_TO_STRANGENESS, ID2, CpBasisData, MesonParams, Quasispin,
    cp_basis_data, hermitian_eigen, ks_state, kl_state,
    mass_to_strangeness_matrix, _canonical_phase, _entries, _require_finite,
)

__all__ = [
    "ObservableMatrix", "EigenPair",
    "bloch_vector", "effective_operator", "spectral",
    "effective_operator_cp", "effective_operator_cp_exact",
    "cp_weights", "cp_eigenvectors", "eigenpair_from_matrix",
    "expectation", "bipartite_expectation",
]

_DEGENERACY_TOL = 1e-14
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ObservableMatrix:
    """Effective observable with its Bloch decomposition -n0*1 + bloch.sigma."""

    matrix: np.ndarray
    n0: float
    bloch: np.ndarray
    quasispin: Quasispin
    time: float
    params: MesonParams
    cp_corrected: bool = False
    basis: str = "mass"


@dataclass(frozen=True)
class EigenPair:
    """Spectral data of an effective observable: lambda2 = -1 always."""

    lambda1: float
    chi1: np.ndarray
    lambda2: float
    chi2: np.ndarray
    degenerate: bool = False
    basis: str = "mass"


def _propagate(amps, t: float, params: MesonParams) -> np.ndarray:
    """Amplitudes over (K_S, K_L) carried to the detection time t >= 0.

    Each picks up its decay factor e^{-Gamma_i t/2}, and the K_L amplitude
    also the oscillation phase e^{i t}.
    """
    _require_finite(t=t)
    if t < 0.0:
        raise ValueError("observables live at detection times t >= 0")
    return np.array([amps[0] * math.exp(-0.5 * params.gamma_s * t),
                     amps[1] * cmath.exp(1j * t - 0.5 * params.gamma_l * t)])


def _rank_one(w: np.ndarray) -> np.ndarray:
    """2|w><w| - 1: the yes/no observable whose "yes" direction is w."""
    return 2.0 * np.outer(w, w.conj()) - ID2


def _bloch(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Bloch data (n0, n) of 2|w><w| - 1; |n| = |w|^2 and n0 = 1 - |w|^2."""
    c = 2.0 * w[0].conjugate() * w[1]
    a_s, a_l = abs(w[0]) ** 2, abs(w[1]) ** 2
    return 1.0 - (a_s + a_l), np.array([c.real, c.imag, a_s - a_l])


def _pair(w: np.ndarray, basis: str) -> EigenPair:
    """Eigenpair of 2|w><w| - 1: w/|w| at 2|w|^2 - 1, (-w_L*, w_S*)/|w| at -1.

    Once |w|^2 falls below the degeneracy tolerance both eigenvalues are -1
    and the standard basis is returned.
    """
    norm = float(np.linalg.norm(w))
    weight = norm * norm
    if weight < _DEGENERACY_TOL:
        return EigenPair(lambda1=-1.0, chi1=np.array([1.0 + 0j, 0.0]),
                         lambda2=-1.0, chi2=np.array([0.0, 1.0 + 0j]),
                         degenerate=True, basis=basis)
    chi2 = np.array([-w[1].conjugate(), w[0].conjugate()])
    return EigenPair(lambda1=2.0 * weight - 1.0,
                     chi1=_canonical_phase(w / norm), lambda2=-1.0,
                     chi2=_canonical_phase(chi2 / norm), basis=basis)


def bloch_vector(q: Quasispin, t: float, params: MesonParams) -> tuple[float, np.ndarray]:
    """Bloch data (n0, n) of the effective observable, t >= 0.

    Read off the propagated amplitudes; in closed form
    n = e^{-Gamma t} (cos(t+phi) sin a, sin(t+phi) sin a,
                      sinh(dGamma t) + cosh(dGamma t) cos a)
    and n0 = 1 - |n|, with |n| <= 1.
    """
    return _bloch(_propagate(q.state_mass(), t, params))


def effective_operator(q: Quasispin, t: float, params: MesonParams) -> ObservableMatrix:
    """Effective yes/no observable in the mass basis (CP asymmetry neglected)."""
    w = _propagate(q.state_mass(), t, params)
    n0, n = _bloch(w)
    return ObservableMatrix(matrix=_rank_one(w), n0=n0, bloch=n,
                            quasispin=q, time=t, params=params)


def spectral(o: ObservableMatrix) -> EigenPair:
    """Spectral decomposition lambda1 |chi1><chi1| + (-1) |chi2><chi2|.

    chi1 is the forward-propagated quasispin w/|w|; chi2 its orthogonal
    complement, which the paper reads as the backward-in-time partner
    chi(alpha+pi, phi+2t, -t).  Both are checked against o.matrix.
    """
    if o.cp_corrected:
        return cp_eigenvectors(o.quasispin, o.time, o.params)
    pair = _pair(_propagate(o.quasispin.state_mass(), o.time, o.params),
                 o.basis)
    for lam, chi in ((pair.lambda1, pair.chi1), (pair.lambda2, pair.chi2)):
        if not np.linalg.norm(o.matrix @ chi - lam * chi) <= _RESIDUAL_TOL:
            raise AssertionError("analytic eigenvector failed the residual check")
    return pair


def _quasispin_strangeness(q: Quasispin, cp: CpBasisData, q_basis: str) -> np.ndarray:
    """Quasispin (alpha, phi) realized as a state in strangeness coordinates."""
    amps = q.state_mass()
    if q_basis == "mass":
        return mass_to_strangeness_matrix(cp) @ amps
    if q_basis == "cp":
        return CP_TO_STRANGENESS @ amps
    raise ValueError(f"unknown quasispin basis: {q_basis!r}")


def cp_weights(q: Quasispin, params: MesonParams,
               q_basis: str = "mass") -> tuple[complex, complex, float]:
    """Overlaps (<K_S|k>, <K_L|k>) and their weight sum |.|^2 + |.|^2.

    For a quasispin parameterized in the CP basis the weights sum to
    1 + delta sin(alpha) cos(phi), not to one: the mass eigenstates are
    non-orthogonal.
    """
    cp = cp_basis_data(params.delta)
    k = _quasispin_strangeness(q, cp, q_basis)
    amp_s = complex(np.vdot(ks_state(cp), k))
    amp_l = complex(np.vdot(kl_state(cp), k))
    return amp_s, amp_l, abs(amp_s) ** 2 + abs(amp_l) ** 2


def effective_operator_cp(q: Quasispin, t: float, params: MesonParams) -> ObservableMatrix:
    """Effective observable with CP corrections, in the orthonormal CP basis.

    Built as 2|w><w| - 1 from the propagated overlap amplitudes
    (<K_S|k>, <K_L|k>) of cp_weights; the quasispin angles refer to the
    mass basis.  Expanded in delta, its Bloch vector is the plain one plus

      n1 += e^{-Gamma t} (2 delta cos t + delta^2 sin a cos(t - phi))
      n2 += e^{-Gamma t} (2 delta sin t + delta^2 sin a sin(t - phi))
      n3 += delta (e^{-Gs t} - e^{-Gl t}) sin a cos phi
            + delta^2/2 (e^{-Gs t} - e^{-Gl t} - (e^{-Gs t} + e^{-Gl t}) cos a)

    and the expansion is exact: no higher order of delta appears.
    """
    amp_s, amp_l, _ = cp_weights(q, params)
    w = _propagate((amp_s, amp_l), t, params)
    n0, n = _bloch(w)
    return ObservableMatrix(matrix=_rank_one(w), n0=n0, bloch=n,
                            quasispin=q, time=t, params=params,
                            cp_corrected=True, basis="cp")


def effective_operator_cp_exact(q: Quasispin, t: float,
                                params: MesonParams) -> np.ndarray:
    """Exact Heisenberg image of the quasispin projector, CP basis.

    Propagates with the true non-orthogonal-basis map M = V D V^{-1} (V holds
    the p,q mass eigenstates, D the decay/oscillation factors) and returns
    2 M^dag |k><k| M - 1.  Differs from the overlap-amplitude form at first
    order in delta because the latter expands states over <K_i| overlaps
    instead of the inverse-basis coefficients; the comparison test documents
    the gap.
    """
    cp = cp_basis_data(params.delta)
    v = np.linalg.inv(CP_TO_STRANGENESS) @ mass_to_strangeness_matrix(cp)
    # oscillation phase on K_L relative to K_S; amplitudes decay as e^{-G t/2}
    d = np.diag(_propagate(np.ones(2), t, params))
    m = v @ d.conj() @ np.linalg.inv(v)
    k_cp = np.linalg.inv(CP_TO_STRANGENESS) @ _quasispin_strangeness(q, cp, "mass")
    return _rank_one(m.conj().T @ k_cp)


def cp_eigenvectors(q: Quasispin, t: float, params: MesonParams,
                    q_basis: str = "mass") -> EigenPair:
    """CP-corrected eigenvector pair, components in the CP basis.

    chi1 is the propagated overlap amplitude vector w of cp_weights,
    normalized; chi2 its orthogonal complement, which equals the conjugated
    amplitudes with inverted decay factors.  Both have unit length and are
    exactly orthogonal for every delta and t >= 0; lambda1 = 2|w|^2 - 1.
    """
    amp_s, amp_l, _ = cp_weights(q, params, q_basis)
    return _pair(_propagate((amp_s, amp_l), t, params), "cp")


def eigenpair_from_matrix(m: np.ndarray, basis: str = "mass",
                          gap_tol: float = 1e-12) -> EigenPair:
    """EigenPair of a generic 2x2 Hermitian operator (descending eigenvalues)."""
    dec = hermitian_eigen(m)
    lam = dec.eigenvalues
    return EigenPair(lambda1=float(lam[0]), chi1=dec.eigenvectors[:, 0],
                     lambda2=float(lam[1]), chi2=dec.eigenvectors[:, 1],
                     degenerate=bool(lam[0] - lam[1] <= gap_tol), basis=basis)


def expectation(o: ObservableMatrix, rho0) -> float:
    """Tr(O rho0) = 2 P(yes) - 1 for a t=0 state on the surviving space."""
    rho = _entries(rho0)
    if rho.shape != (2, 2):
        raise ValueError("expected a 2x2 initial state")
    return float(np.trace(o.matrix @ rho).real)


def bipartite_expectation(o1: ObservableMatrix, o2: ObservableMatrix, rho0) -> float:
    """Tr((O1 x O2) rho0) for a t=0 pair state on surviving x surviving."""
    rho = _entries(rho0)
    if rho.shape != (4, 4):
        raise ValueError("expected a 4x4 two-particle initial state")
    return _pair_expectation(o1.matrix, o2.matrix, rho)


def _pair_expectation(a: np.ndarray, b: np.ndarray, rho4: np.ndarray) -> float:
    """Tr((A x B) rho4) for 2x2 matrices A, B and a 4x4 pair state."""
    return float(np.trace(np.kron(a, b) @ rho4).real)

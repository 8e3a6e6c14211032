"""Heisenberg-picture observables for the question "quasispin k at time t, or not".

A single 2x2 Hermitian operator O(k, t) = -n0*1 + n.sigma encodes the yes/no
measurement including decay losses: the "no" outcome absorbs everything that
decayed before t, so Tr(O rho0) = P(yes) - P(no) for any initial state rho0
on the surviving space.  Only the Bloch length shrinks with time; one
eigenvalue stays pinned at -1 for every setting.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CP_TO_STRANGENESS, ID2, PAULI, CpBasisData, MesonParams, Quasispin,
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


def bloch_vector(q: Quasispin, t: float, params: MesonParams) -> tuple[float, np.ndarray]:
    """Bloch data (n0, n) of the effective observable.

    n = e^{-Gamma t} (cos(t+phi) sin a, sin(t+phi) sin a,
                      sinh(dGamma t) + cosh(dGamma t) cos a)
    and n0 = 1 - |n|.  Negative t is allowed (needed by the backward-in-time
    eigenvector); only for t >= 0 is |n| <= 1 guaranteed.
    """
    a, phi = q.alpha, q.phi
    g, dg = params.gamma_mean, params.delta_gamma
    damp = math.exp(-g * t)
    n = damp * np.array([
        math.cos(t + phi) * math.sin(a),
        math.sin(t + phi) * math.sin(a),
        math.sinh(dg * t) + math.cosh(dg * t) * math.cos(a),
    ])
    return 1.0 - float(np.linalg.norm(n)), n


def _matrix_from_bloch(n0: float, n: np.ndarray) -> np.ndarray:
    m = -n0 * ID2.copy()
    for ni, sigma in zip(n, PAULI):
        m = m + ni * sigma
    return m


def effective_operator(q: Quasispin, t: float, params: MesonParams) -> ObservableMatrix:
    """Effective yes/no observable in the mass basis (CP asymmetry neglected)."""
    _require_finite(t=t)
    if t < 0.0:
        raise ValueError("observables live at detection times t >= 0")
    n0, n = bloch_vector(q, t, params)
    return ObservableMatrix(matrix=_matrix_from_bloch(n0, n), n0=n0, bloch=n,
                            quasispin=q, time=t, params=params)


def _chi(alpha: float, phi: float, t: float, params: MesonParams) -> np.ndarray:
    """Quasispin propagated to time t, renormalized to the surviving sector.

    Amplitudes pick up e^{-Gamma_i t/2} and the K_L component the oscillation
    phase e^{i t}.  Angles are raw (alpha may exceed pi, t may be negative).
    """
    c, s = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
    v = np.array([
        c * math.exp(-0.5 * params.gamma_s * t),
        s * cmath.exp(1j * (t + phi)) * math.exp(-0.5 * params.gamma_l * t),
    ])
    return v / np.linalg.norm(v)


def spectral(o: ObservableMatrix) -> EigenPair:
    """Spectral decomposition lambda1 |chi1><chi1| + (-1) |chi2><chi2|.

    chi1 is the forward-propagated quasispin, chi2 the orthogonal
    backward-in-time partner chi(alpha+pi, phi+2t, -t).
    """
    if o.cp_corrected:
        return cp_eigenvectors(o.quasispin, o.time, o.params)
    q, t, params = o.quasispin, o.time, o.params
    nlen = float(np.linalg.norm(o.bloch))
    if nlen < _DEGENERACY_TOL:
        return EigenPair(lambda1=-1.0, chi1=np.array([1.0 + 0j, 0.0]),
                         lambda2=-1.0, chi2=np.array([0.0, 1.0 + 0j]),
                         degenerate=True, basis=o.basis)
    chi1 = _canonical_phase(_chi(q.alpha, q.phi, t, params))
    chi2 = _canonical_phase(_chi(q.alpha + math.pi, q.phi + 2.0 * t, -t, params))
    lam1 = 2.0 * nlen - 1.0
    for lam, chi in ((lam1, chi1), (-1.0, chi2)):
        if np.linalg.norm(o.matrix @ chi - lam * chi) > _RESIDUAL_TOL:
            raise AssertionError("analytic eigenvector failed the residual check")
    return EigenPair(lambda1=lam1, chi1=chi1, lambda2=-1.0, chi2=chi2,
                     basis=o.basis)


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

    The Bloch corrections are polynomial in delta through second order:

      n1 += e^{-Gamma t} (2 delta cos t + delta^2 sin a cos(t - phi))
      n2 += e^{-Gamma t} (2 delta sin t + delta^2 sin a sin(t - phi))
      n3 += delta (e^{-Gs t} - e^{-Gl t}) sin a cos phi
            + delta^2/2 (e^{-Gs t} - e^{-Gl t} - (e^{-Gs t} + e^{-Gl t}) cos a)

    which is exactly the Bloch vector of the propagated overlap amplitudes
    (<K_S|k>, <K_L|k>); the quasispin angles refer to the mass basis.
    """
    _require_finite(t=t)
    if t < 0.0:
        raise ValueError("observables live at detection times t >= 0")
    a, phi, d = q.alpha, q.phi, params.delta
    gs, gl = params.gamma_s, params.gamma_l
    _, n = bloch_vector(q, t, params)
    damp = math.exp(-params.gamma_mean * t)
    es, el = math.exp(-gs * t), math.exp(-gl * t)
    n = n + np.array([
        damp * (2.0 * d * math.cos(t) + d * d * math.sin(a) * math.cos(t - phi)),
        damp * (2.0 * d * math.sin(t) + d * d * math.sin(a) * math.sin(t - phi)),
        d * (es - el) * math.sin(a) * math.cos(phi)
        + 0.5 * d * d * (es - el - (es + el) * math.cos(a)),
    ])
    n0 = 1.0 - float(np.linalg.norm(n))
    return ObservableMatrix(matrix=_matrix_from_bloch(n0, n), n0=n0, bloch=n,
                            quasispin=q, time=t, params=params,
                            cp_corrected=True, basis="cp")


def effective_operator_cp_exact(q: Quasispin, t: float,
                                params: MesonParams) -> np.ndarray:
    """Exact Heisenberg image of the quasispin projector, CP basis.

    Propagates with the true non-orthogonal-basis map M = V D V^{-1} (V holds
    the p,q mass eigenstates, D the decay/oscillation factors) and returns
    2 M^dag |k><k| M - 1.  Differs from the polynomial form at first order in
    delta because the latter expands states over <K_i| overlaps instead of the
    inverse-basis coefficients; the comparison test documents the gap.
    """
    _require_finite(t=t)
    if t < 0.0:
        raise ValueError("observables live at detection times t >= 0")
    cp = cp_basis_data(params.delta)
    v = np.linalg.inv(CP_TO_STRANGENESS) @ mass_to_strangeness_matrix(cp)
    d = np.diag([cmath.exp(-0.5 * params.gamma_s * t),
                 cmath.exp(1j * t - 0.5 * params.gamma_l * t)])
    # oscillation phase on K_L relative to K_S; amplitudes decay as e^{-G t/2}
    m = v @ d.conj() @ np.linalg.inv(v)
    k_cp = np.linalg.inv(CP_TO_STRANGENESS) @ _quasispin_strangeness(q, cp, "mass")
    w = m.conj().T @ k_cp
    return 2.0 * np.outer(w, w.conj()) - ID2


def cp_eigenvectors(q: Quasispin, t: float, params: MesonParams,
                    q_basis: str = "mass") -> EigenPair:
    """CP-corrected eigenvector pair, components in the CP basis.

    chi1 carries the forward factors e^{-Gamma_i t/2} (K_L also e^{i t}) on
    the overlap amplitudes; chi2 the conjugated amplitudes with inverted
    decay factors.  Both are normalized to unit length and are exactly
    orthogonal for every delta and t.
    """
    amp_s, amp_l, _ = cp_weights(q, params, q_basis)
    gs_half, gl_half = 0.5 * params.gamma_s * t, 0.5 * params.gamma_l * t
    chi1 = np.array([amp_s * math.exp(-gs_half),
                     amp_l * cmath.exp(1j * t - gl_half)])
    weight = float(np.linalg.norm(chi1)) ** 2  # the time-t overlap weight sum
    chi1 = chi1 / math.sqrt(weight)
    chi2 = np.array([-amp_l.conjugate() * math.exp(gs_half),
                     amp_s.conjugate() * cmath.exp(1j * t + gl_half)])
    chi2 = chi2 / np.linalg.norm(chi2)
    return EigenPair(lambda1=2.0 * weight - 1.0,
                     chi1=_canonical_phase(chi1),
                     lambda2=-1.0, chi2=_canonical_phase(chi2), basis="cp")


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

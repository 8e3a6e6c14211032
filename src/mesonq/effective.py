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
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CP_TO_STRANGENESS, ID2, PAULI, MesonParams, Quasispin, cp_basis_data,
    hermitian_eigen, ks_state, kl_state, mass_to_strangeness_matrix,
    _entries, _require_finite,
)

__all__ = [
    "ObservableMatrix", "EigenPair",
    "bloch_vector", "effective_operator", "spectral",
    "effective_operator_cp", "effective_operator_cp_exact",
    "cp_weights", "cp_eigenvectors", "eigenpair_from_matrix",
    "expectation", "bipartite_expectation",
]

_DEGENERACY_TOL = 1e-14
_GAP_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
# -1, sigma_x, sigma_y, sigma_z flattened: (n0, n) @ it is -n0*1 + n.sigma
_BLOCH_BASIS = np.array([-ID2, *PAULI]).reshape(4, 4)


@dataclass(frozen=True, eq=False)
class ObservableMatrix:
    """Effective observable 2|w><w| - 1 = -n0*1 + bloch.sigma, n0 = 1 - |bloch|."""

    matrix: np.ndarray
    bloch: np.ndarray
    amplitudes: np.ndarray
    quasispin: Quasispin
    time: float
    params: MesonParams
    cp_corrected: bool
    basis: str


@dataclass(frozen=True, eq=False)
class EigenPair:
    """Spectral data of an effective observable: lambda2 = -1 always."""

    lambda1: float
    chi1: np.ndarray
    lambda2: float
    chi2: np.ndarray
    degenerate: bool = False
    basis: str = "mass"


def _propagate(amps, t, params: MesonParams) -> np.ndarray:
    """Amplitudes over (K_S, K_L) carried to detection times t >= 0.

    Each picks up its decay factor e^{-Gamma_i t/2}, and the K_L amplitude
    also the oscillation phase e^{i t}.  t is a float or an array of times;
    the result has shape t.shape + (2,), time on the leading axes, and each
    row has the bits of the float result at its time.  This is the checked
    entry: t must be finite and >= 0.  An array t is checked once here and
    handed to _amplitudes_at, which callers holding checked times use
    directly.
    """
    if isinstance(t, (float, int)):
        _require_finite(t=t)
        if t < 0.0:
            raise ValueError("observables live at detection times t >= 0")
        return np.array([amps[0] * math.exp(-0.5 * params.gamma_s * t),
                         amps[1] * cmath.exp(1j * t - 0.5 * params.gamma_l * t)])
    t = np.asarray(t, dtype=float)
    _require_finite(t=t)
    if (t < 0.0).any():
        raise ValueError("observables live at detection times t >= 0")
    return _amplitudes_at(amps, t, params)


def _amplitudes_at(amps, t: np.ndarray, params: MesonParams) -> np.ndarray:
    """_propagate on a float array t already checked finite and >= 0."""
    # numpy's complex exp is libm's exp bit for bit, while its vectorized
    # real exp may differ in the last bit; the products are written out
    # because its vectorized complex multiply fuses ac - bd.  A huge width
    # overflows the exponent to -inf, whose exp is the right amplitude, 0.
    with np.errstate(over="ignore"):
        x = t[..., None] * np.array([-0.5 * params.gamma_s, 1j - 0.5 * params.gamma_l])
    e = np.exp(x)
    a = np.asarray(amps, dtype=complex)
    w = np.empty(e.shape, dtype=complex)
    w.real = a.real * e.real - a.imag * e.imag
    w.imag = a.real * e.imag + a.imag * e.real
    return w


def _rank_one(w: np.ndarray) -> np.ndarray:
    """2|w><w| - 1: the yes/no observable whose "yes" direction is w.

    Acts on the last axis of w, so a stack of amplitudes gives a stack of
    observables.
    """
    return 2.0 * (w[..., :, None] * w.conj()[..., None, :]) - ID2


def _bloch(w: np.ndarray) -> np.ndarray:
    """Bloch data (n0, n1, n2, n3) of 2|w><w| - 1 = -n0*1 + n.sigma.

    Acts on the last axis of w and returns them on the last axis; |n| = |w|^2.
    """
    # array loops also for one w: numpy's scalar abs and complex multiply may
    # differ from them in the last bit, and a float time must give the bits
    # of its grid row
    a_s, a_l = (np.abs(w) ** 2).T
    c = (2.0 * w[..., :1].conjugate() * w[..., 1:]).T[0]
    return np.array([1.0 - (a_s + a_l), c.real, c.imag, a_s - a_l]).T


def _checked_bloch(w: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Bloch vectors n of o = 2|w><w| - 1, each -n0*1 + n.sigma checked against o.

    w and o carry time on their leading axes.
    """
    b = _bloch(w)
    if not (abs(o - (b @ _BLOCH_BASIS).reshape(o.shape)) <= _RESIDUAL_TOL).all():
        raise AssertionError("Bloch vector failed the residual check")
    return b[..., 1:]


def _pair(w: np.ndarray, basis: str) -> EigenPair:
    """Eigenpair of 2|w><w| - 1: w/|w| at 2|w|^2 - 1, (-w_L*, w_S*)/|w| at -1.

    Once |w|^2 falls below the degeneracy tolerance both eigenvalues are -1
    and the standard basis is returned.
    """
    # the sum np.linalg.norm forms, without its dispatch
    norm = math.sqrt(w.real.dot(w.real) + w.imag.dot(w.imag))
    weight = norm * norm
    if weight < _DEGENERACY_TOL:
        return EigenPair(lambda1=-1.0, chi1=np.array([1.0 + 0j, 0.0]),
                         lambda2=-1.0, chi2=np.array([0.0, 1.0 + 0j]),
                         degenerate=True, basis=basis)
    chi2 = np.array([-w[1].conjugate(), w[0].conjugate()])
    return EigenPair(lambda1=2.0 * weight - 1.0, chi1=w / norm, lambda2=-1.0,
                     chi2=chi2 / norm, basis=basis)


def _amplitudes(q: Quasispin, params: MesonParams, cp_corrected: bool):
    """Amplitudes of q over (K_S, K_L): mass basis, or the CP overlaps <K_i|k>."""
    return cp_weights(q, params)[:2] if cp_corrected else q.state_mass()


def bloch_vector(q: Quasispin, t: float | np.ndarray, params: MesonParams,
                 cp_corrected: bool = False) -> np.ndarray:
    """Checked Bloch vectors n of the effective observables of q at times t >= 0.

    t is a float or an array of times, and n has shape t.shape + (3,).  Mass
    basis, or with cp_corrected the observable of effective_operator_cp.  In
    closed form, in the mass basis,
    n = e^{-Gamma t} (cos(t+phi) sin a, sin(t+phi) sin a,
                      sinh(dGamma t) + cosh(dGamma t) cos a), |n| <= 1.
    """
    w = _propagate(_amplitudes(q, params, cp_corrected), t, params)
    return _checked_bloch(w, _rank_one(w))


def _observable(q: Quasispin, t: float, params: MesonParams,
                cp_corrected: bool) -> ObservableMatrix:
    """2|w><w| - 1 of the amplitudes of q propagated to t, with its Bloch data."""
    w = _propagate(_amplitudes(q, params, cp_corrected), t, params)
    return ObservableMatrix(matrix=_rank_one(w), bloch=_bloch(w)[..., 1:], amplitudes=w,
                            quasispin=q, time=t, params=params,
                            cp_corrected=cp_corrected,
                            basis="cp" if cp_corrected else "mass")


def effective_operator(q: Quasispin, t: float, params: MesonParams) -> ObservableMatrix:
    """Effective yes/no observable in the mass basis (CP asymmetry neglected)."""
    return _observable(q, t, params, cp_corrected=False)


def spectral(o: ObservableMatrix) -> EigenPair:
    """Spectral decomposition lambda1 |chi1><chi1| + (-1) |chi2><chi2|.

    chi1 is the forward-propagated quasispin w/|w|; chi2 its orthogonal
    complement, which the paper reads as the backward-in-time partner
    chi(alpha+pi, phi+2t, -t).  Both are read off the amplitudes w of o.
    """
    return _pair(o.amplitudes, o.basis)


@functools.lru_cache(maxsize=8)
def _mass_frame(delta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K_S, K_L and the mass-to-strangeness matrix at one delta, read-only.

    They depend on delta alone, so each is built once per delta.
    """
    cp = cp_basis_data(delta)
    frame = (ks_state(cp), kl_state(cp), mass_to_strangeness_matrix(cp))
    for a in frame:
        a.setflags(write=False)
    return frame


def _quasispin_strangeness(q: Quasispin, delta: float, q_basis: str) -> np.ndarray:
    """Quasispin (alpha, phi) realized as a state in strangeness coordinates."""
    amps = q.state_mass()
    if q_basis == "mass":
        return _mass_frame(delta)[2] @ amps
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
    ks, kl, _ = _mass_frame(params.delta)
    k = _quasispin_strangeness(q, params.delta, q_basis)
    amp_s = complex(np.vdot(ks, k))
    amp_l = complex(np.vdot(kl, k))
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
    return _observable(q, t, params, cp_corrected=True)


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
    v = np.linalg.inv(CP_TO_STRANGENESS) @ _mass_frame(params.delta)[2]
    # oscillation phase on K_L relative to K_S; amplitudes decay as e^{-G t/2}
    d = np.diag(_propagate(np.ones(2), t, params))
    m = v @ d.conj() @ np.linalg.inv(v)
    k_cp = np.linalg.inv(CP_TO_STRANGENESS) @ _quasispin_strangeness(q, params.delta, "mass")
    return _rank_one(m.conj().T @ k_cp)


def cp_eigenvectors(q: Quasispin, t: float, params: MesonParams,
                    q_basis: str = "mass") -> EigenPair:
    """CP-corrected eigenvector pair, components in the CP basis.

    chi1 is the propagated overlap amplitude vector w of cp_weights,
    normalized; chi2 its orthogonal complement, which equals the conjugated
    amplitudes with inverted decay factors.  Both have unit length and are
    exactly orthogonal for every delta and t >= 0; lambda1 = 2|w|^2 - 1.
    """
    return _pair(_propagate(cp_weights(q, params, q_basis)[:2], t, params), "cp")


def eigenpair_from_matrix(m: np.ndarray, basis: str = "mass") -> EigenPair:
    """EigenPair of a generic 2x2 Hermitian operator (descending eigenvalues).

    The pair is flagged degenerate when its gap is at most 1e-12.
    """
    lam, vecs = hermitian_eigen(m)
    return EigenPair(lambda1=float(lam[0]), chi1=vecs[:, 0],
                     lambda2=float(lam[1]), chi2=vecs[:, 1],
                     degenerate=bool(lam[0] - lam[1] <= _GAP_TOL), basis=basis)


def expectation(o: ObservableMatrix, rho0) -> float:
    """Tr(O rho0) = 2 P(yes) - 1 for a t=0 state on the surviving space."""
    rho = _entries(rho0, "state", (2, 2))
    return float(np.trace(o.matrix @ rho).real)


def bipartite_expectation(o1: ObservableMatrix, o2: ObservableMatrix, rho0) -> float:
    """Tr((O1 x O2) rho0) for a t=0 pair state on surviving x surviving."""
    rho = _entries(rho0, "state", (4, 4))
    return float(_pair_expectation(o1.matrix, o2.matrix, rho))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 2x2 matrices on the last two axes, leading axes kept."""
    k = a[..., :, None, :, None] * b[..., None, :, None, :]
    return k.reshape(k.shape[:-4] + (4, 4))


def _pair_expectation(a: np.ndarray, b: np.ndarray, rho4: np.ndarray) -> np.ndarray:
    """Tr((A x B) rho4) for (stacks of) 2x2 matrices A, B and a 4x4 pair state."""
    return np.trace(_kron(a, b) @ rho4, axis1=-2, axis2=-1).real

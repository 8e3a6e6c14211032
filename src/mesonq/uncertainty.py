"""Entropic and Robertson uncertainty machinery for effective observables.

The Maassen-Uffink bound -2 log2 max |<chi_i|chi_j>| over the eigenvector
overlaps of two nondegenerate observables bounds the sum of their outcome
entropies from below for every prepared state.  For decaying systems the
eigenvectors carry the time evolution, so the bound directly quantifies the
information lost between measurements at different times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import MesonParams, Quasispin, _require_finite
from .effective import EigenPair, ObservableMatrix

__all__ = [
    "UncertaintyReport", "binary_entropy", "mu_bound", "eigen_overlap",
    "cp_overlap_ks", "complementary_time", "misid_time",
    "delta_for_equal_times", "bipartite_mu_bound", "robertson_check",
]

SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class UncertaintyReport:
    """Entropic lower bound with the overlap that saturates it."""

    bound: float
    max_overlap: float
    argmax_pair: tuple


def binary_entropy(p: float) -> float:
    """Shannon entropy of a (p, 1-p) coin in bits, with 0 log 0 := 0."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ValueError("probability outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    h = 0.0
    if p > 0.0:
        h -= p * math.log2(p)
    if p < 1.0:
        h -= (1.0 - p) * math.log2(1.0 - p)
    return h


def _max_overlap(pair1: EigenPair, pair2: EigenPair) -> tuple[float, tuple]:
    """Largest |<chi_i|chi_j>| between two eigenvector pairs, with its (i, j).

    Ties within 1e-12 resolve to the lowest (i, j) lexicographically.
    """
    best, arg = -1.0, (1, 1)
    for i, u in enumerate((pair1.chi1, pair1.chi2), start=1):
        for j, v in enumerate((pair2.chi1, pair2.chi2), start=1):
            o = abs(np.vdot(u, v))
            if o > best + 1e-12:
                best, arg = o, (i, j)
    return best, arg


def _report(best: float, arg: tuple) -> UncertaintyReport:
    return UncertaintyReport(bound=max(0.0, -2.0 * math.log2(min(best, 1.0))),
                             max_overlap=best, argmax_pair=arg)


def mu_bound(pair1: EigenPair, pair2: EigenPair) -> UncertaintyReport:
    """Entropic bound between two observables from their eigenvector pairs.

    Ties in the maximal overlap resolve to the lowest (i, j) lexicographically.
    """
    if pair1.basis != pair2.basis:
        raise ValueError("eigenvector pairs must share a basis")
    for pair in (pair1, pair2):
        for chi in (pair.chi1, pair.chi2):
            if not abs(np.linalg.norm(chi) - 1.0) <= 1e-10:
                raise ValueError("eigenvectors must be normalized")
    return _report(*_max_overlap(pair1, pair2))


def eigen_overlap(q_n: Quasispin | tuple, t_n: float, q_m: Quasispin | tuple,
                  t_m: float, params: MesonParams) -> complex:
    """Closed-form overlap <chi(a_n, phi_n, t_n)|chi(a_m, phi_m, t_m)>.

    Accepts raw (alpha, phi) tuples so the backward-in-time arguments
    (alpha+pi, phi+2t, -t) can be fed directly.  Valid for delta = 0.
    Numerator and denominator carry the common factor e^{dGamma (t_n+t_m)},
    which keeps every exponential at most one for t_n, t_m >= 0.
    """
    a_n, p_n = (q_n.alpha, q_n.phi) if isinstance(q_n, Quasispin) else q_n
    a_m, p_m = (q_m.alpha, q_m.phi) if isinstance(q_m, Quasispin) else q_m
    _require_finite(alpha_n=a_n, phi_n=p_n, t_n=t_n,
                    alpha_m=a_m, phi_m=p_m, t_m=t_m)
    dg = params.delta_gamma
    c_n, s_n = math.cos(0.5 * a_n), math.sin(0.5 * a_n)
    c_m, s_m = math.cos(0.5 * a_m), math.sin(0.5 * a_m)
    num = (c_n * c_m * math.exp(dg * (t_n + t_m))
           + s_n * s_m * np.exp(1j * (t_m - t_n + p_m - p_n)))
    den = (math.sqrt(c_n * c_n * math.exp(2.0 * dg * t_n) + s_n * s_n)
           * math.sqrt(c_m * c_m * math.exp(2.0 * dg * t_m) + s_m * s_m))
    return complex(num / den)


def cp_overlap_ks(t_n: float, params: MesonParams) -> float:
    """Overlap of the short-lived question at t_n with the same question at 0.

    |e^{-Gs t/2} + d^2 e^{-i t} e^{-Gl t/2}|
    / sqrt((1 + d^2)(e^{-Gs t} + d^2 e^{-Gl t})), with d the CP asymmetry.
    """
    _require_finite(t_n=t_n)
    d2 = params.delta * params.delta
    num = abs(math.exp(-0.5 * params.gamma_s * t_n)
              + d2 * np.exp(-1j * t_n) * math.exp(-0.5 * params.gamma_l * t_n))
    den = math.sqrt((1.0 + d2) * (math.exp(-params.gamma_s * t_n)
                                  + d2 * math.exp(-params.gamma_l * t_n)))
    return float(num / den)


def _bisect(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("root not bracketed")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def complementary_time(params: MesonParams) -> float:
    """Time at which the short-lived questions at t and at 0 become unbiased.

    Root of cp_overlap_ks(t) = 1/sqrt(2).  Exists only with CP asymmetry and
    distinct widths; without them the overlap never reaches that value.
    """
    if params.delta == 0.0:
        raise ValueError("no complementary time exists for delta = 0")
    if params.gamma_s == params.gamma_l:
        raise ValueError("no complementary time exists for equal widths")

    def f(t):
        return cp_overlap_ks(t, params) - SQRT_HALF

    lo, step = 0.0, 0.05
    t = step
    while t <= 50.0 and f(t) > 0.0:
        lo, t = t, t + step
    if t > 50.0:
        raise ValueError("no complementary time exists in (0, 50]")
    return _bisect(f, lo, t)


def misid_time(params: MesonParams) -> float:
    """Time solving 1 - e^{-Gs t} = e^{-Gl t}.

    Waiting this long after production misidentifies a short-lived state as
    long lived exactly as often as the reverse.
    """
    if params.gamma_s == params.gamma_l:
        raise ValueError("misidentification time undefined for equal widths")

    def f(t):
        return 1.0 - math.exp(-params.gamma_s * t) - math.exp(-params.gamma_l * t)

    # require a clearly positive bracket end: for gamma_l -> 0 the function
    # plateaus at a float-zero and the root runs off to infinity
    hi = 1.0
    while hi <= 100.0 and f(hi) <= 1e-12:
        hi *= 2.0
    if hi > 100.0:
        raise ValueError("misidentification time diverges beyond t = 100")
    return _bisect(f, 0.0, hi)


def delta_for_equal_times(params: MesonParams) -> float:
    """CP asymmetry that would pull the complementary time down to misid_time."""
    target = misid_time(params)

    def f(d):
        return complementary_time(replace(params, delta=d)) - target

    lo = max(abs(params.delta), 1e-6)
    hi = 0.5
    if f(lo) < 0.0 or f(hi) > 0.0:
        raise ValueError("no crossing in (delta, 0.5)")
    return _bisect(f, lo, hi, tol=1e-10)


def bipartite_mu_bound(pair_a1: EigenPair, pair_a2: EigenPair,
                       pair_b1: EigenPair, pair_b2: EigenPair) -> UncertaintyReport:
    """Entropic bound between the product observables A1 x B1 and A2 x B2.

    Product eigenbases factorize, so each of the sixteen candidate overlaps
    is a product of one-sided overlaps and the maximum is the product of the
    two one-sided maxima; argmax_pair is (i, j, k, l), sides A then B.
    """
    best_a, arg_a = _max_overlap(pair_a1, pair_a2)
    best_b, arg_b = _max_overlap(pair_b1, pair_b2)
    return _report(best_a * best_b, arg_a + arg_b)


def robertson_check(o1: ObservableMatrix, o2: ObservableMatrix,
                    psi: np.ndarray) -> tuple[float, float]:
    """Both sides of dO1 * dO2 >= |<psi|[O1, O2]|psi>| / 2."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (2,) or not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise ValueError("psi must be a normalized two-component state")
    m1, m2 = o1.matrix, o2.matrix

    def spread(m):
        mean = np.vdot(psi, m @ psi).real
        mean_sq = np.vdot(psi, m @ m @ psi).real
        return math.sqrt(max(mean_sq - mean * mean, 0.0))

    comm = m1 @ m2 - m2 @ m1
    rhs = 0.5 * abs(np.vdot(psi, comm @ psi))
    return spread(m1) * spread(m2), float(rhs)

"""Entropic and Robertson uncertainty machinery for effective observables.

The Maassen-Uffink bound -2 log2 max |<chi_i|chi_j>| over the eigenvector
overlaps of two nondegenerate observables bounds the sum of their outcome
entropies from below for every prepared state.  For decaying systems the
eigenvectors carry the time evolution, so the bound directly quantifies the
information lost between measurements at different times.

Every effective observable is -n0*1 + n.sigma with eigenvectors at +-n^, so
the largest squared overlap of two is (1 + |n^_A.n^_B|)/2: bloch_mu_bound
gets the bound from stacks of Bloch vectors, and mu_bound on eigenvector
pairs is its independent oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import MesonParams, _require_finite
from .effective import _DEGENERACY_TOL, EigenPair, ObservableMatrix

__all__ = [
    "UncertaintyReport", "mu_bound", "bloch_mu_bound", "cp_overlap_ks",
    "complementary_time", "misid_time", "delta_for_equal_times",
    "bipartite_mu_bound", "robertson_check",
]

SQRT_HALF = 1.0 / math.sqrt(2.0)
_TIE_TOL = 1e-12
_BISECT_TOL = 1e-10
_Z_AXIS = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class UncertaintyReport:
    """Entropic lower bound with the overlap that saturates it."""

    bound: float
    max_overlap: float
    argmax_pair: tuple


def _max_overlap(pair1: EigenPair, pair2: EigenPair) -> tuple[float, tuple]:
    """Largest |<chi_i|chi_j>| between two eigenvector pairs, with its (i, j).

    Ties within 1e-12 resolve to the lowest (i, j) lexicographically.  Raises
    unless both pairs share a basis and every eigenvector is normalized.
    """
    if pair1.basis != pair2.basis:
        raise ValueError("eigenvector pairs must share a basis")
    for pair in (pair1, pair2):
        for chi in (pair.chi1, pair.chi2):
            if not abs(np.linalg.norm(chi) - 1.0) <= 1e-10:
                raise ValueError("eigenvectors must be normalized")
    best, arg = -1.0, (1, 1)
    for i, u in enumerate((pair1.chi1, pair1.chi2), start=1):
        for j, v in enumerate((pair2.chi1, pair2.chi2), start=1):
            o = abs(np.vdot(u, v))
            if o > best + _TIE_TOL:
                best, arg = o, (i, j)
    return best, arg


def _report(best: float, arg: tuple) -> UncertaintyReport:
    return UncertaintyReport(bound=max(0.0, -2.0 * math.log2(min(best, 1.0))),
                             max_overlap=best, argmax_pair=arg)


def mu_bound(pair1: EigenPair, pair2: EigenPair) -> UncertaintyReport:
    """Entropic bound between two observables from their eigenvector pairs.

    Ties in the maximal overlap resolve to the lowest (i, j) lexicographically.
    """
    return _report(*_max_overlap(pair1, pair2))


def bloch_mu_bound(n_a: np.ndarray, n_b: np.ndarray):
    """(bound, max_overlap, argmax_j) of mu_bound for each row of Bloch vectors.

    n_a and n_b hold Bloch vectors on their last axis and broadcast.  With unit
    axes a, b (+z below |n| = 1e-14, as in spectral) and d = a.b, the smaller
    squared overlap s^2 = |a x b|^2 / (2 (1 + |d|)) is min(|a - b|^2, |a + b|^2)/4,
    free of cancellation, and the bound is -log2(1 - s^2).  argmax_i is 1;
    argmax_j is 2 only where d < 0 and (1, 2) beats (1, 1) by over 1e-12.
    """
    n = np.array(np.broadcast_arrays(n_a, n_b))
    length = np.sqrt((n * n).sum(axis=-1, keepdims=True))
    short = length < _DEGENERACY_TOL
    a, b = np.where(short, _Z_AXIS, n / np.where(short, 1.0, length))
    plus, minus = ((a + b) ** 2).sum(axis=-1), ((a - b) ** 2).sum(axis=-1)
    s2 = 0.25 * np.minimum(plus, minus)
    best = np.sqrt(1.0 - s2)
    argmax_j = np.where((plus < minus) & (best > np.sqrt(s2) + _TIE_TOL), 2, 1)
    return -np.log1p(-s2) / math.log(2.0), best, argmax_j


def cp_overlap_ks(t_n: float, params: MesonParams) -> float:
    """Overlap of the short-lived question at t_n with the same question at 0.

    |e^{-Gs t/2} + d^2 e^{-i t} e^{-Gl t/2}|
    / sqrt((1 + d^2)(e^{-Gs t} + d^2 e^{-Gl t})), with d the CP asymmetry.
    The terms u = e^{-Gs t/2} and v = |d| e^{-Gl t/2} are divided by the
    larger one, which cancels and keeps the ratio finite at every time.
    """
    _require_finite(t_n=t_n)
    d = abs(params.delta)
    r = math.exp(params.delta_gamma * t_n)  # |d| u / v
    u, v = (1.0, d / r if d else 0.0) if r >= d else (r / d, 1.0)
    num = abs(u + d * v * cmath.exp(-1j * t_n))
    return num / (math.sqrt(1.0 + d * d) * math.hypot(u, v))


def _bisect(f, lo: float, hi: float) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("root not bracketed")
    while hi - lo > _BISECT_TOL:
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
    """CP asymmetry that would pull the complementary time down to misid_time.

    At t = misid_time, cp_overlap_ks(t) = 1/sqrt(2) is the quadratic
    E^2 d^4 - B d^2 + 1 = 0 with E = e^{-dGamma t} and B = 1 + E^2 - 4E cos t,
    so delta* depends on the widths alone.  It is the smaller root,
    d^2 = 2/(B + sqrt(B^2 - 4E^2)), and it counts only where t is the first
    crossing: the complementary time at delta* must be t to within 1e-9.
    """
    t = misid_time(params)
    e = math.exp(-params.delta_gamma * t)
    b = 1.0 + e * e - 4.0 * e * math.cos(t)
    if b >= 2.0 * e:
        d_star = math.sqrt(2.0 / (b + math.sqrt(b * b - 4.0 * e * e)))
        if abs(params.delta) < d_star < 0.5 and abs(
                complementary_time(replace(params, delta=d_star)) - t) <= 1e-9:
            return d_star
    raise ValueError("no crossing in (delta, 0.5)")


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

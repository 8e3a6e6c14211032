import cmath
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesonq import (
    KL_DIRECTION, KS_DIRECTION, MesonParams, Quasispin,
    bmeson_defaults, kaon_defaults, bipartite_mu_bound, bloch_mu_bound,
    complementary_time, cp_eigenvectors, cp_overlap_ks,
    delta_for_equal_times, effective_operator, effective_operator_cp,
    misid_time, mu_bound, robertson_check, spectral,
)
from mesonq.core import PAULI
from mesonq.effective import EigenPair, eigenpair_from_matrix

from conftest import random_pure_state

SQRT_HALF = 1.0 / math.sqrt(2.0)

STRANGENESS = Quasispin(math.pi / 2, 0.0)


# Test-local references: the Shannon entropy of a yes/no outcome, for the
# Maassen-Uffink relation, and the paper's closed-form eigenvector overlap,
# against which spectral and cp_overlap_ks are checked.

def binary_entropy(p):
    """Shannon entropy of a (p, 1-p) coin in bits, with 0 log 0 := 0."""
    p = min(max(p, 0.0), 1.0)
    h = 0.0
    if p > 0.0:
        h -= p * math.log2(p)
    if p < 1.0:
        h -= (1.0 - p) * math.log2(1.0 - p)
    return h


def _side_terms(alpha, t, dg):
    """(cos(a/2) e^{dGamma t}, sin(a/2)) divided by the larger in size.

    The decay factor goes on the cosine term where it is at most one
    (t >= 0) and its inverse on the sine term otherwise, so neither
    overflows.  Where the K_S term of a pure K_S question underflows, the
    pair is its limit (+-1, 0).
    """
    c, s = math.cos(0.5 * alpha), math.sin(0.5 * alpha)
    if dg * t <= 0.0:
        c *= math.exp(dg * t)
    else:
        s *= math.exp(-dg * t)
    big = max(abs(c), abs(s))
    if big == 0.0:
        return math.copysign(1.0, c), 0.0
    return c / big, s / big


def eigen_overlap(q_n, t_n, q_m, t_m, params):
    """Closed-form overlap <chi(a_n, phi_n, t_n)|chi(a_m, phi_m, t_m)>.

    Accepts raw (alpha, phi) tuples so the backward-in-time arguments
    (alpha+pi, phi+2t, -t) can be fed directly.  Valid for delta = 0.
    Each side's two terms are divided by the larger one, which cancels
    between numerator and denominator and keeps both finite at every time.
    """
    a_n, p_n = (q_n.alpha, q_n.phi) if isinstance(q_n, Quasispin) else q_n
    a_m, p_m = (q_m.alpha, q_m.phi) if isinstance(q_m, Quasispin) else q_m
    dg = params.delta_gamma
    c_n, s_n = _side_terms(a_n, t_n, dg)
    c_m, s_m = _side_terms(a_m, t_m, dg)
    num = c_n * c_m + s_n * s_m * cmath.exp(1j * (t_m - t_n + p_m - p_n))
    return num / (math.hypot(c_n, s_n) * math.hypot(c_m, s_m))


class TestBinaryEntropy:
    def test_half_is_one_bit(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_vanish(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_near_half_bit_point(self):
        want = -0.11 * math.log2(0.11) - 0.89 * math.log2(0.89)
        assert binary_entropy(0.11) == pytest.approx(want, abs=1e-15)
        assert binary_entropy(0.11) == pytest.approx(0.49991596, abs=1e-6)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, p):
        assert 0.0 <= binary_entropy(p) <= 1.0


class TestMuBound:
    def test_identical_observables(self, kaon):
        pair = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        rep = mu_bound(pair, pair)
        assert rep.bound == 0.0
        assert rep.max_overlap == pytest.approx(1.0, abs=1e-12)
        assert rep.argmax_pair == (1, 1)

    def test_strangeness_vs_lifetime_at_zero(self, kaon):
        a = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        b = spectral(effective_operator(KS_DIRECTION, 0.0, kaon))
        rep = mu_bound(a, b)
        assert rep.max_overlap == pytest.approx(SQRT_HALF, abs=1e-12)
        assert rep.bound == pytest.approx(1.0, abs=1e-12)

    def test_equal_width_quarter_period(self, stable):
        a = spectral(effective_operator(STRANGENESS, 0.0, stable))
        b = spectral(effective_operator(STRANGENESS, math.pi / 2, stable))
        rep = mu_bound(a, b)
        assert rep.bound == pytest.approx(1.0, abs=1e-12)
        # cross-check against the closed-form overlap
        o = abs(eigen_overlap(STRANGENESS, math.pi / 2, STRANGENESS, 0.0, stable))
        assert rep.max_overlap == pytest.approx(o, abs=1e-12)

    def test_rejects_unnormalized(self, kaon):
        pair = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        bad = EigenPair(lambda1=1.0, chi1=2.0 * pair.chi1, lambda2=-1.0,
                        chi2=pair.chi2)
        with pytest.raises(ValueError, match="normalized"):
            mu_bound(bad, pair)
        nan = EigenPair(lambda1=1.0, chi1=np.full(2, math.nan), lambda2=-1.0,
                        chi2=pair.chi2)
        with pytest.raises(ValueError, match="normalized"):
            mu_bound(pair, nan)

    def test_rejects_mixed_bases(self, kaon):
        a = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        b = cp_eigenvectors(STRANGENESS, 0.0, kaon)
        with pytest.raises(ValueError, match="basis"):
            mu_bound(a, b)

    def test_entropic_inequality(self, kaon, rng):
        # H(O1) + H(O2) >= bound for every pure state
        for _ in range(500):
            q1 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t1, t2 = rng.uniform(0, 3, 2)
            p1 = spectral(effective_operator(q1, float(t1), kaon))
            p2 = spectral(effective_operator(q2, float(t2), kaon))
            psi = random_pure_state(rng)
            h = (binary_entropy(abs(np.vdot(p1.chi1, psi)) ** 2)
                 + binary_entropy(abs(np.vdot(p2.chi1, psi)) ** 2))
            assert h >= mu_bound(p1, p2).bound - 1e-12

    def test_two_dim_bound_never_exceeds_one_bit(self, kaon, rng):
        for _ in range(50):
            q1 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            rep = mu_bound(spectral(effective_operator(q1, rng.uniform(0, 3), kaon)),
                           spectral(effective_operator(q2, rng.uniform(0, 3), kaon)))
            assert rep.max_overlap >= SQRT_HALF - 1e-12
            assert rep.bound <= 1.0 + 1e-12


class TestEigenOverlap:
    def test_identical_arguments(self, kaon):
        # from t = 400 on, e^{-dGamma (t_n + t_m)} alone leaves the float range
        for q, t in ((STRANGENESS, 1.0), (Quasispin(1.0, 0.3), 400.0),
                     (Quasispin(1.0, 0.3), 2000.0)):
            o = eigen_overlap(q, t, q, t, kaon)
            assert o == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [340.0, 360.0, 2000.0])
    @pytest.mark.parametrize("q", [KS_DIRECTION, KL_DIRECTION],
                             ids=["alpha0", "alphapi"])
    def test_pure_lifetime_questions_at_long_times(self, kaon, q, t):
        # the K_S term underflows from t ~ 338 on; a pure question still
        # overlaps itself fully, and its t = 0 form up to a phase
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            same = eigen_overlap(q, t, q, t, kaon)
            start = eigen_overlap(q, t, q, 0.0, kaon)
        assert same == pytest.approx(1.0, abs=1e-12)
        assert abs(start) == pytest.approx(1.0, abs=1e-12)

    @given(alpha_n=st.floats(0.0, math.pi), phi_n=st.floats(0.0, 2 * math.pi),
           alpha_m=st.floats(0.0, math.pi), phi_m=st.floats(0.0, 2 * math.pi),
           t_n=st.floats(0.0, 2000.0), t_m=st.floats(0.0, 2000.0))
    @settings(max_examples=300, deadline=None)
    def test_bounded_over_long_times(self, alpha_n, phi_n, alpha_m, phi_m,
                                     t_n, t_m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            o = eigen_overlap((alpha_n, phi_n), t_n, (alpha_m, phi_m), t_m,
                              kaon_defaults())
        assert math.isfinite(o.real) and math.isfinite(o.imag)
        assert abs(o) <= 1.0 + 1e-12

    def test_equal_width_cosine_law(self, stable):
        for t in (0.3, 1.0, 2.5, math.pi):
            o = eigen_overlap(STRANGENESS, 0.0, STRANGENESS, t, stable)
            assert abs(o) == pytest.approx(abs(math.cos(0.5 * t)), abs=1e-12)

    def test_matches_spectral_inner_products(self, kaon, rng):
        for _ in range(40):
            q1 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t1, t2 = rng.uniform(0, 4, 2)
            c1 = spectral(effective_operator(q1, float(t1), kaon)).chi1
            c2 = spectral(effective_operator(q2, float(t2), kaon)).chi1
            direct = abs(np.vdot(c1, c2))
            closed = abs(eigen_overlap(q1, float(t1), q2, float(t2), kaon))
            assert closed == pytest.approx(direct, abs=1e-10)

    def test_kaon_specific_value(self, kaon):
        got = abs(eigen_overlap(STRANGENESS, 0.0, STRANGENESS, 1.0, kaon))
        c1 = spectral(effective_operator(STRANGENESS, 0.0, kaon)).chi1
        c2 = spectral(effective_operator(STRANGENESS, 1.0, kaon)).chi1
        assert got == pytest.approx(abs(np.vdot(c1, c2)), abs=1e-10)

    def test_magnitude_bounded(self, kaon, rng):
        # includes the backward-in-time argument pattern (a+pi, phi+2t, -t)
        for _ in range(100):
            a1, a2 = rng.uniform(0, 2 * math.pi, 2)
            p1, p2 = rng.uniform(0, 4 * math.pi, 2)
            t1, t2 = rng.uniform(-3, 5, 2)
            o = eigen_overlap((a1, p1), float(t1), (a2, p2), float(t2), kaon)
            assert abs(o) <= 1.0 + 1e-12


class TestCpOverlap:
    def test_non_finite_input_rejected(self, kaon):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t_n must be finite"):
                cp_overlap_ks(bad, kaon)

    def test_starts_at_one(self, kaon):
        assert cp_overlap_ks(0.0, kaon) == pytest.approx(1.0, abs=1e-14)

    def test_long_time_limit(self, kaon):
        d = kaon.delta
        assert cp_overlap_ks(60.0, kaon) == pytest.approx(
            d / math.sqrt(1.0 + d * d), rel=1e-9)

    @pytest.mark.parametrize("t", [340.0, 345.0, 354.0, 706.0, 2000.0])
    def test_finite_at_long_times(self, kaon, t):
        # the K_L term dominates: the overlap sits at its d / sqrt(1 + d^2)
        # limit, and at delta = 0 the question stays the same one
        d = kaon.delta
        plain = MesonParams(kaon.gamma_s, kaon.gamma_l, 0.0, "plain")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cp_overlap_ks(t, kaon) == pytest.approx(
                d / math.sqrt(1.0 + d * d), rel=1e-12)
            assert cp_overlap_ks(t, plain) == pytest.approx(1.0, abs=1e-15)

    def test_near_unbiased_at_published_time(self, kaon):
        assert abs(cp_overlap_ks(5.40, kaon) - SQRT_HALF) < 0.01

    def test_zero_delta_reduces_to_plain_overlap(self, kaon):
        plain = MesonParams(kaon.gamma_s, kaon.gamma_l, 0.0, "plain")
        for t in (0.0, 0.7, 2.0, 6.0):
            want = abs(eigen_overlap(KS_DIRECTION, t, KS_DIRECTION, 0.0, plain))
            assert cp_overlap_ks(t, plain) == pytest.approx(want, abs=1e-12)

    def test_matches_cp_eigenvector_inner_product(self, kaon):
        for t in (0.5, 2.0, 5.0, 5.42):
            a = cp_eigenvectors(KS_DIRECTION, t, kaon).chi1
            b = cp_eigenvectors(KS_DIRECTION, 0.0, kaon).chi1
            assert cp_overlap_ks(t, kaon) == pytest.approx(abs(np.vdot(a, b)),
                                                           abs=5e-11)


class TestComplementaryTime:
    def test_kaon_value(self, kaon):
        t = complementary_time(kaon)
        assert abs(t * kaon.gamma_s - 11.4) < 0.2
        assert abs(t - 5.40) < 0.10
        assert cp_overlap_ks(t, kaon) == pytest.approx(SQRT_HALF, abs=1e-9)

    def test_doubling_delta_shifts_by_log_two(self, kaon):
        double = MesonParams(kaon.gamma_s, kaon.gamma_l, 2 * kaon.delta, "double")
        shift = complementary_time(kaon) - complementary_time(double)
        want = 2.0 * math.log(2.0) / (kaon.gamma_s - kaon.gamma_l)
        assert abs(shift - want) < 0.02

    def test_no_root_without_cp_violation(self, kaon):
        plain = MesonParams(kaon.gamma_s, kaon.gamma_l, 0.0, "plain")
        with pytest.raises(ValueError, match="no complementary time"):
            complementary_time(plain)

    def test_no_root_for_equal_widths(self):
        eq = MesonParams(1.0, 1.0, 3.322e-3, "eq")
        with pytest.raises(ValueError, match="no complementary time"):
            complementary_time(eq)


class TestMisidTime:
    def test_kaon_value(self, kaon):
        t = misid_time(kaon)
        assert abs(t * kaon.gamma_s - 4.8) < 0.1

    def test_golden_ratio_case(self):
        # 1 - e^{-2t} = e^{-t}  =>  e^{-t} = (sqrt(5)-1)/2
        p = MesonParams(2.0, 1.0, 0.0, "toy")
        want = math.log(2.0 / (math.sqrt(5.0) - 1.0))
        assert misid_time(p) == pytest.approx(want, abs=1e-9)

    def test_divergence_for_stable_partner(self):
        p = MesonParams(2.0, 0.0, 0.0, "onesided")
        with pytest.raises(ValueError, match="diverges"):
            misid_time(p)

    def test_equal_widths_rejected(self, bmeson):
        with pytest.raises(ValueError):
            misid_time(bmeson)


class TestDeltaForEqualTimes:
    def test_ratio_near_twenty_five(self, kaon):
        d_star = delta_for_equal_times(kaon)
        ratio = d_star / kaon.delta
        assert 20.0 <= ratio <= 30.0

    def test_defining_equation(self, kaon):
        d_star = delta_for_equal_times(kaon)
        boosted = MesonParams(kaon.gamma_s, kaon.gamma_l, d_star, "boosted")
        assert cp_overlap_ks(misid_time(kaon), boosted) == pytest.approx(
            SQRT_HALF, abs=1e-9)

    def test_leading_order_estimate(self, kaon):
        d_star = delta_for_equal_times(kaon)
        estimate = math.exp(-misid_time(kaon) * (kaon.gamma_s - kaon.gamma_l) / 2.0)
        assert abs(estimate - d_star) / d_star < 0.15

    def test_independent_of_preset_delta(self, kaon):
        # delta* is a root of the overlap at misid_time, which the widths fix
        d_star = delta_for_equal_times(kaon)
        for delta in (1e-4, 3.322e-3, 0.01, -0.01):
            assert delta_for_equal_times(replace(kaon, delta=delta)) == d_star

    @pytest.mark.parametrize("params", [MesonParams(1.0, 0.5, 0.003),
                                        MesonParams(2.0, 1.0, 0.003)])
    def test_no_crossing(self, params):
        with pytest.raises(ValueError, match="no crossing"):
            delta_for_equal_times(params)


class TestBipartiteMuBound:
    @pytest.mark.parametrize("side", ["a", "b"])
    @pytest.mark.parametrize("case", ["unnormalized", "nan", "mixed-bases"])
    def test_rejects_what_mu_bound_rejects(self, kaon, case, side):
        pair = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        p1, p2, match = {
            "unnormalized": (EigenPair(lambda1=1.0, chi1=2.0 * pair.chi1,
                                       lambda2=-1.0, chi2=pair.chi2),
                             pair, "normalized"),
            "nan": (pair, EigenPair(lambda1=1.0, chi1=np.full(2, math.nan),
                                    lambda2=-1.0, chi2=pair.chi2), "normalized"),
            "mixed-bases": (pair, cp_eigenvectors(STRANGENESS, 0.0, kaon), "basis"),
        }[case]
        with pytest.raises(ValueError, match=match):
            mu_bound(p1, p2)
        with pytest.raises(ValueError, match=match):
            bipartite_mu_bound(*((p1, p2, pair, pair) if side == "a"
                                 else (pair, pair, p1, p2)))

    def test_identical_products(self, kaon):
        a = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        b = spectral(effective_operator(STRANGENESS, 1.0, kaon))
        rep = bipartite_mu_bound(a, a, b, b)
        assert rep.bound == 0.0

    def test_unbiased_times_identical(self, kaon):
        mub_1 = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        mub_2 = spectral(effective_operator(KS_DIRECTION, 0.0, kaon))
        same = spectral(effective_operator(KL_DIRECTION, 0.0, kaon))
        rep = bipartite_mu_bound(mub_1, mub_2, same, same)
        assert rep.bound == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_oracle(self, kaon):
        # product observables at t = 1: exhaustive enumeration of the sixteen
        # overlap products is the reference
        t = 1.0
        a1 = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        b1 = spectral(effective_operator(STRANGENESS, t, kaon))
        a2 = spectral(effective_operator(STRANGENESS, t / 2, kaon))
        b2 = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        rep = bipartite_mu_bound(a1, a2, b1, b2)
        best = 0.0
        for u in (a1.chi1, a1.chi2):
            for v in (a2.chi1, a2.chi2):
                for w in (b1.chi1, b1.chi2):
                    for x in (b2.chi1, b2.chi2):
                        best = max(best, abs(np.vdot(u, v)) * abs(np.vdot(w, x)))
        assert rep.max_overlap == pytest.approx(best, abs=1e-12)
        assert rep.bound == pytest.approx(-2.0 * math.log2(best), abs=1e-10)

    def test_factorizes_into_single_maxima(self, kaon, rng):
        def exhaustive(pairs):
            # all sixteen overlap products in lexicographic (i, j, k, l)
            # order; a later product must win by more than 1e-12
            best, arg = -1.0, None
            for idx in itertools.product((1, 2), repeat=4):
                u_a, v_a, u_b, v_b = ((p.chi1, p.chi2)[i - 1]
                                      for p, i in zip(pairs, idx))
                o = abs(np.vdot(u_a, v_a)) * abs(np.vdot(u_b, v_b))
                if o > best + 1e-12:
                    best, arg = o, idx
            return best, arg

        cases = []
        for _ in range(20):
            qs = [Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                  for _ in range(4)]
            cases.append([spectral(effective_operator(q, rng.uniform(0, 2), kaon))
                          for q in qs])
        # exact ties: four identical t = 0 pairs, and the figure 3a/3b
        # products (a1, a2, b1, b2) = (0, t1, t, 0) and (0, 0, t, t1), whose
        # four pairs coincide at t = 0
        for q in (STRANGENESS, KS_DIRECTION, Quasispin(1.0, 0.4)):
            cases.append([spectral(effective_operator(q, 0.0, kaon))] * 4)
        pair_0 = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        for t in (0.0, 0.02, 1.0):
            pair_t = spectral(effective_operator(STRANGENESS, t, kaon))
            for j in range(5):
                pair_t1 = spectral(effective_operator(STRANGENESS, 0.25 * j * t, kaon))
                cases.append([pair_0, pair_t1, pair_t, pair_0])
                cases.append([pair_0, pair_0, pair_t, pair_t1])
        for pairs in cases:
            rep = bipartite_mu_bound(*pairs)
            side_a = mu_bound(pairs[0], pairs[1])
            side_b = mu_bound(pairs[2], pairs[3])
            assert rep.max_overlap == side_a.max_overlap * side_b.max_overlap
            assert (rep.max_overlap, rep.argmax_pair) == exhaustive(pairs)


class TestRobertson:
    def test_self_commutator(self, kaon):
        o = effective_operator(STRANGENESS, 1.0, kaon)
        lhs, rhs = robertson_check(o, o, np.array([1.0, 0.0]))
        assert rhs == 0.0
        assert lhs >= 0.0

    def test_eigenstate_case(self, kaon):
        # sigma_x vs sigma_z probed in a sigma_z eigenstate: both sides vanish
        o_x = effective_operator(STRANGENESS, 0.0, kaon)
        o_z = effective_operator(KS_DIRECTION, 0.0, kaon)
        lhs, rhs = robertson_check(o_z, o_x, np.array([1.0, 0.0]))
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_inequality_random_sweep(self, kaon, rng):
        for _ in range(200):
            q1 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            o1 = effective_operator(q1, rng.uniform(0, 3), kaon)
            o2 = effective_operator(q2, rng.uniform(0, 3), kaon)
            lhs, rhs = robertson_check(o1, o2, random_pure_state(rng))
            assert lhs >= rhs - 1e-12

    def test_rejects_unnormalized_state(self, kaon):
        o = effective_operator(STRANGENESS, 0.0, kaon)
        with pytest.raises(ValueError):
            robertson_check(o, o, np.array([1.0, 1.0]))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                robertson_check(o, o, np.array([bad, 0.0]))


class TestBoundStructure:
    def test_equal_width_strangeness_curve(self, stable):
        fixed = spectral(effective_operator(STRANGENESS, 0.0, stable))
        for t in np.arange(0.0, 10.0, 0.1):
            moving = spectral(effective_operator(STRANGENESS, float(t), stable))
            got = mu_bound(moving, fixed).bound
            want = -2.0 * math.log2(max(abs(math.cos(0.5 * t)),
                                        abs(math.sin(0.5 * t))))
            assert abs(got - max(want, 0.0)) < 1e-10

    def test_zeros_at_multiples_of_pi(self, stable):
        fixed = spectral(effective_operator(STRANGENESS, 0.0, stable))
        for k in (1, 2, 3):
            moving = spectral(effective_operator(STRANGENESS, k * math.pi, stable))
            assert mu_bound(moving, fixed).bound < 1e-12

    def test_maximal_at_odd_quarter_periods(self, stable):
        fixed = spectral(effective_operator(STRANGENESS, 0.0, stable))
        for t in (math.pi / 2, 3 * math.pi / 2):
            moving = spectral(effective_operator(STRANGENESS, t, stable))
            assert mu_bound(moving, fixed).bound == pytest.approx(1.0, abs=1e-12)

    def test_kaon_never_recovers_full_information(self, kaon):
        fixed = spectral(effective_operator(STRANGENESS, 0.0, kaon))
        for t in np.arange(0.01, 10.0, 0.05):
            moving = spectral(effective_operator(STRANGENESS, float(t), kaon))
            assert mu_bound(moving, fixed).bound > 0.0


def eigh_pair(o):
    """hermitian_eigen eigenpair of n.sigma/|n|, the scaled traceless part of o.

    It has the eigenvectors of o.matrix, whose entries hold the identity
    part -n0 only to 1e-16 absolute: eigh on o.matrix would lose digits of
    the direction where |n| is small.  Below |n| = 1e-14 it is the standard
    basis, as for spectral.
    """
    length = np.linalg.norm(o.bloch)
    n = o.bloch / length if length >= 1e-14 else (0.0, 0.0, 1.0)
    return eigenpair_from_matrix(np.tensordot(n, np.array(PAULI), axes=1),
                                 o.basis)


# times in [0, 2000] dm, with a share of short times where decay has not yet
# shrunk the Bloch vectors to nothing
TIMES = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 2000.0))


class TestBlochForm:
    @given(params=st.sampled_from([kaon_defaults(), bmeson_defaults()]),
           cp=st.booleans(),
           alpha_a=st.floats(0.0, math.pi), phi_a=st.floats(0.0, 2 * math.pi),
           alpha_b=st.floats(0.0, math.pi), phi_b=st.floats(0.0, 2 * math.pi),
           t_a=TIMES, t_b=TIMES)
    @settings(max_examples=150, deadline=None)
    def test_matches_mu_bound_on_eigenpairs(self, params, cp, alpha_a, phi_a,
                                            alpha_b, phi_b, t_a, t_b):
        build = effective_operator_cp if cp else effective_operator
        o_a = build(Quasispin(alpha_a, phi_a), t_a, params)
        o_b = build(Quasispin(alpha_b, phi_b), t_b, params)
        bound, best, argmax_j = bloch_mu_bound(o_a.bloch, o_b.bloch)
        pair_a, pair_b = eigh_pair(o_a), eigh_pair(o_b)
        # |<chi1|chi1>|^2 = (1 + d)/2, with d the product of the unit axes
        d = 2.0 * abs(np.vdot(pair_a.chi1, pair_b.chi1)) ** 2 - 1.0
        for rep in (mu_bound(pair_a, pair_b),
                    mu_bound(spectral(o_a), spectral(o_b))):
            assert abs(bound - rep.bound) <= 1e-11
            assert abs(best - rep.max_overlap) <= 1e-11
            if abs(d) > 1e-9:
                assert rep.argmax_pair == (1, int(argmax_j))

    def test_stacks_broadcast_row_by_row(self, kaon):
        ops = [effective_operator(Quasispin(0.3 * k, 0.7 * k), 0.5 * k, kaon)
               for k in range(6)]
        n = np.array([o.bloch for o in ops])
        bound, best, argmax_j = bloch_mu_bound(n[:, None], n[None, :])
        assert bound.shape == best.shape == argmax_j.shape == (6, 6)
        for i, j in itertools.product(range(6), repeat=2):
            rep = mu_bound(spectral(ops[i]), spectral(ops[j]))
            assert abs(bound[i, j] - rep.bound) <= 1e-12
            assert abs(best[i, j] - rep.max_overlap) <= 1e-12

    def test_short_vectors_take_the_z_axis(self):
        bound, best, argmax_j = bloch_mu_bound(
            np.array([[0.0, 0.0, 0.0], [5e-15, 0.0, 0.0], [0.0, 0.0, -1e-15]]),
            np.array([1.0, 0.0, 0.0]))
        assert np.allclose(bound, 1.0, atol=1e-15)
        assert (argmax_j == 1).all()
        bound, best, argmax_j = bloch_mu_bound(np.zeros(3), (0.0, 0.0, -0.5))
        assert (bound, best, argmax_j) == (0.0, 1.0, 2)

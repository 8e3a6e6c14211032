import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesonq import (
    KL_DIRECTION, KS_DIRECTION, MesonParams, Quasispin, binary_entropy,
    bipartite_mu_bound, complementary_time, cp_eigenvectors, cp_overlap_ks,
    delta_for_equal_times, effective_operator, eigen_overlap, misid_time,
    mu_bound, robertson_check, spectral,
)
from mesonq.effective import EigenPair

from conftest import random_pure_state

SQRT_HALF = 1.0 / math.sqrt(2.0)

STRANGENESS = Quasispin(math.pi / 2, 0.0)


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

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)
        with pytest.raises(ValueError):
            binary_entropy(math.nan)

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

    def test_non_finite_input_rejected(self, kaon):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t_n must be finite"):
                eigen_overlap(STRANGENESS, bad, STRANGENESS, 1.0, kaon)
            with pytest.raises(ValueError, match="t_m must be finite"):
                eigen_overlap(STRANGENESS, 1.0, STRANGENESS, bad, kaon)
            with pytest.raises(ValueError, match="alpha_n must be finite"):
                eigen_overlap((bad, 0.0), 1.0, STRANGENESS, 1.0, kaon)
            with pytest.raises(ValueError, match="t_n must be finite"):
                cp_overlap_ks(bad, kaon)

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
    def test_starts_at_one(self, kaon):
        assert cp_overlap_ks(0.0, kaon) == pytest.approx(1.0, abs=1e-14)

    def test_long_time_limit(self, kaon):
        d = kaon.delta
        assert cp_overlap_ks(60.0, kaon) == pytest.approx(
            d / math.sqrt(1.0 + d * d), rel=1e-9)

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


class TestBipartiteMuBound:
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

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesonq import (
    KS_DIRECTION, MesonParams, Quasispin, bipartite_expectation,
    bloch_vector, bmeson_defaults, cp_eigenvectors, cp_weights,
    effective_operator, effective_operator_cp, expectation, hermitian_eigen,
    joint_probabilities, kaon_defaults, singlet_state, spectral,
)
from mesonq.core import PAULI_X, PAULI_Z
from mesonq.effective import (
    ObservableMatrix, _mass_frame, _propagate, effective_operator_cp_exact,
    eigenpair_from_matrix,
)
from mesonq.evolution import (
    evolve_single_closed, quasispin_projector4, surviving_pair,
)

from conftest import cp_basis_weights, random_density


# Test-local forms of the paper's formulas; the library builds every
# observable from the propagated amplitudes instead.

def _trig_bloch(q, t, params):
    """n = e^{-Gamma t} (cos(t+phi) sin a, sin(t+phi) sin a,
    sinh(dGamma t) + cosh(dGamma t) cos a)."""
    a, phi, dg = q.alpha, q.phi, params.delta_gamma
    return math.exp(-params.gamma_mean * t) * np.array([
        math.cos(t + phi) * math.sin(a),
        math.sin(t + phi) * math.sin(a),
        math.sinh(dg * t) + math.cosh(dg * t) * math.cos(a),
    ])


def _cp_polynomial_bloch(q, t, params):
    """Plain Bloch vector plus the paper's delta-polynomial CP corrections."""
    a, phi, d = q.alpha, q.phi, params.delta
    damp = math.exp(-params.gamma_mean * t)
    es, el = math.exp(-params.gamma_s * t), math.exp(-params.gamma_l * t)
    return _trig_bloch(q, t, params) + np.array([
        damp * (2.0 * d * math.cos(t) + d * d * math.sin(a) * math.cos(t - phi)),
        damp * (2.0 * d * math.sin(t) + d * d * math.sin(a) * math.sin(t - phi)),
        d * (es - el) * math.sin(a) * math.cos(phi)
        + 0.5 * d * d * (es - el - (es + el) * math.cos(a)),
    ])


def _backward_chi(alpha, phi, t, params):
    """Quasispin (raw angles) propagated by t, which may be negative, normalized."""
    v = np.array([
        math.cos(0.5 * alpha) * math.exp(-0.5 * params.gamma_s * t),
        math.sin(0.5 * alpha) * cmath.exp(1j * (t + phi))
        * math.exp(-0.5 * params.gamma_l * t),
    ])
    return v / np.linalg.norm(v)


def _n0(q, t, params):
    """n0 of -n0*1 + n.sigma, read as -Tr(O)/2."""
    return -0.5 * np.trace(effective_operator(q, t, params).matrix).real


class TestBlochVector:
    def test_short_lived_direction_at_zero(self, kaon):
        n = bloch_vector(Quasispin(0.0, 0.0), 0.0, kaon)
        assert np.allclose(n, [0.0, 0.0, 1.0])
        assert _n0(Quasispin(0.0, 0.0), 0.0, kaon) == pytest.approx(0.0, abs=1e-15)

    def test_strangeness_direction_at_zero(self, kaon):
        q = Quasispin(math.pi / 2, 0.0)
        n = bloch_vector(q, 0.0, kaon)
        assert np.allclose(n, [1.0, 0.0, 0.0])
        assert _n0(q, 0.0, kaon) == pytest.approx(0.0, abs=1e-15)

    def test_kaon_at_t1(self, kaon):
        n = bloch_vector(Quasispin(math.pi / 2, 0.0), 1.0, kaon)
        n0 = _n0(Quasispin(math.pi / 2, 0.0), 1.0, kaon)
        damp = math.exp(-kaon.gamma_mean)
        assert n[0] == pytest.approx(damp * math.cos(1.0), abs=1e-15)
        assert n[1] == pytest.approx(damp * math.sin(1.0), abs=1e-15)
        assert n[2] == pytest.approx(damp * math.sinh(kaon.delta_gamma), abs=1e-15)
        assert n0 == pytest.approx(1.0 - np.linalg.norm(n), abs=1e-15)

    def test_length_is_sum_of_survival_probabilities(self, kaon, rng):
        # |n| = cos^2(a/2) e^{-Gs t} + sin^2(a/2) e^{-Gl t}
        for _ in range(25):
            a = rng.uniform(0, math.pi)
            phi = rng.uniform(0, 2 * math.pi)
            t = rng.uniform(0, 5)
            n = bloch_vector(Quasispin(a, phi), t, kaon)
            want = (math.cos(0.5 * a) ** 2 * math.exp(-kaon.gamma_s * t)
                    + math.sin(0.5 * a) ** 2 * math.exp(-kaon.gamma_l * t))
            assert np.linalg.norm(n) == pytest.approx(want, abs=1e-13)
            assert np.abs(n - _trig_bloch(Quasispin(a, phi), t, kaon)).max() < 1e-13

    def test_length_shrinks_for_equal_widths(self, bmeson):
        q = Quasispin(1.0, 0.4)
        lengths = [np.linalg.norm(bloch_vector(q, t, bmeson))
                   for t in np.linspace(0, 6, 61)]
        assert all(b <= a + 1e-12 for a, b in zip(lengths, lengths[1:]))

    def test_length_bounded_for_kaon(self, kaon):
        for t in np.linspace(0, 10, 101):
            for a in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
                n = bloch_vector(Quasispin(a, 1.0), float(t), kaon)
                assert np.linalg.norm(n) <= 1.0 + 1e-12


class TestBlochVectorArrays:
    QS = (Quasispin(0.0, 0.0), Quasispin(1.1, 2.3), Quasispin(math.pi / 2, math.pi),
          Quasispin(math.pi, 0.4))

    @pytest.mark.parametrize("cp", [False, True])
    def test_rows_equal_scalar_calls(self, kaon, cp):
        grid = np.linspace(0.0, 12.0, 37)
        for q in self.QS:
            rows = bloch_vector(q, grid, kaon, cp)
            for t, row in zip(grid.tolist(), rows):
                assert np.array_equal(row, bloch_vector(q, t, kaon, cp))

    def test_cp_row_is_effective_operator_cp_bloch(self, kaon):
        grid = np.linspace(0.0, 8.0, 25)
        for q in self.QS:
            rows = bloch_vector(q, grid, kaon, cp_corrected=True)
            for t, row in zip(grid.tolist(), rows):
                assert np.array_equal(row, effective_operator_cp(q, t, kaon).bloch)

    def test_shape(self, kaon):
        q = self.QS[1]
        assert bloch_vector(q, 0.5, kaon).shape == (3,)
        for t in (np.array(0.5), np.linspace(0, 1, 4), np.ones((2, 5)),
                  np.zeros((3, 0))):
            assert bloch_vector(q, t, kaon).shape == t.shape + (3,)

    @pytest.mark.parametrize("t", [-0.1, math.nan, math.inf, [0.5, -1.0],
                                   [0.5, math.nan], [[0.1], [math.inf]]])
    @pytest.mark.parametrize("cp", [False, True])
    def test_bad_times_rejected(self, kaon, t, cp):
        with pytest.raises(ValueError):
            bloch_vector(self.QS[1], t, kaon, cp)


class TestEffectiveOperator:
    def test_strangeness_question_at_zero_is_pauli_x(self, kaon):
        o = effective_operator(Quasispin(math.pi / 2, 0.0), 0.0, kaon)
        assert np.abs(o.matrix - PAULI_X).max() < 1e-14

    def test_unit_bloch_at_zero(self, kaon, rng):
        for _ in range(10):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            o = effective_operator(q, 0.0, kaon)
            vals = hermitian_eigen(o.matrix)[0]
            assert np.allclose(vals, [1.0, -1.0], atol=1e-12)

    def test_trace_identity(self, kaon):
        o = effective_operator(Quasispin(math.pi / 2, 0.0), 1.0, kaon)
        n0 = 1.0 - np.linalg.norm(o.bloch)
        assert np.trace(o.matrix).real == pytest.approx(-2.0 * n0, abs=1e-14)

    def test_bloch_reconstruction(self, kaon, rng):
        q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        o = effective_operator(q, 0.8, kaon)
        n = bloch_vector(q, 0.8, kaon)
        n0 = 1.0 - np.linalg.norm(n)
        rebuilt = -n0 * np.eye(2) + sum(ni * s for ni, s in zip(n, (PAULI_X,
                    np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))))
        assert np.abs(o.matrix - rebuilt).max() < 1e-14

    def test_negative_time_rejected(self, kaon):
        with pytest.raises(ValueError):
            effective_operator(KS_DIRECTION, -0.1, kaon)

    def test_equality_is_identity(self, kaon):
        # a generated __eq__ over the numpy fields would raise ValueError
        a, b = (effective_operator(Quasispin(1.0, 0.3), 1.2, kaon) for _ in range(2))
        assert isinstance(a, ObservableMatrix)
        assert a == a
        assert (a == b) is False

    def test_non_finite_time_rejected(self, kaon):
        for build in (effective_operator, effective_operator_cp,
                      effective_operator_cp_exact):
            for t in (math.nan, math.inf):
                with pytest.raises(ValueError, match="t must be finite"):
                    build(KS_DIRECTION, t, kaon)


class TestEigenpairFromMatrix:
    def test_near_degenerate_pair_matches(self):
        # gaps below 1e-12 are flagged degenerate, but each eigenvector still
        # belongs to its own eigenvalue
        for eps in (4.87e-13, 1e-13):
            m = eps * PAULI_Z
            pair = eigenpair_from_matrix(m)
            assert pair.degenerate
            assert pair.lambda1 > pair.lambda2
            assert abs(pair.chi1[0]) == pytest.approx(1.0, abs=1e-15)
            for lam, chi in ((pair.lambda1, pair.chi1), (pair.lambda2, pair.chi2)):
                assert np.linalg.norm(m @ chi - lam * chi) <= 1e-3 * eps


class TestSpectral:
    def test_chi1_at_zero_is_the_quasispin(self, kaon):
        q = Quasispin(1.2, 0.7)
        pair = spectral(effective_operator(q, 0.0, kaon))
        assert abs(abs(np.vdot(pair.chi1, q.state_mass())) - 1.0) < 1e-12
        assert pair.lambda1 == pytest.approx(1.0, abs=1e-12)

    def test_second_eigenvalue_pinned(self, kaon):
        for t in (0.0, 0.5, 1.0, 3.0):
            pair = spectral(effective_operator(Quasispin(math.pi / 2, 0.0), t, kaon))
            assert pair.lambda2 == -1.0

    def test_orthonormality(self, kaon, rng):
        for _ in range(20):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 5)
            pair = spectral(effective_operator(q, t, kaon))
            assert abs(np.vdot(pair.chi1, pair.chi2)) < 1e-12
            assert np.linalg.norm(pair.chi1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(pair.chi2) == pytest.approx(1.0, abs=1e-12)
            # the paper's reading of chi2: chi(alpha + pi, phi + 2t, -t)
            back = _backward_chi(q.alpha + math.pi, q.phi + 2.0 * t, -t, kaon)
            assert abs(abs(np.vdot(pair.chi2, back)) - 1.0) < 1e-12

    def test_matches_numeric_eigensolver(self, kaon, rng):
        for _ in range(10):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            o = effective_operator(q, rng.uniform(0, 4), kaon)
            pair = spectral(o)
            vals, vecs = hermitian_eigen(o.matrix)
            assert pair.lambda1 == pytest.approx(vals[0], abs=1e-12)
            assert vals[1] == pytest.approx(-1.0, abs=1e-12)
            assert abs(abs(np.vdot(pair.chi1, vecs[:, 0])) - 1.0) < 1e-10

    def test_chi1_is_damped_quasispin(self, kaon):
        # independent reconstruction: amplitudes damped by e^{-G_i t/2}, the
        # long-lived one rotated by e^{i t}, then normalized
        q = Quasispin(0.9, 2.4)
        t = 1.7
        amps = q.state_mass()
        amps = amps * np.array([math.exp(-0.5 * kaon.gamma_s * t),
                                cmath.exp(1j * t) * math.exp(-0.5 * kaon.gamma_l * t)])
        amps /= np.linalg.norm(amps)
        pair = spectral(effective_operator(q, t, kaon))
        assert abs(abs(np.vdot(pair.chi1, amps)) - 1.0) < 1e-12

    def test_degenerate_flag(self, kaon):
        # K_S has decayed below the float range by t = 2000: O = -1
        o = effective_operator(KS_DIRECTION, 2000.0, kaon)
        assert np.array_equal(o.matrix, -np.eye(2))
        pair = spectral(o)
        assert pair.degenerate
        assert abs(np.vdot(pair.chi1, pair.chi2)) < 1e-12

    def test_equality_is_identity(self, kaon):
        # a generated __eq__ over the numpy fields would raise ValueError
        o = effective_operator(Quasispin(1.0, 0.3), 1.2, kaon)
        a, b = spectral(o), spectral(o)
        assert a == a
        assert (a == b) is False

    def test_long_time_repro_cases(self, kaon):
        # times at which the inverted decay factors e^{+Gamma_i t/2} of the
        # backward-in-time chi2 overflow its norm (t = 400) or themselves
        q = Quasispin(1.0, 0.3)
        cases = []
        for t in (400.0, 800.0):
            o = effective_operator(q, t, kaon)
            cases.append((o, spectral(o)))
        cases.append((effective_operator_cp(q, 700.0, kaon),
                      cp_eigenvectors(q, 700.0, kaon)))
        for o, pair in cases:
            assert not pair.degenerate
            for lam, chi in ((pair.lambda1, pair.chi1), (pair.lambda2, pair.chi2)):
                assert np.isfinite(chi).all()
                assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-12)
                assert np.linalg.norm(o.matrix @ chi - lam * chi) < 1e-12
            assert abs(np.vdot(pair.chi1, pair.chi2)) < 1e-12


class TestPropagate:
    @pytest.mark.parametrize("params", [kaon_defaults(), bmeson_defaults()],
                             ids=lambda p: p.label)
    def test_array_rows_equal_scalar_calls(self, params, rng):
        # bit for bit: a scan row is the scalar observable at its time
        times = np.concatenate([[0.0], rng.uniform(0, 8, 40),
                                rng.uniform(8, 2000, 10)]).reshape(17, 3)
        for _ in range(5):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            for amps in (q.state_mass(), cp_weights(q, params)[:2]):
                w = _propagate(amps, times, params)
                assert w.shape == (17, 3, 2)
                for idx in np.ndindex(times.shape):
                    scalar = _propagate(amps, float(times[idx]), params)
                    assert np.array_equal(w[idx], scalar)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_width_gives_zero_amplitude_silently(self, rng):
        # gamma_s * t overflows to -inf; exp(-inf) = 0 is the right amplitude
        params = MesonParams(gamma_s=1e308, gamma_l=1.0)
        q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        amps = q.state_mass()
        w = _propagate(amps, np.array([6.0]), params)
        assert np.array_equal(w[0], _propagate(amps, 6.0, params))
        assert w[0, 0] == 0.0 and w[0, 1] != 0.0

    def test_array_times_validated(self, kaon):
        amps = KS_DIRECTION.state_mass()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                _propagate(amps, np.array([0.0, bad]), kaon)
        with pytest.raises(ValueError, match="t >= 0"):
            _propagate(amps, np.array([0.5, -0.1]), kaon)


class TestCpWeights:
    def test_frame_is_cached_and_read_only(self, kaon):
        _mass_frame.cache_clear()
        cp_weights(Quasispin(1.0, 0.3), kaon)
        cp_weights(Quasispin(2.0, 1.1), kaon)
        info = _mass_frame.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        for a in _mass_frame(kaon.delta):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestCpOperator:
    def test_reduces_to_plain_operator_at_zero_delta(self, bmeson, rng):
        for _ in range(5):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 3)
            plain = effective_operator(q, t, bmeson).matrix
            cp = effective_operator_cp(q, t, bmeson).matrix
            assert np.abs(plain - cp).max() < 1e-15

    def test_second_eigenvalue_pinned(self, kaon, rng):
        for _ in range(10):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            o = effective_operator_cp(q, rng.uniform(0, 4), kaon)
            vals = hermitian_eigen(o.matrix)[0]
            assert vals[1] == pytest.approx(-1.0, abs=1e-12)

    def test_strangeness_question_first_component(self, kaon):
        # at t = 0 the correction enhances n1 to (1 + delta)^2, the squared
        # weight sum of the two mass-eigenstate overlaps
        d = kaon.delta
        o = effective_operator_cp(Quasispin(math.pi / 2, 0.0), 0.0, kaon)
        assert o.bloch[0] == pytest.approx(1.0 + 2.0 * d + d * d, abs=1e-15)
        assert o.bloch[0] == pytest.approx((1.0 + d) ** 2, abs=1e-15)

    def test_matches_overlap_amplitude_construction(self, kaon, rng):
        # Bloch vector must equal the one of the damped overlap amplitudes
        # (<K_S|k>, <K_L|k>) exactly, at every order of delta
        for _ in range(15):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 4)
            amp_s, amp_l, _ = cp_weights(q, kaon)
            w = np.array([amp_s * math.exp(-0.5 * kaon.gamma_s * t),
                          amp_l * cmath.exp(1j * t - 0.5 * kaon.gamma_l * t)])
            want = np.array([2.0 * (w[0].conjugate() * w[1]).real,
                             2.0 * (w[0].conjugate() * w[1]).imag,
                             abs(w[0]) ** 2 - abs(w[1]) ** 2])
            o = effective_operator_cp(q, t, kaon)
            assert np.abs(o.bloch - want).max() < 1e-13
            assert np.abs(o.bloch - _cp_polynomial_bloch(q, t, kaon)).max() < 1e-13

    def test_gap_to_exact_projector_route_is_first_order(self, kaon):
        # the overlap-amplitude form differs from the exact skew-basis
        # propagation at O(delta); the gap must scale down with delta
        def worst(params):
            dev = 0.0
            for a in np.linspace(0, math.pi, 5):
                for t in (0.0, 0.7, 2.0):
                    q = Quasispin(float(a), 1.1)
                    m1 = effective_operator_cp(q, t, params).matrix
                    m2 = effective_operator_cp_exact(q, t, params)
                    dev = max(dev, float(np.abs(m1 - m2).max()))
            return dev

        gap = worst(kaon)
        assert 0.25 * kaon.delta < gap < 2.0 * kaon.delta
        half = MesonParams(kaon.gamma_s, kaon.gamma_l, 0.5 * kaon.delta, "half")
        assert worst(half) == pytest.approx(0.5 * gap, rel=0.15)
        zero = MesonParams(kaon.gamma_s, kaon.gamma_l, 0.0, "zero")
        assert worst(zero) < 1e-12


class TestCpEigenvectors:
    def test_reduces_to_spectral_at_zero_delta(self, bmeson, rng):
        for _ in range(5):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 3)
            plain = spectral(effective_operator(q, t, bmeson))
            cp = cp_eigenvectors(q, t, bmeson)
            assert abs(abs(np.vdot(plain.chi1, cp.chi1)) - 1.0) < 1e-12
            assert abs(abs(np.vdot(plain.chi2, cp.chi2)) - 1.0) < 1e-12

    def test_orthonormal_for_nonzero_delta(self, kaon, rng):
        for _ in range(15):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0, 5)
            pair = cp_eigenvectors(q, t, kaon)
            assert abs(np.vdot(pair.chi1, pair.chi2)) < 1e-12
            assert np.linalg.norm(pair.chi1) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(pair.chi2) == pytest.approx(1.0, abs=1e-12)
            # chi2 is the conjugated overlap amplitudes with inverted decay
            amp_s, amp_l, _ = cp_weights(q, kaon)
            inverted = np.array([
                -amp_l.conjugate() * math.exp(0.5 * kaon.gamma_s * t),
                amp_s.conjugate() * cmath.exp(1j * t + 0.5 * kaon.gamma_l * t)])
            inverted /= np.linalg.norm(inverted)
            assert abs(abs(np.vdot(pair.chi2, inverted)) - 1.0) < 1e-12

    def test_chi1_is_eigenvector_of_cp_operator(self, kaon):
        pair = cp_eigenvectors(KS_DIRECTION, 1.0, kaon)
        m = effective_operator_cp(KS_DIRECTION, 1.0, kaon).matrix
        assert np.linalg.norm(m @ pair.chi1 - pair.lambda1 * pair.chi1) < 1e-8
        assert np.linalg.norm(m @ pair.chi2 + pair.chi2) < 1e-8
        assert pair.lambda2 == -1.0

    def test_weight_sum_identity(self, kaon):
        # quasispin given in the CP basis: weights sum to 1 + d sin(a) cos(phi)
        d = kaon.delta
        for a in np.linspace(0.0, math.pi, 7):
            for phi in np.linspace(0.0, 2 * math.pi, 9, endpoint=False):
                _, _, w = cp_basis_weights(Quasispin(float(a), float(phi)), kaon)
                assert w == pytest.approx(1.0 + d * math.sin(a) * math.cos(phi),
                                          abs=1e-12)

    def test_weight_sum_example(self, kaon):
        _, _, w = cp_basis_weights(Quasispin(math.pi / 2, 0.0), kaon)
        assert w == pytest.approx(1.0 + kaon.delta, abs=1e-12)


class TestExpectation:
    def test_own_direction_gives_one(self, kaon, rng):
        q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        k = q.state_mass()
        o = effective_operator(q, 0.0, kaon)
        assert expectation(o, np.outer(k, k.conj())) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_direction_gives_minus_one(self, kaon):
        q = Quasispin(1.0, 0.5)
        k = q.state_mass()
        perp = np.array([-k[1].conjugate(), k[0].conjugate()])
        o = effective_operator(q, 0.0, kaon)
        assert expectation(o, np.outer(perp, perp.conj())) == pytest.approx(-1.0, abs=1e-12)

    def test_survival_of_short_lived(self, kaon):
        rho = np.diag([1.0, 0.0]).astype(complex)
        o = effective_operator(KS_DIRECTION, 1.0, kaon)
        want = 2.0 * math.exp(-kaon.gamma_s) - 1.0
        assert expectation(o, rho) == pytest.approx(want, abs=1e-13)
        # cross-check against the open-system route
        rho_t = evolve_single_closed(rho, 1.0, kaon)
        p_yes = np.trace(quasispin_projector4(KS_DIRECTION) @ rho_t.entries).real
        assert expectation(o, rho) == pytest.approx(2.0 * p_yes - 1.0, abs=1e-13)

    def test_heisenberg_schroedinger_agreement(self, kaon, rng):
        # the effective operator must reproduce the open-system probability
        # for arbitrary complex initial states, settings and times
        for _ in range(500):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t = rng.uniform(0.0, 5.0)
            rho = random_density(rng)
            e_eff = expectation(effective_operator(q, t, kaon), rho)
            rho_t = evolve_single_closed(rho, t, kaon)
            p_yes = np.trace(quasispin_projector4(q) @ rho_t.entries).real
            assert abs(e_eff - (2.0 * p_yes - 1.0)) < 1e-10


    def test_non_finite_state_rejected(self, kaon):
        o = effective_operator(KS_DIRECTION, 0.5, kaon)
        with pytest.raises(ValueError, match="state entries must be finite"):
            expectation(o, np.full((2, 2), math.nan))
        with pytest.raises(ValueError, match="state entries must be finite"):
            bipartite_expectation(o, o, np.full((4, 4), math.nan))
        with pytest.raises(ValueError, match="expected a 2x2 state"):
            expectation(o, np.eye(4) / 4)
        with pytest.raises(ValueError, match="expected a 4x4 state"):
            bipartite_expectation(o, o, np.eye(2) / 2)


class TestBipartiteExpectation:
    def test_product_state_factorizes(self, kaon, rng):
        rho_a = random_density(rng)
        rho_b = random_density(rng)
        o1 = effective_operator(Quasispin(1.0, 0.2), 0.7, kaon)
        o2 = effective_operator(Quasispin(2.0, 4.0), 1.3, kaon)
        joint = bipartite_expectation(o1, o2, np.kron(rho_a, rho_b))
        assert joint == pytest.approx(expectation(o1, rho_a) * expectation(o2, rho_b),
                                      abs=1e-12)

    def test_singlet_anticorrelation(self, kaon, rng):
        s = 1.0 / math.sqrt(2.0)
        psi = np.array([0.0, s, -s, 0.0])  # antisymmetric in any basis
        rho = np.outer(psi, psi.conj())
        for _ in range(5):
            q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            o = effective_operator(q, 0.0, kaon)
            assert bipartite_expectation(o, o, rho) == pytest.approx(-1.0, abs=1e-12)


PRESETS = {"kaon": kaon_defaults(), "bmeson": bmeson_defaults()}
LONG_TIME = st.floats(0.0, 2000.0)
ALPHA = st.floats(0.0, math.pi)
PHI = st.floats(0.0, 2.0 * math.pi)


class TestLongTimes:
    """Over t in [0, 2000] dm, about seven K_L lifetimes of the kaon."""

    @given(preset=st.sampled_from(sorted(PRESETS)), cp=st.booleans(),
           alpha=ALPHA, phi=PHI, t=LONG_TIME)
    @settings(max_examples=300, deadline=None)
    def test_spectrum_stays_finite(self, preset, cp, alpha, phi, t):
        params = PRESETS[preset]
        build = effective_operator_cp if cp else effective_operator
        o = build(Quasispin(alpha, phi), t, params)
        pair = spectral(o)
        assert pair.lambda2 == -1.0
        # |n| is the overlap weight sum; in the skew mass basis the quasispin
        # state has squared norm up to 1 + |delta|, and its overlaps with the
        # mass eigenstates sum to at most 1 + |delta| times that
        bound = (1.0 + abs(params.delta)) ** 2 if cp else 1.0
        assert np.linalg.norm(o.bloch) <= bound + 1e-12
        for chi in (pair.chi1, pair.chi2):
            assert np.isfinite(chi).all()
            assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(pair.chi1, pair.chi2)) <= 1e-12
        assert hermitian_eigen(o.matrix)[0][1] == pytest.approx(
            -1.0, abs=1e-12)

    @given(preset=st.sampled_from(sorted(PRESETS)), alpha_n=ALPHA, phi_n=PHI,
           alpha_m=ALPHA, phi_m=PHI, t1=LONG_TIME, t2=LONG_TIME)
    @settings(max_examples=100, deadline=None)
    def test_effective_matches_joint_probabilities(self, preset, alpha_n, phi_n,
                                                   alpha_m, phi_m, t1, t2):
        # joint_probabilities works in the mass basis without CP asymmetry,
        # so it is the reference for the plain operator
        params = PRESETS[preset]
        q_n, q_m = Quasispin(alpha_n, phi_n), Quasispin(alpha_m, phi_m)
        t_m, t_n = sorted((t1, t2))
        psi = singlet_state()
        jo = joint_probabilities(psi, q_n, t_n, q_m, t_m, params)
        e_eff = bipartite_expectation(effective_operator(q_n, t_n, params),
                                      effective_operator(q_m, t_m, params),
                                      surviving_pair(psi))
        assert abs(jo.expectation - e_eff) <= 1e-9

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesonq import (
    K0BAR_DIRECTION, MesonParams, Quasispin, bmeson_defaults, cp_basis_data,
    hermitian_eigen, kaon_defaults, stable_defaults,
)
from mesonq.core import (
    k0bar_state, k1_state, kl_state, ks_state, mass_to_strangeness_matrix,
    _require_finite,
)

from conftest import random_pure_state


class TestPresets:
    def test_kaon_widths(self):
        p = kaon_defaults()
        assert p.gamma_s == pytest.approx(11.4 / 5.4, abs=1e-15)
        assert p.gamma_l / p.gamma_s == pytest.approx(0.89e-10 / 5.17e-8, rel=1e-12)
        # lifetime ratio is about 1/580.9
        assert p.gamma_s / p.gamma_l == pytest.approx(580.899, rel=1e-3)
        assert p.delta == 3.322e-3
        assert p.label == "kaon"

    def test_bmeson_widths(self):
        p = bmeson_defaults()
        assert p.gamma_s == pytest.approx(1.2886597938, rel=1e-9)
        assert p.gamma_l == p.gamma_s
        assert p.delta_gamma == 0.0
        assert p.delta == 0.0

    def test_mean_width_dominates_difference(self):
        for p in (kaon_defaults(), bmeson_defaults(), stable_defaults()):
            assert p.gamma_mean >= abs(p.delta_gamma)

    def test_validation(self):
        with pytest.raises(ValueError):
            MesonParams(gamma_s=-1.0, gamma_l=0.0)
        with pytest.raises(ValueError):
            MesonParams(gamma_s=1.0, gamma_l=2.0)
        with pytest.raises(ValueError):
            MesonParams(gamma_s=1.0, gamma_l=0.5, delta=1.0)
        with pytest.raises(ValueError, match="gamma_l must be finite, got nan"):
            MesonParams(gamma_s=1.0, gamma_l=math.nan)


class TestRequireFinite:
    def test_array_names_first_bad_value(self):
        _require_finite(t=np.zeros(3), rho=np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match=r"t_m must be finite, got inf"):
            _require_finite(t_n=np.array([0.0, 1.0]),
                            t_m=np.array([0.5, math.inf, math.nan]))
        with pytest.raises(ValueError, match=r"rho must be finite, got \(nan\+0j\)"):
            _require_finite(rho=np.array([[1.0, complex(math.nan, 0.0)]]))


class TestQuasispin:
    def test_ranges(self):
        with pytest.raises(ValueError):
            Quasispin(-0.1, 0.0)
        with pytest.raises(ValueError):
            Quasispin(math.pi + 0.1, 0.0)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                Quasispin(bad, 0.0)
            with pytest.raises(ValueError, match="phi must be finite"):
                Quasispin(1.0, bad)

    def test_phi_wraps(self):
        assert Quasispin(1.0, 2.0 * math.pi + 0.5).phi == pytest.approx(0.5)
        assert Quasispin(1.0, -0.5).phi == pytest.approx(2.0 * math.pi - 0.5)

    def test_pole_canonicalizes_phi(self):
        assert Quasispin(0.0, 1.3).phi == 0.0

    def test_state_mass(self):
        q = Quasispin(math.pi / 2, math.pi / 3)
        v = q.state_mass()
        s = 1.0 / math.sqrt(2.0)
        assert v[0] == pytest.approx(s)
        assert v[1] == pytest.approx(s * np.exp(1j * math.pi / 3))

    def test_from_mass_state_rejects_non_finite(self):
        for bad in ([math.nan, 0.0], [1.0, math.inf], [-math.inf, math.nan]):
            with pytest.raises(ValueError, match="state entries must be finite"):
                Quasispin.from_mass_state(np.array(bad))
        with pytest.raises(ValueError, match="expected a 2-component state"):
            Quasispin.from_mass_state(np.array([1.0, 0.0, 0.0]))

    def test_from_mass_state_roundtrip(self, rng):
        for _ in range(20):
            v = random_pure_state(rng)
            q = Quasispin.from_mass_state(v)
            w = q.state_mass()
            assert abs(abs(np.vdot(v, w)) - 1.0) < 1e-12

    @given(alpha=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi,
                                                        exclude_max=True))
    @settings(max_examples=30, deadline=None)
    def test_state_is_normalized(self, alpha, phi):
        assert np.linalg.norm(Quasispin(alpha, phi).state_mass()) == pytest.approx(1.0)


class TestHermitianEigen:
    def test_identity(self):
        vals, vecs = hermitian_eigen(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])
        # degenerate pair comes out orthonormal and deterministic
        again = hermitian_eigen(np.eye(2))[1]
        assert np.array_equal(vecs, again)
        assert np.allclose(vecs.conj().T @ vecs, np.eye(2))

    def test_pauli_z(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        vals, vecs = hermitian_eigen(sz)
        assert np.allclose(vals, [1.0, -1.0])
        assert abs(vecs[0, 0]) == pytest.approx(1.0)
        assert abs(vecs[1, 1]) == pytest.approx(1.0)

    def test_random_4x4_invariants(self, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = 0.5 * (z + z.conj().T)
        vals, vecs = hermitian_eigen(m)
        assert abs(vals.sum() - np.trace(m).real) < 1e-12
        assert abs(np.prod(vals) - np.linalg.det(m).real) < 1e-10
        assert np.abs((vecs * vals) @ vecs.conj().T - m).max() < 1e-10
        assert np.abs(vecs.conj().T @ vecs - np.eye(4)).max() < 1e-10
        assert np.all(np.diff(vals) <= 1e-12)

    def test_16_dim(self, rng):
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = 0.5 * (z + z.conj().T)
        vals, vecs = hermitian_eigen(m)
        assert np.abs((vecs * vals) @ vecs.conj().T - m).max() < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_odd_dimensions(self):
        for bad in (np.eye(3), np.ones((2, 4)), np.ones(4)):
            with pytest.raises(ValueError, match="expected a 2x2 or 4x4 or 16x16"):
                hermitian_eigen(bad)

    def test_rejects_non_finite(self):
        # reported as such, not as a failed Hermiticity check
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            hermitian_eigen(np.full((2, 2), math.nan))


class TestCpBasisData:
    def test_zero_delta(self):
        cp = cp_basis_data(0.0)
        assert cp.p == 1.0 and cp.q == 1.0
        assert cp.norm_n == pytest.approx(math.sqrt(2.0))

    def test_epsilon_inverts_delta(self):
        delta = 3.322e-3
        # the stable form of (1 - sqrt(1 - delta^2))/delta, as cp_basis_data takes it
        eps = delta / (1.0 + math.sqrt(1.0 - delta * delta))
        cp = cp_basis_data(delta)
        assert (cp.p, cp.q) == (1.0 + eps, 1.0 - eps)
        assert 2.0 * eps / (1.0 + eps * eps) == pytest.approx(delta, abs=1e-16)

        # independent root of 2e/(1+e^2) = delta by bisection
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if 2.0 * mid / (1.0 + mid * mid) < delta:
                lo = mid
            else:
                hi = mid
        assert eps == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert eps == pytest.approx(1.661e-3, rel=1e-3)

    def test_mass_eigenstate_overlap_is_delta(self):
        for delta in (0.0, 3.322e-3, -0.2, 0.7):
            cp = cp_basis_data(delta)
            ks, kl = ks_state(cp), kl_state(cp)
            assert np.linalg.norm(ks) == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.norm(kl) == pytest.approx(1.0, abs=1e-12)
            assert np.vdot(ks, kl) == pytest.approx(delta, abs=1e-12)

    def test_unphysical_delta(self):
        with pytest.raises(ValueError, match="unphysical delta"):
            cp_basis_data(1.0)


class TestBasisConvert:
    """Mass and strangeness coordinates through M = mass_to_strangeness_matrix.

    The columns of M are K_S and K_L; the mass amplitudes c of a state with
    strangeness components v solve M c = v.
    """

    def test_ks_to_strangeness(self):
        m = mass_to_strangeness_matrix(cp_basis_data(0.0))
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(m @ [1.0, 0.0], [s, -s], atol=1e-14)

    def test_k0bar_to_mass_is_antisymmetric_direction(self):
        m = mass_to_strangeness_matrix(cp_basis_data(0.0))
        c = np.linalg.solve(m, k0bar_state())
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(c, [-s, s], atol=1e-14)
        q = Quasispin.from_mass_state(c)
        assert q.alpha == pytest.approx(math.pi / 2)
        assert q.phi == pytest.approx(math.pi)
        assert q.alpha == K0BAR_DIRECTION.alpha and q.phi == K0BAR_DIRECTION.phi

    def test_cp_plus_state_is_short_lived_at_zero_delta(self):
        cp = cp_basis_data(0.0)
        assert np.allclose(k1_state(), ks_state(cp), atol=1e-14)
        c = np.linalg.solve(mass_to_strangeness_matrix(cp), k1_state())
        assert np.allclose(c, [1.0, 0.0], atol=1e-14)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mesonq.bell
from mesonq import (
    K0BAR_DIRECTION, MesonParams, Quasispin, bell_bounds, bell_operator,
    bipartite_expectation, bipartite_mu_bound, bmeson_defaults, chsh_value,
    cp_bell_test, effective_operator, effective_operator_cp, hermitian_eigen,
    kaon_defaults, sample_witness_max, scan_bell, singlet_state, spectral,
)
from mesonq.bell import TIME_POLICIES, BellSetting
from mesonq.core import PAULI, PAULI_Z, _require_hermitian
from mesonq.effective import (
    _amplitudes, _propagate, _rank_one, eigenpair_from_matrix,
)
from mesonq.evolution import surviving_pair

from conftest import random_density

SQRT2 = math.sqrt(2.0)


def planar_setting(t=0.0):
    return BellSetting(Quasispin(0.0, 0.0), t, Quasispin(math.pi / 4, 0.0), t,
                       Quasispin(math.pi / 2, 0.0), t,
                       Quasispin(3 * math.pi / 4, 0.0), t)


def strangeness_setting(t_n, t_m, t_np, t_mp):
    k = K0BAR_DIRECTION
    return BellSetting(k, t_n, k, t_m, k, t_np, k, t_mp)


def verify_witnesses(params):
    """The two witnesses `mesonq verify` samples."""
    return [bell_operator(s, params)
            for s in (planar_setting(), strangeness_setting(0.0, 1.0, 1.0, 0.0))]


def fresh_draw(n_states, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_states, 4)) + 1j * rng.standard_normal((n_states, 4))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def literal_refinement(bell, n_states, seed, refine_steps):
    """Best sample of a fresh draw, then one normalized power step at a time."""
    z = fresh_draw(n_states, seed)
    psi = z[np.argmax(np.einsum("ni,ij,nj->n", z.conj(), bell, z).real)]
    shifted = bell + np.abs(bell).sum(axis=1).max() * np.eye(4)
    for _ in range(refine_steps):
        psi = shifted @ psi
        psi /= np.linalg.norm(psi)
    return float(np.vdot(psi, bell @ psi).real)


def kron_reference(s, rho4, params):
    """Witness, CHSH (s, witness) and E_nm from per-question np.kron products."""
    build = effective_operator_cp if s.cp_mode else effective_operator
    o_n, o_m, o_np, o_mp = (build(q, t, params).matrix for q, t in (
        (s.k_n, s.t_n), (s.k_m, s.t_m), (s.k_np, s.t_np), (s.k_mp, s.t_mp)))
    bell = np.kron(o_n, o_m - o_mp) + np.kron(o_np, o_m + o_mp)
    e_nm, e_nmp, e_npm, e_npmp = (
        float(np.trace(np.kron(a, b) @ rho4).real)
        for a, b in ((o_n, o_m), (o_n, o_mp), (o_np, o_m), (o_np, o_mp)))
    return (bell, abs(e_nm - e_nmp) + abs(e_npm + e_npmp),
            e_nm - e_nmp + e_npm + e_npmp, e_nm)


def singlet4():
    rho = singlet_state().entries.reshape(4, 4, 4, 4)
    return rho[:2, :2, :2, :2].reshape(4, 4)


class TestBellOperator:
    def test_hermitian(self, kaon):
        b = bell_operator(strangeness_setting(0.0, 1.0, 1.0, 0.0), kaon)
        assert np.abs(b - b.conj().T).max() < 1e-14

    def test_planar_spectrum_reaches_tsirelson(self, kaon):
        vals = hermitian_eigen(bell_operator(planar_setting(), kaon))[0]
        assert vals[0] == pytest.approx(2.0 * SQRT2, abs=1e-9)
        assert vals[-1] == pytest.approx(-2.0 * SQRT2, abs=1e-9)

    def test_degenerate_b_side(self, kaon):
        k = K0BAR_DIRECTION
        s = BellSetting(Quasispin(0.3, 0.0), 0.0, k, 0.0, Quasispin(1.1, 0.0),
                        0.0, k, 0.0)
        vals = hermitian_eigen(bell_operator(s, kaon))[0]
        # O_m = O_m' makes the witness 2 O_n' x O_m with spectrum {+-2}
        assert np.allclose(np.abs(vals), 2.0, atol=1e-12)

    def test_norm_never_exceeds_four(self, kaon, rng):
        for _ in range(25):
            qs = [Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                  for _ in range(4)]
            ts = rng.uniform(0, 4, 4)
            s = BellSetting(qs[0], ts[0], qs[1], ts[1], qs[2], ts[2], qs[3], ts[3])
            vals = hermitian_eigen(bell_operator(s, kaon))[0]
            assert np.abs(vals).max() <= 4.0 + 1e-12


class TestBellBounds:
    def test_planar_maximum(self, kaon):
        rep = bell_bounds(planar_setting(), kaon)
        assert rep.lambda_max == pytest.approx(2.0 * SQRT2, abs=1e-9)
        assert rep.classical_bound == 2.0
        assert rep.tsirelson == pytest.approx(2.0 * SQRT2)

    def test_all_time_zero_settings_respect_tsirelson(self, kaon, rng):
        # unit Bloch vectors at t = 0: ordinary CHSH algebra applies
        for _ in range(25):
            qs = [Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                  for _ in range(4)]
            s = BellSetting(qs[0], 0.0, qs[1], 0.0, qs[2], 0.0, qs[3], 0.0)
            rep = bell_bounds(s, kaon)
            assert rep.lambda_max <= 2.0 * SQRT2 + 1e-9
            assert rep.lambda_min >= -2.0 * SQRT2 - 1e-9

    def test_witness_dominates_sampled_states(self, kaon, rng):
        for s in (planar_setting(), strangeness_setting(0.0, 1.0, 1.0, 0.0),
                  strangeness_setting(0.5, 0.5, 0.5, 0.5)):
            b = bell_operator(s, kaon)
            rep = bell_bounds(s, kaon)
            z = rng.standard_normal((1000, 4)) + 1j * rng.standard_normal((1000, 4))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            vals = np.einsum("ni,ij,nj->n", z.conj(), b, z).real
            assert vals.max() <= rep.lambda_max + 1e-9
            assert vals.min() >= rep.lambda_min - 1e-9

    def test_sampling_oracle_converges(self, kaon):
        b = bell_operator(planar_setting(), kaon)
        lam = bell_bounds(planar_setting(), kaon).lambda_max
        assert sample_witness_max(b, 10_000) <= lam + 1e-9
        assert abs(sample_witness_max(b, 10_000, refine_steps=300) - lam) < 1e-8


class TestSampleWitnessMax:
    def test_non_finite_witness_rejected(self):
        b = np.eye(4, dtype=complex)
        b[1, 1] = math.nan
        with pytest.raises(ValueError, match="witness entries must be finite"):
            sample_witness_max(b, 100)

    def test_non_hermitian_witness_rejected(self):
        with pytest.raises(ValueError, match="not hermitian"):
            sample_witness_max(np.triu(np.ones((4, 4))), 100)

    def test_wrong_shape_rejected(self):
        for bad in (np.eye(2), np.ones(16)):
            with pytest.raises(ValueError, match="expected a 4x4 witness"):
                sample_witness_max(bad, 100)

    def test_no_states_rejected(self, kaon):
        b = bell_operator(planar_setting(), kaon)
        with pytest.raises(ValueError, match="n_states must be at least 1"):
            sample_witness_max(b, 0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"n_states": 100.0}, "n_states must be an integer"),
        ({"refine_steps": 3.0}, "refine_steps must be an integer"),
        ({"refine_steps": -1}, "refine_steps must be nonnegative"),
        ({"seed": None}, "seed must be an integer"),
        ({"seed": np.random.default_rng(7)}, "seed must be an integer"),
        ({"seed": 7.0}, "seed must be an integer"),
        ({"seed": -1}, "^seed must be nonnegative, got -1$"),
    ], ids=["float_n_states", "float_refine_steps", "negative_refine_steps",
            "none_seed", "generator_seed", "float_seed", "negative_seed"])
    def test_bad_argument_rejected(self, kaon, kwargs, match):
        b = bell_operator(planar_setting(), kaon)
        args = {"n_states": 100, "seed": 7, "refine_steps": 3} | kwargs
        sample_witness_max(b, 100, seed=7)  # a cached draw must not be replayed
        with pytest.raises(ValueError, match=match):
            sample_witness_max(b, **args)

    @pytest.mark.parametrize("refine_steps", [1, 2, 3, 256, 300, 301])
    def test_refinement_matches_literal_loop(self, kaon, refine_steps):
        rng = np.random.default_rng(refine_steps)
        witnesses = verify_witnesses(kaon)
        for _ in range(4):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            witnesses.append(4.0 * h / np.linalg.norm(h))
        for seed, b in enumerate(witnesses):
            got = sample_witness_max(b, 10_000, seed=seed, refine_steps=refine_steps)
            want = literal_refinement(b, 10_000, seed, refine_steps)
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("diagonal, n_states, top", [
        ([-20.0, 0.0, 0.0, 0.0], 100, 0.0),
        ([-12.0, 1.0, 0.0, 0.0], 10_000, 1.0),
    ])
    def test_refinement_past_a_large_negative_eigenvalue(self, diagonal,
                                                         n_states, top):
        # the shift must exceed |-20| and |-12| for the top eigenvalue to dominate
        b = np.diag(diagonal).astype(complex)
        got = sample_witness_max(b, n_states, refine_steps=300)
        assert got == pytest.approx(top, abs=1e-12)

    @pytest.mark.parametrize("c", [0.0, 1.0, 3.0])
    def test_multiple_of_identity_refines_to_its_value(self, c):
        # Bell + s is zero here, so there is no power to normalize
        got = sample_witness_max(-c * np.eye(4), 100, refine_steps=300)
        assert got == pytest.approx(-c, rel=1e-15, abs=1e-15)

    def test_long_refinement_stays_finite(self, kaon):
        # (Bell + s)^5000 has entries near (lambda_max + s)^5000: the powers
        # are rescaled
        for b in verify_witnesses(kaon):
            got = sample_witness_max(b, 10_000, refine_steps=5000)
            assert math.isfinite(got)
            assert abs(got - np.linalg.eigvalsh(b)[-1]) <= 1e-8


class TestHaarDrawCache:
    def test_draw_is_read_only(self):
        z = mesonq.bell._haar_draw(100, 7)
        with pytest.raises(ValueError):
            z[0, 0] = 0.0

    def test_same_key_same_object(self):
        z = mesonq.bell._haar_draw(100, 7)
        assert mesonq.bell._haar_draw(100, 7) is z
        assert not np.array_equal(mesonq.bell._haar_draw(100, 8), z)

    def test_draw_equals_fresh_draw(self):
        for seed in (*range(20), mesonq.bell.DEFAULT_SEED):
            assert np.array_equal(mesonq.bell._haar_draw(10_000, seed),
                                  fresh_draw(10_000, seed))

    def test_unrefined_value_matches_fresh_draw(self, kaon):
        for b in verify_witnesses(kaon):
            z = fresh_draw(10_000, 11)
            want = np.einsum("ni,ij,nj->n", z.conj(), b, z).real
            cached = mesonq.bell._haar_draw(10_000, 11)
            got = ((cached.conj() @ b) * cached).sum(-1).real
            assert np.abs(got - want).max() <= 2e-15
            assert np.argmax(got) == np.argmax(want)
            assert abs(sample_witness_max(b, 10_000, seed=11) - want.max()) <= 2e-15


class TestWitnessValues:
    def test_real_form_matches_complex_form(self, kaon):
        rng = np.random.default_rng(3)
        witnesses = verify_witnesses(kaon)
        for _ in range(4):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = a + a.conj().T
            witnesses.append(4.0 * h / np.linalg.norm(h))
        # their imaginary parts exercise the -Im B and Im B blocks of the form
        assert all(np.abs(b.imag).max() > 0.1 for b in witnesses[-4:])
        for seed, b in enumerate(witnesses):
            z = mesonq.bell._haar_draw(10_000, seed)
            want = ((z.conj() @ b) * z).sum(-1).real
            got = mesonq.bell._witness_values(z, b)
            assert np.abs(got - want).max() <= 2e-15
            assert np.argmax(got) == np.argmax(want)


class TestChshValue:
    def test_identical_settings_saturate_classical(self, kaon):
        v = chsh_value(strangeness_setting(0.0, 0.0, 0.0, 0.0), singlet4(), kaon)
        assert v.s == pytest.approx(2.0, abs=1e-12)

    def test_planar_singlet_hits_tsirelson(self, kaon):
        v = chsh_value(planar_setting(), singlet4(), kaon)
        assert v.s == pytest.approx(2.0 * SQRT2, abs=1e-9)
        # the witness trace keeps the sign the absolute values discard
        assert abs(v.witness) == pytest.approx(2.0 * SQRT2, abs=1e-9)

    def test_witness_matches_aligned_signs(self, kaon):
        s = strangeness_setting(0.0, 1.0, 1.0, 0.0)
        v = chsh_value(s, singlet4(), kaon)
        assert v.s >= abs(v.witness) - 1e-12

    def test_non_finite_state_rejected(self, kaon):
        with pytest.raises(ValueError, match="state entries must be finite"):
            chsh_value(planar_setting(), np.full((4, 4), math.nan), kaon)
        with pytest.raises(ValueError, match="expected a 4x4 state"):
            chsh_value(planar_setting(), singlet_state(), kaon)


class TestKronReference:
    @pytest.mark.parametrize("cp_mode", [False, True])
    def test_bit_identical_to_per_question_kron(self, kaon, rng, cp_mode):
        build = effective_operator_cp if cp_mode else effective_operator
        for _ in range(100):
            qs = [Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                  for _ in range(4)]
            ts = rng.uniform(0, 8, 4).tolist()
            s = BellSetting(qs[0], ts[0], qs[1], ts[1], qs[2], ts[2], qs[3], ts[3],
                            cp_mode=cp_mode)
            rho4 = random_density(rng, 4)
            bell, chsh_s, chsh_witness, e_nm = kron_reference(s, rho4, kaon)
            assert np.array_equal(bell_operator(s, kaon), bell)
            v = chsh_value(s, rho4, kaon)
            assert (v.s, v.witness) == (chsh_s, chsh_witness)
            e = bipartite_expectation(build(qs[0], ts[0], kaon),
                                      build(qs[1], ts[1], kaon), rho4)
            assert e == e_nm


def per_question_observables(times, quasispins, params, cp_mode):
    """The four questions propagated one _propagate call at a time."""
    w = np.array([_propagate(_amplitudes(q, params, cp_mode), t, params)
                  for q, t in zip(quasispins, times, strict=True)])
    return w, _rank_one(w)


class TestStackedQuestions:
    """One _propagate call on the four questions gives the bits of four calls."""

    def outputs(self, params, settings, rho4, grid):
        out = []
        for s in settings:
            r, c = bell_bounds(s, params), chsh_value(s, rho4, params)
            out += [bell_operator(s, params), r.lambda_min, r.lambda_max,
                    r.summand_mu_bound, c.s, c.witness]
        for policy in TIME_POLICIES:
            for cp_mode in (False, True):
                r = scan_bell(policy, grid, params, cp_mode=cp_mode)
                out += [r.lambda_min, r.lambda_max, r.summand_mu_bound]
        return out

    @pytest.mark.parametrize("params", [kaon_defaults(),
                                        MesonParams(1.0, 1.0 / 579.0, 3.3e-3),
                                        bmeson_defaults()])
    def test_bit_identical_to_per_question_calls(self, params, rng, monkeypatch):
        settings = [planar_setting(), planar_setting(1.7),
                    strangeness_setting(0.0, 1.0, 1.0, 0.0)]
        for k in range(20):
            q = [Quasispin(*rng.uniform(0.0, math.pi, 2)) for _ in range(4)]
            t = rng.uniform(0.0, 8.0, 4)
            t[k % 4] = 0.0 if k % 3 == 0 else t[k % 4]
            settings.append(BellSetting(q[0], t[0], q[1], t[1], q[2], t[2],
                                        q[3], t[3], cp_mode=bool(k % 2)))
        rho4 = random_density(rng, 4)
        grid = np.linspace(0.0, 8.0, 41)
        got = self.outputs(params, settings, rho4, grid)
        monkeypatch.setattr(mesonq.bell, "_observables", per_question_observables)
        want = self.outputs(params, settings, rho4, grid)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a, b)


class TestCpBellTest:
    def test_no_violation_without_cp_asymmetry(self):
        rep = cp_bell_test(0.0)
        assert not rep.variant_ks_violates and not rep.variant_kl_violates
        assert rep.s_ks == pytest.approx(2.0, abs=1e-9)
        assert rep.s_kl == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("delta", [3.322e-3, -3.322e-3, 1e-2, -2e-3])
    def test_exactly_one_variant_violates(self, delta):
        rep = cp_bell_test(delta)
        assert rep.variant_ks_violates != rep.variant_kl_violates
        flipped = cp_bell_test(-delta)
        assert rep.variant_ks_violates == flipped.variant_kl_violates

    def test_margin_is_first_order_in_delta(self):
        d = 3.322e-3
        rep = cp_bell_test(d)
        # winning variant reaches 1 + |delta| + sqrt(1 - delta^2)
        want = 1.0 + d + math.sqrt(1.0 - d * d) - 2.0
        margin = max(rep.margin_ks, rep.margin_kl)
        assert margin == pytest.approx(want, abs=1e-12)

    def test_witness_spectrum_cannot_discriminate(self):
        # both variants share lambda_max = 2 sqrt(1 + |delta|): the verdict
        # must come from the singlet CHSH value, not the spectrum
        d = 3.322e-3
        rep = cp_bell_test(d)
        want = 2.0 * math.sqrt(1.0 + d)
        assert rep.lambda_max_ks == pytest.approx(want, abs=1e-9)
        assert rep.lambda_max_kl == pytest.approx(want, abs=1e-9)

    def test_singlet_is_strangeness_singlet(self):
        # the surviving block of the pair singlet is (|01> - |10>)/sqrt(2)
        # in every basis, so cp_bell_test reads it in the strangeness basis
        v = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2
        singlet = surviving_pair(singlet_state())
        assert np.abs(singlet - np.outer(v, v)).max() <= 1e-15

    def test_large_delta_rejected(self):
        with pytest.raises(ValueError):
            cp_bell_test(0.2)


class TestScanBell:
    def test_time_zero_row(self, kaon):
        scan = scan_bell("alternating-1", [0.0, 0.5], kaon)
        assert scan.lambda_max[0] == pytest.approx(2.0, abs=1e-9)
        assert scan.summand_mu_bound[0] == 0.0

    def test_policies_b_and_c_share_summand_bound(self, kaon):
        grid = [0.3, 0.8, 1.5, 2.4, 4.0]
        mu_b = scan_bell("alternating-1", grid, kaon).summand_mu_bound
        mu_c = scan_bell("alternating-2", grid, kaon).summand_mu_bound
        assert len(mu_b) == len(mu_c) == len(grid)
        assert np.abs(mu_b - mu_c).max() <= 1e-10

    def test_strangeness_scan_maximum(self, kaon):
        grid = [0.02 * i for i in range(1, 301)]
        peak = scan_bell("alternating-1", grid, kaon).lambda_max.max()
        assert peak == pytest.approx(2.1238, abs=2e-3)

    def test_violation_persists_at_long_times(self, kaon):
        grid = [0.05 * i for i in range(1, 121)]
        lam_max = scan_bell("alternating-1", grid, kaon).lambda_max
        horizon = 3.0 / kaon.gamma_s
        assert ((np.array(grid) > horizon) & (lam_max > 2.0)).any()

    def test_decay_asymmetry_skews_the_spectrum(self, kaon):
        # unequal widths push lambda_max and |lambda_min| apart; equal widths
        # keep the scan nearly symmetric
        grid = [0.05 * i for i in range(1, 121)]
        equal = MesonParams(kaon.gamma_l, kaon.gamma_l, 0.0, "equalwidth")
        scan_k = scan_bell("alternating-1", grid, kaon)
        scan_e = scan_bell("alternating-1", grid, equal)

        def asymmetry(scan):
            return abs(scan.lambda_max.max() + scan.lambda_min.min())

        assert asymmetry(scan_k) > 10.0 * asymmetry(scan_e)

    def test_bmeson_scan_respects_tsirelson(self, bmeson):
        grid = [0.05 * i for i in range(1, 121)]
        scan = scan_bell("alternating-1", grid, bmeson)
        assert np.abs(scan.lambda_max).max() <= 2.0 * SQRT2 + 1e-9
        assert np.abs(scan.lambda_min).max() <= 2.0 * SQRT2 + 1e-9

    def test_input_validation(self, kaon):
        with pytest.raises(ValueError, match="unknown time policy"):
            scan_bell("nope", [0.1], kaon)
        with pytest.raises(ValueError, match="empty"):
            scan_bell("all-equal", [], kaon)
        with pytest.raises(ValueError, match="sorted"):
            scan_bell("all-equal", [1.0, 0.5], kaon)
        with pytest.raises(ValueError, match="^time grid must be one-dimensional$"):
            scan_bell("all-equal", np.array([[0.1, 0.2]]), kaon)
        with pytest.raises(ValueError, match="^need four quasispins, got 3$"):
            scan_bell("all-equal", [0.1, 0.2], kaon, (K0BAR_DIRECTION,) * 3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"t_m must be finite, got {bad}"):
                scan_bell("alternating-1", [0.0, bad], kaon)
            with pytest.raises(ValueError, match=f"t_np must be finite, got {bad}"):
                strangeness_setting(0.0, 0.0, bad, 0.0)

    def test_negative_times_rejected(self, kaon):
        with pytest.raises(ValueError):
            BellSetting(K0BAR_DIRECTION, -0.1, K0BAR_DIRECTION, 0.0,
                        K0BAR_DIRECTION, 0.0, K0BAR_DIRECTION, 0.0)


def per_point_row(quasispins, times, params, cp_mode):
    """One grid point the way the witness used to be solved, point by point.

    Four effective operators, the eigenvalues of the 4x4 kron witness, and
    the summand bound from the eigenpairs of O_n, O_n' and O_m -/+ O_m'.
    The B pairs come from the traceless parts (n_m -/+ n_m').sigma, which
    have the same eigenvectors: the matrices hold their identity part -n0
    only to 1e-16 absolute, and eigh on them loses direction digits where
    the gap 2|n_m -/+ n_m'| is small (1.1e-11 in the bound at t = 10 for
    the B meson, against a 50-digit evaluation).
    """
    build = effective_operator_cp if cp_mode else effective_operator
    o_n, o_m, o_np, o_mp = (build(q, t, params)
                            for q, t in zip(quasispins, times))
    bell = (np.kron(o_n.matrix, o_m.matrix - o_mp.matrix)
            + np.kron(o_np.matrix, o_m.matrix + o_mp.matrix))
    vals = hermitian_eigen(bell)[0]
    pair_b1, pair_b2 = (
        eigenpair_from_matrix(np.tensordot(n, np.array(PAULI), axes=1))
        for n in (o_m.bloch - o_mp.bloch, o_m.bloch + o_mp.bloch))
    if pair_b1.degenerate or pair_b2.degenerate:
        mu = 0.0
    else:
        mu = bipartite_mu_bound(spectral(o_n), spectral(o_np),
                                pair_b1, pair_b2).bound
    return vals[-1], vals[0], mu


EQUAL_WIDTH = MesonParams(kaon_defaults().gamma_l, kaon_defaults().gamma_l,
                          0.0, "equalwidth")
SCAN_PRESETS = (kaon_defaults(), bmeson_defaults(), EQUAL_WIDTH)
# t = 0 (degenerate B factor for coinciding B questions), dense short times,
# and long times up to 2000 dm, where the B meson's A pairs are degenerate
SCAN_GRID = sorted({0.0, *np.linspace(0.0, 8.0, 41).tolist(),
                    *np.linspace(10.0, 2000.0, 12).tolist()})


class TestBatchedScan:
    @pytest.mark.parametrize("policy", sorted(TIME_POLICIES))
    @pytest.mark.parametrize("params", SCAN_PRESETS, ids=lambda p: p.label)
    @pytest.mark.parametrize("cp_mode", [False, True])
    def test_matches_per_point_reference(self, policy, params, cp_mode, rng):
        random_qs = tuple(Quasispin(rng.uniform(0, math.pi),
                                    rng.uniform(0, 2 * math.pi))
                          for _ in range(4))
        for qs in ((K0BAR_DIRECTION,) * 4, random_qs):
            scan = scan_bell(policy, SCAN_GRID, params, qs, cp_mode=cp_mode)
            columns = (scan.lambda_min, scan.lambda_max, scan.summand_mu_bound)
            assert all(c.shape == (len(SCAN_GRID),) for c in columns)
            for t, lam_min, lam_max, mu_row in zip(SCAN_GRID, *columns):
                times = TIME_POLICIES[policy](t)
                lo, hi, mu = per_point_row(qs, times, params, cp_mode)
                assert abs(lam_min - lo) <= 1e-12
                assert abs(lam_max - hi) <= 1e-12
                assert abs(mu_row - mu) <= 1e-12

    def test_reference_covers_degenerate_rows(self, kaon, bmeson):
        # the grid reaches both rules: a degenerate B factor at t = 0 and
        # a degenerate A pair (|w|^2 < 1e-14) at long times
        scan = scan_bell("alternating-1", SCAN_GRID, kaon)
        assert SCAN_GRID[0] == 0.0 and scan.summand_mu_bound[0] == 0.0
        o = effective_operator(K0BAR_DIRECTION, SCAN_GRID[-1], bmeson)
        assert spectral(o).degenerate

    def test_bell_bounds_is_the_one_row_scan(self, rng):
        for params in SCAN_PRESETS:
            for policy, times in TIME_POLICIES.items():
                for cp_mode in (False, True):
                    qs = [Quasispin(rng.uniform(0, math.pi),
                                    rng.uniform(0, 2 * math.pi))
                          for _ in range(4)]
                    t = float(rng.uniform(0, 6))
                    t_n, t_m, t_np, t_mp = times(t)
                    s = BellSetting(qs[0], t_n, qs[1], t_m, qs[2], t_np,
                                    qs[3], t_mp, cp_mode=cp_mode)
                    rep = bell_bounds(s, params)
                    assert type(rep.lambda_min) is type(rep.lambda_max) is float
                    scan = scan_bell(policy, [t], params, tuple(qs), cp_mode)
                    assert (rep.lambda_min, rep.lambda_max, rep.summand_mu_bound) \
                        == (scan.lambda_min[0], scan.lambda_max[0],
                            scan.summand_mu_bound[0])

    def test_non_hermitian_witness_rejected(self, kaon, monkeypatch):
        witness = mesonq.bell._witness

        def skewed(*obs):
            bell = witness(*obs)
            bell[..., 0, 1] += 1e-6
            return bell

        monkeypatch.setattr(mesonq.bell, "_witness", skewed)
        with pytest.raises(ValueError, match="not hermitian"):
            scan_bell("alternating-1", [0.5, 1.0], kaon)

    def test_hermiticity_checked_per_matrix(self):
        stack = np.array([np.eye(4), np.eye(4)], dtype=complex)
        _require_hermitian(stack)
        stack[1, 2, 3] = 1e-6
        with pytest.raises(ValueError, match="not hermitian"):
            _require_hermitian(stack)

    def test_residual_check_on_side_a(self, kaon, monkeypatch):
        # a Hermitian perturbation keeps the witness valid but moves the
        # observables off the eigenpairs read from their amplitudes
        monkeypatch.setattr(mesonq.bell, "_rank_one",
                            lambda w: _rank_one(w) + 1e-6 * PAULI_Z)
        with pytest.raises(AssertionError, match="residual check"):
            scan_bell("alternating-1", [0.5, 1.0], kaon)

    @given(params=st.sampled_from(SCAN_PRESETS), cp_mode=st.booleans(),
           angles=st.lists(st.floats(0.0, math.pi), min_size=8, max_size=8),
           times=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
                          min_size=4, max_size=4),
           tie_b=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_summand_bound_matches_eigh_route(self, params, cp_mode, angles,
                                              times, tie_b):
        qs = [Quasispin(a, 2.0 * f) for a, f in zip(angles[::2], angles[1::2])]
        if tie_b:  # O_m = O_m' makes the B factor O_m - O_m' degenerate
            qs[3], times[3] = qs[1], times[1]
        s = BellSetting(qs[0], times[0], qs[1], times[1], qs[2], times[2],
                        qs[3], times[3], cp_mode=cp_mode)
        mu = bell_bounds(s, params).summand_mu_bound
        want = per_point_row(qs, times, params, cp_mode)[2]
        assert abs(mu - want) <= 1e-11
        if tie_b:
            assert mu == want == 0.0

    def test_negative_grid_time_rejected(self, kaon):
        with pytest.raises(ValueError, match="nonnegative"):
            scan_bell("alternating-1", [-0.1, 0.5], kaon)

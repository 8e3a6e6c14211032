import math

import numpy as np
import pytest

from mesonq import (
    K0BAR_DIRECTION, Quasispin, bipartite_expectation, bmeson_defaults,
    cp_basis_data, effective_operator, evolve_bipartite, evolve_single_closed,
    joint_probabilities, kaon_defaults, lindblad_integrate, singlet_state,
)
from mesonq.core import MesonParams, mass_to_strangeness_matrix
from mesonq.evolution import (
    DensityMatrix, embed_surviving, pure_density, quasispin_projector4,
    singlet_vector, surviving_pair, _closed_map4, _liouvillian_block,
    _rk4_propagator, _rk4_step,
)

from conftest import (
    min_eigenvalue, random_density, random_pure_state, surviving_trace,
)


def surviving_pair_block(rho16):
    return rho16.reshape(4, 4, 4, 4)[:2, :2, :2, :2].reshape(4, 4)


def surviving_pair_density(rng):
    """Random pair state on the surviving x surviving slots only."""
    rho = np.zeros((16, 16), dtype=complex)
    rho[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])] = random_density(rng, 4)
    return rho


def rk4_reference(rho, t, params, dt=1e-3, summed_generator=False):
    """Stage-wise fixed-step RK4 of the Lindblad equation, written out literally.

    Same Hamiltonian, decay generators, step count, output mask and
    symmetrisation as lindblad_integrate, which must reproduce it.
    """
    h = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
    a = np.zeros((4, 4), dtype=complex)
    a[3, 0] = math.sqrt(params.gamma_s)
    a[2, 1] = math.sqrt(params.gamma_l)
    gens = [a]
    mask = np.zeros((4, 4))
    mask[:2, :2] = 1.0
    mask[2, 2] = mask[3, 3] = 1.0
    if rho.shape == (16, 16):
        i4 = np.eye(4)
        h = np.kron(h, i4) + np.kron(i4, h)
        gens = [np.kron(a, i4), np.kron(i4, a)]
        if summed_generator:
            gens = [gens[0] + gens[1]]
        mask = np.kron(mask, mask)

    def rhs(r):
        out = -1j * (h @ r - r @ h)
        for g in gens:
            ada = g.conj().T @ g
            out = out + g @ r @ g.conj().T - 0.5 * (ada @ r + r @ ada)
        return out

    steps = max(1, math.ceil(t / dt))
    step = t / steps
    r = np.asarray(rho, dtype=complex)
    for _ in range(steps):
        k1 = rhs(r)
        k2 = rhs(r + 0.5 * step * k1)
        k3 = rhs(r + 0.5 * step * k2)
        k4 = rhs(r + step * k3)
        r = r + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return 0.5 * (r + r.conj().T) * mask


class TestClosedForm:
    def test_time_zero_is_identity(self, kaon, rng):
        rho = random_density(rng)
        out = evolve_single_closed(rho, 0.0, kaon).entries
        assert np.abs(out[:2, :2] - rho).max() < 1e-15
        assert np.abs(out[2:, 2:]).max() == 0.0

    def test_short_lived_decay_population(self, kaon):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = evolve_single_closed(rho, 1.0 / kaon.gamma_s, kaon).entries
        assert out[0, 0].real == pytest.approx(math.exp(-1.0), abs=1e-14)
        assert out[3, 3].real == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)
        assert out[2, 2] == 0.0

    def test_coherence_oscillates_and_damps(self, kaon):
        rho = 0.5 * np.ones((2, 2), dtype=complex)  # (K_S + K_L)/sqrt(2)
        out = evolve_single_closed(rho, 1.0, kaon).entries
        want = 0.5 * np.exp((1j - kaon.gamma_mean) * 1.0)
        assert out[0, 1] == pytest.approx(want, abs=1e-14)
        # the integrator is the independent oracle for the phase direction
        num = lindblad_integrate(embed_surviving(rho), 1.0, kaon).entries
        assert abs(num[0, 1] - want) < 1e-9

    def test_negative_time_rejected(self, kaon):
        with pytest.raises(ValueError):
            evolve_single_closed(np.eye(2) / 2, -0.5, kaon)

    def test_non_finite_input_rejected(self, kaon):
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                evolve_single_closed(np.eye(2) / 2, t, kaon)
        with pytest.raises(ValueError, match="finite"):
            evolve_single_closed(np.full((2, 2), math.nan), 0.1, kaon)
        with pytest.raises(ValueError, match="expected a 2x2 or 4x4 state"):
            evolve_single_closed(np.eye(3) / 3, 0.1, kaon)

    def test_markov_composition(self, kaon, rng):
        rho = embed_surviving(random_density(rng))
        one = evolve_single_closed(evolve_single_closed(rho, 0.7, kaon), 1.1, kaon)
        two = evolve_single_closed(rho, 1.8, kaon)
        assert np.abs(one.entries - two.entries).max() < 1e-12

    def test_trace_and_positivity_along_trajectory(self, kaon, rng):
        rho = embed_surviving(random_density(rng))
        for t in np.arange(0.0, 20.0, 0.25):
            out = evolve_single_closed(rho, float(t), kaon)
            assert abs(out.trace - 1.0) < 1e-12
            assert min_eigenvalue(out) > -1e-10

    def test_surviving_trace_monotone(self, kaon, rng):
        rho = embed_surviving(random_density(rng))
        traces = [surviving_trace(evolve_single_closed(rho, float(t), kaon))
                  for t in np.arange(0.0, 5.0, 0.01)]
        assert all(b <= a + 1e-12 for a, b in zip(traces, traces[1:]))


class TestLindbladIntegrator:
    def test_time_zero(self, kaon, rng):
        rho = embed_surviving(random_density(rng))
        out = lindblad_integrate(rho, 0.0, kaon).entries
        assert np.abs(out - rho).max() < 1e-15

    def test_matches_closed_form_for_pure_short(self, kaon):
        rho = embed_surviving(np.diag([1.0, 0.0]).astype(complex))
        a = evolve_single_closed(rho, 1.0, kaon).entries
        b = lindblad_integrate(rho, 1.0, kaon).entries
        assert np.abs(a - b).max() < 1e-8

    def test_matches_closed_form_random_states(self, kaon, rng):
        for _ in range(10):
            rho = embed_surviving(random_density(rng))
            for t in (0.1, 1.0, 5.0):
                a = evolve_single_closed(rho, t, kaon).entries
                b = lindblad_integrate(rho, t, kaon).entries
                assert np.abs(a - b).max() < 1e-8

    def test_everything_decays_eventually(self, bmeson):
        rho = embed_surviving(0.5 * np.eye(2, dtype=complex))
        out = lindblad_integrate(rho, 20.0, bmeson, dt=2e-3)
        assert surviving_trace(out) < 1e-10
        assert out.trace == pytest.approx(1.0, abs=1e-9)

    def test_trace_conservation_rate(self, kaon, rng):
        rho = embed_surviving(random_density(rng))
        out = lindblad_integrate(rho, 2.0, kaon, dt=1e-3)
        assert abs(out.trace - 1.0) < 2e-9  # 1e-9 per unit time

    def test_oversized_step_rejected(self, bmeson):
        rho = embed_surviving(np.diag([0.5, 0.5]).astype(complex))
        with pytest.raises(ValueError, match="reduce dt"):
            lindblad_integrate(rho, 5.0, bmeson, dt=0.5)
        with pytest.raises(ValueError, match="reduce dt"):
            lindblad_integrate(singlet_state(), 5.0, bmeson, dt=0.5)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma_s", [1e60, 1e200, 1e308])
    @pytest.mark.parametrize("dim,summed", [(4, False), (16, False), (16, True)],
                             ids=["single", "pair", "pair-summed"])
    def test_huge_width_fails_the_error_check_without_warning(self, gamma_s,
                                                              dim, summed):
        # step * L overflows P and the step-doubling estimate
        params = MesonParams(gamma_s=gamma_s, gamma_l=2.0)
        rho = (embed_surviving(np.diag([1.0, 0.0])) if dim == 4
               else singlet_state())
        with pytest.raises(ValueError, match="integration error above 1e-6"):
            lindblad_integrate(rho, 0.5, params, summed_generator=summed)

    def test_vector_step_matches_propagator(self, rng):
        # the step-doubling estimate applies the half step to vectors
        for d in (4, 16, 64):
            lv = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            v = random_pure_state(rng, d)
            want = _rk4_propagator(5e-4 * lv) @ v
            assert np.abs(_rk4_step(lv, v, 5e-4) - want).max() <= 1e-15

    def test_input_validation(self, kaon):
        rho = embed_surviving(np.eye(2) / 2)
        with pytest.raises(ValueError):
            lindblad_integrate(rho, 1.0, kaon, dt=-1e-3)
        with pytest.raises(ValueError, match="expected a 4x4 or 16x16 state"):
            lindblad_integrate(np.eye(2) / 2, 1.0, kaon)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                lindblad_integrate(rho, bad, kaon)
            with pytest.raises(ValueError, match="dt must be finite"):
                lindblad_integrate(rho, 1.0, kaon, dt=bad)
            state = rho.copy()
            state[0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                lindblad_integrate(state, 0.1, kaon)
        with pytest.raises(ValueError, match="finite"):
            lindblad_integrate(np.full((4, 4), math.nan), 0.1, kaon)
        with pytest.raises(ValueError, match="finite"):
            lindblad_integrate(np.full((16, 16), math.nan), 0.0, kaon)

    def test_matches_stagewise_rk4(self, kaon, rng):
        cases = [
            (embed_surviving(random_density(rng)), 0.3, False),
            (random_density(rng, 4), 0.3, False),
            (singlet_state().entries, 0.1, False),
            (singlet_state().entries, 0.1, True),
            (random_density(rng, 16), 0.05, False),
            (random_density(rng, 16), 0.05, True),
            (np.zeros((4, 4)), 0.1, False),
            # P^n by binary powering, 1,000 to 5,000 steps on the 16-entry
            # block, 300 on the 16- and 64-entry pair blocks and 300 and 2,000
            # on the 256-entry block of a full pair state
            (random_density(rng, 4), 1.0, False),
            (random_density(rng, 4), 5.0, False),
            (singlet_state().entries, 0.3, False),
            (singlet_state().entries, 0.3, True),
            (surviving_pair_density(rng), 0.3, False),
            (surviving_pair_density(rng), 0.3, True),
            (random_density(rng, 16), 0.3, False),
            (random_density(rng, 16), 0.3, True),
            (random_density(rng, 16), 2.0, False),
            # t = 0: one step of size zero
            (random_density(rng, 4), 0.0, False),
        ]
        # step counts 1, 2, 127 and 128: one set bit with no squaring, one
        # squaring before the only product, seven set bits, a lone top bit
        cases += [(state, t, False) for t in (0.001, 0.002, 0.127, 0.128)
                  for state in (random_density(rng, 4), surviving_pair_density(rng))]
        for rho, t, summed in cases:
            want = rk4_reference(rho, t, kaon, summed_generator=summed)
            got = lindblad_integrate(rho, t, kaon, summed_generator=summed)
            assert np.abs(got.entries - want).max() < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.05])
    @pytest.mark.parametrize("summed", [False, True])
    def test_blocked_integrator_matches_stagewise_rk4(self, kaon, bmeson, rng,
                                                      t, summed):
        # the empty support has no blocks at all; a surviving pair has 16 of
        # 4 entries (6 with the summed generator), a full pair 144 of <= 4
        states = [np.zeros((4, 4)), np.zeros((16, 16)), random_density(rng, 4),
                  surviving_pair_density(rng), random_density(rng, 16)]
        for params in (kaon, bmeson):
            for rho in states:
                want = rk4_reference(rho, t, params, summed_generator=summed)
                got = lindblad_integrate(rho, t, params, summed_generator=summed)
                assert np.abs(got.entries - want).max() < 1e-12

    def test_full_support_matches_closed_form(self, kaon, rng):
        # every entry is populated, so the integrator runs on the whole space
        rho4 = random_density(rng, 4)
        a = evolve_single_closed(rho4, 1.0, kaon).entries
        b = lindblad_integrate(rho4, 1.0, kaon).entries
        assert np.abs(a - b).max() < 1e-8
        rho16 = random_density(rng, 16)
        a = evolve_bipartite(rho16, 0.3, kaon).entries
        b = lindblad_integrate(rho16, 0.3, kaon).entries
        assert np.abs(a - b).max() < 1e-8


class TestLiouvillianBlockCache:
    def test_warm_calls_equal_cold_calls(self, kaon, rng):
        cases = [(embed_surviving(random_density(rng)), 0.3, False),
                 (surviving_pair_density(rng), 0.1, False),
                 (random_density(rng, 16), 0.05, False),
                 (surviving_pair_density(rng), 0.1, True)]
        for rho, t, summed in cases:
            _liouvillian_block.cache_clear()
            cold = lindblad_integrate(rho, t, kaon, summed_generator=summed).entries
            warm = lindblad_integrate(rho, t, kaon, summed_generator=summed).entries
            assert _liouvillian_block.cache_info().hits == 1
            assert np.array_equal(cold, warm)

    def test_block_is_read_only(self, kaon, rng):
        rho = surviving_pair_density(rng)
        idx, blocks = _liouvillian_block(kaon.gamma_s, kaon.gamma_l, 16, False,
                                         (rho != 0).tobytes())
        with pytest.raises(ValueError):
            idx[0, 0] = 1
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 0.0

    @pytest.mark.parametrize("support, summed, shape", [
        (embed_surviving(np.ones((2, 2))), False, (4, 2)),
        (np.ones((4, 4)), False, (12, 2)),
        (surviving_pair_density(np.random.default_rng(0)), False, (16, 4)),
        (surviving_pair_density(np.random.default_rng(0)), True, (16, 6)),
        (np.ones((16, 16)), False, (144, 4)),
        (np.zeros((4, 4)), False, (0, 0)),
    ])
    def test_independent_blocks(self, kaon, support, summed, shape):
        dim = len(support)
        idx, blocks = _liouvillian_block(kaon.gamma_s, kaon.gamma_l, dim, summed,
                                         (support != 0).tobytes())
        assert idx.shape == shape and blocks.shape == shape + shape[-1:]
        # every entry sits in one block; padding points past vec(rho) and has
        # zero rows and columns
        entries = idx[idx < dim * dim]
        assert len(np.unique(entries)) == len(entries)
        pad = idx == dim * dim
        assert not blocks[pad].any() and not blocks.transpose(0, 2, 1)[pad].any()
        # the blocks are the whole of L on the reachable entries
        h = np.diag([0.0, 1.0, 0.0, 0.0])
        a = np.zeros((4, 4))
        a[3, 0], a[2, 1] = math.sqrt(kaon.gamma_s), math.sqrt(kaon.gamma_l)
        gens = [a]
        if dim == 16:
            i4 = np.eye(4)
            h = np.kron(h, i4) + np.kron(i4, h)
            gens = [np.kron(a, i4), np.kron(i4, a)]
            gens = [gens[0] + gens[1]] if summed else gens
        g = -1j * h - 0.5 * sum(x.T @ x for x in gens)
        eye = np.eye(dim)
        full = np.kron(g, eye) + np.kron(eye, g.conj()) + sum(np.kron(x, x) for x in gens)
        dense = np.zeros((dim * dim + 1,) * 2, dtype=complex)
        dense[idx[:, :, None], idx[:, None, :]] = blocks
        keep = np.sort(entries)
        assert np.abs(dense[np.ix_(keep, keep)] - full[np.ix_(keep, keep)]).max(
            initial=0.0) <= 1e-15
        # the reachable entries feed nothing outside them
        rest = np.setdiff1d(np.arange(dim * dim), keep)
        assert not full[np.ix_(rest, keep)].any()

    def test_each_key_gets_its_own_block(self, kaon, bmeson, rng):
        single = embed_surviving(random_density(rng))
        pair = surviving_pair_density(rng)
        cases = [(single, kaon, False), (random_density(rng, 4), kaon, False),
                 (pair, kaon, False), (pair, kaon, True), (pair, bmeson, False)]
        _liouvillian_block.cache_clear()
        for k, (rho, params, summed) in enumerate(cases, start=1):
            got = lindblad_integrate(rho, 0.1, params, summed_generator=summed)
            assert _liouvillian_block.cache_info().misses == k
            want = rk4_reference(rho, 0.1, params, summed_generator=summed)
            assert np.abs(got.entries - want).max() < 1e-12
        assert _liouvillian_block.cache_info().hits == 0

    def test_delta_shares_the_block(self, kaon, rng):
        rho = embed_surviving(random_density(rng))
        tilted = MesonParams(kaon.gamma_s, kaon.gamma_l, delta=3.3e-3)
        _liouvillian_block.cache_clear()
        a = lindblad_integrate(rho, 0.5, kaon).entries
        b = lindblad_integrate(rho, 0.5, tilted).entries
        info = _liouvillian_block.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert np.array_equal(a, b)


class TestBipartite:
    def test_product_state_factorizes(self, kaon, rng):
        rho_a = embed_surviving(random_density(rng))
        rho_b = embed_surviving(random_density(rng))
        out = evolve_bipartite(np.kron(rho_a, rho_b), 1.3, kaon).entries
        want = np.kron(evolve_single_closed(rho_a, 1.3, kaon).entries,
                       evolve_single_closed(rho_b, 1.3, kaon).entries)
        assert np.abs(out - want).max() < 1e-12

    def test_non_finite_time_rejected(self, kaon):
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                evolve_bipartite(singlet_state(), t, kaon)

    def test_wrong_shape_rejected(self, kaon):
        with pytest.raises(ValueError, match="expected a 16x16 pair state"):
            evolve_bipartite(np.eye(4) / 4, 1.0, kaon)

    def test_matches_kron_of_single_maps(self, kaon, rng):
        # test-local Phi x Phi: phi[a, c, p, r] = Phi(E_pr)[a, c] from the
        # single-particle map on Hermitian combinations of the basis matrices
        def single_map(t):
            phi = np.zeros((4, 4, 4, 4), dtype=complex)
            for p in range(4):
                for r in range(4):
                    e_pr, e_rp = np.zeros((4, 4)), np.zeros((4, 4))
                    e_pr[p, r] = e_rp[r, p] = 1.0
                    sym = evolve_single_closed(e_pr + e_rp, t, kaon).entries
                    anti = evolve_single_closed(1j * (e_pr - e_rp), t, kaon).entries
                    phi[:, :, p, r] = 0.5 * (sym - 1j * anti)
            return phi

        states = [singlet_state().entries, random_density(rng, 16)]
        states += [pure_density(random_pure_state(rng, 16)).entries for _ in range(3)]
        for t in (0.0, 0.3, 1.7, 6.0):
            phi = single_map(t)
            for rho in states:
                want = np.einsum("acpr,bdqs,pqrs->abcd", phi, phi,
                                 rho.reshape(4, 4, 4, 4), optimize=True)
                out = evolve_bipartite(rho, t, kaon).entries
                assert np.abs(out - want.reshape(16, 16)).max() <= 1e-15

    def test_singlet_unchanged_at_zero(self, kaon):
        psi = singlet_state()
        out = evolve_bipartite(psi, 0.0, kaon)
        assert np.abs(out.entries - psi.entries).max() < 1e-15

    def test_matches_16dim_integrator_on_singlet(self, kaon):
        psi = singlet_state()
        a = evolve_bipartite(psi, 1.0, kaon).entries
        b = lindblad_integrate(psi, 1.0, kaon).entries
        assert np.abs(a - b).max() < 1e-8

    def test_trace_and_positivity(self, kaon):
        psi = singlet_state()
        for t in (0.0, 0.5, 2.0, 10.0, 20.0):
            out = evolve_bipartite(psi, t, kaon)
            assert abs(out.trace - 1.0) < 1e-10
            assert min_eigenvalue(out) > -1e-9

    def test_markov_composition(self, kaon):
        psi = singlet_state()
        one = evolve_bipartite(evolve_bipartite(psi, 0.9, kaon), 0.6, kaon)
        two = evolve_bipartite(psi, 1.5, kaon)
        assert np.abs(one.entries - two.entries).max() < 1e-12

    def test_summed_generator_breaks_factorization(self, kaon):
        # the variant with one summed decay generator couples the two decays:
        # product states stop factorizing, unlike the independent default
        plus = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        prod = pure_density(np.kron(plus, plus))
        factorized = evolve_bipartite(prod, 1.0, kaon).entries
        independent = lindblad_integrate(prod, 1.0, kaon).entries
        summed = lindblad_integrate(prod, 1.0, kaon, summed_generator=True).entries
        assert np.abs(independent - factorized).max() < 1e-8
        assert np.abs(summed - factorized).max() > 1e-3


class TestSinglet:
    def test_surviving_pair_block(self):
        surv = surviving_pair(singlet_state())
        assert surv.shape == (4, 4)
        assert np.trace(surv).real == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(ValueError, match="expected a 16x16 pair state"):
            surviving_pair(np.arange(256.0))

    def test_trace_one_pure(self):
        psi = singlet_state()
        assert psi.trace == pytest.approx(1.0, abs=1e-14)
        assert np.abs(psi.entries @ psi.entries - psi.entries).max() < 1e-14

    def test_marginals_maximally_mixed(self):
        r = singlet_state().entries.reshape(4, 4, 4, 4)
        red_a = np.einsum("abcb->ac", r)
        red_b = np.einsum("abad->bd", r)
        want = np.diag([0.5, 0.5, 0.0, 0.0])
        assert np.abs(red_a - want).max() < 1e-14
        assert np.abs(red_b - want).max() < 1e-14

    def test_antisymmetric_in_mass_basis(self):
        # rotating both factors to the mass basis leaves the antisymmetric
        # combination invariant up to a global phase; decay slots stay put
        to_mass = np.eye(4, dtype=complex)
        m = mass_to_strangeness_matrix(cp_basis_data(0.0))
        to_mass[:2, :2] = np.linalg.inv(m)
        w = np.kron(to_mass, to_mass) @ singlet_vector()
        want = np.zeros(16, dtype=complex)
        want[1 * 4 + 0] = -1.0 / math.sqrt(2.0)  # |K_L K_S>
        want[0 * 4 + 1] = 1.0 / math.sqrt(2.0)   # |K_S K_L>
        phase = np.vdot(want, w)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.abs(w - phase * want).max() < 1e-12


def joint_reference(rho, k_n, t_n, k_m, t_m, params):
    """(p_yy, p_yn, p_ny, p_nn) with side B's yes and no branches one at a time.

    The pair runs to t_m through the public evolve_bipartite; each branch
    projects side B, traces it out and runs side A on to t_n.
    """
    r = evolve_bipartite(rho, t_m, params).entries.reshape(4, 4, 4, 4)
    p_m = quasispin_projector4(k_m)
    p_n = quasispin_projector4(k_n)
    probs = {}
    for yes_m, x_b in ((True, p_m), (False, np.eye(4) - p_m)):
        sigma = np.einsum("bq,aqcb->ac", x_b, r)  # Tr_B[(1 x X) rho]
        sigma = _closed_map4(0.5 * (sigma + sigma.conj().T), t_n - t_m, params)
        p_yes = float(np.trace(p_n @ sigma).real)
        probs[(True, yes_m)] = p_yes
        probs[(False, yes_m)] = float(np.trace(sigma).real) - p_yes
    return (probs[(True, True)], probs[(True, False)],
            probs[(False, True)], probs[(False, False)])


class TestJointProbabilities:
    @pytest.mark.parametrize("params", [kaon_defaults(), bmeson_defaults()],
                             ids=lambda p: p.label)
    def test_matches_per_branch_reference(self, params, rng):
        # random full and surviving-only pair states; equal times, and sides
        # decayed to exactly nothing (every e^{-Gamma t} underflows at t = 1e6)
        states = ([random_density(rng, 16) for _ in range(10)]
                  + [surviving_pair_density(rng) for _ in range(10)]
                  + [singlet_state()])
        for rho in states:
            for _ in range(6):
                q_n, q_m = (Quasispin(rng.uniform(0, math.pi),
                                      rng.uniform(0, 2 * math.pi)) for _ in range(2))
                t_m = float(rng.uniform(0.0, 3.0))
                for t_n, t_m in ((t_m + float(rng.uniform(0.0, 3.0)), t_m),
                                 (t_m, t_m), (t_m + 1e6, t_m), (1e6, 1e6)):
                    jo = joint_probabilities(rho, q_n, t_n, q_m, t_m, params)
                    want = joint_reference(rho, q_n, t_n, q_m, t_m, params)
                    got = (jo.p_yy, jo.p_yn, jo.p_ny, jo.p_nn)
                    assert np.abs(np.subtract(got, want)).max() <= 1e-15

    def test_perfect_anticorrelation_at_zero(self, kaon):
        jo = joint_probabilities(singlet_state(), K0BAR_DIRECTION, 0.0,
                                 K0BAR_DIRECTION, 0.0, kaon)
        assert jo.p_yy == pytest.approx(0.0, abs=1e-12)
        assert jo.p_nn == pytest.approx(0.0, abs=1e-12)
        assert jo.p_yn == pytest.approx(0.5, abs=1e-12)
        assert jo.p_ny == pytest.approx(0.5, abs=1e-12)

    def test_probabilities_sum_to_one(self, kaon, rng):
        psi = singlet_state()
        for _ in range(10):
            q1 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            q2 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
            t_m = rng.uniform(0, 2)
            jo = joint_probabilities(psi, q1, t_m + rng.uniform(0, 2), q2, t_m, kaon)
            assert jo.p_yy + jo.p_yn + jo.p_ny + jo.p_nn == pytest.approx(1.0, abs=1e-10)
            for p in (jo.p_yy, jo.p_yn, jo.p_ny, jo.p_nn):
                assert -1e-12 <= p <= 1.0 + 1e-12

    def test_everything_decayed_counts_as_no(self, kaon):
        jo = joint_probabilities(singlet_state(), K0BAR_DIRECTION, 1.0e4,
                                 K0BAR_DIRECTION, 0.0, kaon)
        assert jo.p_yy < 1e-12
        assert jo.p_yn < 1e-12

    def test_ordering_enforced(self, kaon):
        with pytest.raises(ValueError):
            joint_probabilities(singlet_state(), K0BAR_DIRECTION, 0.5,
                                K0BAR_DIRECTION, 1.0, kaon)

    def test_non_finite_times_rejected(self, kaon):
        psi = singlet_state()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t_m must be finite"):
                joint_probabilities(psi, K0BAR_DIRECTION, 1.0,
                                    K0BAR_DIRECTION, bad, kaon)
            with pytest.raises(ValueError, match="t_n must be finite"):
                joint_probabilities(psi, K0BAR_DIRECTION, bad,
                                    K0BAR_DIRECTION, 0.5, kaon)

    def test_wrong_shape_rejected(self, kaon):
        with pytest.raises(ValueError, match="expected a 16x16 pair state"):
            joint_probabilities(np.eye(4) / 4, K0BAR_DIRECTION, 1.0,
                                K0BAR_DIRECTION, 0.5, kaon)

    def test_expectation_matches_effective_operators(self, kaon):
        psi = singlet_state()
        jo = joint_probabilities(psi, K0BAR_DIRECTION, 1.0, K0BAR_DIRECTION,
                                 0.0, kaon)
        o_n = effective_operator(K0BAR_DIRECTION, 1.0, kaon)
        o_m = effective_operator(K0BAR_DIRECTION, 0.0, kaon)
        e_eff = bipartite_expectation(o_n, o_m, surviving_pair_block(psi.entries))
        assert jo.expectation == pytest.approx(e_eff, abs=1e-9)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf):
            m = np.eye(2) / 2
            m[0, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                DensityMatrix(m)
        with pytest.raises(ValueError, match="finite"):
            DensityMatrix(np.full((4, 4), math.nan))

    def test_rejects_bad_shape(self):
        for bad in (np.eye(3), np.ones(4)):
            with pytest.raises(ValueError, match="expected a 2x2 or 4x4 or 16x16 "
                               "density matrix"):
                DensityMatrix(bad)

    def test_equality_is_identity(self):
        # a generated __eq__ over the numpy entries would raise ValueError
        a, b = DensityMatrix(np.eye(2) / 2), DensityMatrix(np.eye(2) / 2)
        assert a == a
        assert (a == b) is False

    def test_pure_density(self, rng):
        v = random_pure_state(rng, 4)
        rho = pure_density(v)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert min_eigenvalue(rho) > -1e-12

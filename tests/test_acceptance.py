"""Acceptance checks: the headline numbers and oracle equivalences.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
"""

import math

import numpy as np

from mesonq import (
    K0BAR_DIRECTION, Quasispin, bell_bounds, bipartite_expectation,
    complementary_time, cp_bell_test, delta_for_equal_times,
    effective_operator, effective_operator_cp, evolve_single_closed,
    hermitian_eigen, joint_probabilities, kaon_defaults, lindblad_integrate,
    misid_time, mu_bound, robertson_check, scan_bell, singlet_state, spectral,
    stable_defaults,
)
from mesonq.bell import BellSetting
from mesonq.evolution import DensityMatrix, embed_surviving

from conftest import (
    cp_basis_weights, min_eigenvalue, random_density, random_pure_state,
)

KAON = kaon_defaults()
SEED = 0xB311


def report(number, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} [{number:2d}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_01_complementary_time():
    t = complementary_time(KAON)
    tau = t * KAON.gamma_s
    ok = abs(tau - 11.4) <= 0.2 and abs(t - 5.40) <= 0.10
    report(1, "complementary time", ok,
           f"{tau:.4f} tau_S / {t:.4f} dm (expect 11.4 +/- 0.2 tau_S)")


def test_criterion_02_misidentification_time():
    tau = misid_time(KAON) * KAON.gamma_s
    ok = abs(tau - 4.8) <= 0.1
    report(2, "misidentification time", ok,
           f"{tau:.4f} tau_S (expect 4.8 +/- 0.1 tau_S)")


def test_criterion_03_delta_ratio():
    ratio = delta_for_equal_times(KAON) / KAON.delta
    ok = abs(ratio - 25.0) <= 5.0
    report(3, "equal-times delta ratio", ok,
           f"{ratio:.3f} (expect 25 within 20%)")


def test_criterion_04_tsirelson_at_time_zero():
    setting = BellSetting(Quasispin(0.0, 0.0), 0.0, Quasispin(math.pi / 4, 0.0),
                          0.0, Quasispin(math.pi / 2, 0.0), 0.0,
                          Quasispin(3 * math.pi / 4, 0.0), 0.0)
    lam = bell_bounds(setting, KAON).lambda_max
    gap = abs(lam - 2.0 * math.sqrt(2.0))
    ok = gap <= 1e-9
    report(4, "Tsirelson bound at t=0", ok,
           f"lambda_max = {lam:.12f}, gap {gap:.2e} (expect <= 1e-9)")


def test_criterion_05_strangeness_bell_maximum():
    grid = [0.01 * i for i in range(1, 601)]
    peaks = {}
    for policy in ("alternating-1", "alternating-2"):
        peaks[policy] = float(scan_bell(policy, grid, KAON).lambda_max.max())
    ok = all(abs(p - 2.1) <= 0.1 for p in peaks.values())
    report(5, "strangeness Bell maximum", ok,
           f"policy (b) {peaks['alternating-1']:.4f}, "
           f"policy (c) {peaks['alternating-2']:.4f} (expect 2.1 +/- 0.1)")


def test_criterion_06_singlet_never_violates():
    ts = np.round(np.arange(0.0, 4.0 + 1e-9, 0.2), 12)
    rho = singlet_state().entries.reshape(4, 4, 4, 4)
    surv = rho[:2, :2, :2, :2].reshape(4, 4)
    mats = np.stack([effective_operator(K0BAR_DIRECTION, float(t), KAON).matrix
                     for t in ts])
    n = len(ts)
    e = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            e[i, j] = np.trace(np.kron(mats[i], mats[j]) @ surv).real
    d1 = np.abs(e[:, :, None] - e[:, None, :])
    d2 = np.abs(e[:, :, None] + e[:, None, :])
    s_max = float((d1[:, None, :, :] + d2[None, :, :, :]).max())
    ok = s_max <= 2.0 + 1e-6
    report(6, "singlet no-violation sweep", ok,
           f"max S = {s_max:.9f} over {n ** 4} time combinations (expect <= 2 + 1e-6)")


def test_criterion_07_cp_bell_dichotomy():
    plus = cp_bell_test(KAON.delta)
    minus = cp_bell_test(-KAON.delta)
    zero = cp_bell_test(0.0)
    one_each = (plus.variant_ks_violates != plus.variant_kl_violates
                and minus.variant_ks_violates != minus.variant_kl_violates)
    flips = plus.variant_ks_violates == minus.variant_kl_violates
    none_at_zero = not (zero.variant_ks_violates or zero.variant_kl_violates)
    ok = one_each and flips and none_at_zero
    report(7, "CP Bell dichotomy", ok,
           f"+delta: (KS {plus.variant_ks_violates}, KL {plus.variant_kl_violates}), "
           f"-delta: (KS {minus.variant_ks_violates}, KL {minus.variant_kl_violates}), "
           f"delta=0 margins ({zero.margin_ks:.1e}, {zero.margin_kl:.1e})")


def _embed_pair_vector(v4):
    v16 = np.zeros(16, dtype=complex)
    for a in range(2):
        for b in range(2):
            v16[a * 4 + b] = v4[a * 2 + b]
    return v16


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    worst_joint = 0.0
    for _ in range(400):
        v4 = random_pure_state(rng, 4)
        rho16 = DensityMatrix(np.outer(_embed_pair_vector(v4),
                                       _embed_pair_vector(v4).conj()))
        q_n = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        q_m = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        t_m = rng.uniform(0.0, 2.0)
        t_n = t_m + rng.uniform(0.0, 2.0)
        jo = joint_probabilities(rho16, q_n, t_n, q_m, t_m, KAON)
        e_eff = bipartite_expectation(effective_operator(q_n, t_n, KAON),
                                      effective_operator(q_m, t_m, KAON),
                                      np.outer(v4, v4.conj()))
        worst_joint = max(worst_joint, abs(jo.expectation - e_eff))
    worst_evo = 0.0
    for _ in range(100):
        rho = embed_surviving(random_density(rng))
        for t in (0.1, 1.0, 5.0):
            a = evolve_single_closed(rho, t, KAON).entries
            b = lindblad_integrate(rho, t, KAON).entries
            worst_evo = max(worst_evo, float(np.abs(a - b).max()))
    ok = worst_joint <= 1e-9 and worst_evo <= 1e-8
    report(8, "oracle equivalence", ok,
           f"700 seeded comparisons: effective-vs-probabilities {worst_joint:.2e} "
           f"(<= 1e-9), closed-vs-integrator {worst_evo:.2e} (<= 1e-8)")


def test_criterion_09_entropic_bound_structure():
    stable = stable_defaults()
    strange = Quasispin(math.pi / 2, 0.0)
    fixed_stable = spectral(effective_operator(strange, 0.0, stable))
    worst = 0.0
    for t in np.arange(0.0, 10.0, 0.01):
        got = mu_bound(spectral(effective_operator(strange, float(t), stable)),
                       fixed_stable).bound
        want = max(0.0, -2.0 * math.log2(max(abs(math.cos(0.5 * t)),
                                             abs(math.sin(0.5 * t)))))
        worst = max(worst, abs(got - want))
    fixed_kaon = spectral(effective_operator(strange, 0.0, KAON))
    min_kaon = min(mu_bound(spectral(effective_operator(strange, float(t), KAON)),
                            fixed_kaon).bound
                   for t in np.arange(0.01, 10.0 + 1e-9, 0.01))
    ok = worst <= 1e-10 and min_kaon > 0.0
    report(9, "entropic bound structure", ok,
           f"equal-width formula gap {worst:.2e} (<= 1e-10), "
           f"kaon minimum bound {min_kaon:.2e} (> 0)")


def test_criterion_10_invariant_suites():
    rng = np.random.default_rng(SEED)
    failures = []

    # trace conservation and positivity along trajectories
    worst_trace, worst_psd = 0.0, 0.0
    for _ in range(20):
        rho = embed_surviving(random_density(rng))
        for t in (0.1, 0.5, 2.0, 10.0, 20.0):
            out = evolve_single_closed(rho, t, KAON)
            worst_trace = max(worst_trace, abs(out.trace - 1.0))
            worst_psd = max(worst_psd, -min_eigenvalue(out))
    if worst_trace > 1e-10:
        failures.append(f"trace drift {worst_trace:.2e}")
    if worst_psd > 1e-9:
        failures.append(f"negative eigenvalue {worst_psd:.2e}")

    # Markov composition on the full space
    worst_markov = 0.0
    for _ in range(10):
        rho = embed_surviving(random_density(rng))
        t1, t2 = rng.uniform(0.0, 3.0, 2)
        one = evolve_single_closed(evolve_single_closed(rho, t1, KAON), t2, KAON)
        two = evolve_single_closed(rho, t1 + t2, KAON)
        worst_markov = max(worst_markov, float(np.abs(one.entries
                                                      - two.entries).max()))
    if worst_markov > 1e-10:
        failures.append(f"markov gap {worst_markov:.2e}")

    # pinned eigenvalue and eigenvector orthogonality, with and without CP
    worst_pin, worst_orth = 0.0, 0.0
    for _ in range(50):
        q = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        t = rng.uniform(0.0, 5.0)
        for build in (effective_operator, effective_operator_cp):
            o = build(q, t, KAON)
            pair = spectral(o)
            if pair.lambda2 != -1.0:
                failures.append("lambda2 not pinned")
            vals = hermitian_eigen(o.matrix)[0]
            worst_pin = max(worst_pin, abs(vals[1] + 1.0))
            worst_orth = max(worst_orth, abs(np.vdot(pair.chi1, pair.chi2)))
    if worst_pin > 1e-12:
        failures.append(f"numeric lambda2 off by {worst_pin:.2e}")
    if worst_orth > 1e-12:
        failures.append(f"eigenvector overlap {worst_orth:.2e}")

    # CP weight sum over an angle grid
    worst_w = 0.0
    for a in np.linspace(0.0, math.pi, 9):
        for phi in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
            _, _, w = cp_basis_weights(Quasispin(float(a), float(phi)), KAON)
            want = 1.0 + KAON.delta * math.sin(a) * math.cos(phi)
            worst_w = max(worst_w, abs(w - want))
    if worst_w > 1e-12:
        failures.append(f"weight identity off by {worst_w:.2e}")

    # Robertson inequality
    for _ in range(200):
        q1 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        q2 = Quasispin(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        lhs, rhs = robertson_check(effective_operator(q1, rng.uniform(0, 3), KAON),
                                   effective_operator(q2, rng.uniform(0, 3), KAON),
                                   random_pure_state(rng))
        if lhs < rhs - 1e-12:
            failures.append(f"robertson violated: {lhs} < {rhs}")
            break

    ok = not failures
    report(10, "invariant suites", ok,
           "trace/PSD/markov/pinned eigenvalue/orthogonality/weights/robertson all "
           "within tolerance" if ok else "; ".join(failures))

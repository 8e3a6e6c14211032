"""CHSH witnesses for meson pairs: operator bounds, state values, CP test.

The witness Bell = O_n x (O_m - O_m') + O_n' x (O_m + O_m') turns the CHSH
inequality into an eigenvalue problem: its extremal eigenvalues are the
quantum-reachable bounds over all initial states, with |Tr(Bell rho)| <= 2
for every local-realistic model.  Detection times enter through the effective
observables, so decay and oscillation compete inside one 4x4 matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    K0BAR_DIRECTION, MesonParams, Quasispin, cp_basis_data, hermitian_eigen,
    k0bar_state, k1_state, kl_state, ks_state, _entries, _require_finite,
)
from .effective import (
    ObservableMatrix, effective_operator, effective_operator_cp,
    eigenpair_from_matrix, spectral, _pair_expectation, _rank_one,
)
from .evolution import _surviving_pair, singlet_state
from .uncertainty import bipartite_mu_bound

__all__ = [
    "DEFAULT_SEED", "CLASSICAL_BOUND", "TSIRELSON_BOUND",
    "BellSetting", "BellReport", "ChshValue", "CpBellReport", "ScanRow",
    "bell_operator", "bell_bounds", "chsh_value", "cp_bell_test",
    "scan_bell", "sample_witness_max", "TIME_POLICIES",
]

DEFAULT_SEED = 0xB311
CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_SUMMAND_GAP_TOL = 1e-12

# detection-time assignments (t_n, t_m, t_n', t_m') as functions of the scan time
TIME_POLICIES = {
    "all-equal": lambda t: (t, t, t, t),
    "alternating-1": lambda t: (0.0, t, t, 0.0),
    "alternating-2": lambda t: (t, 0.0, 0.0, t),
}


@dataclass(frozen=True)
class BellSetting:
    """Four (quasispin, time) questions: n, n' on side A; m, m' on side B."""

    k_n: Quasispin
    t_n: float
    k_m: Quasispin
    t_m: float
    k_np: Quasispin
    t_np: float
    k_mp: Quasispin
    t_mp: float
    cp_mode: bool = False

    def __post_init__(self):
        _require_finite(t_n=self.t_n, t_m=self.t_m, t_np=self.t_np,
                        t_mp=self.t_mp)
        if min(self.t_n, self.t_m, self.t_np, self.t_mp) < 0.0:
            raise ValueError("detection times must be nonnegative")


def _observables(s: BellSetting, params: MesonParams) -> tuple[ObservableMatrix, ...]:
    build = effective_operator_cp if s.cp_mode else effective_operator
    return (build(s.k_n, s.t_n, params), build(s.k_m, s.t_m, params),
            build(s.k_np, s.t_np, params), build(s.k_mp, s.t_mp, params))


def _witness(o_n: np.ndarray, o_m: np.ndarray, o_np: np.ndarray,
             o_mp: np.ndarray) -> np.ndarray:
    return np.kron(o_n, o_m - o_mp) + np.kron(o_np, o_m + o_mp)


def bell_operator(s: BellSetting, params: MesonParams) -> np.ndarray:
    """The 4x4 Hermitian witness O_n x (O_m - O_m') + O_n' x (O_m + O_m')."""
    return _witness(*(o.matrix for o in _observables(s, params)))


@dataclass(frozen=True)
class BellReport:
    """Extremal witness eigenvalues plus the summand uncertainty bound."""

    lambda_min: float
    lambda_max: float
    summand_mu_bound: float
    classical_bound: float = CLASSICAL_BOUND
    tsirelson: float = TSIRELSON_BOUND


def _summand_bound(obs: tuple[ObservableMatrix, ...]) -> float:
    """Entropic bound between the two witness summands.

    Side A compares the O_n and O_n' eigenbases, side B the eigenbases of
    O_m -/+ O_m'.  A degenerate summand factor constrains nothing (its
    eigenbasis is free), so the bound collapses to zero there; this is what
    happens at t = 0 when both B questions coincide.
    """
    o_n, o_m, o_np, o_mp = obs
    pair_b1 = eigenpair_from_matrix(o_m.matrix - o_mp.matrix,
                                    basis=o_m.basis, gap_tol=_SUMMAND_GAP_TOL)
    pair_b2 = eigenpair_from_matrix(o_m.matrix + o_mp.matrix,
                                    basis=o_m.basis, gap_tol=_SUMMAND_GAP_TOL)
    if pair_b1.degenerate or pair_b2.degenerate:
        return 0.0
    report = bipartite_mu_bound(spectral(o_n), spectral(o_np), pair_b1, pair_b2)
    return report.bound


def bell_bounds(s: BellSetting, params: MesonParams) -> BellReport:
    obs = _observables(s, params)
    vals = hermitian_eigen(_witness(*(o.matrix for o in obs))).eigenvalues
    return BellReport(lambda_min=float(vals[-1]), lambda_max=float(vals[0]),
                      summand_mu_bound=_summand_bound(obs))


@dataclass(frozen=True)
class ChshValue:
    """CHSH combination on a given state.

    s is the two-absolute-value form; witness is Tr(Bell rho), which matches
    s only when the signs inside the bars already line up.
    """

    s: float
    witness: float


def _chsh(o_n: np.ndarray, o_m: np.ndarray, o_np: np.ndarray,
          o_mp: np.ndarray, rho4: np.ndarray) -> ChshValue:
    e_nm, e_nmp, e_npm, e_npmp = (
        _pair_expectation(a, b, rho4)
        for a, b in ((o_n, o_m), (o_n, o_mp), (o_np, o_m), (o_np, o_mp)))
    return ChshValue(s=abs(e_nm - e_nmp) + abs(e_npm + e_npmp),
                     witness=e_nm - e_nmp + e_npm + e_npmp)


def chsh_value(s: BellSetting, rho0, params: MesonParams) -> ChshValue:
    """CHSH value |E_nm - E_nm'| + |E_n'm + E_n'm'| for a t=0 pair state."""
    rho4 = _entries(rho0)
    if rho4.shape != (4, 4):
        raise ValueError("expected a 4x4 two-particle initial state")
    return _chsh(*(o.matrix for o in _observables(s, params)), rho4)


@dataclass(frozen=True)
class CpBellReport:
    """Outcome of the CP-sensitive Bell test at t = 0 on the spin singlet.

    Exactly one of the two variants (first question K_S or K_L, the other
    three fixed to K0bar and the CP-plus state) violates the CHSH bound when
    delta != 0, and which one flips with the sign of delta.
    """

    variant_ks_violates: bool
    variant_kl_violates: bool
    margin_ks: float
    margin_kl: float
    s_ks: float
    s_kl: float
    lambda_max_ks: float
    lambda_max_kl: float


def cp_bell_test(delta: float, tol: float = 1e-9) -> CpBellReport:
    """CHSH test at t = 0 with exact p,q states in the strangeness basis.

    The witness eigenvalues alone cannot separate the two variants (both
    spectra are +-2 sqrt(1 + |delta|) by the CHSH algebra), so the verdict
    uses the singlet CHSH value, which is 2 + |delta| - O(delta^2) for one
    variant and 2 - |delta| - O(delta^2) for the other.
    """
    if not abs(delta) < 0.1:
        raise ValueError("test is meant for small CP asymmetries, |delta| < 0.1")
    cp = cp_basis_data(delta)
    # (|01> - |10>)/sqrt(2) keeps its form in every basis, strangeness included
    singlet = _surviving_pair(singlet_state())

    o_k0bar = _rank_one(k0bar_state())
    o_k1 = _rank_one(k1_state())

    def run(first_state):
        ops = (_rank_one(first_state), o_k0bar, o_k1, o_k1)
        lam_max = float(hermitian_eigen(_witness(*ops)).eigenvalues[0])
        return _chsh(*ops, singlet).s, lam_max

    s_ks, lam_ks = run(ks_state(cp))
    s_kl, lam_kl = run(kl_state(cp))
    return CpBellReport(
        variant_ks_violates=s_ks > CLASSICAL_BOUND + tol,
        variant_kl_violates=s_kl > CLASSICAL_BOUND + tol,
        margin_ks=s_ks - CLASSICAL_BOUND, margin_kl=s_kl - CLASSICAL_BOUND,
        s_ks=s_ks, s_kl=s_kl, lambda_max_ks=lam_ks, lambda_max_kl=lam_kl)


@dataclass(frozen=True)
class ScanRow:
    t: float
    lambda_min: float
    lambda_max: float
    summand_mu_bound: float


def scan_bell(policy: str, t_grid, params: MesonParams,
              quasispins: tuple[Quasispin, Quasispin, Quasispin, Quasispin]
              = (K0BAR_DIRECTION,) * 4,
              cp_mode: bool = False) -> list[ScanRow]:
    """Witness bounds along a time grid under one of the detection-time policies."""
    if policy not in TIME_POLICIES:
        raise ValueError(f"unknown time policy: {policy!r}")
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("empty time grid")
    if any(b < a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("time grid must be sorted ascending")
    times = TIME_POLICIES[policy]
    k_n, k_m, k_np, k_mp = quasispins
    rows = []
    for t in t_grid:
        t_n, t_m, t_np, t_mp = times(t)
        setting = BellSetting(k_n, t_n, k_m, t_m, k_np, t_np, k_mp, t_mp,
                              cp_mode=cp_mode)
        report = bell_bounds(setting, params)
        rows.append(ScanRow(t=float(t), lambda_min=report.lambda_min,
                            lambda_max=report.lambda_max,
                            summand_mu_bound=report.summand_mu_bound))
    return rows


def sample_witness_max(bell: np.ndarray, n_states: int = 10_000,
                       seed: int = DEFAULT_SEED,
                       refine_steps: int = 0) -> float:
    """Largest Tr(Bell |psi><psi|) over Haar-like random pure 4-dim states.

    Optional refinement runs power iteration (matrix-vector products only)
    from the best sample, converging on the top eigenvalue without calling
    an eigensolver; this keeps the check independent of hermitian_eigen.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_states, 4)) + 1j * rng.standard_normal((n_states, 4))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    values = np.einsum("ni,ij,nj->n", z.conj(), bell, z).real
    best = int(np.argmax(values))
    if refine_steps <= 0:
        return float(values[best])
    # shift makes the target eigenvalue the dominant one (|eigs| <= 4)
    shifted = bell + 5.0 * np.eye(4)
    psi = z[best]
    for _ in range(refine_steps):
        psi = shifted @ psi
        psi /= np.linalg.norm(psi)
    return float(np.vdot(psi, bell @ psi).real)

"""CHSH witnesses for meson pairs: operator bounds, state values, CP test.

The witness Bell = O_n x (O_m - O_m') + O_n' x (O_m + O_m') turns the CHSH
inequality into an eigenvalue problem: its extremal eigenvalues are the
quantum-reachable bounds over all initial states, with |Tr(Bell rho)| <= 2
for every local-realistic model.  Detection times enter through the effective
observables, so decay and oscillation compete inside one 4x4 matrix.

Bounds are computed for a whole array of detection times at once: the
observables, witnesses and Bloch vectors are stacked with time on the
leading axis, so a time scan solves one batched eigenvalue problem, and a
single setting is the one-row case.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (
    K0BAR_DIRECTION, MesonParams, Quasispin, cp_basis_data, k0bar_state,
    k1_state, kl_state, ks_state, _entries, _require_finite, _require_hermitian,
)
from .effective import (
    _amplitudes, _checked_bloch, _kron, _pair_expectation, _propagate, _rank_one,
    effective_operator,  # noqa: F401 (bench/selftest.py traces this binding)
)
from .evolution import singlet_state, surviving_pair
from .uncertainty import bloch_mu_bound

__all__ = [
    "DEFAULT_SEED", "CLASSICAL_BOUND", "TSIRELSON_BOUND",
    "BellSetting", "BellReport", "ChshValue", "CpBellReport",
    "bell_operator", "bell_bounds", "chsh_value", "cp_bell_test",
    "scan_bell", "sample_witness_max", "TIME_POLICIES",
]

DEFAULT_SEED = 0xB311
CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_SUMMAND_GAP_TOL = 1e-12
_VIOLATION_TOL = 1e-9
_TIME_NAMES = ("t_n", "t_m", "t_np", "t_mp")

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
        _detection_times([_questions(self)[0]])


def _questions(s: BellSetting) -> tuple[tuple[float, ...], tuple[Quasispin, ...]]:
    """Detection times and quasispins of a setting, in the order n, m, n', m'."""
    return (s.t_n, s.t_m, s.t_np, s.t_mp), (s.k_n, s.k_m, s.k_np, s.k_mp)


def _detection_times(times) -> np.ndarray:
    """Rows (t_n, t_m, t_n', t_m') as an (n, 4) array, finite and >= 0."""
    times = np.asarray(times, dtype=float)
    _require_finite(**dict(zip(_TIME_NAMES, times.T)))
    if (times < 0.0).any():
        raise ValueError("detection times must be nonnegative")
    return times


def _observables(times, quasispins: tuple[Quasispin, ...], params: MesonParams,
                 cp_mode: bool) -> tuple[np.ndarray, np.ndarray]:
    """Stacked amplitudes w at four times (floats or grid columns), and 2|w><w| - 1.

    One _propagate call carries all four, on the (4,) times or (4, n) columns.
    """
    times = np.asarray(times, dtype=float)
    amps = np.array([_amplitudes(q, params, cp_mode) for q in quasispins])
    w = _propagate(amps.reshape(4, *(1,) * (times.ndim - 1), 2), times, params)
    return w, _rank_one(w)


def _witness(o_n: np.ndarray, o_m: np.ndarray, o_np: np.ndarray,
             o_mp: np.ndarray) -> np.ndarray:
    return _kron(o_n, o_m - o_mp) + _kron(o_np, o_m + o_mp)


def bell_operator(s: BellSetting, params: MesonParams) -> np.ndarray:
    """The 4x4 Hermitian witness O_n x (O_m - O_m') + O_n' x (O_m + O_m')."""
    return _witness(*_observables(*_questions(s), params, s.cp_mode)[1])


@dataclass(frozen=True)
class BellReport:
    """Extremal witness eigenvalues and summand bound: floats, or a scan's columns."""

    lambda_min: float | np.ndarray
    lambda_max: float | np.ndarray
    summand_mu_bound: float | np.ndarray
    classical_bound: float = CLASSICAL_BOUND
    tsirelson: float = TSIRELSON_BOUND


def _summand_bound(n_n: np.ndarray, n_np: np.ndarray, n_m: np.ndarray,
                   n_mp: np.ndarray) -> np.ndarray:
    """Entropic bound between the two witness summands, one per row.

    It is the sum of two one-sided bounds: side A between O_n and O_n', side
    B between O_m -/+ O_m', with Bloch vectors n_m -/+ n_m' and eigenvalue
    gaps 2|n_m -/+ n_m'|.  A degenerate summand factor constrains nothing
    (its eigenbasis is free), so the bound collapses to zero there; this is
    what happens at t = 0 when both B questions coincide.
    """
    b = np.array([n_m - n_mp, n_m + n_mp])
    gap = 2.0 * np.linalg.norm(b, axis=-1).min(axis=0)
    bound = bloch_mu_bound(np.array([n_n, b[0]]), np.array([n_np, b[1]]))[0]
    return np.where(gap <= _SUMMAND_GAP_TOL, 0.0, bound.sum(axis=0))


def _bell_rows(times, quasispins: tuple[Quasispin, ...], params: MesonParams,
               cp_mode: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """lambda_min, lambda_max and summand_mu_bound for each row of times.

    times is an (n, 4) array of detection times (t_n, t_m, t_n', t_m') for
    the quasispins (k_n, k_m, k_n', k_m').  The observables are stacked over
    the rows, and one eigvalsh call on the (n, 4, 4) witness stack gives the
    extremal eigenvalues; the summand bound comes from checked Bloch vectors.
    """
    w, o = _observables(_detection_times(times).T, quasispins, params, cp_mode)
    bell = _witness(*o)
    _require_hermitian(bell)
    vals = np.linalg.eigvalsh(bell)
    n_n, n_m, n_np, n_mp = _checked_bloch(w, o)
    return vals[:, 0], vals[:, -1], _summand_bound(n_n, n_np, n_m, n_mp)


def bell_bounds(s: BellSetting, params: MesonParams) -> BellReport:
    """Witness eigenvalue bounds and summand bound of one setting.

    The one-row case of the batched computation behind scan_bell.
    """
    times, quasispins = _questions(s)
    lam_min, lam_max, mu = _bell_rows([times], quasispins, params, s.cp_mode)
    return BellReport(lambda_min=float(lam_min[0]), lambda_max=float(lam_max[0]),
                      summand_mu_bound=float(mu[0]))


@dataclass(frozen=True)
class ChshValue:
    """CHSH combination on a given state.

    s is the two-absolute-value form; witness is Tr(Bell rho), which matches
    s only when the signs inside the bars already line up.
    """

    s: float
    witness: float


def _chsh(o: np.ndarray, rho4: np.ndarray) -> ChshValue:
    e_nm, e_nmp, e_npm, e_npmp = _pair_expectation(  # o is (O_n, O_m, O_n', O_m')
        o[[0, 0, 2, 2]], o[[1, 3, 1, 3]], rho4).tolist()
    return ChshValue(s=abs(e_nm - e_nmp) + abs(e_npm + e_npmp),
                     witness=e_nm - e_nmp + e_npm + e_npmp)


def chsh_value(s: BellSetting, rho0, params: MesonParams) -> ChshValue:
    """CHSH value |E_nm - E_nm'| + |E_n'm + E_n'm'| for a t=0 pair state."""
    rho4 = _entries(rho0, "state", (4, 4))
    return _chsh(_observables(*_questions(s), params, s.cp_mode)[1], rho4)


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


def cp_bell_test(delta: float) -> CpBellReport:
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
    singlet = surviving_pair(singlet_state())

    def run(first_state):
        ops = _rank_one(np.array([first_state, k0bar_state(), k1_state(), k1_state()]))
        bell = _witness(*ops)
        _require_hermitian(bell)
        return _chsh(ops, singlet).s, float(np.linalg.eigvalsh(bell)[-1])

    s_ks, lam_ks = run(ks_state(cp))
    s_kl, lam_kl = run(kl_state(cp))
    return CpBellReport(
        variant_ks_violates=s_ks > CLASSICAL_BOUND + _VIOLATION_TOL,
        variant_kl_violates=s_kl > CLASSICAL_BOUND + _VIOLATION_TOL,
        margin_ks=s_ks - CLASSICAL_BOUND, margin_kl=s_kl - CLASSICAL_BOUND,
        s_ks=s_ks, s_kl=s_kl, lambda_max_ks=lam_ks, lambda_max_kl=lam_kl)


def scan_bell(policy: str, t_grid, params: MesonParams,
              quasispins: tuple[Quasispin, Quasispin, Quasispin, Quasispin]
              = (K0BAR_DIRECTION,) * 4,
              cp_mode: bool = False) -> BellReport:
    """Witness bounds along a time grid under one of the detection-time policies.

    The policy turns the grid into an (n, 4) array of detection times, and
    the witness is solved once for the whole grid, not point by point.  The
    report's fields are float arrays, one entry per grid time.
    """
    if policy not in TIME_POLICIES:
        raise ValueError(f"unknown time policy: {policy!r}")
    if len(quasispins) != 4:
        raise ValueError(f"need four quasispins, got {len(quasispins)}")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("time grid must be one-dimensional")
    if grid.size == 0:
        raise ValueError("empty time grid")
    if (np.diff(grid) < 0.0).any():
        raise ValueError("time grid must be sorted ascending")
    times = np.stack(np.broadcast_arrays(*TIME_POLICIES[policy](grid)), axis=-1)
    return BellReport(*_bell_rows(times, quasispins, params, cp_mode))


@functools.lru_cache(maxsize=1)
def _haar_draw(n_states: int, seed: int) -> np.ndarray:
    """n_states normalized complex Gaussian 4-vectors from seed, read-only.

    The draw depends on (n_states, seed) alone, so witnesses sampled with one
    seed share it.
    """
    rng = np.random.default_rng(seed)
    z = np.empty((n_states, 4), dtype=complex)
    z.real = rng.standard_normal((n_states, 4))
    z.imag = rng.standard_normal((n_states, 4))
    z *= 1.0 / np.linalg.norm(z, axis=1, keepdims=True)
    z.setflags(write=False)
    return z


def _witness_values(z: np.ndarray, bell: np.ndarray) -> np.ndarray:
    """Re(z^+ Bell z) for each row z of a complex (n, 4) stack, in real arithmetic.

    The float64 view of z has rows (Re z_0, Im z_0, Re z_1, ...), and the
    real symmetric 8x8 form r with blocks [[Re B, -Im B], [Im B, Re B]]
    interleaved the same way gives u^T r u = Re(z^+ B z) for B Hermitian.
    """
    u = z.view(np.float64)
    r = np.empty((8, 8))
    r[0::2, 0::2] = r[1::2, 1::2] = bell.real
    r[0::2, 1::2] = -bell.imag
    r[1::2, 0::2] = bell.imag
    return np.einsum("ij,ij->i", u @ r, u)


def _index(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def sample_witness_max(bell: np.ndarray, n_states: int = 10_000,
                       seed: int = DEFAULT_SEED,
                       refine_steps: int = 0) -> float:
    """Largest Tr(Bell |psi><psi|) over Haar-like random pure 4-dim states.

    Optional refinement runs refine_steps steps of power iteration on Bell + s
    from the best sample, s the largest absolute row sum, which bounds every
    |eigenvalue|.  It converges on the top eigenvalue without an eigensolver,
    so the check stays independent of the eigenvalue routes it tests.  The
    steps are applied as (Bell + s)^refine_steps by right-to-left binary
    powering: psi takes the rescaled (Bell + s)^(2^k) at each set bit k of
    refine_steps and is renormalized there.  bell must be a finite Hermitian 4x4
    matrix; n_states >= 1, refine_steps >= 0 and seed >= 0 are integers.  The
    normalized draw of the last (n_states, seed) is kept, so witnesses sampled
    with one seed share it.  The samples are scored in real arithmetic, as
    u^T r u over the float64 view u of the draw and an 8x8 real form r of Bell.
    """
    bell = _entries(bell, "witness", (4, 4))
    _require_hermitian(bell)
    n_states = _index("n_states", n_states)
    refine_steps = _index("refine_steps", refine_steps)
    seed = _index("seed", seed)
    if n_states < 1:
        raise ValueError(f"n_states must be at least 1, got {n_states}")
    for name, value in (("refine_steps", refine_steps), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    z = _haar_draw(n_states, seed)
    values = _witness_values(z, bell)
    best = int(np.argmax(values))
    shifted = bell + np.abs(bell).sum(axis=1).max() * np.eye(4)
    if refine_steps == 0 or not shifted.any():  # Bell = -sI: every sample is exact
        return float(values[best])
    psi = z[best]
    while True:  # squares are rescaled: (Bell + s)^(2^k) would overflow
        if refine_steps & 1:
            psi = shifted @ psi
            psi /= np.linalg.norm(psi)
        refine_steps >>= 1
        if not refine_steps:
            return float(np.vdot(psi, bell @ psi).real)
        shifted = shifted @ shifted
        shifted /= np.abs(shifted).max()

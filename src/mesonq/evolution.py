"""Open-system time evolution of single and paired mesons.

States live on surviving + final sectors: basis order (K_S, K_L, f_L, f_S),
where f_L and f_S collect the decayed long- and short-lived populations.  The
closed-form map damps the surviving block, accumulates decays on the final
diagonal and drops the never-measurable final coherences.  A fixed-step RK4
integration of the Lindblad equation, built from the Hamiltonian and decay
generators and run as a Liouvillian propagator on vec(rho), provides an
independent route to the same dynamics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import MesonParams, Quasispin, _entries, _require_finite

__all__ = [
    "DensityMatrix", "JointOutcome",
    "pure_density", "embed_surviving", "quasispin_projector4",
    "evolve_single_closed", "lindblad_integrate", "evolve_bipartite",
    "singlet_state", "singlet_vector", "surviving_pair", "joint_probabilities",
]

_HERM_TOL = 1e-12
_STEP_ERROR_LIMIT = 1e-6

# entries the dynamics can populate: full surviving block + final diagonal
_MASK4 = np.zeros((4, 4))
_MASK4[:2, :2] = 1.0
_MASK4[2, 2] = _MASK4[3, 3] = 1.0
_MASK16 = np.kron(_MASK4, _MASK4)


def _require_hermitian_state(m: np.ndarray, name: str) -> None:
    """Raise unless m is Hermitian to 1e-12 of its scale max(1, max |m_ij|)."""
    gap = np.abs(m - m.conj().T).max()  # the scale is needed only above 1e-12
    if gap > _HERM_TOL and gap > _HERM_TOL * np.abs(m).max():
        raise ValueError(f"{name} must be hermitian")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD state on 2, 4 or 16 dimensions."""

    entries: np.ndarray

    def __post_init__(self):
        m = _entries(self.entries, "density matrix", (2, 2), (4, 4), (16, 16))
        _require_hermitian_state(m, "density matrix")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)


def pure_density(v: np.ndarray) -> DensityMatrix:
    v = np.asarray(v, dtype=complex)
    return DensityMatrix(np.outer(v, v.conj()))


def embed_surviving(rho2: np.ndarray) -> np.ndarray:
    """Place a 2x2 surviving-only state into the 4-dim decay-aware space."""
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = np.asarray(rho2, dtype=complex)
    return out


def quasispin_projector4(q: Quasispin) -> np.ndarray:
    """|k><k| on the surviving slots, zero on the decayed slots."""
    k = q.state_mass()
    return embed_surviving(np.outer(k, k.conj()))


def _closed_map4(rho: np.ndarray, t: float, params: MesonParams) -> np.ndarray:
    """One-particle propagation by t >= 0 on the 4-dim space.

    The map acts on the first two axes of `rho`, rho[i, j, ...]; any trailing
    axes (the other particle of a pair) are carried along untouched.
    Surviving block: populations damp with e^{-Gamma_i t}, the coherence
    rotates with the mass splitting and damps with e^{-Gamma t}.  Decayed
    populations accumulate on the final diagonal; final coherences and
    surviving-final cross terms are unmeasurable and set to zero.
    """
    es = math.exp(-params.gamma_s * t)
    el = math.exp(-params.gamma_l * t)
    osc = np.exp((1j - params.gamma_mean) * t)
    out = np.zeros_like(rho)
    out[0, 0] = es * rho[0, 0]
    out[1, 1] = el * rho[1, 1]
    out[0, 1] = osc * rho[0, 1]
    out[1, 0] = np.conj(osc) * rho[1, 0]
    out[2, 2] = rho[2, 2] + (1.0 - el) * rho[1, 1]
    out[3, 3] = rho[3, 3] + (1.0 - es) * rho[0, 0]
    return out


def evolve_single_closed(rho, t: float, params: MesonParams) -> DensityMatrix:
    """Closed-form single-particle evolution; accepts a 2- or 4-dim state."""
    _require_finite(t=t)
    if t < 0.0:
        raise ValueError("closed form is valid forward in time only")
    m = _entries(rho, "state", (2, 2), (4, 4))
    if m.shape == (2, 2):
        m = embed_surviving(m)
    return DensityMatrix(_closed_map4(m, t, params))


def evolve_bipartite(rho, t: float, params: MesonParams) -> DensityMatrix:
    """Pair evolution: the single-particle map applied to each factor.

    Each meson decays into its own environment, so the map factorizes,
    Phi x Phi, and product states stay products.  It is applied one side at a
    time: rho[(a, b), (c, d)] is viewed with the acting side's indices (a, c)
    or (b, d) leading and _closed_map4 runs over them.  (The variant with one
    summed decay generator is available through
    lindblad_integrate(summed_generator=True) for comparison; it breaks this
    factorization.)
    """
    _require_finite(t=t)
    if t < 0.0:
        raise ValueError("closed form is valid forward in time only")
    m = _entries(rho, "pair state", (16, 16))
    return DensityMatrix(_pair_map(m, t, params).reshape(16, 16))


def _pair_map(m: np.ndarray, t: float, params: MesonParams) -> np.ndarray:
    """evolve_bipartite on checked 16x16 entries m, as rho[a, b, c, d]."""
    r = _closed_map4(m.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3), t, params)
    r = _closed_map4(r.transpose(2, 3, 0, 1), t, params)
    return r.transpose(2, 0, 3, 1)


def _generators(gamma_s: float, gamma_l: float, dim: int, summed: bool):
    """Hamiltonian and decay generators on the 4- or 16-dim space."""
    h4 = np.zeros((4, 4), dtype=complex)
    h4[1, 1] = 1.0  # mass splitting: m_L - m_S = 1 in rescaled units
    a4 = np.zeros((4, 4), dtype=complex)
    a4[3, 0] = math.sqrt(gamma_s)  # K_S decays into the f_S slot
    a4[2, 1] = math.sqrt(gamma_l)  # K_L decays into the f_L slot
    if dim == 4:
        return h4, [a4]
    i4 = np.eye(4, dtype=complex)
    h = np.kron(h4, i4) + np.kron(i4, h4)
    a_left, a_right = np.kron(a4, i4), np.kron(i4, a4)
    return h, [a_left + a_right] if summed else [a_left, a_right]


def _reachable(g: np.ndarray, gens, support: np.ndarray) -> np.ndarray:
    """Entries of rho that drho/dt = g rho + rho g^+ + sum_a a rho a^+ can
    populate from `support`: the closure of the support under L != 0."""
    g_links, a_links = g != 0, [a != 0 for a in gens]
    reach = support
    while True:
        grown = reach | g_links @ reach | reach @ g_links.T
        for a in a_links:
            grown |= a @ reach @ a.T
        if (grown == reach).all():
            return reach
        reach = grown


def _liouvillian(g: np.ndarray, gens, idx: np.ndarray) -> np.ndarray:
    """Rows and columns `idx` of the matrix L of the Lindblad equation.

    L acts on the row-major vec(rho), where vec(A rho B) = kron(A, B^T)
    vec(rho).  With g = -iH - sum_a a^+ a / 2,
    L = kron(g, 1) + kron(1, conj(g)) + sum_a kron(a, conj(a)).
    """
    i, j = np.divmod(idx, g.shape[0])

    def kron(a, b):  # rows and columns idx of np.kron(a, b)
        return a[np.ix_(i, i)] * b[np.ix_(j, j)]

    eye = np.eye(g.shape[0])
    lv = kron(g, eye) + kron(eye, g.conj())
    for a in gens:
        lv += kron(a, a.conj())
    return lv


def _components(links: np.ndarray) -> np.ndarray:
    """Connected-component label of each node of a square boolean link matrix.

    Links count in both directions; a component is labelled by its lowest node.
    """
    adj = links | links.T | np.eye(len(links), dtype=bool)
    label = np.arange(len(links))
    while True:  # each pass spreads the lowest label one link further
        grown = np.where(adj, label, len(links)).min(axis=1, initial=len(links))
        if (grown == label).all():
            return label
        label = grown


@functools.lru_cache(maxsize=8)
def _liouvillian_block(gamma_s: float, gamma_l: float, dim: int, summed: bool,
                       support: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Reachable entries and the independent blocks of L on them, read-only.

    `support` is the bytes of the boolean nonzero pattern of a dim x dim
    state.  L never couples two connected components of its nonzero pattern,
    so each component of the reachable entries is one block: the (blocks, k)
    flat indices into vec(rho), ascending, and the (blocks, k, k) stack of
    their rows and columns of L, k the largest component.  Shorter ones are
    padded with the index dim * dim and zero rows and columns.  The blocks
    depend only on the widths, the dimension, the generator variant and that
    pattern (delta does not enter the generators), so states that share them
    share the blocks.
    """
    h, gens = _generators(gamma_s, gamma_l, dim, summed)
    g = -1j * h - 0.5 * sum(a.conj().T @ a for a in gens)
    nonzero = np.frombuffer(support, dtype=bool).reshape(dim, dim)
    reach = np.flatnonzero(_reachable(g, gens, nonzero))
    lv = _liouvillian(g, gens, reach)
    label = _components(lv != 0)  # a component's label is its lowest entry
    groups = [np.flatnonzero(label == c) for c in range(len(label)) if label[c] == c]
    # positions in reach, one row per component; len(reach) pads
    local = np.full((len(groups), max(map(len, groups), default=0)), len(reach))
    for row, members in zip(local, groups):
        row[:len(members)] = members
    idx = np.append(reach, dim * dim)[local]
    blocks = np.pad(lv, (0, 1))[local[:, :, None], local[:, None, :]]
    idx.setflags(write=False)
    blocks.setflags(write=False)
    return idx, blocks


def _rk4_propagator(x: np.ndarray) -> np.ndarray:
    """One classical RK4 step of dv/dt = L v as a matrix, x = step * L.

    For a linear right-hand side the four stages collapse to the Taylor
    polynomial 1 + x + x^2/2 + x^3/6 + x^4/24.  x may be a stack of blocks
    on its leading axes.
    """
    x2 = x @ x
    return x2 @ (x / 6.0 + x2 / 24.0) + x + 0.5 * x2 + np.eye(x.shape[-1])


def _rk4_step(lv: np.ndarray, v: np.ndarray, step: float) -> np.ndarray:
    """_rk4_propagator(step * lv) @ v by Horner's rule: four matrix-vector products."""
    u = v
    for k in (4, 3, 2, 1):
        u = v + (step / k) * (lv @ u)
    return u


def _apply_steps(prop: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """prop^steps @ v by right-to-left binary powering.

    v takes the current power prop^(2^k) at each set bit k of steps, and the
    power is squared between bits: steps.bit_length() - 1 squarings and one
    matrix-vector product per set bit.
    """
    while True:
        if steps & 1:
            v = prop @ v
        steps >>= 1
        if not steps:
            return v
        prop = prop @ prop


def lindblad_integrate(rho, t: float, params: MesonParams, dt: float = 1e-3,
                       summed_generator: bool = False) -> DensityMatrix:
    """Fixed-step RK4 integration of drho/dt = -i[H, rho] - D[rho].

    Independent oracle for the closed-form maps: the Liouvillian is built from
    the Hamiltonian and decay generators, never from the closed form.  Handles
    4-dim single states and 16-dim pairs (two independent decay generators by
    default; pass summed_generator=True for the single summed generator, which
    introduces decay cross terms and breaks product factorization).

    The equation is linear, so one RK4 step with step size t / ceil(t / dt) is
    the fixed matrix P = 1 + x + x^2/2 + x^3/6 + x^4/24, x = step * L, acting
    on vec(rho).  Only the entries reachable from the support of rho are
    kept, and L never couples two connected components of its nonzero
    pattern among them, so P is built per component, as a stack of small
    blocks, and applied as P^n, n the step count, by binary powering.  A
    surviving single state has 4 blocks of 2 entries, a surviving pair 16
    blocks of 4, and a full pair state 144 blocks of at most 4.  The blocks
    are read off L, never off the closed form, once per (widths, dimension,
    generator variant, support), and kept for the last 8 such keys; P and
    everything after it are computed on every call.
    The step-doubling error estimate (P(step) against two half steps) and the
    trace drift must stay within 1e-6, and P must be finite: a width so large
    that P or the estimate overflows fails the error check without a numpy
    warning.  Unmeasurable final coherences are zeroed on output, matching
    the closed form.
    """
    _require_finite(t=t, dt=dt)
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t < 0.0:
        raise ValueError("integration runs forward in time only")
    m = _entries(rho, "state", (4, 4), (16, 16))
    dim = m.shape[0]
    steps = max(1, math.ceil(t / dt))
    step = t / steps
    # a huge width overflows L, P or the estimate; a non-finite P or estimate
    # fails the error check below
    with np.errstate(over="ignore", invalid="ignore"):
        idx, lv = _liouvillian_block(params.gamma_s, params.gamma_l, dim,
                                     summed_generator, (m != 0).tobytes())
        # padded slots read and write the extra last entry, a zero
        v0 = np.append(m.reshape(-1), 0.0)[idx][..., None]
        prop = _rk4_propagator(step * lv)
        if step > 0.0:
            # the generator conserves the trace identically, so a coarse step
            # shows up in the entries, not the trace: estimate it by doubling
            halves = _rk4_step(lv, _rk4_step(lv, v0, 0.5 * step), 0.5 * step)
            err = np.abs(prop @ v0 - halves).max(initial=0.0) * steps
    if not np.isfinite(prop).all() or step > 0.0 and not err <= _STEP_ERROR_LIMIT:
        raise ValueError("integration error above 1e-6: reduce dt")
    r = np.zeros(dim * dim + 1, dtype=complex)
    r[idx] = _apply_steps(prop, v0, steps)[..., 0]
    r = r[:-1].reshape(dim, dim)
    if not abs(np.trace(r).real - np.trace(m).real) <= _STEP_ERROR_LIMIT:
        raise ValueError("trace drift above 1e-6: reduce dt")
    mask = _MASK4 if dim == 4 else _MASK16
    r = 0.5 * (r + r.conj().T) * mask
    return DensityMatrix(r)


def singlet_vector() -> np.ndarray:
    """Antisymmetric pair state (|K0, K0bar> - |K0bar, K0>)/sqrt(2), 16-dim.

    With delta = 0 the same components describe it in the mass basis,
    (|K_S, K_L> - |K_L, K_S>)/sqrt(2): the antisymmetric combination keeps
    its form under any basis rotation (up to a global phase).
    """
    k0 = np.zeros(4, dtype=complex)
    k0bar = np.zeros(4, dtype=complex)
    k0[0] = k0[1] = 1.0 / math.sqrt(2.0)
    k0bar[0], k0bar[1] = -1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)
    return (np.kron(k0, k0bar) - np.kron(k0bar, k0)) / math.sqrt(2.0)


def singlet_state() -> DensityMatrix:
    """Maximally entangled antisymmetric pair, embedded with empty decay slots."""
    return pure_density(singlet_vector())


def surviving_pair(rho) -> np.ndarray:
    """Surviving x surviving 4x4 block of a 16-dim pair state."""
    m = _entries(rho, "pair state", (16, 16))
    return m.reshape(4, 4, 4, 4)[:2, :2, :2, :2].reshape(4, 4)


@dataclass(frozen=True)
class JointOutcome:
    """The four yes/no probabilities of a two-sided quasispin measurement."""

    p_yy: float
    p_yn: float
    p_ny: float
    p_nn: float

    @property
    def expectation(self) -> float:
        return self.p_yy + self.p_nn - self.p_yn - self.p_ny


def joint_probabilities(rho, k_n: Quasispin, t_n: float, k_m: Quasispin,
                        t_m: float, params: MesonParams) -> JointOutcome:
    """Joint outcome probabilities: side B asked k_m at t_m, side A asked k_n at t_n.

    The pair evolves to t_m, side B is projected onto |k_m> or its complement
    (the complement includes everything decayed), side B is traced out, and
    the leftover single particle runs on to t_n.  Requires t_n >= t_m >= 0
    and a finite Hermitian 16x16 pair state, checked once here; the pair map
    then runs on the checked entries, and the yes and no branches of side B
    run as one stack on the trailing axis.
    """
    _require_finite(t_n=t_n, t_m=t_m)
    if t_m < 0.0 or t_n < t_m:
        raise ValueError("measurement ordering requires t_n >= t_m >= 0")
    m = _entries(rho, "pair state", (16, 16))
    _require_hermitian_state(m, "pair state")
    p_m = quasispin_projector4(k_m)
    # Tr_B[(1 x X) rho] for X = P_m and 1 - P_m, stacked on the last axis
    sigma = np.einsum("ybq,aqcb->acy", np.array([p_m, np.eye(4) - p_m]),
                      _pair_map(m, t_m, params))
    sigma = _closed_map4(0.5 * (sigma + sigma.conj().transpose(1, 0, 2)),
                         t_n - t_m, params)
    p_yes = np.einsum("ij,jiy->y", quasispin_projector4(k_n), sigma).real
    (p_yy, p_yn), (p_ny, p_nn) = p_yes.tolist(), (np.trace(sigma).real - p_yes).tolist()
    return JointOutcome(p_yy=p_yy, p_yn=p_yn, p_ny=p_ny, p_nn=p_nn)

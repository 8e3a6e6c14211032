import numpy as np
import pytest

from mesonq import (
    bmeson_defaults, cp_basis_data, kaon_defaults, stable_defaults,
)
from mesonq.core import CP_TO_STRANGENESS, kl_state, ks_state


@pytest.fixture
def kaon():
    return kaon_defaults()


@pytest.fixture
def bmeson():
    return bmeson_defaults()


@pytest.fixture
def stable():
    return stable_defaults()


@pytest.fixture
def rng():
    return np.random.default_rng(0xB311)


def random_pure_state(rng, dim=2):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def min_eigenvalue(rho):
    """Smallest eigenvalue of a DensityMatrix: its distance from positivity."""
    return float(np.linalg.eigvalsh(rho.entries).min())


def surviving_trace(rho):
    """Probability that nothing has decayed yet, for a 4-dim DensityMatrix."""
    return float(np.trace(rho.entries[:2, :2]).real)


def random_density(rng, dim=2):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def cp_basis_weights(q, params):
    """cp_weights for a quasispin whose angles refer to the CP basis.

    The mass eigenstates are non-orthogonal, so the weights of such a
    quasispin sum to 1 + delta sin(alpha) cos(phi), not to one.
    """
    cp = cp_basis_data(params.delta)
    k = CP_TO_STRANGENESS @ q.state_mass()
    amp_s = complex(np.vdot(ks_state(cp), k))
    amp_l = complex(np.vdot(kl_state(cp), k))
    return amp_s, amp_l, abs(amp_s) ** 2 + abs(amp_l) ** 2

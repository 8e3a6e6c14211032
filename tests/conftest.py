import numpy as np
import pytest

from mesonq import bmeson_defaults, kaon_defaults, stable_defaults


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

"""Every public entry point refuses bad input with a ValueError at its boundary.

Inner kernels take arrays that are already checked, so these tests pin the
checks where input arrives: non-finite and negative detection times, and
non-finite or non-Hermitian states.
"""

import math

import numpy as np
import pytest

from mesonq import (
    K0BAR_DIRECTION, BellSetting, Quasispin, bell_bounds, bell_operator,
    bloch_vector, chsh_value, effective_operator, effective_operator_cp,
    evolve_bipartite, joint_probabilities, scan_bell, singlet_state,
)
from mesonq.evolution import surviving_pair

BAD_TIMES = [math.nan, math.inf, -0.5]
Q = Quasispin(0.7, 1.3)


def _setting(times):
    return BellSetting(Q, times[0], K0BAR_DIRECTION, times[1],
                       Quasispin(2.1, 0.4), times[2], Q, times[3])


def _bell_calls(slot):
    """Each Bell entry point with detection time `slot` of four set to t."""
    def times(t):
        return [0.5, 1.0, 1.5, 2.0][:slot] + [t] + [0.5, 1.0, 1.5, 2.0][slot + 1:]

    return [
        (f"bell_bounds-{slot}", lambda t, p: bell_bounds(_setting(times(t)), p)),
        (f"bell_operator-{slot}", lambda t, p: bell_operator(_setting(times(t)), p)),
        (f"chsh_value-{slot}", lambda t, p: chsh_value(
            _setting(times(t)), surviving_pair(singlet_state()), p)),
    ]


TIME_CALLS = [call for slot in range(4) for call in _bell_calls(slot)] + [
    ("scan_bell", lambda t, p: scan_bell("all-equal", [t], p)),
    ("scan_bell-alternating", lambda t, p: scan_bell("alternating-1", [t], p)),
    ("bloch_vector", lambda t, p: bloch_vector(Q, t, p)),
    ("bloch_vector-array", lambda t, p: bloch_vector(Q, np.array([0.0, t]), p)),
    ("bloch_vector-cp", lambda t, p: bloch_vector(Q, t, p, cp_corrected=True)),
    ("effective_operator", lambda t, p: effective_operator(Q, t, p)),
    ("effective_operator_cp", lambda t, p: effective_operator_cp(Q, t, p)),
    ("evolve_bipartite", lambda t, p: evolve_bipartite(singlet_state(), t, p)),
    ("joint_probabilities-t_n", lambda t, p: joint_probabilities(
        singlet_state(), Q, t, K0BAR_DIRECTION, 0.5, p)),
    ("joint_probabilities-t_m", lambda t, p: joint_probabilities(
        singlet_state(), Q, t + 1.0 if math.isfinite(t) else 2.0,
        K0BAR_DIRECTION, t, p)),
]


@pytest.mark.parametrize("bad", BAD_TIMES, ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("call", [c for _, c in TIME_CALLS],
                         ids=[name for name, _ in TIME_CALLS])
def test_bad_time_rejected(kaon, call, bad):
    with pytest.raises(ValueError):
        call(bad, kaon)


def _with(m, index, value):
    m = np.array(m, dtype=complex)
    m[index] = value
    return m


SINGLET16 = singlet_state().entries
SINGLET4 = surviving_pair(SINGLET16)
STATE_CALLS = [
    ("chsh_value", lambda rho, p: chsh_value(_setting([0.5, 1.0, 1.5, 2.0]), rho, p),
     SINGLET4, (0, 1)),
    ("evolve_bipartite", lambda rho, p: evolve_bipartite(rho, 0.5, p),
     SINGLET16, (1, 4)),
    ("joint_probabilities", lambda rho, p: joint_probabilities(
        rho, Q, 1.0, K0BAR_DIRECTION, 0.5, p), SINGLET16, (1, 4)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)],
                         ids=["nan", "inf", "nan-imag"])
@pytest.mark.parametrize("call,state,index", [c[1:] for c in STATE_CALLS],
                         ids=[c[0] for c in STATE_CALLS])
def test_non_finite_state_rejected(kaon, call, state, index, bad):
    with pytest.raises(ValueError, match="finite"):
        call(_with(state, index, bad), kaon)


@pytest.mark.parametrize("call", [c[1] for c in STATE_CALLS[1:]],
                         ids=[c[0] for c in STATE_CALLS[1:]])
def test_non_hermitian_pair_state_rejected(kaon, call):
    # a coherence between two surviving pair slots, without its mirror entry
    rho = _with(SINGLET16, (1, 4), SINGLET16[1, 4] + 0.25)
    with pytest.raises(ValueError, match="hermitian"):
        call(rho, kaon)

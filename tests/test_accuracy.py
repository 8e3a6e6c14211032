"""50-digit references for the printed entropic bounds and for delta*.

mpmath evaluates, at 50 digits throughout, each bound exactly at the float amplitudes w that the
program propagates, so a deviation measures the error of the bound alone,
not that of the inputs; delta* likewise at the float misid_time.  mpmath
is a test dependency only.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from mesonq import (
    KS_DIRECTION, Quasispin, bmeson_defaults, complementary_time, cp_weights,
    delta_for_equal_times, kaon_defaults, misid_time, scan_bell,
    stable_defaults,
)
from mesonq.bell import TIME_POLICIES
from mesonq.effective import _propagate

GOLDEN_DIR = Path(__file__).parent / "golden"

# Rows edited by hand when the bounds moved to the Bloch-axis form, with the
# bound printed before.  -2 log2(overlap) of an overlap near one lost digits
# to cancellation, and at t = pi and 2 pi of fig1b it printed 0.
EDITED_ROWS = {
    ("fig2a_small", 1): "8.20659431527e-06",
    ("fig2a_small", 2): "5.03148020217e-05",
    ("fig2a_small", 3): "1.74706037834e-04",
    ("fig2a_small", 4): "4.84732693084e-04",
    ("fig1b_small", 10): "0.00000000000e+00",
    ("fig1b_small", 20): "0.00000000000e+00",
}

# below this the bound is set by one rounding in the z component of the
# Bloch vectors (|w_S|^2 - |w_L|^2), about 1e-32 absolute
_NOISE_FLOOR = 1e-30
# a bound this small is zero to the precision of the 50-digit reference
_ZERO = 1e-40


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def _bloch(w):
    w_s, w_l = (mpmath.mpc(complex(x)) for x in w)
    c = 2 * mpmath.conj(w_s) * w_l
    return [mpmath.re(c), mpmath.im(c), abs(w_s) ** 2 - abs(w_l) ** 2]


def _axis(n):
    length = mpmath.sqrt(sum(x * x for x in n))
    return [0, 0, 1] if length < 1e-14 else [x / length for x in n]


def exact_bound(n_a, n_b):
    """(bound, max_overlap) between two Bloch vectors."""
    d = sum(x * y for x, y in zip(_axis(n_a), _axis(n_b)))
    best_sq = (1 + abs(d)) / 2
    return -mpmath.log(best_sq, 2), mpmath.sqrt(best_sq)


def correctly_rounded(text: str, exact) -> bool:
    """Whether the 12-significant-digit text is exact rounded to nearest."""
    exponent = mpmath.floor(mpmath.log10(abs(exact)))
    return abs(mpmath.mpf(text) - exact) <= 5 * mpmath.mpf(10) ** (exponent - 12)


def golden_inputs(name: str):
    """Float amplitudes (scanned at each row, fixed at t = 0) of a golden."""
    if name == "fig1b_small":
        params = stable_defaults()
        grid = np.linspace(0.0, 2.0 * math.pi, 21)
        amps = Quasispin(0.5 * math.pi, 0.0).state_mass()
    else:
        params = kaon_defaults()
        grid = np.array(sorted(set(np.linspace(0.0, 8.0, 21))
                               | {complementary_time(params)}))
        amps = cp_weights(KS_DIRECTION, params)[:2]
    fixed = _propagate(amps, 0.0, params)
    return [(t, _propagate(amps, float(t), params), fixed) for t in grid]


def golden_rows(name: str):
    with open(GOLDEN_DIR / f"{name}.csv") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


@pytest.mark.parametrize("name", ["fig1b_small", "fig2a_small"])
def test_uncertainty_golden_rows_are_correctly_rounded(name):
    rows = golden_rows(name)
    inputs = golden_inputs(name)
    assert len(rows) == len(inputs)
    for (t, w_scan, w_fixed), row in zip(inputs, rows):
        assert row[0] == f"{t:.11e}"
        bound, best = exact_bound(_bloch(w_scan), _bloch(w_fixed))
        assert correctly_rounded(row[2], best), row
        if abs(bound) < _ZERO:
            assert mpmath.mpf(row[1]) == 0, row
        elif bound < _NOISE_FLOOR:
            assert abs(mpmath.mpf(row[1]) - bound) < bound, row
        else:
            assert correctly_rounded(row[1], bound), row


def test_edited_rows_were_wrong_and_moved_toward_the_exact_value():
    for (name, i), before in EDITED_ROWS.items():
        t, w_scan, w_fixed = golden_inputs(name)[i]
        bound = exact_bound(_bloch(w_scan), _bloch(w_fixed))[0]
        now = golden_rows(name)[i][1]
        assert not correctly_rounded(before, bound)
        assert abs(mpmath.mpf(now) - bound) < abs(mpmath.mpf(before) - bound)


@pytest.mark.parametrize("cp_mode", [False, True])
def test_summand_bound_against_50_digits(cp_mode):
    # B mesons at all-equal times: the B-side Bloch vectors n_m -/+ n_m'
    # shrink as e^{-Gamma t}, where an eigensolver on the 2x2 matrices loses
    # digits of their direction
    params = bmeson_defaults()
    qs = (Quasispin(0.4, 1.1), Quasispin(2.0, 0.3), Quasispin(1.2, 4.0),
          Quasispin(2.6, 5.5))
    amps = [cp_weights(q, params)[:2] if cp_mode else q.state_mass() for q in qs]
    grid = np.linspace(0.0, 12.0, 25)
    scan = scan_bell("all-equal", grid, params, qs, cp_mode)
    for t, mu in zip(grid.tolist(), scan.summand_mu_bound):
        n_n, n_m, n_np, n_mp = (_bloch(_propagate(a, t, params))
                                for a, t in zip(amps, TIME_POLICIES["all-equal"](t)))
        b_minus = [x - y for x, y in zip(n_m, n_mp)]
        b_plus = [x + y for x, y in zip(n_m, n_mp)]
        exact = exact_bound(n_n, n_np)[0] + exact_bound(b_minus, b_plus)[0]
        assert abs(mu - exact) <= 1e-14


def test_delta_star_against_50_digits():
    # root in d of cp_overlap_ks = 1/sqrt(2) at the float misid_time, between
    # the overlap's value near one at small d and its dip below 1/sqrt(2)
    params = kaon_defaults()
    t = mpmath.mpf(misid_time(params))
    u = mpmath.exp(-params.gamma_s * t / 2)
    v = mpmath.exp(-params.gamma_l * t / 2) * mpmath.exp(-1j * t)

    def excess(d):
        num = abs(u + d * d * v)
        return num / mpmath.sqrt((1 + d * d) * (u * u + d * d * abs(v) ** 2)) \
            - 1 / mpmath.sqrt(2)

    exact = mpmath.findroot(excess, (0.01, 0.5), solver="illinois")
    d_star = delta_for_equal_times(params)
    assert abs(d_star - exact) <= 4 * math.ulp(d_star)

"""Placement families: exact spectra, brute-force agreement, inversion."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dfs_sense import (TooLarge, Unreachable, arbitrary_exponential_placement,
                       arbitrary_linear_placement, exponential_placement,
                       linear_placement, table_rows, two_point_placement)


# ------------------------------------------------------------ family values

@pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
def test_two_point_exact(N):
    p = two_point_placement(N)
    assert p.predicted_range == Fraction(N, 2)
    assert p.predicted_level_count == N // 2 + 1
    assert p.predicted_gap == 1
    # two-site convention: spin-1 units double the range, midpoints drop out
    assert p.table_range == N
    assert p.table_level_count == N // 2
    assert len(p.positions) == 2
    assert p.quanta_per_site == (N // 2 + 1, N // 2 + 1)


@pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
def test_linear_exact(N):
    p = linear_placement(N)
    assert p.predicted_range == Fraction(N * N, 4 * (N - 1))
    assert p.predicted_gap == Fraction(1, N - 1)
    assert p.predicted_level_count == N * N // 4 + 1
    assert p.table_level_count == N * N // 4
    assert p.quanta_per_site == (2,) * N


@pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
def test_exponential_exact(N):
    p = exponential_placement(N)
    half = N // 2
    assert p.predicted_range == 2 - Fraction(2, 2 ** half) == 2 * (1 - Fraction(1, 2 ** half))
    assert p.predicted_level_count == 2 ** half
    assert p.pairing is not None and len(p.pairing) == half
    assert p.predicted_gap == p.predicted_range / (2 ** half - 1)


@pytest.mark.parametrize("family", [two_point_placement, linear_placement,
                                    exponential_placement])
@pytest.mark.parametrize("N", [3, 5, 0, -2])
def test_odd_or_invalid_N_rejected(family, N):
    with pytest.raises(ValueError):
        family(N)


# ---------------------------------------------------- brute-force agreement

@pytest.mark.parametrize("family", [two_point_placement, linear_placement,
                                    exponential_placement])
@pytest.mark.parametrize("N", [4, 6, 8, 10, 12, 16])
def test_enumeration_matches_prediction(family, N):
    p = family(N)
    enum = p.enumerate_levels()
    pred = p.predicted_levels()
    assert len(enum) == len(pred)
    assert all(a == b for a, b in zip(enum, pred))  # exact rationals


def test_predicted_levels_are_uniform_and_centered():
    p = linear_placement(8)
    lv = p.predicted_levels()
    gaps = {b - a for a, b in zip(lv, lv[1:])}
    assert gaps == {p.predicted_gap}
    assert lv[0] == -lv[-1] == -p.predicted_range / 2


def test_predicted_levels_cap():
    p = exponential_placement(40)   # 2^20 levels
    with pytest.raises(TooLarge):
        p.predicted_levels(max_levels=1 << 16)
    with pytest.raises(TooLarge):
        exponential_placement(50)


# --------------------------------------------------------------- round trip

def test_plan_integrates_with_field_layer():
    p = linear_placement(6)
    arr = p.as_sensor_array()
    sig = p.signal_field()
    noise = p.uniform_noise()
    assert arr.J == 6 and sig.J == 6 and noise.K == 1
    # f_perp really is the mean-removed signal
    f = np.asarray([float(v) for v in p.f_perp_values])
    assert abs(f.sum()) < 1e-12
    s = np.asarray([float(v) for v in p.signal_values])
    assert np.allclose(f, s - s.mean())


def test_table_rows_shape():
    rows = table_rows((4, 8))
    assert {r["family"] for r in rows} == {"two_point", "linear", "exponential"}
    assert len(rows) == 6
    for r in rows:
        # conventional counts drop the midpoint-or-endpoint bookkeeping:
        # pair families quote one fewer than the enumerated ladder
        if r["family"] == "exponential":
            assert r["enum_levels"] == r["levels"]
        else:
            assert r["enum_levels"] == r["levels"] + 1
    by = {(r["family"], r["N"]): r for r in rows}
    assert by[("two_point", 8)]["range"] == 8
    assert by[("two_point", 8)]["levels"] == 4
    assert by[("linear", 8)]["range"] == Fraction(16, 7)
    assert by[("linear", 8)]["levels"] == 16
    assert by[("exponential", 8)]["range"] == Fraction(15, 8)
    assert by[("exponential", 8)]["levels"] == 16


# ----------------------------------------------------- arbitrary placements

def test_arbitrary_linear_power_law():
    # dipole-like falloff 1/r^3 with exact inverse
    prof = lambda r: r ** -3.0
    inv = lambda f: f ** (-1.0 / 3.0)
    p = arbitrary_linear_placement(prof, inv, N=6, a=Fraction(1, 2), b=1)
    assert p.predicted_range == Fraction(1, 2) * Fraction(36, 20)
    assert p.predicted_gap == Fraction(1, 10)
    for r, f in zip(p.positions, p.signal_values):
        assert abs(prof(r) - float(f)) < 1e-8
    # positions must be distinct and the profile values uniformly spaced
    fv = [float(v) for v in p.signal_values]
    assert np.allclose(np.diff(fv), fv[1] - fv[0])


def test_arbitrary_linear_bisection_fallback():
    prof = lambda r: math.tanh(r)
    p = arbitrary_linear_placement(prof, None, N=4, a=0.5, bracket=(-5.0, 5.0))
    for r, f in zip(p.positions, p.signal_values):
        assert abs(prof(r) - float(f)) < 1e-8
    # float levels that differ by round-off merge into one level each
    p = arbitrary_linear_placement(prof, None, N=8, a=0.37, bracket=(-5.0, 5.0))
    enum = p.enumerate_levels()
    assert len(enum) == p.predicted_level_count == 17
    assert max(abs(e - x) for e, x in zip(enum, p.predicted_levels())) < 1e-12


def test_arbitrary_exponential_hits_pair_targets():
    prof = lambda r: math.exp(-r)
    inv = lambda f: -math.log(f)
    p = arbitrary_exponential_placement(prof, inv, f_max=1.0, f_min=0.25, N=6)
    enum = p.enumerate_levels()
    pred = p.predicted_levels()
    assert len(enum) == len(pred) == 8
    assert np.allclose([float(x) for x in enum], [float(x) for x in pred], atol=1e-12)
    for r, f in zip(p.positions, p.signal_values):
        assert abs(prof(r) - float(f)) < 1e-8


def test_arbitrary_inversion_failures():
    prof = lambda r: math.tanh(r)
    with pytest.raises(Unreachable):
        # target values exceed tanh's range
        arbitrary_linear_placement(prof, None, N=4, a=10.0, bracket=(-5.0, 5.0))
    with pytest.raises(ValueError):
        arbitrary_linear_placement(prof, None, N=4, a=0.5)  # no inverse, no bracket
    with pytest.raises(ValueError):
        arbitrary_linear_placement(prof, lambda f: 0.0, N=4, a=0.0)
    with pytest.raises(ValueError):
        arbitrary_exponential_placement(prof, None, f_max=0.1, f_min=0.5, N=4,
                                        bracket=(-5.0, 5.0))

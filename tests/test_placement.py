"""Placement families: exact spectra, brute-force agreement, inversion."""

import hashlib
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
    with pytest.raises(TooLarge, match="explicit cap 65536"):
        p.predicted_levels()
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


# ------------------------------------- named families as the identity case

# sha256 of repr(plan), first 16 hex digits, for the (linear, exponential)
# placements written out directly: positions +-(j - 1/2)/(N - 1) and
# +-(1/2)/2^(j-1) as Fractions, with the closed-form ranges and gaps
_NAMED_REPR_SHA256 = {
    2: ('4422230ea786c433', 'fe7397026e6b6376'),
    4: ('cfc2393398bade88', 'de74c3bda3b432ff'),
    6: ('d8d7403ad2ba4830', '7e304ebec06d8593'),
    8: ('7a944ce195fce42b', 'c12a8cb56c89dccc'),
    10: ('093c7e101b932d35', 'f0f377ef7c576559'),
    12: ('53e9071a42621798', '415f484ede21ab7a'),
    14: ('c4dadf1cea9809bc', '15ed4a73b74ec35d'),
    16: ('02dd2d0c09d51122', '0f6f49b8d1ee379d'),
    18: ('d37dc708bd15459e', '46951c8be11495bf'),
    20: ('de720cc1b9df2a99', 'b2735bc436ded30d'),
    22: ('03426b3c052078d3', 'bf43b7f33db600ec'),
    24: ('848acd0161e77874', '225a4ecbabc79f37'),
    26: ('2085e3d569180cd3', '778d6d2fc9f6403b'),
    28: ('4b3a04c3b96670eb', '1e62e2508a30691f'),
    30: ('0208b8ec3a49c0f6', '9337da08dd05cb26'),
    32: ('6c977a51c6001613', 'c1ce14cbde4542e2'),
    34: ('55f8962cd76fee97', 'de76d97bf2d95728'),
    36: ('41ea0981822d866b', 'e9610d2cb3c2fcef'),
    38: ('87506c51419a0b70', 'dd9240e18c56dc04'),
    40: ('304a8038d7dd89ae', '2c68f6544488a635'),
    42: ('a51ea071530cb4ed', 'df3ad50d0d1cd7a0'),
    44: ('2a920b929259fa6b', 'fdad6aadc6e75951'),
    46: ('2a75ea0c77c590e0', '695e4202a4a87dd7'),
    48: ('7fce6bf2854200ba', '09913de2c2787efc'),
}


@pytest.mark.parametrize("N", sorted(_NAMED_REPR_SHA256))
def test_named_plans_keep_their_repr(N):
    got = tuple(hashlib.sha256(repr(build(N)).encode()).hexdigest()[:16]
                for build in (linear_placement, exponential_placement))
    assert got == _NAMED_REPR_SHA256[N]


def _same_fields(named, arbitrary, family):
    assert named.family == family
    assert arbitrary.family == "arbitrary_" + family
    assert all(type(r) is Fraction for r in named.positions)
    assert all(type(r) is float for r in arbitrary.positions)
    assert arbitrary.positions == tuple(float(r) for r in named.positions)
    for name in ("N", "qubit_multiplicity", "signal_values", "f_perp_values",
                 "pairing", "predicted_range", "predicted_level_count",
                 "predicted_gap", "table_range", "table_level_count"):
        want, got = getattr(named, name), getattr(arbitrary, name)
        assert got == want, name
        pairs = zip(got, want) if isinstance(want, tuple) else [(got, want)]
        assert all(type(g) is type(w) for g, w in pairs), name


@pytest.mark.parametrize("N", range(2, 49, 2))
def test_named_plans_are_the_identity_profile_case(N):
    ident = lambda r: r
    _same_fields(linear_placement(N),
                 arbitrary_linear_placement(ident, ident, N, a=1), "linear")
    _same_fields(exponential_placement(N),
                 arbitrary_exponential_placement(ident, ident, Fraction(1, 2),
                                                 Fraction(-1, 2), N),
                 "exponential")

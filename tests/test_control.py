"""Flip schedules, effective spectra, enumeration, and equalization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfs_sense import control
from dfs_sense import (Degenerate, EffectiveSpectrum, NoiseModel, SensorArray,
                       SpatialField, SpinConfig, TooLarge, Unreachable, arbitrary_exponential_placement,
                       arbitrary_linear_placement, build_scenario, dfs_condition,
                       effective_signal_gap, enumerate_dfs_configs,
                       equalize_multidim, exponential_placement,
                       flip_schedule_for, linear_placement, parse_scenario,
                       sign_matched_anchor)


# ---------------------------------------------------------------- schedules

@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-2, max_value=2), st.fractions(min_value=Fraction(1, 4), max_value=2))
# alpha sits just below 1 but float(alpha) rounds to 1.0
@example(Fraction(968441951778994739409297705, 484220975889497423463975214), Fraction(2))
# a target a hair above smax equals it as a float, yet is out of reach
@example(Fraction(1, 3) + Fraction(1, 10 ** 30), Fraction(1, 3))
def test_flip_schedule_exact_average(target, smax):
    if abs(target) > smax:
        with pytest.raises(Unreachable):
            flip_schedule_for(target, smax)
        return
    sched = flip_schedule_for(target, smax)
    assert sched.realized_average() == target
    assert sched.accumulated_phase(3, 7) == 21 * target


def test_flip_schedule_shapes():
    held = flip_schedule_for(Fraction(1, 2), Fraction(1, 2))
    assert held.flip_fractions == () and held.start_sign == +1
    lo = flip_schedule_for(Fraction(-1, 2), Fraction(1, 2))
    assert lo.flip_fractions == () and lo.start_sign == -1
    mid = flip_schedule_for(0, Fraction(1, 2))
    assert mid.flip_fractions == (Fraction(1, 2),)
    with pytest.raises(Unreachable):
        flip_schedule_for(1, Fraction(1, 2))
    # a positive local_max that underflows to 0.0 as a float
    tiny = flip_schedule_for(0, Fraction(1, 10 ** 400))
    assert tiny.flip_fractions == (Fraction(1, 2),) and tiny.realized_average() == 0
    with pytest.raises(ValueError):
        # flips must ascend strictly
        from dfs_sense import FlipSchedule
        FlipSchedule((0.7, 0.3), +1, 0.5)


@pytest.mark.parametrize("local_max", [0, -0.5, Fraction(-1, 3), 0.0,
                                       float("nan")])
def test_flip_schedule_rejects_nonpositive_local_max(local_max):
    from dfs_sense import FlipSchedule
    with pytest.raises(ValueError, match="local_max must be positive"):
        FlipSchedule((), +1, local_max)


@pytest.mark.parametrize("target, local_max, name", [
    (float("nan"), 1.0, "target"), (float("inf"), 1.0, "target"),
    (-float("inf"), Fraction(1, 2), "target"), (0.2, float("inf"), "local_max"),
    (0.2, float("nan"), "local_max"), (Fraction(1, 5), -float("inf"), "local_max"),
])
def test_flip_schedule_for_rejects_non_finite_inputs(target, local_max, name):
    with pytest.raises(Unreachable, match=f"^{name} must be finite"):
        flip_schedule_for(target, local_max)


# ----------------------------------------------------------------- spectrum

def test_spectrum_from_levels_exact_dedupe():
    sp = EffectiveSpectrum.from_levels([Fraction(1, 3), Fraction(2, 6), 0, -1])
    assert sp.levels == (-1, 0, Fraction(1, 3))
    assert sp.L == 3
    assert sp.Delta == Fraction(4, 3)
    assert not sp.is_linear()


def test_spectrum_float_merge():
    sp = EffectiveSpectrum.from_levels([0.0, 1.0, 1.0 + 1e-12, 2.0])
    assert sp.L == 3
    assert sp.Delta == pytest.approx(2.0)
    assert sp.is_linear()
    assert sp.gap == pytest.approx(1.0)


def test_spectrum_single_level():
    sp = EffectiveSpectrum.from_levels([5, 5, 5])
    assert sp.L == 1 and sp.Delta == 0 and sp.gap == 0.0


def test_spectrum_linearity_flag():
    assert EffectiveSpectrum.from_levels([0, 1, 2, 3]).is_linear()
    assert not EffectiveSpectrum.from_levels([0, 1, 3]).is_linear()
    assert EffectiveSpectrum.from_levels([0, 1]).is_linear()


def test_from_levels_reports_first_given_config():
    a, b, c = (SpinConfig((Fraction(k, 2),)) for k in (1, -1, 0))
    sp = EffectiveSpectrum.from_levels([1.0 + 1e-15, 1.0, 0.0], [a, b, c])
    assert sp.levels == (0.0, 1.0)   # a merged level keeps its smallest value
    assert sp.configs == (c, a)


def _merge_levels_loop(values):
    """control._merge_levels as one Python loop over the sorted values: the
    reference its float path must equal."""
    fl = [float(v) for v in values]
    exact = control._exactable(*values)
    tol = 0.0 if exact else control.LEVEL_MERGE_RTOL * (max(fl) - min(fl))
    starts, first = [], []
    for i in np.argsort(fl, kind="stable").tolist():
        if starts and (values[i] == values[starts[-1]] if exact
                       else fl[i] - fl[starts[-1]] <= tol):
            first[-1] = min(first[-1], i)
        else:
            starts.append(i)
            first.append(i)
    return tuple(values[i] for i in starts), first


def _protected_values(J, quanta, noise):
    """The raw signal values protected_spectrum merges, on J sites at
    irregular positions under a gradient signal."""
    built = build_scenario(parse_scenario({
        "array": {"positions": [0.3 + 0.71 * j for j in range(J)],
                  "quanta_per_site": [quanta] * J},
        "signal": {"profile": "gradient", "amplitude": 1.37},
        "noise": noise, "prior": {"kind": "flat", "width": 1.0},
        "protocol": {"kind": "single_shot_flat"}}))
    rows = control._dfs_rows(built.array, built.noise, sign_matched_anchor(
        built.array, built.f_perp))
    return np.vecdot(control._spins(built.array, rows),
                     built.signal.vector).tolist()


_NOISE_2 = [{"profile": "constant"},
            {"profile": "power_law", "alpha": 1.0, "source": -1.3}]


@pytest.mark.parametrize("J, quanta, K", [
    (9, 2, 0), (9, 2, 1), (9, 2, 2), (17, 2, 1), (17, 2, 2),
    (6, 3, 0), (6, 3, 1), (6, 3, 2)])
def test_merge_levels_equals_loop_on_protected_values(J, quanta, K):
    values = _protected_values(J, quanta, _NOISE_2[:K])
    assert control._merge_levels(values) == _merge_levels_loop(values)


@pytest.mark.parametrize("J, quanta, K", [(9, 2, 2), (17, 2, 1), (6, 3, 2)])
def test_merge_levels_takes_a_float_array_as_floats(J, quanta, K, monkeypatch):
    # a float array is float by its dtype: no per-value exactness test, the
    # same levels and positions as its list, and the levels Python floats
    values = _protected_values(J, quanta, _NOISE_2[:K])
    want = _merge_levels_loop(values)

    def no_scan(*values):
        raise AssertionError("exactness tested value by value")
    monkeypatch.setattr(control, "_exactable", no_scan)
    levels, first = control._merge_levels(np.array(values))
    assert (levels, first) == want
    assert {type(v) for v in levels} == {float}
    with pytest.raises(ValueError, match="at least one level"):
        EffectiveSpectrum.from_levels(np.array([]))


def test_merge_levels_equals_loop_on_random_floats_with_ties():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 10, 100, 1000):
        for scale in (1.0, 1e-9, 1e-12):
            # few distinct values, some nudged by less than the tolerance
            base = rng.random(max(1, n // 4))
            values = (base[rng.integers(0, len(base), n)]
                      + scale * rng.random(n) * (rng.random(n) < 0.5)).tolist()
            assert control._merge_levels(values) == _merge_levels_loop(values)


def test_merge_levels_chain_splits_where_the_loop_splits():
    # consecutive values 0.6 tol apart: every other one starts a level, since
    # the test runs against the level's smallest value, not its neighbour
    values = [0.6e-9 * k for k in range(40)] + [1.0]
    levels, first = control._merge_levels(values)
    assert (levels, first) == _merge_levels_loop(values)
    assert levels[:3] == (0.0, values[2], values[4])
    reverse = values[::-1]
    assert control._merge_levels(reverse) == _merge_levels_loop(reverse)


def test_merge_levels_equals_loop_on_20_qubits():
    values = _protected_values(20, 2, _NOISE_2[:1])
    assert len(values) == 184_756
    assert control._merge_levels(values) == _merge_levels_loop(values)


# -------------------------------------------------------------- enumeration

def test_enumerate_uniform_noise_qubits():
    arr = SensorArray((0.0, 1.0, 2.0, 3.0), (2,) * 4)
    noise = NoiseModel((SpatialField((1.0, 1.0, 1.0, 1.0), label="noise:0"),))
    f = SpatialField((1.0, 2.0, 3.0, 4.0))
    anchor = SpinConfig((0.5, 0.5, -0.5, -0.5))
    configs = enumerate_dfs_configs(arr, noise, anchor=anchor)
    # zero total magnetization sector of 4 qubits: C(4,2) = 6
    assert len(configs) == 6
    for c in configs:
        assert sum(c.s) == 0


def test_enumerate_guard_and_anchor_default(monkeypatch):
    arr = SensorArray((0.0, 1.0), (2, 2))
    noise = NoiseModel(())
    f = SpatialField((1.0, -2.0))
    out = enumerate_dfs_configs(arr, noise, f_perp=f)
    # no noise: whole product ladder, sorted by signed gap to the anchor,
    # so the sign-matched (maximal) configuration comes out last
    assert len(out) == 4
    anchor = sign_matched_anchor(arr, f)
    assert anchor == SpinConfig((Fraction(1, 2), Fraction(-1, 2)))
    assert out[-1] == anchor
    gaps = [effective_signal_gap(c, anchor, f) for c in out]
    assert gaps == sorted(gaps) and gaps[-1] == 0.0
    # the guard bounds the size of the product each enumeration walks; it
    # fires before any work, so real sizes above 2^24 raise at once
    with pytest.raises(TooLarge, match="33554432 configurations exceed the guard 16777216"):
        enumerate_dfs_configs(SensorArray(tuple(range(25)), (2,) * 25), noise,
                              f_perp=SpatialField(tuple(range(1, 26))))
    with pytest.raises(TooLarge):
        linear_placement(26).enumerate_levels()              # 2^26 configurations
    monkeypatch.setattr(control, "ENUMERATION_GUARD", 3)
    with pytest.raises(TooLarge):
        enumerate_dfs_configs(arr, noise, f_perp=f)
    with pytest.raises(TooLarge):
        linear_placement(6).enumerate_levels()               # 2^6 configurations
    monkeypatch.setattr(control, "ENUMERATION_GUARD", 4)
    with pytest.raises(TooLarge):
        exponential_placement(6).enumerate_levels()          # 2^3 pair patterns
    monkeypatch.setattr(control, "ENUMERATION_GUARD", 8)
    assert len(exponential_placement(6).enumerate_levels()) == 8
    with pytest.raises(ValueError):   # one anchor value per site
        enumerate_dfs_configs(arr, noise, anchor=SpinConfig((0.5, 0.5, 0.5)))


def _brute_force_dfs(array, noise, anchor, f_perp):
    """Reference: filter the product ladder one configuration at a time."""
    out = [SpinConfig(combo) for combo in itertools.product(
        *(array.site_spin_values(j) for j in range(array.J)))
        if dfs_condition(SpinConfig(combo), anchor, noise)]
    if f_perp is not None:
        out.sort(key=lambda c: (effective_signal_gap(c, anchor, f_perp),
                                tuple(float(v) for v in c.s)))
    else:
        out.sort(key=lambda c: tuple(float(v) for v in c.s))
    return out


def test_enumerate_matches_brute_force_filter():
    # qutrits and ququarts, up to two noise fields, and the output order
    rng = np.random.default_rng(2024)
    kept = 0
    for J in range(2, 10):
        for K in (0, 1, 2):
            quanta = tuple(rng.choice((2, 3, 4), size=J).tolist())
            while math.prod(quanta) > 2048:
                quanta = tuple(rng.choice((2, 3, 4), size=J).tolist())
            arr = SensorArray(tuple(range(J)), quanta)
            while True:  # constant, random and gradient profiles, independent
                profiles = [np.ones(J), rng.choice((-2.0, -1.0, 1.0, 2.0), size=J),
                            np.arange(J) - (J - 1) / 2]
                rng.shuffle(profiles)
                try:
                    noise = NoiseModel(tuple(SpatialField(tuple(profiles[k]),
                                                          label=f"noise:{k}")
                                             for k in range(K)))
                    break
                except ValueError:
                    continue
            f_perp = SpatialField(tuple(rng.normal(size=J)))
            got = enumerate_dfs_configs(arr, noise, f_perp=f_perp)
            assert got == _brute_force_dfs(arr, noise, sign_matched_anchor(arr, f_perp),
                                           f_perp)
            anchor = SpinConfig(tuple(arr.site_spin_values(j)[rng.integers(quanta[j])]
                                      for j in range(J)))
            got = enumerate_dfs_configs(arr, noise, anchor=anchor)
            assert got == _brute_force_dfs(arr, noise, anchor, None)
            kept += len(got)
    assert kept > 100


# ----------------------------------------------------------------- equalize

def test_equalize_multidim_unit_case():
    s_eff, sp = equalize_multidim((1.0, 1.0))
    assert float(s_eff) == pytest.approx(0.25, abs=1e-15)
    assert np.allclose(sp.levels_float, [-0.75, -0.25, 0.25, 0.75], atol=1e-15)
    assert sp.is_linear()


def test_equalize_multidim_general_and_errors():
    s_eff, sp = equalize_multidim((Fraction(2), Fraction(3)))
    assert s_eff == Fraction(3, 8)
    gaps = np.diff(sp.levels_float)
    assert np.allclose(gaps, gaps[0])
    with pytest.raises(Degenerate):
        equalize_multidim((0.0, 1.0))
    with pytest.raises(Degenerate):
        equalize_multidim((1.0, 0.0))
    with pytest.raises(ValueError):
        equalize_multidim((1.0, 2.0, 3.0))


# ------------------------------------------------------ exact vs float kind

def _schedule_numbers(sched):
    return [*sched.flip_fractions, sched.local_max, sched.realized_average()]


def _equalize_numbers(c):
    s_eff, sp = equalize_multidim((c(Fraction(2, 3)), c(Fraction(3, 7))))
    return [s_eff, *sp.levels, *(v for cfg in sp.configs for v in cfg.s)]


def _plan_numbers(plan):
    return [*plan.signal_values, *plan.f_perp_values, plan.predicted_range,
            plan.predicted_gap, plan.table_range, *plan.predicted_levels()]


_CONSTRUCTIONS = {
    "flip_schedule_for": lambda c: _schedule_numbers(
        flip_schedule_for(c(Fraction(-2, 7)), c(Fraction(3, 2)))),
    "equalize_multidim": _equalize_numbers,
    "arbitrary_linear_placement": lambda c: _plan_numbers(
        arbitrary_linear_placement(math.tanh, math.atanh, 6, c(Fraction(-3, 5)),
                                   c(Fraction(1, 3)))),
    "arbitrary_exponential_placement": lambda c: _plan_numbers(
        arbitrary_exponential_placement(math.exp, math.log, c(Fraction(7, 3)),
                                        c(Fraction(1, 5)), 6)),
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTIONS))
def test_constructions_follow_input_kind(name):
    """Exact inputs give Fractions, float inputs floats, and the float path
    is float() of the exact one."""
    exact = _CONSTRUCTIONS[name](Fraction)
    floats = _CONSTRUCTIONS[name](float)
    assert len(exact) == len(floats) >= 3
    assert all(type(v) is Fraction for v in exact)
    assert all(type(v) is float for v in floats)
    for e, f in zip(exact, floats):
        assert math.isclose(f, float(e), rel_tol=1e-15, abs_tol=0.0), (e, f)

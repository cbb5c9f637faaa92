"""Flip schedules, effective spectra, ladders, and spectrum shaping."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfs_sense import (Degenerate, EffectiveSpectrum, NoiseModel, SensorArray,
                       SpatialField, SpinConfig, TooLarge, Tolerances,
                       Unreachable, dfs_condition, effective_signal_gap,
                       enumerate_dfs_configs, equalize_multidim,
                       exponential_placement, flip_schedule_for, ladder_probe,
                       linear_placement, shape_spectrum, sign_matched_anchor)


# ---------------------------------------------------------------- schedules

@settings(max_examples=100, deadline=None)
@given(st.fractions(min_value=-2, max_value=2), st.fractions(min_value=Fraction(1, 4), max_value=2))
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
    with pytest.raises(ValueError):
        # flips must ascend strictly
        from dfs_sense import FlipSchedule
        FlipSchedule((0.7, 0.3), +1, 0.5)


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
    assert sp.L == 1 and sp.Delta == 0


def test_spectrum_linearity_flag():
    assert EffectiveSpectrum.from_levels([0, 1, 2, 3]).is_linear()
    assert not EffectiveSpectrum.from_levels([0, 1, 3]).is_linear()
    assert EffectiveSpectrum.from_levels([0, 1]).is_linear()


# ------------------------------------------------------------------- ladder

def test_ladder_probe_two_qubit():
    f = SpatialField((1.0, -1.0))
    plan = ladder_probe(f, 2)
    assert len(plan.configs) == 3
    lv = plan.spectrum.levels_float
    assert np.allclose(lv, [-2.0, 0.0, 2.0])
    assert plan.spectrum.is_linear()
    # top rung realized by the schedules
    top = [s.realized_average() for s in plan.site_schedules]
    assert np.allclose([float(x) for x in top], [1.0, -1.0])


def test_ladder_probe_dfs_and_spacing():
    f = SpatialField((2.0, -1.0, 1.0))
    noise = NoiseModel((SpatialField((1.0, 1.0, -1.0), label="noise:0"),))
    # f is orthogonal to the noise profile, so every rung difference is protected
    plan = ladder_probe(f, 4)
    assert len(plan.configs) == 5
    anchor = plan.configs[0]
    for c in plan.configs:
        assert dfs_condition(c, anchor, noise)
    gaps = np.diff(plan.spectrum.levels_float)
    assert np.allclose(gaps, gaps[0])
    assert plan.economy_dims == (4, 2, 2)


def test_ladder_probe_rejects_odd_rung_count():
    with pytest.raises(ValueError):
        ladder_probe(SpatialField((1.0, 2.0)), 3)
    plan0 = ladder_probe(SpatialField((1.0, 2.0)), 0)
    assert plan0.spectrum.L == 1


def test_from_levels_reports_first_given_config():
    a, b, c = (SpinConfig((Fraction(k, 2),)) for k in (1, -1, 0))
    sp = EffectiveSpectrum.from_levels([1.0 + 1e-15, 1.0, 0.0], [a, b, c])
    assert sp.levels == (0.0, 1.0)   # a merged level keeps its smallest value
    assert sp.configs == (c, a)


# -------------------------------------------------------------- enumeration

def test_enumerate_uniform_noise_qubits():
    arr = SensorArray.qubits((0.0, 1.0, 2.0, 3.0))
    noise = NoiseModel((SpatialField((1.0, 1.0, 1.0, 1.0), label="noise:0"),))
    f = SpatialField((1.0, 2.0, 3.0, 4.0))
    anchor = SpinConfig((0.5, 0.5, -0.5, -0.5))
    configs = enumerate_dfs_configs(arr, noise, anchor=anchor)
    # zero total magnetization sector of 4 qubits: C(4,2) = 6
    assert len(configs) == 6
    for c in configs:
        assert sum(c.s) == 0


def test_enumerate_guard_and_anchor_default():
    arr = SensorArray.qubits((0.0, 1.0))
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
    # the guard bounds the size of the product each enumeration walks
    tight = Tolerances().with_(enumeration_guard=3)
    with pytest.raises(TooLarge):
        enumerate_dfs_configs(arr, noise, f_perp=f, tolerances=tight)
    with pytest.raises(TooLarge):
        linear_placement(6).enumerate_levels(tight)          # 2^6 configurations
    with pytest.raises(TooLarge):
        exponential_placement(6).enumerate_levels(          # 2^3 pair patterns
            Tolerances().with_(enumeration_guard=4))
    assert len(exponential_placement(6).enumerate_levels(
        Tolerances().with_(enumeration_guard=8))) == 8
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


# -------------------------------------------------------------------- shape

def test_shape_spectrum_symmetric():
    base = EffectiveSpectrum.from_levels([Fraction(-1), Fraction(1)])
    shaped = shape_spectrum(base, degeneracy=2, targets=[Fraction(-1, 2), Fraction(1, 2), 0])
    assert shaped.spectrum.levels == (Fraction(-1, 2), 0, Fraction(1, 2))
    assert not shaped.half_range_mixing
    assert shaped.copies_used == 2
    # fraction alpha = (lam + Delta/2)/Delta
    assert shaped.switch_fractions == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def test_shape_spectrum_asymmetric_and_errors():
    base = EffectiveSpectrum.from_levels([-2.0, 2.0])
    shaped = shape_spectrum(base, degeneracy=3, targets=[0.3, 1.1, -0.2])
    assert shaped.half_range_mixing
    assert shaped.copies_used == 3
    with pytest.raises(Unreachable):
        shape_spectrum(base, degeneracy=1, targets=[0.3, 1.1, -0.2])
    with pytest.raises(Unreachable):
        shape_spectrum(base, degeneracy=1, targets=[5.0])
    with pytest.raises(ValueError):
        shape_spectrum(EffectiveSpectrum.from_levels([0, 1, 2]), 1, [0.5])

"""Protocol planners: predictions, schedules, regimes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfs_sense import (Degenerate, EffectiveSpectrum, FlatPrior, GaussianPrior,
                       InsufficientTime, NotLinear, ProbeState,
                       adaptive_schedule,
                       base_time, berry_wiseman_probe, classify_regime,
                       fixed_time_single_shot, ghz_probe, ghz_reduction,
                       repeat_protocol, single_shot_flat)


def _linear(L, delta):
    g = delta / (L - 1)
    return EffectiveSpectrum.from_levels([-delta / 2 + k * g for k in range(L)])


# ---------------------------------------------------------------- base time

def test_base_time_reference_value():
    # width 2 pi, 5 levels spanning 4: t1 = 2 pi (L-1) / (W Delta) = 1
    assert base_time(_linear(5, 4.0), 2 * np.pi) == pytest.approx(1.0, abs=1e-15)


def test_base_time_errors():
    with pytest.raises(ValueError):
        base_time(_linear(3, 1.0), 0.0)
    with pytest.raises(Degenerate):
        base_time(EffectiveSpectrum.from_levels([2.0]), 1.0)


def test_ghz_reduction_shape():
    assert ghz_reduction(0.0) == 1.0
    assert ghz_reduction(1.0) == pytest.approx(1 - math.exp(-1))
    xs = np.linspace(0, 3, 7)
    out = ghz_reduction(xs)
    assert out.shape == xs.shape
    assert np.argmin(ghz_reduction(np.linspace(0, 3, 301))) == 100  # x = 1


# -------------------------------------------------------------- single shot

def test_single_shot_predictions():
    sp = _linear(31, 4.0)
    W = 1.0
    rep = single_shot_flat(sp, FlatPrior(W))
    assert rep.kind == "single_shot_flat"
    assert rep.prediction("predicted_mse") == pytest.approx(
        W ** 2 / (4 * 30 ** 2), rel=1e-15)
    assert rep.prediction("asymptotic_mse") == pytest.approx(
        W ** 2 / (4 * 31 ** 2), rel=1e-15)
    assert rep.prediction("holevo_mse") == pytest.approx(
        (W / (2 * np.pi)) ** 2 * math.tan(math.pi / 32) ** 2, rel=1e-12)
    assert rep.resources["t1"] == pytest.approx(2 * np.pi * 30 / (W * 4.0))
    assert rep.resources["L"] == 31
    assert rep.simulation is None


def test_single_shot_simulation_consistent():
    from dfs_sense import berry_wiseman_probe, canonical_phase_density
    sp = _linear(8, 4.0)
    W = 1.0
    rep = single_shot_flat(sp, FlatPrior(W), simulate=True, trials=30_000, seed=5)
    sim = rep.simulation
    assert sim is not None and sim.trials == 30_000
    # exact oracle: wrapped second moment of the sine-probe phase density,
    # scaled to frequency units by (W / 2 pi)^2 since the window is one period
    th = np.linspace(-np.pi, np.pi, 200_001)
    dens = canonical_phase_density(berry_wiseman_probe(8).vector, th)
    want = np.trapezoid(th * th * dens, th) * (W / (2 * np.pi)) ** 2
    assert abs(sim.mse - want) < 4 * sim.mse_stderr
    # and the closed-form prediction is the right order of magnitude
    assert 0.5 < want / rep.prediction("predicted_mse") < 1.0


def test_single_shot_requires_spread():
    with pytest.raises(Degenerate):
        single_shot_flat(EffectiveSpectrum.from_levels([1.0]), FlatPrior(1.0))
    with pytest.raises(NotLinear):
        single_shot_flat(EffectiveSpectrum.from_levels([0.0, 1.0, 5.0]), FlatPrior(1.0))


# ------------------------------------------------------------------- repeat

def test_repeat_reference_values():
    sp = _linear(5, 4.0)
    W, T = 1.0, 8 * np.pi
    rep = repeat_protocol(sp, FlatPrior(W), T)
    # t1 = 2 pi * 4 / 4 = 2 pi, nu = 4
    assert rep.resources["nu"] == 4
    assert rep.prediction("mse_per_window_over_nu") == pytest.approx(
        1 / 400, abs=1e-18)
    assert rep.prediction("mse_product_form") == pytest.approx(
        1 / (320 * np.pi), abs=1e-18)
    assert rep.resources["discrepancy"] == pytest.approx(
        (1 / (320 * np.pi)) / (1 / 400), rel=1e-12)


def test_repeat_single_window_matches_single_shot():
    sp = _linear(6, 3.0)
    W = 0.7
    t1 = base_time(sp, W)
    rep = repeat_protocol(sp, FlatPrior(W), t1)
    one = single_shot_flat(sp, FlatPrior(W))
    assert rep.resources["nu"] == 1
    assert rep.prediction("mse_per_window_over_nu") == pytest.approx(
        one.prediction("asymptotic_mse"), rel=1e-15)


def test_repeat_nu_scaling_exact():
    sp = _linear(6, 3.0)
    W = 0.7
    t1 = base_time(sp, W)
    r1 = repeat_protocol(sp, FlatPrior(W), t1)
    r10 = repeat_protocol(sp, FlatPrior(W), 10 * t1)
    assert r10.resources["nu"] == 10
    assert r10.prediction("mse_per_window_over_nu") == pytest.approx(
        r1.prediction("mse_per_window_over_nu") / 10, rel=1e-15)


def test_repeat_insufficient_time():
    sp = _linear(5, 4.0)
    t1 = base_time(sp, 1.0)
    with pytest.raises(InsufficientTime):
        repeat_protocol(sp, FlatPrior(1.0), 0.5 * t1)
    # exactly one window is allowed
    assert repeat_protocol(sp, FlatPrior(1.0), t1).resources["nu"] == 1


# ----------------------------------------------------------------- adaptive

def test_adaptive_reference_schedule():
    # L = 2, W0 = 1, Delta chosen so T Delta W0 / pi = 64: n = 3, W3 = 1/64
    sp = _linear(2, 1.0)
    W0 = 1.0
    T = 64 * np.pi / W0  # T Delta W0 = 64 pi -> x = 64
    rep = adaptive_schedule(sp, FlatPrior(W0), T)
    assert rep.resources["rounds"] == 3
    assert rep.prediction("final_width") == pytest.approx(1 / 64, rel=1e-15)
    times = [t for t, _ in rep.schedule]
    widths = [w for _, w in rep.schedule]
    assert len(times) == 3
    t1 = base_time(sp, W0)
    assert times == pytest.approx([t1, 4 * t1, 16 * t1])
    assert widths == pytest.approx([1 / 4, 1 / 16, 1 / 64])


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 64), st.floats(0.1, 10), st.floats(0.1, 50),
       st.floats(1.0, 1e4))
@example(L=11, W0=3.0, delta=1.0, factor=1.1)  # x = 22 - 1 ulp = 2L - 1 ulp
def test_adaptive_budget_and_closure(L, W0, delta, factor):
    sp = _linear(L, delta)
    t1 = base_time(sp, W0)
    T = t1 * factor
    try:
        rep = adaptive_schedule(sp, FlatPrior(W0), T)
    except InsufficientTime:
        # not even one round fits the budget; the schedule rounds a float
        # boundary toward fewer rounds (W_n T Delta >= pi is kept exact), so
        # x may sit up to rounding error above 2L, never further
        assert (2 * L) * (1 + 1e-12) > W0 * T * delta / np.pi
        return
    times = [t for t, _ in rep.schedule]
    n = len(times)
    total = sum(times)
    closed = t1 * ((2 * L) ** n - 1) / (2 * L - 1)
    assert abs(total - closed) < 1e-10 * closed
    # the guarantee the schedule is built around
    W_n = rep.prediction("final_width")
    assert W_n * T * delta >= np.pi * (1 - 1e-12)
    assert total <= T * (1 + 1e-12)
    # monotone structure
    assert all(b > a for a, b in zip(times, times[1:]))
    widths = [w for _, w in rep.schedule]
    assert all(b < a for a, b in zip(widths, widths[1:]))


def test_adaptive_width_bound_prediction():
    sp = _linear(4, 2.0)
    rep = adaptive_schedule(sp, FlatPrior(1.0), 4000.0)
    assert rep.prediction("width_bound") == pytest.approx(
        np.pi / (4000.0 * 2.0), rel=1e-15)
    fw = rep.prediction("final_width")
    assert rep.prediction("final_variance_idealized") == pytest.approx(
        fw ** 2 / 12, rel=1e-15)


def test_adaptive_insufficient_time():
    sp = _linear(2, 1.0)
    with pytest.raises(InsufficientTime):
        adaptive_schedule(sp, FlatPrior(1.0), 1.0)  # x = W T Delta / pi < 4


@pytest.mark.parametrize("plan, budget", [
    (single_shot_flat, ()), (repeat_protocol, (400.0,)),
    (adaptive_schedule, (400.0,))])
def test_flat_planners_reject_a_gaussian_prior(plan, budget):
    # a Gaussian standard deviation is no flat width: each planner refuses
    # the record before it predicts or simulates anything
    with pytest.raises(TypeError, match="FlatPrior"):
        plan(_linear(4, 1.0), GaussianPrior(1.0, mean=5.0), *budget,
             simulate=True, trials=64)


# ------------------------------------------------------------------ regimes

def test_classify_regime_map():
    assert classify_regime(0.01, 10) == "ghz"
    assert classify_regime(0.75 * 9, 10) == "sine_window"
    assert classify_regime(1000.0, 10) == "over_rotated"
    assert classify_regime(2.0, 10) == "intermediate"


def test_fixed_time_ghz_regime_closed_form():
    sp = _linear(2, 1.0)
    prior = GaussianPrior(1.0)
    rep = fixed_time_single_shot(sp, prior, t=0.05)
    assert rep.regime == "ghz"
    assert rep.prediction("variance_reduction_closed_form") == \
        pytest.approx(ghz_reduction(0.05), rel=1e-12)
    assert rep.prediction("variance_reduction") == \
        pytest.approx(ghz_reduction(0.05), rel=1e-9)


def test_fixed_time_sine_regime():
    L = 10
    sp = _linear(L, 2.0)
    prior = GaussianPrior(1.0)
    t = 0.75 * (L - 1) / (1.0 * 2.0)
    rep = fixed_time_single_shot(sp, prior, t=t)
    assert rep.regime == "sine_window"
    assert rep.resources["probe"] == "sine"
    red = rep.prediction("variance_reduction")
    assert 0 < red < 1


def test_fixed_time_reports_the_probe_it_evaluates():
    sp = _linear(16, 1.0)
    prior = GaussianPrior(0.5)
    for probe in ("uniform", "sine", "ghz"):
        rep = fixed_time_single_shot(sp, prior, t=10.0, probe=probe)
        assert rep.resources["probe"] == probe
    # the regime's own choice keeps its label
    assert fixed_time_single_shot(sp, prior, t=10.0).resources["probe"] == "sine"
    assert fixed_time_single_shot(sp, prior, t=1e-3).resources["probe"] == "ghz"


def test_fixed_time_closed_form_only_for_equal_extremal_weights():
    sp = _linear(3, 1.0)
    prior = GaussianPrior(1.0)
    # x = t W0 Delta = 1: the equal-weight closed form reads 1 - 1/e = 0.632
    rep = fixed_time_single_shot(sp, prior, t=1.0,
                                 probe=ProbeState.from_vector([0.8, 0, 0.6]))
    assert rep.prediction("variance_reduction") == pytest.approx(0.661, abs=1e-3)
    with pytest.raises(KeyError):
        rep.prediction("variance_reduction_closed_form")
    assert rep.resources["probe"] == "custom"
    rep = fixed_time_single_shot(sp, prior, t=1.0,
                                 probe=ProbeState.from_vector([1j, 0, 1]))
    assert rep.resources["probe"] == "ghz"
    assert rep.prediction("variance_reduction_closed_form") == pytest.approx(
        rep.prediction("variance_reduction"), rel=1e-12)


def test_fixed_time_over_rotation_warns():
    sp = _linear(4, 2.0)
    prior = GaussianPrior(1.0)
    rep = fixed_time_single_shot(sp, prior, t=4 * 10 * 4 / 2.0)
    assert rep.regime == "over_rotated"
    assert rep.recommendation is not None
    assert "t" in rep.recommendation


def test_fixed_time_l2_matches_ghz_curve_everywhere():
    sp = _linear(2, 3.0)
    W = 0.5
    prior = GaussianPrior(W)
    for x in np.linspace(0.05, 3.0, 25):
        t = x / (W * 3.0)
        rep = fixed_time_single_shot(sp, prior, t=t, probe="ghz")
        assert rep.prediction("variance_reduction") == pytest.approx(
            ghz_reduction(x), rel=1e-9)


def test_fixed_time_sine_beats_ghz_in_window_band():
    """More levels help when the phase window matches the prior width."""
    W = 1.0
    reds = []
    for L in (4, 8, 16, 32):
        delta = 2.0
        sp = _linear(L, delta)
        x = 0.75 * (L - 1)
        t = x / (W * delta)
        rep = fixed_time_single_shot(sp, prior=GaussianPrior(W), t=t,
                                     probe="sine")
        reds.append(rep.prediction("variance_reduction"))
    assert all(b < a for a, b in zip(reds, reds[1:]))


def test_fixed_time_simulation_hook():
    sp = _linear(2, 1.0)
    rep = fixed_time_single_shot(sp, GaussianPrior(1.0), t=0.1, simulate=True,
                                 trials=20_000, seed=4)
    sim = rep.simulation
    assert sim is not None
    assert abs(sim.extra["reduction_hat"] - ghz_reduction(0.1)) \
        < 5 * sim.extra["reduction_hat_stderr"]


def test_report_serialization():
    sp = _linear(5, 4.0)
    rep = single_shot_flat(sp, FlatPrior(1.0))
    d = rep.to_dict()
    assert d["kind"] == "single_shot_flat"
    assert {p["label"] for p in d["predictions"]} >= {
        "predicted_mse", "asymptotic_mse", "holevo_mse"}
    with pytest.raises(KeyError):
        rep.prediction("no_such_label")

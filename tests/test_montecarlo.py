"""Dephasing channels and Monte-Carlo estimation trials."""

import math
import tracemalloc

import numpy as np
import pytest

from dfs_sense import (DephasingChannel, EffectiveSpectrum, FlatPrior,
                       GaussianPrior, InsufficientTime, berry_wiseman_probe,
                       dephase_coherence, empirical_holevo,
                       ghz_probe, mc_dephase_check, montecarlo,
                       run_estimation_trials, simulate_adaptive,
                       simulate_fixed_time)
from dfs_sense.bayes import _moments


def _linear(L, delta=1.0):
    g = delta / (L - 1)
    return EffectiveSpectrum.from_levels([-delta / 2 + k * g for k in range(L)])


# ---------------------------------------------------------------- dephasing

def test_channel_validation():
    with pytest.raises(ValueError):
        DephasingChannel(((1.0, 1.0),), (1.0, 2.0), ("gaussian",))
    with pytest.raises(ValueError):
        DephasingChannel(((1.0, 1.0),), (1.0,), ("weird",))
    with pytest.raises(ValueError):
        DephasingChannel(((1.0, 1.0),), (-1.0,), ("gaussian",))
    ch = DephasingChannel.gaussian([(1.0, 1.0)], sigmas=(0.3,))
    assert ch.K == 1 and ch.kinds == ("gaussian",)


def test_protected_pair_is_exactly_one():
    ch = DephasingChannel.gaussian([(1.0, 1.0, 1.0, 1.0)])
    a = (0.5, 0.5, -0.5, -0.5)
    b = (-0.5, -0.5, 0.5, 0.5)
    assert dephase_coherence(ch, a, b) == 1.0  # exact, no rounding residue


def test_snap_window_handles_float_dust():
    # projection of order 1e-16 from float cancellation still counts as zero
    f = (1 / 3, 1 / 3, 1 / 3)
    ch = DephasingChannel.gaussian([f], sigmas=(1e6,))
    a = (0.5, 0.5, -0.5)
    b = (-0.5, 0.5, 0.5)  # difference (1, 0, -1): exact zero projection in reals
    assert dephase_coherence(ch, a, b) == 1.0


def test_gaussian_damping_value():
    ch = DephasingChannel.gaussian([(1.0, 1.0)], sigmas=(1.0,))
    # difference (1, 1) -> a = 2 -> exp(-0.5 * 4) = e^-2
    got = dephase_coherence(ch, (0.5, 0.5), (-0.5, -0.5))
    assert got == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_uniform_kind_sinc_zero():
    ch = DephasingChannel(((1.0, 1.0),), (1.0,), ("uniform",))
    # a = 2, chi uniform on [-pi, pi]: E cos(2 chi) = sinc(2) = 0
    got = dephase_coherence(ch, (0.5, 0.5), (-0.5, -0.5))
    assert abs(got) < 1e-15


def test_multi_channel_product():
    ch = DephasingChannel(((1.0, 0.0), (0.0, 1.0)), (0.5, 0.25),
                          ("gaussian", "gaussian"))
    a, b = (0.5, 0.5), (-0.5, -0.5)
    want = math.exp(-0.5 * 0.25) * math.exp(-0.5 * 0.0625)
    assert dephase_coherence(ch, a, b) == pytest.approx(want, rel=1e-14)


def test_dephase_coherence_bounds_and_snap():
    ch = DephasingChannel.gaussian([(1.0, -1.0, 0.5)], sigmas=(0.7,))
    mixed = DephasingChannel(((1 / 3, 1 / 3, 1 / 3), (1.0, -1.0, 0.0)),
                             (1e6, 0.4), ("gaussian", "uniform"))
    configs = [(0.5, 0.5, 0.5), (0.5, -0.5, 0.5), (-0.5, 0.5, -0.5),
               (0.5, -0.5, -0.5), (1.0, 0.0, -1.0), (0.5, 0.5, -0.5),
               (0.0, 0.0, 0.5)]  # the last two: a protected pair of mixed
    for a in configs:
        assert dephase_coherence(ch, a, a) == dephase_coherence(mixed, a, a) == 1.0
        for b in configs:
            d = dephase_coherence(ch, a, b)
            assert 0 < d <= 1 and d == dephase_coherence(ch, b, a)
    # the float-dust channel (1/3, 1/3, 1/3) snaps protected pairs to 1.0
    protected = [(a, b) for a in configs for b in configs
                 if a != b and dephase_coherence(mixed, a, b) == 1.0]
    assert ((0.5, 0.5, -0.5), (0.0, 0.0, 0.5)) in protected
    assert ((0.5, 0.5, 0.5), (0.5, -0.5, 0.5)) not in protected


def test_mc_dephase_check_agrees():
    ch = DephasingChannel.gaussian([(1.0, 1.0)], sigmas=(0.6,))
    chk = mc_dephase_check(ch, (0.5, 0.5), (-0.5, -0.5), trials=100_000, seed=2)
    assert abs(chk.z_score) < 4.0
    assert chk.analytic == pytest.approx(math.exp(-0.5 * (0.6 * 2) ** 2), rel=1e-12)
    # protected pair: zero-variance estimator, exact agreement
    chk0 = mc_dephase_check(ch, (0.5, -0.5), (-0.5, 0.5), trials=1000, seed=0)
    assert chk0.analytic == 1.0 and chk0.empirical == 1.0 and chk0.z_score == 0.0


def test_mc_dephase_check_uniform_kind():
    ch = DephasingChannel(((1.0, 1.0),), (0.5,), ("uniform",))
    chk = mc_dephase_check(ch, (0.5, 0.5), (-0.5, -0.5), trials=200_000, seed=5)
    assert chk.analytic == pytest.approx(float(np.sinc(1.0)), rel=1e-12)
    assert abs(chk.z_score) < 4.0


# ------------------------------------------------------- estimation trials

def _three_simulations(trials, seed, threads):
    """The flat, fixed-time and adaptive estimation runs on small ladders."""
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)
    prior = FlatPrior(2 * np.pi)
    return (
        run_estimation_trials(p, sp, prior, t=1.0, trials=trials, seed=seed,
                              threads=threads),
        simulate_fixed_time(p, sp, 0.3, 0.8, t=1.0, trials=trials, seed=seed,
                            threads=threads),
        simulate_adaptive(p, sp, FlatPrior(1.0), (0.25, 1 / 16),
                          (2 * np.pi, 8 * np.pi), trials=trials, seed=seed,
                          threads=threads),
    )


def test_trials_bit_identical_across_threads():
    one = _three_simulations(20_000, 7, threads=1)
    four = _three_simulations(20_000, 7, threads=4)
    for a, b in zip(one, four):
        assert a.to_dict() == b.to_dict()


def test_merge_matches_moments_of_joined_columns():
    rng = np.random.default_rng(0)
    # unequal chunks, columns far from zero mean and unequal scales
    chunks = [rng.normal([[5.0], [-3.0], [1e3]], [[1.0], [0.1], [50.0]],
                         size=(3, n)) for n in (4096, 1, 7, 1000, 2)]
    n, mean, com = montecarlo._merge(
        montecarlo._merge(_moments(chunks[0]), _moments(chunks[1])),
        montecarlo._merge(montecarlo._merge(_moments(chunks[2]),
                                            _moments(chunks[3])),
                          _moments(chunks[4])))
    want_n, want_mean, want_com = _moments(np.hstack(chunks))
    assert n == want_n == 5106
    assert np.allclose(mean, want_mean, rtol=1e-12, atol=0)
    assert np.allclose(com, want_com, rtol=1e-12, atol=0)


@pytest.mark.parametrize("nu", [1, 3])
def test_merged_summary_matches_records(nu):
    sp = _linear(5, 4.0)
    t = 1.3
    out = run_estimation_trials(berry_wiseman_probe(5), sp, FlatPrior(2.0),
                                t=t, trials=10_000, seed=4, nu=nu,
                                records=True, threads=2)
    err = out.records["error"]
    sq = err * err
    assert out.mse == pytest.approx(sq.mean(), rel=1e-12)
    assert out.mse_stderr == pytest.approx(
        sq.std(ddof=1) / math.sqrt(sq.size), rel=1e-12)
    resid = err * (t * sp.gap)
    assert out.extra["phase_mse"] == pytest.approx(np.mean(resid ** 2),
                                                   rel=1e-12)
    hol, hol_se = empirical_holevo(resid)
    assert out.holevo == pytest.approx(hol, rel=1e-9)
    assert out.holevo_stderr == pytest.approx(hol_se, rel=1e-9)
    # the 95 % interval is the normal one around the mse
    assert out.ci_low == pytest.approx(out.mse - 1.96 * out.mse_stderr, rel=1e-15)
    assert out.ci_high == pytest.approx(out.mse + 1.96 * out.mse_stderr, rel=1e-15)


def test_summary_memory_flat_in_trials():
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)
    runs = (
        lambda: run_estimation_trials(p, sp, FlatPrior(2 * np.pi), t=1.0,
                                      trials=100_000, seed=0),
        lambda: simulate_fixed_time(p, sp, 0.3, 0.8, t=1.0, trials=100_000,
                                    seed=0),
        lambda: simulate_adaptive(p, sp, FlatPrior(1.0), (0.25, 1 / 16),
                                  (2 * np.pi, 8 * np.pi), trials=100_000,
                                  seed=0),
    )
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


def test_repeat_memory_flat_in_nu():
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)
    tracemalloc.start()
    try:
        run_estimation_trials(p, sp, FlatPrior(2 * np.pi), t=1.0, trials=512,
                              seed=0, nu=10_000, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_repeat_row_blocks_keep_the_stream(monkeypatch):
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)

    def run():
        out = run_estimation_trials(p, sp, FlatPrior(2 * np.pi), t=1.0,
                                    trials=5000, seed=4, nu=37, records=True)
        return out.to_dict(), out.records.tobytes()

    blocked = run()  # 1771 rows per block: three blocks in the first chunk
    monkeypatch.setattr(montecarlo, "_DRAW_BLOCK", 1 << 40)
    assert run() == blocked


@pytest.mark.parametrize("which", ["flat", "fixed_time", "adaptive"])
@pytest.mark.parametrize("trials", [0, 1])
def test_trial_count_checked_before_chunks(which, trials, monkeypatch):
    def no_stream(*args):
        raise AssertionError("a chunk ran")
    monkeypatch.setattr(montecarlo, "_stream", no_stream)
    sp = _linear(3)
    p = ghz_probe(3)
    with pytest.raises(ValueError, match="at least 2"):
        if which == "flat":
            run_estimation_trials(p, sp, FlatPrior(1.0), t=1.0,
                                  trials=trials, seed=0)
        elif which == "fixed_time":
            simulate_fixed_time(p, sp, 0.0, 1.0, t=1.0, trials=trials, seed=0)
        else:
            simulate_adaptive(p, sp, FlatPrior(1.0), (0.25,), (2 * np.pi,),
                              trials=trials, seed=0)


def test_two_trials_give_finite_stderrs():
    for out in _three_simulations(2, 0, threads=1):
        assert out.trials == 2
        assert math.isfinite(out.mse_stderr)
        assert math.isfinite(out.holevo_stderr)


def test_trials_seed_reproducible_and_sensitive():
    sp = _linear(4)
    p = berry_wiseman_probe(4)
    prior = FlatPrior(2 * np.pi)
    a = run_estimation_trials(p, sp, prior, t=1.0, trials=10_000, seed=3)
    b = run_estimation_trials(p, sp, prior, t=1.0, trials=10_000, seed=3)
    c = run_estimation_trials(p, sp, prior, t=1.0, trials=10_000, seed=4)
    assert a.mse == b.mse
    assert a.mse != c.mse


def test_trials_input_validation():
    sp = _linear(3)
    p = ghz_probe(3)
    prior = FlatPrior(1.0)
    with pytest.raises(ValueError):
        run_estimation_trials(p, sp, prior, t=0.0, trials=10, seed=0)
    with pytest.raises(ValueError):
        run_estimation_trials(p, sp, prior, t=1.0, trials=0, seed=0)
    with pytest.raises(ValueError):
        run_estimation_trials(p, sp, prior, t=1.0, trials=10, seed=0, nu=0)


def test_ghz_wrapped_phase_mse():
    """Extremal probe, full window: phase MSE = pi^2/3 - 2."""
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    p = ghz_probe(2)
    out = run_estimation_trials(p, sp, FlatPrior(2 * np.pi), t=1.0,
                                trials=200_000, seed=11)
    want = math.pi ** 2 / 3 - 2.0
    # phase residual mse = omega mse * (t g)^2, here t g = 1
    assert out.extra["phase_mse"] == pytest.approx(out.mse, rel=1e-12)
    se = out.mse_stderr
    assert abs(out.mse - want) < 3.0 * se
    assert out.ci_low <= out.mse <= out.ci_high
    # Holevo variance of the extremal probe is 3
    assert abs(out.holevo - 3.0) < 3.0 * out.holevo_stderr


def test_records_roundtrip():
    sp = _linear(3, 2.0)
    p = berry_wiseman_probe(3)
    t = 2.0
    out = run_estimation_trials(p, sp, FlatPrior(1.0, lower=-0.5), t=t,
                                trials=500, seed=1, records=True)
    rec = out.records
    assert rec.dtype.names == ("omega", "outcome", "estimate", "error")
    assert len(rec) == 500
    assert np.allclose(rec["estimate"], rec["omega"] + rec["error"],
                       rtol=0, atol=1e-12)
    assert np.all((-0.5 <= rec["omega"]) & (rec["omega"] < 0.5))
    assert np.all((0.0 <= rec["outcome"]) & (rec["outcome"] < 2 * np.pi))
    # the outcome is the error's phase residual shifted by omega t g
    tg = t * sp.gap
    shift = np.mod(rec["outcome"] - rec["omega"] * tg - rec["error"] * tg
                   + np.pi, 2 * np.pi) - np.pi
    assert np.max(np.abs(shift)) < 1e-12
    assert np.mean(rec["error"] ** 2) == pytest.approx(out.mse, rel=1e-12)
    without = run_estimation_trials(p, sp, FlatPrior(1.0, lower=-0.5), t=t,
                                    trials=500, seed=1)
    assert without.records is None and without.to_dict() == out.to_dict()


def test_repeat_shots_reduce_mse():
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)
    prior = FlatPrior(2 * np.pi)
    single = run_estimation_trials(p, sp, prior, t=1.0, trials=40_000, seed=9)
    multi = run_estimation_trials(p, sp, prior, t=1.0, trials=40_000, seed=9,
                                  nu=8)
    assert multi.kind == "repeat" and single.kind == "single_shot_flat"
    assert multi.mse < single.mse / 4  # ~1/8 scaling with slack
    assert multi.nu == 8


# ---------------------------------------------------------------- fixed time

def test_fixed_time_matches_ghz_reduction():
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    p = ghz_probe(2)
    W = 1.0
    x = 0.1
    out = simulate_fixed_time(p, sp, prior_mean=0.0, prior_width=W, t=x / W,
                              trials=100_000, seed=21)
    want = 1.0 - x * x * math.exp(-x * x)
    got = out.extra["reduction_hat"]
    se = out.extra["reduction_hat_stderr"]
    assert abs(got - want) < 4.0 * se
    # the posterior mean never loses to the prior on average
    assert got < 1.0


def test_fixed_time_validation_and_determinism():
    sp = _linear(4)
    p = berry_wiseman_probe(4)
    with pytest.raises(ValueError):
        simulate_fixed_time(p, sp, 0.0, 1.0, t=0.0, trials=10, seed=0)
    a = simulate_fixed_time(p, sp, 0.3, 0.8, t=1.0, trials=5_000, seed=13)
    b = simulate_fixed_time(p, sp, 0.3, 0.8, t=1.0, trials=5_000, seed=13)
    assert a.mse == b.mse and a.extra == b.extra


def test_fixed_time_nonzero_prior_mean_unbiased():
    sp = _linear(3, 2.0)
    p = ghz_probe(3)
    out = simulate_fixed_time(p, sp, prior_mean=5.0, prior_width=0.05,
                              t=1.0, trials=50_000, seed=17)
    # estimator must track the shifted prior, not sit at zero
    assert out.mse < 0.05 ** 2


# ------------------------------------------------------------------ adaptive

def test_adaptive_validation():
    sp = _linear(2)
    p = ghz_probe(2)
    with pytest.raises(InsufficientTime):
        simulate_adaptive(p, sp, FlatPrior(1.0), (), (), trials=10, seed=0)


def test_adaptive_runs_and_reports():
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    p = ghz_probe(2)
    W0 = 1.0
    prior = FlatPrior(W0)
    widths = (W0 / 4, W0 / 16)
    times = (2 * np.pi / (W0 * 1.0), 4 * 2 * np.pi / (W0 * 1.0))
    out = simulate_adaptive(p, sp, prior, widths, times, trials=20_000, seed=3)
    assert out.kind == "adaptive"
    assert out.extra["rounds"] == 2
    assert out.extra["final_width"] == widths[-1]
    assert 0.0 <= out.extra["window_miss_rate"] <= 1.0
    assert out.extra["flat_window_variance"] == pytest.approx(widths[-1] ** 2 / 12)
    again = simulate_adaptive(p, sp, prior, widths, times, trials=20_000, seed=3)
    assert out.mse == again.mse


def test_summary_to_dict_keys():
    sp = _linear(2)
    out = run_estimation_trials(ghz_probe(2), sp, FlatPrior(2 * np.pi),
                                t=1.0, trials=100, seed=0)
    d = out.to_dict()
    for key in ("kind", "trials", "seed", "t", "nu", "mse", "mse_stderr",
                "ci95_low", "ci95_high", "holevo", "holevo_stderr",
                "phase_mse", "window"):
        assert key in d

"""Dephasing channels and Monte-Carlo estimation trials."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from dfs_sense import (DephasingChannel, EffectiveSpectrum, FlatPrior,
                       GaussianPrior, InsufficientTime, NoiseModel, NotLinear,
                       SpatialField,
                       berry_wiseman_probe, dephase_coherence, dfs_condition,
                       empirical_holevo,
                       ghz_probe, mc_dephase_check, montecarlo,
                       run_estimation_trials, simulate_adaptive,
                       simulate_fixed_time)
from dfs_sense import bayes
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


@pytest.mark.parametrize("factor", [2.0 ** -44, 2.0 ** 44],
                         ids=["2^-44", "2^44"])
def test_dephase_coherence_gauge_invariant(factor):
    # the channels of test_dephase_coherence_bounds_and_snap with each field
    # times a power of two and its sigma over it: chi_k f_k is unchanged, so
    # every damping keeps its bits
    channels = [DephasingChannel.gaussian([(1.0, -1.0, 0.5)], sigmas=(0.7,)),
                DephasingChannel(((1 / 3, 1 / 3, 1 / 3), (1.0, -1.0, 0.0)),
                                 (1e6, 0.4), ("gaussian", "uniform"))]
    configs = [(0.5, 0.5, 0.5), (0.5, -0.5, 0.5), (-0.5, 0.5, -0.5),
               (0.5, -0.5, -0.5), (1.0, 0.0, -1.0), (0.5, 0.5, -0.5),
               (0.0, 0.0, 0.5)]
    for ch in channels:
        gauged = DephasingChannel(
            tuple(tuple(x * factor for x in f) for f in ch.fields),
            tuple(s / factor for s in ch.sigmas), ch.kinds)
        for a in configs:
            for b in configs:
                assert (dephase_coherence(gauged, a, b)
                        == dephase_coherence(ch, a, b))


@pytest.mark.parametrize("seed", range(4))
def test_dephase_coherence_follows_the_dfs_condition(seed):
    # one protection rule: a pair dfs_condition keeps is undamped, and a pair
    # it rejects damps below 1 once some channel turns it by >= 1e-3 rad,
    # also for fields whose entries lie far below 1
    rng = np.random.default_rng(seed)
    J = 6
    configs = [tuple(0.5 - ((c >> j) & 1) for j in range(J)) for c in range(2 ** J)]
    configs += [tuple(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], J)) for _ in range(16)]
    shapes = [[np.ones(J), np.arange(J, dtype=float)], [np.ones(J)],
              [rng.normal(size=J)]]
    kept = rejected = 0
    for shape in shapes:
        scale = 10.0 ** rng.uniform(-18.0, 3.0)
        fields = [scale * rng.uniform(0.5, 2.0) * f for f in shape]
        noise = NoiseModel(tuple(SpatialField(tuple(f), f"noise:{k}")
                                 for k, f in enumerate(fields)))
        sigmas = tuple(10.0 ** rng.uniform(-1.0, 1.0) / scale for _ in fields)
        kinds = tuple(rng.choice(list(montecarlo.PHASE_LAWS), len(fields)))
        ch = DephasingChannel(tuple(tuple(f) for f in fields), sigmas, kinds)
        for a in configs:
            for b in configs:
                damp = dephase_coherence(ch, a, b)
                if dfs_condition(a, b, noise):
                    kept += 1
                    assert damp == 1.0
                elif any(abs(s * (f @ np.subtract(a, b))) >= 1e-3
                         for f, s in zip(fields, sigmas)):
                    rejected += 1
                    assert damp < 1.0
    assert kept > 4 * len(configs) and rejected > kept


def test_mc_dephase_check_agrees():
    ch = DephasingChannel.gaussian([(1.0, 1.0)], sigmas=(0.6,))
    chk = mc_dephase_check(ch, [((0.5, 0.5), (-0.5, -0.5))], trials=100_000,
                           seed=2)[0]
    assert abs(chk.z_score) < 4.0
    assert chk.analytic == pytest.approx(math.exp(-0.5 * (0.6 * 2) ** 2), rel=1e-12)
    # protected pair: zero-variance estimator, exact agreement
    chk0 = mc_dephase_check(ch, [((0.5, -0.5), (-0.5, 0.5))], trials=1000,
                            seed=0)[0]
    assert chk0.analytic == 1.0 and chk0.empirical == 1.0 and chk0.z_score == 0.0


def test_mc_dephase_check_uniform_kind():
    ch = DephasingChannel(((1.0, 1.0),), (0.5,), ("uniform",))
    chk = mc_dephase_check(ch, [((0.5, 0.5), (-0.5, -0.5))], trials=200_000,
                           seed=5)[0]
    assert chk.analytic == pytest.approx(float(np.sinc(1.0)), rel=1e-12)
    assert abs(chk.z_score) < 4.0


def _mixed_channel_pairs():
    """Two Gaussian and one uniform channel; protected and damped pairs."""
    ch = DephasingChannel(((1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 0.0, 0.0),
                           (0.0, 0.0, 1.0, -1.0)),
                          (0.4, 0.3, 0.2), ("gaussian", "uniform", "gaussian"))
    pairs = [((0.5, 0.5, -0.5, -0.5), (-0.5, -0.5, 0.5, 0.5)),
             ((0.5, 0.5, 0.5, 0.5), (-0.5, -0.5, -0.5, -0.5)),
             ((0.5, -0.5, 0.5, 0.5), (-0.5, 0.5, 0.5, 0.5)),
             ((1.0, 0.0, -1.0, 0.0), (0.0, 0.0, 0.0, 0.0))]
    return ch, pairs


def test_mc_dephase_check_pairs_share_one_draw():
    ch, pairs = _mixed_channel_pairs()
    together = mc_dephase_check(ch, pairs, trials=10_000, seed=4)
    assert len(together) == len(pairs)
    for pair, chk in zip(pairs, together):
        alone, = mc_dephase_check(ch, [pair], trials=10_000, seed=4)
        assert chk.analytic == alone.analytic
        for key in ("empirical", "stderr", "z_score"):
            a, b = getattr(chk, key), getattr(alone, key)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300), key
    assert together[0].analytic == 1.0 and together[0].stderr == 0.0
    assert all(chk.analytic < 1.0 for chk in together[1:])


# ------------------------------------------------------- estimation trials

def _simulations(trials, seed):
    """The flat, fixed-time and adaptive estimation runs on small ladders,
    by name, each as a call not yet made."""
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)
    prior = FlatPrior(2 * np.pi)
    return {
        "flat": lambda: run_estimation_trials(p, sp, prior, t=1.0,
                                              trials=trials, seed=seed),
        "fixed_time": lambda: simulate_fixed_time(p, sp, GaussianPrior(0.8, 0.3),
                                                  t=1.0, trials=trials,
                                                  seed=seed),
        "adaptive": lambda: simulate_adaptive(p, sp, FlatPrior(1.0),
                                              (0.25, 1 / 16),
                                              (2 * np.pi, 8 * np.pi),
                                              trials=trials, seed=seed),
    }


def _three_simulations(trials, seed):
    return tuple(run() for run in _simulations(trials, seed).values())


@pytest.mark.parametrize("which", ["flat", "fixed_time", "adaptive"])
def test_one_sampler_and_one_coherence_pass_per_simulation(which, monkeypatch):
    """Each simulation builds one sampler through the module name
    montecarlo.CanonicalSampler (the benchmark's tracer replaces that name)
    and computes the coherence sums R_d once."""
    built, sums = [], []
    real_sampler, real_sums = montecarlo.CanonicalSampler, bayes._coherence_sums

    def counting_sampler(*args, **kwargs):
        built.append(args)
        return real_sampler(*args, **kwargs)

    def counting_sums(x):
        sums.append(x)
        return real_sums(x)

    monkeypatch.setattr(montecarlo, "CanonicalSampler", counting_sampler)
    # count a copy of the name imported into montecarlo too, should one appear
    for module in (bayes, montecarlo):
        monkeypatch.setattr(module, "_coherence_sums", counting_sums,
                            raising=False)
    _simulations(1000, 0)[which]()
    assert (len(built), len(sums)) == (1, 1)


def _merged_moments(monkeypatch, run):
    """(n, mean bytes, comoment bytes) of the one _run_chunked pass run makes."""
    merged = []
    real = montecarlo._run_chunked

    def keep(*args):
        merged.append(real(*args))
        return merged[-1]

    monkeypatch.setattr(montecarlo, "_run_chunked", keep)
    run()
    (n, mean, com), = merged
    return n, mean.tobytes(), com.tobytes()


@pytest.mark.parametrize("which", ["flat", "fixed_time", "adaptive", "dephase"])
def test_merged_moments_follow_the_seed_alone(which, monkeypatch):
    # the seed contract: chunk idx reads a new stream (seed, 2^32 + idx) and
    # the chunk records merge in chunk order, whatever generator re-keying
    # the engine does in between
    trials = 5 * montecarlo._CHUNK + 123  # six chunks, the last one short
    ch, pairs = _mixed_channel_pairs()
    runs = dict(_simulations(trials, 11),
                dephase=lambda: mc_dephase_check(ch, pairs, trials=trials,
                                                 seed=11))

    def reference(trials, seed, chunk_fn):
        return reduce(montecarlo._merge, (
            _moments(chunk_fn(montecarlo._stream(seed, (1 << 32) + idx),
                              min(montecarlo._CHUNK, trials - start)))
            for idx, start in enumerate(range(0, trials, montecarlo._CHUNK))))

    with monkeypatch.context() as m:
        got = _merged_moments(m, runs[which])
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_run_chunked", reference)
        want = _merged_moments(m, runs[which])
    assert got[0] == trials and got == want


class _ChunkFailure(Exception):
    pass


@pytest.mark.parametrize("failing", [1, 4])  # chunk index of 10
def test_chunk_exception_reaches_the_caller(failing):
    failure, calls = _ChunkFailure(), []

    def chunk_fn(rng, size):
        calls.append(size)
        if len(calls) == failing + 1:
            raise failure
        return rng.random((2, size))

    with pytest.raises(_ChunkFailure) as exc:
        montecarlo._run_chunked(10 * montecarlo._CHUNK, 0, chunk_fn)
    assert exc.value is failure and len(calls) == failing + 1  # no chunk after it


def test_simulation_starts_no_thread(monkeypatch):
    # every chunk runs on the calling thread
    started = []
    start = threading.Thread.start

    def counting(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    _simulations(5 * montecarlo._CHUNK + 123, 0)["flat"]()  # six chunks
    assert started == []


def test_import_leaves_out_concurrent_futures():
    # concurrent.futures (with the logging, queue and traceback modules it
    # imports) stays out of every dfs-sense process
    src = Path(montecarlo.__file__).resolve().parent.parent
    code = ("import sys; import dfs_sense; from dfs_sense import cli; "
            "cli.build_parser(); print(sorted(m for m in sys.modules "
            "if m.startswith('concurrent')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


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


def _record_chunks(monkeypatch):
    """Wrap montecarlo._run_chunked to keep the columns of its last run's
    chunks in call order, which is trial order; the returned function joins
    them, one row per column."""
    chunks = []
    run = montecarlo._run_chunked

    def recording(trials, seed, chunk_fn):
        chunks.clear()

        def keep(rng, size):
            chunks.append(np.vstack(chunk_fn(rng, size)))
            return chunks[-1]
        return run(trials, seed, keep)

    monkeypatch.setattr(montecarlo, "_run_chunked", recording)
    return lambda: np.hstack(chunks)


@pytest.mark.parametrize("nu", [1, 3])
def test_merged_summary_matches_records(nu, monkeypatch):
    columns = _record_chunks(monkeypatch)
    sp = _linear(5, 4.0)
    t = 1.3
    out = run_estimation_trials(berry_wiseman_probe(5), sp, FlatPrior(2.0),
                                t=t, trials=10_000, seed=4, nu=nu)
    sq, cos, sin, resid2 = columns()
    assert sq.size == 10_000
    resid = np.arctan2(sin, cos)
    assert np.allclose(resid ** 2, resid2, rtol=1e-12, atol=0)
    err = resid / (t * sp.gap)
    assert np.allclose(err * err, sq, rtol=1e-12, atol=0)
    assert out.mse == pytest.approx(sq.mean(), rel=1e-12)
    assert out.mse_stderr == pytest.approx(
        sq.std(ddof=1) / math.sqrt(sq.size), rel=1e-12)
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
        lambda: simulate_fixed_time(p, sp, GaussianPrior(0.8, 0.3), t=1.0,
                                    trials=100_000, seed=0),
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
                              seed=0, nu=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_repeat_row_blocks_keep_the_stream(monkeypatch):
    sp = _linear(5, 4.0)
    p = berry_wiseman_probe(5)
    columns = _record_chunks(monkeypatch)

    def run():
        out = run_estimation_trials(p, sp, FlatPrior(2 * np.pi), t=1.0,
                                    trials=5000, seed=4, nu=37)
        return out.to_dict(), columns().tobytes()

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
            simulate_fixed_time(p, sp, GaussianPrior(1.0), t=1.0, trials=trials, seed=0)
        else:
            simulate_adaptive(p, sp, FlatPrior(1.0), (0.25,), (2 * np.pi,),
                              trials=trials, seed=0)


def test_two_trials_give_finite_stderrs():
    for out in _three_simulations(2, 0):
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

def test_flat_trials_reject_a_period_shorter_than_the_prior():
    # the residual period 2 pi/(t g) must hold the prior width: at t = 3 a
    # 2 pi wide prior on a unit ladder aliases, and the circular residual
    # would hide it
    sp = _linear(4, 3.0)
    p = berry_wiseman_probe(4)
    prior = FlatPrior(2 * np.pi)
    with pytest.raises(ValueError, match="prior width"):
        run_estimation_trials(p, sp, prior, t=3.0, trials=64, seed=0)
    with pytest.raises(ValueError, match="prior width"):
        run_estimation_trials(p, sp, prior, t=1.0 + 1e-9, trials=64, seed=0)
    # the base time t1 = 2 pi/(W0 g) fits exactly
    W = 1.7
    t1 = 2 * np.pi / (W * sp.gap)
    out = run_estimation_trials(p, sp, FlatPrior(W), t=t1, trials=64, seed=0)
    assert out.extra["window"] == pytest.approx(W)


def test_fixed_time_matches_ghz_reduction():
    sp = EffectiveSpectrum.from_levels([-0.5, 0.5])
    p = ghz_probe(2)
    W = 1.0
    x = 0.1
    out = simulate_fixed_time(p, sp, GaussianPrior(W), t=x / W,
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
        simulate_fixed_time(p, sp, GaussianPrior(1.0), t=0.0, trials=10, seed=0)
    a = simulate_fixed_time(p, sp, GaussianPrior(0.8, 0.3), t=1.0,
                            trials=5_000, seed=13)
    b = simulate_fixed_time(p, sp, GaussianPrior(0.8, 0.3), t=1.0,
                            trials=5_000, seed=13)
    assert a.mse == b.mse and a.extra == b.extra


def test_fixed_time_nonzero_prior_mean_unbiased():
    sp = _linear(3, 2.0)
    p = ghz_probe(3)
    out = simulate_fixed_time(p, sp, GaussianPrior(0.05, mean=5.0),
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


_ESTIMATORS = pytest.mark.parametrize("estimate", [
    lambda p, sp: run_estimation_trials(p, sp, FlatPrior(1.0), 1.0, 100, 0),
    lambda p, sp: simulate_fixed_time(p, sp, GaussianPrior(1.0), 1.0, 100, 0),
    lambda p, sp: simulate_adaptive(p, sp, FlatPrior(1.0), (0.5,), (1.0,),
                                    100, 0)],
    ids=["flat", "fixed_time", "adaptive"])


@_ESTIMATORS
def test_estimators_reject_a_non_uniform_ladder(estimate):
    # gaps 1 and 2: no uniform gap exists, so no estimator may assume Delta/(L-1)
    sp = EffectiveSpectrum((0.0, 1.0, 3.0))
    with pytest.raises(NotLinear, match="uniformly spaced"):
        estimate(berry_wiseman_probe(sp), sp)


@_ESTIMATORS
def test_estimators_reject_a_probe_of_another_length(estimate):
    # a 4-level probe on a 16-level ladder, as amplitudes and as rho, is
    # refused as variance_reduction refuses it
    p = berry_wiseman_probe(4)
    for probe in (p, p.vector, np.outer(p.vector, p.vector.conj())):
        with pytest.raises(ValueError, match="level counts differ"):
            estimate(probe, _linear(16))


def test_summary_to_dict_keys():
    sp = _linear(2)
    out = run_estimation_trials(ghz_probe(2), sp, FlatPrior(2 * np.pi),
                                t=1.0, trials=100, seed=0)
    d = out.to_dict()
    for key in ("kind", "trials", "seed", "t", "nu", "mse", "mse_stderr",
                "ci95_low", "ci95_high", "holevo", "holevo_stderr",
                "phase_mse", "window"):
        assert key in d

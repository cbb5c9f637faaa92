"""The Monte-Carlo random streams: SplitMix64 keyed by (seed, index).

Reference values come from outside this package: Vigna's splitmix64.c
(state 0, increment 0x9E3779B97F4A7C15) and OpenJDK 17's
java.util.SplittableRandom, whose split number index of
``new SplittableRandom(seed)`` is the stream (seed, index). Statistical
checks use fixed seeds, with bounds at 5 standard errors or at the 1 %
critical value.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dfs_sense import FlatPrior, berry_wiseman_probe, montecarlo, run_estimation_trials
from dfs_sense.control import EffectiveSpectrum

N = 1 << 20  # uniform draws per statistical check
_stream = montecarlo._stream


def test_words_match_splitmix64_reference():
    # the first outputs of splitmix64.c from state 0
    words = montecarlo._SplitMix64(0, montecarlo._GOLDEN_GAMMA)._words(4)
    assert [hex(w) for w in words.tolist()] == [
        "0xe220a8397b1dcdaf", "0x6e789e6aa1b965f4", "0x6c45d188009454f",
        "0xf88bb8a8724c81ec"]


@pytest.mark.parametrize("seed, index, words, double", [
    (0, 0, (1750893463095773485, 15026617196815859347, 14217238538181877965),
     0.05157242386710781),
    (0, 5, (5327462232899982263, 4072107289376898859, 6779610912475069841),
     0.9338597776037848),
    (7, 1, (4715754045022627005, 14190545969926740849, 9317054705895753997),
     0.3880328334415559),
    (2 ** 64 - 1, 5, (166446207476460785, 14177729908202911907,
                      11737534818465319687), 0.8578013387967389),
])
def test_keyed_stream_matches_splittable_random(seed, index, words, double):
    # split number index of SplittableRandom(seed): three nextLong, then
    # one nextDouble
    assert tuple(_stream(seed, index)._words(3).tolist()) == words
    assert _stream(seed, index).random(4)[3] == double


def test_stream_is_fixed_by_seed_and_index():
    a = _stream(3, 1 << 32).random(1000)
    assert a.tobytes() == _stream(3, 1 << 32).random(1000).tobytes()
    for other in ((3, (1 << 32) + 1), (4, 1 << 32)):
        assert not np.array_equal(a, _stream(*other).random(1000))


def test_split_draws_equal_one_draw():
    whole = _stream(11, 1 << 32).random(1000)
    s = _stream(11, 1 << 32)
    parts = [s.random(7).ravel(), s.random((3, 11)).ravel(), s.random(0),
             s.uniform(0.0, 1.0, 40), s.random(920)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    s = _stream(11, 1 << 32)
    s.normal(0.0, 1.0, 5)  # three pairs: six doubles
    assert s.random(994).tobytes() == whole[6:].tobytes()


def test_doubles_lie_on_the_53_bit_grid():
    x = _stream(1, 2).random(N)
    assert x.min() >= 0.0 and x.max() < 1.0
    k = x * 2.0 ** 53
    assert np.array_equal(k, np.floor(k))
    # the largest word maps to the largest double below 1
    s = montecarlo._SplitMix64(0, 1)
    s._words = lambda n: np.full(n, 2 ** 64 - 1, dtype=np.uint64)
    assert s.random(1)[0] == 1.0 - 2.0 ** -53


def test_uniform_moments_and_histogram():
    x = _stream(5, 9).random(N)
    assert abs(x.mean() - 0.5) <= 5 * math.sqrt(1 / 12 / N)
    # the sample variance of U(0, 1) has variance (mu4 - sigma^4)/n = 1/(180 n)
    assert abs(x.var() - 1 / 12) <= 5 * math.sqrt(1 / 180 / N)
    counts = np.bincount((x * 256).astype(int), minlength=256)
    expected = N / 256
    chi2 = float(((counts - expected) ** 2).sum() / expected)
    assert chi2 <= 310.46  # chi^2 with 255 degrees of freedom, 1 % upper point


def test_uniform_rescales_to_its_interval():
    u = _stream(5, 10).uniform(-3.0, 1.0, N)
    assert u.min() >= -3.0 and u.max() < 1.0
    assert abs(u.mean() + 1.0) <= 5 * 4.0 * math.sqrt(1 / 12 / N)


def _corr(a, b) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def test_no_lag_or_cross_stream_correlation():
    bound = 5 / math.sqrt(N)
    x = _stream(8, 1 << 32).random(N)
    assert abs(_corr(x[:-1], x[1:])) <= bound
    for other in ((8, (1 << 32) + 1), (9, 1 << 32)):
        assert abs(_corr(x, _stream(*other).random(N))) <= bound


def test_box_muller_matches_the_normal_law():
    n = 1 << 18
    z = (_stream(2, 3).normal(2.0, 3.0, n) - 2.0) / 3.0
    assert abs(z.mean()) <= 5 / math.sqrt(n)
    assert abs(z.var() - 1.0) <= 5 * math.sqrt(2 / n)
    kurtosis = float((z ** 4).mean() / z.var() ** 2)
    assert abs(kurtosis - 3.0) <= 5 * math.sqrt(24 / n)
    srt = np.sort(z)
    phi = np.array([0.5 * (1 + math.erf(v / math.sqrt(2))) for v in srt])
    i = np.arange(1, n + 1)
    ks = max(float((i / n - phi).max()), float((phi - (i - 1) / n).max()))
    assert ks <= 1.628 / math.sqrt(n)  # Kolmogorov distribution, 1 % point


@pytest.mark.parametrize("n", [1, 2, 3, 4095, 4096])
def test_box_muller_equals_its_plain_expression_bit_for_bit(n):
    """The in-place passes give the bytes of the plain Box-Muller expression."""
    u = _stream(4, 9).random(2 * ((n + 1) // 2))
    m = len(u) // 2
    r = np.sqrt(-2.0 * np.log1p(-u[:m]))
    angle = 2.0 * np.pi * u[m:]
    want = 0.3 + 1.7 * np.concatenate((r * np.cos(angle), r * np.sin(angle)))[:n]
    assert _stream(4, 9).normal(0.3, 1.7, n).tobytes() == want.tobytes()


def test_box_muller_odd_count_and_zero_draw():
    assert _stream(0, 0).normal(0.0, 1.0, 7).shape == (7,)
    s = montecarlo._SplitMix64(0, 1)
    s._words = lambda n: np.zeros(n, dtype=np.uint64)  # u = 0: radius 0
    assert s.normal(1.5, 2.0, 2).tolist() == [1.5, 1.5]


# --------------------------------------------------------------- seed guard

@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 3])
def test_run_rejects_a_seed_outside_64_bits(seed):
    def chunk_fn(rng, size):
        raise AssertionError("a chunk ran")
    with pytest.raises(ValueError, match="seed"):
        montecarlo._run_chunked(10, seed, chunk_fn)


def test_largest_seed_runs_and_differs_from_seed_0():
    sp = EffectiveSpectrum.from_levels([0.0, 0.25, 0.5, 0.75, 1.0])
    p = berry_wiseman_probe(5)

    def run(seed):
        return run_estimation_trials(p, sp, FlatPrior(2 * np.pi), t=1.0,
                                     trials=500, seed=seed).mse
    assert run(2 ** 64 - 1) != run(0)
    with pytest.raises(ValueError, match="seed"):
        run(2 ** 64)


# ------------------------------------------------------- process footprint

def _doc(prior, protocol):
    return {"array": {"placement": "exponential", "N": 4},
            "signal": {"profile": "gradient"},
            "noise": [{"profile": "constant", "sigma": 0.7}],
            "prior": prior, "protocol": protocol, "seed": 5, "trials": 300}


def test_monte_carlo_commands_leave_out_numpy_random(tmp_path):
    # a Monte-Carlo process draws from montecarlo's streams alone: neither
    # protocol --simulate (all four kinds) nor dfs-check imports numpy.random
    flat = {"kind": "flat", "width": 1.0}
    docs = {"ssf": _doc(flat, {"kind": "single_shot_flat"}),
            "repeat": _doc(flat, {"kind": "repeat", "total_time": 200.0}),
            "adaptive": _doc(flat, {"kind": "adaptive", "total_time": 500.0}),
            "fixed": _doc({"kind": "gaussian", "width": 0.2},
                          {"kind": "fixed_time", "t": 2.0})}
    argvs = []
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argvs.append(["protocol", "--simulate", "--scenario", str(path)])
    argvs.append(["dfs-check", "--scenario", str(tmp_path / "ssf.json")])
    code = ("import json, sys; from dfs_sense import cli; "
            f"codes = [cli.main(a) for a in {argvs!r}]; "
            "print(json.dumps([codes, 'numpy.random' in sys.modules]), "
            "file=sys.stderr)")
    src = Path(montecarlo.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    codes, imported = json.loads(out.stderr.strip().splitlines()[-1])
    assert codes == [0] * 5 and imported is False

"""Inputs at the edge of floating point: every command ends with an exit code
from the README table and a one-line message, never a traceback, a hang or
a non-finite number printed with exit 0."""

import json
import math
import re
import signal
import tracemalloc

import numpy as np
import pytest

from dfs_sense import (EffectiveSpectrum, FlatPrior, NumericFailure,
                       adaptive_schedule, berry_wiseman_probe, cli,
                       ghz_reduction, montecarlo, run_estimation_trials)
from dfs_sense.bayes import CanonicalSampler
from dfs_sense.montecarlo import PHASE_LAWS

_EXP8 = {"placement": "exponential", "N": 8}
_GRADIENT = {"profile": "gradient"}
_HUGE_GRADIENT = {"profile": "gradient", "amplitude": 1e300}
_CONSTANT = [{"profile": "constant"}]


def _doc(array, signal_, noise, prior, protocol):
    return {"array": array, "signal": signal_, "noise": noise, "prior": prior,
            "protocol": protocol, "seed": 0, "trials": 64}


# name: (command argv, document)
EDGES = {
    # sigma a overflows x^2 in the Gaussian damping: the contrast row is 0.0
    "dfs-check-sigma-1e300": (
        ["dfs-check"],
        _doc({"positions": [0, 1, 2, 3]}, _GRADIENT,
             [{"profile": "constant", "sigma": 1e300}],
             {"kind": "flat", "width": 1.0}, {"kind": "single_shot_flat"})),
    # width ** 2 overflows (OverflowError)
    "flat-width-1e300": (
        ["protocol"],
        _doc(_EXP8, _GRADIENT, _CONSTANT, {"kind": "flat", "width": 1e300},
             {"kind": "single_shot_flat"})),
    # width ** 2 underflows to 0, so mse / width ** 2 divides by zero
    "fixed-time-width-1e-300": (
        ["protocol", "--simulate"],
        _doc({"placement": "linear", "N": 4}, _GRADIENT, _CONSTANT,
             {"kind": "gaussian", "width": 1e-300},
             {"kind": "fixed_time", "t": 1085, "probe": "uniform"})),
    # the GHZ density's zero fails the posterior floor
    "fixed-time-ghz-width-1e-300": (
        ["protocol", "--simulate"],
        _doc({"placement": "exponential", "N": 16}, _GRADIENT, _CONSTANT,
             {"kind": "gaussian", "width": 1e-300},
             {"kind": "fixed_time", "t": 1085, "probe": "ghz"})),
    # variance_reduction is nan
    "fixed-time-amplitude-1e300": (
        ["protocol"],
        _doc(_EXP8, _HUGE_GRADIENT, _CONSTANT, {"kind": "gaussian", "width": 1.0},
             {"kind": "fixed_time", "t": 10})),
    # Delta W0 T / pi is inf: the round count would never stop growing
    "adaptive-amplitude-1e300": (
        ["protocol"],
        _doc(_EXP8, _HUGE_GRADIENT, _CONSTANT, {"kind": "flat", "width": 1.0},
             {"kind": "adaptive", "total_time": 1e12})),
    # omega t g is inf, so theta is nan before the posterior lookup
    "fixed-time-mean-1e300": (
        ["protocol", "--simulate"],
        _doc(_EXP8, _HUGE_GRADIENT, _CONSTANT,
             {"kind": "gaussian", "width": 1.0, "mean": 1e300},
             {"kind": "fixed_time", "t": 10})),
}


@pytest.fixture
def ten_seconds():
    """Fail a command that runs longer than 10 s instead of waiting on it."""
    def expire(signum, frame):
        raise TimeoutError("the command ran past 10 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _reject_constant(name):
    raise AssertionError(f"non-finite number {name} in the JSON output")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_document_exits_with_one_line(name, fmt, tmp_path, capsys, ten_seconds):
    argv, doc = EDGES[name]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = cli.main([*argv, "--scenario", str(path), "--format", fmt])
    out, err = capsys.readouterr()
    if code == 0:
        assert name == "dfs-check-sigma-1e300", out
        assert err == ""
        if fmt == "json":
            json.loads(out, parse_constant=_reject_constant)
        else:
            assert not re.search(r"\b(nan|inf)\b", out), out
        return
    assert code in (3, 4), (code, err)
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err and out == ""


def test_dfs_check_sigma_1e300_is_fully_damped(tmp_path, capsys):
    argv, doc = EDGES["dfs-check-sigma-1e300"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main([*argv, "--scenario", str(path)]) == 0
    contrast = capsys.readouterr().out.splitlines()[-1].split(",")
    assert contrast[:3] == ["contrast", "false", "0"]


def test_gaussian_damping_is_zero_where_x_squared_overflows():
    damping = PHASE_LAWS["gaussian"][0]
    for x in (1e154, 1.4e154, 1e200, -1e300, math.inf):
        assert damping(x) == 0.0
    for x in (0.0, 1e-200, 0.3, -1.7, 12.5, 38.0, 40.0, 1e100):
        assert damping(x) == math.exp(-0.5 * x ** 2)


def test_ghz_reduction_is_one_where_x_squared_overflows():
    assert ghz_reduction(1e200) == 1.0
    assert ghz_reduction(-1e300) == 1.0
    xs = np.array([0.0, 1e-200, 0.1, 0.7071, 1.0, 3.3, 27.0, 1e10, 1e150])
    want = 1.0 - xs * xs * np.exp(-(xs * xs))
    assert ghz_reduction(xs).tobytes() == want.tobytes()
    assert [ghz_reduction(x) for x in xs] == want.tolist()
    assert math.isnan(ghz_reduction(math.nan))


def test_adaptive_schedule_refuses_an_infinite_round_budget(ten_seconds):
    sp = EffectiveSpectrum.from_levels([-1e300, 0.0, 1e300])
    with pytest.raises(NumericFailure, match="not finite"):
        adaptive_schedule(sp, FlatPrior(1.0), 1e12)


# ------------------------------------------------ repeat rows beyond 2^16

def _repeat(nu, trials):
    probe = berry_wiseman_probe(5)
    sp = EffectiveSpectrum.from_levels([-2.0, -1.0, 0.0, 1.0, 2.0])
    return probe, sp, run_estimation_trials(probe, sp, FlatPrior(2 * np.pi), t=1.0,
                                            trials=trials, seed=7, nu=nu)


def test_repeat_column_blocks_match_one_row_draw():
    nu, trials = (1 << 16) + 3, 3
    probe, sp, out = _repeat(nu, trials)
    # reference: every trial's row drawn at once from the first chunk's stream
    rng = montecarlo._stream(7, 1 << 32)
    y = CanonicalSampler(probe).sample(rng, (trials, nu))
    resid = np.angle(np.exp(1j * y).sum(axis=1))
    assert out.nu == nu and out.trials == trials
    assert out.extra["phase_mse"] == pytest.approx(np.mean(resid ** 2), rel=1e-12)
    assert out.mse == pytest.approx(np.mean((resid / sp.gap) ** 2), rel=1e-12)


def test_repeat_memory_flat_beyond_one_block():
    # one (1, nu) complex row alone would take 32 MiB here
    tracemalloc.start()
    try:
        _repeat((1 << 21) + 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20

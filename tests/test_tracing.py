"""The benchmark's tracer still wraps the names it reads.

perfbench/child.py replaces module attributes (the planners, the estimators,
CanonicalSampler, variance_reduction) with timed wrappers and reads their
``trials`` parameter. A signature or lookup change in the package can break
that only at trace time, so each case runs the child with ``trace: true``
in a fresh process on a small scenario.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
TRIALS = 4096

# exponential_placement(8) under a unit gradient: L = 16, Delta = 1.875
_L, _DELTA = 16, 1.875
_T1 = 2 * math.pi * (_L - 1) / _DELTA  # base time at W0 = 1


def _doc(prior: dict, protocol: dict) -> dict:
    return {"array": {"placement": "exponential", "N": 8},
            "signal": {"profile": "gradient"},
            "noise": [{"profile": "constant", "sigma": 0.7}],
            "prior": prior, "protocol": protocol,
            "seed": 5, "trials": TRIALS}


_FLAT = {"kind": "flat", "width": 1.0, "lower": 0.2}
_FIXED = _doc({"kind": "gaussian", "width": 0.1, "mean": 0.3},
              {"kind": "fixed_time", "t": 0.8 * (_L - 1) / (0.1 * _DELTA)})

CASES = {
    "single_shot_flat": (["protocol", "--simulate"],
                         _doc(_FLAT, {"kind": "single_shot_flat"})),
    "repeat": (["protocol", "--simulate"],
               _doc(_FLAT, {"kind": "repeat", "total_time": 4.5 * _T1})),
    "adaptive": (["protocol", "--simulate"],
                 _doc(_FLAT, {"kind": "adaptive", "total_time": 2000.0})),
    "fixed_time": (["protocol", "--simulate"], _FIXED),
    "sweep-t": (["sweep", "--axis", "t", "--grid", "10:60:3"], _FIXED),
    "dfs-check": (["dfs-check"], _doc(_FLAT, {"kind": "single_shot_flat"})),
}

# layers each case must record, besides the cli span
EXPECTED = {
    "single_shot_flat": {"protocols.plan", "montecarlo.estimate",
                         "bayes.sampler_build", "bayes.sample"},
    "repeat": {"protocols.plan", "montecarlo.estimate",
               "bayes.sampler_build", "bayes.sample"},
    "adaptive": {"protocols.plan", "montecarlo.estimate",
                 "bayes.sampler_build", "bayes.sample"},
    "fixed_time": {"protocols.plan", "montecarlo.estimate",
                   "bayes.sampler_build", "bayes.sample",
                   "bayes.variance_reduction"},
    "sweep-t": {"protocols.plan", "bayes.variance_reduction"},
    "dfs-check": {"montecarlo.dephase"},
}


def _traced_run(tmp_path: Path, argv: list[str], doc: dict) -> dict:
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    request = tmp_path / "request.json"
    result = tmp_path / "result.json"
    request.write_text(json.dumps({
        "src": str(ROOT / "src"), "trace": True,
        "op": {"kind": "cli", "argv": argv + [
            "--scenario", str(scenario), "--format", "json",
            "--out", str(tmp_path / "out.json")]}}))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(CHILD), str(request), str(result)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(result.read_text())
    assert out["exit_code"] == 0
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_child_records_every_layer(tmp_path, case):
    argv, doc = CASES[case]
    spans = _traced_run(tmp_path, argv, doc)["spans"]
    layers = {s["layer"] for s in spans}
    assert {"cli", "scenario.load", "scenario.build"} <= layers
    assert EXPECTED[case] <= layers, sorted(layers)
    for s in spans:
        assert s["end"] is not None and s["end"] >= s["start"]
        if s["layer"] in ("montecarlo.estimate", "montecarlo.dephase"):
            assert s["counts"]["trials"] == TRIALS

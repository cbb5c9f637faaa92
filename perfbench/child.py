"""Run one benchmark operation in a fresh process.

    python3 child.py REQUEST.json RESULT.json

REQUEST holds ``src`` (the directory that contains ``dfs_sense``), ``trace``
and ``op``: either ``{"kind": "cli", "argv": [...]}``, run through
``dfs_sense.cli.main``, or ``{"kind": "placement", "family": ..., "N": ...,
"out": PATH}``, which enumerates a placement family's levels (no CLI command
reaches that call). RESULT receives the moment the process was ready
(interpreter up, package imported), the exit code and the spans. Without
``trace`` the only span is the operation itself; with it, the public names
each module imports from another are wrapped so that every layer boundary
records a span and its counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import Recorder  # noqa: E402


def _arg(fn, args, kwargs, name):
    """The value a call binds to parameter ``name``, defaults included."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _wrap(rec, module, attr, layer, counts=None):
    fn = getattr(module, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(layer, attr) as c:
            out = fn(*args, **kwargs)
            if counts is not None:
                c.update(counts(fn, args, kwargs, out))
            return out

    setattr(module, attr, wrapper)


def _trials(fn, args, kwargs, out):
    return {"trials": int(_arg(fn, args, kwargs, "trials"))}


def _enumerated(fn, args, kwargs, out):
    return {"scanned": _arg(fn, args, kwargs, "array").total_configurations,
            "kept": len(out)}


class _SamplerProxy:
    """A built sampler whose draws are timed."""

    def __init__(self, rec, inner):
        self._rec = rec
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def sample(self, rng, size, shift=0.0):
        with self._rec.span("bayes.sample", "sample") as c:
            c["draws"] = math.prod(size) if isinstance(size, tuple) else int(size)
            return self._inner.sample(rng, size, shift)


def install_tracing(rec) -> None:
    from dfs_sense import cli, montecarlo, protocols, scenario

    _wrap(rec, cli, "load_scenario", "scenario.load")
    _wrap(rec, cli, "build_scenario", "scenario.build")
    _wrap(rec, cli, "run_scenario", "scenario.run")
    _wrap(rec, cli, "mc_dephase_check", "montecarlo.dephase", _trials)
    _wrap(rec, cli, "enumerate_dfs_configs", "control.enumerate", _enumerated)
    # sweeps plan protocols through the names cli imports directly
    _wrap(rec, cli, "single_shot_flat", "protocols.plan")
    _wrap(rec, cli, "fixed_time_single_shot", "protocols.plan")
    _wrap(rec, scenario, "enumerate_dfs_configs", "control.enumerate",
          _enumerated)
    _wrap(rec, scenario, "orthogonal_complement", "fields.orthogonal_complement")
    _wrap(rec, scenario, "sample_field", "fields.sample_field")
    for name in ("single_shot_flat", "repeat_protocol", "adaptive_schedule",
                 "fixed_time_single_shot"):
        _wrap(rec, protocols, name, "protocols.plan")
    _wrap(rec, protocols, "variance_reduction", "bayes.variance_reduction")
    for name in ("run_estimation_trials", "simulate_fixed_time",
                 "simulate_adaptive"):
        _wrap(rec, protocols, name, "montecarlo.estimate", _trials)
    _wrap(rec, montecarlo, "empirical_holevo", "bayes.empirical_holevo")

    build = montecarlo.CanonicalSampler

    def sampler(*args, **kwargs):
        with rec.span("bayes.sampler_build", "CanonicalSampler") as c:
            inner = build(*args, **kwargs)
            c["grid_points"] = len(inner.thetas)
            c["norm_error"] = float(inner.norm_error)
        return _SamplerProxy(rec, inner)

    montecarlo.CanonicalSampler = sampler


def _combos_scanned(plan) -> int:
    """Domain size enumerate_levels walks, counted from outside the call."""
    if plan.pairing is not None:
        return 2 ** len(plan.pairing)
    arr = plan.as_sensor_array()
    if all(q == 2 for q in arr.quanta_per_site):
        return math.comb(arr.J, arr.J // 2) if arr.J % 2 == 0 else 0
    return arr.total_configurations


def _run_placement(rec, op) -> int:
    from dfs_sense.placement import FAMILIES

    plan = FAMILIES[op["family"]](op["N"])
    with rec.span("placement.enumerate_levels", "enumerate_levels") as c:
        levels = plan.enumerate_levels()
        c["combos"] = _combos_scanned(plan)
        c["levels"] = len(levels)
    doc = {"enumerated": [str(v) for v in levels],
           "predicted": [str(v) for v in plan.predicted_levels()]}
    with open(op["out"], "w") as fh:
        json.dump(doc, fh)
    return 0


def main(request_path: str, result_path: str) -> int:
    with open(request_path) as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    from dfs_sense import cli

    rec = Recorder()
    if req["trace"]:
        install_tracing(rec)
    t_ready = time.monotonic()
    op = req["op"]
    if op["kind"] == "cli":
        with rec.span("cli", "main"):
            code = cli.main(op["argv"])
    else:
        code = _run_placement(rec, op)
    with open(result_path, "w") as fh:
        json.dump({"t_ready": t_ready, "exit_code": code,
                   "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

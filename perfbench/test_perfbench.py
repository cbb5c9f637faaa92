"""Tests for the benchmark's own code: scenario generation, self time and
output checks. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import math
import random
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from dfs_sense.protocols import classify_regime  # noqa: E402
from dfs_sense.scenario import (build_scenario, parse_scenario,  # noqa: E402
                                run_scenario)

SEEDS = (0, 1, 7, 123456)


def _shape(op: wl.Op) -> dict:
    """Everything about an operation that must not depend on the seed."""
    doc = op.doc or {}
    return {"name": op.name, "sizes": op.sizes, "threads": op.threads,
            "same_as": op.same_as, "placement": op.placement,
            "command": op.argv[:1], "array": doc.get("array"),
            "trials": doc.get("trials"),
            "kinds": (doc.get("protocol", {}).get("kind"),
                      doc.get("prior", {}).get("kind"))}


# ---------------------------------------------------------------------------
# scenario generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_deterministic_per_seed(name):
    make = wl.WORKLOADS[name]
    for seed in SEEDS:
        a, b = make(seed), make(seed)
        assert [(o.name, o.argv, o.doc, o.sizes) for o in a] == \
               [(o.name, o.argv, o.doc, o.sizes) for o in b]


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_keeps_sizes_and_varies_values(name):
    make = wl.WORKLOADS[name]
    shapes = [[_shape(o) for o in make(seed)] for seed in SEEDS]
    assert all(s == shapes[0] for s in shapes)
    docs = [[o.doc for o in make(seed) if o.doc] for seed in SEEDS]
    assert len({repr(d) for d in docs}) == len(SEEDS)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("seed", SEEDS)
def test_generated_documents_parse(name, seed):
    for op in wl.WORKLOADS[name](seed):
        if op.doc is not None:
            assert parse_scenario(op.doc).to_dict()["trials"] == op.doc["trials"]


@pytest.mark.parametrize("seed", SEEDS)
def test_placement_protocols_have_planned_shape(seed):
    """Closed-form ladders: L as recorded, nu = 4, 2 adaptive rounds, and
    fixed_time in the sine window."""
    ops = wl.mc_narrow(seed) + wl.wide_ladder(seed)
    for op in ops:
        built = build_scenario(parse_scenario(op.doc))
        sp = built.spectrum
        assert sp.L == op.sizes["L"]
        proto = op.doc["protocol"]
        if proto["kind"] == "fixed_time":
            x = proto["t"] * op.doc["prior"]["width"] * float(sp.Delta)
            assert classify_regime(x, sp.L) == "sine_window"
        elif sp.L <= 16:
            rep = run_scenario(built)
            if proto["kind"] == "repeat":
                assert rep.resources["nu"] == 4
            if proto["kind"] == "adaptive":
                assert rep.resources["rounds"] == 2


def test_reference_level_count_matches_program():
    """The in-benchmark reference agrees with the program on small arrays
    of the same shapes as the enumerate workload."""
    rng = random.Random(5)
    qubits = wl.qubit_line_doc(rng, 100)
    qubits["array"]["positions"] = list(range(10))
    qutrits = wl.qutrit_line_doc(rng, 100)
    qutrits["array"] = {"positions": list(range(6)), "quanta_per_site": [3] * 6}
    for doc in (qubits, qutrits):
        built = build_scenario(parse_scenario(doc))
        assert wl.protected_level_count(doc) == built.spectrum.L


# ---------------------------------------------------------------------------
# interval-union self time
# ---------------------------------------------------------------------------

def _span(layer, start, end, parent):
    return {"layer": layer, "name": layer, "start": start, "end": end,
            "parent": parent, "counts": {}}


def test_union_and_subtract():
    assert spans.union([(3, 6), (1, 4), (8, 9), (9, 9)]) == [(1, 6), (8, 9)]
    assert spans.subtract([(1, 4), (3, 6), (8, 9)], []) == 6
    assert spans.subtract([(0, 10)], [(1, 4), (3, 6), (8, 9)]) == 4
    assert spans.subtract([(0, 2), (5, 7)], [(1, 6)]) == 2
    assert spans.subtract([(0, 1)], []) == 1


def test_self_time_with_overlapping_thread_children():
    # root [0, 10] -> estimate [1, 9] -> two worker threads sampling in
    # overlapping intervals, plus a holevo call after the chunks
    s = [_span("cli", 0, 10, -1),
         _span("mc", 1, 9, 0),
         _span("sample", 2, 5, 1),
         _span("sample", 3, 6, 1),
         _span("holevo", 7, 8, 1)]
    self_t = spans.layer_self_times(s)
    assert self_t == {"cli": 2, "mc": 3, "sample": 4, "holevo": 1}
    assert sum(self_t.values()) == 10     # self times partition the root


def test_nested_span_of_same_layer_is_not_removed():
    s = [_span("plan", 0, 4, -1), _span("plan", 1, 2, 0),
         _span("vr", 2.5, 3, 0)]
    assert spans.layer_self_times(s) == {"plan": 3.5, "vr": 0.5}


def test_recorder_parents_worker_spans_to_the_waiting_span():
    rec = spans.Recorder()
    with rec.span("mc", "estimate"):
        def work():
            with rec.span("sample", "sample") as c:
                c["draws"] = 3
                time.sleep(0.01)
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    assert [s["parent"] for s in rec.spans] == [-1, 0, 0]
    assert all(s["end"] >= s["start"] for s in rec.spans)
    assert rec.spans[1]["counts"] == {"draws": 3}


# ---------------------------------------------------------------------------
# output checks reject doctored payloads
# ---------------------------------------------------------------------------

def _protocol_payload(L=16, trials=1000, holevo=None, reduction=None):
    exact = math.tan(math.pi / (L + 1)) ** 2
    sim = {"trials": trials, "mse": 0.01,
           "holevo": exact if holevo is None else holevo,
           "holevo_stderr": exact * 0.01}
    if reduction is not None:
        sim["reduction_hat"] = reduction
    return {"meta": {"L": L}, "report": {"resources": {"nu": 4},
                                         "simulation": sim}}


def _problems(fn, good, doctor):
    assert fn(good) == []
    bad = copy.deepcopy(good)
    doctor(bad)
    return fn(bad)


def test_check_protocol_rejects_wrong_sizes():
    good = _protocol_payload()
    fn = lambda p: wl.check_protocol(p, 16, 1000, {"nu": 4})  # noqa: E731
    assert _problems(fn, good, lambda p: p["meta"].update(L=15))
    assert _problems(fn, good,
                     lambda p: p["report"]["simulation"].update(trials=999))
    assert _problems(fn, good,
                     lambda p: p["report"]["resources"].update(nu=3))
    assert _problems(fn, good,
                     lambda p: p["report"]["simulation"].update(mse=math.nan))
    assert _problems(fn, good, lambda p: p["report"].pop("simulation"))


def test_check_holevo_rejects_biased_variance():
    good = _protocol_payload(L=4096)
    sim = good["report"]["simulation"]
    assert _problems(wl.check_holevo, good, lambda p: p["report"]
                     ["simulation"].update(holevo=sim["holevo"] * 1.09))
    near = _protocol_payload(L=4096, holevo=sim["holevo"] * 1.04)
    assert wl.check_holevo(near) == []


def test_check_reduction_rejects_above_one():
    good = _protocol_payload(reduction=0.06)
    assert _problems(wl.check_reduction, good, lambda p: p["report"]
                     ["simulation"].update(reduction_hat=1.0001))


def test_check_sweep_rejects_missing_rows_and_bad_reduction():
    good = {"rows": [{"variance_reduction": 0.5}] * 4}
    fn = lambda p: wl.check_sweep(p, 4)  # noqa: E731
    assert _problems(fn, good, lambda p: p["rows"].pop())
    assert _problems(fn, good,
                     lambda p: p["rows"].__setitem__(0, {"variance_reduction":
                                                         1.5}))


def test_check_spectrum_rejects_wrong_level_count():
    good = {"meta": {"L": 3}, "rows": [{}, {}, {}]}
    fn = lambda p: wl.check_spectrum(p, 3)  # noqa: E731
    assert _problems(fn, good, lambda p: p["meta"].update(L=4))
    assert _problems(fn, good, lambda p: p["rows"].pop())


def test_check_dfs_rejects_damped_or_distant_pairs():
    good = {"meta": {"trials": 10, "channels": 1},
            "rows": [{"pair": "0-1", "protected": True, "analytic": 1.0,
                      "z": 0.0},
                     {"pair": "contrast", "protected": False,
                      "analytic": 0.4, "z": 9.0}]}
    assert _problems(wl.check_dfs, good,
                     lambda p: p["rows"][0].update(analytic=0.999))
    assert _problems(wl.check_dfs, good, lambda p: p["rows"][0].update(z=5.5))
    assert _problems(wl.check_dfs, good, lambda p: p["rows"].pop(0))
    assert wl.dephase_trials(good) == 20


def test_check_levels_rejects_mismatch():
    good = {"enumerated": ["-1", "0", "1"], "predicted": ["-1", "0", "1"]}
    assert _problems(wl.check_levels, good,
                     lambda p: p["enumerated"].pop())
    assert _problems(wl.check_levels, good,
                     lambda p: p["enumerated"].__setitem__(1, "1/2"))

"""Scenario documents and the command-line interface."""

import bisect
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from dfs_sense import (FAMILIES, EffectiveSpectrum, FlatPrior, GaussianPrior,
                       PlacementPlan, ScenarioError, SensorArray,
                       build_scenario, enumerate_dfs_configs, ghz_reduction,
                       load_scenario, parse_scenario, protected_spectrum,
                       run_scenario, sign_matched_anchor)
from dfs_sense import cli, protocols


def _base_doc(**over):
    doc = {
        "array": {"positions": [1.0, 2.0, 3.0, 4.0]},
        "signal": {"profile": "gradient"},
        "noise": [{"profile": "constant", "sigma": 0.5}],
        "prior": {"kind": "flat", "width": 1.0},
        "protocol": {"kind": "single_shot_flat"},
        "seed": 3,
        "trials": 2000,
    }
    doc.update(over)
    return doc


def _write(tmp_path, doc, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -------------------------------------------------------------- parse layer

def test_round_trip_explicit():
    s = parse_scenario(_base_doc())
    assert parse_scenario(s.to_dict()) == s
    assert json.loads(json.dumps(s.to_dict())) == s.to_dict()


def test_round_trip_placement():
    doc = _base_doc(array={"placement": "exponential", "N": 4})
    s = parse_scenario(doc)
    assert parse_scenario(s.to_dict()) == s
    assert isinstance(s.array, PlacementPlan)


def test_round_trip_all_protocols():
    docs = [
        _base_doc(),
        _base_doc(protocol={"kind": "repeat", "total_time": 100.0}),
        _base_doc(protocol={"kind": "adaptive", "total_time": 500.0,
                            "probe": "ghz"}),
        _base_doc(protocol={"kind": "fixed_time", "t": 0.25},
                  prior={"kind": "gaussian", "width": 0.5, "mean": 1.0}),
    ]
    for doc in docs:
        s = parse_scenario(doc)
        assert parse_scenario(s.to_dict()) == s


def test_round_trip_keeps_qutrit_quanta_and_drops_qubit_quanta():
    qutrits = {"positions": [1.0, 2.0, 3.0], "quanta_per_site": [3, 2, 3]}
    s = parse_scenario(_base_doc(array=qutrits))
    assert s.array == SensorArray((1.0, 2.0, 3.0), (3, 2, 3))
    assert s.to_dict()["array"] == qutrits
    assert parse_scenario(s.to_dict()) == s
    s = parse_scenario(_base_doc(array={"positions": [1.0, 2.0],
                                        "quanta_per_site": [2, 2]}))
    assert s.array == SensorArray((1.0, 2.0), (2, 2))
    assert s.to_dict()["array"] == {"positions": [1.0, 2.0]}
    assert parse_scenario(s.to_dict()) == s


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_placement_array_is_the_family_plan(family):
    doc = _base_doc(array={"placement": family, "N": 6})
    s = parse_scenario(doc)
    assert s.array == FAMILIES[family](6)
    assert s.to_dict()["array"] == doc["array"]
    built = build_scenario(s)
    assert built.plan is s.array and built.array == s.array.as_sensor_array()


_BUDGET_VALUES = {"total_time": 1000.0, "t": 0.05}
_PRIOR_DOCS = {FlatPrior: {"kind": "flat", "width": 1.0},
               GaussianPrior: {"kind": "gaussian", "width": 0.4}}


def _kind_doc(kind):
    """A valid document of the protocol kind: its KINDS budget and prior."""
    _, prior, key = protocols.KINDS[kind]
    protocol = {"kind": kind}
    if key is not None:
        protocol[key] = _BUDGET_VALUES[key]
    return _base_doc(protocol=protocol, prior=dict(_PRIOR_DOCS[prior]))


@pytest.mark.parametrize("kind", [k for k, row in protocols.KINDS.items()
                                  if row[2] is not None])
def test_protocol_kind_requires_its_budget(kind):
    key = protocols.KINDS[kind][2]
    doc = _kind_doc(kind)
    del doc["protocol"][key]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert str(exc.value) == f"protocol: missing required key {key!r}"
    doc["protocol"][key] = -1.0
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert str(exc.value) == f"protocol.{key}: {key} must be a positive number"


@pytest.mark.parametrize("kind, key", [
    (k, key) for k, row in protocols.KINDS.items()
    for key in _BUDGET_VALUES if key != row[2]])
def test_protocol_kind_rejects_a_foreign_budget(kind, key):
    doc = _kind_doc(kind)
    parse_scenario(doc)
    doc["protocol"][key] = _BUDGET_VALUES[key]
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert str(exc.value) == f"protocol: {key} does not apply to {kind}"


@pytest.mark.parametrize("kind", sorted(protocols.KINDS))
def test_protocol_kind_rejects_the_other_prior(kind):
    wanted = protocols.KINDS[kind][1]
    (other,) = set(_PRIOR_DOCS) - {wanted}
    doc = _kind_doc(kind)
    doc["prior"] = dict(_PRIOR_DOCS[other])
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    name = _PRIOR_DOCS[wanted]["kind"]
    assert exc.value.path == "prior.kind"
    assert str(exc.value) == f"prior.kind: {kind} requires a {name} prior"


@pytest.mark.parametrize("mutate,path_frag", [
    (lambda d: d.pop("array"), "array"),
    (lambda d: d.update(array={"positions": []}), "array.positions"),
    (lambda d: d.update(array={"positions": [1.0, 1.0]}), "array.positions"),
    (lambda d: d.update(array={"placement": "spiral", "N": 4}),
     "array.placement"),
    (lambda d: d.update(array={"placement": "linear"}), "'N'"),
    (lambda d: d.update(signal={"profile": "cubic"}), "signal.profile"),
    (lambda d: d.update(signal={"profile": "gradient", "amplitude": 0}),
     "signal.amplitude"),
    (lambda d: d.update(signal={"values": [1, 2], "profile": "gradient"}),
     "signal"),
    (lambda d: d.update(noise={"profile": "constant"}), "noise"),
    (lambda d: d.update(noise=[{"profile": "constant", "sigma": -1}]),
     "noise[0].sigma"),
    (lambda d: d.update(noise=[{"profile": "constant", "phase": "poisson"}]),
     "noise[0].phase"),
    (lambda d: d.update(prior={"kind": "triangular", "width": 1}),
     "prior.kind"),
    (lambda d: d.update(prior={"kind": "flat", "width": -2}), "prior.width"),
    (lambda d: d.update(prior={"kind": "flat", "width": 1, "mean": 0}),
     "prior"),
    (lambda d: d.update(protocol={"kind": "single_shot_flat",
                                  "total_time": 5}), "protocol"),
    (lambda d: d.update(protocol={"kind": "fixed_time"}), "'t'"),
    (lambda d: d.update(protocol={"kind": "repeat"}), "'total_time'"),
    (lambda d: d.update(seed=-1), "seed"),
    pytest.param(lambda d: d.update(seed=2 ** 64), "seed",
                 id="<lambda>-seed-2^64"),
    (lambda d: d.update(trials=0), "trials"),
    pytest.param(lambda d: d.update(trials=1), "trials",
                 id="<lambda>-trials-one"),
    (lambda d: d.update(extra_key=1), "extra_key"),
])
def test_parse_errors_carry_key_paths(mutate, path_frag):
    doc = _base_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(doc)
    assert path_frag in str(exc.value)


def test_prior_protocol_cross_validation():
    with pytest.raises(ScenarioError):
        parse_scenario(_base_doc(
            protocol={"kind": "fixed_time", "t": 1.0}))  # flat prior
    with pytest.raises(ScenarioError):
        parse_scenario(_base_doc(
            prior={"kind": "gaussian", "width": 1.0}))  # non-fixed_time
    with pytest.raises(ScenarioError):
        parse_scenario(_base_doc(
            array={"placement": "linear", "N": 4},
            signal={"values": [1, 2, 3, 4]}))


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(bad))
    good = _write(tmp_path, _base_doc())
    assert load_scenario(good) == parse_scenario(_base_doc())


# -------------------------------------------------------------- build layer

def test_build_placement_gradient_scales_levels():
    doc = _base_doc(array={"placement": "exponential", "N": 4},
                    signal={"profile": "gradient", "amplitude": 0.5})
    built = build_scenario(parse_scenario(doc))
    assert built.plan is not None
    lv = built.spectrum.levels_float
    want = 0.5 * np.asarray([float(v) for v in built.plan.predicted_levels()])
    assert np.allclose(lv, want, atol=1e-12)
    assert built.channel is not None and built.channel.K == 1


@pytest.mark.parametrize("noise, closed_form", [
    ([], True), ([{"profile": "constant", "amplitude": 3.0}], True),
    ([{"values": [2.0, 2.0, 2.0, 2.0]}], True),
    ([{"profile": "constant"}, {"profile": "power_law", "alpha": 2,
                                 "source": -3}], False),
    ([{"values": [1.0, 0.5, 0.5, 1.0]}], False)],
    ids=["none", "constant", "constant-values", "with-power-law",
         "varying-values"])
def test_build_placement_closed_form_only_under_uniform_noise(noise,
                                                              closed_form):
    # the closed-form configurations are protected against uniform noise only
    built = build_scenario(parse_scenario(_base_doc(
        array={"placement": "linear", "N": 4}, noise=noise)))
    enumerated = protected_spectrum(built.array, built.noise, built.signal,
                                    built.f_perp)
    closed = EffectiveSpectrum.from_levels(
        [float(v) for v in built.plan.predicted_levels()])
    assert built.spectrum == (closed if closed_form else enumerated)


def test_build_explicit_enumerates_configs():
    built = build_scenario(parse_scenario(_base_doc()))
    assert built.plan is None
    assert built.spectrum.configs is not None
    # uniform noise: protected configurations all share total spin zero
    for c in built.spectrum.configs:
        assert abs(sum(float(v) for v in np.asarray(c, dtype=float))) < 1e-12
    # eigenvalues are the signal projections of those configurations
    sv = built.signal.vector
    for lam, c in zip(built.spectrum.levels_float, built.spectrum.configs):
        assert lam == pytest.approx(float(sv @ np.asarray(c, dtype=float)))


def test_build_no_noise_keeps_full_signal():
    doc = _base_doc(noise=[])
    built = build_scenario(parse_scenario(doc))
    assert built.noise.K == 0 and built.channel is None
    assert np.allclose(built.f_perp.vector, built.signal.vector)
    # full product ladder collapses to one representative per level:
    # signal (1,2,3,4) over spins +-1/2 spans sums -5..5 in unit steps
    assert built.spectrum.L == 11
    assert np.allclose(built.spectrum.levels_float, np.arange(-5.0, 6.0))


def _line_doc(J, quanta, noise):
    """A gradient signal on J sites at irregular positions, so that levels
    carry float rounding."""
    return _base_doc(array={"positions": [0.3 + 0.71 * j for j in range(J)],
                            "quanta_per_site": [quanta] * J},
                     signal={"profile": "gradient", "amplitude": 1.37},
                     noise=noise)


def test_build_reports_lexicographically_first_config():
    built = build_scenario(parse_scenario(
        _line_doc(10, 3, [{"profile": "constant"}])))
    sp = built.spectrum
    total = sum(sign_matched_anchor(built.array, built.f_perp).s)
    sv = built.signal.vector
    first = {}
    # itertools.product walks the ascending ladders lexicographically;
    # constant noise protects exactly the configurations of the anchor's total
    for c in itertools.product((-1.0, 0.0, 1.0), repeat=10):
        if sum(c) == total:
            level = float(sv @ np.asarray(c))
            first.setdefault(bisect.bisect_right(sp.levels, level) - 1, c)
    assert sorted(first) == list(range(sp.L))
    assert [tuple(np.asarray(c, dtype=float)) for c in sp.configs] == \
        [first[k] for k in range(sp.L)]


_SECOND_NOISE = {"profile": "power_law", "alpha": 1.0, "source": -1.3}


@pytest.mark.parametrize("J, quanta, K", [
    (9, 2, 0), (9, 2, 1), (9, 2, 2), (17, 2, 1), (17, 2, 2),
    (6, 3, 0), (6, 3, 1), (6, 3, 2)])
def test_build_levels_match_per_configuration_products(J, quanta, K):
    noise = [{"profile": "constant"}, _SECOND_NOISE][:K]
    built = build_scenario(parse_scenario(_line_doc(J, quanta, noise)))
    configs = enumerate_dfs_configs(built.array, built.noise, f_perp=built.f_perp)
    sv = built.signal.vector
    want = EffectiveSpectrum.from_levels(
        [float(sv @ np.asarray(c, dtype=float)) for c in configs], configs)
    got = np.asarray(built.spectrum.levels)
    assert got.view(np.int64).tolist() == np.asarray(want.levels).view(np.int64).tolist()


@pytest.mark.parametrize("J, quanta, K", [
    (9, 2, 0), (9, 2, 1), (9, 2, 2), (17, 2, 1), (17, 2, 2),
    (6, 3, 0), (6, 3, 1), (6, 3, 2)])
def test_protected_spectrum_is_the_built_spectrum(J, quanta, K):
    noise = [{"profile": "constant"}, _SECOND_NOISE][:K]
    built = build_scenario(parse_scenario(_line_doc(J, quanta, noise)))
    sp = protected_spectrum(built.array, built.noise, built.signal, built.f_perp)
    assert sp == built.spectrum  # levels and configurations
    assert (np.asarray(sp.levels).view(np.int64).tolist()
            == np.asarray(built.spectrum.levels).view(np.int64).tolist())


def test_build_power_law_source_collision():
    doc = _base_doc(signal={"profile": "power_law", "alpha": 2.0,
                            "source": 2.0})
    with pytest.raises(ScenarioError) as exc:
        build_scenario(parse_scenario(doc))
    assert exc.value.path == "signal.source"


def test_run_scenario_dispatch(tmp_path):
    kinds = {
        "single_shot_flat": _base_doc(),
        "repeat": _base_doc(protocol={"kind": "repeat", "total_time": 1000.0}),
        "adaptive": _base_doc(protocol={"kind": "adaptive",
                                        "total_time": 100_000.0}),
        "fixed_time": _base_doc(protocol={"kind": "fixed_time", "t": 0.05},
                                prior={"kind": "gaussian", "width": 0.4}),
    }
    for kind, doc in kinds.items():
        rep = run_scenario(build_scenario(parse_scenario(doc)))
        assert rep.kind == kind, kind


def test_run_scenario_simulation_uses_scenario_settings():
    doc = _base_doc(trials=1500, seed=9)
    rep = run_scenario(build_scenario(parse_scenario(doc)), simulate=True)
    assert rep.simulation.trials == 1500
    assert rep.simulation.seed == 9
    rep2 = run_scenario(build_scenario(parse_scenario(doc)), simulate=True,
                        trials=800, seed=1)
    assert rep2.simulation.trials == 800 and rep2.simulation.seed == 1


# ---------------------------------------------------------------------- CLI

def test_cli_spectrum_exponential(tmp_path, capsys):
    doc = _base_doc(array={"placement": "exponential", "N": 4})
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.strip().splitlines() if l and not l.startswith("#")]
    header, data = lines[0], lines[1:]
    assert header.split(",") == ["level_index", "eigenvalue", "config"]
    assert len(data) == 4
    meta = [l for l in out.splitlines() if l.startswith("# Delta")]
    assert meta and float(meta[0].split(":")[1]) == pytest.approx(1.5)


def test_cli_table1_json(capsys):
    rc = cli.main(["table1", "--sizes", "4,6", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["rows"]
    assert len(rows) == 6
    two4 = next(r for r in rows if r["family"] == "two_point" and r["N"] == 4)
    assert two4["range"] == 4.0 and two4["levels"] == 2
    assert any(c.startswith("formula:") for c in payload["comments"])


def test_cli_protocol_csv_provenance(tmp_path, capsys):
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, _base_doc())])
    out = capsys.readouterr().out
    assert rc == 0
    assert any(l.startswith("# formula:") for l in out.splitlines())
    assert "predicted_mse" in out


def test_cli_protocol_json_report(tmp_path, capsys):
    doc = _base_doc(protocol={"kind": "fixed_time", "t": 0.1},
                    prior={"kind": "gaussian", "width": 0.5})
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc),
                   "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["kind"] == "fixed_time"
    labels = {p["label"] for p in payload["report"]["predictions"]}
    assert "variance_reduction" in labels


def test_cli_protocol_simulate_flag(tmp_path, capsys):
    doc = _base_doc(trials=1000)
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc),
                   "--simulate", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["simulation"]["trials"] == 1000


def test_cli_out_file(tmp_path):
    target = tmp_path / "out.csv"
    rc = cli.main(["table1", "--sizes", "4", "--out", str(target)])
    assert rc == 0
    text = target.read_text()
    assert "two_point" in text and text.endswith("\n")


def test_cli_exit_2_schema(tmp_path, capsys):
    doc = _base_doc()
    doc["prior"] = {"kind": "flat"}  # missing width
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("key, path", [
    ("signal", "signal.values"), ("noise", "noise[0].values")])
def test_cli_exit_2_values_length(tmp_path, capsys, key, path):
    # three explicit values for the four sites of the base array
    field = {"values": [1.0, 2.0, 4.0]}
    doc = _base_doc(**{key: field if key == "signal" else [field]})
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scenario error" in err and f"{path}: 3 values for 4 sites" in err


@pytest.mark.parametrize("key", ["amplitude", "alpha", "source"])
@pytest.mark.parametrize("where, path", [("signal", "signal"),
                                         ("noise", "noise[0]")])
def test_cli_exit_2_profile_keys_next_to_values(tmp_path, capsys, where, path,
                                                key):
    # explicit values take no amplitude, alpha or source; none may be dropped
    field = {"values": [1.0, 2.0, 4.0, 8.0], key: 5.0}
    doc = _base_doc(**{where: field if where == "signal" else [field]})
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert (capsys.readouterr().err.strip()
            == f"scenario error: {path}.{key}: {key} only applies to a profile")


@pytest.mark.parametrize("key, path", [
    ("signal", "signal.source"), ("noise", "noise[0].source")])
def test_cli_exit_2_power_law_source_on_a_site(tmp_path, capsys, key, path):
    # the document places a power-law source on the site at 1.0
    field = {"profile": "power_law", "alpha": 2.0, "source": 1.0}
    doc = _base_doc(**{key: field if key == "signal" else [field]})
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert (f"scenario error: {path}: power_law source 1.0 coincides with a "
            "site position") in capsys.readouterr().err


@pytest.mark.parametrize("path, value, key_path", [
    (("protocol", "t"), math.nan, "protocol.t"),
    (("protocol", "t"), math.inf, "protocol.t"),
    (("prior", "width"), math.nan, "prior.width"),
    (("noise", 0, "sigma"), math.inf, "noise[0].sigma"),
    (("protocol", "t"), 10 ** 400, "protocol.t")])
def test_cli_exit_2_non_finite_number(tmp_path, capsys, path, value, key_path):
    # json.load reads NaN, Infinity and integers beyond the float range; a
    # scenario number must have a finite float value
    doc = _base_doc(protocol={"kind": "fixed_time", "t": 0.25},
                    prior={"kind": "gaussian", "width": 0.5})
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert f"scenario error: {key_path}:" in capsys.readouterr().err


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_cli_exit_2_odd_placement_N(tmp_path, capsys, family):
    doc = _base_doc(array={"placement": family, "N": 5})
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert (capsys.readouterr().err.strip()
            == "scenario error: array.N: N must be an even integer >= 2")


def test_cli_exit_3_oversize_exponential_placement(tmp_path, capsys):
    doc = _base_doc(array={"placement": "exponential", "N": 50})
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, doc)])
    assert rc == 3
    assert "infeasible: pair patterns beyond N = 48" in capsys.readouterr().err


def test_cli_exit_2_missing_scenario(capsys):
    rc = cli.main(["spectrum"])
    assert rc == 2


def test_cli_exit_3_infeasible(tmp_path, capsys):
    # signal lies inside the noise span: no protected component
    doc = _base_doc(signal={"profile": "constant"},
                    noise=[{"profile": "constant"}])
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc)])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_cli_exit_3_insufficient_time(tmp_path, capsys):
    doc = _base_doc(protocol={"kind": "adaptive", "total_time": 0.001})
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc)])
    assert rc == 3


def test_cli_exit_4_numeric(tmp_path, capsys, monkeypatch):
    from dfs_sense import NumericFailure

    def boom(*a, **k):
        raise NumericFailure("synthetic numerics problem")
    monkeypatch.setattr(cli, "build_scenario", boom)
    rc = cli.main(["spectrum", "--scenario", _write(tmp_path, _base_doc())])
    assert rc == 4
    assert "numeric failure" in capsys.readouterr().err


def test_cli_exit_4_posterior_floor(tmp_path, capsys):
    # extremal probe at t = 1e-9: the posterior normalization 1 - |C(3)|
    # rounds to zero, a numeric failure and not an infeasible request
    doc = _base_doc(array={"placement": "exponential", "N": 4},
                    protocol={"kind": "fixed_time", "t": 1e-9},
                    prior={"kind": "gaussian", "width": 0.5})
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc),
                   "--simulate"])
    assert rc == 4
    assert "numeric failure" in capsys.readouterr().err


def test_cli_fixed_time_simulates_a_single_level(tmp_path, capsys):
    # constant and gradient noise on three sites leave one protected level:
    # no information, so the posterior mean is the prior mean and the
    # simulated reduction is 1
    doc = _base_doc(array={"positions": [0, 1, 3]},
                    signal={"profile": "power_law", "alpha": 2, "source": -3},
                    noise=[{"profile": "constant"}, {"profile": "gradient"}],
                    prior={"kind": "gaussian", "width": 1.0},
                    protocol={"kind": "fixed_time", "t": 1, "probe": "uniform"},
                    trials=1000, seed=0)
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, doc),
                   "--simulate", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["resources"]["L"] == 1
    sim = report["simulation"]
    assert abs(sim["reduction_hat"] - 1.0) < 3 * sim["reduction_hat_stderr"]


@pytest.mark.parametrize("argv", [["table1", "--simulate"],
                                  ["spectrum", "--trials", "5"]])
def test_cli_rejects_flags_the_command_ignores(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("sizes", ["abc", "4,,6", "3", "0", "-2"])
def test_cli_malformed_table1_sizes_are_usage_errors(sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table1", "--sizes", sizes])
    assert exc.value.code == 2
    assert "argument --sizes:" in capsys.readouterr().err


def test_cli_table1_oversize_exponential_is_infeasible(capsys):
    assert cli.main(["table1", "--sizes", "4,50"]) == 3
    assert "N = 48" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["protocol", "--simulate", "--trials", "0"],
    ["protocol", "--simulate", "--trials", "1"],
    ["protocol", "--trials", "many"],
    ["protocol", "--seed", "-1"],
    ["dfs-check", "--trials", "1"],
    ["dfs-check", "--seed", "-3"],
    ["protocol", "--simulate", "--seed", str(2 ** 64)],
    ["dfs-check", "--seed", str(2 ** 64 + 5)],
])
def test_cli_trials_and_seed_bounds_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--scenario", _write(tmp_path, _base_doc())])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}:" in capsys.readouterr().err


def test_cli_smallest_trial_count_writes_valid_json(tmp_path, capsys):
    rc = cli.main(["protocol", "--scenario", _write(tmp_path, _base_doc()),
                   "--simulate", "--trials", "2", "--seed", "0",
                   "--format", "json"])
    assert rc == 0
    # NaN or Infinity in the output is not JSON: fail on it
    sim = json.loads(capsys.readouterr().out,
                     parse_constant=pytest.fail)["report"]["simulation"]
    assert sim["trials"] == 2 and math.isfinite(sim["holevo_stderr"])


def test_cli_usage_error_exits_2(tmp_path, capsys):
    for fmt in ("csv", "json"):
        out = tmp_path / "missing" / f"table.{fmt}"
        assert cli.main(["table1", "--sizes", "4", "--format", fmt,
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output file: ") and str(out) in err
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--axis", "q", "--grid", "1:2:3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc2:
        cli.main(["sweep", "--axis", "t", "--grid", "nonsense"])
    assert exc2.value.code == 2
    for grid in ("nan:1:2", "1:inf:2"):
        with pytest.raises(SystemExit) as exc3:
            cli.main(["sweep", "--axis", "t", "--grid", grid])
        assert exc3.value.code == 2


@pytest.mark.parametrize("grid", ["0:1:3", "-1:1:3"])
def test_cli_sweep_t_nonpositive_grid_exits_2(tmp_path, capsys, grid):
    doc = _base_doc(protocol={"kind": "fixed_time", "t": 0.25},
                    prior={"kind": "gaussian", "width": 0.5})
    rc = cli.main(["sweep", "--axis", "t", f"--grid={grid}",
                   "--scenario", _write(tmp_path, doc)])
    assert rc == 2
    assert "scenario error: t grid must be positive" in capsys.readouterr().err


def test_cli_sweep_L_monotone(tmp_path, capsys):
    rc = cli.main(["sweep", "--axis", "L", "--grid", "4:32:8",
                   "--scenario", _write(tmp_path, _base_doc()),
                   "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    mses = [r["predicted_mse"] for r in rows]
    assert all(b < a for a, b in zip(mses, mses[1:]))
    holevo = [r["holevo_mse"] for r in rows]
    assert all(b < a for a, b in zip(holevo, holevo[1:]))


def test_cli_sweep_t_reduction_minimum(tmp_path, capsys):
    doc = _base_doc(
        array={"positions": [0.0, 1.0]},
        signal={"values": [1.0, -1.0]},
        noise=[{"profile": "constant"}],
        prior={"kind": "gaussian", "width": 0.5},
        protocol={"kind": "fixed_time", "t": 1.0, "probe": "ghz"},
    )
    rc = cli.main(["sweep", "--axis", "t", "--grid", "0.05:6:40",
                   "--scenario", _write(tmp_path, doc), "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    xs = np.array([r["x"] for r in rows])
    red = np.array([r["variance_reduction"] for r in rows])
    closed = np.array([r["extremal_closed_form"] for r in rows])
    # two-level spectrum: reduction follows the extremal closed form
    assert np.allclose(red, closed, rtol=1e-6)
    assert np.allclose(closed, ghz_reduction(xs), rtol=1e-12)
    # minimum sits at x = 1
    assert abs(xs[np.argmin(red)] - 1.0) < (xs[1] - xs[0])


def test_cli_sweep_N_rows(capsys):
    rc = cli.main(["sweep", "--axis", "N", "--grid", "4:12:5",
                   "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rows = payload["rows"]
    assert len(rows) == 15  # 3 families x 5 sizes
    assert payload["meta"]["axis"] == "N"


def test_cli_sweep_Delta(tmp_path, capsys):
    rc = cli.main(["sweep", "--axis", "Delta", "--grid", "1:5:5",
                   "--scenario", _write(tmp_path, _base_doc()),
                   "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    t1 = [r["t1"] for r in rows]
    assert all(b < a for a, b in zip(t1, t1[1:]))  # wider range, shorter t1
    mse = {r["predicted_mse"] for r in rows}
    assert len(mse) == 1  # precision depends on L only


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("axis, grid", [("L", "2:6:3"), ("Delta", "1:3:3")])
def test_cli_fixed_time_ladder_sweeps_name_their_columns(tmp_path, capsys,
                                                         axis, grid, fmt):
    # fixed-time ladder rows hold x, regime and variance_reduction, so the
    # comments carry the axis t formulas, not the flat-prior ones
    doc = _base_doc(protocol={"kind": "fixed_time", "t": 0.25},
                    prior={"kind": "gaussian", "width": 0.5})
    path = _write(tmp_path, doc)
    assert cli.main(["sweep", "--axis", "t", "--grid", "0.1:1:2",
                     "--scenario", path, "--format", "json"]) == 0
    formulas = json.loads(capsys.readouterr().out)["comments"]
    assert cli.main(["sweep", "--axis", axis, "--grid", grid,
                     "--scenario", path, "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        comments = payload["comments"]
        assert {"x", "regime", "variance_reduction"} <= set(payload["rows"][0])
    else:
        comments = [line[2:] for line in out.splitlines() if line.startswith("# ")]
    assert [c for c in comments if c.startswith("formula:")] == formulas
    assert not any(w in c for c in comments
                   for w in ("predicted_mse", "holevo_mse", "t1"))


def test_cli_dfs_check(tmp_path, capsys):
    doc = _base_doc(trials=4000)
    rc = cli.main(["dfs-check", "--scenario", _write(tmp_path, doc),
                   "--format", "json"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    protected = [r for r in rows if r["protected"]]
    contrast = [r for r in rows if not r["protected"]]
    assert protected and contrast
    for r in protected:
        assert r["analytic"] == 1.0 and r["empirical"] == 1.0
    for r in contrast:
        assert r["analytic"] < 1.0
        assert abs(r["z"]) < 5.0


@pytest.mark.parametrize("factor", [2.0 ** -44, 2.0 ** 44],
                         ids=["2^-44", "2^44"])
def test_cli_dfs_check_gauge_invariant(tmp_path, capsys, factor):
    # the phases chi_k f_k do not change when each noise amplitude scales by
    # a power of two and its sigma by the inverse, so neither does the output
    noise = [{"profile": "constant", "amplitude": 1.0, "sigma": 0.5,
              "phase": "uniform"},
             {"profile": "gradient", "amplitude": 1.0, "sigma": 0.1}]
    gauged = [dict(n, amplitude=n["amplitude"] * factor,
                   sigma=n["sigma"] / factor) for n in noise]
    out = []
    for fields in (noise, gauged):
        doc = _base_doc(array={"positions": list(range(8))},
                        signal={"profile": "power_law", "alpha": 2,
                                "source": -3},
                        noise=fields, trials=2000)
        assert cli.main(["dfs-check", "--scenario", _write(tmp_path, doc)]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    assert "\ncontrast,false," in out[0]


def test_cli_dfs_check_checks_every_pair_in_one_pass(tmp_path, capsys,
                                                    monkeypatch):
    from dfs_sense import montecarlo
    passes = []
    run = montecarlo._run_chunked

    def counting(*args):
        passes.append(args)
        return run(*args)

    monkeypatch.setattr(montecarlo, "_run_chunked", counting)
    path = _write(tmp_path, _base_doc(trials=20_000))
    assert cli.main(["dfs-check", "--scenario", path]) == 0
    assert len(passes) == 1  # every pair from one Monte-Carlo pass
    # comments, header, several pairs
    assert len(capsys.readouterr().out.splitlines()) > 5


def _typed_infeasible_only(monkeypatch):
    """Let exit 3 come only from a typed error, not from the bare-ValueError catch."""
    monkeypatch.setattr(cli, "_INFEASIBLE",
                        tuple(e for e in cli._INFEASIBLE if e is not ValueError))


def test_cli_dfs_check_requires_noise(tmp_path, capsys, monkeypatch):
    _typed_infeasible_only(monkeypatch)
    doc = _base_doc(noise=[])
    rc = cli.main(["dfs-check", "--scenario", _write(tmp_path, doc)])
    assert rc == 3
    assert (capsys.readouterr().err.strip()
            == "infeasible: scenario declares no noise channels to check")


def test_cli_dfs_check_requires_two_protected_configurations(tmp_path, capsys,
                                                             monkeypatch):
    # constant and gradient noise on three sites leave one protected level
    _typed_infeasible_only(monkeypatch)
    doc = _base_doc(array={"positions": [0, 1, 3]},
                    signal={"profile": "power_law", "alpha": 2, "source": -3},
                    noise=[{"profile": "constant"}, {"profile": "gradient"}])
    rc = cli.main(["dfs-check", "--scenario", _write(tmp_path, doc)])
    assert rc == 3
    assert (capsys.readouterr().err.strip()
            == "infeasible: fewer than two protected configurations")


@pytest.mark.parametrize("family, N, L", [
    ("two_point", 4, 3), ("exponential", 8, 27), ("linear", 8, 17)])
def test_cli_dfs_check_pairs_one_configuration_per_protected_level(
        tmp_path, capsys, family, N, L):
    # a placement's closed-form ladder carries no configurations; dfs-check
    # pairs the L protected levels' first configurations, as on explicit arrays
    doc = _base_doc(array={"placement": family, "N": N})
    assert cli.main(["dfs-check", "--scenario", _write(tmp_path, doc),
                     "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    want = [f"{i}-{i + 1}" for i in range(min(L - 1, 20))]
    if L > 2:
        want.append(f"0-{L - 1}")
    assert [r["pair"] for r in rows] == want + ["contrast"]
    for r in rows[:-1]:
        assert (r["analytic"], r["empirical"], r["stderr"], r["z"]) == (1, 1, 0, 0)


def test_cli_placement_ladder_respects_nonuniform_noise(tmp_path, capsys,
                                                        monkeypatch):
    # constant and power-law noise leave linear N = 4 one protected level,
    # as dfs-check reports; the closed form's five levels are not protected
    _typed_infeasible_only(monkeypatch)
    path = _write(tmp_path, _base_doc(
        array={"placement": "linear", "N": 4},
        noise=[{"profile": "constant"},
               {"profile": "power_law", "alpha": 2, "source": -3}]))
    assert cli.main(["spectrum", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "# L: 1\n" in out and "\n0,0,0.5;-0.5;-0.5;0.5\n" in out
    assert cli.main(["protocol", "--scenario", path]) == 3
    assert capsys.readouterr().err.strip() == "infeasible: spectrum has no spread"
    assert cli.main(["dfs-check", "--scenario", path]) == 3
    assert (capsys.readouterr().err.strip()
            == "infeasible: fewer than two protected configurations")


def test_cli_dfs_check_placement_memory(tmp_path, capsys):
    # one configuration per protected level, never every protected one
    path = _write(tmp_path, _base_doc(array={"placement": "linear", "N": 18}))
    tracemalloc.start()
    try:
        rc = cli.main(["dfs-check", "--scenario", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 16e6


def _one_level_doc(**over):
    """Constant and gradient noise on three sites leave one protected level."""
    return _base_doc(array={"positions": [0, 1, 3]},
                     signal={"profile": "power_law", "alpha": 2, "source": -3},
                     noise=[{"profile": "constant"}, {"profile": "gradient"}],
                     **over)


@pytest.mark.parametrize("prior, protocol", [
    ({"kind": "flat", "width": 1.0}, {"kind": "single_shot_flat"}),
    ({"kind": "gaussian", "width": 0.5}, {"kind": "fixed_time", "t": 0.25})],
    ids=["flat", "gaussian"])
@pytest.mark.parametrize("axis, grid", [("L", "2:4:3"), ("Delta", "1:2:3")])
def test_cli_ladder_sweeps_need_two_levels(tmp_path, capsys, monkeypatch,
                                           axis, grid, prior, protocol):
    _typed_infeasible_only(monkeypatch)
    doc = _one_level_doc(prior=prior, protocol=protocol)
    rc = cli.main(["sweep", "--axis", axis, "--grid", grid,
                   "--scenario", _write(tmp_path, doc)])
    assert rc == 3
    assert (capsys.readouterr().err.strip() == f"infeasible: axis {axis} "
            "needs a spectrum of at least two levels")


def test_console_script_entry_point(capsys):
    import shutil
    import subprocess
    exe = shutil.which("dfs-sense")
    if exe is None:
        # not installed: call the entry point pyproject.toml declares
        import importlib
        from pathlib import Path
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, func = target["dfs-sense"].split(":")
        main = getattr(importlib.import_module(module), func)
        assert main(["table1", "--sizes", "4"]) == 0
        assert "two_point" in capsys.readouterr().out
        return
    out = subprocess.run([exe, "table1", "--sizes", "4"],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0
    assert "two_point" in out.stdout


def test_main_freezes_the_import_heap_and_keeps_the_collector():
    # the freeze runs in a fresh process: main is that process's entry point
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import contextlib, gc, io\n"
            "from dfs_sense import cli\n"
            "assert gc.get_freeze_count() == 0\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['table1']) == 0\n"
            "print(gc.get_freeze_count(), gc.isenabled())\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    frozen, enabled = out.stdout.split()
    assert int(frozen) > 0 and enabled == "True"


def test_console_script_names_cli_main():
    # the freeze in cli.main reaches every installed CLI process only while
    # the console script points at it
    from pathlib import Path
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        assert 'dfs-sense = "dfs_sense.cli:main"' in text.splitlines()
        return
    assert tomllib.loads(text)["project"]["scripts"] == {
        "dfs-sense": "dfs_sense.cli:main"}

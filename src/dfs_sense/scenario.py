"""Scenario documents: a JSON schema tying arrays, fields, priors, protocols.

Top-level keys: array, signal, noise, prior, protocol, seed, trials.
Validation failures raise ScenarioError carrying the key path of the
offending entry. A parsed Scenario round-trips: parse(s.to_dict()) == s.

array is either explicit ({"positions": [...], "quanta_per_site": [...]})
or a named placement family ({"placement": "linear", "N": 8}). Field specs
give explicit per-site values or a named profile (constant, gradient,
power_law(alpha, source)), each with an optional amplitude. Noise entries
additionally accept a dephasing strength sigma and phase kind
(gaussian | uniform) used by the coherence checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bayes import FlatPrior, GaussianPrior
from .config import DEFAULT_TOLERANCES, Tolerances
from .control import (EffectiveSpectrum, _dfs_rows, _merge_levels, _spin_configs,
                      _spins, sign_matched_anchor)
from .control import enumerate_dfs_configs  # noqa: F401  perfbench/child.py wraps this name
from .errors import ScenarioError
from .fields import NoiseModel, SensorArray, SpatialField, orthogonal_complement, sample_field
from .montecarlo import MIN_TRIALS, DephasingChannel
from .placement import FAMILIES, PlacementPlan
from . import protocols

_PROFILES = ("constant", "gradient", "power_law")
_PRIOR_KINDS = ("flat", "gaussian")
_PROTOCOLS = ("single_shot_flat", "repeat", "adaptive", "fixed_time")
_PROBES = ("sine", "ghz", "uniform")
_PHASES = ("gaussian", "uniform")


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"missing required key {key!r}", path)
    return doc[key]


def _reject_unknown(doc: dict, allowed, path: str):
    extra = set(doc) - set(allowed)
    if extra:
        raise ScenarioError(f"unknown key(s) {sorted(extra)!r}", path)


@dataclass(frozen=True)
class ArraySpec:
    positions: tuple[float, ...] | None = None
    quanta_per_site: tuple[int, ...] | None = None
    placement: str | None = None
    N: int | None = None

    @property
    def is_placement(self) -> bool:
        return self.placement is not None

    def to_dict(self) -> dict:
        if self.is_placement:
            return {"placement": self.placement, "N": self.N}
        d = {"positions": list(self.positions)}
        if self.quanta_per_site is not None:
            d["quanta_per_site"] = list(self.quanta_per_site)
        return d


@dataclass(frozen=True)
class FieldSpec:
    profile: str | None = None
    values: tuple[float, ...] | None = None
    amplitude: float = 1.0
    alpha: float | None = None
    source: float | None = None
    sigma: float = 1.0
    phase: str = "gaussian"

    def callable(self):
        a = self.amplitude
        if self.profile == "constant":
            return lambda r: a
        if self.profile == "gradient":
            return lambda r: a * r
        if self.profile == "power_law":
            alpha, src = self.alpha, self.source
            return lambda r: a / abs(r - src) ** alpha
        raise ValueError(f"no callable for profile {self.profile!r}")

    def to_dict(self, noise: bool = False) -> dict:
        if self.values is not None:
            d = {"values": list(self.values)}
        else:
            d = {"profile": self.profile}
            if self.amplitude != 1.0:
                d["amplitude"] = self.amplitude
            if self.profile == "power_law":
                d["alpha"] = self.alpha
                d["source"] = self.source
        if noise:
            if self.sigma != 1.0:
                d["sigma"] = self.sigma
            if self.phase != "gaussian":
                d["phase"] = self.phase
        return d


@dataclass(frozen=True)
class PriorSpec:
    kind: str
    width: float
    lower: float = 0.0
    mean: float = 0.0

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "width": self.width}
        if self.kind == "flat" and self.lower != 0.0:
            d["lower"] = self.lower
        if self.kind == "gaussian" and self.mean != 0.0:
            d["mean"] = self.mean
        return d


@dataclass(frozen=True)
class ProtocolSpec:
    kind: str
    total_time: float | None = None
    t: float | None = None
    probe: str | None = None

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.total_time is not None:
            d["total_time"] = self.total_time
        if self.t is not None:
            d["t"] = self.t
        if self.probe is not None:
            d["probe"] = self.probe
        return d


@dataclass(frozen=True)
class Scenario:
    array: ArraySpec
    signal: FieldSpec
    noise: tuple[FieldSpec, ...]
    prior: PriorSpec
    protocol: ProtocolSpec
    seed: int = 0
    trials: int = 100_000

    def to_dict(self) -> dict:
        return {
            "array": self.array.to_dict(),
            "signal": self.signal.to_dict(),
            "noise": [n.to_dict(noise=True) for n in self.noise],
            "prior": self.prior.to_dict(),
            "protocol": self.protocol.to_dict(),
            "seed": self.seed,
            "trials": self.trials,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _parse_array(doc, path: str) -> ArraySpec:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    if "placement" in doc:
        _reject_unknown(doc, ("placement", "N"), path)
        fam = doc["placement"]
        if fam not in FAMILIES:
            raise ScenarioError(
                f"unknown placement {fam!r}; choose from {sorted(FAMILIES)}",
                f"{path}.placement")
        n = _need(doc, "N", path)
        if not _is_int(n) or n < 2:
            raise ScenarioError("N must be an integer >= 2", f"{path}.N")
        return ArraySpec(placement=fam, N=n)
    _reject_unknown(doc, ("positions", "quanta_per_site"), path)
    pos = _need(doc, "positions", path)
    if (not isinstance(pos, list) or not pos
            or not all(_is_num(p) for p in pos)):
        raise ScenarioError("positions must be a nonempty list of numbers",
                            f"{path}.positions")
    if len(set(float(p) for p in pos)) != len(pos):
        raise ScenarioError("positions must be pairwise distinct",
                            f"{path}.positions")
    quanta = None
    if "quanta_per_site" in doc:
        q = doc["quanta_per_site"]
        if (not isinstance(q, list) or len(q) != len(pos)
                or not all(_is_int(v) and v >= 2 for v in q)):
            raise ScenarioError(
                "quanta_per_site must be a list of integers >= 2 matching "
                "positions", f"{path}.quanta_per_site")
        quanta = tuple(q)
    return ArraySpec(positions=tuple(float(p) for p in pos),
                     quanta_per_site=quanta)


def _parse_field(doc, path: str, noise: bool = False) -> FieldSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    allowed = ["values", "profile", "amplitude", "alpha", "source"]
    if noise:
        allowed += ["sigma", "phase"]
    _reject_unknown(doc, allowed, path)
    sigma = doc.get("sigma", 1.0)
    phase = doc.get("phase", "gaussian")
    if not _is_num(sigma) or sigma < 0:
        raise ScenarioError("sigma must be a nonnegative number",
                            f"{path}.sigma")
    if phase not in _PHASES:
        raise ScenarioError(f"phase must be one of {_PHASES}", f"{path}.phase")
    if "values" in doc:
        if "profile" in doc:
            raise ScenarioError("give values or profile, not both", path)
        vals = doc["values"]
        if (not isinstance(vals, list) or not vals
                or not all(_is_num(v) for v in vals)):
            raise ScenarioError("values must be a nonempty list of numbers",
                                f"{path}.values")
        return FieldSpec(values=tuple(float(v) for v in vals),
                         sigma=float(sigma), phase=phase)
    prof = _need(doc, "profile", path)
    if prof not in _PROFILES:
        raise ScenarioError(f"profile must be one of {_PROFILES}",
                            f"{path}.profile")
    amp = doc.get("amplitude", 1.0)
    if not _is_num(amp) or amp == 0:
        raise ScenarioError("amplitude must be a nonzero number",
                            f"{path}.amplitude")
    alpha = source = None
    if prof == "power_law":
        alpha = _need(doc, "alpha", path)
        source = _need(doc, "source", path)
        if not _is_num(alpha) or alpha <= 0:
            raise ScenarioError("alpha must be a positive number",
                                f"{path}.alpha")
        if not _is_num(source):
            raise ScenarioError("source must be a number", f"{path}.source")
        alpha, source = float(alpha), float(source)
    elif "alpha" in doc or "source" in doc:
        raise ScenarioError("alpha/source only apply to power_law", path)
    return FieldSpec(profile=prof, amplitude=float(amp), alpha=alpha,
                     source=source, sigma=float(sigma), phase=phase)


def _parse_prior(doc, path: str) -> PriorSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    kind = _need(doc, "kind", path)
    if kind not in _PRIOR_KINDS:
        raise ScenarioError(f"kind must be one of {_PRIOR_KINDS}",
                            f"{path}.kind")
    _reject_unknown(doc, ("kind", "width", "lower", "mean"), path)
    width = _need(doc, "width", path)
    if not _is_num(width) or width <= 0:
        raise ScenarioError("width must be a positive number", f"{path}.width")
    if kind == "flat" and "mean" in doc:
        raise ScenarioError("a flat prior takes lower, not mean", path)
    if kind == "gaussian" and "lower" in doc:
        raise ScenarioError("a gaussian prior takes mean, not lower", path)
    lower = doc.get("lower", 0.0)
    mean = doc.get("mean", 0.0)
    if not _is_num(lower) or not _is_num(mean):
        raise ScenarioError("lower/mean must be numbers", path)
    return PriorSpec(kind=kind, width=float(width), lower=float(lower),
                     mean=float(mean))


def _parse_protocol(doc, path: str) -> ProtocolSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    kind = _need(doc, "kind", path)
    if kind not in _PROTOCOLS:
        raise ScenarioError(f"kind must be one of {_PROTOCOLS}",
                            f"{path}.kind")
    _reject_unknown(doc, ("kind", "total_time", "t", "probe"), path)
    total_time = t = None
    if kind in ("repeat", "adaptive"):
        total_time = _need(doc, "total_time", path)
        if not _is_num(total_time) or total_time <= 0:
            raise ScenarioError("total_time must be a positive number",
                                f"{path}.total_time")
        total_time = float(total_time)
    elif "total_time" in doc:
        raise ScenarioError(f"total_time does not apply to {kind}", path)
    if kind == "fixed_time":
        t = _need(doc, "t", path)
        if not _is_num(t) or t <= 0:
            raise ScenarioError("t must be a positive number", f"{path}.t")
        t = float(t)
    elif "t" in doc:
        raise ScenarioError(f"t does not apply to {kind}", path)
    probe = doc.get("probe")
    if probe is not None and probe not in _PROBES:
        raise ScenarioError(f"probe must be one of {_PROBES}",
                            f"{path}.probe")
    return ProtocolSpec(kind=kind, total_time=total_time, t=t, probe=probe)


def parse_scenario(doc) -> Scenario:
    """Validate a scenario document; raise ScenarioError with a key path."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    _reject_unknown(doc, ("array", "signal", "noise", "prior", "protocol",
                          "seed", "trials"), "")
    array = _parse_array(_need(doc, "array", ""), "array")
    signal = _parse_field(_need(doc, "signal", ""), "signal")
    noise_doc = doc.get("noise", [])
    if not isinstance(noise_doc, list):
        raise ScenarioError("noise must be a list", "noise")
    noise = tuple(_parse_field(n, f"noise[{k}]", noise=True)
                  for k, n in enumerate(noise_doc))
    prior = _parse_prior(_need(doc, "prior", ""), "prior")
    protocol = _parse_protocol(_need(doc, "protocol", ""), "protocol")
    seed = doc.get("seed", 0)
    trials = doc.get("trials", 100_000)
    if not _is_int(seed) or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer", "seed")
    if not _is_int(trials) or trials < MIN_TRIALS:
        raise ScenarioError(f"trials must be an integer >= {MIN_TRIALS}",
                            "trials")
    if protocol.kind == "fixed_time" and prior.kind != "gaussian":
        raise ScenarioError("fixed_time requires a gaussian prior", "prior.kind")
    if protocol.kind != "fixed_time" and prior.kind != "flat":
        raise ScenarioError(f"{protocol.kind} requires a flat prior",
                            "prior.kind")
    if array.is_placement and signal.values is not None:
        raise ScenarioError("placement arrays take a signal profile, not "
                            "explicit values", "signal")
    return Scenario(array=array, signal=signal, noise=noise, prior=prior,
                    protocol=protocol, seed=seed, trials=trials)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file: {e}") from e
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON: {e}") from e
    return parse_scenario(doc)


@dataclass(frozen=True)
class BuiltScenario:
    """Everything derived from a scenario document, ready to run."""

    scenario: Scenario
    array: SensorArray
    signal: SpatialField
    noise: NoiseModel
    f_perp: SpatialField
    spectrum: EffectiveSpectrum
    plan: PlacementPlan | None = None
    channel: DephasingChannel | None = None

    @property
    def prior(self):
        p = self.scenario.prior
        if p.kind == "flat":
            return FlatPrior(p.width, p.lower)
        return GaussianPrior(p.width, p.mean)


def _check_profile_feasible(spec: FieldSpec, array: SensorArray, path: str):
    if spec.profile == "power_law":
        for r in array.positions:
            if abs(float(r) - spec.source) < 1e-12:
                raise ValueError(
                    f"power_law source {spec.source} coincides with a site "
                    f"position ({path})")


def _field_for(spec: FieldSpec, array: SensorArray, label: str) -> SpatialField:
    if spec.values is not None:
        if len(spec.values) != array.J:
            raise ValueError(
                f"{label}: {len(spec.values)} values for {array.J} sites")
        return SpatialField(spec.values, label=label)
    _check_profile_feasible(spec, array, label)
    return sample_field(spec.callable(), array, label=label)


def build_scenario(scenario: Scenario,
                   tolerances: Tolerances = DEFAULT_TOLERANCES
                   ) -> BuiltScenario:
    """Instantiate array, fields, protected component, and spectrum.

    Placement arrays with a gradient signal use the family's closed-form
    spectrum (scaled by the gradient amplitude); every other combination
    enumerates protected configurations explicitly, which is guarded by
    the enumeration size cap.
    """
    plan = None
    if scenario.array.is_placement:
        plan = FAMILIES[scenario.array.placement](scenario.array.N)
        array = plan.as_sensor_array()
    else:
        quanta = scenario.array.quanta_per_site or (2,) * len(scenario.array.positions)
        array = SensorArray(scenario.array.positions, quanta)

    signal = _field_for(scenario.signal, array, "signal")
    noise_fields = tuple(_field_for(spec, array, f"noise:{k}")
                         for k, spec in enumerate(scenario.noise))
    noise = NoiseModel(noise_fields)
    f_perp = orthogonal_complement(signal, noise, tolerances)

    if plan is not None and scenario.signal.profile == "gradient":
        a = abs(scenario.signal.amplitude)
        levels = tuple(a * float(v) for v in plan.predicted_levels())
        spectrum = EffectiveSpectrum.from_levels(levels,
                                                 tolerances=tolerances)
    else:
        # rows come lexicographically, so each level reports its
        # lexicographically first configuration; only those L are built
        rows = _dfs_rows(array, noise, sign_matched_anchor(array, f_perp), tolerances)
        values = np.vecdot(_spins(array, rows), signal.vector).tolist()
        levels, first = _merge_levels(values, tolerances)
        spectrum = EffectiveSpectrum(levels, tuple(_spin_configs(array, rows[first])))

    channel = None
    if noise.K > 0:
        channel = DephasingChannel(
            fields=tuple(tuple(float(x) for x in f.vector) for f in noise_fields),
            sigmas=tuple(spec.sigma for spec in scenario.noise),
            kinds=tuple(spec.phase for spec in scenario.noise))
    return BuiltScenario(scenario=scenario, array=array, signal=signal,
                         noise=noise, f_perp=f_perp, spectrum=spectrum,
                         plan=plan, channel=channel)


def run_scenario(built: BuiltScenario, simulate: bool = False,
                 trials: int | None = None, seed: int | None = None,
                 threads: int | None = None,
                 tolerances: Tolerances = DEFAULT_TOLERANCES
                 ) -> protocols.ProtocolReport:
    """Dispatch the scenario's protocol over its effective spectrum."""
    sc = built.scenario
    trials = sc.trials if trials is None else trials
    seed = sc.seed if seed is None else seed
    spec = sc.protocol
    common = dict(probe=spec.probe, simulate=simulate, trials=trials,
                  seed=seed, threads=threads, tolerances=tolerances)
    if spec.kind == "single_shot_flat":
        return protocols.single_shot_flat(built.spectrum, sc.prior.width,
                                          sc.prior.lower, **common)
    if spec.kind == "repeat":
        return protocols.repeat_protocol(built.spectrum, sc.prior.width,
                                         spec.total_time, sc.prior.lower,
                                         **common)
    if spec.kind == "adaptive":
        return protocols.adaptive_schedule(built.spectrum, sc.prior.width,
                                           spec.total_time, sc.prior.lower,
                                           **common)
    if spec.kind == "fixed_time":
        return protocols.fixed_time_single_shot(
            built.spectrum, GaussianPrior(sc.prior.width, sc.prior.mean),
            spec.t, **common)
    raise ScenarioError(f"unhandled protocol kind {spec.kind!r}", "protocol.kind")

"""Scenario documents: a JSON schema tying arrays, fields, priors, protocols.

Top-level keys: array, signal, noise, prior, protocol, seed, trials.
Validation failures raise ScenarioError carrying the key path of the
offending entry. A parsed Scenario round-trips: parse(s.to_dict()) == s.

array parses to the record the library takes: an explicit
{"positions": [...], "quanta_per_site": [...]} to a SensorArray (two
levels per site unless quanta_per_site says otherwise), a named placement
family {"placement": "linear", "N": 8} (N even) to its PlacementPlan.
Scenario.array holds it. Field specs
give explicit per-site values or a named profile (constant, gradient,
power_law(alpha, source)), each with an optional amplitude. Noise entries
additionally accept a dephasing strength sigma and phase kind
(gaussian | uniform) used by the coherence checks. prior parses to the
record the planners take, FlatPrior(width, lower) or GaussianPrior(width,
mean), and Scenario.prior holds it. protocol names a kind of
protocols.KINDS, whose row gives the prior record it takes and its time
budget key (total_time, t, or none).
"""

from __future__ import annotations

import json
import math

from .bayes import FlatPrior, GaussianPrior
from .config import SOURCE_CLEARANCE_ATOL
from .control import EffectiveSpectrum, protected_spectrum
from .control import enumerate_dfs_configs  # noqa: F401  perfbench/child.py wraps this name
from .errors import ScenarioError
from .fields import NoiseModel, SensorArray, SpatialField, orthogonal_complement, sample_field
from .montecarlo import MIN_TRIALS, PHASE_LAWS, SEED_BOUND, DephasingChannel
from .placement import FAMILIES, PlacementPlan
from . import protocols
from .records import record

_PROFILES = ("constant", "gradient", "power_law")
_PRIOR_NAMES = {FlatPrior: "flat", GaussianPrior: "gaussian"}
_PRIOR_KINDS = tuple(_PRIOR_NAMES.values())
_BUDGETS = ("total_time", "t")
_PROBES = tuple(protocols.PROBES)
_PHASES = tuple(PHASE_LAWS)


def _is_num(x) -> bool:
    """A number with a finite float value: json.load also reads NaN, Infinity
    and integers too large for a float."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


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


@record
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


@record
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


@record
class Scenario:
    array: SensorArray | PlacementPlan
    signal: FieldSpec
    noise: tuple[FieldSpec, ...]
    prior: FlatPrior | GaussianPrior
    protocol: ProtocolSpec
    seed: int = 0
    trials: int = 100_000

    def to_dict(self) -> dict:
        return {
            "array": _array_dict(self.array),
            "signal": self.signal.to_dict(),
            "noise": [n.to_dict(noise=True) for n in self.noise],
            "prior": _prior_dict(self.prior),
            "protocol": self.protocol.to_dict(),
            "seed": self.seed,
            "trials": self.trials,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _parse_array(doc, path: str) -> SensorArray | PlacementPlan:
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
        if not _is_int(n) or n < 2 or n % 2:
            raise ScenarioError("N must be an even integer >= 2", f"{path}.N")
        return FAMILIES[fam](n)
    _reject_unknown(doc, ("positions", "quanta_per_site"), path)
    pos = _need(doc, "positions", path)
    if (not isinstance(pos, list) or not pos
            or not all(_is_num(p) for p in pos)):
        raise ScenarioError("positions must be a nonempty list of numbers",
                            f"{path}.positions")
    if len(set(float(p) for p in pos)) != len(pos):
        raise ScenarioError("positions must be pairwise distinct",
                            f"{path}.positions")
    quanta = doc.get("quanta_per_site", [2] * len(pos))
    if (not isinstance(quanta, list) or len(quanta) != len(pos)
            or not all(_is_int(v) and v >= 2 for v in quanta)):
        raise ScenarioError(
            "quanta_per_site must be a list of integers >= 2 matching "
            "positions", f"{path}.quanta_per_site")
    return SensorArray(tuple(float(p) for p in pos), tuple(quanta))


def _array_dict(array: SensorArray | PlacementPlan) -> dict:
    """The document's array object; all-qubit quanta are left out."""
    if isinstance(array, PlacementPlan):
        return {"placement": array.family, "N": array.N}
    d = {"positions": list(array.positions)}
    if any(n != 2 for n in array.quanta_per_site):
        d["quanta_per_site"] = list(array.quanta_per_site)
    return d


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
        for key in ("amplitude", "alpha", "source"):
            if key in doc:
                raise ScenarioError(f"{key} only applies to a profile",
                                    f"{path}.{key}")
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


def _prior_dict(prior: FlatPrior | GaussianPrior) -> dict:
    """The document's prior object; a lower edge or mean of 0 is left out."""
    kind = _PRIOR_NAMES[type(prior)]
    offset = "lower" if kind == "flat" else "mean"
    d = {"kind": kind, "width": prior.width}
    if getattr(prior, offset) != 0.0:
        d[offset] = getattr(prior, offset)
    return d


def _parse_prior(doc, path: str) -> FlatPrior | GaussianPrior:
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
    if kind == "flat":
        return FlatPrior(float(width), float(lower))
    return GaussianPrior(float(width), float(mean))


def _parse_protocol(doc, path: str) -> ProtocolSpec:
    if not isinstance(doc, dict):
        raise ScenarioError("expected an object", path)
    kind = _need(doc, "kind", path)
    if kind not in protocols.KINDS:
        raise ScenarioError(f"kind must be one of {tuple(protocols.KINDS)}",
                            f"{path}.kind")
    _reject_unknown(doc, ("kind", *_BUDGETS, "probe"), path)
    budget, budget_key = {}, protocols.KINDS[kind][2]
    for key in _BUDGETS:
        if key == budget_key:
            value = _need(doc, key, path)
            if not _is_num(value) or value <= 0:
                raise ScenarioError(f"{key} must be a positive number",
                                    f"{path}.{key}")
            budget[key] = float(value)
        elif key in doc:
            raise ScenarioError(f"{key} does not apply to {kind}", path)
    probe = doc.get("probe")
    if probe is not None and probe not in _PROBES:
        raise ScenarioError(f"probe must be one of {_PROBES}",
                            f"{path}.probe")
    return ProtocolSpec(kind=kind, probe=probe, **budget)


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
    if not _is_int(seed) or not 0 <= seed < SEED_BOUND:
        raise ScenarioError("seed must be an integer in [0, 2^64)", "seed")
    if not _is_int(trials) or trials < MIN_TRIALS:
        raise ScenarioError(f"trials must be an integer >= {MIN_TRIALS}",
                            "trials")
    wanted = protocols.KINDS[protocol.kind][1]
    if not isinstance(prior, wanted):
        raise ScenarioError(f"{protocol.kind} requires a "
                            f"{_PRIOR_NAMES[wanted]} prior", "prior.kind")
    if isinstance(array, PlacementPlan) and signal.values is not None:
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


@record
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


def _check_profile_feasible(spec: FieldSpec, array: SensorArray, path: str):
    if spec.profile == "power_law":
        for r in array.positions:
            if abs(float(r) - spec.source) < SOURCE_CLEARANCE_ATOL:
                raise ScenarioError(
                    f"power_law source {spec.source} coincides with a site "
                    "position", f"{path}.source")


def _field_for(spec: FieldSpec, array: SensorArray, label: str,
               path: str) -> SpatialField:
    if spec.values is not None:
        if len(spec.values) != array.J:
            raise ScenarioError(
                f"{len(spec.values)} values for {array.J} sites", f"{path}.values")
        return SpatialField(spec.values, label=label)
    _check_profile_feasible(spec, array, path)
    return sample_field(spec.callable(), array, label=label)


def build_scenario(scenario: Scenario) -> BuiltScenario:
    """Instantiate array, fields, protected component, and spectrum.

    Placement arrays with a gradient signal and noise constant across the
    sites (or none) use the family's closed-form spectrum (scaled by the
    gradient amplitude): its configurations, the zero-total-spin sector or
    the antialigned pairs, are protected against uniform noise only. Every
    other combination takes control.protected_spectrum, which enumerates
    protected configurations explicitly, guarded by the enumeration size cap.
    """
    plan = scenario.array if isinstance(scenario.array, PlacementPlan) else None
    array = scenario.array if plan is None else plan.as_sensor_array()

    signal = _field_for(scenario.signal, array, "signal", "signal")
    noise_fields = tuple(_field_for(spec, array, f"noise:{k}", f"noise[{k}]")
                         for k, spec in enumerate(scenario.noise))
    noise = NoiseModel(noise_fields)
    f_perp = orthogonal_complement(signal, noise)

    if (plan is not None and scenario.signal.profile == "gradient"
            and all(len(set(f.values)) == 1 for f in noise_fields)):
        a = abs(scenario.signal.amplitude)
        levels = tuple(a * float(v) for v in plan.predicted_levels())
        spectrum = EffectiveSpectrum.from_levels(levels)
    else:
        spectrum = protected_spectrum(array, noise, signal, f_perp)

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
                 trials: int | None = None, seed: int | None = None
                 ) -> protocols.ProtocolReport:
    """Run the planner of the scenario's protocol kind over its spectrum."""
    sc = built.scenario
    spec = sc.protocol
    # looked up on the module at call time, so a wrapped planner is the one run
    name, _, key = protocols.KINDS[spec.kind]
    budget = () if key is None else (getattr(spec, key),)
    return getattr(protocols, name)(
        built.spectrum, sc.prior, *budget, probe=spec.probe, simulate=simulate,
        trials=sc.trials if trials is None else trials,
        seed=sc.seed if seed is None else seed)

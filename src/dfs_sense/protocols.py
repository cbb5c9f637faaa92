"""Estimation protocols over an effective spectrum.

Each planner takes the spectrum, the prior record (FlatPrior, or
GaussianPrior for fixed_time) and its time budget, as its KINDS row
states, and hands that prior to the Monte Carlo. Every planner assumes a
uniformly spaced ladder: reading spectrum.gap raises NotLinear otherwise.
It returns a ProtocolReport: closed-form predictions
(each tagged with the formula it came from), the resource accounting, and
optionally an attached Monte-Carlo simulation of the same protocol. Two
textbook forms of the repeated-protocol error differ by a floor/constant
factor; both are reported side by side rather than silently reconciled.
"""

from __future__ import annotations

import math

import numpy as np

from .bayes import (FlatPrior, GaussianPrior, ProbeState, berry_wiseman_probe,
                    ghz_probe, uniform_probe, variance_reduction)
from .config import (NORM_ATOL, REGIME_LARGE, REGIME_SMALL, SINE_BAND_HI, SINE_BAND_LO,
                     TIME_SLACK)
from .control import EffectiveSpectrum
from .errors import Degenerate, InsufficientTime, NumericFailure
from .montecarlo import (EstimationSummary, run_estimation_trials,
                         simulate_adaptive, simulate_fixed_time)
from .records import record


@record
class Prediction:
    """A named number plus the formula that produced it."""

    label: str
    value: float
    formula: str


@record
class ProtocolReport:
    kind: str
    predictions: tuple[Prediction, ...]
    resources: dict
    schedule: tuple[tuple[float, float], ...] | None = None
    regime: str | None = None
    recommendation: str | None = None
    simulation: EstimationSummary | None = None

    def prediction(self, label: str) -> float:
        for p in self.predictions:
            if p.label == label:
                return p.value
        raise KeyError(label)

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "predictions": [{"label": p.label, "value": p.value,
                             "formula": p.formula} for p in self.predictions],
            "resources": dict(self.resources),
        }
        if self.schedule is not None:
            d["schedule"] = [{"t": t, "width": w} for t, w in self.schedule]
        if self.regime is not None:
            d["regime"] = self.regime
        if self.recommendation is not None:
            d["recommendation"] = self.recommendation
        if self.simulation is not None:
            d["simulation"] = self.simulation.to_dict()
        return d


def ghz_reduction(x) -> np.ndarray | float:
    """Variance reduction of the extremal two-level probe: 1 - x^2 exp(-x^2),
    and 1.0 where x^2 overflows (exp(-x^2) is 0 long before)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        xx = x * x
        out = np.where(np.isinf(xx), 1.0, 1.0 - xx * np.exp(-xx))
    return float(out) if out.ndim == 0 else out


def base_time(spectrum: EffectiveSpectrum, width: float) -> float:
    """Interrogation time wrapping one prior width onto one phase period.

    t1 = 2 pi (L - 1) / (width Delta) = 2 pi / (width gap).
    """
    if width <= 0:
        raise ValueError("prior width must be positive")
    if spectrum.L < 2 or spectrum.Delta == 0:
        raise Degenerate("spectrum has no spread")
    return 2.0 * math.pi / (width * spectrum.gap)


PROBES = {"sine": berry_wiseman_probe, "ghz": ghz_probe, "uniform": uniform_probe}


def _resolve_probe(probe, spectrum: EffectiveSpectrum) -> ProbeState:
    """A ProbeState as given, or the one PROBES names; None means the sine probe."""
    if isinstance(probe, ProbeState):
        if probe.L != spectrum.L:
            raise ValueError("probe level count does not match spectrum")
        return probe
    name = "sine" if probe is None else probe
    if not isinstance(name, str) or name not in PROBES:
        raise ValueError(f"unknown probe {probe!r}")
    return PROBES[name](spectrum)


def _flat_head(spectrum: EffectiveSpectrum, prior: FlatPrior) -> tuple[int, float, float]:
    """L, the prior width W0 and t1 of a flat-prior planner, after its checks."""
    if not isinstance(prior, FlatPrior):
        raise TypeError("flat-prior protocols require a FlatPrior")
    return spectrum.L, prior.width, base_time(spectrum, prior.width)


def single_shot_flat(spectrum: EffectiveSpectrum, prior: FlatPrior, probe=None,
                     simulate: bool = False, trials: int = 100_000,
                     seed: int = 0) -> ProtocolReport:
    """One interrogation of length t1 under a flat prior of width W0.

    The sine probe saturates the single-shot bound; predictions cover the
    finite-L window variance, its large-L form, and the exact Holevo
    variance of the sine probe mapped back to frequency units.
    """
    L, width, t1 = _flat_head(spectrum, prior)
    hol_phase = math.tan(math.pi / (L + 1)) ** 2
    preds = (
        Prediction("predicted_mse", width ** 2 / (4.0 * (L - 1) ** 2),
                   "W0^2/(4 (L-1)^2)"),
        Prediction("asymptotic_mse", width ** 2 / (4.0 * L * L),
                   "W0^2/(4 L^2)"),
        Prediction("holevo_mse", (width / (2.0 * math.pi)) ** 2 * hol_phase,
                   "(W0/(2 pi))^2 tan^2(pi/(L+1))"),
    )
    resources = {"t1": t1, "L": L, "Delta": spectrum.Delta,
                 "gap": spectrum.gap, "width": width}
    sim = None
    if simulate:
        p = _resolve_probe(probe, spectrum)
        sim = run_estimation_trials(p, spectrum, prior, t1, trials, seed)
    return ProtocolReport(kind="single_shot_flat", predictions=preds,
                          resources=resources, simulation=sim)


def repeat_protocol(spectrum: EffectiveSpectrum, prior: FlatPrior,
                    total_time: float, probe=None, simulate: bool = False,
                    trials: int = 100_000, seed: int = 0) -> ProtocolReport:
    """nu = floor(T/t1) independent shots, combined without prior updates.

    Two standard error forms are reported: the per-shot window variance
    divided by nu, and the product form W0/(2 T L Delta). They differ by
    the flooring of nu and a constant near pi; the ratio is reported as
    resources["discrepancy"].
    """
    L, width, t1 = _flat_head(spectrum, prior)
    if total_time < t1 * (1.0 - TIME_SLACK):
        raise InsufficientTime(
            f"total time {total_time:g} is below one interrogation ({t1:g})")
    nu = max(1, int(math.floor(total_time / t1 + TIME_SLACK)))
    divided = width ** 2 / (4.0 * L * L) / nu
    product = width / (2.0 * total_time * L * spectrum.Delta)
    preds = (
        Prediction("mse_per_window_over_nu", divided, "W0^2/(4 L^2 nu)"),
        Prediction("mse_product_form", product, "W0/(2 T L Delta)"),
    )
    resources = {"t1": t1, "nu": nu, "time_used": nu * t1,
                 "time_left": total_time - nu * t1, "L": L,
                 "Delta": spectrum.Delta, "width": width,
                 "discrepancy": product / divided}
    sim = None
    if simulate:
        p = _resolve_probe(probe, spectrum)
        sim = run_estimation_trials(p, spectrum, prior, t1, trials, seed, nu=nu)
    return ProtocolReport(kind="repeat", predictions=preds,
                          resources=resources, simulation=sim)


def adaptive_schedule(spectrum: EffectiveSpectrum, prior: FlatPrior,
                      total_time: float, probe=None, simulate: bool = False,
                      trials: int = 100_000, seed: int = 0) -> ProtocolReport:
    """Shrinking-window schedule: each round narrows the prior by 2L.

    Round k runs for t_k = t1 (2L)^(k-1) and leaves width W_k = W0 (2L)^-k.
    The number of rounds is the largest n with (2L)^n <= Delta W0 T / pi,
    which guarantees the total time fits inside T and the final width stays
    above the pi/(T Delta) floor.
    """
    L, width, t1 = _flat_head(spectrum, prior)
    x = spectrum.Delta * width * total_time / math.pi
    if not math.isfinite(x):
        raise NumericFailure(f"Delta W0 T/pi = {x} is not finite")
    # strict comparison keeps W_n T Delta >= pi exact; a float boundary can
    # only round toward the conservative side
    factor = 2 * L
    n = 0
    p = factor
    while p <= x:
        n += 1
        p *= factor
    if n < 1:
        raise InsufficientTime(
            f"total time {total_time:g} cannot fit one shrink round "
            f"(needs Delta W0 T/pi >= {factor})")
    times = tuple(t1 * factor ** (k - 1) for k in range(1, n + 1))
    widths = tuple(width / factor ** k for k in range(1, n + 1))
    t_total = t1 * (factor ** n - 1) / (factor - 1)
    final_w = widths[-1]
    bound = math.pi / (total_time * spectrum.Delta)
    preds = (
        Prediction("final_width", final_w, "W0 (2 L)^-n"),
        Prediction("width_bound", bound, "pi/(T Delta)"),
        Prediction("final_variance_idealized", final_w ** 2 / 12.0,
                   "W_n^2/12"),
    )
    resources = {"t1": t1, "rounds": n, "time_used": t_total,
                 "time_left": total_time - t_total, "L": L,
                 "Delta": spectrum.Delta, "width": width,
                 "shrink_factor": factor}
    sim = None
    if simulate:
        pr = _resolve_probe(probe, spectrum)
        sim = simulate_adaptive(pr, spectrum, prior, widths, times, trials, seed)
    return ProtocolReport(kind="adaptive", predictions=preds,
                          resources=resources,
                          schedule=tuple(zip(times, widths)), simulation=sim)


def classify_regime(x: float, L: int) -> str:
    """Place x = t W0 Delta on the protocol map for an L-level ladder."""
    if x < REGIME_SMALL:
        return "ghz"
    if L > 1 and SINE_BAND_LO <= x / (L - 1) <= SINE_BAND_HI:
        return "sine_window"
    if x / L > REGIME_LARGE:
        return "over_rotated"
    return "intermediate"


def fixed_time_single_shot(spectrum: EffectiveSpectrum, prior: GaussianPrior,
                           t: float, probe=None, simulate: bool = False,
                           trials: int = 100_000, seed: int = 0
                           ) -> ProtocolReport:
    """Single interrogation of a fixed length under a Gaussian prior.

    Classifies x = t W0 Delta into a regime, picks the matching probe
    (extremal pair for small x, sine otherwise), and reports the posterior
    variance reduction from the mixed-state information of the averaged
    probe. With L = 2 this reproduces 1 - x^2 exp(-x^2) pointwise.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    L = spectrum.L
    x = t * prior.width * spectrum.Delta
    regime = classify_regime(x, L)
    if probe is None:
        probe = "ghz" if regime == "ghz" else "sine"
    pstate = _resolve_probe(probe, spectrum)
    red = variance_reduction(pstate, prior, spectrum, t)
    preds = [
        Prediction("variance_reduction", red, "1 - W0^2 F(rho_bar)"),
        Prediction("posterior_width", prior.width * math.sqrt(max(red, 0.0)),
                   "W0 sqrt(1 - W0^2 F)"),
    ]
    # 1 - x^2 exp(-x^2) holds for the equal-weight extremal pair, the GHZ
    # probe (sine and uniform are too at L = 2)
    amps = np.abs(pstate.vector)
    is_ghz = (np.count_nonzero(amps > 0) == 2 and amps[0] > 0 and amps[-1] > 0
              and abs(amps[0] - amps[-1]) <= NORM_ATOL)
    if is_ghz:
        preds.append(Prediction("variance_reduction_closed_form",
                                ghz_reduction(x), "1 - x^2 exp(-x^2)"))
    recommendation = None
    if regime == "over_rotated":
        t_star = SINE_BAND_HI * (L - 1) / (prior.width * spectrum.Delta)
        recommendation = (f"phase winds ~{x / L:.1f} periods per level; "
                          f"shorten t toward {t_star:g} or adopt the "
                          f"shrinking-window schedule")
    elif regime == "intermediate":
        recommendation = ("x sits between the small-angle and sine-window "
                          "operating points; nearest optimum is the sine "
                          "window at x = L - 1")
    name = probe if isinstance(probe, str) else "custom"
    resources = {"t": t, "x": x, "L": L, "Delta": spectrum.Delta,
                 "width": prior.width, "probe": "ghz" if is_ghz else name}
    sim = None
    if simulate:
        sim = simulate_fixed_time(pstate, spectrum, prior, t, trials, seed)
    return ProtocolReport(kind="fixed_time", predictions=tuple(preds),
                          resources=resources, regime=regime,
                          recommendation=recommendation, simulation=sim)


# kind: (planner name, prior record, time budget key or None); the planner
# is looked up by name on this module when a scenario runs
KINDS = {
    "single_shot_flat": ("single_shot_flat", FlatPrior, None),
    "repeat": ("repeat_protocol", FlatPrior, "total_time"),
    "adaptive": ("adaptive_schedule", FlatPrior, "total_time"),
    "fixed_time": ("fixed_time_single_shot", GaussianPrior, "t"),
}

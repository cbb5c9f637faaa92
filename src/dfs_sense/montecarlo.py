"""Stochastic checks: dephasing damping and estimation-error trials.

Determinism policy: every simulation consumes randomness through
counter-based Philox streams keyed by (seed, stream index). Trial batches
are split into fixed 4096-trial chunks, each chunk owning the stream keyed
by its index. A chunk reduces its per-trial columns to (n, mean, comoment),
merged in chunk order (Chan, Golub & LeVeque, Am. Stat. 37, 1983): memory
is flat in the trial count and the output bit-identical for a given seed
at any worker thread count (DFS_SENSE_THREADS environment variable).

Estimation trials exploit covariance of the canonical measurement: the
outcome density at true phase phi is the base density rigidly shifted by
phi, so one inverse-CDF table serves every trial.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .bayes import (CanonicalSampler, FlatPrior, ProbeState, _coherence_sums,
                    _fourier_grid, _moments, empirical_holevo, wrap_pi)
from .config import DEFAULT_TOLERANCES, Tolerances, worker_count
from .control import EffectiveSpectrum
from .errors import InsufficientTime, NumericFailure

_CHUNK = 4096
_MASK64 = (1 << 64) - 1
MIN_TRIALS = 2  # a standard error needs two trials
_DRAW_BLOCK = 1 << 16  # repeat outcomes drawn at once, so memory is flat in nu


def _stream(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _merge(a, b):
    """Chan-Golub-LeVeque update: the (n, mean, comoment) of two joined records."""
    na, ma, ca = a
    nb, mb, cb = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), ca + cb + np.outer(delta, delta) * (na * nb / n)


def _run_chunked(trials: int, seed: int, chunk_fn, threads: int | None = None):
    """Merged (n, mean, comoment) of the columns chunk_fn(rng, size, start) returns."""
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    jobs = [(idx, start, min(_CHUNK, trials - start))
            for idx, start in enumerate(range(0, trials, _CHUNK))]
    workers = worker_count(trials) if threads is None else max(1, threads)

    def work(job):
        idx, start, size = job
        return _moments(chunk_fn(_stream(seed, (1 << 32) + idx), size, start))

    if workers <= 1 or len(jobs) <= 1:
        return reduce(_merge, map(work, jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return reduce(_merge, pool.map(work, jobs))


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DephasingChannel:
    """Random collective phases chi_k coupled through spatial fields f_k.

    Each shot applies exp(-i sum_k chi_k f_k . s) to a configuration s;
    coherences between configurations a, b are damped by
    E[exp(i sum_k chi_k f_k . (a - b))]. kind per channel: "gaussian"
    (std sigma_k) or "uniform" (chi_k uniform on [-pi sigma_k, pi sigma_k]).
    """

    fields: tuple[tuple[float, ...], ...]
    sigmas: tuple[float, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.fields) == len(self.sigmas) == len(self.kinds)):
            raise ValueError("fields, sigmas, kinds must have equal length")
        for k in self.kinds:
            if k not in ("gaussian", "uniform"):
                raise ValueError(f"unknown dephasing kind {k!r}")
        for s in self.sigmas:
            if not (s >= 0):
                raise ValueError("sigma must be nonnegative")

    @property
    def K(self) -> int:
        return len(self.fields)

    @classmethod
    def gaussian(cls, noise_fields, sigmas=None) -> "DephasingChannel":
        fields = tuple(tuple(float(x) for x in np.asarray(f, dtype=float).ravel())
                       for f in noise_fields)
        if sigmas is None:
            sigmas = (1.0,) * len(fields)
        return cls(fields, tuple(float(s) for s in sigmas),
                   ("gaussian",) * len(fields))


def dephase_coherence(channel: DephasingChannel, config_a, config_b) -> float:
    """Analytic damping factor for the (a, b) coherence.

    Product over channels of the characteristic function at
    a_k = f_k . (config_a - config_b). Exactly 1.0 when every projection
    vanishes (decoherence-free pair), with a snap window so that exact
    pairs evaluated in floats still report 1.0.
    """
    ds = np.asarray(config_a, dtype=float) - np.asarray(config_b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(ds), initial=0.0)))
    out = 1.0
    protected = True
    for f, sig, kind in zip(channel.fields, channel.sigmas, channel.kinds):
        fv = np.asarray(f, dtype=float)
        a = float(fv @ ds)
        fscale = max(1.0, float(np.max(np.abs(fv), initial=0.0)))
        if abs(a) <= 1e-12 * scale * fscale * len(fv):
            continue
        protected = False
        if kind == "gaussian":
            out *= math.exp(-0.5 * (sig * a) ** 2)
        else:
            out *= float(np.sinc(sig * a))
    return 1.0 if protected else out


@dataclass(frozen=True)
class DephaseCheck:
    analytic: float
    empirical: float
    stderr: float
    z_score: float
    trials: int
    seed: int


def mc_dephase_check(channel: DephasingChannel, config_a, config_b,
                     trials: int = 100_000, seed: int = 0) -> DephaseCheck:
    """Empirical coherence damping from sampled phases vs the analytic value.

    Draws chi_k per trial, accumulates cos(sum_k chi_k a_k) (the imaginary
    part vanishes in expectation for the symmetric distributions used).
    """
    ds = np.asarray(config_a, dtype=float) - np.asarray(config_b, dtype=float)
    proj = np.array([float(np.asarray(f, dtype=float) @ ds)
                     for f in channel.fields])
    analytic = dephase_coherence(channel, config_a, config_b)

    def chunk_fn(rng, size, _start):
        total = np.zeros(size)
        for a, sig, kind in zip(proj, channel.sigmas, channel.kinds):
            if kind == "gaussian":
                chi = rng.normal(0.0, sig, size)
            else:
                chi = rng.uniform(-math.pi * sig, math.pi * sig, size)
            total += chi * a
        return (np.cos(total),)

    n, (mean,), com = _run_chunked(trials, seed, chunk_fn)
    se = math.sqrt(com[0, 0]) / n  # population variance com / n, as always
    z = 0.0 if se == 0 else (mean - analytic) / se
    return DephaseCheck(analytic=analytic, empirical=float(mean),
                        stderr=float(se), z_score=float(z),
                        trials=trials, seed=seed)


# ---------------------------------------------------------------------------
# estimation trials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimationSummary:
    kind: str
    trials: int
    seed: int
    t: float
    mse: float
    mse_stderr: float
    ci_low: float
    ci_high: float
    holevo: float
    holevo_stderr: float
    nu: int = 1
    extra: dict = field(default_factory=dict)
    # one row per trial, fields omega, outcome, estimate, error (records=True)
    records: np.ndarray | None = None

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind, "trials": self.trials, "seed": self.seed,
            "t": self.t, "nu": self.nu, "mse": self.mse,
            "mse_stderr": self.mse_stderr, "ci95_low": self.ci_low,
            "ci95_high": self.ci_high, "holevo": self.holevo,
            "holevo_stderr": self.holevo_stderr,
        }
        d.update(self.extra)
        return d


def _summarize(kind: str, t: float, seed: int, stats, nu: int, extra: dict,
               records: np.ndarray | None = None) -> EstimationSummary:
    """Summary of merged moments whose columns start e^2, cos r, sin r (e the
    error, r the phase residual); the 95 % interval is mse +- 1.96 mse_stderr."""
    n, mean, com = stats
    mse = float(mean[0])
    se = math.sqrt(com[0, 0] / (n - 1)) / math.sqrt(n)
    hol, hol_se = empirical_holevo(moments=(n, mean[1:3], com[1:3, 1:3]))
    return EstimationSummary(kind=kind, trials=n, seed=seed, t=t,
                             mse=mse, mse_stderr=se, ci_low=mse - 1.96 * se,
                             ci_high=mse + 1.96 * se, holevo=hol,
                             holevo_stderr=hol_se, nu=nu, extra=extra,
                             records=records)


def _base_sampler(probe_or_rho, tolerances: Tolerances) -> CanonicalSampler:
    if isinstance(probe_or_rho, ProbeState):
        return CanonicalSampler(probe_or_rho.vector, tolerances=tolerances)
    return CanonicalSampler(probe_or_rho, tolerances=tolerances)


def run_estimation_trials(probe_or_rho, spectrum: EffectiveSpectrum,
                          prior: FlatPrior, t: float, trials: int, seed: int,
                          nu: int = 1, records: bool = False,
                          threads: int | None = None,
                          tolerances: Tolerances = DEFAULT_TOLERANCES
                          ) -> EstimationSummary:
    """Flat-prior estimation with the canonical measurement, nu shots per trial.

    Per trial: draw omega uniform on the prior window, apply phase
    omega t g per level index (g the spectrum gap), measure nu outcomes,
    combine them by circular mean, invert to an omega estimate in the
    window anchored at the prior's lower edge. Error is the circular
    residual with period 2pi/(t g).
    """
    if nu < 1:
        raise ValueError("nu must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    g = spectrum.gap
    if g <= 0:
        raise ValueError("spectrum gap must be positive")
    sampler = _base_sampler(probe_or_rho, tolerances)
    tg = t * g
    W0, lo0 = prior.width, prior.lower
    names = ("omega", "outcome", "estimate", "error")
    recs = np.empty(trials, [(k, float) for k in names]) if records else None

    def shots(rng, size):
        """Circular-mean residuals and first outcomes of size trials.

        The (size, nu) outcomes are drawn row-major in row blocks of at most
        _DRAW_BLOCK outcomes: the stream is that of one (size, nu) draw.
        """
        if nu == 1:
            y = sampler.sample(rng, size)
            return wrap_pi(y), y
        resid, first = np.empty(size), np.empty(size)
        step = max(1, _DRAW_BLOCK // nu)
        for i in range(0, size, step):
            y = sampler.sample(rng, (min(step, size - i), nu))
            resid[i:i + len(y)] = np.angle(np.exp(1j * y).sum(axis=1))
            first[i:i + len(y)] = y[:, 0]
        return resid, first

    def chunk_fn(rng, size, start):
        u = rng.random(size) * W0
        resid, first = shots(rng, size)
        err = resid / tg
        if records:
            omega = lo0 + u
            rows = recs[start:start + size]
            rows["omega"], rows["estimate"], rows["error"] = omega, omega + err, err
            rows["outcome"] = np.mod(first + omega * tg, 2 * np.pi)
        return err * err, np.cos(resid), np.sin(resid), resid ** 2

    stats = _run_chunked(trials, seed, chunk_fn, threads)
    extra = {"phase_mse": float(stats[1][3]), "window": 2 * np.pi / tg}
    return _summarize("single_shot_flat" if nu == 1 else "repeat", t, seed,
                      stats, nu, extra, recs)


def _posterior_mean_table(probe_or_rho, gap: float, prior_mean: float,
                          prior_width: float, t: float, n: int) -> np.ndarray:
    """Posterior mean of omega given a canonical outcome theta_k = 2 pi k / n.

    With outcome density p(theta|omega) = p0(theta - omega t g) and
    p0(theta) = (1/2pi) sum_d R_d e^{i d theta} (R_d the d-th coherence
    diagonal), Gaussian integrals over omega are exact per harmonic:
      denominator  D(theta) = sum_d R_d e^{i d theta} C(d)
      numerator    N(theta) = sum_d R_d e^{i d theta} (mu - i d t g W^2) C(d)
    with C(d) = exp(-i d t g mu - (d t g W)^2 / 2); both series are
    evaluated on the grid by FFT.
    """
    r = _coherence_sums(probe_or_rho)
    d = np.arange(len(r))
    tg = t * gap
    a = r * np.exp(-1j * d * tg * prior_mean - 0.5 * (d * tg * prior_width) ** 2)
    den = _fourier_grid(a, n)
    num = _fourier_grid(a * (prior_mean - 1j * d * tg * prior_width ** 2), n)
    # round-off floor 1e-12 sum|a_d|: FFT round-off in D stays below 1e-14
    # sum|a_d| on every grid used, so a smaller margin is noise, not density
    if den.min() <= 1e-12 * np.abs(a).sum():
        raise NumericFailure("posterior normalization not above its round-off floor")
    return num / den


def simulate_fixed_time(probe_or_rho, spectrum: EffectiveSpectrum,
                        prior_mean: float, prior_width: float, t: float,
                        trials: int, seed: int, threads: int | None = None,
                        tolerances: Tolerances = DEFAULT_TOLERANCES
                        ) -> EstimationSummary:
    """Gaussian-prior estimation at a fixed interrogation time.

    The estimator is the exact posterior mean of omega given the canonical
    outcome (tabulated once per run; see _posterior_mean_table). Reported
    reduction is MSE / prior variance; the posterior mean can never do
    worse than the prior on average, so values above 1 indicate a numerics
    problem rather than physics.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    g = spectrum.gap
    raw = probe_or_rho.vector if isinstance(probe_or_rho, ProbeState) else probe_or_rho
    sampler = _base_sampler(raw, tolerances)
    tg = t * g
    omega_hat = _posterior_mean_table(raw, g, prior_mean, prior_width, t,
                                      len(sampler.thetas))
    # periodic interpolation table on the sampler's knots, which end at the
    # wrap point 2 pi (np.interp's period= re-sorts the knots on every call)
    knots = sampler._knots
    table = np.append(omega_hat, omega_hat[0])

    def chunk_fn(rng, size, _start):
        omega = rng.normal(prior_mean, prior_width, size)
        y = sampler.sample(rng, size)
        theta = np.mod(y + omega * tg, 2.0 * np.pi)
        err = np.interp(theta, knots, table) - omega
        resid = wrap_pi(y)
        return err * err, np.cos(resid), np.sin(resid)

    out = _summarize("fixed_time", t, seed,
                     _run_chunked(trials, seed, chunk_fn, threads), 1, {})
    out.extra.update(reduction_hat=out.mse / prior_width ** 2,
                     reduction_hat_stderr=out.mse_stderr / prior_width ** 2)
    return out


def simulate_adaptive(probe_or_rho, spectrum: EffectiveSpectrum,
                      prior: FlatPrior, widths: tuple[float, ...],
                      times: tuple[float, ...], trials: int, seed: int,
                      threads: int | None = None,
                      tolerances: Tolerances = DEFAULT_TOLERANCES
                      ) -> EstimationSummary:
    """Run a shrinking-window schedule end to end.

    Round k interrogates for times[k] and narrows the window to widths[k];
    the next window is centered on the running estimate. Final error is
    unwrapped (branch mistakes in any round show up at full size).
    """
    if len(widths) != len(times) or not widths:
        raise InsufficientTime("empty adaptive schedule")
    g = spectrum.gap
    sampler = _base_sampler(probe_or_rho, tolerances)
    rounds = list(zip(times, widths))
    W0, lo0 = prior.width, prior.lower
    final_w = widths[-1]

    def chunk_fn(rng, size, _start):
        omega = lo0 + rng.random(size) * W0
        lo = np.full(size, lo0)
        est = np.full(size, lo0)
        for t_k, w_k in rounds:
            tg = t_k * g
            y = sampler.sample(rng, size)
            theta = np.mod(y + omega * tg, 2 * np.pi)
            u_hat = np.mod(theta - lo * tg, 2 * np.pi) / tg
            est = lo + u_hat
            lo = est - 0.5 * w_k
        err = est - omega
        # phase residual of the last round is err * t_n * g
        resid = wrap_pi(err * times[-1] * g)
        # a miss: the running window lost the true value
        return err * err, np.cos(resid), np.sin(resid), np.abs(err) > final_w

    stats = _run_chunked(trials, seed, chunk_fn, threads)
    extra = {"final_width": final_w,
             "flat_window_variance": final_w ** 2 / 12.0,
             "rounds": len(rounds),
             "window_miss_rate": float(stats[1][3])}
    return _summarize("adaptive", times[-1], seed, stats, len(rounds), extra)

"""Stochastic checks: dephasing damping and estimation-error trials.

Determinism policy: every simulation consumes randomness through
counter-based streams keyed by (seed, stream index). Trial batches are
split into fixed 4096-trial chunks, each chunk owning the stream keyed by
its index. The chunks run in order on the calling thread, and each reduces
its per-trial columns to (n, mean, comoment), merged into the running
record as it finishes (Chan, Golub & LeVeque, Am. Stat. 37, 1983): memory
is flat in the trial count and the output is fixed by the seed. A stream
is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): draw i is a hash of the
key and the counter i alone (Salmon et al., SC'11), a few numpy uint64
passes, so no generator library is imported.

Estimation trials exploit covariance of the canonical measurement: the
outcome density at true phase phi is the base density rigidly shifted by
phi, so one inverse-CDF table serves every trial.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np

from .bayes import (CanonicalSampler, FlatPrior, GaussianPrior, _GuidedInterp,
                    _moments, empirical_holevo, wrap_pi)
from .config import TIME_SLACK
from .control import EffectiveSpectrum
from .errors import InsufficientTime
from .fields import _orthogonal
from .records import factory, record

_CHUNK = 4096
_MASK64 = (1 << 64) - 1
SEED_BOUND = 1 << 64  # a seed is a 64-bit key: 0 <= seed < SEED_BOUND
MIN_TRIALS = 2  # a standard error needs two trials
_DRAW_BLOCK = 1 << 16  # repeat outcomes drawn at once, so memory is flat in nu
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # odd integer nearest 2^64 / golden ratio


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output finalizer (Stafford's variant 13), in place on uint64 z."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


def _mix_gamma(z: int) -> int:
    """SplittableRandom's increment from a state: the MurmurHash3 finalizer,
    forced odd, with alternate bits flipped when it has few bit transitions."""
    z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD & _MASK64
    z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53 & _MASK64
    z = (z ^ (z >> 33)) | 1
    return z ^ 0xAAAAAAAAAAAAAAAA if (z ^ (z >> 1)).bit_count() < 24 else z


class _SplitMix64:
    """The SplitMix64 stream from start k with odd increment gamma.

    Draw i (from 0) is mix64(k + (i + 1) gamma) mod 2^64, a function of i
    alone; a double is its top 53 bits times 2^-53, in [0, 1). The stream
    answers the three calls the Monte-Carlo kernels make.
    """

    def __init__(self, start: int, gamma: int):
        self._start = np.uint64(start)
        self._gamma = np.uint64(gamma)
        self._drawn = 0

    def _words(self, n: int) -> np.ndarray:
        """The next n 64-bit outputs."""
        z = np.arange(self._drawn + 1, self._drawn + n + 1, dtype=np.uint64)
        z *= self._gamma
        z += self._start
        self._drawn += n
        return _mix64(z)

    def random(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Doubles in [0, 1) on the 2^-53 grid, of shape size, row-major."""
        n = math.prod(size) if isinstance(size, tuple) else size
        x = (self._words(n) >> 11).astype(float)
        x *= 2.0 ** -53
        return x.reshape(size)

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        return low + (high - low) * self.random(n)

    def normal(self, loc: float, scale: float, n: int) -> np.ndarray:
        """Box-Muller on ceil(n/2) pairs of doubles (u, v): radii from the
        first half, angles from the second, cosines then sines. 1 - u is
        never 0, so log1p(-u) is finite. Radii and angles overwrite u."""
        m = (n + 1) // 2
        u = self.random(2 * m)
        r, angle = u[:m], u[m:]
        np.negative(r, out=r)
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        angle *= 2.0 * np.pi
        z = np.empty(2 * m)
        np.cos(angle, out=z[:m])
        np.sin(angle, out=z[m:])
        z[:m] *= r
        z[m:] *= r
        z = z[:n]
        z *= scale
        z += loc
        return z


def _stream(seed: int, index: int) -> _SplitMix64:
    """The stream keyed by (seed, index): the child that split number index
    (from 0) of Java's SplittableRandom(seed) returns. The parent state
    before that split is seed + 2 index gamma0 (gamma0 the golden gamma);
    the child starts at mix64 of the next state, with the increment
    _mix_gamma of the one after."""
    state = seed + 2 * index * _GOLDEN_GAMMA
    start = _mix64(np.array([(state + _GOLDEN_GAMMA) & _MASK64], dtype=np.uint64))
    return _SplitMix64(int(start[0]), _mix_gamma((state + 2 * _GOLDEN_GAMMA) & _MASK64))


def _merge(a, b):
    """Chan-Golub-LeVeque update: the (n, mean, comoment) of two joined records."""
    na, ma, ca = a
    nb, mb, cb = b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), ca + cb + np.outer(delta, delta) * (na * nb / n)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None


def _release_freed_heap() -> None:
    """Return heap pages that free() kept to the OS (glibc malloc_trim; elsewhere nothing).

    Large numpy temporaries come from the heap once glibc has raised its
    mmap threshold, and one small block allocated above them keeps them all
    resident after they are freed; whether that happens turns on the heap's
    earlier history, down to the length of the install path. At L = 1024
    the resident set after variance_reduction's eigensolves is then 45 MB
    instead of 35 MB, and the chunks' own allocations would come on top of
    it.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _run_chunked(trials: int, seed: int, chunk_fn):
    """Merged (n, mean, comoment) of the columns chunk_fn(rng, size) returns.

    Chunk idx draws from the stream (seed, 2^32 + idx); the chunks run in
    order, each merged into the running record as it finishes. The seed
    must lie in [0, SEED_BOUND): a larger one would alias seed mod 2^64.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be at least {MIN_TRIALS}")
    if not 0 <= seed < SEED_BOUND:
        raise ValueError("seed must lie in [0, 2^64)")
    _release_freed_heap()
    merged = None
    for idx, start in enumerate(range(0, trials, _CHUNK)):
        rng = _stream(seed, (1 << 32) + idx)
        chunk = _moments(chunk_fn(rng, min(_CHUNK, trials - start)))
        merged = chunk if merged is None else _merge(merged, chunk)
    return merged


# ---------------------------------------------------------------------------
# dephasing
# ---------------------------------------------------------------------------

# phase law per kind: (E[cos(chi a)] at x = sigma a, n draws of chi at sigma);
# "gaussian" has std sigma, "uniform" is uniform on [-pi sigma, pi sigma]
PHASE_LAWS = {
    "gaussian": (lambda x: math.exp(-0.5 * x ** 2),
                 lambda rng, sig, n: rng.normal(0.0, sig, n)),
    "uniform": (lambda x: float(np.sinc(x)),
                lambda rng, sig, n: rng.uniform(-math.pi * sig, math.pi * sig, n)),
}


@record
class DephasingChannel:
    """Random collective phases chi_k coupled through spatial fields f_k.

    Each shot applies exp(-i sum_k chi_k f_k . s) to a configuration s;
    coherences between configurations a, b are damped by
    E[exp(i sum_k chi_k f_k . (a - b))]. kind per channel: a PHASE_LAWS key.
    """

    fields: tuple[tuple[float, ...], ...]
    sigmas: tuple[float, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        if not (len(self.fields) == len(self.sigmas) == len(self.kinds)):
            raise ValueError("fields, sigmas, kinds must have equal length")
        for k in self.kinds:
            if k not in PHASE_LAWS:
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

    Product of the characteristic functions at sigma_k a_k, a_k = f_k .
    (config_a - config_b), over the channels that fail the DFS orthogonality
    test (fields._orthogonal, as in dfs_condition): a decoherence-free pair
    reports exactly 1.0, whatever the scale of the fields.
    """
    ds = np.asarray(config_a, dtype=float) - np.asarray(config_b, dtype=float)
    nds = np.linalg.norm(ds)
    out = 1.0
    for f, sig, kind in zip(channel.fields, channel.sigmas, channel.kinds):
        fv = np.asarray(f, dtype=float)
        a = float(fv @ ds)
        if not _orthogonal(a, np.linalg.norm(fv), nds):
            out *= PHASE_LAWS[kind][0](sig * a)
    return out


@record
class DephaseCheck:
    analytic: float
    empirical: float
    stderr: float
    z_score: float
    trials: int
    seed: int


def mc_dephase_check(channel: DephasingChannel, pairs, trials: int = 100_000,
                     seed: int = 0) -> list[DephaseCheck]:
    """Empirical coherence damping of each (a, b) pair vs its analytic value.

    One draw of chi_k per trial serves every pair, as one collective noise
    realization hits every configuration: column p accumulates
    cos(sum_k chi_k f_k . (a_p - b_p)) (the imaginary part vanishes in
    expectation, as every PHASE_LAWS draw is symmetric about 0).
    """
    fvs = [np.asarray(f, dtype=float) for f in channel.fields]
    ds = [np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
          for a, b in pairs]
    # proj[k, p] = f_k . (a_p - b_p), one vector dot each
    proj = np.array([[float(fv @ d) for d in ds] for fv in fvs])

    def chunk_fn(rng, size):
        total = np.zeros((len(ds), size))
        for a, sig, kind in zip(proj, channel.sigmas, channel.kinds):
            total += PHASE_LAWS[kind][1](rng, sig, size) * a[:, None]
        return np.cos(total)

    n, mean, com = _run_chunked(trials, seed, chunk_fn)
    out = []
    for (a, b), m, c in zip(pairs, mean, np.diagonal(com)):
        analytic = dephase_coherence(channel, a, b)
        se = math.sqrt(c) / n  # population variance c / n, as always
        z = 0.0 if se == 0 else (m - analytic) / se
        out.append(DephaseCheck(analytic=analytic, empirical=float(m),
                                stderr=float(se), z_score=float(z),
                                trials=trials, seed=seed))
    return out


# ---------------------------------------------------------------------------
# estimation trials
# ---------------------------------------------------------------------------

@record
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
    extra: dict = factory(dict)

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


def _summarize(kind: str, t: float, seed: int, stats, nu: int, extra: dict
               ) -> EstimationSummary:
    """Summary of merged moments whose columns start e^2, cos r, sin r (e the
    error, r the phase residual); the 95 % interval is mse +- 1.96 mse_stderr."""
    n, mean, com = stats
    mse = float(mean[0])
    se = math.sqrt(com[0, 0] / (n - 1)) / math.sqrt(n)
    hol, hol_se = empirical_holevo(moments=(n, mean[1:3], com[1:3, 1:3]))
    return EstimationSummary(kind=kind, trials=n, seed=seed, t=t,
                             mse=mse, mse_stderr=se, ci_low=mse - 1.96 * se,
                             ci_high=mse + 1.96 * se, holevo=hol,
                             holevo_stderr=hol_se, nu=nu, extra=extra)


def _sampler(probe_or_rho, spectrum: EffectiveSpectrum) -> CanonicalSampler:
    """The run's canonical sampler; ValueError unless the probe (amplitudes
    or rho) has one level per spectrum level."""
    sampler = CanonicalSampler(probe_or_rho)
    if len(sampler.coherence_sums) != spectrum.L:
        raise ValueError("probe and spectrum level counts differ")
    return sampler


def run_estimation_trials(probe_or_rho, spectrum: EffectiveSpectrum,
                          prior: FlatPrior, t: float, trials: int, seed: int,
                          nu: int = 1) -> EstimationSummary:
    """Flat-prior estimation with the canonical measurement, nu shots per trial.

    Per trial: draw omega uniform on the prior window, apply phase
    omega t g per level index (g the spectrum gap), measure nu outcomes,
    combine them by circular mean, invert to an omega estimate in the
    window anchored at the prior's lower edge. Error is the circular
    residual with period 2pi/(t g), so the prior width W0 must fit in one
    period: t g W0 above 2pi (up to TIME_SLACK) raises ValueError, as a
    shorter period would hide the branch (aliasing) errors.
    """
    if nu < 1:
        raise ValueError("nu must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    g = spectrum.gap
    if g <= 0:
        raise ValueError("spectrum gap must be positive")
    if t * g * prior.width > 2.0 * np.pi * (1.0 + TIME_SLACK):
        raise ValueError("t g W0 exceeds 2 pi: the prior width does not fit "
                         "in one phase period")
    sampler = _sampler(probe_or_rho, spectrum)
    tg = t * g

    def shots(rng, size):
        """Circular-mean residuals of size trials.

        The (size, nu) outcomes are drawn row-major in row blocks of at most
        _DRAW_BLOCK outcomes: the stream is that of one (size, nu) draw.
        """
        if nu == 1:
            return wrap_pi(sampler.sample(rng, size))
        resid = np.empty(size)
        step = max(1, _DRAW_BLOCK // nu)
        for i in range(0, size, step):
            y = sampler.sample(rng, (min(step, size - i), nu))
            resid[i:i + len(y)] = np.angle(np.exp(1j * y).sum(axis=1))
        return resid

    def chunk_fn(rng, size):
        # omega's offset in the prior window is never drawn: the covariant
        # measurement's error does not depend on it
        resid = shots(rng, size)
        err = resid / tg
        return err * err, np.cos(resid), np.sin(resid), resid ** 2

    stats = _run_chunked(trials, seed, chunk_fn)
    extra = {"phase_mse": float(stats[1][3]), "window": 2 * np.pi / tg}
    return _summarize("single_shot_flat" if nu == 1 else "repeat", t, seed,
                      stats, nu, extra)


def simulate_fixed_time(probe_or_rho, spectrum: EffectiveSpectrum,
                        prior: GaussianPrior, t: float, trials: int, seed: int
                        ) -> EstimationSummary:
    """Gaussian-prior estimation at a fixed interrogation time.

    The estimator is the exact posterior mean of omega given the canonical
    outcome, tabulated once per run by CanonicalSampler.posterior_mean_table.
    Reported reduction is MSE / prior variance; the posterior mean can never
    do worse than the prior on average, so values above 1 indicate a
    numerics problem rather than physics.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    sampler = _sampler(probe_or_rho, spectrum)
    tg = t * spectrum.gap
    # the table ends at the wrap point 2 pi with its first value, so theta in
    # [0, 2 pi], 2 pi included, needs no periodic wrap
    posterior_mean = _GuidedInterp(sampler.knots,
                                   sampler.posterior_mean_table(prior, tg))

    def chunk_fn(rng, size):
        omega = rng.normal(prior.mean, prior.width, size)
        y = sampler.sample(rng, size)
        theta = np.mod(y + omega * tg, 2.0 * np.pi)
        err = posterior_mean(theta) - omega
        resid = wrap_pi(y)
        return err * err, np.cos(resid), np.sin(resid)

    out = _summarize("fixed_time", t, seed,
                     _run_chunked(trials, seed, chunk_fn), 1, {})
    out.extra.update(reduction_hat=out.mse / prior.width ** 2,
                     reduction_hat_stderr=out.mse_stderr / prior.width ** 2)
    return out


def simulate_adaptive(probe_or_rho, spectrum: EffectiveSpectrum,
                      prior: FlatPrior, widths: tuple[float, ...],
                      times: tuple[float, ...], trials: int, seed: int
                      ) -> EstimationSummary:
    """Run a shrinking-window schedule end to end.

    Round k interrogates for times[k] and narrows the window to widths[k];
    the next window is centered on the running estimate. Final error is
    unwrapped (branch mistakes in any round show up at full size).
    """
    if len(widths) != len(times) or not widths:
        raise InsufficientTime("empty adaptive schedule")
    g = spectrum.gap
    sampler = _sampler(probe_or_rho, spectrum)
    rounds = list(zip(times, widths))
    W0, lo0 = prior.width, prior.lower
    final_w = widths[-1]

    def chunk_fn(rng, size):
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

    stats = _run_chunked(trials, seed, chunk_fn)
    extra = {"final_width": final_w,
             "flat_window_variance": final_w ** 2 / 12.0,
             "rounds": len(rounds),
             "window_miss_rate": float(stats[1][3])}
    return _summarize("adaptive", times[-1], seed, stats, len(rounds), extra)

"""Probe states, prior-averaged evolution, precision measures, phase sampling.

Everything here works in the eigenbasis of the effective generator: a probe
is a complex amplitude vector over the L spectrum levels, time evolution
multiplies level phases, and averaging over a Gaussian prior damps
coherences by the prior's characteristic function. The canonical covariant
phase measurement supplies the single-shot readout; its outcome density
depends on the true phase only through a rigid shift, which the Monte-Carlo
layer exploits.

Sign conventions: evolution applies exp(-i omega t Gamma_mu); the
measurement kernel is exp(+i mu theta), so outcomes estimate the
accumulated phase per unit level index directly.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import (HERMITIAN_RTOL, NORM_ATOL, PHASE_GRID_BITS,
                     POSTERIOR_FLOOR_RTOL, PSD_FLOOR, SAMPLER_NORM_ATOL,
                     SLD_FLOOR)
from .control import EffectiveSpectrum
from .errors import Degenerate, InvalidState, NumericFailure
from .records import record


class UniformSource(Protocol):
    """What CanonicalSampler.sample draws from: random(size) returns doubles
    in [0, 1) of that shape (a montecarlo stream, or a numpy Generator)."""

    def random(self, size: int | tuple[int, ...]) -> np.ndarray: ...


@record
class FlatPrior:
    """Uniform prior on [lower, lower + width)."""

    width: float
    lower: float = 0.0

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError("prior width must be positive")


@record
class GaussianPrior:
    """Normal prior; width is the standard deviation."""

    width: float
    mean: float = 0.0

    def __post_init__(self):
        if not (self.width > 0):
            raise ValueError("prior width must be positive")


@record
class ProbeState:
    """Complex amplitudes over the levels of an effective spectrum."""

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        v = self.vector
        if len(v) == 0:
            raise ValueError("empty probe")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_ATOL * 10:
            raise ValueError(f"probe not normalized (|norm - 1| = {abs(norm - 1.0):.2e})")

    @property
    def vector(self) -> np.ndarray:
        return np.asarray(self.amplitudes, dtype=complex)

    @property
    def L(self) -> int:
        return len(self.amplitudes)

    @classmethod
    def from_vector(cls, v) -> "ProbeState":
        v = np.asarray(v, dtype=complex)
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("zero amplitude vector")
        return cls(tuple((v / n).tolist()))


def _level_count(spectrum_or_L) -> int:
    if isinstance(spectrum_or_L, EffectiveSpectrum):
        return spectrum_or_L.L
    return int(spectrum_or_L)


def ghz_probe(spectrum_or_L) -> ProbeState:
    """Equal superposition of the two extremal levels."""
    L = _level_count(spectrum_or_L)
    if L < 2:
        raise Degenerate("an extremal superposition needs at least 2 levels")
    amps = np.zeros(L, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2.0)
    return ProbeState(tuple(amps.tolist()))


def berry_wiseman_probe(spectrum_or_L) -> ProbeState:
    """Sine-weighted probe c_mu = sqrt(2/(L+1)) sin(pi mu/(L+1)), mu = 1..L.

    Optimal single-shot phase probe over a uniformly spaced ladder; its
    adjacent-level sharpness is cos(pi/(L+1)) exactly, giving Holevo
    variance tan^2(pi/(L+1)). The sine is taken at min(mu, L+1-mu), the
    same value mathematically: the argument stays in (0, pi/2], so the
    amplitudes keep full relative accuracy near mu = L and equal their
    mirror c_{L+1-mu} bit for bit, which selects the parity split of
    variance_reduction.
    """
    L = _level_count(spectrum_or_L)
    if L < 2:
        raise Degenerate("need at least 2 levels")
    mu = np.arange(1, L + 1)
    c = np.sqrt(2.0 / (L + 1)) * np.sin(np.pi * np.minimum(mu, L + 1 - mu) / (L + 1))
    return ProbeState(tuple(c.astype(complex).tolist()))


def uniform_probe(spectrum_or_L) -> ProbeState:
    """Flat superposition over all levels."""
    L = _level_count(spectrum_or_L)
    if L < 1:
        raise Degenerate("need at least 1 level")
    return ProbeState(tuple((np.ones(L, dtype=complex) / math.sqrt(L)).tolist()))


def evolve(probe: ProbeState, spectrum: EffectiveSpectrum, omega: float,
           t: float) -> ProbeState:
    """Phase evolution c_mu -> c_mu exp(-i omega t Gamma_mu)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if spectrum.L != probe.L:
        raise ValueError("probe and spectrum level counts differ")
    phases = np.exp(-1j * omega * t * spectrum.levels_float)
    return ProbeState(tuple((probe.vector * phases).tolist()))


def _check_density(trace: float, lam_min: float) -> None:
    """Unit trace and no eigenvalue below PSD_FLOOR, else InvalidState."""
    if abs(trace - 1.0) > NORM_ATOL * 10:
        raise InvalidState("trace(rho) != 1")
    if lam_min < PSD_FLOOR:
        raise InvalidState(f"eigenvalue {lam_min:.2e} below the floor {PSD_FLOOR:.2e}")


@record
class AveragedState:
    """Prior-averaged density matrix in the generator eigenbasis."""

    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=complex)
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise InvalidState("rho must be square")
        if np.max(np.abs(r - r.conj().T)) > HERMITIAN_RTOL * max(1.0, float(np.max(np.abs(r)))):
            raise InvalidState("rho not Hermitian")
        _check_density(np.trace(r).real, np.linalg.eigvalsh(r).min())
        object.__setattr__(self, "rho", r)

    @property
    def L(self) -> int:
        return self.rho.shape[0]


def _damping_kernel(probe: ProbeState, prior: GaussianPrior,
                    spectrum: EffectiveSpectrum, t: float) -> np.ndarray:
    """k_d = exp(-(t W0 g d)^2 / 2), d < L: the prior's damping of a coherence d levels apart.

    Raises unless the prior is Gaussian, the probe as long as the spectrum
    and the ladder uniform (spectrum.gap raises NotLinear); every averaged
    core starts here.
    """
    if not isinstance(prior, GaussianPrior):
        raise TypeError("averaged_state requires a Gaussian prior")
    if spectrum.L != probe.L:
        raise ValueError("probe and spectrum level counts differ")
    n = np.arange(spectrum.L)
    return np.exp(-0.5 * (t * prior.width * spectrum.gap * n) ** 2)


def _averaged_core(probe: ProbeState, prior: GaussianPrior,
                   spectrum: EffectiveSpectrum, t: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Real core rho_r and phases phi of the averaged state: rho_bar = phi rho_r phi^*.

    rho_r = diag|c| K diag|c| with the real Toeplitz damping kernel
    K_nm = k_|n-m| of _damping_kernel; phi_n = exp(i arg c_n - i mean t g n).
    diag(phi) is unitary and commutes with the generator, so rho_bar and
    rho_r share their eigenvalues and, each in its own eigenbasis, the
    |<k| G |l>|^2 that the information sums.
    """
    k = _damping_kernel(probe, prior, spectrum, t)
    c = probe.vector
    # K_nm = k[|n - m|] as a strided view, with no L x L index array: row n
    # is the window of (k_{L-1}, ..., k_1, k_0, ..., k_{L-1}) starting at L-1-n
    kmat = sliding_window_view(np.concatenate((k[:0:-1], k)), spectrum.L)[::-1]
    a = np.abs(c)
    core = a[:, None] * kmat
    core *= a
    n = np.arange(spectrum.L)
    return core, np.exp(1j * (np.angle(c) - prior.mean * t * spectrum.gap * n))


def averaged_state(probe: ProbeState, prior: GaussianPrior,
                   spectrum: EffectiveSpectrum, t: float) -> AveragedState:
    """Average exp(-i w t G) rho exp(+i w t G) over the Gaussian prior.

    Valid only for uniformly spaced spectra: with gap g the (n, m) coherence
    picks up the prior characteristic function at t g (n - m):
    exp(-i mean t g (n-m)) * exp(-(t W0 g)^2 (n-m)^2 / 2).
    """
    core, phase = _averaged_core(probe, prior, spectrum, t)
    return AveragedState(phase[:, None] * core * phase.conj())


def qfi_pure(probe: ProbeState, spectrum: EffectiveSpectrum, t: float) -> float:
    """Information about omega in a pure probe: 4 t^2 Var(Gamma)."""
    if spectrum.L != probe.L:
        raise ValueError("probe and spectrum level counts differ")
    p = np.abs(probe.vector) ** 2
    g = spectrum.levels_float
    mean = float(p @ g)
    var = float(p @ (g - mean) ** 2)
    return 4.0 * t * t * var


def _sld_sum(lam_a: np.ndarray, lam_b: np.ndarray, gmat: np.ndarray) -> float:
    """sum_{k, l} (a_k - b_l)^2 / (a_k + b_l) |gmat_kl|^2 over pairs above SLD_FLOOR.

    lam_a and lam_b are eigenvalues (clipped at 0), gmat the generator
    between their eigenvectors: rows belong to lam_a, columns to lam_b.
    The terms are formed in place in one array.
    """
    lam_a = np.clip(lam_a, 0.0, None)
    lam_b = np.clip(lam_b, 0.0, None)
    den = np.add.outer(lam_a, lam_b)
    keep = den > SLD_FLOOR
    terms = np.subtract.outer(lam_a, lam_b)
    terms **= 2
    np.divide(terms, den, out=terms, where=keep)
    del den
    terms[~keep] = 0.0
    terms *= np.abs(gmat) ** 2
    return np.sum(terms)


def _sld_information(lam: np.ndarray, vecs: np.ndarray, levels: np.ndarray,
                     t: float) -> float:
    """2 t^2 sum_{k != l} (lam_k - lam_l)^2 / (lam_k + lam_l) |<k| G |l>|^2.

    (lam, vecs) is the eigendecomposition of the state, G = diag(levels);
    pairs with lam_k + lam_l at or below SLD_FLOOR are left out.
    """
    gmat = vecs.conj().T @ (levels[:, None] * vecs)
    return float(2.0 * t * t * _sld_sum(lam, lam, gmat))


def _parity_information(a: np.ndarray, k: np.ndarray, levels: np.ndarray,
                        t: float) -> float:
    """Information of the centrosymmetric core a_i k_|i-j| a_j (L >= 2) from its parity blocks.

    a = |c| equals its reverse and k is the damping kernel of
    _damping_kernel. With J the reversal and m = L // 2, the core splits
    over the odd vectors (e_i - e_{L-1-i})/sqrt(2) and the even vectors
    (e_i + e_{L-1-i})/sqrt(2), i < m, plus e_m for odd L. Its top-left
    block is the Toeplitz T_ij = a_i k_|i-j| a_j and its top-right block
    read right to left the Hankel H_ij = a_i k_{L-1-i-j} a_{L-1-j}; both
    are built from strided views of k, never from the L x L core. The odd
    block is T - H and the even block T + H, bordered for odd L by
    sqrt(2) a_i k_{m-i} a_m and a_m k_0 a_m. On a uniform ladder G is a
    multiple of the identity plus diag(s), s_i = (levels_i - levels_{L-1-i}) / 2,
    which maps odd vector i to s_i times even vector i. So only odd-even
    pairs carry information, each counted twice in the full sum:
    F = 4 t^2 sum_{k odd, l even} (lam_k - lam_l)^2 / (lam_k + lam_l) cross_kl^2.
    Checks the trace and the smaller block minimum against PSD_FLOOR.
    """
    L = len(a)
    m = L // 2
    s = 0.5 * (levels[:m] - levels[::-1][:m])
    am = a[:m]
    # toeplitz[i, j] = k[|i - j|] as in _averaged_core; hankel[i, j] = k[L-1-i-j]
    toeplitz = sliding_window_view(np.concatenate((k[m - 1:0:-1], k[:m])), m)[::-1]
    hankel = sliding_window_view(k[::-1], m)[:m]
    even = np.empty((L - m, L - m))
    top = even[:m, :m]
    np.multiply(am[:, None], toeplitz, out=top)
    top *= am
    h = am[:, None] * hankel
    h *= a[::-1][:m]
    odd = top - h
    top += h
    del h
    if L % 2:
        col = am * k[m:0:-1]
        col *= a[m]
        even[:m, m] = even[m, :m] = np.sqrt(2.0) * col
        even[m, m] = a[m] * k[0] * a[m]
    lam_e, u_e = np.linalg.eigh(even)
    del even, top
    lam_o, u_o = np.linalg.eigh(odd)
    del odd
    _check_density(np.sum(a * k[0] * a), min(lam_e.min(), lam_o.min()))
    cross = u_o.T @ (s[:, None] * u_e[:m])
    del u_o, u_e
    return float(4.0 * t * t * _sld_sum(lam_o, lam_e, cross))


def qfi_mixed(state: AveragedState, spectrum: EffectiveSpectrum, t: float) -> float:
    """Information about omega in a mixed state (symmetric-derivative form).

    F = 2 t^2 sum_{k != l} (lam_k - lam_l)^2 / (lam_k + lam_l)
        |<k| G |l>|^2  over eigenpairs with lam_k + lam_l above the floor.
    Reduces to qfi_pure on pure inputs and to t^2 Delta^2 exp(-t^2 W0^2
    Delta^2) for the extremal two-level probe averaged over a Gaussian
    prior.
    """
    if state.L != spectrum.L:
        raise ValueError("state and spectrum level counts differ")
    lam, vecs = np.linalg.eigh(state.rho)
    return _sld_information(lam, vecs, spectrum.levels_float, t)


def variance_reduction(probe: ProbeState, prior: GaussianPrior,
                       spectrum: EffectiveSpectrum, t: float) -> float:
    """Posterior-to-prior variance ratio W1^2/W0^2 = 1 - W0^2 F(rho_bar).

    Equals 1 at t = 0 (no information) and 1 - x^2 exp(-x^2), x = t W0
    Delta, for the extremal two-level probe. F(rho_bar) is evaluated on the
    real core of _averaged_core. When L >= 2 and the probe moduli equal
    their reverse bit for bit (|c_n| = |c_{L-1-n}|: the sine, GHZ and
    uniform probes), the core is centrosymmetric and _parity_information
    builds its two parity blocks of sizes ceil(L/2) and floor(L/2) from
    |c| and the damping kernel and solves them, a quarter of the work and
    no L x L array; otherwise one real symmetric eigensolve of the whole
    core. Either way the smallest eigenvalue is checked against PSD_FLOOR.
    """
    levels = spectrum.levels_float
    a = np.abs(probe.vector)
    if len(a) >= 2 and np.array_equal(a, a[::-1]):
        k = _damping_kernel(probe, prior, spectrum, t)
        info = _parity_information(a, k, levels, t)
    else:
        core, _ = _averaged_core(probe, prior, spectrum, t)
        lam, vecs = np.linalg.eigh(core)
        _check_density(np.trace(core), lam.min())
        del core
        info = _sld_information(lam, vecs, levels, t)
    return 1.0 - prior.width ** 2 * info


# ---------------------------------------------------------------------------
# canonical covariant phase measurement
# ---------------------------------------------------------------------------

_TWO_PI = 2.0 * np.pi


def _mod_2pi(x) -> np.ndarray:
    """np.mod(x, 2 pi), bit for bit.

    On a float64 array in [0, 4 pi) the remainder np.mod takes through
    fmod is exact: x itself below 2 pi (-0.0 becoming +0.0), x - 2 pi
    above, and that difference is exact by Sterbenz's lemma. One compare
    selects the offset, one add applies it. Anything else (a 0-d or empty
    array, another dtype, a value out of range or NaN) goes to np.mod.
    """
    x = np.asarray(x)
    if (x.dtype != np.float64 or x.ndim == 0 or x.size == 0
            or not (x.min() >= 0.0 and x.max() < 2.0 * _TWO_PI)):
        return np.mod(x, _TWO_PI)
    out = np.where(x >= _TWO_PI, -_TWO_PI, 0.0)
    out += x
    return out


def wrap_pi(x):
    """Wrap angles to [-pi, pi)."""
    return _mod_2pi(np.asarray(x) + np.pi) - np.pi


def _coherence_sums(amplitudes_or_rho) -> np.ndarray:
    """R_d = sum_n rho[n+d, n] for d < L; for a pure c (rho = c c^dagger) by FFT."""
    x = np.asarray(amplitudes_or_rho, dtype=complex)
    if x.ndim == 1:
        f = np.fft.fft(x, 2 * len(x))  # zero-padded: no circular wrap
        return np.fft.ifft(f * f.conj())[:len(x)]
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("expected an amplitude vector or a square density matrix")
    return np.array([np.trace(x, offset=-d) for d in range(x.shape[0])])


def _fourier_grid(coeffs: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Re(a_0 + 2 sum_{d>=1} a_d e^{2 pi i d k/n}), k < n, by one inverse FFT
    (written into out when given)."""
    out = np.fft.irfft(coeffs, n, out=out)
    out *= n
    return out


def _phase_grid_size(L: int) -> int:
    """2**PHASE_GRID_BITS grid points, or the next power of two >= 16 L if larger.

    With 16 points per 2pi/L the piecewise-uniform inverse-CDF draws keep
    their Holevo variance within 0.6 % of the exact density's.
    """
    return max(1 << PHASE_GRID_BITS, 1 << (16 * L - 1).bit_length())


def canonical_phase_density(amplitudes_or_rho, thetas: np.ndarray) -> np.ndarray:
    """Outcome density of the canonical phase measurement on a level ladder.

    p(theta) = (1/2pi) sum_{|d|<L} R_d e^{i d theta} with R_{-d} = conj(R_d);
    for a pure input c this is |sum_mu c_mu e^{i mu theta}|^2 / 2pi.
    """
    r = _coherence_sums(amplitudes_or_rho)
    d = np.arange(1, len(r))
    e = np.exp(1j * np.multiply.outer(np.asarray(thetas, dtype=float), d))
    return (r[0].real + 2.0 * (e @ r[1:]).real) / (2.0 * np.pi)


class _GuidedInterp:
    """np.interp over the knots xp and values fp, bit for bit, from a guide table built once.

    xp increases (repeats allowed) from xp[0] = 0, has at least two knots,
    and x lies in [0, xp[-1]]. A bucket index b(x) = int(x * scale), one
    bucket per knot interval, is monotone in x, so the last knot j with
    xp[j] <= x is at least guide[b], the last knot in an earlier bucket
    (Chen & Asau, 1974). One forward step follows, and np.searchsorted
    places the few x still short of their knot. The value is np.interp's
    own expression, slope_j (x - xp_j) + fp_j with the same slope bits,
    and fp[-1] at x = xp[-1] (the zero slope appended after the last
    knot). Where a slope np.interp can use is not finite, or fp holds -0.0,
    np.interp's end cases (exact-knot values, the NaN retry) can differ
    from that expression, so the call goes to np.interp itself. Read-only
    after construction, so every chunk of a run reuses it.
    """

    def __init__(self, xp, fp):
        xp = np.asarray(xp, dtype=float)
        fp = np.asarray(fp, dtype=float)
        self._scale = (len(xp) - 1) / xp[-1]
        # bucket indices, truncated as astype(intp) truncates
        counts = np.bincount(np.multiply(xp, self._scale, casting="unsafe",
                                         out=np.empty(len(xp), np.intp)))
        guide = self._guide = np.cumsum(counts)
        guide -= counts
        guide -= 1
        np.maximum(guide, 0, out=guide)
        del counts
        # xp[j + 1] for every j, +inf after the last knot
        padded = np.empty(len(xp) + 1)
        padded[:-1] = xp
        padded[-1] = np.inf
        self._xp, self._next = padded[:-1], padded[1:]
        dx = np.diff(xp)
        rising = dx > 0
        # slopes between repeated knots are never used, as in np.interp
        slopes = self._slopes = np.zeros(len(xp))
        np.subtract(fp[1:], fp[:-1], out=slopes[:-1], where=rising)
        np.divide(slopes[:-1], dx, out=slopes[:-1], where=rising)
        self._fp = fp
        self._plain = bool(np.isfinite(self._slopes).all()
                           and not np.any(np.signbit(fp) & (fp == 0.0)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if not self._plain:
            return np.interp(x, self._xp, self._fp)
        j = self._guide[(x * self._scale).astype(np.intp)]
        j += self._next[j] <= x
        short = self._next[j] <= x
        if short.any():
            j[short] = np.searchsorted(self._xp, x[short], "right") - 1
        out = x - self._xp[j]
        out *= self._slopes[j]
        out += self._fp[j]
        return out


class CanonicalSampler:
    """The canonical phase measurement on one input: draws and posterior table.

    Built from a ProbeState, an amplitude vector or a density matrix. The
    coherence sums R_d are computed once (coherence_sums); the density is
    evaluated from them by FFT on _phase_grid_size points thetas on
    [0, 2pi), and its CDF is inverted by linear interpolation between the
    knots, looked up through a guide table (_GuidedInterp). Because the
    density under a phase shift phi is the base density rigidly shifted,
    one sampler serves every true phase: draw from the base density and add
    phi modulo 2pi. knots are thetas followed by the wrap point 2pi, and
    thetas is a view of them. Each table is built in place, so the sampler
    keeps four grid-length arrays: knots, and the lookup's padded CDF (of
    which _cdf is a view), guide and slopes.
    """

    def __init__(self, probe_or_rho):
        x = probe_or_rho.vector if isinstance(probe_or_rho, ProbeState) else probe_or_rho
        r = self.coherence_sums = _coherence_sums(x)
        n = _phase_grid_size(len(r))
        self.knots = np.linspace(0.0, 2.0 * np.pi, n + 1)
        self.thetas = self.knots[:-1]
        p = _fourier_grid(r, n)
        np.clip(p, 0.0, None, out=p)
        p /= 2.0 * np.pi
        # trapezoid masses per cell [theta_i, theta_{i+1}), wrapping at 2pi
        masses = np.empty(n)
        np.add(p[:-1], p[1:], out=masses[:-1])
        masses[-1] = p[-1] + p[0]
        del p
        masses *= 0.5
        masses *= 2.0 * np.pi / n
        total = float(masses.sum())
        if not np.isfinite(total) or abs(total - 1.0) > SAMPLER_NORM_ATOL:
            raise NumericFailure(f"density normalization off by {abs(total - 1.0):.2e}")
        self.norm_error = abs(total - 1.0)
        cdf = np.empty(n + 1)
        cdf[0] = 0.0
        np.cumsum(masses, out=cdf[1:])
        del masses
        cdf /= cdf[-1]
        self._inverse_cdf = _GuidedInterp(cdf, self.knots)
        self._cdf = self._inverse_cdf._xp

    def sample(self, rng: UniformSource, size: int | tuple[int, ...],
               shift: float | np.ndarray = 0.0) -> np.ndarray:
        """Draw outcomes in [0, 2pi), optionally shifted by the true phase."""
        base = self._inverse_cdf(rng.random(size))
        return _mod_2pi(base + shift)

    def posterior_mean_table(self, prior: GaussianPrior, tg: float) -> np.ndarray:
        """Posterior mean of omega given the outcome theta at each of the knots.

        The outcome density at true omega is p0(theta - omega tg), with
        p0(theta) = (1/2pi) sum_d R_d e^{i d theta}; under a Gaussian prior
        N(mean, width^2) the integrals over omega are exact per harmonic:
          denominator  D(theta) = sum_d R_d e^{i d theta} C(d)
          numerator    N(theta) = sum_d R_d e^{i d theta} (mean - i d tg width^2) C(d)
        with C(d) = exp(-i d tg mean - (d tg width)^2 / 2); both series are
        evaluated on the grid by FFT. The last entry repeats the first, the
        value at the wrap point 2pi, so interpolating over knots is
        periodic on [0, 2pi].
        """
        r = self.coherence_sums
        d = np.arange(len(r))
        a = r * np.exp(-1j * d * tg * prior.mean - 0.5 * (d * tg * prior.width) ** 2)
        n = len(self.thetas)
        den = _fourier_grid(a, n)
        # round-off floor POSTERIOR_FLOOR_RTOL sum|a_d|: FFT round-off in D stays
        # below 1e-14 sum|a_d| on every grid used, so a smaller margin is noise
        if den.min() <= POSTERIOR_FLOOR_RTOL * np.abs(a).sum():
            raise NumericFailure("posterior normalization not above its round-off floor")
        table = np.empty(n + 1)
        _fourier_grid(a * (prior.mean - 1j * d * tg * prior.width ** 2), n, out=table[:n])
        table[:n] /= den
        table[n] = table[0]
        return table


def analytic_sharpness(amplitudes_or_rho) -> float:
    """|sum_mu <mu+1| . |mu>| adjacent-coherence magnitude on a unit-index ladder."""
    x = np.asarray(amplitudes_or_rho, dtype=complex)
    if x.ndim == 1:
        return float(abs(np.sum(x.conj()[:-1] * x[1:])))
    return float(abs(np.trace(x, offset=-1)))


def holevo_variance(amplitudes_or_rho) -> float:
    """Circular spread measure S^-2 - 1 of the canonical measurement.

    S is the adjacent-level sharpness, exact on a unit-gap ladder; sampled
    residuals go through empirical_holevo. Zero sharpness returns inf
    (flagged, not raised).
    """
    s = analytic_sharpness(amplitudes_or_rho)
    if s == 0.0:
        return math.inf
    return 1.0 / (s * s) - 1.0


def _moments(columns) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, mean, comoment = sum_i (x_i - mean)(x_i - mean)^T) of k columns."""
    x = np.asarray(columns, dtype=float)
    mean = x.mean(axis=1)
    d = x - mean[:, None]
    return x.shape[1], mean, d @ d.T


def empirical_holevo(samples: np.ndarray | None = None,
                     true_phase: float | np.ndarray = 0.0, moments=None
                     ) -> tuple[float, float]:
    """Holevo variance of circular residuals plus a delta-method stderr.

    Give the residual samples, or moments = (n, mean, comoment) of their
    (cos, sin) columns as the Monte-Carlo layer merges them. The columns
    are unit vectors, so 1 - |mean|^2 = trace(comoment) / n, and the
    variance 1/|mean|^2 - 1 is taken as trace(comoment) / (n |mean|^2):
    no cancellation when |mean| is close to 1.
    """
    if moments is None:
        z = np.exp(1j * (np.asarray(samples) - true_phase))
        moments = _moments((z.real.ravel(), z.imag.ravel()))
    n, mean, com = moments
    s2 = float(mean @ mean)
    if s2 == 0.0:
        return math.inf, math.inf
    # gradient of 1/(a^2+b^2) - 1 at (a, b) = the mean (cos, sin)
    grad = -2.0 * mean / (s2 * s2)
    se = math.sqrt(max(grad @ com @ grad / (n - 1), 0.0)) / math.sqrt(n)
    return float(np.trace(com)) / (n * s2), se

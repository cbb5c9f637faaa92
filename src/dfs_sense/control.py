"""Protected spin configurations, flip-time schedules, and effective spectra.

Flipping a site's population at an intermediate time realizes fractional
time-averaged spins, which lets a protected configuration set span a chosen
ladder of generator eigenvalues. All level arithmetic stays in exact
rationals whenever the inputs are rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import (ENUMERATION_GUARD, LADDER_DIM_SLACK, LEVEL_MERGE_RTOL,
                     LINEAR_GAP_RTOL, SHAPE_RANGE_RTOL, SHAPE_SYMMETRY_RTOL)
from .errors import Degenerate, NotLinear, TooLarge, Unreachable
from .fields import (Number, NoiseModel, SensorArray, SpatialField, _as_vector,
                     _exactable, _numbers, _orthogonal)
from .records import record


@record
class SpinConfig:
    """Effective time-averaged spin per site."""

    s: tuple[Number, ...]

    def __array__(self, dtype=None, copy=None):
        return np.asarray([float(v) for v in self.s], dtype=dtype or float)

    @property
    def J(self) -> int:
        return len(self.s)


@record
class FlipSchedule:
    """Piecewise-constant spin trajectory for one site.

    The site holds start_sign * local_max, inverting at each flip fraction
    (ascending, in (0, 1)). No flips means the site is held the whole time.
    """

    flip_fractions: tuple[Number, ...]
    start_sign: int
    local_max: Number

    def __post_init__(self):
        if self.start_sign not in (-1, 1):
            raise ValueError("start_sign must be +-1")
        # compared as given: a Fraction just below 1 may round to 1.0
        fr = self.flip_fractions
        if any(not (0 < f < 1) for f in fr):
            raise ValueError("flip fractions must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            raise ValueError("flip fractions must be strictly ascending")

    def segments(self) -> list[tuple[Number, Number, int]]:
        """(start, end, sign) pieces covering [0, 1]."""
        bounds = [0, *self.flip_fractions, 1]
        out = []
        sign = self.start_sign
        for a, b in zip(bounds, bounds[1:]):
            out.append((a, b, sign))
            sign = -sign
        return out

    def realized_average(self) -> Number:
        """Time average of the trajectory over [0, 1]."""
        total = 0
        for a, b, sign in self.segments():
            total += sign * self.local_max * (b - a)
        return total

    def accumulated_phase(self, field_amplitude: Number, total_time: Number) -> Number:
        """Phase gathered under a static field: integral of f * s(t) dt.

        Piecewise-constant integration; equals
        field_amplitude * realized_average() * total_time by linearity.
        """
        total = 0
        for a, b, sign in self.segments():
            total += field_amplitude * sign * self.local_max * (b - a) * total_time
        return total


def flip_schedule_for(target: Number, local_max: Number) -> FlipSchedule:
    """Single-site schedule whose time average equals ``target``.

    Holds +local_max for a fraction alpha = (target + local_max)/(2 local_max)
    and -local_max for the rest.
    """
    if float(local_max) <= 0.0:
        raise Unreachable("local_max must be positive")
    if abs(float(target)) > float(local_max):
        raise Unreachable(
            f"target {float(target)} exceeds the physical spin {float(local_max)}")
    t, m = _numbers(target, local_max)
    alpha = (t + m) / (2 * m)
    if alpha >= 1:
        return FlipSchedule((), +1, local_max)
    if alpha <= 0:
        return FlipSchedule((), -1, local_max)
    return FlipSchedule((alpha,), +1, local_max)


@record
class EffectiveSpectrum:
    """Distinct generator eigenvalues reachable by a protected configuration set."""

    levels: tuple[Number, ...]
    configs: tuple[SpinConfig, ...] | None = None

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ValueError("a spectrum needs at least one level")
        fl = [float(v) for v in self.levels]
        if any(b <= a for a, b in zip(fl, fl[1:])):
            raise ValueError("levels must be strictly ascending")
        if self.configs is not None and len(self.configs) != len(self.levels):
            raise ValueError("one configuration per level expected")

    @property
    def L(self) -> int:
        return len(self.levels)

    @property
    def Delta(self) -> Number:
        return self.levels[-1] - self.levels[0]

    @property
    def delta(self) -> Number:
        """Minimal gap between consecutive levels (0 for a single level)."""
        if self.L < 2:
            return 0
        return min(b - a for a, b in zip(self.levels, self.levels[1:]))

    @property
    def levels_float(self) -> np.ndarray:
        return np.asarray([float(v) for v in self.levels], dtype=float)

    def is_linear(self) -> bool:
        """True when consecutive gaps are uniform to relative tolerance."""
        if self.L < 3:
            return True
        gaps = np.diff(self.levels_float)
        return bool(np.all(np.abs(gaps - gaps[0]) <= LINEAR_GAP_RTOL * abs(gaps[0])))

    @property
    def gap(self) -> float:
        """Uniform gap Delta/(L-1) (0.0 for a single level); NotLinear unless
        is_linear, as every formula that reads it assumes uniform spacing."""
        if not self.is_linear():
            raise NotLinear("protocol assumes uniformly spaced levels")
        if self.L < 2:
            return 0.0
        return float(self.Delta) / (self.L - 1)

    @classmethod
    def from_levels(cls, values: Sequence[Number],
                    configs: Sequence[SpinConfig] | None = None) -> "EffectiveSpectrum":
        """Sort and merge raw level values (_merge_levels); each level reports
        the configuration given first among those merged into it."""
        levels, first = _merge_levels(list(values))
        return cls(levels, None if configs is None else tuple(configs[i] for i in first))


def _merge_levels(values: list[Number]) -> tuple[tuple[Number, ...], list[int]]:
    """Ascending distinct levels and, per level, the position of the first
    value merged into it. Sorted values merge into the level of the smallest
    one when equal (exact values) or within LEVEL_MERGE_RTOL * range (floats)."""
    fl = [float(v) for v in values]
    exact = _exactable(*values)
    tol = 0.0 if exact else LEVEL_MERGE_RTOL * (max(fl) - min(fl))
    starts: list[int] = []
    first: list[int] = []
    for i in np.argsort(fl, kind="stable").tolist():
        if starts and (values[i] == values[starts[-1]] if exact
                       else fl[i] - fl[starts[-1]] <= tol):
            first[-1] = min(first[-1], i)
        else:
            starts.append(i)
            first.append(i)
    return tuple(values[i] for i in starts), first


@record
class LadderPlan:
    """Equally spaced configuration ladder aligned with the protected signal."""

    configs: tuple[SpinConfig, ...]
    spectrum: EffectiveSpectrum
    site_schedules: tuple[FlipSchedule, ...]
    economy_dims: tuple[int, ...]


def ladder_probe(f_perp: SpatialField, n: int) -> LadderPlan:
    """Configuration ladder s_m = m * f_perp / f_perp_max, m in {-n/2..n/2}.

    Produces n+1 protected configurations whose generator eigenvalues are
    equally spaced with range n * |f_perp|^2 / f_perp_max. site_schedules
    realize the top rung (one flip per site at (1 + f_j/f_max)/2); lower
    rungs reuse the same flip time on proportionally fewer quanta.
    economy_dims reports the per-site dimension ceil(n |f_j| / f_max) that a
    trimmed local system would need.
    """
    if n < 0 or n % 2 != 0:
        raise ValueError("n must be a nonnegative even integer")
    # the top rung's spin scale n/2 is exact, so it follows f_perp's kind
    half_n, *fvals = _numbers(Fraction(n, 2), *f_perp.values)
    fmax = max(abs(v) for v in fvals)
    norm2 = sum(v * v for v in fvals)

    configs = []
    levels = []
    for m in range(-(n // 2), n // 2 + 1):
        s = tuple(m * v / fmax for v in fvals)
        configs.append(SpinConfig(s))
        levels.append(m * norm2 / fmax)
    spectrum = EffectiveSpectrum.from_levels(levels, configs)

    schedules = []
    dims = []
    for v in fvals:
        if n == 0:
            schedules.append(FlipSchedule((), +1, Fraction(1, 2)))
            dims.append(1)
            continue
        # |v / fmax| <= 1 survives rounding, so the top rung stays physical
        target = half_n * (v / fmax)
        schedules.append(flip_schedule_for(target, half_n))
        dims.append(int(np.ceil(n * abs(float(v)) / float(fmax) - LADDER_DIM_SLACK)) or 1)
    return LadderPlan(tuple(configs), spectrum, tuple(schedules), tuple(dims))


def sign_matched_anchor(array: SensorArray, f_perp: SpatialField) -> SpinConfig:
    """Extremal configuration maximizing f_perp . s (ties broken toward +)."""
    tops = array.max_spins()
    vals = []
    for v, top in zip(f_perp.values, tops):
        sign = -1 if float(v) < 0 else 1
        vals.append(sign * top)
    return SpinConfig(tuple(vals))


def _reachable_sums(options: Sequence[Sequence[tuple[Number, Number]]]) -> dict:
    """Map each reachable total key to its set of total values; options[j]
    lists site j's (key, value) steps, summed site by site (subset-sum DP)."""
    sums = {0: {0}}
    for steps in options:
        nxt: dict = {}
        for key, values in sums.items():
            for dk, dv in steps:
                nxt.setdefault(key + dk, set()).update(v + dv for v in values)
        sums = nxt
    return sums


def _check_guard(size: int) -> None:
    """TooLarge when an enumeration would walk more than ENUMERATION_GUARD
    configurations."""
    if size > ENUMERATION_GUARD:
        raise TooLarge(f"{size} configurations exceed the guard {ENUMERATION_GUARD}")


def _dfs_rows(array: SensorArray, noise: NoiseModel, anchor: SpinConfig) -> np.ndarray:
    """Ladder indices, one row per configuration c that dfs_condition keeps:
    f_k . (c - anchor) and |c - anchor|^2 are summed site by site over the
    whole (guarded) product ladder as arrays. Rows come in C order, which is
    lexicographic in the spins since every site ladder ascends."""
    _check_guard(array.total_configurations)
    steps = [np.arange(n) - float(m) - float(a) for n, m, a in
             zip(array.quanta_per_site, array.max_spins(), anchor.s, strict=True)]
    # summing the open grids of np.ix_ broadcasts one site at a time; axis j
    # indexes site j's ladder, so C order is itertools.product order
    nds = np.sqrt(sum(np.ix_(*(d * d for d in steps))))
    keep = np.ones(nds.shape, dtype=bool)
    for f in noise.noise_fields:
        proj = sum(np.ix_(*(fj * d for fj, d in zip(f.vector, steps, strict=True))))
        keep &= _orthogonal(proj, np.linalg.norm(f.vector), nds)
    # the smallest signed integer type that holds -n_max holds every index
    return np.stack(np.nonzero(keep), axis=1,
                    dtype=np.min_scalar_type(-max(array.quanta_per_site)))


def _spins(array: SensorArray, rows: np.ndarray) -> np.ndarray:
    """C-contiguous (n, J) float spins of ladder-index rows (index k of a site
    with top spin m holds k - m, exact in floats). np.vecdot(spins, v) runs
    v @ one configuration's spins row by row, bit for bit; m @ v and strided
    rows sum in another order."""
    return np.ascontiguousarray(rows - _as_vector(array.max_spins()))


def _spin_configs(array: SensorArray, rows: np.ndarray) -> list[SpinConfig]:
    ladders = [array.site_spin_values(j) for j in range(array.J)]
    return [SpinConfig(tuple(lad[i] for lad, i in zip(ladders, row)))
            for row in rows.tolist()]


def enumerate_dfs_configs(array: SensorArray, noise: NoiseModel,
                          anchor: SpinConfig | None = None,
                          f_perp: SpatialField | None = None) -> list[SpinConfig]:
    """All physical spin configurations coherent with the anchor (by default
    the sign-matched one along f_perp), sorted by effective_signal_gap to the
    anchor when f_perp is given, then lexicographically."""
    if anchor is None:
        if f_perp is None:
            raise ValueError("an anchor or f_perp is required")
        anchor = sign_matched_anchor(array, f_perp)
    rows = _dfs_rows(array, noise, anchor)
    if f_perp is not None:
        # a stable sort keeps equal gaps in lexicographic order
        gaps = np.vecdot(_spins(array, rows) - _as_vector(anchor), f_perp.vector)
        rows = rows[np.argsort(gaps, kind="stable")]
    return _spin_configs(array, rows)


def protected_spectrum(array: SensorArray, noise: NoiseModel, signal: SpatialField,
                       f_perp: SpatialField) -> EffectiveSpectrum:
    """The distinct signal levels of the configurations coherent with the
    sign-matched anchor along f_perp, one configuration per level: rows come
    lexicographically, so each level reports its lexicographically first
    configuration, and only those L are built."""
    rows = _dfs_rows(array, noise, sign_matched_anchor(array, f_perp))
    values = np.vecdot(_spins(array, rows), signal.vector).tolist()
    levels, first = _merge_levels(values)
    return EffectiveSpectrum(levels, tuple(_spin_configs(array, rows[first])))


def equalize_multidim(f_perp: SpatialField | Sequence[Number]
                      ) -> tuple[Number, EffectiveSpectrum]:
    """Equalized 4-level ladder on two protected coordinates.

    With configurations (+-s_eff, +-1/2) projected onto a two-component
    f_perp, choosing s_eff = f2 / (4 f1) makes the top projection three
    times the second one, which spaces all four projections uniformly
    (gap f2/2). Both components must be nonzero.
    """
    vals = list(getattr(f_perp, "values", f_perp))
    if len(vals) != 2:
        raise ValueError("exactly two effective coordinates expected")
    f1, f2 = vals
    if float(f1) == 0.0:
        raise Degenerate("first effective component vanishes; ratio condition unsolvable")
    if float(f2) == 0.0:
        raise Degenerate("second effective component vanishes; levels collapse to two")
    f1, f2, half = _numbers(f1, f2, Fraction(1, 2))
    s_eff = f2 / (4 * f1)
    configs = [SpinConfig((a * s_eff, b * half)) for a in (+1, -1) for b in (+1, -1)]
    levels = [c.s[0] * f1 + c.s[1] * f2 for c in configs]
    spectrum = EffectiveSpectrum.from_levels(levels, configs)
    if spectrum.L != 4:
        raise Degenerate("projections collapsed; fewer than 4 distinct levels")
    return s_eff, spectrum


@record
class ShapedSpectrum:
    """Arbitrary spectrum carved from degenerate two-level copies.

    switch_fractions[i] is the fraction of the evolution each copy spends in
    the upper extremal state to realize spectrum.levels[i]; half_range_mixing
    marks the asymmetric variant (targets not closed under negation), which
    mixes against a zero-eigenvalue reference instead of the lower extreme.
    """

    spectrum: EffectiveSpectrum
    switch_fractions: tuple[Number, ...]
    half_range_mixing: bool
    copies_used: int


def shape_spectrum(base: EffectiveSpectrum, degeneracy: int,
                   targets: Sequence[Number]) -> ShapedSpectrum:
    """Realize arbitrary eigenvalues inside a two-level range by timed switching.

    Each target lam in [-Delta/2, Delta/2] is produced by holding the upper
    extremal state for a fraction alpha = (lam + Delta/2)/Delta of the time.
    Symmetric target sets pair (+lam, -lam) on one degenerate copy each;
    asymmetric sets use one copy per target and are flagged.
    """
    if base.L != 2:
        raise ValueError("base must be a two-level spectrum")
    if degeneracy < 1:
        raise ValueError("degeneracy must be >= 1")
    if len(targets) == 0:
        raise ValueError("at least one target level required")
    delta, *targets = _numbers(base.Delta, *targets)
    half = delta / 2
    for lam in targets:
        if abs(float(lam)) > float(half) * (1 + SHAPE_RANGE_RTOL):
            raise Unreachable(f"target {float(lam)} outside [-Delta/2, Delta/2]")
    tlist = sorted(set(targets))
    symmetric = all(any(abs(float(t) + float(u))
                        <= SHAPE_SYMMETRY_RTOL * max(1.0, abs(float(t)))
                        for u in tlist) for t in tlist)
    if symmetric:
        copies = sum(1 for t in tlist if float(t) > 0) + (1 if any(float(t) == 0 for t in tlist) else 0)
    else:
        copies = len(tlist)
    if copies > degeneracy:
        raise Unreachable(
            f"{copies} degenerate copies needed, only {degeneracy} available")

    fractions = tuple((lam + half) / delta for lam in tlist)
    spectrum = EffectiveSpectrum.from_levels(tlist)
    return ShapedSpectrum(spectrum, fractions, not symmetric, copies)

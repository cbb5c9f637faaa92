"""Protected spin configurations, flip-time schedules, and effective spectra.

Flipping a site's population at an intermediate time realizes fractional
time-averaged spins, which lets a protected configuration set span a chosen
ladder of generator eigenvalues. All level arithmetic stays in exact
rationals whenever the inputs are rational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .config import ENUMERATION_GUARD, LEVEL_MERGE_RTOL, LINEAR_GAP_RTOL
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
        if not (self.local_max > 0):
            raise ValueError("local_max must be positive")
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
    # checked in the inputs' own arithmetic: a Fraction may round onto a bound
    t, m = _numbers(target, local_max)
    for name, v in (("target", t), ("local_max", m)):
        if isinstance(v, float) and not math.isfinite(v):  # Fractions are finite
            raise Unreachable(f"{name} must be finite, got {v}")
    if m <= 0:
        raise Unreachable("local_max must be positive")
    if abs(t) > m:
        raise Unreachable(
            f"target {float(target)} exceeds the physical spin {float(local_max)}")
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


def _merge_levels(values: Sequence[Number] | np.ndarray
                  ) -> tuple[tuple[Number, ...], list[int]]:
    """Ascending distinct levels and, per level, the position of the first
    value merged into it. Sorted values merge into the level of the smallest
    one when equal (exact values) or within LEVEL_MERGE_RTOL * range (floats:
    fl[j] - fl[start] <= tol, anchored at the level's smallest value).

    Values are exact when numpy reads them as no float array and every one
    is an int or Fraction; exact levels are the given values, float levels
    Python floats."""
    fa = np.asarray(values)
    if fa.size == 0:
        return (), []
    if fa.dtype.kind != "f" and _exactable(*values):
        starts: list[int] = []
        first: list[int] = []
        for i in np.argsort(fa.astype(float), kind="stable").tolist():
            if starts and values[i] == values[starts[-1]]:
                first[-1] = min(first[-1], i)
            else:
                starts.append(i)
                first.append(i)
        return tuple(values[i] for i in starts), first
    fa = fa.astype(float, copy=False)
    order = np.argsort(fa, kind="stable")
    srt = fa[order]
    tol = LEVEL_MERGE_RTOL * (srt[-1] - srt[0])
    # a gap above tol to the previous sorted value starts a level, since the
    # start-anchored difference is at least that gap; inside a run of closer
    # values the next start after p is the first j with srt[j] - srt[p] >
    # tol, monotone in j: bracketed by doubling steps from p, then bisected
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in Python
        breaks = np.flatnonzero(np.diff(srt) > tol) + 1
    edges = [0, *breaks.tolist(), len(srt)]
    pos = []  # sorted positions where a level starts
    for p, end in zip(edges, edges[1:]):
        pos.append(p)
        while end - p > 1:
            lo = hi = p + 1
            while hi < end and srt[hi] - srt[p] <= tol:
                lo, hi = hi + 1, p + 2 * (hi - p)
            hi = min(hi, end)
            while lo < hi:
                mid = (lo + hi) // 2
                if srt[mid] - srt[p] <= tol:
                    lo = mid + 1
                else:
                    hi = mid
            if lo == end:
                break
            pos.append(lo)
            p = lo
    first = np.minimum.reduceat(order, pos).tolist()
    return tuple(srt[pos].tolist()), first


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
    levels, first = _merge_levels(np.vecdot(_spins(array, rows), signal.vector))
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


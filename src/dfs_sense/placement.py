"""Sensor placements realizing the three canonical spectrum families.

Under a uniform (all-sites-equal) noise profile, where the sensors sit
decides which generator eigenvalue ladder the protected configurations can
reach. Three placement families trade spectral range against level count:

  two-point     all sensors at the interval ends: maximal range, few levels
  linear        positions on a uniform grid: intermediate range, ~N^2/4 gaps
  exponential   geometrically shrinking pair positions: range ~2 but 2^(N/2)
                equally spaced levels on antialigned site pairs

The conventional summary table quotes (range, level count) per family in
mixed conventions: the two-point row uses +-1 units per qubit and counts
N/2, and the linear row counts gaps Delta/delta rather than distinct
values. Plans therefore carry both the conventional numbers
(``table_range``, ``table_level_count``) and the enumeration-consistent
prediction (``predicted_*``, with qubits contributing +-1/2), which
exact enumeration reproduces.

The linear and exponential families are written once each, for any monotone
profile (``arbitrary_*_placement`` invert it at the target values); the named
placements are the gradient case f(r) = r, with each site at its exact target.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import PREDICTED_LEVEL_CAP, PROFILE_INVERSE_RTOL
from .control import EffectiveSpectrum, _check_guard, _reachable_sums
from .errors import TooLarge, Unreachable
from .fields import Number, SensorArray, _exactable, _numbers
from .records import record


@record
class PlacementPlan:
    """A placement with its predicted protected spectrum.

    positions are sorted ascending. qubit_multiplicity counts co-located
    qubits per site (the site then carries multiplicity+1 ladder levels).
    pairing lists antialigned site-index pairs for families built on logical
    pairs; enumeration for those families runs over the 2^(pairs) pair-sign
    patterns, which is the configuration domain the plan is designed around.
    """

    family: str
    N: int
    positions: tuple[Number, ...]
    qubit_multiplicity: tuple[int, ...]
    signal_values: tuple[Number, ...]       # signal profile at the sites
    f_perp_values: tuple[Number, ...]       # uniform-noise-protected component
    pairing: tuple[tuple[int, int], ...] | None
    predicted_range: Number
    predicted_level_count: int
    predicted_gap: Number
    table_range: Number
    table_level_count: int

    @property
    def J(self) -> int:
        return len(self.positions)

    @property
    def quanta_per_site(self) -> tuple[int, ...]:
        return tuple(m + 1 for m in self.qubit_multiplicity)

    def as_sensor_array(self) -> SensorArray:
        return SensorArray(self.positions, self.quanta_per_site)

    def _ladder(self) -> tuple[Number, Number, int]:
        """(lowest level, gap, level count), at most PREDICTED_LEVEL_CAP levels."""
        if self.predicted_level_count > PREDICTED_LEVEL_CAP:
            raise TooLarge(f"{self.predicted_level_count} levels exceed the "
                           f"explicit cap {PREDICTED_LEVEL_CAP}")
        return -self.predicted_range / 2, self.predicted_gap, self.predicted_level_count

    def predicted_levels(self) -> tuple[Number, ...]:
        """The closed-form level ladder (exact), at most PREDICTED_LEVEL_CAP levels."""
        lo, gap, count = self._ladder()
        return tuple(lo + k * gap for k in range(count))

    def scaled_levels(self, a: float) -> tuple[float, ...]:
        """a * float(v) for each v of predicted_levels(), bit for bit.

        Exact level k is (A + k B) / D over the integers of lo = A / D and
        gap = B / D, and Python's int division rounds correctly, as
        float(Fraction) does, so no Fraction is formed. Float plans scale
        their own levels.
        """
        lo, gap, count = self._ladder()
        if not _exactable(lo, gap):
            return tuple(a * float(v) for v in self.predicted_levels())
        d = math.lcm(lo.denominator, gap.denominator)
        num = lo.numerator * (d // lo.denominator)
        step = gap.numerator * (d // gap.denominator)
        return tuple(a * ((num + k * step) / d) for k in range(count))

    def enumerate_levels(self) -> tuple[Number, ...]:
        """The exact level set over the plan's protected domain.

        Pair-based families (``pairing`` set) reach the pair-sign patterns,
        site-ladder families the zero-total-spin sector of the product ladder
        (the uniform-noise protected sector around the extremal anchor); one
        subset-sum pass over the sites, guarded by the product's size.
        """
        if self.pairing is not None:
            halves = [(self.signal_values[a] - self.signal_values[b]) / 2
                      for a, b in self.pairing]
            options = [((0, h), (0, -h)) for h in halves]
        else:
            arr = self.as_sensor_array()
            options = [tuple((s, f * s) for s in arr.site_spin_values(j))
                       for j, f in enumerate(self.signal_values)]
        _check_guard(math.prod(len(steps) for steps in options))
        levels = _reachable_sums(options).get(0)
        return EffectiveSpectrum.from_levels(levels).levels if levels else ()


def _even(N: int) -> None:
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be an even integer >= 2 (odd N unsupported)")


def two_point_placement(N: int) -> PlacementPlan:
    """N/2 qubits at each interval end r = -1/2 and r = +1/2.

    Maximal spectral range for the conventional table (N in +-1 units); the
    protected site-ladder sector spans {-N/4..N/4} in unit steps.
    """
    _even(N)
    half = N // 2
    positions = (Fraction(-1, 2), Fraction(1, 2))
    signal = positions
    return PlacementPlan(
        family="two_point", N=N,
        positions=positions,
        qubit_multiplicity=(half, half),
        signal_values=signal,
        f_perp_values=signal,  # zero mean already
        pairing=None,
        predicted_range=Fraction(N, 2),
        predicted_level_count=half + 1,
        predicted_gap=Fraction(1),
        table_range=Fraction(N),
        table_level_count=half,
    )


def _linear_plan(family: str, N: int, a: Number, b: Number,
                 place: Callable[[tuple], tuple]) -> PlacementPlan:
    """Sites at place(f) for the signal targets f_j = a (j - 1/2 - N/2)/(N - 1)
    + b, j = 1..N (b drops out of the uniform-noise projection): range
    |a| N^2/(4(N-1)), gap |a|/(N-1), N^2/4 + 1 distinct levels."""
    _even(N)
    if float(a) == 0.0:
        raise ValueError("a must be nonzero")
    a, b = _numbers(a, b)
    # a float times a Fraction step multiplies in floats
    fvals = tuple(a * Fraction(2 * j - 1 - N, 2 * (N - 1)) + b
                  for j in range(1, N + 1))
    mag = abs(a)
    rng = mag * N * N / (4 * (N - 1))
    return PlacementPlan(
        family=family, N=N,
        positions=place(fvals),
        qubit_multiplicity=(1,) * N,
        signal_values=fvals,
        f_perp_values=tuple(f - b for f in fvals),
        pairing=None,
        predicted_range=rng,
        predicted_level_count=N * N // 4 + 1,
        predicted_gap=mag / (N - 1),
        table_range=rng,
        table_level_count=N * N // 4,
    )


def _exponential_plan(family: str, N: int, f_max: Number, f_min: Number,
                      place: Callable[[tuple], tuple]) -> PlacementPlan:
    """Site pairs at place(f) for the signal targets
    f_{+-j} = (f_max + f_min +- (f_max - f_min)/2^(j-1))/2, j = 1..N/2.

    Antialigned pairs contribute +-(f_j - f_{-j})/2, tiling an equally spaced
    ladder of 2^(N/2) levels with range 2 a (1 - 2^(-N/2)), a = f_max - f_min.
    """
    _even(N)
    if N > 48:
        raise TooLarge("pair patterns beyond N = 48 are not explicitly representable")
    if float(f_max) <= float(f_min):
        raise ValueError("f_max must exceed f_min")
    f_max, f_min = _numbers(f_max, f_min)
    a = f_max - f_min
    mid = (f_max + f_min) / 2
    half = N // 2
    spreads = [a / 2 ** j for j in range(1, half + 1)]
    # site order: ascending profile value, pairs mirrored around the middle
    fvals = (tuple(sorted((mid - s for s in spreads), key=float))
             + tuple(sorted((mid + s for s in spreads), key=float)))
    count = 2 ** half
    # a float range times the Fraction 1 - 2^(-N/2) multiplies in floats
    rng = 2 * a * (1 - Fraction(1, count))
    return PlacementPlan(
        family=family, N=N,
        positions=place(fvals),
        qubit_multiplicity=(1,) * N,
        signal_values=fvals,
        f_perp_values=tuple(f - mid for f in fvals),
        # pair k joins the sites at -+r_(k+1) in the sorted position tuple
        pairing=tuple((N - 1 - k, k) for k in range(half)),
        predicted_range=rng,
        predicted_level_count=count,
        predicted_gap=rng / (count - 1),
        table_range=rng,
        table_level_count=count,
    )


def linear_placement(N: int) -> PlacementPlan:
    """Qubits on the uniform grid r_{+-j} = +-(j - 1/2)/(N - 1).

    The linear family at the gradient profile f(r) = r (a = 1, b = 0), so
    each site sits at its exact target: range N^2/(4(N-1)), gap 1/(N-1),
    N^2/4 + 1 distinct levels.
    """
    return _linear_plan("linear", N, 1, 0, lambda f: f)


def exponential_placement(N: int) -> PlacementPlan:
    """Qubit pairs at r_{+-j} = +-(1/2)/2^(j-1), antialigned within each pair.

    The exponential family at the gradient profile f(r) = r (f_max = 1/2,
    f_min = -1/2): 2^(N/2) equally spaced levels of range 2(1 - 2^(-N/2)).
    """
    return _exponential_plan("exponential", N, Fraction(1, 2), Fraction(-1, 2),
                             lambda f: f)


def _invert(profile: Callable[[float], float],
            inverse: Callable[[float], float] | None,
            target: float,
            bracket: tuple[float, float] | None) -> float:
    """Position where the profile attains ``target``.

    Uses the caller's inverse when given, else bisection on the bracket;
    either way the result is verified against the profile.
    """
    if inverse is not None:
        r = float(inverse(float(target)))
    elif bracket is not None:
        lo, hi = float(bracket[0]), float(bracket[1])
        flo, fhi = profile(lo) - target, profile(hi) - target
        if flo == 0.0:
            r = lo
        elif fhi == 0.0:
            r = hi
        elif flo * fhi > 0:
            raise Unreachable(f"profile does not bracket the value {target}")
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fm = profile(mid) - target
                if fm == 0.0:
                    break
                if flo * fm < 0:
                    hi, fhi = mid, fm
                else:
                    lo, flo = mid, fm
            r = 0.5 * (lo + hi)
    else:
        raise ValueError("an inverse function or a bisection bracket is required")
    err = abs(profile(r) - target)
    scale = max(1.0, abs(float(target)))
    if not np.isfinite(r) or err > PROFILE_INVERSE_RTOL * scale:
        raise Unreachable(f"no position attains the profile value {target}")
    return r


def _inverted(profile: Callable[[float], float],
              inverse: Callable[[float], float] | None,
              bracket: tuple[float, float] | None) -> Callable[[tuple], tuple]:
    """The place step of the arbitrary placements: distinct inverted positions."""
    def place(fvals: tuple) -> tuple:
        positions = tuple(_invert(profile, inverse, float(f), bracket)
                          for f in fvals)
        if len(set(positions)) != len(fvals):
            raise Unreachable("profile inversion produced coincident positions")
        return positions
    return place


def arbitrary_linear_placement(profile: Callable[[float], float],
                               inverse: Callable[[float], float] | None,
                               N: int, a: Number, b: Number = 0,
                               bracket: tuple[float, float] | None = None
                               ) -> PlacementPlan:
    """Place sensors so a monotone profile samples a uniform value grid.

    The targets and ladder of ``_linear_plan``; positions come from the
    caller's inverse, else bisection on the bracket.
    """
    return _linear_plan("arbitrary_linear", N, a, b,
                        _inverted(profile, inverse, bracket))


def arbitrary_exponential_placement(profile: Callable[[float], float],
                                    inverse: Callable[[float], float] | None,
                                    f_max: Number, f_min: Number, N: int,
                                    bracket: tuple[float, float] | None = None
                                    ) -> PlacementPlan:
    """Pair sensors so profile differences halve pair by pair.

    The targets and ladder of ``_exponential_plan``; positions come from
    the caller's inverse, else bisection on the bracket.
    """
    return _exponential_plan("arbitrary_exponential", N, f_max, f_min,
                             _inverted(profile, inverse, bracket))


FAMILIES: dict[str, Callable[[int], PlacementPlan]] = {
    "two_point": two_point_placement,
    "linear": linear_placement,
    "exponential": exponential_placement,
}


def table_rows(Ns: Sequence[int] = (4, 6, 8, 10, 12, 14, 16)) -> list[dict]:
    """Conventional summary rows (exact rationals) for the three families.

    ``range`` / ``levels`` carry the conventional values; the
    enumeration-consistent counts ride along in ``enum_*`` columns.
    """
    rows = []
    for family in ("two_point", "linear", "exponential"):
        for N in Ns:
            plan = FAMILIES[family](N)
            rows.append({
                "family": family,
                "N": N,
                "range": plan.table_range,
                "levels": plan.table_level_count,
                "enum_range": plan.predicted_range,
                "enum_levels": plan.predicted_level_count,
                "gap": plan.predicted_gap,
            })
    return rows

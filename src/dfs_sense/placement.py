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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .control import EffectiveSpectrum, _reachable_sums
from .errors import TooLarge, Unreachable
from .fields import (Number, NoiseModel, SensorArray, SpatialField, _exact,
                     _exactable)


@dataclass(frozen=True)
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

    def signal_field(self) -> SpatialField:
        return SpatialField(self.signal_values, label="signal")

    def uniform_noise(self) -> NoiseModel:
        return NoiseModel((SpatialField((1,) * self.J, label="noise:0"),))

    def predicted_levels(self, max_levels: int = 1 << 16) -> tuple[Number, ...]:
        """The closed-form level ladder (exact)."""
        if self.predicted_level_count > max_levels:
            raise TooLarge(
                f"{self.predicted_level_count} levels exceed the explicit cap {max_levels}")
        lo = -self.predicted_range / 2
        gap = self.predicted_gap
        return tuple(lo + k * gap for k in range(self.predicted_level_count))

    def enumerate_levels(self, tolerances: Tolerances = DEFAULT_TOLERANCES
                         ) -> tuple[Number, ...]:
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
        size = math.prod(len(steps) for steps in options)
        if size > tolerances.enumeration_guard:
            raise TooLarge(f"{size} configurations exceed the guard {tolerances.enumeration_guard}")
        levels = _reachable_sums(options).get(0)
        return EffectiveSpectrum.from_levels(levels, tolerances=tolerances).levels if levels else ()


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


def linear_placement(N: int) -> PlacementPlan:
    """Qubits on the uniform grid r_{+-j} = +-(j - 1/2)/(N - 1).

    Range N^2/(4(N-1)), minimal gap 1/(N-1); every multiple of the gap is
    reachable, giving N^2/4 + 1 distinct levels (the conventional table
    counts the N^2/4 gaps).
    """
    _even(N)
    half = N // 2
    right = [Fraction(2 * j - 1, 2 * (N - 1)) for j in range(1, half + 1)]
    positions = tuple(-r for r in reversed(right)) + tuple(right)
    count = N * N // 4 + 1
    return PlacementPlan(
        family="linear", N=N,
        positions=positions,
        qubit_multiplicity=(1,) * N,
        signal_values=positions,
        f_perp_values=positions,
        pairing=None,
        predicted_range=Fraction(N * N, 4 * (N - 1)),
        predicted_level_count=count,
        predicted_gap=Fraction(1, N - 1),
        table_range=Fraction(N * N, 4 * (N - 1)),
        table_level_count=N * N // 4,
    )


def exponential_placement(N: int) -> PlacementPlan:
    """Qubit pairs at r_{+-j} = +-(1/2)/2^(j-1), antialigned within each pair.

    Each pair contributes +-r_j to the eigenvalue, so the 2^(N/2) pair-sign
    patterns tile an equally spaced ladder of range 2(1 - 2^(-N/2)).
    """
    _even(N)
    if N > 48:
        raise TooLarge("pair patterns beyond N = 48 are not explicitly representable")
    half = N // 2
    right = sorted(Fraction(1, 2 ** j) for j in range(1, half + 1))
    positions = tuple(-r for r in reversed(right)) + tuple(right)
    count = 2 ** half
    rng = 2 * (1 - Fraction(1, count))
    # pair k joins the sites at -+r_(k+1) in the sorted position tuple
    pairing = tuple((N - 1 - k, k) for k in range(half))
    return PlacementPlan(
        family="exponential", N=N,
        positions=positions,
        qubit_multiplicity=(1,) * N,
        signal_values=positions,
        f_perp_values=positions,
        pairing=pairing,
        predicted_range=rng,
        predicted_level_count=count,
        predicted_gap=rng / (count - 1) if count > 1 else Fraction(0),
        table_range=rng,
        table_level_count=count,
    )


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
    if not np.isfinite(r) or err > 1e-8 * scale:
        raise Unreachable(f"no position attains the profile value {target}")
    return r


def arbitrary_linear_placement(profile: Callable[[float], float],
                               inverse: Callable[[float], float] | None,
                               N: int, a: Number, b: Number = 0,
                               bracket: tuple[float, float] | None = None
                               ) -> PlacementPlan:
    """Place sensors so a monotone profile samples a uniform value grid.

    Targets f_j = a (j - 1/2 - N/2)/(N - 1) + b for j = 1..N (the constant b
    is removed by the uniform-noise projection). The protected spectrum is
    the linear-family ladder scaled by a: range |a| N^2/(4(N-1)), gap
    |a|/(N-1), N^2/4 + 1 distinct levels.
    """
    _even(N)
    if float(a) == 0.0:
        raise ValueError("a must be nonzero")
    exact = _exactable(a, b)
    fvals: list[Number] = []
    for j in range(1, N + 1):
        step = Fraction(2 * j - 1 - N, 2 * (N - 1))
        fvals.append((a * step + b) if exact else float(a) * float(step) + float(b))
    positions = tuple(_invert(profile, inverse, float(f), bracket) for f in fvals)
    if len(set(positions)) != N:
        raise Unreachable("profile inversion produced coincident positions")
    fperp = tuple(f - b for f in fvals) if exact else \
        tuple(float(f) - float(b) for f in fvals)
    mag = abs(a) if exact else abs(float(a))
    count = N * N // 4 + 1
    return PlacementPlan(
        family="arbitrary_linear", N=N,
        positions=positions,
        qubit_multiplicity=(1,) * N,
        signal_values=tuple(fvals),
        f_perp_values=fperp,
        pairing=None,
        predicted_range=mag * Fraction(N * N, 4 * (N - 1)) if exact
        else float(mag) * N * N / (4 * (N - 1)),
        predicted_level_count=count,
        predicted_gap=mag * Fraction(1, N - 1) if exact else float(mag) / (N - 1),
        table_range=mag * Fraction(N * N, 4 * (N - 1)) if exact
        else float(mag) * N * N / (4 * (N - 1)),
        table_level_count=N * N // 4,
    )


def arbitrary_exponential_placement(profile: Callable[[float], float],
                                    inverse: Callable[[float], float] | None,
                                    f_max: Number, f_min: Number, N: int,
                                    bracket: tuple[float, float] | None = None
                                    ) -> PlacementPlan:
    """Pair sensors so profile differences halve pair by pair.

    Pair j targets f(r_{+-j}) = (f_max + f_min +- (f_max - f_min)/2^(j-1))/2;
    antialigned pairs then contribute +-(f(r_j) - f(r_{-j}))/2, tiling an
    equally spaced ladder with range 2 a (1 - 2^(-N/2)), a = f_max - f_min.
    """
    _even(N)
    if N > 48:
        raise TooLarge("pair patterns beyond N = 48 are not explicitly representable")
    if float(f_max) <= float(f_min):
        raise ValueError("f_max must exceed f_min")
    exact = _exactable(f_max, f_min)
    if exact:
        f_max, f_min = _exact(f_max), _exact(f_min)
    a = f_max - f_min
    half = N // 2
    f_hi: list[Number] = []
    f_lo: list[Number] = []
    for j in range(1, half + 1):
        spread = a / 2 ** j if exact else float(a) / 2 ** j
        mid = (f_max + f_min) / 2 if exact else (float(f_max) + float(f_min)) / 2
        f_hi.append(mid + spread)
        f_lo.append(mid - spread)
    # site order: ascending profile value, pairs mirrored around the middle
    fvals = tuple(sorted(f_lo, key=float)) + tuple(sorted(f_hi, key=float))
    positions = tuple(_invert(profile, inverse, float(f), bracket) for f in fvals)
    if len(set(positions)) != N:
        raise Unreachable("profile inversion produced coincident positions")
    mean = (f_max + f_min) / 2 if exact else (float(f_max) + float(f_min)) / 2
    fperp = tuple(f - mean for f in fvals)
    pairing = tuple((N - 1 - k, k) for k in range(half))
    count = 2 ** half
    rng = 2 * a * (1 - Fraction(1, count)) if exact \
        else 2 * float(a) * (1 - 2.0 ** (-half))
    return PlacementPlan(
        family="arbitrary_exponential", N=N,
        positions=positions,
        qubit_multiplicity=(1,) * N,
        signal_values=fvals,
        f_perp_values=fperp,
        pairing=pairing,
        predicted_range=rng,
        predicted_level_count=count,
        predicted_gap=rng / (count - 1) if count > 1 else (Fraction(0) if exact else 0.0),
        table_range=rng,
        table_level_count=count,
    )


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

"""Spatial field profiles on sensor arrays and noise-orthogonal signal geometry.

A field is a real vector of amplitudes sampled at the sensor sites. The
noise-protected part of a signal profile is its component orthogonal to the
span of all noise profiles; configurations whose difference is orthogonal to
every noise profile keep their mutual coherence under collective dephasing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

import numpy as np

from .config import DROP_RTOL, ORTHOGONALITY_RTOL, RANK_RTOL
from .errors import NoSignalComponent, NumericFailure
from .records import record

Number = float | int | Fraction


def _exactable(*values) -> bool:
    """True when every value is an int or Fraction, so arithmetic can stay exact."""
    return all(isinstance(v, (int, Fraction)) for v in values)


def _numbers(*values) -> tuple[Fraction, ...] | tuple[float, ...]:
    """The values as Fractions when every one is exactable, else as floats,
    so one formula serves exact and float inputs."""
    kind = Fraction if _exactable(*values) else float
    return tuple(kind(v) for v in values)


def _as_vector(x) -> np.ndarray:
    """Coerce SpatialField / SpinConfig / sequence to a float vector."""
    values = getattr(x, "values", None)
    if values is None:
        values = getattr(x, "s", x)
    return np.asarray([float(v) for v in values], dtype=float)


@record
class SensorArray:
    """Sensor sites: positions r_j plus the local level count n_j per site.

    A site with n_j equally spaced levels carries spin values
    {-(n_j-1)/2, ..., +(n_j-1)/2} in unit steps, so a plain qubit (n_j = 2)
    contributes +-1/2.
    """

    positions: tuple[Number, ...]
    quanta_per_site: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) < 1:
            raise ValueError("at least one site required")
        if len(self.quanta_per_site) != len(self.positions):
            raise ValueError("quanta_per_site length must match positions")
        if any(n < 2 for n in self.quanta_per_site):
            raise ValueError("every site needs at least 2 local levels")
        floats = [float(p) for p in self.positions]
        if len(set(floats)) != len(floats):
            raise ValueError("positions must be pairwise distinct")

    @property
    def J(self) -> int:
        return len(self.positions)

    @property
    def total_configurations(self) -> int:
        out = 1
        for n in self.quanta_per_site:
            out *= n
        return out

    def site_spin_values(self, j: int) -> tuple[Fraction, ...]:
        """The exact spin ladder of site j."""
        n = self.quanta_per_site[j]
        top = Fraction(n - 1, 2)
        return tuple(-top + k for k in range(n))

    def max_spins(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n - 1, 2) for n in self.quanta_per_site)


@record
class SpatialField:
    """Field amplitudes per site. label: "signal" or "noise:<k>"."""

    values: tuple[Number, ...]
    label: str = "signal"

    def __post_init__(self):
        if len(self.values) == 0:
            raise ValueError("empty field")
        vec = self.vector
        if not np.all(np.isfinite(vec)):
            raise NumericFailure(f"non-finite amplitude in field {self.label!r}")
        if not np.any(vec != 0.0):
            raise ValueError("field must not be identically zero")

    @property
    def vector(self) -> np.ndarray:
        return _as_vector(self)

    @property
    def J(self) -> int:
        return len(self.values)


@record
class NoiseModel:
    """A set of K linearly independent noise profiles on a shared site count.

    Independence is tested once, by orthonormal_span: a profile is dependent
    when less than RANK_RTOL of its own norm lies outside the span of the
    profiles before it. The test is free of each profile's scale, and it
    rejects K > J profiles on J sites.
    """

    noise_fields: tuple[SpatialField, ...] = ()

    def __post_init__(self):
        if self.K == 0:
            return
        J = self.noise_fields[0].J
        if any(f.J != J for f in self.noise_fields):
            raise ValueError("noise profiles must share the site count")
        self.orthonormal_span()

    @property
    def K(self) -> int:
        return len(self.noise_fields)

    def orthonormal_span(self) -> np.ndarray:
        """Orthonormal basis of the noise span (K x J), by modified
        Gram-Schmidt with one re-orthogonalization pass per vector."""
        if self.K == 0:
            return np.zeros((0, 0))
        rows = []
        for f in self.noise_fields:
            v = f.vector.copy()
            for _ in range(2):  # re-orthogonalize for stability
                for q in rows:
                    v -= (q @ v) * q
            nv = np.linalg.norm(v)
            if nv <= RANK_RTOL * np.linalg.norm(f.vector):
                raise ValueError("noise profiles are linearly dependent")
            rows.append(v / nv)
        return np.vstack(rows)


def sample_field(profile: Callable[[float], float], array: SensorArray,
                 label: str = "signal") -> SpatialField:
    """Evaluate a scalar profile at every site position."""
    vals = []
    for r in array.positions:
        x = profile(float(r))
        if not np.isfinite(x):
            raise NumericFailure(f"profile not finite at position {float(r)!r}")
        vals.append(float(x))
    return SpatialField(tuple(vals), label=label)


def orthogonal_complement(signal: SpatialField, noise: NoiseModel) -> SpatialField:
    """Component of the signal profile orthogonal to every noise profile.

    Raises NoSignalComponent when the signal lies in the noise span (then no
    protected configuration can pick up any signal phase).
    """
    f0 = signal.vector
    if noise.K == 0:
        return SpatialField(tuple(float(v) for v in f0), label=signal.label)
    if noise.K >= signal.J:
        raise NoSignalComponent("noise span covers the whole site space")
    q = noise.orthonormal_span()
    v = f0 - q.T @ (q @ f0)
    v -= q.T @ (q @ v)  # second pass kills rounding residue
    if np.linalg.norm(v) < DROP_RTOL * np.linalg.norm(f0):
        raise NoSignalComponent("signal profile lies inside the noise span")
    return SpatialField(tuple(float(x) for x in v), label=signal.label)


def _orthogonal(proj, f_norm, d_norm):
    """|f . d| <= ORTHOGONALITY_RTOL |f| |d| elementwise: the one test of a
    configuration difference d against a noise field f, free of their scale."""
    return np.abs(proj) <= ORTHOGONALITY_RTOL * f_norm * d_norm


def dfs_condition(s, r, noise: NoiseModel) -> bool:
    """True iff the configuration difference is orthogonal to every noise profile.

    The coherence between two configurations survives collective dephasing
    exactly when this holds; s == r passes trivially.
    """
    ds = _as_vector(s) - _as_vector(r)
    nds = np.linalg.norm(ds)
    return all(_orthogonal(fv @ ds, np.linalg.norm(fv), nds)
               for fv in (f.vector for f in noise.noise_fields))


def effective_signal_gap(s, r, f_perp: SpatialField) -> float:
    """Signal phase rate between two configurations: f_perp . (s - r)."""
    return float(f_perp.vector @ (_as_vector(s) - _as_vector(r)))

"""Numeric tolerances, regime thresholds, and worker-count resolution.

Every tolerance used across the library lives in one frozen record so tests
and callers can tighten or relax them coherently instead of hunting for
magic numbers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

THREADS_ENV_VAR = "DFS_SENSE_THREADS"


@dataclass(frozen=True)
class Tolerances:
    # linear algebra
    rank_rtol: float = 1e-10        # singular values below rank_rtol * s_max count as zero
    orthogonality_rtol: float = 1e-12   # |f_k . v| <= rtol * |f_k| * |v| counts as orthogonal
    drop_rtol: float = 1e-12        # |f_perp| below drop_rtol * |f0| means no sensable component

    # spectra
    level_merge_rtol: float = 1e-9  # two float levels merge when closer than rtol * range
    linear_gap_rtol: float = 1e-9   # uniform-gap test for "linear" spectra

    # states and information
    norm_atol: float = 1e-12
    psd_floor: float = -1e-10       # smallest admissible density-matrix eigenvalue
    sld_floor: float = 1e-12        # eigenvalue-pair sum floor in the mixed-information sum

    # canonical phase measurement
    phase_grid_bits: int = 14       # floor: the grid has at least 2**phase_grid_bits points

    # regime classification (asymptotic "much less/greater" conditions need
    # concrete cutoffs; these thresholds are configuration, not physics)
    regime_small: float = 0.1       # t*W0*Delta below this: extremal-superposition regime
    regime_large: float = 10.0      # t*W0*Delta/L above this: over-rotated
    sine_band_lo: float = 0.5       # t*W0*Delta/(L-1) window where the sine probe is optimal
    sine_band_hi: float = 1.0

    # enumeration guards
    enumeration_guard: int = 2 ** 24

    def with_(self, **overrides) -> "Tolerances":
        return replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()


def worker_count() -> int:
    """Resolve the Monte-Carlo worker count.

    DFS_SENSE_THREADS caps the pool; unset falls back to os.cpu_count().
    """
    env = os.environ.get(THREADS_ENV_VAR, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return os.cpu_count() or 1

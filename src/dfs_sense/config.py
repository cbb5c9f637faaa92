"""Numeric thresholds, regime cut-offs, and worker-count resolution.

Each float cut-off that decides an exact condition of the schemes (rank,
orthogonality, level equality, uniform spacing, density positivity), each
regime boundary and the enumeration guard is one fixed module constant,
defined here once and read by the functions that apply it.
"""

from __future__ import annotations

import os

THREADS_ENV_VAR = "DFS_SENSE_THREADS"

# linear algebra
RANK_RTOL = 1e-10            # singular values below RANK_RTOL * s_max count as zero
ORTHOGONALITY_RTOL = 1e-12   # |f_k . v| <= rtol * |f_k| * |v| counts as orthogonal
DROP_RTOL = 1e-12            # |f_perp| below DROP_RTOL * |f0| means no sensable component

# spectra
LEVEL_MERGE_RTOL = 1e-9      # two float levels merge when closer than rtol * range
LINEAR_GAP_RTOL = 1e-9       # uniform-gap test for "linear" spectra

# states and information
NORM_ATOL = 1e-12
PSD_FLOOR = -1e-10           # smallest admissible density-matrix eigenvalue
SLD_FLOOR = 1e-12            # eigenvalue-pair sum floor in the mixed-information sum

# canonical phase measurement
PHASE_GRID_BITS = 14         # floor: the grid has at least 2**PHASE_GRID_BITS points

# regime classification (asymptotic "much less/greater" conditions need
# concrete cutoffs; these thresholds are configuration, not physics)
REGIME_SMALL = 0.1           # t*W0*Delta below this: extremal-superposition regime
REGIME_LARGE = 10.0          # t*W0*Delta/L above this: over-rotated
SINE_BAND_LO = 0.5           # t*W0*Delta/(L-1) window where the sine probe is optimal
SINE_BAND_HI = 1.0

# enumeration guards
ENUMERATION_GUARD = 2 ** 24


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

"""Numeric thresholds and regime cut-offs.

Each float cut-off that decides an exact condition of the schemes (rank,
orthogonality, level equality, uniform spacing, density positivity), each
round-off slack or floor a construction compares against, each regime
boundary, the enumeration guard and the closed-form ladder cap is one fixed
module constant, defined here once and read by the functions that apply it.
"""

from __future__ import annotations

# linear algebra
RANK_RTOL = 1e-10            # Gram-Schmidt residual below rtol * |f_k| means f_k is dependent
ORTHOGONALITY_RTOL = 1e-12   # |f_k . v| <= rtol * |f_k| * |v| counts as orthogonal:
                             # the one protection rule (DFS and damping), fields._orthogonal
DROP_RTOL = 1e-12            # |f_perp| below DROP_RTOL * |f0| means no sensable component

# spectra
LEVEL_MERGE_RTOL = 1e-9      # two float levels merge when closer than rtol * range
LINEAR_GAP_RTOL = 1e-9       # uniform-gap test for "linear" spectra

# states and information
NORM_ATOL = 1e-12
HERMITIAN_RTOL = 1e-12       # |rho - rho^dagger| above rtol * max(1, |rho|) is not Hermitian
PSD_FLOOR = -1e-10           # smallest admissible density-matrix eigenvalue
SLD_FLOOR = 1e-12            # eigenvalue-pair sum floor in the mixed-information sum

# canonical phase measurement
PHASE_GRID_BITS = 14         # floor: the grid has at least 2**PHASE_GRID_BITS points
SAMPLER_NORM_ATOL = 1e-6     # largest admissible |grid mass - 1| of the phase density
POSTERIOR_FLOOR_RTOL = 1e-12  # posterior denominator must exceed rtol * sum|a_d|

# placement and field profiles
PROFILE_INVERSE_RTOL = 1e-8  # an inverted profile misses by at most rtol * max(1, |target|)
SOURCE_CLEARANCE_ATOL = 1e-12  # a power-law source closer than this to a site coincides with it

# protocols
TIME_SLACK = 1e-12           # relative slack of T against whole interrogations t1

# regime classification (asymptotic "much less/greater" conditions need
# concrete cutoffs; these thresholds are configuration, not physics)
REGIME_SMALL = 0.1           # t*W0*Delta below this: extremal-superposition regime
REGIME_LARGE = 10.0          # t*W0*Delta/L above this: over-rotated
SINE_BAND_LO = 0.5           # t*W0*Delta/(L-1) window where the sine probe is optimal
SINE_BAND_HI = 1.0

# enumeration guards
ENUMERATION_GUARD = 2 ** 24
PREDICTED_LEVEL_CAP = 2 ** 16  # longest closed-form ladder PlacementPlan.predicted_levels lists

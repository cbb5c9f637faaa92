"""Decoherence-free probe construction and Bayesian precision analysis
for distributed sensing of a scalar field.

Workflow: describe the sensor array and the spatial signal/noise profiles
(fields), extract the noise-orthogonal signal component, pick protected
spin configurations (control, placement), form an effective level ladder,
then evaluate probes and protocols on it (bayes, protocols) with optional
Monte-Carlo verification (montecarlo). The scenario module ties the steps
together behind a JSON schema, and cli exposes them as subcommands.
"""

from .bayes import (AveragedState, CanonicalSampler, FlatPrior, GaussianPrior,
                    ProbeState, analytic_sharpness, averaged_state,
                    berry_wiseman_probe, canonical_phase_density,
                    empirical_holevo, evolve, ghz_probe, holevo_variance,
                    qfi_mixed, qfi_pure, uniform_probe, variance_reduction,
                    wrap_pi)
from .control import (EffectiveSpectrum, FlipSchedule, SpinConfig,
                      enumerate_dfs_configs, equalize_multidim,
                      flip_schedule_for, protected_spectrum,
                      sign_matched_anchor)
from .errors import (Degenerate, DfsSenseError, InsufficientTime,
                     InvalidState, NoSignalComponent, NotLinear,
                     NumericFailure, ScenarioError, TooLarge, Unreachable)
from .fields import (NoiseModel, SensorArray, SpatialField, dfs_condition,
                     effective_signal_gap, orthogonal_complement,
                     sample_field)
from .montecarlo import (DephaseCheck, DephasingChannel, EstimationSummary,
                         dephase_coherence, mc_dephase_check,
                         run_estimation_trials, simulate_adaptive,
                         simulate_fixed_time)
from .placement import (FAMILIES, PlacementPlan, arbitrary_exponential_placement,
                        arbitrary_linear_placement, exponential_placement,
                        linear_placement, table_rows, two_point_placement)
from .protocols import (Prediction, ProtocolReport, adaptive_schedule,
                        base_time, classify_regime, fixed_time_single_shot,
                        ghz_reduction, repeat_protocol, single_shot_flat)
from .scenario import (BuiltScenario, Scenario, build_scenario,
                       load_scenario, parse_scenario, run_scenario)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

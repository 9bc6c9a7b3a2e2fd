"""Damped two-mode condensate model with power-law nonlinearity.

Stationary states, bifurcation structure, and hysteresis under slow
coupling ramps, with a CLI front end (`dimer-hysteresis`).
"""

from .bifurcation import (R_THRESHOLD, BifurcationDiagram, Branch,
                          FixedPoint, asymmetric_states_below_star,
                          classify_pitchfork, classify_stability,
                          find_eta_plus, find_eta_star, find_fixed_points,
                          find_r_threshold, jacobian_at,
                          pitchfork_cubic_coefficient, stationary_residual,
                          trace_branches)
from .dynamics import IntegratorConfig, integrate, vector_field
from .errors import (ConfigError, DomainError, FloatFloorError,
                     GridCoverageError, NoConvergenceError, SingularityError,
                     StepFailureError, ThresholdProximityError)
from .hysteresis import (AREA_THRESHOLD, Z_GAP_THRESHOLD, HysteresisReport,
                         predict_window, run_sweep, sweep_report)
from .model import (SCHEDULE_KINDS, EtaSchedule, IntegrationStats,
                    ModelParams, PhaseState, PhysicalContext, Sample,
                    Trajectory, amplitudes_from_state, effective_eta,
                    energy_functional, eval_schedule, grad_hamiltonian,
                    hamiltonian, hamiltonian_column, power_difference,
                    schedule_column, wrap_angle)
from .serialize import (diagram_to_csv, diagram_to_json, report_to_json,
                        threshold_to_json, trajectory_from_csv,
                        trajectory_to_csv)

__version__ = "0.1.0"

__all__ = [
    "AREA_THRESHOLD", "BifurcationDiagram", "Branch", "ConfigError",
    "DomainError", "EtaSchedule", "FixedPoint", "FloatFloorError",
    "GridCoverageError",
    "HysteresisReport", "IntegrationStats", "IntegratorConfig",
    "ModelParams", "NoConvergenceError", "PhaseState", "PhysicalContext",
    "R_THRESHOLD", "SCHEDULE_KINDS", "Sample", "SingularityError",
    "StepFailureError", "ThresholdProximityError", "Trajectory",
    "Z_GAP_THRESHOLD", "amplitudes_from_state",
    "asymmetric_states_below_star", "classify_pitchfork",
    "classify_stability", "diagram_to_csv", "diagram_to_json",
    "effective_eta", "energy_functional", "eval_schedule", "find_eta_plus",
    "find_eta_star", "find_fixed_points",
    "find_r_threshold", "grad_hamiltonian", "hamiltonian",
    "hamiltonian_column", "integrate",
    "jacobian_at", "pitchfork_cubic_coefficient", "power_difference",
    "predict_window", "report_to_json", "run_sweep", "schedule_column",
    "stationary_residual", "sweep_report", "threshold_to_json",
    "trace_branches", "trajectory_from_csv", "trajectory_to_csv",
    "vector_field", "wrap_angle",
]

"""Kinematics and motion planning for a stiffness-switching wheeled agent.

Two omnidirectional wheel units joined by a two-segment fibre whose
segments can be melted soft or frozen rigid.  The package models the
constant-curvature geometry, the wheel-to-configuration kinematics in both
regimes, a log-spiral deformation rate model, a greedy stiffness-switching
planner, the segment thermal loops and deterministic CSV/SVG outputs.
numpy is imported inside the functions that build arrays (the spiral
sweep and refit, the batch's random draws and the gate helpers), so
planning, playing back and writing one scenario never load it.
"""

__version__ = "0.1.0"

from .errors import (ContractError, DomainError, FitError, ScenarioError,
                     SingularityError, SoftrigError, StallError,
                     ThermalTimeoutError)
from .geometry import (BETA, STIFFNESS_STATES, AgentConfig, GeometryParams,
                       StiffnessState, apply_pose, cc_transform, wrap_angle)
from .jacobian import active_columns, delta_coeff, shared_terms
from .planner import (PlannerParams, PlanResult, PlanStep, config_error,
                      damped_speeds, plan_motion, weighted_distance)
from .scenario import (Scenario, example_scenario_dict, load_scenario,
                       sample_scenario, scenario_from_dict)
from .simulator import SimRow, Trajectory, fk_step_detailed, rollout
from .spiral import (SPIRALS, SpiralFit, SpiralModel, rate_coeffs,
                     refit_oracle, spiral_model, sweep_curve,
                     theta_from_kappa)
from .thermal import (ThermalParams, initial_state, loop_step, setpoint_for,
                      target_phase, transition_time)
from .wheelmodel import (WheelSpeeds, body_twist_from_wheels, config_matrix,
                         wheel_rows, wheel_speeds)

"""Kinematics and motion planning for a stiffness-switching wheeled agent.

Two omnidirectional wheel units joined by a two-segment fibre whose
segments can be melted soft or frozen rigid.  The package models the
constant-curvature geometry, the wheel-to-configuration kinematics in both
regimes, a log-spiral deformation rate model, a greedy stiffness-switching
planner, the segment thermal loops and deterministic CSV/SVG outputs.
numpy is imported inside the functions that build arrays (the spiral
sweep and refit, and the batch's random draws), so planning, playing
back and writing one scenario never load it.
"""

__version__ = "0.1.0"

from .errors import (ContractError, DomainError, FitError, ScenarioError,
                     SoftrigError, StallError, ThermalTimeoutError)
from .geometry import (BETA, STIFFNESS_STATES, AgentConfig, GeometryParams,
                       StiffnessState, apply_pose, cc_transform, wrap_angle)
from .jacobian import active_columns, delta_coeff
from .planner import (PlannerParams, PlanResult, PlanStep, config_error,
                      damped_speeds, plan_motion, weighted_distance)
from .scenario import (Scenario, load_scenario, sample_scenario,
                       scenario_from_dict)
from .simulator import SimRow, Trajectory, fk_step_detailed, rollout
from .spiral import (SPIRALS, SpiralFit, SpiralModel, rate_coeffs,
                     refit_oracle, spiral_model, sweep_curve)
from .thermal import (ThermalParams, check_step, initial_state, loop_step,
                      setpoint_for, target_phase)
from .wheelmodel import WheelSpeeds, wheel_rows, wheel_speeds

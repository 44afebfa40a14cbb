"""First-order thermal model of the variable-stiffness segments.

Each segment carries a heater driven by a PI duty cycle and a low-melting
alloy core: above the melt threshold the segment is soft, below the
solidify threshold rigid, with hysteresis in between.  The plant is a
single thermal pole,

    T_dot = (-(T - T_ambient) + gain * u) / tau

with u in [0, u_max].  The integrator only runs while the duty output is
unclamped and is kept non-negative, so the loop heats from ambient to the
soft setpoint without winding past the sensor ceiling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ContractError, ThermalTimeoutError

PHASE_SOFT = "soft"
PHASE_RIGID = "rigid"
_TRANSITION_DT = 0.01         # s, integration step of transition_time
_TRANSITION_LIMIT = 120.0     # s, transition_time gives up past this


@dataclass(frozen=True)
class ThermalParams:
    tau: float = 8.0              # s, thermal time constant
    gain: float = 80.0            # K per unit duty at steady state
    t_ambient: float = 25.0      # deg C
    kp: float = 0.08
    ki: float = 0.01
    u_max: float = 1.0
    setpoint_soft: float = 65.0
    setpoint_rigid: float = 25.0
    t_melt: float = 62.0          # phase goes soft at or above
    t_solid: float = 55.0         # phase goes rigid at or below
    sensor_t_hi: float = 85.0     # deg C, ceiling of the sensor range

    def __post_init__(self):
        if self.tau <= 0 or self.gain <= 0:
            raise ContractError("thermal tau and gain must be positive")
        if self.u_max <= 0 or self.kp < 0 or self.ki < 0:
            raise ContractError("duty limit must be positive, PI gains >= 0")
        if not self.t_solid < self.t_melt:
            raise ContractError("solidify threshold must sit below melt")


class ThermalState(NamedTuple):
    """One segment loop's state; immutable, and a named tuple because
    playback builds two per row."""

    temperature: float
    setpoint: float
    integral: float = 0.0
    phase: str = PHASE_RIGID


def initial_state(params: ThermalParams) -> ThermalState:
    """Segment at ambient, rigid, holding the rigid setpoint."""
    return ThermalState(temperature=params.t_ambient,
                        setpoint=params.setpoint_rigid)


def command(state: ThermalState, soft: bool, params: ThermalParams) -> ThermalState:
    """Retarget the loop for the requested stiffness."""
    target = params.setpoint_soft if soft else params.setpoint_rigid
    return ThermalState(state.temperature, target, state.integral, state.phase)


def _pi_law(state: ThermalState,
            params: ThermalParams) -> tuple[float, float, float]:
    """(setpoint error, unclamped PI output, duty clamped to [0, u_max])."""
    err = state.setpoint - state.temperature
    raw = params.kp * err + params.ki * state.integral
    return err, raw, min(max(raw, 0.0), params.u_max)


def duty(state: ThermalState, params: ThermalParams) -> float:
    """Clamped PI heater duty for the current state."""
    return _pi_law(state, params)[2]


def _phase_after(temperature: float, previous: str, params: ThermalParams) -> str:
    if temperature >= params.t_melt:
        return PHASE_SOFT
    if temperature <= params.t_solid:
        return PHASE_RIGID
    return previous


def thermal_step(state: ThermalState, params: ThermalParams,
                 dt: float) -> tuple[ThermalState, float]:
    """Advance the loop by dt; returns (new state, applied duty)."""
    if dt <= 0:
        raise ContractError(f"thermal step dt must be positive, got {dt}")
    err, raw, u = _pi_law(state, params)
    integral = state.integral
    if raw == u:
        # conditional integration: hold the integrator while clamped
        integral = min(max(integral + err * dt, 0.0), params.u_max / params.ki
                       if params.ki > 0 else 0.0)
    temp = state.temperature + dt * (
        -(state.temperature - params.t_ambient) + params.gain * u) / params.tau
    return ThermalState(temp, state.setpoint, integral,
                        _phase_after(temp, state.phase, params)), u


def is_ready(state: ThermalState, soft: bool) -> bool:
    """True when the alloy phase matches the requested stiffness."""
    return state.phase == (PHASE_SOFT if soft else PHASE_RIGID)


def transition_time(params: ThermalParams, to_soft: bool) -> float:
    """Simulated time for a settled segment to switch phase.

    Starts from the steady state of the opposite command (ambient for
    rigid, the soft equilibrium for soft) and integrates until the phase
    flips in steps of _TRANSITION_DT.  Raises ThermalTimeoutError past
    _TRANSITION_LIMIT.
    """
    dt = _TRANSITION_DT
    if to_soft:
        state = command(initial_state(params), soft=True, params=params)
    else:
        state = _settled_soft_state(params, dt)
        state = command(state, soft=False, params=params)
    t = 0.0
    while not is_ready(state, to_soft):
        if t >= _TRANSITION_LIMIT:
            raise ThermalTimeoutError(
                f"no phase change after {_TRANSITION_LIMIT:g} s",
                temperatures=(state.temperature,), elapsed=t)
        state, _ = thermal_step(state, params, dt)
        t += dt
    return t


def _settled_soft_state(params: ThermalParams, dt: float) -> ThermalState:
    state = command(initial_state(params), soft=True, params=params)
    for _ in range(int(round(60.0 / dt))):
        state, _ = thermal_step(state, params, dt)
    if state.phase != PHASE_SOFT:
        raise ThermalTimeoutError(
            "segment never reached the soft phase while settling",
            temperatures=(state.temperature,), elapsed=60.0)
    return state

"""First-order thermal model of the variable-stiffness segments.

Each segment carries a heater driven by a PI duty cycle and a low-melting
alloy core: above the melt threshold the segment is soft, below the
solidify threshold rigid, with hysteresis in between.  The plant is a
single thermal pole,

    T_dot = (-(T - T_ambient) + gain * u) / tau

with u in [0, u_max].  The integral term only accumulates while the duty
output is unclamped and is kept non-negative, so the loop heats from
ambient to the soft setpoint without winding past the sensor ceiling.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError, ThermalTimeoutError

PHASE_SOFT = "soft"
PHASE_RIGID = "rigid"
_TRANSITION_DT = 0.01         # s, integration step of transition_time
_TRANSITION_LIMIT = 120.0     # s, transition_time gives up past this
_SOFT_SETTLE = 60.0           # s, soft hold before the cooling transition


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


def setpoint_for(soft: bool, params: ThermalParams) -> float:
    """The setpoint the loop holds for the requested stiffness."""
    return params.setpoint_soft if soft else params.setpoint_rigid


def initial_state(params: ThermalParams) -> tuple[float, float, float, str]:
    """Segment at ambient, rigid, holding the rigid setpoint, as loop_step's
    first four arguments (temperature, setpoint, integral, phase)."""
    return params.t_ambient, setpoint_for(False, params), 0.0, PHASE_RIGID


def loop_step(temperature: float, setpoint: float, integral: float,
              phase: str, params: ThermalParams,
              dt: float) -> tuple[float, float, str, float]:
    """The loop's one home on plain floats: PI law, plant and phase rule.

    Advances one segment by dt and returns (temperature, integral, phase)
    after the step plus the duty applied during it; the duty does not
    depend on dt, so dt = 0.0 reads it.  dt is not checked here: playback
    steps at the plan's validated dt, transition_time at _TRANSITION_DT.
    """
    err = setpoint - temperature
    raw = params.kp * err + params.ki * integral
    # each clamp is min(max(value, 0.0), limit) for a limit >= 0, without
    # the builtin calls
    u_max = params.u_max
    u = 0.0 if raw < 0.0 else u_max if u_max < raw else raw
    if raw == u:
        # conditional integration: hold the integral term while clamped
        cap = u_max / params.ki if params.ki > 0 else 0.0
        summed = integral + err * dt
        integral = 0.0 if summed < 0.0 else cap if cap < summed else summed
    temp = temperature + dt * (
        -(temperature - params.t_ambient) + params.gain * u) / params.tau
    if temp >= params.t_melt:
        phase = PHASE_SOFT
    elif temp <= params.t_solid:
        phase = PHASE_RIGID
    return temp, integral, phase, u


def target_phase(soft: bool) -> str:
    """The alloy phase a segment commanded to this stiffness must reach."""
    return PHASE_SOFT if soft else PHASE_RIGID


def transition_time(params: ThermalParams, to_soft: bool) -> float:
    """Simulated time for a settled segment to switch phase.

    Starts from the steady state of the opposite command (ambient for
    rigid, the soft hold after _SOFT_SETTLE for soft) and integrates until
    the phase flips in steps of _TRANSITION_DT.  Raises ThermalTimeoutError
    when the soft hold has not melted the segment, or past
    _TRANSITION_LIMIT.
    """
    dt = _TRANSITION_DT
    temp, _, integral, phase = initial_state(params)
    if not to_soft:
        soft_set = setpoint_for(True, params)
        for _ in range(int(round(_SOFT_SETTLE / dt))):
            temp, integral, phase, _ = loop_step(temp, soft_set, integral,
                                                 phase, params, dt)
        if phase != PHASE_SOFT:
            raise ThermalTimeoutError(
                "segment never reached the soft phase while settling",
                temperatures=(temp,), elapsed=_SOFT_SETTLE)
    setpoint = setpoint_for(to_soft, params)
    t = 0.0
    while phase != target_phase(to_soft):
        if t >= _TRANSITION_LIMIT:
            raise ThermalTimeoutError(
                f"no phase change after {_TRANSITION_LIMIT:g} s",
                temperatures=(temp,), elapsed=t)
        temp, integral, phase, _ = loop_step(temp, setpoint, integral, phase,
                                             params, dt)
        t += dt
    return t

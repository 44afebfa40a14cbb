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

from .errors import ContractError

PHASE_SOFT = "soft"
PHASE_RIGID = "rigid"


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
        if not self.setpoint_soft < self.sensor_t_hi:
            raise ContractError("soft setpoint must sit below the sensor "
                                f"ceiling {self.sensor_t_hi:g} deg C")
        # a setpoint on the wrong side of its phase threshold holds the
        # loop where the phase it commands never comes
        if not self.setpoint_soft > self.t_melt:
            raise ContractError("soft setpoint must sit above the melt "
                                f"threshold {self.t_melt:g} deg C")
        if not self.setpoint_rigid <= self.t_solid:
            raise ContractError("rigid setpoint must sit at or below the "
                                f"solidify threshold {self.t_solid:g} deg C")


def check_step(params: ThermalParams, dt: float) -> None:
    """Reject a tau whose explicit-Euler step in ``loop_step`` can carry a
    segment past the sensor ceiling at the step dt.

    One step maps T to (1 - a) T + a (t_ambient + gain u), a = dt / tau.
    The integral term adds at most u_max to the duty (its anti-windup cap),
    so below the soft setpoint sp, the higher one, the duty can be u_max,
    and above sp it falls by kp per degree.  For a < 1 the step's worst
    case below the ceiling is then T = sp at full duty, which lands at
    sp + a (t_ambient + gain u_max - sp).  That stays below sensor_t_hi
    when tau > dt (t_ambient + gain u_max - sp) / (sensor_t_hi - sp), and
    a < 1 asks tau > dt.  (Past sp the bound also needs the duty at the
    ceiling too weak to hold it there, which the gains decide, not tau.)
    """
    sp = params.setpoint_soft
    rise = params.t_ambient + params.gain * params.u_max - sp
    bound = dt * max(1.0, rise / (params.sensor_t_hi - sp))
    if params.tau <= bound:
        raise ContractError(
            f"thermal.tau = {params.tau:g} s must exceed {bound:g} s at "
            f"planner.dt = {dt:g} s: a shorter one lets the heating step "
            f"pass the sensor ceiling {params.sensor_t_hi:g} deg C")


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
    steps at the plan's validated dt, against which ``check_step`` checks
    tau once per playback.
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

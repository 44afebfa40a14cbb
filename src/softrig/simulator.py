"""Forward kinematics stepping and plan playback.

``fk_step_detailed`` advances the configuration by one explicit Euler step
under the regime-gated Jacobian; the planner integrates every step with
it.  ``rollout`` replays the configurations the planner already integrated
with the segment thermal loops in the loop: at every stiffness change the
motion pauses (drive speeds zero) until both segments report the
commanded phase, unless gating is disabled.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import TYPE_CHECKING, NamedTuple

from . import thermal as th
from .errors import ContractError, ThermalTimeoutError
from .geometry import AgentConfig, GeometryParams, StiffnessState
from .jacobian import Columns, active_columns

if TYPE_CHECKING:
    from .planner import PlanResult

_SAT_TOL = 1e-12


def fk_step_detailed(q: AgentConfig, s: StiffnessState, speeds,
                     dt: float, geom: GeometryParams,
                     cols: Columns | None = None
                     ) -> tuple[AgentConfig, bool]:
    """One explicit Euler step; returns (new config, curvature saturated).

    The step is straight-line float arithmetic over the Jacobian's active
    columns at q, the two unit-speed or the three body-twist ones:
    ``cols`` when the caller already built them with ``active_columns``.
    The planner steps every candidate with it.  Curvatures are clamped to
    ``s.kappa_bound(geom)`` after the step; the flag reports whether the
    clamp engaged.
    """
    if dt <= 0:
        raise ContractError(f"step dt must be positive, got {dt}")
    if len(speeds) != 5:
        raise ContractError(
            f"speed vector must have 5 entries, got {len(speeds)}")
    bound = s.kappa_bound(geom)
    if cols is None:
        cols = active_columns(q, s, geom)
    # each rate is the sum J u accumulated from +0.0, column by column, so
    # a rate that is exactly zero is +0.0 and a -0.0 coordinate leaves the
    # step as 0.0
    if s.any_soft:
        (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4) = cols
        u, v = float(speeds[0]), float(speeds[1])
        values = (q.x + dt * (0.0 + a0 * u + b0 * v),
                  q.y + dt * (0.0 + a1 * u + b1 * v),
                  q.phi + dt * (0.0 + a2 * u + b2 * v),
                  q.kappa1 + dt * (0.0 + a3 * u + b3 * v),
                  q.kappa2 + dt * (0.0 + a4 * u + b4 * v))
    else:
        ((a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4),
         (c0, c1, c2, c3, c4)) = cols
        u, v, w = float(speeds[2]), float(speeds[3]), float(speeds[4])
        values = (q.x + dt * (0.0 + a0 * u + b0 * v + c0 * w),
                  q.y + dt * (0.0 + a1 * u + b1 * v + c1 * w),
                  q.phi + dt * (0.0 + a2 * u + b2 * v + c2 * w),
                  q.kappa1 + dt * (0.0 + a3 * u + b3 * v + c3 * w),
                  q.kappa2 + dt * (0.0 + a4 * u + b4 * v + c4 * w))
    x, y, phi, kappa1, kappa2 = values
    # min(max(kappa, -bound), bound) for the positive bound, without the
    # four builtin calls
    clipped = AgentConfig(
        x, y, phi,
        -bound if kappa1 < -bound else bound if bound < kappa1 else kappa1,
        -bound if kappa2 < -bound else bound if bound < kappa2 else kappa2)
    return clipped, max(abs(kappa1), abs(kappa2)) > bound + _SAT_TOL


class SimRow(NamedTuple):
    """One playback row.  Immutable; a named tuple because one is built per
    playback step and costs a fraction of a frozen dataclass."""

    t: float
    config: AgentConfig
    stiffness: StiffnessState
    speeds: tuple[float, ...]       # (v1, v2, u0, v0, r0)
    temp1: float
    duty1: float
    phase1: str
    temp2: float
    duty2: float
    phase2: str
    paused: bool
    saturated: bool


@dataclass
class Trajectory:
    rows: list[SimRow]

    @property
    def final_config(self) -> AgentConfig:
        return self.rows[-1].config

    def pause_blocks(self) -> list[tuple[int, int]]:
        """Contiguous paused spans as (first row index, row count)."""
        blocks = []
        start = 0
        for paused, run in groupby(self.rows, key=lambda row: row.paused):
            count = sum(1 for _ in run)
            if paused:
                blocks.append((start, count))
            start += count
        return blocks


def rollout(plan: PlanResult,
            thermal_params: th.ThermalParams | None = None,
            thermal_gating: bool = True,
            max_wait: float = 60.0) -> Trajectory:
    """Replay a plan; returns the full row-per-step trajectory.

    Motion rows carry the plan's own configurations, speeds and saturation
    flags at the plan's dt, so the replay matches the plan exactly.  With
    gating on, motion holds (speeds zero) after each stiffness change until
    both segments reach the commanded phase; longer than max_wait raises
    ThermalTimeoutError.
    """
    params = thermal_params if thermal_params is not None else th.ThermalParams()
    dt = float(plan.params.dt)
    # each segment's loop as plain floats (temperature, setpoint, integral,
    # phase), advanced by th.loop_step
    temp1, set1, int1, phase1 = th.initial_state(params)
    temp2, set2, int2, phase2 = th.initial_state(params)
    loop_step = th.loop_step
    t = 0.0
    rows: list[SimRow] = []
    prev_cmd: StiffnessState | None = None
    zero = (0.0,) * 5
    for step in plan.steps:
        q, cmd = step.config, step.stiffness
        if cmd != prev_cmd:
            set1 = th.setpoint_for(cmd.soft1, params)
            set2 = th.setpoint_for(cmd.soft2, params)
            want1 = th.target_phase(cmd.soft1)
            want2 = th.target_phase(cmd.soft2)
            prev_cmd = cmd
        waited = 0.0
        while True:
            # a row at time t, then both plants advance by dt; with gating
            # on, rows pause until both segments reach the commanded phase
            paused = ((phase1 != want1 or phase2 != want2)
                      if thermal_gating else False)
            if paused and waited >= max_wait:
                raise ThermalTimeoutError(
                    f"segments stuck at {temp1:.1f} / "
                    f"{temp2:.1f} deg C after {waited:g} s",
                    temperatures=(temp1, temp2), elapsed=waited)
            next1, int1, next_phase1, u1 = loop_step(temp1, set1, int1,
                                                     phase1, params, dt)
            next2, int2, next_phase2, u2 = loop_step(temp2, set2, int2,
                                                     phase2, params, dt)
            rows.append(SimRow(t, q, cmd, zero if paused else step.speeds,
                               temp1, u1, phase1, temp2, u2, phase2, paused,
                               False if paused else step.saturated))
            temp1, phase1, temp2, phase2 = next1, next_phase1, next2, next_phase2
            t += dt
            if not paused:
                break
            waited += dt
    last_cmd = prev_cmd if prev_cmd is not None else StiffnessState(False, False)
    duty1 = loop_step(temp1, set1, int1, phase1, params, 0.0)[3]
    duty2 = loop_step(temp2, set2, int2, phase2, params, 0.0)[3]
    rows.append(SimRow(t, plan.final_config, last_cmd, zero,
                       temp1, duty1, phase1, temp2, duty2, phase2,
                       False, False))
    return Trajectory(rows)

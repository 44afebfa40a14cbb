"""Wheel-speed maps for the agent's four omniwheels.

A single 4x5 configuration matrix V maps the velocity input
ups = (v1, v2, u0, v0, r0) to wheel angular rates omega = V @ ups:

  - v1, v2   tangential speeds of the two units while the fibre deforms
             (soft regime, at least one segment molten)
  - u0, v0   body-frame linear velocity of the middle link (rigid regime)
  - r0       body angular rate (rigid regime)

The two input groups are exclusive: when any segment is soft only the first
two columns are active, otherwise only the last three.  Wheel headings enter
body-relative; the world heading of the body drops out of the wheel map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SingularityError
from .geometry import AgentConfig, GeometryParams, StiffnessState, wheel_poses_body

# wheel rate magnitude treated as the drive limit (rad/s)
OMEGA_MAX_DEFAULT = 4.0 * math.pi

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class WheelSpeeds:
    """Angular rates of wheels 1..4 plus a drive-limit flag."""

    omega: np.ndarray
    saturated: bool = False


def soft_block(geom: GeometryParams) -> np.ndarray:
    """Columns of V active while the fibre deforms, (4, 2).

    Wheel 1 drives the unit at {b1} with omega1 = v1 / wheel_radius; wheel 3
    drives the unit at {b2} mounted mirrored, omega3 = -v2 / wheel_radius.
    The lateral wheels idle.
    """
    m = np.zeros((4, 2))
    m[0, 0] = 1.0
    m[2, 1] = -1.0
    return m / geom.wheel_radius


def rigid_block(q: AgentConfig, geom: GeometryParams) -> np.ndarray:
    """Columns of V active for rigid-body rolling, (4, 3).

    Row i is (cos psi_i, sin psi_i, x_i sin psi_i - y_i cos psi_i) scaled by
    1 / wheel_radius, with wheel poses in the body frame.
    """
    positions, headings = wheel_poses_body(q.kappa1, q.kappa2, geom)
    rows = np.empty((4, 3))
    for i in range(4):
        c, s = math.cos(headings[i]), math.sin(headings[i])
        x, y = positions[i]
        rows[i] = (c, s, x * s - y * c)
    return rows / geom.wheel_radius


def config_matrix(q: AgentConfig, s: StiffnessState, geom: GeometryParams) -> np.ndarray:
    """Unified wheel configuration matrix V, (4, 5), gated by stiffness."""
    v = np.zeros((4, 5))
    v[:, s.inputs] = soft_block(geom) if s.any_soft else rigid_block(q, geom)
    return v


def wheel_speeds(q: AgentConfig, s: StiffnessState, ups,
                 geom: GeometryParams) -> WheelSpeeds:
    """Wheel rates for a velocity input, uniformly rescaled at the drive limit.

    The input must respect regime exclusivity.  If any |omega| exceeds
    OMEGA_MAX_DEFAULT the whole vector is scaled down so the demanded motion
    direction is preserved, and the result is flagged.
    """
    ups = np.asarray(ups, dtype=float)
    if ups.shape != (5,):
        raise ContractError(f"velocity input must have 5 entries, got {ups.shape}")
    idle = np.delete(ups, s.inputs)
    if np.any(idle != 0.0):
        raise ContractError(
            f"stiffness {s.label()} drives only entries {s.inputs} of "
            f"(v1, v2, u0, v0, r0); the others must be zero, got {ups}")
    omega = config_matrix(q, s, geom) @ ups
    peak = np.max(np.abs(omega))
    if peak > OMEGA_MAX_DEFAULT:
        return WheelSpeeds(omega * (OMEGA_MAX_DEFAULT / peak), saturated=True)
    return WheelSpeeds(omega, saturated=False)


def body_twist_from_wheels(q: AgentConfig, s: StiffnessState, omega,
                           geom: GeometryParams) -> np.ndarray:
    """Least-squares velocity input recovered from wheel rates.

    Inverts only the active block of V with the Moore-Penrose pseudoinverse
    and pads the inactive entries with zeros.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4,):
        raise ContractError(f"wheel rates must have 4 entries, got {omega.shape}")
    block = config_matrix(q, s, geom)[:, s.inputs]
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[-1] / sv[0] < _RANK_TOL:
        regime = "soft" if s.any_soft else "rigid"
        raise SingularityError(
            f"{regime} wheel block is rank deficient at kappa="
            f"({q.kappa1:.4g}, {q.kappa2:.4g})")
    ups = np.zeros(5)
    ups[s.inputs] = np.linalg.pinv(block) @ omega
    return ups

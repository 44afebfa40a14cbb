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
from typing import TYPE_CHECKING

from .errors import ContractError, SingularityError
from .geometry import (AgentConfig, GeometryParams, StiffnessState,
                       cc_transform, wheel_layout)

if TYPE_CHECKING:
    import numpy as np

# wheel rate magnitude treated as the drive limit (rad/s)
OMEGA_MAX_DEFAULT = 4.0 * math.pi

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class WheelSpeeds:
    """Angular rates of wheels 1..4 plus a drive-limit flag."""

    omega: tuple[float, float, float, float]
    saturated: bool = False


def wheel_rows(q: AgentConfig, s: StiffnessState,
               geom: GeometryParams) -> tuple[tuple[float, ...], ...]:
    """Active block of V: one float row per wheel over the inputs ``s.inputs``.

    The one place the wheel-rate rule is built; ``config_matrix`` and the
    pseudoinverse below are filled from it.  Soft: wheel 1 drives the unit
    at {b1} with omega1 = v1 / wheel_radius, wheel 3 drives the unit at
    {b2} mounted mirrored, omega3 = -v2 / wheel_radius, and the lateral
    wheels idle.  Rigid: row i is (cos psi_i, sin psi_i,
    x_i sin psi_i - y_i cos psi_i) / wheel_radius, with the wheel poses of
    ``wheel_layout`` in the body frame.
    """
    r = geom.wheel_radius
    if s.any_soft:
        return (1.0 / r, 0.0), (0.0, 0.0), (0.0, -1.0 / r), (0.0, 0.0)
    positions, headings = wheel_layout(cc_transform(q.kappa1, 1, geom),
                                       cc_transform(q.kappa2, 2, geom), geom)
    rows = []
    for (x, y), psi in zip(positions, headings):
        c, sn = math.cos(psi), math.sin(psi)
        rows.append((c / r, sn / r, (x * sn - y * c) / r))
    return tuple(rows)


def config_matrix(q: AgentConfig, s: StiffnessState, geom: GeometryParams) -> np.ndarray:
    """Unified wheel configuration matrix V, (4, 5), gated by stiffness."""
    import numpy as np
    v = np.zeros((4, 5))
    v[:, s.inputs] = wheel_rows(q, s, geom)
    return v


def wheel_speeds(q: AgentConfig, s: StiffnessState, ups,
                 geom: GeometryParams) -> WheelSpeeds:
    """Wheel rates for a velocity input, uniformly rescaled at the drive limit.

    The input must respect regime exclusivity.  If any |omega| exceeds
    OMEGA_MAX_DEFAULT the whole vector is scaled down so the demanded motion
    direction is preserved, and the result is flagged.
    """
    ups = tuple(map(float, ups))
    if len(ups) != 5:
        raise ContractError(f"velocity input must have 5 entries, got {len(ups)}")
    if any(u != 0.0 for j, u in enumerate(ups) if j not in s.inputs):
        raise ContractError(
            f"stiffness {s.label()} drives only entries {s.inputs} of "
            f"(v1, v2, u0, v0, r0); the others must be zero, got {ups}")
    active = [ups[j] for j in s.inputs]
    omega = [sum(m * u for m, u in zip(row, active))
             for row in wheel_rows(q, s, geom)]
    peak = max(map(abs, omega))
    if peak > OMEGA_MAX_DEFAULT:
        scale = OMEGA_MAX_DEFAULT / peak
        return WheelSpeeds(tuple(w * scale for w in omega), saturated=True)
    return WheelSpeeds(tuple(omega), saturated=False)


def body_twist_from_wheels(q: AgentConfig, s: StiffnessState, omega,
                           geom: GeometryParams) -> np.ndarray:
    """Least-squares velocity input recovered from wheel rates.

    Inverts only the active block of V with the Moore-Penrose pseudoinverse
    and pads the inactive entries with zeros.
    """
    import numpy as np
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4,):
        raise ContractError(f"wheel rates must have 4 entries, got {omega.shape}")
    block = np.array(wheel_rows(q, s, geom))
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[-1] / sv[0] < _RANK_TOL:
        regime = "soft" if s.any_soft else "rigid"
        raise SingularityError(
            f"{regime} wheel block is rank deficient at kappa="
            f"({q.kappa1:.4g}, {q.kappa2:.4g})")
    ups = np.zeros(5)
    ups[s.inputs] = np.linalg.pinv(block) @ omega
    return ups

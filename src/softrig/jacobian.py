"""Configuration-rate Jacobians for the two drive regimes.

Soft regime: wheel speeds of the two units map to curvature, heading and
position rates through the per-mode spiral gains.  Which rows a unit's
speed reaches depends on the stiffness pattern:

  only segment 2 soft   v1 acts through mode 2 (far-side drive, the whole
                        pose plus kappa2), v2 through mode 1 (kappa2 only,
                        body frame stationary)
  only segment 1 soft   mirror image of the above
  both soft             mode 3 from either side; the segment next to the
                        stationary unit governs the pose rows, both
                        curvatures rate together

Rigid regime: the agent is a single omnidirectional body and the planar
twist (u0, v0, r0) maps to world rates by the heading rotation.

Pose rows come from an exact kinematic chain: the segment-end frame on the
stationary side is frozen and the body origin is differentiated along the
arc shape, so the spiral model only enters through the shared gain K.  The
heading rate is +/- seg_len * K * v, positive for segment 1 (the body
heading leads the stationary end by the bend angle) and negative for
segment 2.
"""
from __future__ import annotations

import math

from .geometry import AgentConfig, GeometryParams, StiffnessState
from .spiral import rate_coeffs

# Jacobian columns, one float 5-tuple over (x, y, phi, kappa1, kappa2) each
Columns = tuple[tuple[float, ...], ...]


# Terms every pattern's columns share at one configuration, filled as the
# patterns ask for them: [heading (cos, sin), segment 1's ``delta_coeff``
# pair or None, segment 2's pair or None]
Shared = list


def delta_coeff(q: AgentConfig, j: int, geom: GeometryParams,
                rot: tuple[float, float]) -> tuple[float, float]:
    """Position-rate column entry before the gain: d(body origin)/d(kappa_j).

    Closed-form derivative of the body origin along the constant-curvature
    arc with the segment-end frame {b_j} frozen (Webster & Jones, IJRR
    2010).  With l = seg_len, alpha = kappa_j * l and h = mid_link / 2,
    expressed in the body frame it is

        x = +/- l^2 (alpha - sin alpha) / alpha^2
        y = l h + l^2 (1 - cos alpha) / alpha^2

    with + for segment 1 and - for segment 2, rotated to the world by the
    body heading, whose (cos, sin) is ``rot``, and returned as an (x, y)
    pair of floats.  Near alpha = 0 both fractions
    use their series.  The caller scales it by the mode's gain K (modes 2
    and 3; mode 1 leaves the body frame stationary and has no pose rows).
    Raises ContractError for a segment index other than 1 or 2.
    """
    kap = q.kappa(j)
    l = geom.seg_len
    alpha = kap * l
    if abs(alpha) < 1e-3:
        a2 = alpha * alpha
        sin_part = alpha * (1.0 / 6.0 - a2 / 120.0)
        cos_part = 0.5 - a2 / 24.0
    else:
        sin_part = (alpha - math.sin(alpha)) / (alpha * alpha)
        cos_part = (1.0 - math.cos(alpha)) / (alpha * alpha)
    dx = l * l * sin_part if j == 1 else -l * l * sin_part
    dy = l * geom.mid_link / 2 + l * l * cos_part
    c, s = rot
    return c * dx - s * dy, s * dx + c * dy


def _rigid_columns(c: float, s: float) -> Columns:
    # the body twist rotated to the world by the heading (cos, sin)
    return ((c, s, 0.0, 0.0, 0.0), (-s, c, 0.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0, 0.0))


def shared_terms(q: AgentConfig) -> Shared:
    """The terms all four patterns' columns at q share, each built once.

    The planner tries several patterns at the same configuration; passing
    this to ``active_columns`` spares each candidate the heading rotation,
    and each segment's arc derivative is worked out on the first pattern
    that bends that segment, so a step that tries only the rigid pattern
    builds none.
    """
    return [(math.cos(q.phi), math.sin(q.phi)), None, None]


def _arc_term(shared: Shared, q: AgentConfig, j: int,
              geom: GeometryParams) -> tuple[float, float]:
    # segment j's delta_coeff pair, built on first use
    term = shared[j]
    if term is None:
        term = shared[j] = delta_coeff(q, j, geom, shared[0])
    return term


def active_columns(q: AgentConfig, s: StiffnessState, geom: GeometryParams,
                   shared: Shared | None = None) -> Columns:
    """Jacobian columns of the driven inputs ``s.inputs``, float 5-tuples.

    The one place the columns are built (see the module docstring); the
    inputs outside ``s.inputs`` have no column.  ``shared`` is
    ``shared_terms(q)`` when the caller tries several patterns at q.
    """
    if shared is None:
        shared = shared_terms(q)
    if not s.any_soft:
        return _rigid_columns(*shared[0])
    l = geom.seg_len
    if not s.soft1:
        # segment 2 soft: v1 drives it from the far side, v2 from next door
        dx2, dy2 = _arc_term(shared, q, 2, geom)
        k2 = rate_coeffs(2, q.kappa2, l)
        k1 = rate_coeffs(1, q.kappa2, l)
        return ((k2 * dx2, k2 * dy2, -l * k2, 0.0, k2),
                (0.0, 0.0, 0.0, 0.0, k1))
    if not s.soft2:
        # segment 1 soft: mirror pairing
        dx1, dy1 = _arc_term(shared, q, 1, geom)
        k2 = rate_coeffs(2, q.kappa1, l)
        k1 = rate_coeffs(1, q.kappa1, l)
        return ((0.0, 0.0, 0.0, k1, 0.0),
                (k2 * dx1, k2 * dy1, l * k2, k2, 0.0))
    # both soft: the segment by the stationary unit carries the pose
    dx1, dy1 = _arc_term(shared, q, 1, geom)
    dx2, dy2 = _arc_term(shared, q, 2, geom)
    k31 = rate_coeffs(3, q.kappa1, l)
    k32 = rate_coeffs(3, q.kappa2, l)
    return ((k32 * dx2, k32 * dy2, -l * k32, k31, k32),
            (k31 * dx1, k31 * dy1, l * k31, k31, k32))

"""Planar geometry of a two-unit agent joined by a variable-stiffness fibre.

The agent is two wheeled locomotion units connected by a flexible fibre.  The
fibre has five pieces in a row: end link, soft segment 1, middle link, soft
segment 2, end link.  Each soft segment bends as a circular arc of fixed
length ``seg_len`` and signed curvature kappa (constant-curvature model).

Frames and conventions:
  - {b0}  body frame, at the centre of the middle link, x along the link
  - {b1}  end frame of segment 1 (outer end, where the left unit attaches)
  - {b2}  end frame of segment 2 (outer end, where the right unit attaches)
  - world poses are (x, y, phi) with phi wrapped to (-pi, pi]
  - segment 1 extends toward -x of {b0}, segment 2 toward +x
  - all lengths in metres, angles in radians, curvature in 1/m

Wheel numbering: wheels 1, 2 ride on the unit at {b1}; wheels 3, 4 on the
unit at {b2}.  Wheels 1, 3 sit on the outer block faces (axles along the
fibre), wheels 2, 4 on the lateral faces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError, DomainError

TWO_PI = 2.0 * math.pi

# wheel mounting angles relative to the segment-end frame, wheels 1..4
BETA = (math.pi / 2, 0.0, -math.pi / 2, math.pi)

# relative slack every curvature bound allows, so a value computed to sit
# on the bound still passes
_BOUND_TOL = 1e-9

# |kappa * length| below which the arc chord takes its series form
ARC_SERIES_ALPHA = 1e-6


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, TWO_PI)
    if a <= 0.0:
        a += TWO_PI
    return a - math.pi


def past_bound(value: float, bound: float) -> bool:
    """Whether |value| exceeds ``bound`` by more than the relative slack.

    The one curvature-bound test; each caller raises its own error.
    """
    return abs(value) > bound * (1 + _BOUND_TOL)


# ---------------------------------------------------------------------------
# parameter and state records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeometryParams:
    """Fixed dimensions of the agent.

    Defaults describe the desk-scale build: 40 mm soft segments, 30 mm
    plastic links, 46 mm unit blocks with 10 mm thick omniwheels.
    """

    seg_len: float = 0.04      # arc length of each soft segment
    mid_link: float = 0.03     # middle plastic link joining the segments
    end_link: float = 0.03     # plastic link between a segment end and a unit
    block_side: float = 0.046  # side of a locomotion unit block
    wheel_thickness: float = 0.01
    wheel_radius: float = 0.01

    def __post_init__(self):
        for name in ("seg_len", "mid_link", "end_link", "block_side",
                     "wheel_thickness", "wheel_radius"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")

    # wheel anchor offsets along the unit, from the segment-end frame
    @property
    def h1(self) -> float:
        """Outer-face wheel offset: end link + block + half wheel."""
        return (2 * self.end_link + 2 * self.block_side + self.wheel_thickness) / 2

    @property
    def h2(self) -> float:
        """Lateral-face wheel offset along x: end link + half block."""
        return (2 * self.end_link + self.block_side) / 2

    @property
    def h3(self) -> float:
        """Lateral-face wheel offset along y: half block + half wheel."""
        return (self.block_side + self.wheel_thickness) / 2

    @property
    def kappa_max(self) -> float:
        """Full-circle curvature bound for a single soft segment."""
        return TWO_PI / self.seg_len

    @property
    def kappa_max_uniform(self) -> float:
        """Curvature bound when both segments bend together."""
        return math.pi / self.seg_len


@dataclass(frozen=True, init=False)
class AgentConfig:
    """Configuration q = (x, y, phi, kappa1, kappa2).

    Pose of the body frame plus the two segment curvatures.  phi is wrapped
    to (-pi, pi] on construction; curvature bounds are enforced where a
    geometry is in scope, not here.
    """

    x: float
    y: float
    phi: float
    kappa1: float
    kappa2: float

    def __init__(self, x: float, y: float, phi: float, kappa1: float,
                 kappa2: float):
        # the planner builds one per candidate step: one write of the
        # instance dict instead of five passes through the frozen guard
        vars(self).update(x=x, y=y, phi=wrap_angle(phi), kappa1=kappa1,
                          kappa2=kappa2)

    def kappa(self, j: int) -> float:
        _check_segment(j)
        return self.kappa1 if j == 1 else self.kappa2


@dataclass(frozen=True)
class StiffnessState:
    """Which segments are soft.  soft1/soft2 are the per-segment flags."""

    soft1: bool
    soft2: bool

    @property
    def any_soft(self) -> bool:
        return self.soft1 or self.soft2

    @property
    def inputs(self) -> list[int]:
        """Entries of the input (v1, v2, u0, v0, r0) this pattern drives.

        The two unit speeds while any segment is soft, the body twist
        otherwise; the other entries are held at zero.
        """
        return [0, 1] if self.any_soft else [2, 3, 4]

    def kappa_bound(self, geom: GeometryParams) -> float:
        """Largest |kappa| either segment may reach under this pattern.

        The equal-curvature mode only covers half the single-segment range.
        """
        return (geom.kappa_max_uniform if self.soft1 and self.soft2
                else geom.kappa_max)

    def soft(self, j: int) -> bool:
        _check_segment(j)
        return self.soft1 if j == 1 else self.soft2

    def label(self) -> str:
        return f"{int(self.soft1)}{int(self.soft2)}"


STIFFNESS_STATES = (
    StiffnessState(False, False),
    StiffnessState(False, True),
    StiffnessState(True, False),
    StiffnessState(True, True),
)


def _check_segment(j: int) -> None:
    if j not in (1, 2):
        raise ContractError(f"segment index must be 1 or 2, got {j}")


# ---------------------------------------------------------------------------
# constant-curvature kinematics
# ---------------------------------------------------------------------------

def arc_chord(kappa: float, length: float) -> tuple[float, float]:
    """End point of a circular arc from its start, tangent along +x.

    The arc has the given length and signed curvature and bends toward +y
    for positive kappa: (sin(a) / kappa, 2 sin^2(a / 2) / kappa) with
    a = kappa * length.  The rise is written with the half-angle sine,
    since 1 - cos(a) cancels for small a; below |a| = ``ARC_SERIES_ALPHA``
    both entries use their series, so the map is smooth through the
    straight arc.
    """
    alpha = kappa * length
    if abs(alpha) < ARC_SERIES_ALPHA:
        # sin(a)/kappa = l*(1 - a^2/6), 2 sin^2(a/2)/kappa = l*a/2 to O(a^3)
        return length * (1.0 - alpha * alpha / 6.0), length * alpha / 2.0
    half = math.sin(alpha / 2.0)
    return math.sin(alpha) / kappa, 2.0 * half * half / kappa


def cc_transform(kappa: float, j: int,
                 geom: GeometryParams) -> tuple[float, float, float]:
    """Pose (x, y, theta) of the segment-end frame {bj} in the body frame {b0}.

    The segment bends as an arc of length seg_len and curvature kappa; the
    middle link contributes a straight mid_link/2 run before the arc.  The
    end frame rotates by -alpha for segment 1 and +alpha for segment 2,
    alpha = kappa * seg_len.  The arc itself is ``arc_chord``.
    """
    _check_segment(j)
    l, half_mid = geom.seg_len, geom.mid_link / 2
    if past_bound(kappa, geom.kappa_max):
        raise DomainError(
            f"segment {j} curvature {kappa:.6g} exceeds the full-circle bound "
            f"{geom.kappa_max:.6g}")
    alpha = kappa * l
    chord_x, chord_y = arc_chord(kappa, l)
    if j == 1:
        return -(half_mid + chord_x), chord_y, -alpha
    return half_mid + chord_x, chord_y, alpha


def apply_pose(pose: tuple[float, float, float], px: float,
               py: float) -> tuple[float, float]:
    """Map the point (px, py) of the frame at ``pose`` into the pose's parent.

    ``pose`` is (x, y, theta), as ``cc_transform`` returns it.
    """
    x, y, theta = pose
    c, s = math.cos(theta), math.sin(theta)
    return c * px - s * py + x, s * px + c * py + y


def wheel_layout(end1: tuple[float, float, float],
                 end2: tuple[float, float, float], geom: GeometryParams):
    """Wheel positions and axle headings in the body frame, from the two
    segment-end poses ``cc_transform`` gives.

    Returns (positions, headings) for wheels 1..4: four (x, y) pairs and
    four floats.  Wheels 1, 2 sit at (-h1, 0) and (-h2, h3) in {b1}, wheels
    3, 4 at (h1, 0) and (h2, -h3) in {b2}.  A wheel's heading is its end
    frame's angle, -alpha_1 or +alpha_2, plus beta_i.
    """
    h1, h2, h3 = geom.h1, geom.h2, geom.h3
    positions = [apply_pose(end1, -h1, 0.0), apply_pose(end1, -h2, h3),
                 apply_pose(end2, h1, 0.0), apply_pose(end2, h2, -h3)]
    headings = [end[2] + beta
                for end, beta in zip((end1, end1, end2, end2), BETA)]
    return positions, headings


"""Symmetry gates: a plan is equivariant under the model's symmetries.

Three maps take a scenario to an image scenario that the planner must
solve the same way, step for step:

- a rigid motion of the plane: q0 and the target rotated by one angle
  about the origin and shifted by up to 1 m, each scenario drawing its own
  from a seeded generator.  The inputs stay as they are, since they are
  body-frame speeds;
- the half-turn that swaps the segments, (x, y, phi, kappa1, kappa2) ->
  (x, y, phi + pi, -kappa2, -kappa1), with patterns 01 and 10 swapped,
  v1 <-> -v2 and (u0, v0, r0) -> (-u0, -v0, r0).  Segment 1 sits at -x
  and segment 2 at +x of the body frame, so the swap flips each
  curvature's sign;
- the mirror across the world x-axis, (x, y, phi, kappa1, kappa2) ->
  (x, -y, -phi, -kappa1, -kappa2), with the inputs mapped to
  (-v1, -v2, u0, -v0, -r0).

For ten seed-0 study scenarios under both presets, a plan and the plan of
its image have the same stiffness sequence (mapped) and step count, every
step's inputs map onto the image's within 1e-12 absolute, the final
configurations map within 1e-11 (heading modulo 2 pi), and playback has
as many rows, and as many paused ones.  Absolute tolerances, since the
relative gap of an input near zero says nothing.
"""
import math

import numpy as np
import pytest

from softrig.geometry import (AgentConfig, GeometryParams, StiffnessState,
                              wrap_angle)
from softrig.planner import PlannerParams, plan_motion
from softrig.scenario import sample_scenario
from softrig.simulator import rollout

GEOM = GeometryParams()
N_SCENARIOS = 10
INPUT_TOL = 1e-12
CONFIG_TOL = 1e-11


def swap_config(q):
    return AgentConfig(q.x, q.y, q.phi + math.pi, -q.kappa2, -q.kappa1)


def swap_inputs(speeds):
    v1, v2, u0, v0, r0 = speeds
    return -v2, -v1, -u0, -v0, r0


def swap_pattern(s):
    return StiffnessState(s.soft2, s.soft1)


def mirror_config(q):
    return AgentConfig(q.x, -q.y, -q.phi, -q.kappa1, -q.kappa2)


def mirror_inputs(speeds):
    v1, v2, u0, v0, r0 = speeds
    return -v1, -v2, u0, -v0, -r0


def rigid_config(angle, dx, dy):
    """The map of q under the rotation by ``angle`` about the origin, then
    the shift (dx, dy)."""
    c, s = math.cos(angle), math.sin(angle)

    def config_map(q):
        return AgentConfig(c * q.x - s * q.y + dx, s * q.x + c * q.y + dy,
                           q.phi + angle, q.kappa1, q.kappa2)
    return config_map


def same(value):
    return value


MAPS = {
    "swap": (swap_config, swap_inputs, swap_pattern),
    "mirror": (mirror_config, mirror_inputs, same),
}
PRESETS = {"default": PlannerParams(), "unweighted": PlannerParams.unweighted()}


@pytest.fixture(scope="module")
def scenarios():
    rng = np.random.default_rng(0)
    return [sample_scenario(rng, index=i) for i in range(N_SCENARIOS)]


def config_gap(a, b):
    """Largest coordinate gap of two configurations, heading modulo 2 pi."""
    return max(abs(a.x - b.x), abs(a.y - b.y), abs(wrap_angle(a.phi - b.phi)),
               abs(a.kappa1 - b.kappa1), abs(a.kappa2 - b.kappa2))


def check_image(scn, params, config_map, input_map, pattern_map):
    """Plan the scenario and its image under ``config_map`` and check that
    the image plan is the mapped plan."""
    plan = plan_motion(scn.q0, scn.target, GEOM, params)
    image = plan_motion(config_map(scn.q0), config_map(scn.target), GEOM,
                        params)
    assert len(image.steps) == len(plan.steps), scn.label
    assert [pattern_map(st.stiffness) for st in plan.steps] == [
        st.stiffness for st in image.steps], scn.label
    input_gap = max(abs(a - b) for st, im in zip(plan.steps, image.steps)
                    for a, b in zip(input_map(st.speeds), im.speeds))
    assert input_gap <= INPUT_TOL, scn.label
    assert config_gap(config_map(plan.final_config),
                      image.final_config) <= CONFIG_TOL, scn.label
    rows, image_rows = rollout(plan).rows, rollout(image).rows
    assert len(image_rows) == len(rows), scn.label
    assert (sum(row.paused for row in image_rows)
            == sum(row.paused for row in rows)), scn.label


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("name", MAPS)
def test_plan_is_equivariant(scenarios, name, preset):
    for scn in scenarios:
        check_image(scn, PRESETS[preset], *MAPS[name])


@pytest.mark.parametrize("preset", PRESETS)
def test_plan_is_invariant_under_rigid_motion(scenarios, preset):
    rng = np.random.default_rng(18)
    for scn in scenarios:
        angle = rng.uniform(-math.pi, math.pi)
        # a shift of up to 1 m in a uniform direction
        length, heading = rng.uniform(0.0, 1.0), rng.uniform(-math.pi, math.pi)
        config_map = rigid_config(angle, length * math.cos(heading),
                                  length * math.sin(heading))
        check_image(scn, PRESETS[preset], config_map, same, same)

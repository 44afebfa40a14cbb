import dataclasses
import math

import numpy as np
import pytest

from softrig.errors import ContractError, StallError
from softrig.geometry import STIFFNESS_STATES, AgentConfig, GeometryParams
from softrig.jacobian import hybrid_jacobian
from softrig.planner import (PlannerParams, config_error, damped_speeds,
                             fk_reference, plan_motion, weighted_distance)

GEOM = GeometryParams()
ORIGIN = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)


def test_params_validation():
    with pytest.raises(ContractError):
        PlannerParams(dt=0.0)
    with pytest.raises(ContractError):
        PlannerParams(weights=(1.0, 1.0))
    with pytest.raises(ContractError):
        PlannerParams(max_steps=0)
    assert PlannerParams.unweighted().weights == (1.0,) * 5


def test_config_error_wraps_heading():
    a = AgentConfig(0.0, 0.0, 3.0, 0.0, 0.0)
    b = AgentConfig(0.0, 0.0, -3.0, 0.0, 0.0)
    err = config_error(a, b)
    assert abs(err[2]) < 1.0  # the short way round, not 6 rad
    assert math.isclose(weighted_distance(err, (0, 0, 1, 0, 0)),
                        abs(err[2]))


def test_damped_speeds_zero_for_inactive_columns():
    q = AgentConfig(0.0, 0.0, 0.0, 10.0, 10.0)
    jac = hybrid_jacobian(q, STIFFNESS_STATES[1], GEOM)
    ups = damped_speeds(jac, np.ones(5), 1.0, 1e-3)
    assert np.all(ups[2:] == 0.0)
    jac = hybrid_jacobian(q, STIFFNESS_STATES[0], GEOM)
    ups = damped_speeds(jac, np.ones(5), 1.0, 1e-3)
    assert np.all(ups[:2] == 0.0)


def test_damped_speeds_match_stacked_least_squares():
    # against lstsq of [Ja; mu I] u = [lam err; 0] on the active block Ja,
    # which never squares the block's conditioning; soft blocks pair a
    # curvature scale of 1e2 1/m with millimetre pose rates
    rng = np.random.default_rng(14)
    lam, mu = 1.0, 1e-3

    def random_config(kb):
        return AgentConfig(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                           rng.uniform(-math.pi, math.pi),
                           rng.uniform(-0.9, 0.9) * kb,
                           rng.uniform(-0.9, 0.9) * kb)

    for _ in range(200):
        s = STIFFNESS_STATES[rng.integers(0, 4)]
        kb = GEOM.kappa_max_uniform if s.index == 3 else GEOM.kappa_max
        q = random_config(kb)
        err = config_error(random_config(kb), q)
        jac = hybrid_jacobian(q, s, GEOM)
        active = slice(0, 2) if s.any_soft else slice(2, 5)
        ja = jac[:, active]
        n = ja.shape[1]
        ref = np.linalg.lstsq(np.vstack([ja, mu * np.eye(n)]),
                              np.concatenate([lam * err, np.zeros(n)]),
                              rcond=None)[0]
        ups = damped_speeds(jac, err, lam, mu)
        assert np.linalg.norm(ups[active] - ref) <= 1e-9 * np.linalg.norm(ref)
        inactive = np.ones(5, dtype=bool)
        inactive[active] = False
        assert np.all(ups[inactive] == 0.0)


def test_trivial_goal_needs_no_steps():
    plan = plan_motion(ORIGIN, ORIGIN, GEOM)
    assert plan.converged
    assert plan.steps == []
    assert plan.n_switches == 0
    assert plan.final_error == 0.0


def test_pure_translation_stays_rigid():
    target = AgentConfig(0.1, 0.0, 0.0, 0.0, 0.0)
    plan = plan_motion(ORIGIN, target, GEOM)
    assert plan.converged
    assert [lab for lab, _ in plan.runs()] == ["00"]
    assert plan.final_error <= plan.params.eps_goal
    # speeds only use the rigid inputs
    for step in plan.steps:
        assert np.all(step.speeds[:2] == 0.0)


def test_pose_and_bend_goal_converges():
    target = AgentConfig(0.12, 0.08, 0.6, 60.0, -40.0)
    plan = plan_motion(ORIGIN, target, GEOM)
    assert plan.converged
    labels = [lab for lab, _ in plan.runs()]
    assert any(lab != "00" for lab in labels)
    assert plan.final_error <= plan.params.eps_goal
    assert plan.n_switches == len(labels) - 1


def test_distances_strictly_decrease():
    target = AgentConfig(0.12, 0.08, 0.6, 60.0, -40.0)
    plan = plan_motion(ORIGIN, target, GEOM)
    d = np.array(plan.distances)
    assert np.all(np.diff(d) < 0.0)
    assert len(plan.configs) == len(plan.steps) + 1
    assert len(plan.distances) == len(plan.configs)


def test_planned_configs_hold_plain_floats():
    # every configuration field is a Python float, not a numpy scalar
    target = AgentConfig(0.12, 0.08, 0.6, 60.0, -40.0)
    plan = plan_motion(ORIGIN, target, GEOM)
    for q in plan.configs:
        assert all(type(v) is float for v in dataclasses.astuple(q)), q


def test_unweighted_preset_finishes_rigid():
    target = AgentConfig(0.1, -0.05, 0.4, 50.0, 30.0)
    plan = plan_motion(ORIGIN, target, GEOM, PlannerParams.unweighted())
    assert plan.converged
    labels = [lab for lab, _ in plan.runs()]
    assert labels[-1] == "00"
    assert len(labels) <= 4


def test_curvature_beyond_single_bound_is_split():
    # both targets past the shared bound: the equal-bend pattern cannot
    # finish the job and the plan must fall back to one segment at a time
    kb = GEOM.kappa_max_uniform
    target = AgentConfig(0.0, 0.0, 0.0, kb * 1.3, -kb * 1.4)
    plan = plan_motion(ORIGIN, target, GEOM, PlannerParams.unweighted())
    assert plan.converged
    labels = [lab for lab, _ in plan.runs()]
    assert "01" in labels and "10" in labels
    assert abs(plan.final_config.kappa1 - target.kappa1) < 1.0
    assert abs(plan.final_config.kappa2 - target.kappa2) < 1.0


def test_stall_raises_with_diagnostics():
    # a target pinned beyond the hard curvature bound cannot be approached
    target = AgentConfig(0.0, 0.0, 0.0, GEOM.kappa_max * 1.5, 0.0)
    with pytest.raises(StallError) as info:
        plan_motion(ORIGIN, target, GEOM, PlannerParams.unweighted())
    assert info.value.diagnostics
    assert set(info.value.diagnostics) <= {"00", "01", "10", "11"}


def test_max_steps_returns_unconverged():
    target = AgentConfig(0.2, 0.1, 0.5, 80.0, -90.0)
    plan = plan_motion(ORIGIN, target, GEOM,
                       PlannerParams.unweighted(max_steps=5))
    assert not plan.converged
    assert len(plan.steps) == 5


def test_planning_is_deterministic():
    target = AgentConfig(0.07, -0.03, 0.3, 45.0, -25.0)
    a = plan_motion(ORIGIN, target, GEOM)
    b = plan_motion(ORIGIN, target, GEOM)
    assert len(a.steps) == len(b.steps)
    for qa, qb in zip(a.configs, b.configs):
        assert qa == qb
    assert a.summary() == b.summary()
    assert "wall_time" not in a.summary()


def test_summary_contents():
    target = AgentConfig(0.05, 0.0, 0.0, 0.0, 0.0)
    plan = plan_motion(ORIGIN, target, GEOM)
    s = plan.summary()
    assert s["converged"] is True
    assert s["n_steps"] == len(plan.steps)
    assert s["runs"][0]["stiffness"] == "00"
    assert len(s["final_config"]) == 5
    assert all(type(v) is float for v in s["final_config"])


def test_fk_reference_is_the_straight_chord():
    target = AgentConfig(0.1, -0.2, 2.0, 50.0, -50.0)
    configs, dists = fk_reference(ORIGIN, target, 10, weights=(1.0,) * 5)
    assert len(configs) == 11 and len(dists) == 11
    assert configs[0] == ORIGIN
    np.testing.assert_allclose(configs[-1].as_array(), target.as_array(),
                               atol=1e-12)
    # linear interpolation in every coordinate makes the distance linear
    np.testing.assert_allclose(dists, dists[0] * np.linspace(1, 0, 11),
                               atol=1e-9)
    with pytest.raises(ContractError):
        fk_reference(ORIGIN, target, 0)

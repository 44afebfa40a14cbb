import math

import numpy as np
import pytest

from softrig.errors import ContractError
from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              apply_pose, cc_transform, wheel_layout)
from softrig.planner import PlannerParams, plan_motion
from softrig.scenario import sample_scenario
from softrig.wheelmodel import OMEGA_MAX_DEFAULT, wheel_rows, wheel_speeds

from conftest import body_twist_from_wheels, config_matrix

GEOM = GeometryParams()
RIGID = STIFFNESS_STATES[0]
SOFT = STIFFNESS_STATES[3]


def test_soft_block_drive_wheels_only():
    m = np.array(wheel_rows(AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0), SOFT, GEOM))
    # v1 = v2 = 1 m/s turns wheel 1 forward and wheel 3 backward at 100 rad/s
    omega = m @ [1.0, 1.0]
    np.testing.assert_allclose(omega, [100.0, 0.0, -100.0, 0.0])


def test_rigid_block_straight_forward_roll():
    q = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    m = np.array(wheel_rows(q, RIGID, GEOM))
    # pure surge u0 only engages the lateral wheels (headings 0 and pi)
    omega = m @ [1.0, 0.0, 0.0]
    np.testing.assert_allclose(omega, [0.0, 100.0, 0.0, -100.0], atol=1e-12)
    # pure sway engages the axle wheels
    omega = m @ [0.0, 1.0, 0.0]
    np.testing.assert_allclose(omega, [100.0, 0.0, -100.0, 0.0], atol=1e-12)


def test_rigid_rows_are_contact_point_rolling_speeds():
    # each wheel's rate is the speed of its contact point along its heading
    # under the body twist (u0, v0, r0), over the wheel radius; the speed is
    # a central difference of the wheel position moved by the twist, so the
    # check does not restate the row formula
    rng = np.random.default_rng(21)
    kb, h = RIGID.kappa_bound(GEOM), 1e-6
    for _ in range(50):
        kappa1, kappa2 = rng.uniform(-kb, kb, 2)
        twist = (*rng.uniform(-0.05, 0.05, 2), rng.uniform(-1.0, 1.0))
        q = AgentConfig(0.0, 0.0, 0.0, kappa1, kappa2)
        positions, headings = wheel_layout(cc_transform(kappa1, 1, GEOM),
                                           cc_transform(kappa2, 2, GEOM), GEOM)
        rates, expect = [], []
        for row, (px, py), psi in zip(wheel_rows(q, RIGID, GEOM), positions,
                                      headings):
            ax, ay = apply_pose(tuple(h * t for t in twist), px, py)
            bx, by = apply_pose(tuple(-h * t for t in twist), px, py)
            speed = ((ax - bx) * math.cos(psi) + (ay - by) * math.sin(psi)) / (2 * h)
            rates.append(sum(m * t for m, t in zip(row, twist)))
            expect.append(speed / GEOM.wheel_radius)
        np.testing.assert_allclose(rates, expect, rtol=0.0,
                                   atol=1e-7 * np.max(np.abs(expect)))


def test_config_matrix_gates_on_regime():
    q = AgentConfig(0.0, 0.0, 0.4, 12.0, -7.0)
    v_soft = config_matrix(q, SOFT, GEOM)
    assert np.all(v_soft[:, 2:] == 0.0)
    assert np.any(v_soft[:, :2] != 0.0)
    v_rigid = config_matrix(q, RIGID, GEOM)
    assert np.all(v_rigid[:, :2] == 0.0)
    assert np.any(v_rigid[:, 2:] != 0.0)


def test_wheel_speeds_rejects_mixed_inputs():
    q = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ContractError):
        wheel_speeds(q, SOFT, [0.1, 0.0, 0.2, 0.0, 0.0], GEOM)
    with pytest.raises(ContractError):
        wheel_speeds(q, RIGID, [0.1, 0.0, 0.2, 0.0, 0.0], GEOM)


def test_wheel_speeds_saturation_preserves_direction():
    q = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    ws = wheel_speeds(q, SOFT, [1.0, 0.5, 0.0, 0.0, 0.0], GEOM)
    assert ws.saturated
    assert math.isclose(np.max(np.abs(ws.omega)), OMEGA_MAX_DEFAULT)
    free = wheel_speeds(q, SOFT, [0.01, 0.005, 0.0, 0.0, 0.0], GEOM)
    assert not free.saturated
    np.testing.assert_allclose(ws.omega / np.max(np.abs(ws.omega)),
                               free.omega / np.max(np.abs(free.omega)),
                               atol=1e-12)


def test_body_twist_round_trip_rigid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = AgentConfig(*rng.uniform(-0.2, 0.2, 2), rng.uniform(-3, 3),
                        rng.uniform(-100, 100), rng.uniform(-100, 100))
        ups = np.zeros(5)
        ups[2:] = rng.uniform(-0.05, 0.05, 3)
        omega = config_matrix(q, RIGID, GEOM) @ ups
        back = body_twist_from_wheels(q, RIGID, omega, GEOM)
        np.testing.assert_allclose(back, ups, atol=1e-12)


def test_body_twist_round_trip_soft():
    q = AgentConfig(0.0, 0.0, 0.0, 5.0, -5.0)
    ups = np.array([0.03, -0.02, 0.0, 0.0, 0.0])
    omega = config_matrix(q, SOFT, GEOM) @ ups
    back = body_twist_from_wheels(q, SOFT, omega, GEOM)
    np.testing.assert_allclose(back, ups, atol=1e-14)


def test_float_rule_matches_the_matrix_around_the_limit():
    # the float wheel rule and the numpy matrix V agree on the rates, and on
    # the drive-limit flag just below and just above the limit
    rng = np.random.default_rng(12)
    for s in STIFFNESS_STATES:
        kb = s.kappa_bound(GEOM)
        for _ in range(25):
            q = AgentConfig(*rng.uniform(-0.2, 0.2, 2), rng.uniform(-3, 3),
                            *rng.uniform(-kb, kb, 2))
            v = config_matrix(q, s, GEOM)
            ups = np.zeros(5)
            ups[s.inputs] = rng.uniform(-0.05, 0.05, len(s.inputs))
            ups *= OMEGA_MAX_DEFAULT / np.max(np.abs(v @ ups))
            for factor in (0.5, 0.999, 1.001, 2.0):
                omega = v @ (factor * ups)
                peak = np.max(np.abs(omega))
                ws = wheel_speeds(q, s, (factor * ups).tolist(), GEOM)
                assert ws.saturated == (peak > OMEGA_MAX_DEFAULT)
                if ws.saturated:
                    omega = omega * (OMEGA_MAX_DEFAULT / peak)
                np.testing.assert_allclose(ws.omega, omega, rtol=1e-12)


def test_over_limit_steps_of_sampled_plans():
    # (steps, steps over the wheel limit) of the first three unweighted
    # study plans, recorded with the numpy matrix rule
    rng = np.random.default_rng(0)
    counts = []
    for i in range(3):
        scn = sample_scenario(rng, index=i)
        plan = plan_motion(scn.q0, scn.target, scn.geometry,
                           PlannerParams.unweighted())
        counts.append((len(plan.steps), sum(
            wheel_speeds(st.config, st.stiffness, st.speeds, GEOM).saturated
            for st in plan.steps)))
    assert counts == [(551, 12), (576, 38), (559, 28)]

import math

import numpy as np
import pytest

from softrig.errors import ContractError
from softrig.geometry import STIFFNESS_STATES, AgentConfig, GeometryParams
from softrig.wheelmodel import (OMEGA_MAX_DEFAULT, body_twist_from_wheels,
                                config_matrix, rigid_block, soft_block,
                                wheel_speeds)

GEOM = GeometryParams()
RIGID = STIFFNESS_STATES[0]
SOFT = STIFFNESS_STATES[3]


def test_soft_block_drive_wheels_only():
    m = soft_block(GEOM)
    # v1 = v2 = 1 m/s turns wheel 1 forward and wheel 3 backward at 100 rad/s
    omega = m @ [1.0, 1.0]
    np.testing.assert_allclose(omega, [100.0, 0.0, -100.0, 0.0])


def test_rigid_block_straight_forward_roll():
    q = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    m = rigid_block(q, GEOM)
    # pure surge u0 only engages the lateral wheels (headings 0 and pi)
    omega = m @ [1.0, 0.0, 0.0]
    np.testing.assert_allclose(omega, [0.0, 100.0, 0.0, -100.0], atol=1e-12)
    # pure sway engages the axle wheels
    omega = m @ [0.0, 1.0, 0.0]
    np.testing.assert_allclose(omega, [100.0, 0.0, -100.0, 0.0], atol=1e-12)


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

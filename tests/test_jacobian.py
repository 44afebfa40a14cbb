import math

import numpy as np
import pytest

import softrig
from softrig import jacobian, spiral
from softrig.errors import ContractError
from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              StiffnessState, cc_transform, wrap_angle)
from softrig.jacobian import active_columns, delta_coeff
from softrig.spiral import rate_coeffs

from conftest import (as_array, config_matrix, frame, frame_inverse,
                      hybrid_jacobian, rk4_step)

GEOM = GeometryParams()

S01 = StiffnessState(False, True)
S10 = StiffnessState(True, False)
S11 = StiffnessState(True, True)


def random_config(rng, kappa_frac=0.8, uniform=False):
    kb = GEOM.kappa_max_uniform if uniform else GEOM.kappa_max
    return AgentConfig(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                       rng.uniform(-math.pi, math.pi),
                       rng.uniform(-kappa_frac, kappa_frac) * kb,
                       rng.uniform(-kappa_frac, kappa_frac) * kb)


def gains(mode, kappa):
    # K from rate_coeffs and the heading gain m / rho from the spiral itself
    sp = spiral.spiral_model(mode)
    return (rate_coeffs(mode, kappa, GEOM.seg_len),
            sp.m / sp.radius(kappa, GEOM.seg_len))


def test_rigid_jacobian_structure():
    q = AgentConfig(0.1, 0.2, 0.8, 30.0, -20.0)
    jac = hybrid_jacobian(q, STIFFNESS_STATES[0], GEOM)[:, 2:]
    assert jac.shape == (5, 3)
    c, s = math.cos(0.8), math.sin(0.8)
    np.testing.assert_allclose(jac[:2, :2], [[c, -s], [s, c]])
    assert jac[2, 2] == 1.0
    # curvature rows stay zero in the rigid regime
    assert np.all(jac[3:, :] == 0.0)
    assert np.linalg.matrix_rank(jac) == 3


def test_soft_jacobian_single_segment_structure():
    q = AgentConfig(0.0, 0.0, 0.3, 25.0, -40.0)
    jac = hybrid_jacobian(q, S01, GEOM)[:, :2]
    k2, p2 = gains(2, q.kappa2)
    k1 = rate_coeffs(1, q.kappa2, GEOM.seg_len)
    # far-side drive moves the pose and winds kappa2
    assert math.isclose(jac[2, 0], -p2)
    assert math.isclose(jac[4, 0], k2)
    assert jac[3, 0] == 0.0
    # near-side drive only winds kappa2, the body frame holds still
    assert jac[0, 1] == 0.0 and jac[1, 1] == 0.0 and jac[2, 1] == 0.0
    assert math.isclose(jac[4, 1], k1)
    # mirror pattern
    jac = hybrid_jacobian(q, S10, GEOM)[:, :2]
    k2, p2 = gains(2, q.kappa1)
    k1 = rate_coeffs(1, q.kappa1, GEOM.seg_len)
    assert math.isclose(jac[2, 1], p2)
    assert math.isclose(jac[3, 1], k2)
    assert jac[0, 0] == 0.0 and jac[1, 0] == 0.0 and jac[2, 0] == 0.0
    assert math.isclose(jac[3, 0], k1)
    assert jac[4, 0] == 0.0 and jac[4, 1] == 0.0


def test_soft_jacobian_heading_signs():
    q = AgentConfig(0.0, 0.0, 0.0, 15.0, 15.0)
    # driving around soft segment 2 turns the body one way, segment 1 the
    # other; both curvatures wind positive under their pose-driving column
    assert hybrid_jacobian(q, S01, GEOM)[2, 0] < 0.0
    assert hybrid_jacobian(q, S10, GEOM)[2, 1] > 0.0
    assert hybrid_jacobian(q, S01, GEOM)[4, 0] > 0.0
    assert hybrid_jacobian(q, S10, GEOM)[3, 1] > 0.0


def test_soft_jacobian_both_segments():
    q = AgentConfig(0.05, -0.1, -0.4, 20.0, 20.0)
    jac = hybrid_jacobian(q, S11, GEOM)[:, :2]
    k31, p31 = gains(3, q.kappa1)
    k32, p32 = gains(3, q.kappa2)
    # both curvatures rate together from either driving side
    assert math.isclose(jac[3, 0], k31) and math.isclose(jac[4, 0], k32)
    assert math.isclose(jac[3, 1], k31) and math.isclose(jac[4, 1], k32)
    assert math.isclose(jac[2, 0], -p32)
    assert math.isclose(jac[2, 1], p31)
    assert np.any(jac[0:2, 0] != 0.0) and np.any(jac[0:2, 1] != 0.0)


def test_soft_jacobian_rigid_state_is_zero():
    q = AgentConfig(0.0, 0.0, 0.0, 10.0, 10.0)
    assert np.all(hybrid_jacobian(q, STIFFNESS_STATES[0], GEOM)[:, :2] == 0.0)


def test_soft_jacobian_looks_up_each_gain_once(monkeypatch):
    original = spiral.rate_coeffs
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    # every module binding of the function, so a second lookup site counts
    for module in (softrig, spiral, jacobian):
        if getattr(module, "rate_coeffs", None) is original:
            monkeypatch.setattr(module, "rate_coeffs", counted)
    q = AgentConfig(0.05, -0.1, -0.4, 20.0, -30.0)
    for s in (S01, S10, S11):
        calls.clear()
        active_columns(q, s, GEOM)
        assert len(calls) == 2, s.label()


def test_inputs_are_the_active_columns():
    # the same columns carry the configuration rates and the wheel map
    q = AgentConfig(0.05, -0.1, -0.4, 20.0, -30.0)
    for s in STIFFNESS_STATES:
        jac = hybrid_jacobian(q, s, GEOM)
        wheels = config_matrix(q, s, GEOM)
        assert np.flatnonzero(jac.any(axis=0)).tolist() == s.inputs
        assert np.flatnonzero(wheels.any(axis=0)).tolist() == s.inputs


def test_hybrid_jacobian_gating():
    q = AgentConfig(0.1, 0.0, 0.5, 12.0, -9.0)
    full = hybrid_jacobian(q, S01, GEOM)
    assert full.shape == (5, 5)
    assert np.all(full[:, 2:] == 0.0)
    np.testing.assert_allclose(full[:, :2],
                               np.array(active_columns(q, S01, GEOM)).T)
    full = hybrid_jacobian(q, STIFFNESS_STATES[0], GEOM)
    assert np.all(full[:, :2] == 0.0)
    np.testing.assert_allclose(
        full[:, 2:], np.array(active_columns(q, STIFFNESS_STATES[0], GEOM)).T)


def test_delta_coeff_matches_direct_difference():
    # the closed form against a central difference of the body origin seen
    # from the frozen segment-end frame, rotated to the world and converted
    # through dkappa/dt = K * v.  At the curvature bound the step shrinks
    # into the 1e-9 slack cc_transform allows past it, so the bound itself
    # is differenced centrally too.
    rng = np.random.default_rng(12)
    l, kmax = GEOM.seg_len, GEOM.kappa_max
    cases = []
    for mode, j in ((2, 1), (2, 2), (3, 1), (3, 2)):
        bound = GEOM.kappa_max_uniform if mode == 3 else GEOM.kappa_max
        for kap in (0.0, 1e-7 / l, -4e-4 / l, 9e-4 / l, bound, -bound):
            cases.append((AgentConfig(0.1, -0.2, rng.uniform(-math.pi, math.pi),
                                      kap, kap), mode, j))
        for _ in range(20):
            cases.append((random_config(rng, kappa_frac=0.7, uniform=mode == 3),
                          mode, j))
    for q, mode, j in cases:
        kap = q.kappa(j)
        h = min(1e-6 * kmax, kmax * (1 + 5e-10) - abs(kap))
        k_gain = rate_coeffs(mode, kap, l)
        anchor = frame(q.x, q.y, q.phi) @ frame(*cc_transform(kap, j, GEOM))
        hi = frame_inverse(frame(*cc_transform(kap + h, j, GEOM)))[:2, 2]
        lo = frame_inverse(frame(*cc_transform(kap - h, j, GEOM)))[:2, 2]
        fd = k_gain * anchor[:2, :2] @ (hi - lo) / (2 * h)
        d = k_gain * np.array(delta_coeff(q, j, GEOM))
        assert np.linalg.norm(d - fd) <= 1e-6 * np.linalg.norm(fd), (
            f"mode {mode} segment {j} kappa {kap:.6g}")


def test_delta_coeff_rejects_bad_segment():
    q = AgentConfig(0.0, 0.0, 0.0, 5.0, 5.0)
    with pytest.raises(ContractError):
        delta_coeff(q, 3, GEOM)


def test_stationary_anchor_under_integration():
    # driving v1 with segment 2 soft must keep the {b2}-side anchor frame
    # fixed in the world: the far unit orbits while that end stands still
    q = AgentConfig(0.02, -0.05, 0.3, 10.0, 5.0)
    anchor0 = frame(q.x, q.y, q.phi) @ frame(*cc_transform(q.kappa2, 2, GEOM))
    ups = np.array([0.02, 0.0, 0.0, 0.0, 0.0])
    for _ in range(400):
        q = rk4_step(q, S01, ups, 0.005, GEOM)[0]
    anchor1 = frame(q.x, q.y, q.phi) @ frame(*cc_transform(q.kappa2, 2, GEOM))
    np.testing.assert_allclose(anchor1, anchor0, atol=5e-6)


def test_first_order_rates_match_integration():
    # J ups agrees with the finite-difference flow rate for all regimes
    rng = np.random.default_rng(13)
    dt = 1e-6
    for _ in range(40):
        s = STIFFNESS_STATES[rng.integers(0, 4)]
        q = random_config(rng, kappa_frac=0.7, uniform=s.soft1 and s.soft2)
        ups = np.zeros(5)
        if s.any_soft:
            ups[:2] = rng.uniform(-0.01, 0.01, 2)
        else:
            ups[2:] = rng.uniform(-0.01, 0.01, 3)
        jac = hybrid_jacobian(q, s, GEOM)
        q1 = rk4_step(q, s, ups, dt, GEOM)[0]
        diff = as_array(q1) - as_array(q)
        diff[2] = wrap_angle(diff[2])
        np.testing.assert_allclose(diff / dt, jac @ ups, atol=5e-7)

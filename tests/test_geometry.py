import math

import numpy as np
import pytest

from softrig.errors import ContractError, DomainError
from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              StiffnessState, cc_transform, wheel_layout,
                              wrap_angle)

from conftest import frame, scaled_geometry

GEOM = GeometryParams()


def test_wrap_angle_range():
    for a in (-7.0, -math.pi, 0.0, 1.0, math.pi, 9.5, 100.0):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(2 * math.pi) == 0.0


def test_default_dimensions():
    assert GEOM.seg_len == 0.04
    assert GEOM.mid_link == 0.03
    assert math.isclose(GEOM.h1, 0.081)
    assert math.isclose(GEOM.h2, 0.053)
    assert math.isclose(GEOM.h3, 0.028)
    assert math.isclose(GEOM.kappa_max, 2 * math.pi / 0.04)
    assert math.isclose(GEOM.kappa_max_uniform, math.pi / 0.04)


def test_geometry_rejects_nonpositive():
    with pytest.raises(DomainError):
        GeometryParams(seg_len=0.0)
    with pytest.raises(DomainError):
        GeometryParams(wheel_radius=-0.01)


def test_scaled_keeps_fibre_proportions():
    g = scaled_geometry(GEOM, 0.1)
    assert g.seg_len == 0.1
    assert math.isclose(g.mid_link / g.seg_len, GEOM.mid_link / GEOM.seg_len)
    assert math.isclose(g.end_link / g.seg_len, GEOM.end_link / GEOM.seg_len)
    # the wheel units are off-the-shelf parts and do not scale
    assert g.block_side == GEOM.block_side
    assert g.wheel_radius == GEOM.wheel_radius


def test_config_wraps_heading_and_round_trips():
    q = AgentConfig(0.1, -0.2, 4.0, 10.0, -20.0)
    assert -math.pi < q.phi <= math.pi
    assert math.isclose(q.phi, wrap_angle(4.0))
    back = AgentConfig(q.x, q.y, q.phi, q.kappa1, q.kappa2)
    assert back == q
    assert q.kappa(1) == 10.0
    assert q.kappa(2) == -20.0
    with pytest.raises(ContractError):
        q.kappa(3)


def test_stiffness_states_order_and_labels():
    assert [s.label() for s in STIFFNESS_STATES] == ["00", "01", "10", "11"]
    s = StiffnessState(True, False)
    assert s.any_soft and s.soft(1) and not s.soft(2)
    assert not STIFFNESS_STATES[0].any_soft


def test_cc_transform_straight():
    t1 = cc_transform(0.0, 1, GEOM)
    t2 = cc_transform(0.0, 2, GEOM)
    np.testing.assert_allclose(t1[:2], [-0.055, 0.0], atol=1e-15)
    np.testing.assert_allclose(t2[:2], [0.055, 0.0], atol=1e-15)
    assert t1[2] == 0.0 and t2[2] == 0.0


def test_cc_transform_quarter_circle():
    # alpha = pi/2: chord sin/kappa, rise (1-cos)/kappa
    kap = math.pi / (2 * GEOM.seg_len)
    t = cc_transform(kap, 1, GEOM)
    assert math.isclose(t[2], -math.pi / 2)
    np.testing.assert_allclose(
        t[:2], [-(0.015 + 1.0 / kap), 1.0 / kap], atol=1e-15)


def test_cc_transform_mirror_symmetry():
    for j in (1, 2):
        tp = cc_transform(30.0, j, GEOM)
        tm = cc_transform(-30.0, j, GEOM)
        assert math.isclose(tp[0], tm[0], abs_tol=1e-15)
        assert math.isclose(tp[1], -tm[1], abs_tol=1e-15)
        assert math.isclose(tp[2], -tm[2], abs_tol=1e-15)


def test_cc_transform_smooth_through_zero():
    # series branch must match the exact formula at the switch point
    kap = 1e-6 / GEOM.seg_len
    exact = np.array([math.sin(1e-6) / kap, 2 * math.sin(5e-7) ** 2 / kap])
    series = np.subtract(cc_transform(kap, 2, GEOM)[:2],
                         [GEOM.mid_link / 2, 0.0])
    np.testing.assert_allclose(series, exact, rtol=1e-10)
    lo = cc_transform(kap * 0.99, 2, GEOM)[:2]
    hi = cc_transform(kap * 1.01, 2, GEOM)[:2]
    assert np.linalg.norm(np.subtract(hi, lo)) < 1e-9


def test_cc_transform_rise_matches_series():
    # the chord rise 2 sin^2(a/2)/kappa has no cancellation for small a:
    # it matches its Taylor series l (a/2 - a^3/24 + a^5/720 - a^7/40320)
    l = GEOM.seg_len
    for alpha in np.geomspace(1e-6, 1e-1, 60):
        series = l * (alpha / 2 - alpha ** 3 / 24 + alpha ** 5 / 720
                      - alpha ** 7 / 40320)
        rise = cc_transform(alpha / l, 2, GEOM)[1]
        assert math.isclose(rise, series, rel_tol=1e-13), alpha


def test_cc_transform_rejects_over_bend():
    with pytest.raises(DomainError):
        cc_transform(GEOM.kappa_max * 1.001, 1, GEOM)
    with pytest.raises(ContractError):
        cc_transform(0.0, 3, GEOM)


def test_wheel_layout_straight():
    positions, headings = wheel_layout(cc_transform(0.0, 1, GEOM),
                                       cc_transform(0.0, 2, GEOM), GEOM)
    np.testing.assert_allclose(
        positions,
        [[-0.136, 0.0], [-0.108, 0.028], [0.136, 0.0], [0.108, -0.028]],
        atol=1e-15)
    np.testing.assert_allclose(
        headings, [math.pi / 2, 0.0, -math.pi / 2, math.pi], atol=1e-15)


def test_wheel_headings_follow_bend():
    a1 = 20.0 * GEOM.seg_len
    positions, headings = wheel_layout(cc_transform(20.0, 1, GEOM),
                                       cc_transform(-10.0, 2, GEOM), GEOM)
    assert math.isclose(headings[0], -a1 + math.pi / 2)
    assert math.isclose(headings[2], -10.0 * GEOM.seg_len - math.pi / 2)
    # wheels ride the segment-end frames at their anchor offsets
    end1 = frame(*cc_transform(20.0, 1, GEOM))
    end2 = frame(*cc_transform(-10.0, 2, GEOM))
    h1, h2, h3 = GEOM.h1, GEOM.h2, GEOM.h3
    for i, (end, anchor) in enumerate([(end1, (-h1, 0.0)), (end1, (-h2, h3)),
                                       (end2, (h1, 0.0)), (end2, (h2, -h3))]):
        np.testing.assert_allclose(
            positions[i], (end @ (*anchor, 1.0))[:2], atol=1e-15)

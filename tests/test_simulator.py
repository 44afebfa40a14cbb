import math

import numpy as np
import pytest

from softrig.errors import ContractError, ThermalTimeoutError
from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              StiffnessState)
from softrig.planner import PlannerParams, plan_motion
from softrig.simulator import Trajectory, fk_step_detailed, rollout
from softrig.thermal import (PHASE_RIGID, PHASE_SOFT, ThermalParams,
                             initial_state, loop_step, setpoint_for)

from conftest import as_array, hybrid_jacobian, rk4_step

GEOM = GeometryParams()
RIGID = STIFFNESS_STATES[0]
S01 = StiffnessState(False, True)
S11 = StiffnessState(True, True)


def small_plan():
    q0 = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    target = AgentConfig(0.05, 0.02, 0.2, 40.0, 0.0)
    return plan_motion(q0, target, GEOM, PlannerParams())


def two_switch_plan():
    # rigid, then segment 1 soft, then segment 2 soft: the second switch
    # solidifies one segment while it melts the other
    q0 = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    target = AgentConfig(0.05, 0.02, 0.2, 40.0, -30.0)
    return plan_motion(q0, target, GEOM, PlannerParams())


def test_euler_step_is_exact_first_order():
    q = AgentConfig(0.01, -0.02, 0.4, 8.0, -6.0)
    ups = np.array([0.02, -0.01, 0.0, 0.0, 0.0])
    jac = hybrid_jacobian(q, S01, GEOM)
    q1 = fk_step_detailed(q, S01, ups, 0.05, GEOM)[0]
    expect = as_array(q) + 0.05 * (jac @ ups)
    np.testing.assert_allclose(as_array(q1), expect, atol=1e-15)
    # the float step also equals q + dt J u followed by the clip when the
    # clip engages on one curvature and leaves the other alone
    cases = [
        (AgentConfig(0.01, -0.02, 0.4, 8.0, GEOM.kappa_max * 0.999), S01,
         np.array([0.01, 0.5, 0.0, 0.0, 0.0])),
        (AgentConfig(0.0, 0.03, -2.9, -GEOM.kappa_max_uniform * 0.99, 20.0),
         S11, np.array([-0.3, 0.2, 0.0, 0.0, 0.0])),
        (AgentConfig(0.02, 0.01, 3.1, 12.0, -9.0), RIGID,
         np.array([0.0, 0.0, 0.04, -0.03, 0.8])),
    ]
    flags = []
    for q, s, ups in cases:
        bound = s.kappa_bound(GEOM)
        arr = as_array(q) + 0.5 * (hybrid_jacobian(q, s, GEOM) @ ups)
        expect = np.concatenate([arr[:3], np.clip(arr[3:], -bound, bound)])
        expect[2] = AgentConfig(0.0, 0.0, arr[2], 0.0, 0.0).phi
        q1, saturated = fk_step_detailed(q, s, ups, 0.5, GEOM)
        assert saturated == bool(np.max(np.abs(arr[3:])) > bound + 1e-12)
        np.testing.assert_allclose(as_array(q1), expect, rtol=1e-13, atol=0)
        flags.append(saturated)
    assert flags == [True, True, False]
    # each rate is a sum from +0.0, so a curvature of -0.0 that the step
    # leaves in place comes out as +0.0 under either regime
    still = AgentConfig(0.0, 0.0, 0.0, -0.0, -0.0)
    for s, ups in ((RIGID, (0.0, 0.0, -0.1, -0.1, -0.1)),
                   (S01, (-0.1, -0.1, 0.0, 0.0, 0.0))):
        q1 = fk_step_detailed(still, s, ups, 0.05, GEOM)[0]
        assert math.copysign(1.0, q1.kappa1) == 1.0, s.label()


def test_rk4_converges_to_euler_for_small_dt():
    q = AgentConfig(0.0, 0.0, 0.0, 5.0, 5.0)
    ups = np.array([0.03, 0.0, 0.0, 0.0, 0.0])
    qe = fk_step_detailed(q, S01, ups, 1e-6, GEOM)[0]
    qr = rk4_step(q, S01, ups, 1e-6, GEOM)[0]
    np.testing.assert_allclose(as_array(qe), as_array(qr), atol=1e-12)


def test_step_rejects_bad_inputs():
    q = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ContractError):
        fk_step_detailed(q, RIGID, np.zeros(4), 0.05, GEOM)
    with pytest.raises(ContractError):
        fk_step_detailed(q, RIGID, np.zeros(5), 0.0, GEOM)


def test_curvature_clipping_flags_saturation():
    q = AgentConfig(0.0, 0.0, 0.0, 0.0, GEOM.kappa_max * 0.999)
    ups = np.array([0.0, 0.5, 0.0, 0.0, 0.0])  # winds kappa2 hard
    q1, saturated = fk_step_detailed(q, S01, ups, 0.5, GEOM)
    assert saturated
    assert abs(q1.kappa2) <= GEOM.kappa_max
    # the equal-bend pattern saturates at the tighter shared bound
    q = AgentConfig(0.0, 0.0, 0.0, GEOM.kappa_max_uniform * 0.999,
                    GEOM.kappa_max_uniform * 0.999)
    q1, saturated = fk_step_detailed(q, S11, ups, 0.5, GEOM)
    assert saturated
    assert abs(q1.kappa1) <= GEOM.kappa_max_uniform
    assert abs(q1.kappa2) <= GEOM.kappa_max_uniform


def test_clamp_bound_is_the_pattern_kappa_bound():
    q = AgentConfig(0.0, 0.0, 0.0, 2 * GEOM.kappa_max, -2 * GEOM.kappa_max)
    for s in STIFFNESS_STATES:
        bound = s.kappa_bound(GEOM)
        zero_cols = ((0.0,) * 5,) * len(s.inputs)
        q1, saturated = fk_step_detailed(q, s, np.zeros(5), 0.05, GEOM,
                                         cols=zero_cols)
        assert saturated
        assert (q1.kappa1, q1.kappa2) == (bound, -bound), s.label()
    assert [s.kappa_bound(GEOM) for s in STIFFNESS_STATES] == [
        GEOM.kappa_max, GEOM.kappa_max, GEOM.kappa_max, GEOM.kappa_max_uniform]


def test_rollout_without_gating_replays_plan():
    plan = small_plan()
    traj = rollout(plan, thermal_gating=False)
    assert not any(row.paused for row in traj.rows)
    assert len(traj.rows) == len(plan.steps) + 1
    assert traj.final_config == plan.final_config
    assert [row.config for row in traj.rows[:-1]] == [
        step.config for step in plan.steps]


def test_rollout_gating_pauses_at_stiffness_changes():
    plan = small_plan()
    labels = [lab for lab, _ in plan.runs()]
    assert len(labels) >= 2  # needs at least one switch to exercise gating
    traj = rollout(plan)
    blocks = traj.pause_blocks()
    boundaries = len(labels) - 1 + (1 if labels[0] != "00" else 0)
    assert len(blocks) == boundaries
    # motion rows reproduce the plan exactly despite the inserted pauses:
    # each carries its step's configuration, pattern, inputs and clamp flag
    moving = [r for r in traj.rows[:-1] if not r.paused]
    assert [(r.config, r.stiffness, r.speeds, r.saturated)
            for r in moving] == [(st.config, st.stiffness, st.speeds,
                                  st.saturated) for st in plan.steps]
    assert traj.final_config == plan.final_config
    # paused rows freeze the configuration and command zero speeds
    for start, count in blocks:
        for row in traj.rows[start:start + count]:
            assert row.speeds == (0.0,) * 5


def test_rollout_thermal_phases_track_commands():
    plan = small_plan()
    traj = rollout(plan)
    for row in traj.rows:
        if row.paused:
            continue
        assert row.phase1 == (PHASE_SOFT if row.stiffness.soft1 else PHASE_RIGID)
        assert row.phase2 == (PHASE_SOFT if row.stiffness.soft2 else PHASE_RIGID)
    temps = [row.temp1 for row in traj.rows] + [row.temp2 for row in traj.rows]
    assert max(temps) < ThermalParams().sensor_t_hi


def test_rollout_matches_the_public_thermal_chain():
    # every row, the last included, shows each segment's state before the
    # row's step and the duty that step applies, as a chain of setpoint_for
    # and loop_step gives them
    plan = two_switch_plan()
    assert plan.n_switches >= 2
    params = ThermalParams()
    traj = rollout(plan, thermal_params=params)
    assert len(traj.pause_blocks()) >= 2
    dt = plan.params.dt
    states = [initial_state(params), initial_state(params)]
    commanded = None
    for row in traj.rows:
        if row.stiffness != commanded:
            commanded = row.stiffness
            states = [(temp, setpoint_for(soft, params), integral, phase)
                      for (temp, _, integral, phase), soft
                      in zip(states, (commanded.soft1, commanded.soft2))]
        expected = []
        for j, (temp, setpoint, integral, phase) in enumerate(states):
            after, integral_after, phase_after, applied = loop_step(
                temp, setpoint, integral, phase, params, dt)
            states[j] = (after, setpoint, integral_after, phase_after)
            expected.append((temp, applied, phase))
        assert [(row.temp1, row.duty1, row.phase1),
                (row.temp2, row.duty2, row.phase2)] == expected


def test_rollout_times_out_on_tiny_budget():
    plan = small_plan()
    budget = 0.2
    with pytest.raises(ThermalTimeoutError) as info:
        rollout(plan, max_wait=budget)
    # the first pause runs out of budget: the error reports the wait so far
    # and the temperatures of the row that would have paused next
    dt = plan.params.dt
    waited, paused = 0.0, 0
    while waited < budget:
        waited += dt
        paused += 1
    traj = rollout(plan)
    start, count = traj.pause_blocks()[0]
    assert count > paused
    row = traj.rows[start + paused]
    assert info.value.elapsed == waited
    assert info.value.temperatures == (row.temp1, row.temp2)


def test_rollout_time_axis_is_uniform():
    plan = small_plan()
    traj = rollout(plan)
    ts = [row.t for row in traj.rows]
    steps = np.diff(ts)
    np.testing.assert_allclose(steps, plan.params.dt, atol=1e-12)


def test_pause_blocks_and_runs_bookkeeping():
    from softrig.simulator import SimRow

    q = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    zero = np.zeros(5)

    def row(paused, s):
        return SimRow(0.0, q, s, zero, 25.0, 0.0, PHASE_RIGID,
                      25.0, 0.0, PHASE_RIGID, paused, False)

    rows = [row(True, S01), row(True, S01), row(False, S01),
            row(False, S01), row(True, RIGID), row(False, RIGID),
            row(False, RIGID)]
    traj = Trajectory(rows=rows)
    assert traj.pause_blocks() == [(0, 2), (4, 1)]
    assert traj.final_config == q
    assert Trajectory(rows=rows[2:4]).pause_blocks() == []

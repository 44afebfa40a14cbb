"""Acceptance suite: the toolkit's release-gating guarantees.

One test per requirement, tolerances inline.  The planner study (a fixed
batch of 100 seeded random scenarios) is computed once and shared by the
convergence and progress-curve checks.
"""
import math
import time

import numpy as np
import pytest

from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              StiffnessState, wrap_angle)
from softrig.planner import (PlannerParams, config_error, plan_motion,
                             weighted_distance)
from softrig.scenario import example_scenario_dict, sample_scenario
from softrig.simulator import rollout
from softrig.spiral import SPIRALS, refit_oracle
from softrig.thermal import (ThermalParams, initial_state, loop_step,
                             setpoint_for, transition_time)
from softrig.wheelmodel import body_twist_from_wheels, config_matrix

from conftest import as_array, fk_reference, hybrid_jacobian, rk4_step

GEOM = GeometryParams()
ONES = (1.0,) * 5

N_STUDY = 100


@pytest.fixture(scope="module")
def study():
    """100-seed planner study under the unweighted metric, plus playback."""
    rng = np.random.default_rng(0)
    params = PlannerParams.unweighted()
    scenarios = [sample_scenario(rng, index=i) for i in range(N_STUDY)]
    t0 = time.perf_counter()
    plans = []
    for scn in scenarios:
        try:
            plans.append(plan_motion(scn.q0, scn.target, GEOM, params))
        except Exception:
            plans.append(None)
    plan_time = time.perf_counter() - t0
    rollouts = {}
    for i, plan in enumerate(plans):
        if plan is not None and plan.converged:
            rollouts[i] = rollout(plan)
    return {"scenarios": scenarios, "plans": plans, "rollouts": rollouts,
            "plan_time": plan_time}


def test_01_spiral_refit_accuracy():
    # geometric refit lands within 5% of the model table, under 5 seconds
    t0 = time.perf_counter()
    fits = refit_oracle([sp.mode for sp in SPIRALS], GEOM, n_samples=200)
    for sp, fit in zip(SPIRALS, fits):
        rel_a = abs(fit.a_over_l - sp.a_over_l) / sp.a_over_l
        rel_b = abs(abs(fit.b) - sp.b_mag) / sp.b_mag
        assert rel_a < 0.05, f"mode {sp.mode}: a off by {rel_a:.2%}"
        assert rel_b < 0.05, f"mode {sp.mode}: b off by {rel_b:.2%}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"refit took {elapsed:.2f}s"
    print(f"refit within 5% of the table in {elapsed:.2f}s: PASS")


def test_02_refit_scale_invariance():
    # dimensionless spiral constants drift < 1% across segment lengths
    scales = (0.01, 0.04, 0.1, 0.5, 1.0)
    for sp in SPIRALS:
        fits = [refit_oracle([sp.mode], GEOM.scaled(l), 200)[0] for l in scales]
        a = [f.a_over_l for f in fits]
        b = [abs(f.b) for f in fits]
        spread_a = (max(a) - min(a)) / min(a)
        spread_b = (max(b) - min(b)) / min(b)
        assert spread_a < 0.01, f"mode {sp.mode}: a spreads {spread_a:.2%}"
        assert spread_b < 0.01, f"mode {sp.mode}: b spreads {spread_b:.2%}"
    print(f"refit scale-invariant to <1% over l in {scales}: PASS")


def test_03_jacobian_matches_flow():
    # 200 random (config, stiffness, speed) triples: the Jacobian rate
    # matches the integrated flow to 1e-4 at dt=1e-5 and converges at
    # first order when dt shrinks tenfold; all inside 10 seconds
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    dt = 1e-5
    for _ in range(200):
        s = STIFFNESS_STATES[rng.integers(0, 4)]
        kb = s.kappa_bound(GEOM)
        q = AgentConfig(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(-0.8, 0.8) * kb,
                        rng.uniform(-0.8, 0.8) * kb)
        ups = np.zeros(5)
        if s.any_soft:
            ups[:2] = rng.uniform(-0.01, 0.01, 2)
        else:
            ups[2:] = rng.uniform(-0.01, 0.01, 3)
        rate = hybrid_jacobian(q, s, GEOM) @ ups

        def flow_error(step):
            q1, _ = rk4_step(q, s, ups, step, GEOM)
            diff = as_array(q1) - as_array(q)
            diff[2] = wrap_angle(diff[2])
            return float(np.linalg.norm(diff / step - rate))

        err = flow_error(dt)
        assert err <= 1e-4, f"flow mismatch {err:.3g} in state {s.label()}"
        err10 = flow_error(dt / 10)
        if err > 1e-8:
            assert err10 <= err / 5, (
                f"not first order: {err:.3g} -> {err10:.3g}")
        else:
            assert err10 <= 1e-8  # both already at the float noise floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"flow check took {elapsed:.2f}s"
    print(f"Jacobian matches the flow to 1e-4, first order, "
          f"{elapsed:.2f}s: PASS")


def test_04_near_side_drive_keeps_body_still():
    # the column of the unit winding its neighbouring segment has exactly
    # zero pose rows across the whole curvature range
    grid = np.linspace(-GEOM.kappa_max, GEOM.kappa_max, 100)
    for kap in grid:
        q = AgentConfig(0.02, -0.01, 0.5, kap, kap)
        col = hybrid_jacobian(q, StiffnessState(False, True), GEOM)[:, 1]
        assert col[0] == 0.0 and col[1] == 0.0 and col[2] == 0.0
        col = hybrid_jacobian(q, StiffnessState(True, False), GEOM)[:, 0]
        assert col[0] == 0.0 and col[1] == 0.0 and col[2] == 0.0
    print("stationary-side drive leaves the pose rows exactly zero: PASS")


def test_05_rigid_wheel_block_keeps_full_rank():
    # omnidirectional drive never degenerates over a 50 x 50 curvature grid
    grid = np.linspace(-GEOM.kappa_max, GEOM.kappa_max, 50)
    rigid = STIFFNESS_STATES[0]
    worst = 1.0
    for k1 in grid:
        for k2 in grid:
            q = AgentConfig(0.0, 0.0, 0.3, k1, k2)
            block = config_matrix(q, rigid, GEOM)[:, 2:]
            sv = np.linalg.svd(block, compute_uv=False)
            worst = min(worst, sv[2] / sv[0])
            assert np.linalg.matrix_rank(block) == 3
    print(f"rigid block rank 3 on the full grid "
          f"(worst sv ratio {worst:.1e}): PASS")


def test_06_wheel_map_pseudoinverse_round_trip():
    # V V+ V = V and active-regime inputs survive the wheel round trip
    rng = np.random.default_rng(2)
    for _ in range(100):
        s = STIFFNESS_STATES[rng.integers(0, 4)]
        kb = s.kappa_bound(GEOM)
        q = AgentConfig(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(-0.9, 0.9) * kb,
                        rng.uniform(-0.9, 0.9) * kb)
        v = config_matrix(q, s, GEOM)
        vp = np.linalg.pinv(v)
        assert np.max(np.abs(v @ vp @ v - v)) <= 1e-10
        ups = np.zeros(5)
        if s.any_soft:
            ups[:2] = rng.uniform(-0.05, 0.05, 2)
        else:
            ups[2:] = rng.uniform(-0.05, 0.05, 3)
        back = body_twist_from_wheels(q, s, v @ ups, GEOM)
        assert np.linalg.norm(back - ups) <= 1e-10
    print("wheel map pseudoinverse round trip to 1e-10: PASS")


def test_07_study_converges_and_finishes_rigid(study):
    # 100 seeded scenarios: >= 95% converge, >= 95% of those end in the
    # all-rigid pattern, >= 90% use at most four stiffness runs, < 60 s
    plans = [p for p in study["plans"] if p is not None]
    converged = [p for p in plans if p.converged]
    n_conv = len(converged)
    assert n_conv >= 0.95 * N_STUDY, f"only {n_conv}/{N_STUDY} converged"
    rigid_last = sum(1 for p in converged if p.runs()[-1][0] == "00")
    assert rigid_last >= 0.95 * n_conv, (
        f"only {rigid_last}/{n_conv} finished rigid")
    few_runs = sum(1 for p in converged if len(p.runs()) <= 4)
    assert few_runs >= 0.90 * n_conv, (
        f"only {few_runs}/{n_conv} used <= 4 runs")
    assert study["plan_time"] < 60.0, f"study took {study['plan_time']:.1f}s"
    print(f"study: {n_conv}/{N_STUDY} converged, {rigid_last} rigid-last, "
          f"{few_runs} with <=4 runs, {study['plan_time']:.1f}s: PASS")


def test_08_playback_beats_straight_line_reference(study):
    # distance-to-goal over the gated playback starts shallower than the
    # straight-line reference and drops below it before half the horizon,
    # for a majority of the converged seeds
    n_ok = 0
    for i, traj in study["rollouts"].items():
        target = study["scenarios"][i].target
        rows = traj.rows
        m = len(rows) - 1
        mp = np.array([weighted_distance(config_error(target, r.config), ONES)
                       for r in rows])
        fk = np.array(fk_reference(rows[0].config, target, m,
                                   weights=ONES)[1])
        k = max(1, round(0.05 * m))
        shallow = (mp[0] - mp[k]) < (fk[0] - fk[k])
        below = np.nonzero(mp < fk)[0]
        crossed = below.size > 0 and below[0] < 0.5 * m
        n_ok += shallow and crossed
    n_roll = len(study["rollouts"])
    assert n_roll > 0
    assert n_ok > 0.5 * n_roll, f"only {n_ok}/{n_roll} playback curves ok"
    print(f"playback curve shape ok for {n_ok}/{n_roll} seeds: PASS")


def test_09_thermal_behaviour(study):
    params = ThermalParams()
    # finite switching latency both ways
    t_soft = transition_time(params, to_soft=True)
    t_rigid = transition_time(params, to_soft=False)
    assert 0.0 < t_soft < 60.0 and 0.0 < t_rigid < 60.0
    # latency grows with the threshold gap
    gaps = []
    for melt in (45.0, 55.0, 62.0):
        p = ThermalParams(t_melt=melt, t_solid=melt - 7.0)
        gaps.append(transition_time(p, to_soft=True))
    assert gaps[0] < gaps[1] < gaps[2], f"latencies not monotone: {gaps}"
    # closed loop never crosses the sensor ceiling, in a long soft hold
    # and across every playback of the study
    temp, _, integral, phase = initial_state(params)
    setpoint = setpoint_for(True, params)
    peak = temp
    for _ in range(12000):
        temp, integral, phase, _ = loop_step(temp, setpoint, integral, phase,
                                             params, 0.01)
        peak = max(peak, temp)
    assert peak < params.sensor_t_hi, f"soft hold peaked at {peak:.1f}"
    for traj in study["rollouts"].values():
        for row in traj.rows:
            assert row.temp1 < params.sensor_t_hi
            assert row.temp2 < params.sensor_t_hi
    # exactly one pause block per stiffness boundary during playback
    for i, traj in study["rollouts"].items():
        labels = [lab for lab, _ in study["plans"][i].runs()]
        boundaries = len(labels) - 1 + (1 if labels[0] != "00" else 0)
        assert len(traj.pause_blocks()) == boundaries
    print(f"thermal: latency {t_soft:.1f}s/{t_rigid:.1f}s, monotone, "
          f"peak {peak:.1f} deg C, one pause per switch: PASS")


def test_10_reruns_are_byte_identical(tmp_path):
    # the same scenario twice gives byte-identical plan and trajectory files
    import json

    from softrig.cli import main

    scn_path = tmp_path / "scenario.json"
    scn_path.write_text(json.dumps(example_scenario_dict()))
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", str(scn_path), "--out", out_a]) == 0
    assert main(["run", str(scn_path), "--out", out_b]) == 0
    import os
    for name in ("plan.csv", "trajectory.csv"):
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs"
    print("identical scenario reruns are byte-identical: PASS")

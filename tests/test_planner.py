import dataclasses
import hashlib
import json
import math
from itertools import groupby

import numpy as np
import pytest

from softrig import cli, jacobian, planner
from softrig.errors import ContractError, DomainError, StallError
from softrig.geometry import STIFFNESS_STATES, AgentConfig, GeometryParams
from softrig.jacobian import active_columns
from softrig.planner import (PlannerParams, config_error, damped_speeds,
                             plan_motion, weighted_distance)
from softrig.scenario import sample_scenario

from conftest import as_array, fk_reference, hybrid_jacobian

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
    for s in STIFFNESS_STATES[:2]:
        ups = damped_speeds(active_columns(q, s, GEOM), s, (1.0,) * 5,
                            1.0, 1e-3)
        assert all(type(u) is float for u in ups)
        inactive = [i for i in range(5) if i not in s.inputs]
        assert all(ups[i] == 0.0 for i in inactive), s.label()


def test_damped_speeds_match_stacked_least_squares():
    # against lstsq of [Ja; mu I] u = [lam err; 0] on the active block Ja,
    # which never squares the block's conditioning; soft blocks pair a
    # curvature scale of 1e2 1/m with millimetre pose rates.  Besides random
    # bends, every pattern is tried on curvatures inside delta_coeff's
    # series branch (|kappa l| < 1e-3) and at the pattern's own bound.
    rng = np.random.default_rng(14)
    lam, mu = 1.0, 1e-3

    def random_config(kb):
        return AgentConfig(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                           rng.uniform(-math.pi, math.pi),
                           rng.uniform(-0.9, 0.9) * kb,
                           rng.uniform(-0.9, 0.9) * kb)

    def check(s, q, err):
        jac = hybrid_jacobian(q, s, GEOM)
        active = slice(0, 2) if s.any_soft else slice(2, 5)
        ja = jac[:, active]
        n = ja.shape[1]
        ref = np.linalg.lstsq(np.vstack([ja, mu * np.eye(n)]),
                              np.concatenate([lam * np.array(err),
                                              np.zeros(n)]),
                              rcond=None)[0]
        ups = np.array(damped_speeds(active_columns(q, s, GEOM), s, err,
                                     lam, mu))
        assert np.linalg.norm(ups[active] - ref) <= 1e-9 * np.linalg.norm(ref)
        inactive = np.ones(5, dtype=bool)
        inactive[active] = False
        assert np.all(ups[inactive] == 0.0)

    for _ in range(200):
        s = STIFFNESS_STATES[rng.integers(0, 4)]
        kb = s.kappa_bound(GEOM)
        q = random_config(kb)
        check(s, q, config_error(random_config(kb), q))
    series = 1e-3 / GEOM.seg_len
    for s in STIFFNESS_STATES:
        kb = s.kappa_bound(GEOM)
        for kappas in ((0.0, 0.0), (0.9 * series, -0.5 * series),
                       (kb, kb), (-kb, -kb), (kb, -kb), (-kb, 0.3 * series)):
            pose = random_config(kb)
            q = AgentConfig(pose.x, pose.y, pose.phi, *kappas)
            check(s, q, config_error(random_config(kb), q))


def plan_record(plan):
    return (plan.converged, plan.final_config, plan.distances,
            [(st.t, st.config, st.stiffness, st.speeds, st.saturated)
             for st in plan.steps])


def test_planning_makes_no_lapack_call(monkeypatch):
    # the step is closed form, so plans cannot depend on the LAPACK build
    rng = np.random.default_rng(3)
    problems = [(ORIGIN, AgentConfig(0.12, 0.08, 0.6, 20.0, -15.0))]
    problems += [(sc.q0, sc.target)
                 for sc in (sample_scenario(rng, i) for i in range(3))]
    presets = (PlannerParams(), PlannerParams.unweighted())
    expected = [plan_record(plan_motion(q0, target, GEOM, params))
                for q0, target in problems for params in presets]

    def no_lapack(*args, **kwargs):
        raise AssertionError("the planner called numpy.linalg")

    for name in ("solve", "lstsq", "inv", "pinv", "svd"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    got = [plan_record(plan_motion(q0, target, GEOM, params))
           for q0, target in problems for params in presets]
    assert got == expected


def test_each_step_builds_shared_terms_once(monkeypatch):
    # the candidates of a step share one heading rotation and at most one
    # arc derivative per segment, built when a soft pattern first needs it:
    # a step that tries only the rigid pattern builds none
    original_shared = jacobian.shared_terms
    original_cols = jacobian.active_columns
    original_delta = jacobian.delta_coeff
    steps = []

    def shared(q):
        steps.append({"soft_tried": False, "segments": []})
        return original_shared(q)

    def columns(q, s, geom, shared=None):
        steps[-1]["soft_tried"] |= s.any_soft
        return original_cols(q, s, geom, shared)

    def counted(q, j, geom, rot):
        assert rot == (math.cos(q.phi), math.sin(q.phi))
        steps[-1]["segments"].append(j)
        return original_delta(q, j, geom, rot)

    monkeypatch.setattr(planner, "shared_terms", shared)
    monkeypatch.setattr(planner, "active_columns", columns)
    monkeypatch.setattr(jacobian, "delta_coeff", counted)
    plan = plan_motion(ORIGIN, AgentConfig(0.12, 0.08, 0.6, 60.0, -40.0), GEOM)
    assert plan.converged and plan.steps
    assert len(steps) == len(plan.steps)
    for step in steps:
        assert len(step["segments"]) == len(set(step["segments"]))
        if not step["soft_tried"]:
            assert step["segments"] == []
    # both kinds of step occur, so neither rule holds vacuously
    assert any(step["segments"] for step in steps)
    assert any(not step["soft_tried"] for step in steps)


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
        assert step.speeds[:2] == (0.0, 0.0)


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
    assert len(plan.distances) == len(plan.steps) + 1


def test_planned_configs_hold_plain_floats():
    # every configuration field is a Python float, not a numpy scalar
    target = AgentConfig(0.12, 0.08, 0.6, 60.0, -40.0)
    plan = plan_motion(ORIGIN, target, GEOM)
    for q in [step.config for step in plan.steps] + [plan.final_config]:
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
    # no pattern gains a whole unit of distance in one step
    target = AgentConfig(0.1, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(StallError) as info:
        plan_motion(ORIGIN, target, GEOM,
                    PlannerParams(weights=(1.0,) * 5, eps_progress=1.0))
    # at the origin every pattern is reachable, and each one is listed
    assert set(info.value.diagnostics) == {"00", "01", "10", "11"}


def tried_patterns(monkeypatch):
    # one damped_speeds call per tried pattern; a step's candidates share
    # its error tuple, so consecutive equal errors group them by step, and
    # each step reads as the labels it tried, in order
    calls = []
    original = planner.damped_speeds

    def counted(cols, s, err, lam, mu):
        calls.append((err, s.label()))
        return original(cols, s, err, lam, mu)

    monkeypatch.setattr(planner, "damped_speeds", counted)
    return lambda: ["".join(label for _, label in run)
                    for _, run in groupby(calls, key=lambda call: call[0])]


def test_held_pattern_that_gains_is_tried_alone(monkeypatch):
    # the first step tries all four patterns; from then on the held rigid
    # pattern gains more than eps_progress every step and is tried alone
    per_step = tried_patterns(monkeypatch)
    plan = plan_motion(ORIGIN, AgentConfig(0.1, 0.0, 0.0, 0.0, 0.0), GEOM)
    assert plan.converged and len(plan.steps) > 1
    assert per_step() == ["00011011"] + ["00"] * (len(plan.steps) - 1)


def test_creep_then_stall_tries_every_pattern(monkeypatch):
    # steps 9-17 creep: the held 00 gains at most eps_progress and is kept,
    # so the others are tried only until 10 gains more; from step 10 that
    # witness of step 9 is tried first and passes again.  At step 27 the
    # held 10 still holds but nothing gains more than eps_progress, so
    # every pattern is tried once, the held one first, and the stall reads
    # as it did when every step tried every pattern (message and
    # diagnostics recorded then)
    per_step = tried_patterns(monkeypatch)
    with pytest.raises(StallError) as info:
        plan_motion(ORIGIN, AgentConfig(0.05, 0.0, 0.0, 40.0, 0.0), GEOM,
                    PlannerParams(eps_progress=1e-3))
    assert str(info.value) == ("no stiffness pattern makes progress at step "
                               "27 (distance 0.0320935)")
    assert info.value.diagnostics == {
        "00": 0.0006048651997018831, "01": 1.7196660762053284e-13,
        "10": 0.0009803716714505938, "11": 0.0005907627265757526}
    assert per_step() == (["00011011"] + ["00"] * 8 + ["000110"]
                          + ["0010"] * 8 + ["00011011"] + ["10"] * 8
                          + ["10000111"])


def test_unreachable_witness_is_not_tried(monkeypatch):
    # a scripted plant: each (configuration, pattern) listed moves to the
    # configuration given, any other trial leaves q where it is.  Step 1
    # creeps under the held 00 and 11 is the stall test's witness; step 2
    # bends kappa1 past pi/l under 10; step 3 creeps under the held 10, and
    # the witness 11, now past its bound, is not tried
    q0 = AgentConfig(1.0, 0.0, 0.0, 70.0, 0.0)
    q1 = AgentConfig(0.5, 0.0, 0.0, 70.0, 0.0)
    q2 = AgentConfig(0.49, 0.0, 0.0, 70.0, 0.0)
    q3 = AgentConfig(0.49, 0.0, 0.0, 99.0, 0.0)
    script = {(q0, "00"): q1, (q1, "00"): q2,
              (q1, "11"): AgentConfig(0.5, 0.0, 0.0, 72.0, 0.0),
              (q2, "10"): q3,
              (q3, "10"): AgentConfig(0.488, 0.0, 0.04, 99.0, 0.0),
              (q3, "00"): AgentConfig(0.0, 0.0, 0.0, 99.0, 0.0)}
    monkeypatch.setattr(
        planner, "fk_step_detailed",
        lambda q, s, ups, dt, geom, cols: (script.get((q, s.label()), q),
                                           False))
    per_step = tried_patterns(monkeypatch)
    target = AgentConfig(0.0, 0.0, 0.0, 100.0, 0.0)
    plan = plan_motion(q0, target, GEOM, PlannerParams(
        weights=(1.0,) * 5, eps_progress=1e-3, max_steps=4))
    assert [st.stiffness.label() for st in plan.steps] == ["00", "00", "10",
                                                           "10"]
    assert plan.steps[3].config == q3 and q3.kappa1 > GEOM.kappa_max_uniform
    assert per_step() == ["00011011", "00011011", "00011011", "1000"]


def test_curvature_beyond_bound_is_rejected():
    # within the scenario loader's 1e-9 slack is accepted; beyond it the
    # error names the configuration and the segment
    edge = AgentConfig(0.0, 0.0, 0.0, GEOM.kappa_max * (1 + 5e-10),
                       -GEOM.kappa_max * (1 + 5e-10))
    assert plan_motion(edge, edge, GEOM).converged
    for name, j in (("q0", 1), ("q0", 2), ("target", 1), ("target", 2)):
        kappas = [0.0, 0.0]
        kappas[j - 1] = GEOM.kappa_max * (1 + 2e-9) * (-1) ** j
        bad = AgentConfig(0.0, 0.0, 0.0, *kappas)
        q0, target = (bad, ORIGIN) if name == "q0" else (ORIGIN, bad)
        with pytest.raises(DomainError, match=f"{name}.kappa{j} "):
            plan_motion(q0, target, GEOM)
    with pytest.raises(DomainError, match="target.kappa1"):
        plan_motion(ORIGIN, AgentConfig(0.0, 0.0, 0.0, 1000.0, 0.0), GEOM)


def test_max_steps_returns_unconverged():
    target = AgentConfig(0.2, 0.1, 0.5, 80.0, -90.0)
    plan = plan_motion(ORIGIN, target, GEOM,
                       PlannerParams(weights=(1.0,) * 5, max_steps=5))
    assert not plan.converged
    assert len(plan.steps) == 5


def test_planning_is_deterministic():
    target = AgentConfig(0.07, -0.03, 0.3, 45.0, -25.0)
    a = plan_motion(ORIGIN, target, GEOM)
    b = plan_motion(ORIGIN, target, GEOM)
    assert len(a.steps) == len(b.steps)
    assert [st.config for st in a.steps] == [st.config for st in b.steps]
    assert a.final_config == b.final_config
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
    np.testing.assert_allclose(as_array(configs[-1]), as_array(target),
                               atol=1e-12)
    # linear interpolation in every coordinate makes the distance linear
    np.testing.assert_allclose(dists, dists[0] * np.linspace(1, 0, 11),
                               atol=1e-9)
    with pytest.raises(ContractError):
        fk_reference(ORIGIN, target, 0)


def scenario_file(tmp_path, label, q0, target):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"label": label, "q0": dataclasses.asdict(q0),
                                "target": dataclasses.asdict(target)}))
    return str(path)


def sampled_problem(index):
    # start and target of the index-th scenario of `run --batch` at seed 0
    rng = np.random.default_rng(0)
    for i in range(index + 1):
        scn = sample_scenario(rng, i)
    return scn.q0, scn.target


NEG_ZERO = AgentConfig(-0.0, -0.0, -0.0, -0.0, -0.0)
README_TARGET = AgentConfig(0.12, 0.08, 0.6, 20.0, -15.0)


@pytest.mark.parametrize("label, problem, preset, plan_digest, summary_digest", [
    # 480 steps: 139 creep steps (the held pattern kept on a gain of at
    # most eps_progress), 52 curvature-clamped steps, 11 out of reach past
    # the shared bound on 423 steps, and 2 steps where a held pattern that
    # still gains is let go because it no longer moves
    ("sample-006", sampled_problem(6), "unweighted",
     "f8be35adf8e8c82c206afbff31a11288fe397d13bc9b39bb7dcaa660e4663f9a",
     "b2cf5b83bfe1ded0bf623b45ca5288a730607e55fbda2763c6c1c76df3daabb2"),
    # the same kinds of step under the default weights: 274 steps, 106
    # creep, 10 clamped, 11 out of reach on 112
    ("sample-077", sampled_problem(77), "default",
     "08a4d247bf6f22908e1f45982f45fb3991bea1dbabe51d7a9e0e2f82e48d9d26",
     "82f4d9917ed85812b03a3344555bc8fdb7eae9960d751457aa25a5632548108d"),
    # a start of all -0.0: rates summed from +0.0 leave it as 0.0
    ("neg-zero-start", (NEG_ZERO, README_TARGET), "default",
     "097a62e844ff590fd29ab142bbea717481c94fc98ee9625f7c560c09e6d13d22",
     "1a9057f654a19ddf2524ec2f5b9b62956393a3496fa9f0d0821dbedab096db9e"),
], ids=["sample-006", "sample-077", "neg-zero-start"])
def test_plan_bytes_pinned(tmp_path, capsys, label, problem, preset,
                           plan_digest, summary_digest):
    # pinned digests: any change to a chosen pattern, a configuration or a
    # step count fails here
    out = tmp_path / "out"
    assert cli.main(["run", scenario_file(tmp_path, label, *problem),
                     "--out", str(out), "--preset", preset]) == cli.EXIT_OK
    capsys.readouterr()
    for name, digest in (("plan.csv", plan_digest),
                         ("summary.json", summary_digest)):
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name

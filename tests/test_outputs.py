import dataclasses
import hashlib
import json
import math
import os

import pytest

from softrig import __version__, outputs
from softrig.errors import DomainError
from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              StiffnessState)
from softrig.planner import PlannerParams, plan_motion
from softrig.scenario import example_scenario_dict, scenario_from_dict
from softrig.simulator import rollout
from softrig.spiral import refit_oracle
from softrig.thermal import ThermalParams

GEOM = GeometryParams()


TARGET = AgentConfig(0.05, 0.02, 0.2, 40.0, 0.0)


def make_plan(q0=AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)):
    return plan_motion(q0, TARGET, GEOM, PlannerParams())


def read_rows(path):
    lines = open(path).read().splitlines()
    assert lines[0] == f"# softrig {__version__}"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_plan_csv_layout(tmp_path):
    plan = make_plan()
    outputs.write_run_csvs(str(tmp_path), plan, rollout(plan), ThermalParams())
    header, rows = read_rows(str(tmp_path / "plan.csv"))
    assert header[:6] == ["t", "x", "y", "phi", "kappa1", "kappa2"]
    assert len(rows) == len(plan.steps) + 1
    # the terminal row carries the final configuration and zero speeds
    last = rows[-1]
    assert float(last[1]) == plan.final_config.x
    assert all(float(v) == 0.0 for v in last[8:])
    # repr formatting round-trips exactly
    assert float(rows[0][5]) == plan.steps[0].config.kappa2


def test_trajectory_and_thermal_csv(tmp_path):
    plan = make_plan()
    traj = rollout(plan)
    outputs.write_run_csvs(str(tmp_path), plan, traj, ThermalParams())
    header, rows = read_rows(str(tmp_path / "trajectory.csv"))
    assert header[-2:] == ["paused", "saturated"]
    assert len(rows) == len(traj.rows)
    assert sum(int(r[-2]) for r in rows) == sum(r.paused for r in traj.rows)
    header, rows = read_rows(str(tmp_path / "thermal.csv"))
    assert header == ["t", "segment", "T", "u", "phase", "setpoint"]
    assert len(rows) == 2 * len(traj.rows)
    assert {r[1] for r in rows} == {"1", "2"}
    setpoints = {float(r[5]) for r in rows}
    assert setpoints <= {25.0, 65.0}


def reference_csvs(plan, traj, params) -> dict:
    """The three run CSVs rebuilt cell by cell, each float as repr(float(v))."""
    def cells(*values):
        return [repr(float(v)) for v in values]

    def flags(*values):
        return [str(int(v)) for v in values]

    def table(columns, rows):
        lines = [f"# softrig {__version__}", ",".join(columns)]
        lines += [",".join(row) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    plan_rows = []
    for step in plan.steps:
        q, s = step.config, step.stiffness
        plan_rows.append(cells(step.t, q.x, q.y, q.phi, q.kappa1, q.kappa2)
                         + flags(s.soft1, s.soft2) + cells(*step.speeds))
    last = (plan.steps[-1].stiffness if plan.steps
            else StiffnessState(False, False))
    q = plan.final_config
    plan_rows.append(cells(len(plan.steps) * plan.params.dt, q.x, q.y, q.phi,
                           q.kappa1, q.kappa2)
                     + flags(last.soft1, last.soft2) + cells(*[0.0] * 5))
    traj_rows, thermal_rows = [], []
    for row in traj.rows:
        q, s = row.config, row.stiffness
        traj_rows.append(
            cells(row.t, q.x, q.y, q.phi, q.kappa1, q.kappa2)
            + flags(s.soft1, s.soft2) + cells(*row.speeds)
            + cells(row.temp1, row.duty1) + [row.phase1]
            + cells(row.temp2, row.duty2) + [row.phase2]
            + flags(row.paused, row.saturated))
        for seg, temp, duty, phase, soft in (
                ("1", row.temp1, row.duty1, row.phase1, s.soft1),
                ("2", row.temp2, row.duty2, row.phase2, s.soft2)):
            setpoint = params.setpoint_soft if soft else params.setpoint_rigid
            thermal_rows.append(cells(row.t)[:1] + [seg] + cells(temp, duty)
                                + [phase] + cells(setpoint))
    return {
        "plan.csv": table(["t", "x", "y", "phi", "kappa1", "kappa2", "s1",
                           "s2", "v1", "v2", "u0", "v0", "r0"], plan_rows),
        "trajectory.csv": table(
            ["t", "x", "y", "phi", "kappa1", "kappa2", "s1_cmd", "s2_cmd",
             "v1", "v2", "u0", "v0", "r0", "T1", "u1_duty", "phase1", "T2",
             "u2_duty", "phase2", "paused", "saturated"], traj_rows),
        "thermal.csv": table(["t", "segment", "T", "u", "phase", "setpoint"],
                             thermal_rows),
    }


def integer_scenario():
    """A scenario whose dt, soft setpoint and duty limit are JSON integers."""
    data = example_scenario_dict()
    data["planner"] = {"dt": 1, "eps_goal": 0.02}
    data["thermal"] = {"setpoint_soft": 65, "u_max": 1}
    return scenario_from_dict(json.loads(json.dumps(data)))


@pytest.mark.parametrize("case", ["gated", "ungated", "integers",
                                  "no_steps", "signed_zero"])
def test_run_csvs_match_reference_formatter(tmp_path, case):
    if case == "integers":
        scn = integer_scenario()
        assert type(scn.planner.dt) is int
        assert type(scn.thermal.setpoint_soft) is int
        assert type(scn.thermal.u_max) is int
        plan = plan_motion(scn.q0, scn.target, scn.geometry, scn.planner)
        params = scn.thermal
        traj = rollout(plan, thermal_params=params)
        # the duty clamps at the integer limit, so an int reaches the writer
        assert any(type(row.duty1) is int for row in traj.rows)
    else:
        # q0 at the target plans no step; -0.0 and 0.0 are equal and hash
        # alike, so only a cell told apart by identity keeps both
        q0 = {"no_steps": TARGET,
              "signed_zero": AgentConfig(-0.0, 0.0, 0.0, -0.0, 0.0)}.get(case)
        plan = make_plan() if q0 is None else make_plan(q0)
        params = ThermalParams()
        traj = rollout(plan, thermal_params=params,
                       thermal_gating=case != "ungated")
    assert (plan.steps == []) == (case == "no_steps")
    assert any(row.paused for row in traj.rows) == (
        case in ("gated", "integers", "signed_zero"))
    outputs.write_run_csvs(str(tmp_path), plan, traj, params)
    expected = reference_csvs(plan, traj, params)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name
    if case == "integers":
        assert b"\n1.0," in expected["plan.csv"]
        assert b",65.0\n" in expected["thermal.csv"]
    if case == "signed_zero":
        assert b"\n0.0,-0.0,0.0,0.0,-0.0,0.0," in expected["plan.csv"]


def test_write_json_stable_bytes(tmp_path):
    payload = {"b": 1.5, "a": [1, 2], "nested": {"y": 0.1, "x": None}}
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    outputs.write_json(p1, payload)
    outputs.write_json(p2, payload)
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    assert b1.endswith(b"\n")
    assert json.loads(b1) == payload


def test_sweep_csv_covers_all_modes(tmp_path):
    path = str(tmp_path / "sweep.csv")
    fits = refit_oracle((1, 2, 3), GEOM, 50)
    outputs.write_sweep_csv(path, fits, GEOM.seg_len)
    header, rows = read_rows(path)
    assert header == ["mode", "theta", "kappa", "x", "y"]
    assert len(rows) == 3 * 50
    assert {r[0] for r in rows} == {"1", "2", "3"}
    kappas = [float(r[2]) for r in rows if r[0] == "3"]
    assert min(kappas) == 0.0
    assert abs(max(kappas) - GEOM.kappa_max_uniform) < 1e-9


def test_sweep_csv_rejects_kappas_outside_the_theta_span(tmp_path):
    fit, = refit_oracle([3], GEOM, 50)
    # twice mode 3's bound leaves its theta span, from the middle sample on
    bad = dataclasses.replace(fit, kappas=fit.kappas * 2)
    path = tmp_path / "sweep.csv"
    with pytest.raises(DomainError):
        outputs.write_sweep_csv(str(path), [fit, bad], GEOM.seg_len)
    assert not path.exists()


def test_refit_json_report(tmp_path):
    path = str(tmp_path / "refit.json")
    fits = refit_oracle((1, 2, 3), GEOM, 120)
    report = outputs.write_refit_json(path, fits)
    on_disk = json.load(open(path))
    assert on_disk == json.loads(json.dumps(report))
    assert len(report["modes"]) == 3
    for entry in report["modes"]:
        assert entry["rel_err_a"] < 0.05
        assert entry["rel_err_b"] < 0.05


def test_render_frame_svg_structure():
    q = AgentConfig(0.05, -0.02, 0.4, 30.0, -50.0)
    svg = outputs.render_frame(q, StiffnessState(True, False), GEOM)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == 4  # one per wheel
    assert outputs.SOFT_COLOR in svg and outputs.RIGID_COLOR in svg
    # soft-only frame never shows the soft colour twice
    svg_rigid = outputs.render_frame(q, StiffnessState(False, False), GEOM)
    assert outputs.SOFT_COLOR not in svg_rigid


KMAX, KMAX_UNIFORM = GEOM.kappa_max, GEOM.kappa_max_uniform


@pytest.mark.parametrize("label, q, digest", [
    # a full-circle bend each way on both segments
    ("00", AgentConfig(0.1, -0.05, 1.2, KMAX, -KMAX),
     "fde3554339d34487af9b609030069c22f8e219ef0262d653d2df8923f1b615cf"),
    # near straight: arc_chord's series branch
    ("01", AgentConfig(-0.08, 0.03, -2.6, 1e-9, -1e-9),
     "cc483151917dc09111ac9995598e10fd459bd2046c1d461ef780fe3c1fafad5f"),
    ("10", AgentConfig(0.05, -0.02, 0.4, 30.0, -50.0),
     "cc77512d6c6ae7bd6fec2cd0c80c13cf9ac534cbcd8dcabbb7a0124aa06438a0"),
    ("11", AgentConfig(0.0, 0.12, 3.0, -KMAX_UNIFORM, 0.7 * KMAX_UNIFORM),
     "8afce24a110f67107e28e00c2b2ea384e9c43752150d5282abee4d91da61bb8e"),
])
def test_render_frame_bytes_pinned(label, q, digest):
    # pinned digests: any change to the drawn geometry or to its number
    # format fails here
    svg = outputs.render_frame(q, STIFFNESS_STATES[int(label, 2)], GEOM)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest

def test_save_keyframes(tmp_path):
    plan = make_plan()
    traj = rollout(plan, thermal_gating=False)
    out = str(tmp_path / "frames")
    paths = outputs.save_keyframes(traj, out, GEOM, every=40)
    expect = len(range(0, len(traj.rows) - 1, 40)) + 1
    assert len(paths) == expect
    assert all(os.path.exists(p) for p in paths)
    assert paths[-1].endswith(f"frame_{len(traj.rows) - 1:05d}.svg")
    head = open(paths[0]).read(100)
    assert head.startswith("<svg")


def test_save_keyframes_draws_each_distinct_frame_once(tmp_path,
                                                        monkeypatch):
    # a gated run that starts on the curvature bound with kappa2 = -0.0:
    # segment 1 bends back under 10 while segment 2 keeps -0.0, then 00
    # holds both.  Paused rows share their step's configuration object, so
    # several picks show the same frame; each is drawn once and written
    # for every pick that shows it
    q0 = AgentConfig(0.0, 0.0, 0.0, KMAX, -0.0)
    traj = rollout(make_plan(q0))
    rows = traj.rows
    out = str(tmp_path / "frames")
    draws = []
    render = outputs.render_frame

    def counted(q, s, geom):
        draws.append((id(q), s))
        return render(q, s, geom)

    monkeypatch.setattr(outputs, "render_frame", counted)
    paths = outputs.save_keyframes(traj, out, GEOM, every=3)
    picks = [*range(0, len(rows) - 1, 3), len(rows) - 1]
    shown = [rows[idx] for idx in picks]
    kappas = [k for row in shown for k in (row.config.kappa1,
                                            row.config.kappa2)]
    assert KMAX in kappas
    assert {math.copysign(1.0, k) for k in kappas if k == 0.0} == {1.0, -1.0}
    keys = [(id(row.config), row.stiffness) for row in shown]
    assert draws == list(dict.fromkeys(keys))
    assert len(draws) < len(picks)
    assert len(paths) == len(picks)
    for path, idx, row in zip(paths, picks, shown):
        assert path.endswith(f"frame_{idx:05d}.svg")
        with open(path, "rb") as fh:
            assert fh.read() == render(row.config, row.stiffness,
                                       GEOM).encode()

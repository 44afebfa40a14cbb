import json
import os

from softrig import __version__, outputs
from softrig.geometry import AgentConfig, GeometryParams, StiffnessState
from softrig.planner import PlannerParams, plan_motion
from softrig.simulator import rollout
from softrig.thermal import ThermalParams

GEOM = GeometryParams()


def make_plan():
    q0 = AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)
    target = AgentConfig(0.05, 0.02, 0.2, 40.0, 0.0)
    return plan_motion(q0, target, GEOM, PlannerParams())


def read_rows(path):
    lines = open(path).read().splitlines()
    assert lines[0] == f"# softrig {__version__}"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_plan_csv_layout(tmp_path):
    plan = make_plan()
    path = str(tmp_path / "plan.csv")
    outputs.write_plan_csv(path, plan)
    header, rows = read_rows(path)
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
    tpath = str(tmp_path / "trajectory.csv")
    outputs.write_trajectory_csv(tpath, traj)
    header, rows = read_rows(tpath)
    assert header[-2:] == ["paused", "saturated"]
    assert len(rows) == len(traj.rows)
    assert sum(int(r[-2]) for r in rows) == sum(r.paused for r in traj.rows)
    hpath = str(tmp_path / "thermal.csv")
    outputs.write_thermal_csv(hpath, traj, ThermalParams())
    header, rows = read_rows(hpath)
    assert header == ["t", "segment", "T", "u", "phase", "setpoint"]
    assert len(rows) == 2 * len(traj.rows)
    assert {r[1] for r in rows} == {"1", "2"}
    setpoints = {float(r[5]) for r in rows}
    assert setpoints <= {25.0, 65.0}


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
    outputs.write_sweep_csv(path, GEOM, n_samples=50)
    header, rows = read_rows(path)
    assert header == ["mode", "theta", "kappa", "x", "y"]
    assert len(rows) == 3 * 50
    assert {r[0] for r in rows} == {"1", "2", "3"}
    kappas = [float(r[2]) for r in rows if r[0] == "3"]
    assert min(kappas) == 0.0
    assert abs(max(kappas) - GEOM.kappa_max_uniform) < 1e-9


def test_refit_json_report(tmp_path):
    path = str(tmp_path / "refit.json")
    report = outputs.write_refit_json(path, GEOM, n_samples=120)
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

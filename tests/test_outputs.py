import dataclasses
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import pytest

from softrig import __version__, outputs
from softrig.geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                              StiffnessState)
from softrig.planner import PlannerParams, PlanResult, PlanStep, plan_motion
from softrig.scenario import scenario_from_dict
from softrig.simulator import SimRow, Trajectory, rollout
from softrig.spiral import refit_oracle, spiral_model
from softrig.thermal import PHASE_RIGID, ThermalParams, setpoint_for

from conftest import example_scenario_dict

GEOM = GeometryParams()


TARGET = AgentConfig(0.05, 0.02, 0.2, 40.0, 0.0)


def make_plan(q0=AgentConfig(0.0, 0.0, 0.0, 0.0, 0.0)):
    return plan_motion(q0, TARGET, GEOM, PlannerParams())


def read_rows(path):
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0] == f"# softrig {__version__}"
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_plan_csv_layout(tmp_path):
    plan = make_plan()
    outputs.write_run_csvs(str(tmp_path), plan, rollout(plan))
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
    # the thermal readings live in trajectory.csv only; no thermal.csv
    plan = make_plan()
    traj = rollout(plan)
    outputs.write_run_csvs(str(tmp_path), plan, traj)
    assert sorted(os.listdir(tmp_path)) == ["plan.csv", "trajectory.csv"]
    header, rows = read_rows(str(tmp_path / "trajectory.csv"))
    assert header[-8:] == ["T1", "u1_duty", "phase1", "T2", "u2_duty",
                           "phase2", "paused", "saturated"]
    assert len(rows) == len(traj.rows)
    assert sum(int(r[-2]) for r in rows) == sum(r.paused for r in traj.rows)
    # the setpoints follow from the commanded stiffness
    setpoints = {setpoint_for(r[header.index(f"s{j}_cmd")] == "1",
                              ThermalParams()) for r in rows for j in (1, 2)}
    assert setpoints == {25.0, 65.0}


def cells(*values):
    return [repr(float(v)) for v in values]


def plan_table(plan) -> list[tuple]:
    """(t, configuration, stiffness, speeds, saturated) of each plan row a
    playback row's step names: the steps, then the terminal row, which
    holds the final configuration at the last stiffness (00 for no steps)
    with zero speeds, unsaturated.  Row k is at time k * dt."""
    last = (plan.steps[-1].stiffness if plan.steps
            else StiffnessState(False, False))
    rows = [*plan.steps, (plan.final_config, last, (0.0,) * 5, False)]
    return [(k * plan.params.dt, *row) for k, row in enumerate(rows)]


def reference_csvs(plan, traj) -> dict:
    """The two run CSVs rebuilt cell by cell, each float as repr(float(v))."""
    def flags(*values):
        return [str(int(v)) for v in values]

    def table(columns, rows):
        lines = [f"# softrig {__version__}", ",".join(columns)]
        lines += [",".join(row) for row in rows]
        return ("\n".join(lines) + "\n").encode()

    table_rows = plan_table(plan)
    plan_rows = [cells(t, q.x, q.y, q.phi, q.kappa1, q.kappa2)
                 + flags(s.soft1, s.soft2) + cells(*speeds)
                 for t, q, s, speeds, _ in table_rows]
    traj_rows = []
    for row in traj.rows:
        _, q, s, speeds, saturated = table_rows[row.step]
        if row.paused:      # the drive stops and nothing is clamped
            speeds, saturated = (0.0,) * 5, False
        traj_rows.append(
            cells(row.t, q.x, q.y, q.phi, q.kappa1, q.kappa2)
            + flags(s.soft1, s.soft2) + cells(*speeds)
            + cells(row.temp1, row.duty1) + [row.phase1]
            + cells(row.temp2, row.duty2) + [row.phase2]
            + flags(row.paused, saturated))
    return {
        "plan.csv": table(["t", "x", "y", "phi", "kappa1", "kappa2", "s1",
                           "s2", "v1", "v2", "u0", "v0", "r0"], plan_rows),
        "trajectory.csv": table(
            ["t", "x", "y", "phi", "kappa1", "kappa2", "s1_cmd", "s2_cmd",
             "v1", "v2", "u0", "v0", "r0", "T1", "u1_duty", "phase1", "T2",
             "u2_duty", "phase2", "paused", "saturated"], traj_rows),
    }


def reference_thermal_rows(plan, traj, params) -> list[list[str]]:
    """The per-segment thermal table (t, segment, T, u, phase, setpoint),
    two rows per playback row, built from the trajectory's records."""
    table_rows = plan_table(plan)
    rows = []
    for row in traj.rows:
        s = table_rows[row.step][2]
        for seg, temp, duty, phase, soft in (
                ("1", row.temp1, row.duty1, row.phase1, s.soft1),
                ("2", row.temp2, row.duty2, row.phase2, s.soft2)):
            setpoint = params.setpoint_soft if soft else params.setpoint_rigid
            rows.append(cells(row.t) + [seg] + cells(temp, duty) + [phase]
                        + cells(setpoint))
    return rows


def thermal_rows_from_trajectory(path, params) -> list[list[str]]:
    """The same rows rebuilt from a written trajectory.csv alone, each
    setpoint from ``setpoint_for`` of the segment's commanded stiffness."""
    header, rows = read_rows(path)
    col = {name: i for i, name in enumerate(header)}
    return [[r[col["t"]], seg, r[col[f"T{seg}"]], r[col[f"u{seg}_duty"]],
             r[col[f"phase{seg}"]],
             *cells(setpoint_for(r[col[f"s{seg}_cmd"]] == "1", params))]
            for r in rows for seg in "12"]


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
        # alike, so a cell cache keyed by value would merge them
        q0 = {"no_steps": TARGET,
              "signed_zero": AgentConfig(-0.0, 0.0, 0.0, -0.0, 0.0)}.get(case)
        plan = make_plan() if q0 is None else make_plan(q0)
        params = ThermalParams()
        traj = rollout(plan, thermal_params=params,
                       thermal_gating=case != "ungated")
    assert (plan.steps == []) == (case == "no_steps")
    assert any(row.paused for row in traj.rows) == (
        case in ("gated", "integers", "signed_zero"))
    outputs.write_run_csvs(str(tmp_path), plan, traj)
    expected = reference_csvs(plan, traj)
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name
    # trajectory.csv and the setpoint rule alone rebuild the per-segment
    # thermal table, so no separate thermal file is needed
    thermal = thermal_rows_from_trajectory(str(tmp_path / "trajectory.csv"),
                                           params)
    assert thermal == reference_thermal_rows(plan, traj, params)
    if case == "integers":
        assert b"\n1.0," in expected["plan.csv"]
        # the integer duty limit reaches trajectory.csv as a float cell, as
        # the integer soft setpoint reaches the rebuilt rows
        header, rows = read_rows(str(tmp_path / "trajectory.csv"))
        assert "1.0" in {r[header.index("u1_duty")] for r in rows}
        assert "65.0" in {r[5] for r in thermal}
    if case == "signed_zero":
        assert b"\n0.0,-0.0,0.0,0.0,-0.0,0.0," in expected["plan.csv"]


def test_paused_row_stops_the_drive_and_clears_the_clamp_flag(tmp_path):
    # a paused row that waits for a saturated, driven step shows the step's
    # configuration and stiffness at zero speeds, with saturated 0; the
    # moving row of the same step shows its speeds and its flag
    q, s = AgentConfig(0.01, 0.02, 0.3, 10.0, -5.0), STIFFNESS_STATES[2]
    plan, traj = synthetic_run([(q, s), (q, s)], [0, 0, 1])
    plan.steps[0] = plan.steps[0]._replace(speeds=(0.5, -0.25, 0.0, 0.0, 0.0),
                                           saturated=True)
    traj.rows[0] = traj.rows[0]._replace(paused=True)
    outputs.write_run_csvs(str(tmp_path), plan, traj)
    expected = reference_csvs(plan, traj)
    for name, data in expected.items():
        assert (tmp_path / name).read_bytes() == data, name
    _, rows = read_rows(str(tmp_path / "trajectory.csv"))
    assert rows[0][8:13] == ["0.0"] * 5 and rows[0][-2:] == ["1", "0"]
    assert rows[1][8:10] == ["0.5", "-0.25"] and rows[1][-2:] == ["0", "1"]


def test_write_json_stable_bytes(tmp_path):
    payload = {"b": 1.5, "a": [1, 2], "nested": {"y": 0.1, "x": None}}
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    outputs.write_json(p1, payload)
    outputs.write_json(p2, payload)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        b1, b2 = f1.read(), f2.read()
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


def reference_sweep_csv(fits, seg_len) -> bytes:
    """sweep.csv rebuilt row by row, each column of each fit formatted on
    its own, each float as repr(float(v))."""
    lines = [f"# softrig {__version__}", "mode,theta,kappa,x,y"]
    for fit in fits:
        m = spiral_model(fit.mode).m
        thetas = [math.pi + kappa * seg_len / m
                  for kappa in fit.kappas.tolist()]
        lines += [",".join([str(fit.mode)] + [repr(float(v)) for v in row])
                  for row in zip(thetas, fit.kappas, *fit.points.T)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("case", ["repeated", "distinct", "signed_zero"])
def test_sweep_csv_matches_reference_formatter(tmp_path, case):
    # modes 1 and 2 sweep the same kappas and modes 1 and 3 the same thetas;
    # modes 2 and 3 share no column; a column equal to another but for the
    # sign of a zero is a column of its own
    fits = refit_oracle((1, 2, 3) if case == "repeated" else (2, 3), GEOM, 40)
    if case == "signed_zero":
        points = fits[0].points.copy()
        assert points[0, 1] == 0.0
        points[0, 1] = -points[0, 1]
        fits = [fits[0], dataclasses.replace(fits[0], points=points)]
    columns = [column.tobytes() for fit in fits
               for column in (fit.kappas, *fit.points.T)]
    assert (len(set(columns)) < len(columns)) == (case != "distinct")
    path = tmp_path / "sweep.csv"
    outputs.write_sweep_csv(str(path), fits, GEOM.seg_len)
    assert path.read_bytes() == reference_sweep_csv(fits, GEOM.seg_len)
    if case == "signed_zero":
        assert path.read_bytes().count(b",-0.0\n") == 1


def test_refit_json_report(tmp_path):
    path = str(tmp_path / "refit.json")
    fits = refit_oracle((1, 2, 3), GEOM, 120)
    report = outputs.write_refit_json(path, fits)
    with open(path) as f:
        on_disk = json.load(f)
    assert on_disk == json.loads(json.dumps(report))
    assert len(report["modes"]) == 3
    for entry in report["modes"]:
        assert entry["rel_err_a"] < 0.05
        assert entry["rel_err_b"] < 0.05


def frame_body(q, s):
    """The drawing of one frame, built afresh: the lines of its film-strip
    symbol."""
    return "\n".join(outputs._frame_body(
        q, s, outputs._shape(q.kappa1, q.kappa2, GEOM, outputs._limb)))


def render_frame(q, s):
    """One SVG snapshot of the agent pose, world box +-FRAME_WORLD metres:
    ``frame_body`` inside an <svg> of one frame's size."""
    size = outputs.FRAME_SIZE
    return "\n".join([f'<svg xmlns="{outputs.SVG_NS}" width="{size}" '
                      f'height="{size}" viewBox="0 0 {size} {size}">',
                      frame_body(q, s), "</svg>"])


def test_render_frame_svg_structure():
    q = AgentConfig(0.05, -0.02, 0.4, 30.0, -50.0)
    svg = render_frame(q, StiffnessState(True, False))
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert svg.count("<circle") == 4  # one per wheel
    assert outputs.SOFT_COLOR in svg and outputs.RIGID_COLOR in svg
    # soft-only frame never shows the soft colour twice
    svg_rigid = render_frame(q, StiffnessState(False, False))
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
    svg = render_frame(q, STIFFNESS_STATES[int(label, 2)])
    assert hashlib.sha256(svg.encode()).hexdigest() == digest

SVG = "{http://www.w3.org/2000/svg}"
XLINK_HREF = "{http://www.w3.org/1999/xlink}href"


def read_strip(path):
    """The symbols (id -> drawn body text) and uses (label, href) of a strip.

    The symbol bodies are cut from the file text, so they compare byte for
    byte; the structure comes from parsing it.
    """
    with open(path, encoding="ascii") as f:
        text = f.read()
    root = ET.fromstring(text)
    assert root.tag == f"{SVG}svg"
    (defs,) = root.findall(f"{SVG}defs")
    symbols = {}
    for sym in defs:
        assert sym.tag == f"{SVG}symbol"
        assert sym.get("viewBox") == "0 0 640 640"
        opening = f'<symbol id="{sym.get("id")}" viewBox="0 0 640 640">\n'
        body = text.split(opening, 1)[1].split("\n</symbol>", 1)[0]
        symbols[sym.get("id")] = body
    labels = [el.text for el in root.findall(f"{SVG}text")]
    hrefs = [el.get(XLINK_HREF) for el in root.findall(f"{SVG}use")]
    return symbols, list(zip(labels, hrefs))


def picked_rows(uses) -> list[int]:
    """The playback row index N of each ``row N, t = ...`` label, in strip
    order."""
    return [int(label.split(",")[0].removeprefix("row ")) for label, _ in uses]


def synthetic_run(frames, replayed):
    """A plan whose steps show the (configuration, stiffness) ``frames`` and
    a playback whose rows replay the steps ``replayed``, in order."""
    steps = [PlanStep(q, s, (0.0,) * 5, False) for q, s in frames]
    plan = PlanResult(PlannerParams(), steps, frames[-1][0], 1.0, False)
    rows = [SimRow(0.05 * n, k, 25.0, 0.0, PHASE_RIGID, 25.0, 0.0,
                   PHASE_RIGID, False) for n, k in enumerate(replayed)]
    return plan, Trajectory(rows)


def test_save_keyframes(tmp_path):
    plan = make_plan()
    traj = rollout(plan, thermal_gating=False)
    path = str(tmp_path / "keyframes.svg")
    outputs.save_keyframes(plan, traj, path, GEOM, every=40)
    assert os.listdir(tmp_path) == ["keyframes.svg"]
    symbols, uses = read_strip(path)
    picks = picked_rows(uses)
    assert picks == [*range(0, len(traj.rows) - 1, 40), len(traj.rows) - 1]
    table = plan_table(plan)
    for (label, href), idx in zip(uses, picks):
        row = traj.rows[idx]
        assert label == f"row {idx}, t = {row.t!r} s"
        # the last pick draws the terminal row
        _, q, s, _, _ = table[row.step]
        assert symbols[href.removeprefix("#")] == frame_body(q, s)


def test_save_keyframes_draws_each_distinct_frame_once(tmp_path,
                                                        monkeypatch):
    # a gated run that starts on the curvature bound with kappa2 = -0.0:
    # segment 1 bends back under 10 while segment 2 keeps -0.0, then 00
    # holds both.  Paused rows point at the step they wait to replay, so
    # several picks show the same frame; each is drawn once, as a symbol,
    # and every pick that shows it is a <use> of that symbol
    q0 = AgentConfig(0.0, 0.0, 0.0, KMAX, -0.0)
    plan = make_plan(q0)
    traj = rollout(plan)
    rows = traj.rows
    table = plan_table(plan)
    path = str(tmp_path / "keyframes.svg")
    draws = []
    body = outputs._frame_body

    def counted(q, s, shape):
        draws.append((id(q), s))
        return body(q, s, shape)

    monkeypatch.setattr(outputs, "_frame_body", counted)
    outputs.save_keyframes(plan, traj, path, GEOM, every=3)
    symbols, uses = read_strip(path)
    picks = picked_rows(uses)
    assert picks == [*range(0, len(rows) - 1, 3), len(rows) - 1]
    shown = [table[rows[idx].step][1:3] for idx in picks]
    kappas = [k for q, _ in shown for k in (q.kappa1, q.kappa2)]
    assert KMAX in kappas
    assert {math.copysign(1.0, k) for k in kappas if k == 0.0} == {1.0, -1.0}
    # each plan row drawn exactly once, as its own configuration object and
    # stiffness, in first-pick order
    keys = [rows[idx].step for idx in picks]
    distinct = list(dict.fromkeys(keys))
    assert draws == [(id(table[k][1]), table[k][2]) for k in distinct]
    assert len(draws) < len(picks)
    assert list(symbols) == [f"f{i}" for i in range(len(distinct))]
    # one <use> per pick, in pick order, each of its key's symbol
    assert [href for _, href in uses] == [
        f"#f{distinct.index(key)}" for key in keys]
    for (label, href), idx, (q, s) in zip(uses, picks, shown):
        assert label.startswith(f"row {idx}, ")
        assert symbols[href[1:]] == frame_body(q, s)
    # 0.0 and -0.0 stay apart: a row with kappa2 = +0.0 never shows the
    # symbol of a configuration with kappa2 = -0.0, nor the other way round
    sign_of = {}
    for (_, href), (q, _) in zip(uses, shown):
        if q.kappa2 == 0.0:
            sign = math.copysign(1.0, q.kappa2)
            assert sign_of.setdefault(href, sign) == sign
    assert set(sign_of.values()) == {1.0, -1.0}


def test_save_keyframes_keeps_signed_zeros_apart(tmp_path):
    # two plan rows equal by value but for kappa2 = -0.0 get a symbol each;
    # a pick that replays the first plan row again reuses its symbol
    plan, traj = synthetic_run(
        [(AgentConfig(0.0, 0.0, 0.0, 10.0, 0.0), STIFFNESS_STATES[0]),
         (AgentConfig(0.0, 0.0, 0.0, 10.0, -0.0), STIFFNESS_STATES[0])],
        [0, 1, 0])
    path = str(tmp_path / "keyframes.svg")
    outputs.save_keyframes(plan, traj, path, GEOM, every=1)
    symbols, uses = read_strip(path)
    assert [href for _, href in uses] == ["#f0", "#f1", "#f0"]
    assert len(symbols) == 2


def test_save_keyframes_builds_each_shape_once(tmp_path, monkeypatch):
    # four configurations, two poses of one shape (10, 5) and two shapes
    # equal but for kappa2's zero sign: three shapes from four segments,
    # each segment's arc and end pose built once, each shape's wheel layout
    # once
    configs = [AgentConfig(0.0, 0.0, 0.0, 10.0, 5.0),
               AgentConfig(0.05, 0.02, 0.3, 10.0, 5.0),
               AgentConfig(0.0, 0.0, 0.0, 10.0, -0.0),
               AgentConfig(-0.03, 0.01, 1.0, 10.0, 0.0)]
    calls = {"_arc_points": [], "cc_transform": [], "wheel_layout": []}
    for name, log in calls.items():
        def counted(*args, build=getattr(outputs, name), log=log):
            log.append(args[:2])
            return build(*args)
        monkeypatch.setattr(outputs, name, counted)
    frames = [(q, s) for q in configs for s in STIFFNESS_STATES[1:3]]
    plan, traj = synthetic_run(frames, range(len(frames)))
    path = str(tmp_path / "keyframes.svg")
    outputs.save_keyframes(plan, traj, path, GEOM, every=1)
    segments = [(10.0, 1.0, 1), (5.0, 1.0, 2), (0.0, -1.0, 2), (0.0, 1.0, 2)]
    for name in ("_arc_points", "cc_transform"):
        assert [(k, math.copysign(1.0, k), j)
                for k, j in calls[name]] == segments, name
    assert len(calls["wheel_layout"]) == 3
    # each of the eight frames is its own symbol, drawn as one frame is
    # drawn on its own
    monkeypatch.undo()
    symbols, uses = read_strip(path)
    assert len(symbols) == len(traj.rows)
    for (_, href), (q, s) in zip(uses, frames):
        assert symbols[href[1:]] == frame_body(q, s)

"""Deterministic file outputs: CSV tables, JSON summaries, SVG keyframes.

All writers format floats with repr, which round-trips exactly, so a rerun
with the same seed produces byte-identical files.  SVG frames draw the two
segments as sampled arcs coloured by stiffness (blue soft, red rigid) with
the wheel units as oriented blocks.
"""
from __future__ import annotations

import json
import math
import os

from . import __version__
from .geometry import (AgentConfig, GeometryParams, StiffnessState,
                       apply_pose, arc_chord, cc_transform, wheel_layout)
from .planner import PlanResult
from .simulator import Trajectory
from .spiral import spiral_model, theta_from_kappa
from .thermal import ThermalParams, setpoint_for

SOFT_COLOR = "#1f77b4"
RIGID_COLOR = "#d62728"
FRAME_SIZE = 640              # SVG frame side, pixels
FRAME_WORLD = 0.35            # half side of the drawn world box, metres


def _fmt(x: float) -> str:
    return repr(float(x))


def _header(columns) -> list[str]:
    return [f"# softrig {__version__}", ",".join(columns)]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _config_cells(q: AgentConfig) -> str:
    return ",".join(map(_fmt, (q.x, q.y, q.phi, q.kappa1, q.kappa2)))


def _speed_cells(speeds) -> str:
    return ",".join(map(_fmt, speeds))


def _once(fmt):
    """``fmt`` memoised by object identity, for one writer call.

    The objects come from the plan and trajectory being written, which
    hold them for the whole call, so no two of them share an id.
    """
    done: dict[int, str] = {}

    def cells(obj) -> str:
        text = done.get(id(obj))
        if text is None:
            text = done[id(obj)] = fmt(obj)
        return text

    return cells


def write_run_csvs(out_dir: str, plan: PlanResult, traj: Trajectory,
                   params: ThermalParams) -> None:
    """Write plan.csv, trajectory.csv and thermal.csv of one run.

    plan.csv has one row per planner step plus the terminal configuration;
    trajectory.csv one per playback row, with thermal readings and flags;
    thermal.csv two per playback row, one for each segment's plant.  Each
    value is formatted once: a plan step's configuration and speed cells
    serve its plan.csv row and every playback row that replays it (paused
    rows included), and a playback row's t, T and duty cells serve both
    trajectory.csv and thermal.csv.
    """
    config_cells = _once(_config_cells)
    speed_cells = _once(_speed_cells)
    lines = _header(["t", "x", "y", "phi", "kappa1", "kappa2", "s1", "s2",
                     "v1", "v2", "u0", "v0", "r0"])
    for step in plan.steps:
        s = step.stiffness
        lines.append(f"{_fmt(step.t)},{config_cells(step.config)},"
                     f"{int(s.soft1)},{int(s.soft2)},{speed_cells(step.speeds)}")
    last_s = plan.steps[-1].stiffness if plan.steps else StiffnessState(False, False)
    t_end = len(plan.steps) * plan.params.dt
    lines.append(f"{_fmt(t_end)},{config_cells(plan.final_config)},"
                 f"{int(last_s.soft1)},{int(last_s.soft2)},"
                 f"{_speed_cells((0.0,) * 5)}")
    _write_lines(os.path.join(out_dir, "plan.csv"), lines)

    traj_lines = _header(["t", "x", "y", "phi", "kappa1", "kappa2", "s1_cmd",
                          "s2_cmd", "v1", "v2", "u0", "v0", "r0", "T1",
                          "u1_duty", "phase1", "T2", "u2_duty", "phase2",
                          "paused", "saturated"])
    therm_lines = _header(["t", "segment", "T", "u", "phase", "setpoint"])
    setpoint = {soft: _fmt(setpoint_for(soft, params))
                for soft in (False, True)}
    for row in traj.rows:
        t, temp1, duty1, temp2, duty2 = map(
            _fmt, (row.t, row.temp1, row.duty1, row.temp2, row.duty2))
        s = row.stiffness
        traj_lines.append(
            f"{t},{config_cells(row.config)},{int(s.soft1)},{int(s.soft2)},"
            f"{speed_cells(row.speeds)},{temp1},{duty1},{row.phase1},"
            f"{temp2},{duty2},{row.phase2},{int(row.paused)},"
            f"{int(row.saturated)}")
        therm_lines.append(f"{t},1,{temp1},{duty1},{row.phase1},"
                           f"{setpoint[s.soft1]}")
        therm_lines.append(f"{t},2,{temp2},{duty2},{row.phase2},"
                           f"{setpoint[s.soft2]}")
    _write_lines(os.path.join(out_dir, "trajectory.csv"), traj_lines)
    _write_lines(os.path.join(out_dir, "thermal.csv"), therm_lines)


def write_sweep_csv(path: str, fits, seg_len: float) -> None:
    """Arc-geometry joint curves the spiral fits were made to, one mode each."""
    cols = ["mode", "theta", "kappa", "x", "y"]
    lines = _header(cols)
    for fit in fits:
        thetas = theta_from_kappa(fit.mode, fit.kappas, seg_len).tolist()
        for theta, kap, (px, py) in zip(thetas, fit.kappas.tolist(),
                                        fit.points.tolist()):
            lines.append(f"{fit.mode},{_fmt(theta)},{_fmt(kap)},{_fmt(px)},"
                         f"{_fmt(py)}")
    _write_lines(path, lines)


def write_refit_json(path: str, fits) -> dict:
    """Report refitted spirals against the model table."""
    report = {"version": __version__, "modes": []}
    for fit in fits:
        sp = spiral_model(fit.mode)
        report["modes"].append({
            "mode": sp.mode,
            "a_over_l": fit.a_over_l,
            "b": fit.b,
            "cx_over_l": fit.cx_over_l,
            "cy_over_l": fit.cy_over_l,
            "rms_residual": fit.rms_residual,
            "theta_span": fit.theta_span,
            "ref_a_over_l": sp.a_over_l,
            "ref_b_mag": sp.b_mag,
            "rel_err_a": abs(fit.a_over_l - sp.a_over_l) / sp.a_over_l,
            "rel_err_b": abs(abs(fit.b) - sp.b_mag) / sp.b_mag,
        })
    write_json(path, report)
    return report


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# SVG keyframes
# ---------------------------------------------------------------------------

def _arc_points(kappa: float, j: int, geom: GeometryParams, n: int = 24):
    sign = -1.0 if j == 1 else 1.0
    x0 = sign * geom.mid_link / 2
    pts = []
    for i in range(n + 1):
        cx, cy = arc_chord(kappa, geom.seg_len * i / n)
        pts.append((x0 + sign * cx, cy))
    return pts


def render_frame(q: AgentConfig, s: StiffnessState, geom: GeometryParams) -> str:
    """One SVG snapshot of the agent pose, world box +-FRAME_WORLD metres."""
    size, world = FRAME_SIZE, FRAME_WORLD
    scale = size / (2 * world)
    qx, qy = q.x, q.y
    c, sn = math.cos(q.phi), math.sin(q.phi)

    def pixels(pts):
        # body frame -> world -> pixels, in one pass per point
        return [((qx + c * x - sn * y + world) * scale,
                 (world - (qy + sn * x + c * y)) * scale) for x, y in pts]

    def path_of(pts):
        return " ".join(f"{'M' if i == 0 else 'L'}{px:.2f},{py:.2f}"
                        for i, (px, py) in enumerate(pixels(pts)))

    half_mid = geom.mid_link / 2
    ends = (cc_transform(q.kappa1, 1, geom), cc_transform(q.kappa2, 2, geom))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    parts.append(f'<path d="{path_of([(-half_mid, 0), (half_mid, 0)])}" '
                 f'stroke="#444444" stroke-width="4" fill="none"/>')
    for j, end in zip((1, 2), ends):
        color = SOFT_COLOR if s.soft(j) else RIGID_COLOR
        pts = _arc_points(q.kappa(j), j, geom)
        parts.append(f'<path d="{path_of(pts)}" stroke="{color}" '
                     f'stroke-width="3" fill="none"/>')
        # end link and wheel unit block ride the segment-end frame
        out = -1.0 if j == 1 else 1.0
        link = [end[:2], apply_pose(end, out * geom.end_link, 0.0)]
        parts.append(f'<path d="{path_of(link)}" '
                     f'stroke="#444444" stroke-width="4" fill="none"/>')
        half_a = geom.block_side / 2
        centre = out * (geom.end_link + half_a)
        corners = [apply_pose(end, centre + dx, dy) for dx, dy in
                   [(-half_a, -half_a), (half_a, -half_a),
                    (half_a, half_a), (-half_a, half_a), (-half_a, -half_a)]]
        parts.append(f'<path d="{path_of(corners)}" '
                     f'stroke="#222222" stroke-width="2" fill="none"/>')
    positions, headings = wheel_layout(*ends, geom)
    for (px, py), psi in zip(positions, headings):
        (wx, wy), (hx, hy) = pixels(
            [(px, py), (px + geom.wheel_radius * math.cos(psi),
                        py + geom.wheel_radius * math.sin(psi))])
        parts.append(f'<circle cx="{wx:.2f}" cy="{wy:.2f}" r="3.5" '
                     f'fill="#222222"/>')
        parts.append(f'<path d="M{wx:.2f},{wy:.2f} L{hx:.2f},{hy:.2f}" '
                     f'stroke="#222222" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_keyframes(traj: Trajectory, out_dir: str, geom: GeometryParams,
                   every: int = 50) -> list[str]:
    """Write every N-th trajectory row (plus the last) as an SVG file."""
    os.makedirs(out_dir, exist_ok=True)
    picks = list(range(0, len(traj.rows) - 1, max(1, every)))
    picks.append(len(traj.rows) - 1)
    paths = []
    for idx in picks:
        row = traj.rows[idx]
        path = os.path.join(out_dir, f"frame_{idx:05d}.svg")
        with open(path, "w", newline="\n") as fh:
            fh.write(render_frame(row.config, row.stiffness, geom))
        paths.append(path)
    return paths

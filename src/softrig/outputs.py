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

import numpy as np

from . import __version__
from .geometry import (AgentConfig, GeometryParams, StiffnessState,
                       arc_chord, cc_transform, wheel_poses_body)
from .planner import PlanResult
from .simulator import Trajectory
from .spiral import spiral_model, theta_from_kappa
from .thermal import ThermalParams

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


def _config_cells(q: AgentConfig) -> list[str]:
    return [_fmt(q.x), _fmt(q.y), _fmt(q.phi), _fmt(q.kappa1), _fmt(q.kappa2)]


def write_plan_csv(path: str, plan: PlanResult) -> None:
    """One row per planner step plus the terminal configuration."""
    cols = ["t", "x", "y", "phi", "kappa1", "kappa2", "s1", "s2",
            "v1", "v2", "u0", "v0", "r0"]
    lines = _header(cols)
    last_s = plan.steps[-1].stiffness if plan.steps else StiffnessState(False, False)
    for step in plan.steps:
        cells = [_fmt(step.t)] + _config_cells(step.config)
        cells += [str(int(step.stiffness.soft1)), str(int(step.stiffness.soft2))]
        cells += [_fmt(v) for v in step.speeds]
        lines.append(",".join(cells))
    t_end = len(plan.steps) * plan.params.dt
    cells = [_fmt(t_end)] + _config_cells(plan.final_config)
    cells += [str(int(last_s.soft1)), str(int(last_s.soft2))]
    cells += [_fmt(0.0)] * 5
    lines.append(",".join(cells))
    _write_lines(path, lines)


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """Full playback rows including thermal readings and flags."""
    cols = ["t", "x", "y", "phi", "kappa1", "kappa2", "s1_cmd", "s2_cmd",
            "v1", "v2", "u0", "v0", "r0", "T1", "u1_duty", "phase1",
            "T2", "u2_duty", "phase2", "paused", "saturated"]
    lines = _header(cols)
    for row in traj.rows:
        cells = [_fmt(row.t)] + _config_cells(row.config)
        cells += [str(int(row.stiffness.soft1)), str(int(row.stiffness.soft2))]
        cells += [_fmt(v) for v in row.speeds]
        cells += [_fmt(row.temp1), _fmt(row.duty1), row.phase1,
                  _fmt(row.temp2), _fmt(row.duty2), row.phase2,
                  str(int(row.paused)), str(int(row.saturated))]
        lines.append(",".join(cells))
    _write_lines(path, lines)


def write_thermal_csv(path: str, traj: Trajectory,
                      params: ThermalParams) -> None:
    """Per-segment thermal log, two rows per time stamp."""
    cols = ["t", "segment", "T", "u", "phase", "setpoint"]
    lines = _header(cols)
    for row in traj.rows:
        set1 = params.setpoint_soft if row.stiffness.soft1 else params.setpoint_rigid
        set2 = params.setpoint_soft if row.stiffness.soft2 else params.setpoint_rigid
        lines.append(",".join([_fmt(row.t), "1", _fmt(row.temp1),
                               _fmt(row.duty1), row.phase1, _fmt(set1)]))
        lines.append(",".join([_fmt(row.t), "2", _fmt(row.temp2),
                               _fmt(row.duty2), row.phase2, _fmt(set2)]))
    _write_lines(path, lines)


def write_sweep_csv(path: str, fits, seg_len: float) -> None:
    """Arc-geometry joint curves the spiral fits were made to, one mode each."""
    cols = ["mode", "theta", "kappa", "x", "y"]
    lines = _header(cols)
    for fit in fits:
        for kap, (px, py) in zip(fit.kappas, fit.points):
            theta = theta_from_kappa(fit.mode, kap, seg_len)
            lines.append(",".join([str(fit.mode), _fmt(theta), _fmt(kap),
                                   _fmt(px), _fmt(py)]))
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
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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

    def to_px(p):
        return ((p[0] + world) * scale, (world - p[1]) * scale)

    c, sn = math.cos(q.phi), math.sin(q.phi)

    def to_world(p):
        return (q.x + c * p[0] - sn * p[1], q.y + sn * p[0] + c * p[1])

    def path_of(pts):
        cells = []
        for i, p in enumerate(pts):
            px, py = to_px(to_world(p))
            cells.append(f"{'M' if i == 0 else 'L'}{px:.2f},{py:.2f}")
        return " ".join(cells)

    half_mid = geom.mid_link / 2
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    parts.append(f'<path d="{path_of([(-half_mid, 0), (half_mid, 0)])}" '
                 f'stroke="#444444" stroke-width="4" fill="none"/>')
    for j in (1, 2):
        color = SOFT_COLOR if s.soft(j) else RIGID_COLOR
        pts = _arc_points(q.kappa(j), j, geom)
        parts.append(f'<path d="{path_of(pts)}" stroke="{color}" '
                     f'stroke-width="3" fill="none"/>')
        # end link and wheel unit block ride the segment-end frame
        end = cc_transform(q.kappa(j), j, geom)
        out = -1.0 if j == 1 else 1.0
        link_a = end.apply(np.zeros(2))
        link_b = end.apply(np.array([out * geom.end_link, 0.0]))
        parts.append(f'<path d="{path_of([tuple(link_a), tuple(link_b)])}" '
                     f'stroke="#444444" stroke-width="4" fill="none"/>')
        half_a = geom.block_side / 2
        centre = np.array([out * (geom.end_link + half_a), 0.0])
        corners = [end.apply(centre + np.array(d)) for d in
                   [(-half_a, -half_a), (half_a, -half_a),
                    (half_a, half_a), (-half_a, half_a), (-half_a, -half_a)]]
        parts.append(f'<path d="{path_of([tuple(p) for p in corners])}" '
                     f'stroke="#222222" stroke-width="2" fill="none"/>')
    positions, headings = wheel_poses_body(q.kappa1, q.kappa2, geom)
    for (px, py), psi in zip(positions, headings):
        wx, wy = to_px(to_world((px, py)))
        parts.append(f'<circle cx="{wx:.2f}" cy="{wy:.2f}" r="3.5" '
                     f'fill="#222222"/>')
        hx, hy = to_px(to_world((px + geom.wheel_radius * math.cos(psi),
                                 py + geom.wheel_radius * math.sin(psi))))
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

"""Deterministic file outputs: CSV tables, JSON summaries, SVG keyframes.

All writers format floats with repr, which round-trips exactly, so a rerun
with the same seed produces byte-identical files.  The CSV writers unpack
their records into columns and format each float column in one pass;
``_fmt`` is the one place a float becomes a cell.  SVG frames draw the two
segments as sampled arcs coloured by stiffness (blue soft, red rigid) with
the wheel units as oriented blocks; a call draws each distinct frame once.
"""
from __future__ import annotations

import json
import math
import os
from itertools import chain, repeat
from operator import attrgetter, itemgetter

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


def _fmt(values) -> list[str]:
    """The float cells of ``values``, each repr(float(v)), in one pass."""
    return list(map(repr, map(float, values)))


def _flags(values) -> list[str]:
    return list(map(str, map(int, values)))


def _by_id(objs, getters, fmt=_fmt) -> list[str]:
    """The joined cells of each of ``objs``, one cell per getter.

    Each distinct object is formatted once, column by column, and told
    apart by identity, never by value: 0.0 == -0.0 and both hash alike.
    ``objs`` holds every object for the call, so no two share an id.
    """
    ids = list(map(id, objs))
    distinct = dict(zip(ids, objs))
    columns = [fmt(map(get, distinct.values())) for get in getters]
    text = dict(zip(distinct, map(",".join, zip(*columns))))
    return list(map(text.__getitem__, ids))


def _header(columns) -> list[str]:
    return [f"# softrig {__version__}", ",".join(columns)]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_run_csvs(out_dir: str, plan: PlanResult, traj: Trajectory,
                   params: ThermalParams) -> None:
    """Write plan.csv, trajectory.csv and thermal.csv of one run.

    plan.csv has one row per planner step plus the terminal configuration;
    trajectory.csv one per playback row, with thermal readings and flags;
    thermal.csv two per playback row, one for each segment's plant.  The
    steps and rows are unpacked into columns, and each float column is
    formatted in one pass.  A plan step's configuration and speed cells
    serve its plan.csv row and every playback row that replays it (paused
    rows included), keyed by object identity; a playback row's t, T and
    duty cells serve both trajectory.csv and thermal.csv.
    """
    steps = plan.steps
    t, configs, stiffs, speeds, _ = zip(*steps) if steps else ((),) * 5
    last_s = stiffs[-1] if steps else StiffnessState(False, False)
    (row_t, row_configs, row_stiffs, row_speeds, temp1, duty1, phase1,
     temp2, duty2, phase2, paused, saturated) = zip(*traj.rows)
    soft1, soft2 = attrgetter("soft1"), attrgetter("soft2")
    # the plan.csv rows (the steps, then the terminal row) come first, then
    # the playback rows
    n = len(steps) + 1
    configs = (*configs, plan.final_config, *row_configs)
    config_cells = _by_id(configs, map(attrgetter, ("x", "y", "phi",
                                                    "kappa1", "kappa2")))
    speeds = (*speeds, (0.0,) * 5, *row_speeds)
    speed_cells = _by_id(speeds, map(itemgetter, range(5)))
    stiffs = (*stiffs, last_s, *row_stiffs)
    flag_cells = _by_id(stiffs, (soft1, soft2), _flags)

    lines = _header(["t", "x", "y", "phi", "kappa1", "kappa2", "s1", "s2",
                     "v1", "v2", "u0", "v0", "r0"])
    lines += map(",".join, zip(_fmt((*t, len(steps) * plan.params.dt)),
                               config_cells[:n], flag_cells[:n],
                               speed_cells[:n]))
    _write_lines(os.path.join(out_dir, "plan.csv"), lines)

    row_t, temp1, duty1, temp2, duty2 = map(
        _fmt, (row_t, temp1, duty1, temp2, duty2))
    lines = _header(["t", "x", "y", "phi", "kappa1", "kappa2", "s1_cmd",
                     "s2_cmd", "v1", "v2", "u0", "v0", "r0", "T1", "u1_duty",
                     "phase1", "T2", "u2_duty", "phase2", "paused",
                     "saturated"])
    lines += map(",".join, zip(row_t, config_cells[n:], flag_cells[n:],
                               speed_cells[n:], temp1, duty1, phase1, temp2,
                               duty2, phase2, _flags(paused),
                               _flags(saturated)))
    _write_lines(os.path.join(out_dir, "trajectory.csv"), lines)

    rigid, soft_setpoint = _fmt((setpoint_for(False, params),
                                 setpoint_for(True, params)))
    setpoint = {False: rigid, True: soft_setpoint}.__getitem__
    seg1 = map(",".join, zip(row_t, repeat("1"), temp1, duty1, phase1,
                             map(setpoint, map(soft1, row_stiffs))))
    seg2 = map(",".join, zip(row_t, repeat("2"), temp2, duty2, phase2,
                             map(setpoint, map(soft2, row_stiffs))))
    lines = _header(["t", "segment", "T", "u", "phase", "setpoint"])
    lines += chain.from_iterable(zip(seg1, seg2))
    _write_lines(os.path.join(out_dir, "thermal.csv"), lines)


def write_sweep_csv(path: str, fits, seg_len: float) -> None:
    """Arc-geometry joint curves the spiral fits were made to, one mode each."""
    lines = _header(["mode", "theta", "kappa", "x", "y"])
    for fit in fits:
        thetas = theta_from_kappa(fit.mode, fit.kappas, seg_len)
        columns = (thetas, fit.kappas, *fit.points.T)
        lines += map(",".join, zip(repeat(f"{fit.mode}"), *(
            _fmt(column.tolist()) for column in columns)))
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
        # body frame -> world -> pixels, flat as (px0, py0, px1, py1, ...)
        flat = []
        for x, y in pts:
            flat += ((qx + c * x - sn * y + world) * scale,
                     (world - (qy + sn * x + c * y)) * scale)
        return tuple(flat)

    def path_of(pts):
        # one %-format per path; "%.2f" % v is f"{v:.2f}"
        return ("M%.2f,%.2f" + " L%.2f,%.2f" * (len(pts) - 1)) % pixels(pts)

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
        wx, wy, hx, hy = pixels(
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
    """Write every N-th trajectory row (plus the last) as an SVG file.

    Paused rows share their plan step's configuration object, so a frame
    is drawn and encoded once per distinct (configuration object,
    stiffness) of the call and written for every pick that shows it.
    """
    os.makedirs(out_dir, exist_ok=True)
    picks = list(range(0, len(traj.rows) - 1, max(1, every)))
    picks.append(len(traj.rows) - 1)
    frames = {}
    paths = []
    for idx in picks:
        row = traj.rows[idx]
        # by identity, which a paused row shares with its step; the key
        # never compares curvatures, so 0.0 and -0.0 are never merged
        key = (id(row.config), row.stiffness)
        svg = frames.get(key)
        if svg is None:
            svg = frames[key] = render_frame(row.config, row.stiffness,
                                             geom).encode("ascii")
        path = os.path.join(out_dir, f"frame_{idx:05d}.svg")
        with open(path, "wb") as fh:
            fh.write(svg)
        paths.append(path)
    return paths

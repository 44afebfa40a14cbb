"""Deterministic file outputs: CSV tables, JSON summaries, SVG keyframes.

All writers format floats with repr, which round-trips exactly, so a rerun
with the same seed produces byte-identical files.  The CSV writers unpack
their records into columns and format each float column in one pass;
``_fmt`` is the one place a float becomes a cell.  SVG frames draw the two
segments as sampled arcs coloured by stiffness (blue soft, red rigid) with
the wheel units as oriented blocks.  A run's keyframes are one SVG film
strip that draws each distinct frame once, as a symbol, and shows it with
one ``<use>`` per pick; each distinct body shape's geometry is built once
per strip.
"""
from __future__ import annotations

import json
import math
import os
from itertools import repeat
from operator import attrgetter, itemgetter

from . import __version__
from .geometry import (AgentConfig, GeometryParams, StiffnessState,
                       apply_pose, arc_chord, cc_transform, wheel_layout)
from .planner import PlanResult, PlanStep
from .simulator import Trajectory
from .spiral import spiral_model

SOFT_COLOR = "#1f77b4"
RIGID_COLOR = "#d62728"
FRAME_SIZE = 640              # SVG frame side, pixels
FRAME_WORLD = 0.35            # half side of the drawn world box, metres
STRIP_LABEL = 24              # label band above each film-strip frame, pixels
SVG_NS = "http://www.w3.org/2000/svg"
XLINK_NS = "http://www.w3.org/1999/xlink"


def _fmt(values) -> list[str]:
    """The float cells of ``values``, each repr(float(v)), in one pass."""
    return list(map(repr, map(float, values)))


_FLAG = {False: "0", True: "1"}.__getitem__


def _flags(values) -> list[str]:
    """The 0/1 cells of boolean ``values``."""
    return list(map(_FLAG, values))


def _header(columns) -> list[str]:
    return [f"# softrig {__version__}", ",".join(columns)]


def _write_lines(path: str, lines) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _plan_rows(plan: PlanResult) -> list[PlanStep]:
    """The plan's steps, then its terminal row: the final configuration at
    the last step's stiffness (``00`` for no steps), with zero speeds,
    unsaturated.  Plan row k is at time k * dt."""
    steps = plan.steps
    last = steps[-1].stiffness if steps else StiffnessState(False, False)
    return [*steps, PlanStep(plan.final_config, last, (0.0,) * 5, False)]


def write_run_csvs(out_dir: str, plan: PlanResult, traj: Trajectory) -> None:
    """Write plan.csv and trajectory.csv of one run.

    plan.csv has one row per plan row (``_plan_rows``); trajectory.csv one
    per playback row: the cells of the plan row it replays, then both
    segments' temperature, duty and phase and the row's flags.  A segment's
    setpoint is ``thermal.setpoint_for`` of its commanded stiffness (s1_cmd,
    s2_cmd), so no file repeats it.  Each float column is formatted in one
    pass, and each plan row once, whatever rows replay it.
    """
    configs, stiffs, speeds, saturated = zip(*_plan_rows(plan))
    dt = plan.params.dt
    fields = ("x", "y", "phi", "kappa1", "kappa2")
    states = list(map(",".join, zip(
        *(_fmt(map(attrgetter(name), configs)) for name in fields),
        *(_flags(map(attrgetter(f"soft{j}"), stiffs)) for j in (1, 2)))))
    drives = list(map(",".join, zip(*(_fmt(map(itemgetter(i), speeds))
                                      for i in range(5)))))
    lines = _header(["t", "x", "y", "phi", "kappa1", "kappa2", "s1", "s2",
                     "v1", "v2", "u0", "v0", "r0"])
    lines += map(",".join, zip(_fmt(k * dt for k in range(len(configs))),
                               states, drives))
    _write_lines(os.path.join(out_dir, "plan.csv"), lines)

    (row_t, row_steps, temp1, duty1, phase1, temp2, duty2, phase2,
     paused) = zip(*traj.rows)
    # cells[k][paused]: a paused row holds plan row k's configuration and
    # stiffness at zero speeds, unsaturated
    stopped = ",".join(_fmt((0.0,) * 5))
    cells = [((f"{state},{drive}", f"0,{flag}"), (f"{state},{stopped}", "1,0"))
             for state, drive, flag in zip(states, drives, _flags(saturated))]
    motion, flags = zip(*(cells[k][p] for k, p in zip(row_steps, paused)))
    lines = _header(["t", "x", "y", "phi", "kappa1", "kappa2", "s1_cmd",
                     "s2_cmd", "v1", "v2", "u0", "v0", "r0", "T1", "u1_duty",
                     "phase1", "T2", "u2_duty", "phase2", "paused",
                     "saturated"])
    lines += map(",".join, zip(_fmt(row_t), motion, _fmt(temp1), _fmt(duty1),
                               phase1, _fmt(temp2), _fmt(duty2), phase2,
                               flags))
    _write_lines(os.path.join(out_dir, "trajectory.csv"), lines)


def write_sweep_csv(path: str, fits, seg_len: float) -> None:
    """Arc-geometry joint curves the spiral fits were made to, one mode each."""
    lines = _header(["mode", "theta", "kappa", "x", "y"])
    # modes repeat columns (1 and 2 sweep the same kappas), so each distinct
    # one is formatted once, keyed by its bytes: 0.0 == -0.0 as values
    cells = {}
    for fit in fits:
        thetas = math.pi + fit.kappas * seg_len / spiral_model(fit.mode).m
        keyed = [(column.tobytes(), column)
                 for column in (thetas, fit.kappas, *fit.points.T)]
        for key, column in keyed:
            if key not in cells:
                cells[key] = _fmt(column.tolist())
        lines += map(",".join, zip(repeat(f"{fit.mode}"),
                                   *(cells[key] for key, _ in keyed)))
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


def _limb(kappa: float, j: int, geom: GeometryParams):
    """Segment j bent to ``kappa``, in the body frame: its end pose, and the
    points of its arc, its end link and its wheel block's outline."""
    end = cc_transform(kappa, j, geom)
    # end link and wheel unit block ride the segment-end frame
    out = -1.0 if j == 1 else 1.0
    link = [end[:2], apply_pose(end, out * geom.end_link, 0.0)]
    half_a = geom.block_side / 2
    centre = out * (geom.end_link + half_a)
    corners = [apply_pose(end, centre + dx, dy) for dx, dy in
               [(-half_a, -half_a), (half_a, -half_a),
                (half_a, half_a), (-half_a, half_a), (-half_a, -half_a)]]
    return end, (_arc_points(kappa, j, geom), link, corners)


def _shape(kappa1: float, kappa2: float, geom: GeometryParams, limb):
    """The body-frame geometry of one body shape, built by ``limb`` (``_limb``
    or a cache of it) per segment: the middle link's ends, each segment's
    arc, end link and block points, and each wheel's centre and heading
    tip."""
    (end1, paths1), (end2, paths2) = limb(kappa1, 1, geom), limb(kappa2, 2,
                                                                 geom)
    half_mid, r = geom.mid_link / 2, geom.wheel_radius
    positions, headings = wheel_layout(end1, end2, geom)
    wheels = [((px, py), (px + r * math.cos(psi), py + r * math.sin(psi)))
              for (px, py), psi in zip(positions, headings)]
    return [(-half_mid, 0), (half_mid, 0)], (paths1, paths2), wheels


def _frame_body(q: AgentConfig, s: StiffnessState, shape) -> list[str]:
    """The drawing of one frame: the lines of one film-strip ``<symbol>``.

    ``shape`` is ``_shape`` of the configuration's curvatures; the pose of
    ``q`` places it and ``s`` colours its segments.
    """
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

    mid, limbs, wheels = shape
    parts = [f'<rect width="{size}" height="{size}" fill="white"/>']
    parts.append(f'<path d="{path_of(mid)}" '
                 f'stroke="#444444" stroke-width="4" fill="none"/>')
    for j, (arc, link, corners) in zip((1, 2), limbs):
        color = SOFT_COLOR if s.soft(j) else RIGID_COLOR
        parts.append(f'<path d="{path_of(arc)}" stroke="{color}" '
                     f'stroke-width="3" fill="none"/>')
        parts.append(f'<path d="{path_of(link)}" '
                     f'stroke="#444444" stroke-width="4" fill="none"/>')
        parts.append(f'<path d="{path_of(corners)}" '
                     f'stroke="#222222" stroke-width="2" fill="none"/>')
    for wheel in wheels:
        wx, wy, hx, hy = pixels(wheel)
        parts.append(f'<circle cx="{wx:.2f}" cy="{wy:.2f}" r="3.5" '
                     f'fill="#222222"/>')
        parts.append(f'<path d="M{wx:.2f},{wy:.2f} L{hx:.2f},{hy:.2f}" '
                     f'stroke="#222222" stroke-width="1.5"/>')
    return parts


def save_keyframes(plan: PlanResult, traj: Trajectory, path: str,
                   geom: GeometryParams, every: int = 50) -> None:
    """Write every N-th row of the playback of ``plan`` (plus the last) as
    one SVG film strip.

    Each distinct plan row the picks replay is drawn once, as a
    ``<symbol>`` in ``<defs>``, in first-pick order; paused rows point at
    the plan row they wait to replay, so a repeated frame costs one
    ``<use>``.  Each distinct body shape (kappa1, kappa2) is built once,
    and each distinct segment (kappa, j) once, whatever pose shows it.  The
    strip stacks one ``<use>`` per pick, top to bottom, each under a label
    with its row index and time.
    """
    rows, plan_rows = traj.rows, _plan_rows(plan)
    picks = [*range(0, len(rows) - 1, max(1, every)), len(rows) - 1]
    size, cell = FRAME_SIZE, FRAME_SIZE + STRIP_LABEL
    height = len(picks) * cell
    # geometry keys carry each curvature's sign, since 0.0 == -0.0 and both
    # hash alike
    limbs, shapes, symbols = {}, {}, {}
    defs, strip = [], []

    def limb(kappa, j, geom):
        key = (kappa, math.copysign(1.0, kappa), j)
        if key not in limbs:
            limbs[key] = _limb(kappa, j, geom)
        return limbs[key]

    for n, (idx, t) in enumerate(zip(picks, _fmt(rows[i].t for i in picks))):
        step = rows[idx].step
        name = symbols.get(step)
        if name is None:
            name = symbols[step] = f"f{len(symbols)}"
            q, s, _, _ = plan_rows[step]
            form = (q.kappa1, math.copysign(1.0, q.kappa1),
                    q.kappa2, math.copysign(1.0, q.kappa2))
            if form not in shapes:
                shapes[form] = _shape(q.kappa1, q.kappa2, geom, limb)
            defs += (f'<symbol id="{name}" viewBox="0 0 {size} {size}">',
                     *_frame_body(q, s, shapes[form]), "</symbol>")
        y = n * cell
        strip += (f'<text x="8" y="{y + STRIP_LABEL - 7}" '
                  f'font-family="monospace" font-size="14">'
                  f'row {idx}, t = {t} s</text>',
                  f'<use xlink:href="#{name}" x="0" y="{y + STRIP_LABEL}" '
                  f'width="{size}" height="{size}"/>')
    lines = [f'<svg xmlns="{SVG_NS}" xmlns:xlink="{XLINK_NS}" '
             f'width="{size}" height="{height}" '
             f'viewBox="0 0 {size} {height}">',
             f'<rect width="{size}" height="{height}" fill="white"/>',
             "<defs>", *defs, "</defs>", *strip, "</svg>"]
    _write_lines(path, lines)

"""Output checks on the artifacts the softrig CLI writes.

Each check returns a list of problems (empty when the artifacts are
valid) together with what the benchmark reads from them: simulated
motion time, step and row counts, the wheel-limit audit, bytes written and
a digest of the files that reruns must reproduce byte for byte.
"""
from __future__ import annotations

import hashlib
import json
import os

from softrig import wheelmodel
from softrig.geometry import AgentConfig, GeometryParams, StiffnessState
from softrig.planner import PlannerParams
from softrig.spiral import SPIRALS

GEOM = GeometryParams()
EPS_GOAL = PlannerParams().eps_goal
REFIT_REL_TOL = 0.05      # acceptance gate 1: refit within 5% of the table
_BOUND_TOL = 1e-9

RUN_DIGEST_FILES = ("plan.csv", "trajectory.csv")
SWEEP_DIGEST_FILES = ("sweep.csv", "refit.json")


def digest(out_dir: str, names) -> str:
    h = hashlib.sha256()
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def tree_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(out_dir) for f in files)


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def wheel_audit(plan_csv: str) -> tuple[int, int]:
    """(planned steps, steps whose wheel rates exceed OMEGA_MAX_DEFAULT)."""
    cols, rows = _read_csv(plan_csv)
    ix = {c: i for i, c in enumerate(cols)}
    over = 0
    steps = rows[:-1]  # the last row is the terminal configuration
    for row in steps:
        q = AgentConfig(*(float(row[ix[c]]) for c in
                          ("x", "y", "phi", "kappa1", "kappa2")))
        s = StiffnessState(row[ix["s1"]] == "1", row[ix["s2"]] == "1")
        ups = [float(row[ix[c]]) for c in ("v1", "v2", "u0", "v0", "r0")]
        if wheelmodel.wheel_speeds(q, s, ups, GEOM).saturated:
            over += 1
    return len(steps), over


def check_run(out_dir: str) -> tuple[list[str], dict]:
    """Check one converged `softrig run` output directory."""
    problems = []
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    if not summary["converged"]:
        problems.append("summary.json: exit 0 but not converged")
    if not summary["final_error"] <= EPS_GOAL:
        problems.append(f"summary.json: final_error {summary['final_error']} "
                        f"> eps_goal {EPS_GOAL}")
    cols, rows = _read_csv(os.path.join(out_dir, "trajectory.csv"))
    ix = {c: i for i, c in enumerate(cols)}
    paused = 0
    for row in rows:
        both_soft = row[ix["s1_cmd"]] == "1" and row[ix["s2_cmd"]] == "1"
        bound = GEOM.kappa_max_uniform if both_soft else GEOM.kappa_max
        for c in ("kappa1", "kappa2"):
            if abs(float(row[ix[c]])) > bound * (1 + _BOUND_TOL):
                problems.append(f"trajectory.csv t={row[ix['t']]}: |{c}| = "
                                f"{row[ix[c]]} exceeds {bound}")
                break
        paused += row[ix["paused"]] == "1"
    steps, over = wheel_audit(os.path.join(out_dir, "plan.csv"))
    if steps != summary["n_steps"]:
        problems.append(f"plan.csv has {steps} steps, summary says "
                        f"{summary['n_steps']}")
    outcome = {"motion_s": float(rows[-1][ix["t"]]), "steps": steps,
               "rows": len(rows), "paused_rows": paused,
               "wheel_over": over}
    return problems, outcome


def check_study(out_dir: str, n_runs: int) -> list[int]:
    """Exit codes per scenario from study.json, validated against the call."""
    with open(os.path.join(out_dir, "study.json")) as fh:
        study = json.load(fh)
    exits = [run["exit"] for run in study["runs"]]
    if len(exits) != n_runs or study["n_runs"] != n_runs:
        raise ValueError(f"study.json lists {len(exits)} runs, expected {n_runs}")
    return exits


def check_sweep(out_dir: str) -> list[str]:
    """Gate 1 on refit.json: every mode within 5% of the SPIRALS table."""
    with open(os.path.join(out_dir, "refit.json")) as fh:
        report = json.load(fh)
    problems = []
    modes = {entry["mode"]: entry for entry in report["modes"]}
    for sp in SPIRALS:
        entry = modes.get(sp.mode)
        if entry is None:
            problems.append(f"refit.json: mode {sp.mode} missing")
            continue
        err_a = abs(entry["a_over_l"] - sp.a_over_l) / sp.a_over_l
        err_b = abs(abs(entry["b"]) - sp.b_mag) / sp.b_mag
        if not (err_a <= REFIT_REL_TOL and err_b <= REFIT_REL_TOL):
            problems.append(f"refit.json: mode {sp.mode} off the table by "
                            f"{err_a:.3%} (a/l), {err_b:.3%} (b)")
    _, rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    if {row[0] for row in rows} != {str(sp.mode) for sp in SPIRALS}:
        problems.append("sweep.csv does not cover every mode")
    return problems

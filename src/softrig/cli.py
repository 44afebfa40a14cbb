"""Command line front end.

softrig run [scenario.json] [--batch N] [--seed S] [--out DIR] ...
    plan a scenario (or a seeded batch of random ones), replay it through
    the thermal simulator and write plan/trajectory/thermal CSVs, a JSON
    summary and optional SVG keyframes.

softrig sweep [--out DIR] [--samples N]
    regenerate the deformation-mode joint curves from arc geometry, refit
    the spirals and write the sweep CSV plus a fit report.

Exit codes: 0 success, 2 bad input, 3 planner did not reach the goal,
4 thermal transition timed out.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__, outputs
from .errors import (FitError, ScenarioError, SoftrigError, StallError,
                     ThermalTimeoutError)
from .geometry import GeometryParams
from .planner import plan_motion
from .scenario import Scenario, load_scenario, sample_scenario
from .simulator import rollout
from .spiral import SPIRALS, refit_oracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGE = 3
EXIT_THERMAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softrig",
        description="planning and simulation for the stiffness-switching agent")
    parser.add_argument("--version", action="version",
                        version=f"softrig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="plan and simulate a scenario")
    run.add_argument("scenario", nargs="?", help="scenario JSON file")
    run.add_argument("--batch", type=int, metavar="N",
                     help="plan N random scenarios instead of a file")
    run.add_argument("--seed", type=int, default=0,
                     help="random seed for --batch (default 0)")
    run.add_argument("--out", default="out", metavar="DIR",
                     help="output directory (default ./out)")
    run.add_argument("--no-thermal", action="store_true",
                     help="skip thermal gating during playback")
    run.add_argument("--preset", choices=("default", "unweighted"),
                     default="default",
                     help="distance metric preset for the planner")
    run.add_argument("--keyframes", type=int, default=0, metavar="N",
                     help="write an SVG frame every N rows (0 = off)")
    run.add_argument("--max-wait", type=float, default=60.0,
                     help="thermal transition budget per switch, seconds")

    sweep = sub.add_parser("sweep",
                           help="regenerate and refit the mode joint curves")
    sweep.add_argument("--out", default="out", metavar="DIR",
                       help="output directory (default ./out)")
    sweep.add_argument("--samples", type=int, default=200, metavar="N",
                       help="sweep samples per mode (default 200)")
    return parser


def _apply_preset(scn: Scenario, args) -> Scenario:
    if args.preset == "unweighted":
        planner = dataclasses.replace(scn.planner, weights=(1.0,) * 5)
        scn = dataclasses.replace(scn, planner=planner)
    return scn


def _run_one(scn: Scenario, out_dir: str, args) -> int:
    os.makedirs(out_dir, exist_ok=True)
    try:
        plan = plan_motion(scn.q0, scn.target, scn.geometry, scn.planner)
    except StallError as exc:
        print(f"{scn.label}: stalled: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGE
    gating = scn.thermal_gating and not args.no_thermal
    try:
        traj = rollout(plan, thermal_params=scn.thermal,
                       thermal_gating=gating, max_wait=args.max_wait)
    except ThermalTimeoutError as exc:
        print(f"{scn.label}: thermal timeout: {exc}", file=sys.stderr)
        return EXIT_THERMAL
    outputs.write_plan_csv(os.path.join(out_dir, "plan.csv"), plan)
    outputs.write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), traj)
    outputs.write_thermal_csv(os.path.join(out_dir, "thermal.csv"), traj,
                              scn.thermal)
    summary = plan.summary()
    summary["label"] = scn.label
    summary["thermal_gating"] = gating
    summary["pause_blocks"] = len(traj.pause_blocks())
    summary["sim_rows"] = len(traj.rows)
    outputs.write_json(os.path.join(out_dir, "summary.json"), summary)
    if args.keyframes > 0:
        outputs.save_keyframes(traj, os.path.join(out_dir, "frames"),
                               scn.geometry, every=args.keyframes)
    state = "converged" if plan.converged else "did not converge"
    print(f"{scn.label}: {state} in {len(plan.steps)} steps, "
          f"{plan.n_switches} switches, final error {plan.final_error:.4g}")
    return EXIT_OK if plan.converged else EXIT_NO_CONVERGE


def _run_batch(args) -> int:
    if args.batch < 1:
        print("--batch must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    rng = np.random.default_rng(args.seed)
    results = []
    os.makedirs(args.out, exist_ok=True)
    for i in range(args.batch):
        scn = sample_scenario(rng, index=i)
        scn = _apply_preset(scn, args)
        code = _run_one(scn, os.path.join(args.out, f"run_{i:03d}"), args)
        results.append((scn.label, code))
    n_ok = sum(1 for _, code in results if code == EXIT_OK)
    study = {
        "seed": args.seed,
        "n_runs": args.batch,
        "n_converged": n_ok,
        "convergence_rate": n_ok / args.batch,
        "runs": [{"label": lab, "exit": code} for lab, code in results],
    }
    outputs.write_json(os.path.join(args.out, "study.json"), study)
    print(f"batch: {n_ok}/{args.batch} converged, study.json written")
    return EXIT_OK


def _cmd_run(args) -> int:
    if args.batch is not None:
        return _run_batch(args)
    if not args.scenario:
        print("need a scenario file or --batch N", file=sys.stderr)
        return EXIT_INPUT
    scn = load_scenario(args.scenario)
    scn = _apply_preset(scn, args)
    return _run_one(scn, args.out, args)


def _cmd_sweep(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    geom = GeometryParams()
    fits = [refit_oracle(sp.mode, geom, args.samples) for sp in SPIRALS]
    outputs.write_sweep_csv(os.path.join(args.out, "sweep.csv"), fits,
                            geom.seg_len)
    report = outputs.write_refit_json(os.path.join(args.out, "refit.json"),
                                      fits)
    for entry in report["modes"]:
        print(f"mode {entry['mode']}: a/l {entry['a_over_l']:.4f} "
              f"(ref {entry['ref_a_over_l']:.4f}), |b| {abs(entry['b']):.4f} "
              f"(ref {entry['ref_b_mag']:.4f})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGE
    except ThermalTimeoutError as exc:
        print(f"thermal timeout: {exc}", file=sys.stderr)
        return EXIT_THERMAL
    except StallError as exc:
        print(f"planner stalled: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGE
    except SoftrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

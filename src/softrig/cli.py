"""Command line front end.

softrig run [scenario.json] [--batch N] [--seed S] [--out DIR] ...
    plan a scenario (or a seeded batch of random ones), replay it through
    the thermal simulator and write the plan and trajectory CSVs (the
    trajectory carries both segments' thermal readings), a JSON summary and
    an optional SVG film strip of keyframes.

softrig sweep [--out DIR] [--samples N]
    regenerate the deformation-mode joint curves from arc geometry, refit
    the spirals and write the sweep CSV plus a fit report.

Exit codes: 0 success, 2 bad input (an --out that names a file, or lies
under one, included), 3 planner did not reach the goal, 4 thermal
transition timed out.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import __version__, outputs
from .errors import (ContractError, FitError, ScenarioError, SoftrigError,
                     StallError, ThermalTimeoutError)
from .geometry import GeometryParams
from .planner import PlannerParams, plan_motion
from .scenario import Scenario, load_scenario, sample_scenario
from .simulator import rollout
from .spiral import SPIRALS, refit_oracle

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGE = 3
EXIT_THERMAL = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args keeps no option value on it."""
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
    run.add_argument("--seed", type=int,
                     help="random seed for --batch (default 0)")
    run.add_argument("--out", default="out", metavar="DIR",
                     help="output directory (default ./out)")
    run.add_argument("--no-thermal", action="store_true",
                     help="skip thermal gating during playback")
    run.add_argument("--preset", choices=("default", "unweighted"),
                     default="default",
                     help="distance metric preset for the planner")
    run.add_argument("--keyframes", type=int, default=0, metavar="N",
                     help="draw every N-th row in keyframes.svg (0 = off)")
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
        planner = dataclasses.replace(
            scn.planner, weights=PlannerParams.unweighted().weights)
        scn = dataclasses.replace(scn, planner=planner)
    return scn


def _make_out_dir(path: str) -> None:
    """Create the output directory ``path`` and its parents; a path that
    cannot be one (empty, or a file at or above it) is bad input."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ContractError(f"--out {path}: cannot make a directory there "
                            f"({exc.strerror})") from None


def _run_one(scn: Scenario, out_dir: str, args) -> tuple[int, str, str]:
    """Plan, play back and write one scenario.

    Returns the exit code and the text the run prints on stdout and on
    stderr, so that a batch can print its runs in scenario order.
    """
    try:
        plan = plan_motion(scn.q0, scn.target, scn.geometry, scn.planner)
    except StallError as exc:
        # why: each tried pattern's gain, in pattern order ("00" to "11")
        gains = ", ".join(f"{label} {gain:.3e}" for label, gain
                          in sorted(exc.diagnostics.items()))
        return (EXIT_NO_CONVERGE, "",
                f"{scn.label}: stalled: {exc}; gains {gains}\n")
    gating = scn.thermal_gating and not args.no_thermal
    try:
        traj = rollout(plan, thermal_params=scn.thermal,
                       thermal_gating=gating, max_wait=args.max_wait)
    except ThermalTimeoutError as exc:
        return EXIT_THERMAL, "", f"{scn.label}: thermal timeout: {exc}\n"
    # a run that stalls or times out leaves no output directory
    _make_out_dir(out_dir)
    outputs.write_run_csvs(out_dir, plan, traj)
    summary = plan.summary()
    summary["label"] = scn.label
    summary["thermal_gating"] = gating
    summary["pause_blocks"] = len(traj.pause_blocks())
    summary["sim_rows"] = len(traj.rows)
    outputs.write_json(os.path.join(out_dir, "summary.json"), summary)
    if args.keyframes > 0:
        outputs.save_keyframes(plan, traj,
                               os.path.join(out_dir, "keyframes.svg"),
                               scn.geometry, every=args.keyframes)
    state = "converged" if plan.converged else "did not converge"
    line = (f"{scn.label}: {state} in {len(plan.steps)} steps, "
            f"{plan.n_switches} switches, final error {plan.final_error:.4g}\n")
    return EXIT_OK if plan.converged else EXIT_NO_CONVERGE, line, ""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_lane(scenarios: list[Scenario], lane: int, lanes: int, args):
    """Run scenarios lane, lane + lanes, ... in this process, in order.

    Yields one record per run: (index, label, exit code, stdout text,
    stderr text).  A run that raises SoftrigError (bad input, such as an
    --out under a file) ends the lane with the record (index, error).
    """
    for i in range(lane, len(scenarios), lanes):
        scn, out_dir = scenarios[i], os.path.join(args.out, f"run_{i:03d}")
        try:
            result = _run_one(scn, out_dir, args)
        except SoftrigError as exc:
            yield i, exc
            return
        yield i, scn.label, *result


def _fork_lane(scenarios: list[Scenario], lane: int, lanes: int,
               args) -> tuple[int, int]:
    """Run one lane in a forked child; return its pid and the pipe it
    sends its records down, one line per run, the record pickled as hex.

    The child sends its records once its lane has ended: the parent reads
    the pipe only after its own lane, and a lane that wrote as it went
    would stop at a full pipe with runs still to do.  Streams are flushed
    before the fork and the child leaves through os._exit, so no buffered
    line prints twice.  A child that fails prints its traceback and exits
    1 after sending the records it finished.
    """
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    os.close(read_fd)
    import pickle
    code, records = 1, []
    try:
        try:
            for record in _run_lane(scenarios, lane, lanes, args):
                records.append(record)
        finally:
            with open(write_fd, "w") as pipe:
                pipe.writelines(pickle.dumps(record).hex() + "\n"
                                for record in records)
        code = 0
    except BaseException:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _run_batch(args) -> int:
    import pickle

    import numpy as np
    if args.batch < 1:
        print("--batch must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    seed = 0 if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    scenarios = [_apply_preset(sample_scenario(rng, index=i), args)
                 for i in range(args.batch)]
    _make_out_dir(args.out)
    # one lane per usable CPU, this process being lane 0: each lane plans,
    # plays back and writes every lanes-th scenario
    lanes = min(_usable_cpus(), args.batch) if hasattr(os, "fork") else 1
    children, records, status = {}, [], {}
    try:
        for lane in range(1, lanes):
            children[lane] = _fork_lane(scenarios, lane, lanes, args)
        records += _run_lane(scenarios, 0, lanes, args)
    finally:
        for lane, (pid, read_fd) in children.items():
            # a lane killed mid-write leaves a partial last line
            with open(read_fd) as pipe:
                records += [pickle.loads(bytes.fromhex(line)) for line in pipe
                            if line.endswith("\n")]
            status[lane] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    records.sort()
    # in scenario order, the first run that failed ends the batch, as it
    # does in one process
    for i in range(args.batch):
        if i == len(records) or records[i][0] != i:
            raise ChildProcessError(
                f"run_{i:03d} failed: its lane process exited with status "
                f"{status[i % lanes]}")
        if len(records[i]) == 2:        # (index, error)
            raise records[i][1]
    for _, _, _, out, err in records:
        sys.stdout.write(out)
        sys.stderr.write(err)
    n_ok = sum(1 for record in records if record[2] == EXIT_OK)
    study = {
        "seed": seed,
        "n_runs": args.batch,
        "n_converged": n_ok,
        "convergence_rate": n_ok / args.batch,
        "runs": [{"label": label, "exit": code}
                 for _, label, code, _, _ in records],
    }
    outputs.write_json(os.path.join(args.out, "study.json"), study)
    print(f"batch: {n_ok}/{args.batch} converged, study.json written")
    return EXIT_OK


def _run_input_error(args) -> str | None:
    """What is wrong with the run options, or None when they hold."""
    if args.batch is not None and args.scenario:
        return "give a scenario file or --batch N, not both"
    if args.batch is None and not args.scenario:
        return "need a scenario file or --batch N"
    if args.seed is not None and args.batch is None:
        return "--seed seeds --batch only; a scenario file takes none"
    if args.seed is not None and args.seed < 0:
        return f"--seed must be 0 or more, got {args.seed}"
    if not math.isfinite(args.max_wait) or args.max_wait < 0:
        return f"--max-wait must be a finite number >= 0, got {args.max_wait:g}"
    if args.keyframes < 0:
        return f"--keyframes must be 0 (off) or more, got {args.keyframes}"
    return None


def _cmd_run(args) -> int:
    problem = _run_input_error(args)
    if problem is not None:
        print(problem, file=sys.stderr)
        return EXIT_INPUT
    if args.batch is not None:
        return _run_batch(args)
    scn = load_scenario(args.scenario)
    scn = _apply_preset(scn, args)
    code, out, err = _run_one(scn, args.out, args)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


def _cmd_sweep(args) -> int:
    geom = GeometryParams()
    fits = refit_oracle([sp.mode for sp in SPIRALS], geom, args.samples)
    _make_out_dir(args.out)
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
    args = _build_parser().parse_args(argv)
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
    except SoftrigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

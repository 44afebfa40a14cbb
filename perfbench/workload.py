"""One benchmark workload, run in a fresh single-threaded process.

Builds the workload's inputs from the seed, warms up with one untimed
call, then calls ``softrig.cli.main`` in a closed loop (the next call
starts when the previous one returns) and checks every call's artifacts
outside the timed region.  The first pass runs every input once; every
later pass repeats all of them in order and must reproduce the first
pass's artifacts byte for byte.

Modes:
  timed   whole passes until ``--seconds`` of call time have elapsed, at
          least MIN_PASSES, so every run times the same mix of inputs
  pass    exactly one untraced pass, the baseline for the traced one
  traced  exactly one pass with every softrig layer wrapped by the tracer

Every mode stops early, after the call in progress, once ``--budget`` wall
seconds have passed since the child started, so a slow program is still
measured on what it finished; the result says so.

Writes a JSON result file; ``run.py`` turns it into metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np
import scipy

import softrig
import softrig.cli
from softrig.scenario import sample_scenario

import checks
import refclock
from spans import Tracer

# The documented invocations (README): `run --batch 100` is the acceptance
# study, `--keyframes 50`, `sweep --samples 200`.  A 100-scenario call takes
# about 40 s on a 2-core VM, too long for two whole passes per run, so a
# batch call plans a quarter of the study; run.py checks, with
# `--batch-size 100`, that those are the first scenarios of the full call.
BATCH_CALLS = 1           # `run --batch 25` calls per pass
BATCH_SIZE = 25
SINGLE_CALLS = 50         # scenario files per pass
SINGLE_KEYFRAMES = 50
SWEEP_CALLS = 70          # `sweep --samples 200` calls per pass
SWEEP_SAMPLES = 200
MIN_PASSES = 2

def build_ops(workload: str, seed: int, inputs_dir: str,
              batch_size: int = BATCH_SIZE) -> list[tuple[list[str], int]]:
    """(argv without --out, scenarios or sweeps per call) for one pass."""
    rng = np.random.default_rng(seed)
    if workload == "batch":
        seeds = rng.integers(0, 2**31 - 1, size=BATCH_CALLS)
        return [(["run", "--batch", str(batch_size), "--seed", str(s),
                  "--preset", "unweighted"], batch_size) for s in seeds]
    if workload == "single":
        os.makedirs(inputs_dir, exist_ok=True)
        ops = []
        for i in range(SINGLE_CALLS):
            scn = sample_scenario(rng, index=i)
            path = os.path.join(inputs_dir, f"scenario_{i:03d}.json")
            with open(path, "w") as fh:
                json.dump({"label": scn.label,
                           "q0": dataclasses.asdict(scn.q0),
                           "target": dataclasses.asdict(scn.target),
                           "thermal_gating": scn.thermal_gating}, fh)
            ops.append((["run", path, "--keyframes", str(SINGLE_KEYFRAMES)], 1))
        return ops
    if workload == "sweep":
        # sweep takes no seed: every call is the same documented invocation
        return [(["sweep", "--samples", str(SWEEP_SAMPLES)], 1)] * SWEEP_CALLS
    raise ValueError(f"unknown workload {workload!r}")


def warmup_argv(workload: str, argv: list[str]) -> list[str]:
    """The first call's argv, cut to one scenario for batch."""
    if workload == "batch":
        argv = list(argv)
        argv[argv.index("--batch") + 1] = "1"
    return argv

def evaluate(workload: str, code: int, out: str, units: int) -> list[tuple]:
    """Per unit of one call: (exit code, artifact digest, problems, outcome)."""
    if workload == "sweep":
        if code != 0:
            return [(code, None, [], None)]
        return [(0, checks.digest(out, checks.SWEEP_DIGEST_FILES),
                 checks.check_sweep(out), None)]
    if workload == "batch":
        exits = checks.check_study(out, units) if code == 0 else [code] * units
        dirs = [os.path.join(out, f"run_{j:03d}") for j in range(units)]
    else:
        exits, dirs = [code], [out]
    units_out = []
    for exit_code, run_dir in zip(exits, dirs):
        if exit_code != 0:
            units_out.append((exit_code, None, [], None))
            continue
        found, outcome = checks.check_run(run_dir)
        units_out.append((0, checks.digest(run_dir, checks.RUN_DIGEST_FILES),
                          found, outcome))
    return units_out


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "pass", "traced"), required=True)
    ap.add_argument("--batch-size", type=int, default=BATCH_SIZE)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    shutil.rmtree(args.work, ignore_errors=True)
    os.makedirs(args.work)
    ops = build_ops(args.workload, args.seed, os.path.join(args.work, "inputs"),
                    args.batch_size)
    out = os.path.join(args.work, "out")
    sink = io.StringIO()

    def invoke(argv: list[str]) -> int:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return softrig.cli.main(argv + ["--out", out])
            except Exception:  # a crash is a failed call, not a benchmark error
                traceback.print_exc()
                return -1

    def call(argv: list[str]) -> tuple[int, float, float]:
        sink.seek(0)
        sink.truncate()
        return refclock.timed(invoke, argv)

    call(warmup_argv(args.workload, ops[0][0]))   # imports, caches, files
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    gc.freeze()                           # keep start-up objects out of gc passes
    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()

    n = len(ops)
    first: dict[int, list] = {}
    call_s: list[float] = []
    scaled_s: list[float] = []
    attempted = failed = incorrect = 0
    problems: list[str] = []
    outcomes: list[dict] = []
    out_bytes = 0
    truncated = False
    i = 0
    while True:
        k = i % n
        if k == 0 and i:                  # a pass boundary
            if args.mode != "timed" or (i >= MIN_PASSES * n
                                        and sum(call_s) >= args.seconds):
                break
            pass_s = time.monotonic() - pass_started
            if time.monotonic() - started + pass_s > args.budget:
                truncated = True          # the next pass would overrun
                break
        if k == 0:
            pass_started = time.monotonic()
        argv, units = ops[k]
        gc.collect()
        if tracer:
            tracer.scope, tracer.record = "op", i == 0
        code, wall, scaled = call(argv)
        call_s.append(wall)
        scaled_s.append(scaled)
        if tracer:
            tracer.scope, tracer.record = "audit", False
        label = f"call {i} ({' '.join(argv)})"
        if code != 0:
            problems.append(f"{label} exit {code}: {sink.getvalue().strip()[-300:]}")
        try:
            per_unit = evaluate(args.workload, code, out, units)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            per_unit = [(code, None, [f"unreadable artifacts: {exc!r}"], None)] * units
        if i < n:
            first[k] = [(c, d) for c, d, _, _ in per_unit]
            outcomes += [o for _, _, _, o in per_unit if o is not None]
            out_bytes += checks.tree_bytes(out)
        for j, (exit_code, dig, found, _) in enumerate(per_unit):
            bad = list(found)
            if i >= n and (exit_code, dig) != first[k][j]:
                bad.append(f"unit {j} differs from its first run "
                           f"(exit {first[k][j][0]} -> {exit_code})")
            attempted += 1
            failed += exit_code != 0 or bool(bad)
            incorrect += bool(bad)
            problems += [f"{label} unit {j}: {p}" for p in bad]
        shutil.rmtree(out, ignore_errors=True)
        i += 1
        if i % n and time.monotonic() - started > args.budget:
            truncated = True              # stop inside a pass
            break

    trace = None
    if tracer:
        tracer.uninstall()
        spans_path = args.result.replace(".json", ".spans.json")
        n_spans = tracer.dump_spans(spans_path, trace_id=f"{args.workload}:call0")
        trace = {"op": tracer.scope_stats("op"), "audit": tracer.scope_stats("audit"),
                 "spans": n_spans, "spans_path": spans_path}

    unit_digests = [d or f"exit{c}" for k in sorted(first) for c, d in first[k]]
    result = {
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "softrig": softrig.__version__},
        "softrig_path": os.path.dirname(softrig.__file__),
        "ops_per_pass": n,
        "min_passes": MIN_PASSES,
        "units_per_pass": sum(u for _, u in ops),
        "units_timed": sum(ops[k % n][1] for k in range(len(call_s))),
        "call_s": call_s,
        "scaled_s": scaled_s,
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "problems": problems[:50],
        "outcomes": outcomes,
        "out_bytes": out_bytes,
        "digest": hashlib.sha256("".join(unit_digests).encode()).hexdigest(),
        "unit_digests": unit_digests,
        "passes": len(call_s) / n,
        "truncated": truncated,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }
    shutil.rmtree(args.work, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

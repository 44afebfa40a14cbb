"""softrig benchmark: one workload per invocation, metrics as one JSON line.

    python3 perfbench/run.py --workload {batch,single,sweep,all} --seed N
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/``.  Set-up time is the wall time of fresh interpreters importing
``softrig.cli``: one warm-up, then SETUP_RUNS before and SETUP_RUNS after
the workload, reported as the median of them all.  Call times are scaled
to the reference speed of ``refclock``.  The workload
itself runs in a fresh single-threaded child process (``workload.py``),
one child at a time.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced pass, measured next to an untraced pass of the same inputs to
give the tracing overhead.  Human-readable tables go to the lines before
it, and a full report is written under ``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("batch", "single", "sweep")
TRACED_FUNCTIONS = (
    "scenario.load_scenario", "scenario.sample_scenario",
    "geometry.cc_transform", "spiral.rate_coeffs", "spiral.sweep_curve",
    "spiral.refit_oracle", "jacobian.hybrid_jacobian", "jacobian.delta_coeff",
    "thermal.thermal_step", "planner.plan_motion", "planner.damped_speeds",
    "simulator.rollout", "simulator.fk_step_detailed",
    "outputs.write_plan_csv", "outputs.write_trajectory_csv",
    "outputs.write_thermal_csv", "outputs.save_keyframes",
    "outputs.write_sweep_csv", "outputs.write_refit_json")
SETUP_RUNS = 4
RUN_BUDGET_S = 170.0      # the whole invocation, per workload
CALL_GRACE_S = 20.0       # room for a call still running at a child's budget
STUDY_SIZE = 100          # `run --batch 100`, the acceptance study (README)
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
IMPORT_CMD = "import softrig.cli"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_proc(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run one child to completion; kill it and fail if the deadline passes."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err[-2000:]}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def measure_setup(deadline: float, warm_up: bool) -> list[float]:
    """Wall seconds of SETUP_RUNS fresh interpreters importing softrig.cli.

    Not scaled by the reference clock: import time (file loads, extension
    modules) does not follow the interpreter loop's speed changes.
    """
    times = []
    for i in range(SETUP_RUNS + warm_up):
        t0 = time.perf_counter()
        run_proc([sys.executable, "-c", IMPORT_CMD], deadline)
        if i or not warm_up:
            times.append(time.perf_counter() - t0)
    return times


def import_profile(deadline: float) -> dict[str, float]:
    """Cumulative import seconds by module, from ``python -X importtime``."""
    err = run_proc([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                   deadline).stderr
    cumulative: dict[str, float] = {}
    total = 0.0
    for line in err.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not name[1:].startswith(" "):          # a top-level import
            total += int(cum) * 1e-6
        cumulative.setdefault(name.strip(), int(cum) * 1e-6)
    cumulative["<total>"] = total
    return cumulative


def run_workload(workload: str, seed: int, seconds: float, mode: str,
                 budget: float, deadline: float, batch_size: int = 0) -> dict:
    """Run one child; it stops itself after ``budget`` wall seconds."""
    stem = WORK / f"{workload}-s{seed}-{mode}{batch_size or ''}"
    result = Path(f"{stem}.json")
    run_proc([sys.executable, str(BENCH / "workload.py"), "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
              "--budget", f"{max(budget, 1.0):.1f}"]
             + (["--batch-size", str(batch_size)] if batch_size else [])
             + ["--work", f"{stem}.artifacts", "--result", str(result)], deadline)
    data = json.loads(result.read_text())
    src = os.path.realpath(ROOT / "src" / "softrig")
    if os.path.realpath(data["softrig_path"]) != src:
        raise RuntimeError(f"benchmarked {data['softrig_path']}, not {src}")
    return data


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics 'inclusive' method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def machine_facts() -> dict:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "commit": commit,
            "src_sha256": h.hexdigest()}


def outcome_metrics(data: dict) -> dict[str, float]:
    """Deterministic outcomes of the first pass (batch and single only)."""
    outs = data["outcomes"]
    if not outs:
        return {}
    steps = sum(o["steps"] for o in outs)
    motion = [o["motion_s"] for o in outs]
    return {"motion_s_p50": quantile(motion, 0.5),
            "motion_s_p90": quantile(motion, 0.9),
            "wheel_limit_frac": sum(o["wheel_over"] for o in outs) / max(steps, 1),
            "steps": steps, "rows": sum(o["rows"] for o in outs),
            "paused_rows": sum(o["paused_rows"] for o in outs),
            "scenarios": len(outs)}


def tail_quantile(data: dict) -> float:
    """The tail percentile of call latency reported for a workload.

    p90 when a run of the fewest passes leaves at least ten calls beyond
    it, else the median: a p90 of a few long calls is just their maximum.
    Fixed by the workload's pass size, not by how many passes were timed,
    so it names the same percentile on every commit.
    """
    n = data["ops_per_pass"] * data["min_passes"]
    return 0.9 if n - math.ceil(0.9 * n) >= 10 else 0.5


def remaining(deadline: float) -> float:
    return deadline - time.monotonic()


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setup = measure_setup(deadline, warm_up=True)
    reserve = 2.0 * SETUP_RUNS * max(setup) + CALL_GRACE_S
    data = run_workload(workload, seed, seconds, "timed",
                        remaining(deadline) - reserve, deadline)
    setup += measure_setup(deadline, warm_up=False)
    call_ms = [s * 1e3 for s in data["scaled_s"]]
    wall_ms = [s * 1e3 for s in data["call_s"]]
    failed, attempted = data["failed"], data["attempted"]
    tail = tail_quantile(data)
    metrics = {
        "ops_per_s": (data["units_timed"] / sum(data["scaled_s"]), "1/s"),
        "call_ms_p50": (quantile(call_ms, 0.5), "ms"),
        "call_ms_tail": (quantile(call_ms, tail), "ms"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    n = len(call_ms)
    lines = [f"  calls timed: {n} in {data['passes']:g} whole passes of "
             f"{data['ops_per_pass']} inputs, repeats checked "
             f"byte-identical; call_ms_tail is p{100 * tail:.0f}, with "
             f"{n - math.ceil(tail * n)} calls beyond it",
             f"  raw wall time: {data['units_timed'] / sum(data['call_s']):.4f} "
             f"units/s, call p50 {quantile(wall_ms, 0.5):.2f} ms, "
             f"tail {quantile(wall_ms, tail):.2f} ms; setup runs {len(setup)}, "
             f"{min(setup):.4f}..{max(setup):.4f} s; "
             f"host at {sum(data['scaled_s']) / sum(data['call_s']):.3f}x "
             f"the reference speed"]
    if data["truncated"]:
        lines.append("  stopped early: the next pass would have overrun the "
                     "time budget, so fewer passes than asked were timed")
    aliases = {"fail_frac": (failed / attempted, "frac")}
    if workload == "batch":
        aliases["scenarios_per_s"] = metrics["ops_per_s"]
    elif workload == "single":
        aliases["run_ms_p50"] = metrics["call_ms_p50"]
        aliases["run_ms_p90"] = metrics["call_ms_tail"]
    else:
        aliases["sweep_ms_p50"] = metrics["call_ms_p50"]
        aliases["sweep_ms_p90"] = metrics["call_ms_tail"]
    out = outcome_metrics(data)
    if out:
        aliases["motion_s_p50"] = (out["motion_s_p50"], "sim_s")
        aliases["motion_s_p90"] = (out["motion_s_p90"], "sim_s")
        aliases["wheel_limit_frac"] = (out["wheel_limit_frac"], "frac")
        lines.append(f"  outcomes over {out['scenarios']} distinct scenarios: "
                     f"{out['steps']} planned steps, {out['rows']} playback rows "
                     f"({out['paused_rows']} paused)")
    return {"data": data, "metrics": metrics, "aliases": aliases,
            "lines": lines, "incorrect": data["incorrect"],
            "attempted": attempted, "failed": failed}


def study_check(workload: str, seed: int, seconds: float, base: dict,
                deadline: float) -> tuple[list[str], dict]:
    """Report lines and counts of the full-size batch call.

    The batch workload plans a quarter of the acceptance study per call;
    the leading scenarios of a ``--batch STUDY_SIZE`` call with the first
    seed must give the same artifacts, or the smaller call does not stand
    for the study.  Skipped when it would overrun the time budget.
    """
    counts = {"attempted": 0, "failed": 0, "incorrect": 0}
    if workload != "batch":
        return [], counts
    k = base["units_per_pass"] // base["ops_per_pass"]
    per_unit_s = base["call_s"][0] / k
    need = per_unit_s * STUDY_SIZE * 1.5 + CALL_GRACE_S
    if need > remaining(deadline):
        return [f"  study check skipped: a --batch {STUDY_SIZE} call would "
                f"need about {need:.0f} s"], counts
    study = run_workload(workload, seed, seconds, "pass",
                         remaining(deadline) - CALL_GRACE_S, deadline,
                         batch_size=STUDY_SIZE)
    same = study["unit_digests"][:k] == base["unit_digests"][:k]
    counts = {"attempted": study["attempted"],
              "failed": study["failed"] + (not same),
              "incorrect": study["incorrect"] + (not same),
              "problems": study["problems"] + ([] if same else [
                  f"--batch {STUDY_SIZE}: its first {k} scenarios differ from "
                  f"the --batch {k} call with the same seed"])}
    ratio = study["call_s"][0] / STUDY_SIZE / per_unit_s
    return [f"  study check: --batch {STUDY_SIZE} repeats the first {k} "
            f"scenarios of --batch {k} byte for byte: {same}; its time per "
            f"scenario is {ratio:.3f}x that of --batch {k} (raw wall)"], counts


def per_layer(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    run_proc([sys.executable, "-c", IMPORT_CMD], deadline)       # warm caches
    imports = import_profile(deadline)
    base = run_workload(workload, seed, seconds, "pass",
                        0.3 * remaining(deadline), deadline)
    traced = run_workload(workload, seed, seconds, "traced",
                          0.5 * remaining(deadline), deadline)
    # tracing must not change any artifact
    same = min(len(base["unit_digests"]), len(traced["unit_digests"]))
    differ = sum(a != b for a, b in zip(base["unit_digests"][:same],
                                        traced["unit_digests"][:same]))
    study_lines, study = study_check(workload, seed, seconds, base, deadline)
    problems = base["problems"] + traced["problems"] + study.get("problems", [])
    if differ:
        problems.append(f"{differ} units of the traced pass wrote other "
                        "artifacts than the untraced pass")
    op = traced["trace"]["op"]
    audit = traced["trace"]["audit"]
    units = traced["units_timed"]
    total = op["cli.main"][1]
    out = outcome_metrics(traced)
    steps = out.get("steps", 0)
    rows = out.get("rows", 0)

    def pct(span_s: float) -> float:
        return 100.0 * span_s / total

    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        self_s = sum(v[2] for name, v in op.items() if name.split(".")[0] == layer)
        m[f"{layer}.self_pct"] = (pct(self_s), "%")
    for fn in TRACED_FUNCTIONS:
        calls, incl, _ = op.get(fn, (0, 0.0, 0.0))
        m[f"{fn}.calls"] = (calls / units, "count")
        m[f"{fn}.pct"] = (pct(incl), "%")
    for fn in ("planner.plan_motion", "simulator.rollout"):
        m[f"{fn}.self_pct"] = (pct(op.get(fn, (0, 0.0, 0.0))[2]), "%")
    m["wheelmodel.wheel_speeds.calls"] = (
        audit.get("wheelmodel.wheel_speeds", (0,))[0] / units, "count")
    m["planner.steps"] = (steps / units, "count")
    m["planner.candidates_per_step"] = (
        op.get("planner.damped_speeds", (0,))[0] / steps if steps else 0.0, "count")
    m["simulator.rows"] = (rows / units, "count")
    m["simulator.paused_rows"] = (out.get("paused_rows", 0) / units, "count")
    m["simulator.motion_s_p50"] = (out.get("motion_s_p50", 0.0), "sim_s")
    m["simulator.motion_s_p90"] = (out.get("motion_s_p90", 0.0), "sim_s")
    m["wheelmodel.wheel_limit_frac"] = (out.get("wheel_limit_frac", 0.0), "frac")
    m["outputs.bytes"] = (traced["out_bytes"] / units, "B")
    n_calls = min(len(base["scaled_s"]), len(traced["scaled_s"]))
    base_pass = sum(base["scaled_s"][:n_calls])
    traced_pass = sum(traced["scaled_s"][:n_calls])
    m["trace.overhead_pct"] = (100.0 * (traced_pass / base_pass - 1.0), "%")
    imp_total = imports["<total>"]
    m["setup.import_s"] = (imp_total, "s")
    m["setup.numpy_pct"] = (100.0 * imports.get("numpy", 0.0) / imp_total, "%")
    m["setup.scipy_optimize_pct"] = (
        100.0 * imports.get("scipy.optimize", 0.0) / imp_total, "%")

    lines = [f"  traced pass: {traced['ops_per_pass']} calls, {units} units, "
             f"{traced_pass:.3f} s traced vs {base_pass:.3f} s untraced "
             f"({m['trace.overhead_pct'][0]:+.1f}% tracing overhead); "
             f"{traced['trace']['spans']} spans of call 0 in "
             f"{os.path.relpath(traced['trace']['spans_path'], ROOT)}",
             "  function                              calls/unit    us/call  "
             "self us/call   incl %   self %"]
    scale = base_pass / traced_pass
    for scope, stats in (("op", op), ("audit", audit)):
        for name, (calls, incl, self_s) in sorted(stats.items(),
                                                  key=lambda kv: -kv[1][2]):
            share = (f"{pct(incl):8.2f} {pct(self_s):8.2f}" if scope == "op"
                     else "   (audit, outside the CLI)")
            lines.append(f"  {name:<38}{calls / units:10.1f} "
                         f"{1e6 * incl / calls:10.2f} {1e6 * self_s / calls:10.2f} "
                         f"{share}")
    if steps:
        plan_us = 1e6 * op["planner.plan_motion"][1] / steps
        roll_us = 1e6 * op["simulator.rollout"][1] / rows
        lines.append(f"  planner: {plan_us:.1f} us per step traced, "
                     f"~{plan_us * scale:.1f} us untraced (scaled by the "
                     f"overhead); playback: {roll_us:.1f} us per row traced, "
                     f"~{roll_us * scale:.1f} us untraced; "
                     f"{steps} steps, {rows} rows")
    top = sorted(((v, k) for k, v in imports.items()
                  if k.startswith(("softrig", "numpy", "scipy.optimize"))
                  and k.count(".") <= 1), reverse=True)[:8]
    lines.append("  imports (cumulative s): " + ", ".join(
        f"{k} {v:.3f}" for v, k in top) + f"; all top-level {imp_total:.3f}")
    lines += study_lines
    if base["truncated"] or traced["truncated"]:
        lines.append("  stopped early: a pass overran its time budget; the "
                     "figures cover the calls both passes finished")
    counts = {key: base[key] + traced[key] + study[key]
              for key in ("attempted", "failed", "incorrect")}
    counts["failed"] += differ
    counts["incorrect"] += differ
    return {"data": traced, "metrics": m, "lines": lines, "problems": problems,
            **counts}


def report(workload: str, seed: int, seconds: float, trace: int,
           facts: dict, deadline: float) -> dict:
    section = (per_layer if trace else end_to_end)(workload, seed, seconds,
                                                    deadline)
    data = section["data"]
    problems = section.get("problems", data["problems"])
    result = {"correct": section["incorrect"] == 0,
              "attempted": section["attempted"],
              "failed": section["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in section["metrics"].items()}}
    full = dict(result, workload=workload, seed=seed, seconds=seconds,
                trace=trace, facts=facts, versions=data["versions"],
                digest=data["digest"], problems=problems,
                aliases={k: v for k, (v, _) in section.get("aliases", {}).items()},
                details=section["lines"])
    (WORK / f"report-{workload}-s{seed}-t{trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    print(f"softrig benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    print(f"  nproc {facts['nproc']}, python {data['versions']['python']}, "
          f"numpy {data['versions']['numpy']}, scipy {data['versions']['scipy']}, "
          f"commit {facts['commit']}, src sha256 {facts['src_sha256'][:16]}")
    print(f"  artifact digest {data['digest'][:16]} "
          f"(first pass, {data['units_per_pass']} units)")
    for line in section["lines"]:
        print(line)
    for name, (value, unit) in section["metrics"].items():
        print(f"  {name:<38} {value:14.6g} {unit}")
    for name, (value, unit) in section.get("aliases", {}).items():
        print(f"  {name:<38} {value:14.6g} {unit}   (as named for this workload)")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "softrig" / "__init__.py").is_file():
        print(f"no softrig sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    facts = machine_facts()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: report(w, args.seed, args.seconds, args.trace, facts,
                             deadline if len(names) == 1
                             else time.monotonic() + RUN_BUDGET_S)
                   for w in names}
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

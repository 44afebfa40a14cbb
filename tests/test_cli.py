import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

import softrig
from softrig import cli, outputs, spiral
from softrig.cli import (EXIT_INPUT, EXIT_NO_CONVERGE, EXIT_OK, EXIT_THERMAL,
                         main)
from softrig.errors import FitError, SoftrigError, StallError
from softrig.planner import plan_motion
from softrig.scenario import load_scenario, sample_scenario

from conftest import example_scenario_dict


def read_json(path):
    with open(path) as f:
        return json.load(f)


def write_scenario(tmp_path, name="scn.json", **changes):
    data = example_scenario_dict()
    for key, value in changes.items():
        data[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_run_scenario_writes_outputs(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", scn, "--out", out, "--keyframes", "100"]) == EXIT_OK
    # the keyframes are one film strip; no frames/ directory is made, and
    # trajectory.csv carries the thermal readings, so no thermal.csv
    assert sorted(os.listdir(out)) == ["keyframes.svg", "plan.csv",
                                       "summary.json", "trajectory.csv"]
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["converged"] is True
    assert summary["label"] == "sidestep-and-bend"
    assert summary["pause_blocks"] >= 1
    assert "converged" in capsys.readouterr().out


def test_reruns_are_byte_identical(tmp_path):
    scn = write_scenario(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", scn, "--out", out_a]) == EXIT_OK
    assert main(["run", scn, "--out", out_b]) == EXIT_OK
    names = ["plan.csv", "summary.json", "trajectory.csv"]
    assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b)) == names
    for name in names:
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_no_thermal_skips_pauses(tmp_path):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", scn, "--out", out, "--no-thermal"]) == EXIT_OK
    summary = read_json(os.path.join(out, "summary.json"))
    assert summary["pause_blocks"] == 0
    assert summary["thermal_gating"] is False


def test_unweighted_preset_changes_plan(tmp_path):
    scn = write_scenario(tmp_path)
    out_d = str(tmp_path / "d")
    out_u = str(tmp_path / "u")
    assert main(["run", scn, "--out", out_d]) == EXIT_OK
    assert main(["run", scn, "--out", out_u, "--preset", "unweighted"]) == EXIT_OK
    sd = read_json(os.path.join(out_d, "summary.json"))
    su = read_json(os.path.join(out_u, "summary.json"))
    assert sd["runs"] != su["runs"]
    # the unweighted metric drives the curvature home before finishing
    assert su["runs"][-1]["stiffness"] == "00"


def test_input_errors_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_INPUT
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["run", str(bad)]) == EXIT_INPUT
    scn = write_scenario(tmp_path, planner={"no_such_field": 1})
    assert main(["run", scn]) == EXIT_INPUT
    assert main(["run"]) == EXIT_INPUT
    capsys.readouterr()
    good = write_scenario(tmp_path, name="good.json")
    nan_dt = write_scenario(tmp_path, name="nan.json",
                            planner={"dt": float("nan")})
    float_steps = write_scenario(tmp_path, name="steps.json",
                                 planner={"max_steps": 2.5})
    out = tmp_path / "never"
    for argv, message in (
            ([nan_dt], "planner.dt must be a finite number"),
            ([float_steps], "planner.max_steps must be an integer"),
            ([good, "--batch", "2"], "not both"),
            ([good, "--max-wait", "-1"], "--max-wait"),
            ([good, "--max-wait", "nan"], "--max-wait"),
            (["--batch", "2", "--max-wait", "-1"], "--max-wait"),
            ([good, "--keyframes", "-3"], "--keyframes"),
            ([good, "--seed", "3"], "--seed"),
            (["--batch", "2", "--seed", "-1"], "--seed")):
        assert main(["run", *argv, "--out", str(out)]) == EXIT_INPUT, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_soft_setpoint_above_sensor_ceiling_exits_2(tmp_path, capsys):
    scn = write_scenario(tmp_path, thermal={"setpoint_soft": 90})
    out = tmp_path / "never"
    assert main(["run", scn, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("scenario error: thermal: ") and "ceiling" in err
    assert not out.exists()


@pytest.mark.parametrize("thermal, code, message", [
    ({"setpoint_rigid": 56.0}, EXIT_INPUT, "solidify threshold 55"),
    ({"setpoint_rigid": 90.0}, EXIT_INPUT, "solidify threshold 55"),
    ({"setpoint_soft": 62.0}, EXIT_INPUT, "melt threshold 62"),
    ({"setpoint_rigid": 55.0}, EXIT_OK, None),
    ({"setpoint_soft": 62.5}, EXIT_OK, None),
], ids=["rigid-56", "rigid-90", "soft-62", "rigid-55", "soft-62.5"])
def test_setpoints_must_reach_their_phase(tmp_path, capsys, thermal, code,
                                          message):
    # seed-0 sample-000 melts segment 1, then solidifies it to soften 2: a
    # rigid setpoint above t_solid or a soft one at or below t_melt would
    # hold a segment short of its phase until the wait ran out (exit 4)
    scn = sample_scenario(np.random.default_rng(0), 0)
    path = write_scenario(tmp_path, q0=vars(scn.q0), target=vars(scn.target),
                          thermal=thermal)
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == "" and out.is_dir()
    else:
        assert err.startswith("scenario error: thermal: ") and message in err
        assert not out.exists()


@pytest.mark.parametrize("section, values, message", [
    ("planner", {"eps_goal": 0.0}, "scenario error: planner: planner.eps_goal"),
    ("planner", {"eps_goal": -1e-3}, "scenario error: planner: planner.eps_goal"),
    # nanometre segments: the soft gains round the damped system singular
    ("geometry", {"seg_len": 1e-9}, "error: soft pattern"),
], ids=["zero-eps_goal", "negative-eps_goal", "tiny-seg_len"])
def test_contract_edges_exit_2(tmp_path, capsys, section, values, message):
    scn = write_scenario(tmp_path, **{section: values})
    out = tmp_path / "never"
    assert main(["run", scn, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("tau", [0.06, 0.05])
def test_short_thermal_tau_exits_2(tmp_path, capsys, tau):
    # at dt = 0.05 s these let the explicit-Euler heating step peak at
    # 93.6 and 105 deg C on this scenario, past the 85 deg C ceiling
    scn = write_scenario(tmp_path, thermal={"tau": tau})
    out = tmp_path / "never"
    assert main(["run", scn, "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: thermal.tau = {tau:g} s ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_unconverged_plan_exits_3(tmp_path, capsys):
    scn = write_scenario(tmp_path, planner={"max_steps": 3})
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == EXIT_NO_CONVERGE
    capsys.readouterr()


def test_stalled_run_exits_3_and_writes_no_keyframes(tmp_path, capsys):
    # no pattern gains a whole unit of distance: the planner stalls at
    # step 0, before anything is played back or drawn
    scn = write_scenario(tmp_path, planner={"eps_progress": 1.0})
    out = tmp_path / "o"
    assert main(["run", scn, "--keyframes", "50",
                 "--out", str(out)]) == EXIT_NO_CONVERGE
    err = capsys.readouterr().err
    assert not (out / "keyframes.svg").exists()
    assert not out.exists()
    # the line says why: each tried pattern's gain, in pattern order
    scenario = load_scenario(scn)
    with pytest.raises(StallError) as info:
        plan_motion(scenario.q0, scenario.target, scenario.geometry,
                    scenario.planner)
    gains = info.value.diagnostics
    assert sorted(gains) == ["00", "01", "10", "11"]
    assert err == (f"{scenario.label}: stalled: {info.value}; gains "
                   + ", ".join(f"{label} {gains[label]:.3e}"
                               for label in ("00", "01", "10", "11"))
                   + "\n")


def test_thermal_timeout_exits_4(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    code = main(["run", scn, "--out", str(tmp_path / "o"),
                 "--max-wait", "0.5"])
    assert code == EXIT_THERMAL
    # a run that fails before writing leaves no output directory
    assert not (tmp_path / "o").exists()
    capsys.readouterr()


def test_batch_study(tmp_path, capsys):
    out = str(tmp_path / "study")
    code = main(["run", "--batch", "3", "--seed", "5", "--out", out,
                 "--preset", "unweighted"])
    assert code == EXIT_OK
    study = read_json(os.path.join(out, "study.json"))
    assert study["n_runs"] == 3 and study["seed"] == 5
    assert len(study["runs"]) == 3
    for i in range(3):
        run_dir = os.path.join(out, f"run_{i:03d}")
        assert sorted(os.listdir(run_dir)) == ["plan.csv", "summary.json",
                                               "trajectory.csv"]
    assert 0.0 <= study["convergence_rate"] <= 1.0
    capsys.readouterr()


def test_batch_exit_0_records_each_run_exit(tmp_path, capsys):
    # a batch exits 0 once study.json is written; each run's own exit code
    # is recorded there.  With no thermal wait allowed, the two runs that
    # switch stiffness time out (exit 4) and the batch still exits 0
    out = str(tmp_path / "study")
    assert main(["run", "--batch", "3", "--max-wait", "0",
                 "--out", out]) == EXIT_OK
    study = read_json(os.path.join(out, "study.json"))
    assert [run["exit"] for run in study["runs"]] == [EXIT_THERMAL,
                                                      EXIT_THERMAL, EXIT_OK]
    assert study["n_converged"] == 1
    # the timed-out runs leave no run directory
    assert [os.path.isdir(os.path.join(out, f"run_{i:03d}"))
            for i in range(3)] == [False, False, True]
    capsys.readouterr()


def test_batch_no_thermal_skips_pauses(tmp_path, capsys):
    out = str(tmp_path / "study")
    assert main(["run", "--batch", "2", "--no-thermal", "--out", out]) == EXIT_OK
    for i in range(2):
        path = os.path.join(out, f"run_{i:03d}", "summary.json")
        summary = read_json(path)
        assert summary["thermal_gating"] is False
        assert summary["pause_blocks"] == 0
    capsys.readouterr()


def batch_files(out):
    """Every file a batch wrote, by path relative to its output directory."""
    root = pathlib.Path(out)
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture
def writer_log(monkeypatch):
    """Count lane children the batch forked and has not yet reaped."""
    log = {"forked": 0, "unreaped": 0, "peak": 0}
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        pid = fork()
        if pid:
            log["forked"] += 1
            log["unreaped"] += 1
            log["peak"] = max(log["peak"], log["unreaped"])
        return pid

    def counted_waitpid(pid, options):
        log["unreaped"] -= 1
        return waitpid(pid, options)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    return log


def batch_by_cpus(tmp_path, monkeypatch, capsys, argv, cpu_counts):
    """Files and (stdout, stderr) of the same batch for each usable CPU count."""
    runs = []
    for cpus in cpu_counts:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = str(tmp_path / f"cpus{cpus}")
        assert main(["run", *argv, "--out", out]) == EXIT_OK
        runs.append((batch_files(out), capsys.readouterr()))
    return runs


def test_batch_writer_children_match_in_process_writing(tmp_path, monkeypatch,
                                                       capsys, writer_log):
    # one lane per usable CPU, at most one per scenario: 4 CPUs run the
    # 3-scenario batch in 3 lanes, as 3 CPUs do; 1 CPU runs it in process
    runs = batch_by_cpus(tmp_path, monkeypatch, capsys,
                         ["--batch", "3", "--seed", "4", "--keyframes", "200"],
                         (1, 2, 3, 4))
    assert writer_log["forked"] == 0 + 1 + 2 + 2
    assert writer_log["unreaped"] == 0
    files, printed = runs[0]
    assert "study.json" in files and "run_002/keyframes.svg" in files
    assert not any("frames/" in name for name in files)
    assert printed.out.count("converged in") == 3
    for other in runs[1:]:
        assert other == runs[0]


def test_batch_stderr_keeps_text_and_order_across_lanes(tmp_path, monkeypatch,
                                                        capsys, writer_log):
    # runs 0 and 1 time out, each in its own lane when 2 CPUs are usable
    serial, lanes = batch_by_cpus(tmp_path, monkeypatch, capsys,
                                  ["--batch", "3", "--max-wait", "0"], (1, 2))
    assert writer_log["forked"] == 1 and writer_log["unreaped"] == 0
    assert [line.split(":")[0] for line in serial[1].err.splitlines()] == [
        "sample-000", "sample-001"]
    assert lanes == serial


def test_batch_keeps_one_cpu_for_planning(tmp_path, monkeypatch, capsys,
                                          writer_log):
    # this process is lane 0 of 3 and plans scenarios 0 and 3 itself; the
    # two forked lanes plan the others in their own processes
    planned = []

    def recorded(q0, *args):
        planned.append(q0)
        return plan_motion(q0, *args)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(cli, "plan_motion", recorded)
    assert main(["run", "--batch", "5", "--out", str(tmp_path)]) == EXIT_OK
    assert writer_log["forked"] == 2
    assert writer_log["peak"] == 2
    assert writer_log["unreaped"] == 0
    rng = np.random.default_rng(0)
    scenarios = [sample_scenario(rng, index=i) for i in range(5)]
    assert planned == [scenarios[0].q0, scenarios[3].q0]
    assert capsys.readouterr().out.count("converged in") == 5


@pytest.mark.parametrize("cpus, error", [(1, OSError), (2, ChildProcessError)])
def test_batch_writer_error_fails_the_batch(tmp_path, monkeypatch, capfd, cpus,
                                            error):
    write_run_csvs = outputs.write_run_csvs

    def broken(out_dir, *args):
        # the second run: with 2 usable CPUs it runs in the forked lane
        if out_dir.endswith("run_001"):
            raise OSError("disk full")
        write_run_csvs(out_dir, *args)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(outputs, "write_run_csvs", broken)
    with pytest.raises(error) as info:
        main(["run", "--batch", "2", "--out", str(tmp_path)])
    assert not (tmp_path / "study.json").exists()
    message = str(info.value)
    if cpus > 1:  # the parent names the run; the lane's traceback tells why
        assert "run_001" in message
        message = capfd.readouterr().err
    assert "disk full" in message


def test_batch_reaps_lanes_when_its_own_lane_fails(tmp_path, monkeypatch,
                                                   capsys, writer_log):
    parent = os.getpid()

    def failing_here(*args):
        # scenario 0 is this process's; the forked lane plans scenario 1
        if os.getpid() == parent:
            raise SoftrigError("forced planner failure")
        return plan_motion(*args)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "plan_motion", failing_here)
    assert main(["run", "--batch", "2", "--out", str(tmp_path)]) == EXIT_INPUT
    assert writer_log["forked"] == 1 and writer_log["unreaped"] == 0
    assert (tmp_path / "run_001" / "summary.json").exists()
    assert not (tmp_path / "study.json").exists()
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: forced planner failure\n"


def test_batch_lane_runs_on_past_a_full_pipe(tmp_path, monkeypatch, capsys,
                                             writer_log):
    # each forked-lane record is padded past the 64 KiB a pipe holds, and
    # this process's last run waits for the forked lane's last run: a lane
    # that blocked on its pipe until this process read it would never get
    # there
    done = tmp_path / "lane-1-done"
    padding = "x" * 70_000
    waited = []

    def fake_run(scn, out_dir, args):
        name = os.path.basename(out_dir)
        if name == "run_003":
            done.touch()
        if name == "run_002":
            deadline = time.monotonic() + 5.0
            while not done.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            waited.append(done.exists())
        return EXIT_OK, f"{scn.label}: {padding}\n", ""

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_run_one", fake_run)
    out = tmp_path / "out"
    assert main(["run", "--batch", "4", "--out", str(out)]) == EXIT_OK
    assert waited == [True]
    assert writer_log["forked"] == 1 and writer_log["unreaped"] == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [
        "sample-000", "sample-001", "sample-002", "sample-003", "batch"]
    assert all(line.endswith(padding) for line in printed[:4])


def test_piped_batch_prints_each_run_once_in_order(tmp_path):
    # a block-buffered stdout must not be flushed again by a writer child
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "softrig", "run", "--batch", "3", "--out",
         str(tmp_path)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, check=True)
    labels = [line.split(":")[0] for line in proc.stdout.splitlines()]
    assert labels == ["sample-000", "sample-001", "sample-002", "batch"]
    assert proc.stderr == ""


def test_batch_rejects_bad_count(capsys):
    assert main(["run", "--batch", "0"]) == EXIT_INPUT
    capsys.readouterr()


def test_sweep_command(tmp_path, capsys):
    out = str(tmp_path / "sweepout")
    assert main(["sweep", "--out", out, "--samples", "60"]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "sweep.csv"))
    assert os.path.exists(os.path.join(out, "refit.json"))
    printed = capsys.readouterr().out
    assert "mode 1" in printed and "mode 3" in printed


def test_sweep_samples_each_mode_once(tmp_path, monkeypatch, capsys):
    original = spiral.sweep_curve
    modes = []

    def counted(mode, *args):
        modes.append(mode)
        return original(mode, *args)

    # every module binding of the function, so a second sampling site counts
    for module in (softrig, spiral, outputs, cli):
        if getattr(module, "sweep_curve", None) is original:
            monkeypatch.setattr(module, "sweep_curve", counted)
    assert main(["sweep", "--out", str(tmp_path / "o")]) == EXIT_OK
    assert sorted(modes) == [1, 2, 3]
    capsys.readouterr()


def test_failed_refit_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    original = spiral._solve_centre

    def failing(modes, *args):
        solved = original(modes, *args)      # modes 1 and 2 still fit
        if 3 in modes:
            raise FitError("forced refit failure")
        return solved

    # every module binding of the stacked solve the sweep runs
    for module in (softrig, spiral, outputs, cli):
        if getattr(module, "_solve_centre", None) is original:
            monkeypatch.setattr(module, "_solve_centre", failing)
    out = tmp_path / "sweepout"
    assert main(["sweep", "--out", str(out)]) == EXIT_NO_CONVERGE
    assert not out.exists()
    assert "fit failed: forced refit failure" in capsys.readouterr().err


def test_sweep_input_error_exits_2_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sweepout"
    assert main(["sweep", "--samples", "5", "--out", str(out)]) == EXIT_INPUT
    assert not out.exists()
    assert "need at least 10 sweep samples" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cpus", [(["run", "SCENARIO"], None),
                                        (["run", "--batch", "2"], None),
                                        (["run", "--batch", "2"], 2),
                                        (["sweep", "--samples", "10"], None)],
                         ids=["run-file", "run-batch", "run-batch-lane",
                              "sweep"])
def test_out_under_a_file_exits_2(tmp_path, monkeypatch, capfd, writer_log,
                                  argv, cpus):
    # an --out that names a file, a path under one, or nothing at all is
    # bad input: one error line, no traceback, and the file is left as it
    # was.  In the lane case the file is named like the second run's
    # directory, which the forked lane of 2 usable CPUs makes: the batch
    # ends as it does in this process, with its lane reaped and no
    # study.json
    argv = [write_scenario(tmp_path) if arg == "SCENARIO" else arg
            for arg in argv]
    blocker = tmp_path / ("taken" if cpus is None else "run_001")
    blocker.write_text("keep")
    # (--out, the path the error names)
    cases = [(blocker, blocker), (blocker / "sub", blocker / "sub"),
             ("", "")]
    if cpus is not None:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        cases = [(tmp_path, blocker)]
    for out, named in cases:
        assert main([*argv, "--out", str(out)]) == EXIT_INPUT, out
        printed = capfd.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"error: --out {named}: ")
        assert printed.err.count("\n") == 1
    assert writer_log["forked"] == (0 if cpus is None else cpus - 1)
    assert writer_log["unreaped"] == 0
    assert not (tmp_path / "study.json").exists()
    assert blocker.read_text() == "keep"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "softrig" in capsys.readouterr().out


def test_calls_in_one_process_keep_no_options(tmp_path, capsys):
    # the parser is built once per process; no option value outlives its call
    scn = write_scenario(tmp_path)
    assert main(["run", scn, "--keyframes", "5",
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    assert (tmp_path / "a" / "keyframes.svg").is_file()
    assert main(["run", scn, "--out", str(tmp_path / "b")]) == EXIT_OK
    assert not (tmp_path / "b" / "keyframes.svg").exists()
    assert main(["sweep", "--samples", "60",
                 "--out", str(tmp_path / "c")]) == EXIT_OK
    assert main(["sweep", "--out", str(tmp_path / "d")]) == EXIT_OK
    rows = (tmp_path / "d" / "sweep.csv").read_text().splitlines()[2:]
    assert sorted(set(row.split(",")[0] for row in rows)) == ["1", "2", "3"]
    for mode in "123":
        assert sum(row.startswith(mode + ",") for row in rows) == 200
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    capsys.readouterr()

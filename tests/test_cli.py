import json
import os
import pathlib
import subprocess
import sys

import pytest

import softrig
from softrig import cli, outputs, spiral
from softrig.cli import (EXIT_INPUT, EXIT_NO_CONVERGE, EXIT_OK, EXIT_THERMAL,
                         main)
from softrig.errors import FitError
from softrig.scenario import example_scenario_dict


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
    for name in ("plan.csv", "trajectory.csv", "thermal.csv", "summary.json"):
        assert os.path.exists(os.path.join(out, name))
    assert os.path.isdir(os.path.join(out, "frames"))
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["converged"] is True
    assert summary["label"] == "sidestep-and-bend"
    assert summary["pause_blocks"] >= 1
    assert "converged" in capsys.readouterr().out


def test_reruns_are_byte_identical(tmp_path):
    scn = write_scenario(tmp_path)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", scn, "--out", out_a]) == EXIT_OK
    assert main(["run", scn, "--out", out_b]) == EXIT_OK
    for name in ("plan.csv", "trajectory.csv", "thermal.csv", "summary.json"):
        with open(os.path.join(out_a, name), "rb") as fa:
            with open(os.path.join(out_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_no_thermal_skips_pauses(tmp_path):
    scn = write_scenario(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", scn, "--out", out, "--no-thermal"]) == EXIT_OK
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["pause_blocks"] == 0
    assert summary["thermal_gating"] is False


def test_unweighted_preset_changes_plan(tmp_path):
    scn = write_scenario(tmp_path)
    out_d = str(tmp_path / "d")
    out_u = str(tmp_path / "u")
    assert main(["run", scn, "--out", out_d]) == EXIT_OK
    assert main(["run", scn, "--out", out_u, "--preset", "unweighted"]) == EXIT_OK
    sd = json.load(open(os.path.join(out_d, "summary.json")))
    su = json.load(open(os.path.join(out_u, "summary.json")))
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
    out = tmp_path / "never"
    for argv, message in (
            ([good, "--batch", "2"], "not both"),
            ([good, "--max-wait", "-1"], "--max-wait"),
            ([good, "--max-wait", "nan"], "--max-wait"),
            (["--batch", "2", "--max-wait", "-1"], "--max-wait"),
            ([good, "--keyframes", "-3"], "--keyframes"),
            ([good, "--seed", "3"], "--seed")):
        assert main(["run", *argv, "--out", str(out)]) == EXIT_INPUT, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


def test_unconverged_plan_exits_3(tmp_path, capsys):
    scn = write_scenario(tmp_path, planner={"max_steps": 3})
    assert main(["run", scn, "--out", str(tmp_path / "o")]) == EXIT_NO_CONVERGE
    capsys.readouterr()


def test_thermal_timeout_exits_4(tmp_path, capsys):
    scn = write_scenario(tmp_path)
    code = main(["run", scn, "--out", str(tmp_path / "o"),
                 "--max-wait", "0.5"])
    assert code == EXIT_THERMAL
    capsys.readouterr()


def test_batch_study(tmp_path, capsys):
    out = str(tmp_path / "study")
    code = main(["run", "--batch", "3", "--seed", "5", "--out", out,
                 "--preset", "unweighted"])
    assert code == EXIT_OK
    study = json.load(open(os.path.join(out, "study.json")))
    assert study["n_runs"] == 3 and study["seed"] == 5
    assert len(study["runs"]) == 3
    for i in range(3):
        run_dir = os.path.join(out, f"run_{i:03d}")
        assert os.path.exists(os.path.join(run_dir, "summary.json"))
    assert 0.0 <= study["convergence_rate"] <= 1.0
    capsys.readouterr()


def test_batch_exit_0_records_each_run_exit(tmp_path, capsys):
    # a batch exits 0 once study.json is written; each run's own exit code
    # is recorded there.  With no thermal wait allowed, the two runs that
    # switch stiffness time out (exit 4) and the batch still exits 0
    out = str(tmp_path / "study")
    assert main(["run", "--batch", "3", "--max-wait", "0",
                 "--out", out]) == EXIT_OK
    study = json.load(open(os.path.join(out, "study.json")))
    assert [run["exit"] for run in study["runs"]] == [EXIT_THERMAL,
                                                      EXIT_THERMAL, EXIT_OK]
    assert study["n_converged"] == 1
    capsys.readouterr()


def test_batch_no_thermal_skips_pauses(tmp_path, capsys):
    out = str(tmp_path / "study")
    assert main(["run", "--batch", "2", "--no-thermal", "--out", out]) == EXIT_OK
    for i in range(2):
        path = os.path.join(out, f"run_{i:03d}", "summary.json")
        summary = json.load(open(path))
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
    """Count writer children the batch forked and has not yet reaped."""
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


def test_batch_writer_children_match_in_process_writing(tmp_path, monkeypatch,
                                                       capsys, writer_log):
    # 2 usable CPUs: a forked child writes each run but the last; 1 CPU: all
    # in process
    printed, files = [], []
    for cpus in (2, 1):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        out = str(tmp_path / f"cpus{cpus}")
        assert main(["run", "--batch", "3", "--seed", "4", "--keyframes",
                     "200", "--out", out]) == EXIT_OK
        printed.append(capsys.readouterr())
        files.append(batch_files(out))
    assert writer_log["forked"] == 2 and writer_log["unreaped"] == 0
    assert "study.json" in files[0] and "run_002/frames/frame_00000.svg" in files[0]
    assert files[0] == files[1]
    assert printed[0] == printed[1]
    assert printed[0].out.count("converged in") == 3


def test_batch_keeps_one_cpu_for_planning(tmp_path, monkeypatch, capsys,
                                          writer_log):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    assert main(["run", "--batch", "5", "--out", str(tmp_path)]) == EXIT_OK
    assert writer_log["forked"] == 4
    assert writer_log["peak"] == 2
    assert writer_log["unreaped"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("cpus, error", [(1, OSError), (2, ChildProcessError)])
def test_batch_writer_error_fails_the_batch(tmp_path, monkeypatch, capfd, cpus,
                                            error):
    write_run_csvs = outputs.write_run_csvs

    def broken(out_dir, *args):
        # the first run: with a spare CPU it is written in a child
        if out_dir.endswith("run_000"):
            raise OSError("disk full")
        write_run_csvs(out_dir, *args)

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(outputs, "write_run_csvs", broken)
    with pytest.raises(error) as info:
        main(["run", "--batch", "2", "--out", str(tmp_path)])
    assert not (tmp_path / "study.json").exists()
    message = str(info.value)
    if cpus > 1:  # the parent names the run; the child's traceback tells why
        assert "run_000" in message
        message = capfd.readouterr().err
    assert "disk full" in message


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
    original = spiral.refit_oracle

    def failing(mode, *args):
        if mode == 3:
            raise FitError("forced refit failure")
        return original(mode, *args)

    # every module binding of the function; modes 1 and 2 still fit
    for module in (softrig, spiral, outputs, cli):
        if getattr(module, "refit_oracle", None) is original:
            monkeypatch.setattr(module, "refit_oracle", failing)
    out = tmp_path / "sweepout"
    assert main(["sweep", "--out", str(out)]) == EXIT_NO_CONVERGE
    assert not (out / "sweep.csv").exists()
    assert not (out / "refit.json").exists()
    assert "fit failed: forced refit failure" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "softrig" in capsys.readouterr().out

import json
import os

import pytest

import softrig
from softrig import cli, outputs, spiral
from softrig.cli import (EXIT_INPUT, EXIT_NO_CONVERGE, EXIT_OK, EXIT_THERMAL,
                         main)
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


def test_batch_no_thermal_skips_pauses(tmp_path, capsys):
    out = str(tmp_path / "study")
    assert main(["run", "--batch", "2", "--no-thermal", "--out", out]) == EXIT_OK
    for i in range(2):
        path = os.path.join(out, f"run_{i:03d}", "summary.json")
        summary = json.load(open(path))
        assert summary["thermal_gating"] is False
        assert summary["pause_blocks"] == 0
    capsys.readouterr()


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "softrig" in capsys.readouterr().out

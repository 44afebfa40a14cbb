"""The bytes a run writes are pinned by their sha256 digests.

Rerun tests compare two runs of the same code; these compare against
digests recorded from an earlier commit, so a change that claims to leave
behaviour alone (a speed-up, a refactor) is held to every byte of
``plan.csv``, ``trajectory.csv``, ``summary.json``, the SVG film strip
``keyframes.svg`` and the ``sweep.csv`` and ``refit.json`` of the
documented sweep.  The runs cover gated and ungated playback, and
saturated rows.  A change that alters behaviour on purpose (a new
planner rule, thermal model or output column; ROADMAP items 2-5) updates
these digests in the same change and says so in CHANGES.md.  The digests
hold for IEEE double arithmetic with a correctly rounded libm, as on common
x86-64 and arm64 Linux builds.
"""
import hashlib
import json

import pytest

from softrig.cli import EXIT_OK, main

from conftest import example_scenario_dict

BATCH_DIGESTS = {
    "run_000/plan.csv":
        "ed476fc3e08a9a49cd99a1915c56b78bb127960d40c324d7d285a98040547384",
    "run_000/summary.json":
        "90a980419868913e9606973b11764cafbe9f471b114d9f5e1e4dae8e33672c31",
    "run_000/trajectory.csv":
        "630b111e7a98241ce03381369fa636161d408ef3b8a92f07acf30f91c86a51a6",
    "run_001/plan.csv":
        "46a4de21bc2c577b19b99dd5d0b5d8cece41a2fc62126103241be0081434d170",
    "run_001/summary.json":
        "59f73118b502adabafc894d69c2d35df350f5d0f499eef97fb6763d81e0b811a",
    "run_001/trajectory.csv":
        "861e4d7903e3d76e183520338446273c12a2ffc921db922cfc6388e80d85d4ce",
    "study.json":
        "614e9f5dac8f5eb7654697e0f87e3da45a7c225395c4c557c433be3c005ee4bd",
}

SINGLE_DIGESTS = {
    "plan.csv":
        "a4981f2a80c303b9fbc61b9a9a7ef88b837e1043ab43f0835eedc24d446b4157",
    "summary.json":
        "44955e636f141baa97e53b8f554d9e4a13372190a60424662fbe8c60666165a0",
    "trajectory.csv":
        "fe1bd6aad5fc188621cfc593212729ae34482caa9726fe040404dd6fc6205dfd",
    # picks 150, 200 and 250 pause while segment 1 melts: one configuration,
    # so one symbol drawn once and used three times
    "keyframes.svg":
        "517dbee8b140c28481f9cd6d6347ddcd624febab3e442ecbe9add65cc967e961",
}

# run_006 of a 7-run unweighted batch, 52 of whose playback rows are
# saturated
SATURATED_DIGESTS = {
    "plan.csv":
        "f8be35adf8e8c82c206afbff31a11288fe397d13bc9b39bb7dcaa660e4663f9a",
    "summary.json":
        "b2cf5b83bfe1ded0bf623b45ca5288a730607e55fbda2763c6c1c76df3daabb2",
    "trajectory.csv":
        "84449011280ef4413df221762287cf627177bb7c7f9c268ab8d6667d3e65fcf7",
}

# the README example with gating off: no paused row
UNGATED_DIGESTS = {
    "plan.csv":
        "a4981f2a80c303b9fbc61b9a9a7ef88b837e1043ab43f0835eedc24d446b4157",
    "summary.json":
        "d16b9c245cf6ae2dbbfde06d923e032fa5e8746808bbec09db21c48773c99d25",
    "trajectory.csv":
        "d56893e38428e5441619c1e6c571282e5a5979fa457146f2c937a3fae8bc44ef",
}

SWEEP_DIGESTS = {
    "refit.json":
        "e84d2e6545207839df98b1ef770b67a6cdb011d69a7282909cbc9df7c9fa559d",
    "sweep.csv":
        "377f1c8b65d9e22257cb4e50b80fbc90aae45b8e3920dc89fb1cd91e4e5eb2cd",
}

# other sample counts: few samples, the tested 60, and many
OTHER_SWEEP_DIGESTS = {
    10: {"refit.json":
         "a445fffa60da1103e057fb3c87e38062851cf7c213d2860705bf64c5060a272a",
         "sweep.csv":
         "e657af5d79e072b018492467433d988602d887144c1ff869708a5afbe596aa79"},
    60: {"refit.json":
         "e13d43bdcfe46874b9bac327c3c151dba947bc3f09310f9010da830335eeb87d",
         "sweep.csv":
         "c41d6e1b046b57dd23b0add58ca67c353c1ddb4f0c9a8dbec9ee943916fbffb7"},
    1000: {"refit.json":
           "5e7ac48c1d544da97487a47607ac67d73b47c09589162471ba41e8104169235b",
           "sweep.csv":
           "217636aad69b4159d2bd933791eb4f61d962f5fca33ed1b7df96e47fadb98acd"},
}


def digests(root):
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_unweighted_batch_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["run", "--batch", "2", "--seed", "0", "--preset",
                 "unweighted", "--out", str(out)]) == EXIT_OK
    assert digests(out) == BATCH_DIGESTS


def test_gated_keyframed_run_bytes_are_pinned(tmp_path, capsys):
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(example_scenario_dict()))
    out = tmp_path / "single"
    assert main(["run", str(scn), "--keyframes", "50",
                 "--out", str(out)]) == EXIT_OK
    assert digests(out) == SINGLE_DIGESTS


def test_saturated_run_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["run", "--batch", "7", "--seed", "0", "--preset",
                 "unweighted", "--out", str(out)]) == EXIT_OK
    assert digests(out / "run_006") == SATURATED_DIGESTS
    lines = (out / "run_006" / "trajectory.csv").read_text().splitlines()
    assert sum(line.endswith(",1") for line in lines[2:]) == 52


def test_ungated_run_bytes_are_pinned(tmp_path, capsys):
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(example_scenario_dict()))
    out = tmp_path / "single"
    assert main(["run", str(scn), "--no-thermal",
                 "--out", str(out)]) == EXIT_OK
    assert digests(out) == UNGATED_DIGESTS


def test_sweep_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--samples", "200", "--out", str(out)]) == EXIT_OK
    assert digests(out) == SWEEP_DIGESTS


@pytest.mark.parametrize("samples", sorted(OTHER_SWEEP_DIGESTS))
def test_sweep_bytes_at_other_sample_counts_are_pinned(tmp_path, capsys, samples):
    out = tmp_path / "sweep"
    assert main(["sweep", "--samples", str(samples), "--out", str(out)]) == EXIT_OK
    assert digests(out) == OTHER_SWEEP_DIGESTS[samples]

import json
import math

import numpy as np
import pytest

from softrig.errors import ScenarioError
from softrig.geometry import GeometryParams
from softrig.scenario import (Scenario, load_scenario, sample_scenario,
                              scenario_from_dict)

from conftest import example_scenario_dict


def test_example_scenario_round_trips():
    scn = scenario_from_dict(example_scenario_dict())
    assert scn.label == "sidestep-and-bend"
    assert scn.q0.x == 0.0
    assert scn.target.kappa1 == 20.0
    assert scn.planner.dt == 0.05
    assert scn.thermal_gating is True


def test_unknown_keys_fail_loudly():
    data = example_scenario_dict()
    data["goal"] = {}
    with pytest.raises(ScenarioError, match="scenario.goal"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["planner"] = {"step": 0.1}
    with pytest.raises(ScenarioError, match="planner.step"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["q0"]["z"] = 0.0
    with pytest.raises(ScenarioError, match="q0.z"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["planner"] = {"integrator": "rk4"}
    with pytest.raises(ScenarioError, match="planner.integrator"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["thermal"] = {"sensor_v_lo": 1.1}
    with pytest.raises(ScenarioError, match="thermal.sensor_v_lo"):
        scenario_from_dict(data)


def test_config_fields_are_all_required_and_finite():
    data = example_scenario_dict()
    del data["q0"]["phi"]
    with pytest.raises(ScenarioError, match="q0.phi is required"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["target"]["x"] = "far"
    with pytest.raises(ScenarioError, match="finite number"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["target"]["y"] = float("nan")
    with pytest.raises(ScenarioError, match="finite number"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["q0"]["x"] = True
    with pytest.raises(ScenarioError, match="finite number"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["q0"]["x"] = 10 ** 400      # json reads it as an int past floats
    with pytest.raises(ScenarioError, match="finite number"):
        scenario_from_dict(data)


@pytest.mark.parametrize("section, key, value, kind", [
    ("planner", "dt", float("nan"), "a finite number"),
    ("geometry", "seg_len", float("nan"), "a finite number"),
    ("thermal", "tau", float("inf"), "a finite number"),
    ("thermal", "t_ambient", float("-inf"), "a finite number"),
    ("planner", "dt", 10 ** 400, "a finite number"),
    ("planner", "weights", [1.0, 1.0, float("nan"), 1.0, 1.0],
     "a finite number"),
    ("planner", "max_steps", 2.5, "an integer"),
    ("planner", "max_steps", True, "an integer"),
    ("planner", "dt", True, "a finite number"),
    ("geometry", "seg_len", "0.04", "a finite number"),
    ("geometry", "seg_len", [0.04], "a finite number"),
    ("thermal", "tau", True, "a finite number"),
    ("planner", "weights", [1.0, 1.0, True, 1.0, 1.0], "a finite number"),
    ("planner", "weights", 1.0, "a list"),
], ids=["nan-dt", "nan-seg_len", "inf-tau", "-inf-t_ambient", "huge-int-dt",
        "nan-weight",
        "float-max_steps", "bool-max_steps", "bool-dt", "str-seg_len",
        "list-seg_len", "bool-tau", "bool-weight", "number-weights"])
def test_parameters_must_be_finite(tmp_path, section, key, value, kind):
    # a number field takes a finite number but no bool, an integer field
    # an integer and the weights a list of numbers
    data = example_scenario_dict()
    data[section] = {key: value}
    # json writes and reads NaN and Infinity, so a file can carry them
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ScenarioError, match=f"{section}.{key} must be {kind}"):
        load_scenario(str(path))


def test_an_integer_passes_where_a_number_is_meant():
    data = example_scenario_dict()
    data["planner"] = {"max_steps": 100, "dt": 1}
    scn = scenario_from_dict(data)
    assert (scn.planner.max_steps, scn.planner.dt) == (100, 1)


def test_curvature_bound_checked_against_geometry():
    data = example_scenario_dict()
    data["target"]["kappa1"] = 1000.0
    with pytest.raises(ScenarioError, match="curvature bound"):
        scenario_from_dict(data)
    # a shorter segment raises the bound and the same target passes
    data["geometry"] = {"seg_len": 0.004, "mid_link": 0.003,
                        "end_link": 0.003}
    scn = scenario_from_dict(data)
    assert scn.target.kappa1 == 1000.0


def test_missing_sections_use_defaults():
    scn = scenario_from_dict({
        "q0": {k: 0.0 for k in ("x", "y", "phi", "kappa1", "kappa2")},
        "target": {k: 0.0 for k in ("x", "y", "phi", "kappa1", "kappa2")},
    })
    assert scn.geometry == GeometryParams()
    assert scn.planner.max_steps == 10000
    assert scn.thermal.tau == 8.0


def test_thermal_tau_bound_follows_the_step():
    # with the default gains the heating step from the soft setpoint
    # (65 deg C) at full duty rises by dt / tau * 40 deg C, and 20 deg C
    # of room under the ceiling asks tau > 2 dt: 2 dt is refused, and the
    # next float up is taken
    data = example_scenario_dict()
    for dt, tau in ((0.05, 0.1), (4.0, 8.0)):
        data["planner"] = {"dt": dt}
        data["thermal"] = {"tau": tau}
        with pytest.raises(ScenarioError, match=r"^thermal\.tau = "):
            scenario_from_dict(data)
        data["thermal"] = {"tau": math.nextafter(tau, math.inf)}
        assert scenario_from_dict(data).thermal.tau > tau
    # a ceiling far above the plant's reach leaves only tau > dt
    data["planner"] = {"dt": 0.05}
    data["thermal"] = {"tau": 0.05, "sensor_t_hi": 200.0}
    with pytest.raises(ScenarioError, match="must exceed 0.05 s"):
        scenario_from_dict(data)


def test_gating_and_label_types():
    data = example_scenario_dict()
    data["thermal_gating"] = "yes"
    with pytest.raises(ScenarioError, match="thermal_gating"):
        scenario_from_dict(data)
    data = example_scenario_dict()
    data["label"] = 7
    with pytest.raises(ScenarioError, match="label"):
        scenario_from_dict(data)


def test_weights_list_becomes_tuple():
    data = example_scenario_dict()
    data["planner"] = {"weights": [1, 1, 1, 1, 1]}
    scn = scenario_from_dict(data)
    assert scn.planner.weights == (1, 1, 1, 1, 1)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(str(bad))
    good = tmp_path / "ok.json"
    good.write_text(json.dumps(example_scenario_dict()))
    scn = load_scenario(str(good))
    assert isinstance(scn, Scenario)
    assert scn.label == "sidestep-and-bend"


def test_sample_scenario_is_seed_deterministic():
    a = sample_scenario(np.random.default_rng(42), index=3)
    b = sample_scenario(np.random.default_rng(42), index=3)
    assert a.q0 == b.q0 and a.target == b.target
    assert a.label == "sample-003"
    kb = a.geometry.kappa_max
    for q in (a.q0, a.target):
        assert abs(q.x) <= 0.3 and abs(q.y) <= 0.3
        assert -math.pi <= q.phi <= math.pi
        assert abs(q.kappa1) <= kb and abs(q.kappa2) <= kb

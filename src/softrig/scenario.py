"""Scenario files: strict JSON loading and seeded random sampling.

A scenario bundles everything one planning run needs: geometry, planner
and thermal parameters, the start and target configurations and the
thermal-gating switch.  Loading is strict: unknown keys, missing fields
and out-of-range values raise ScenarioError naming the offending path, so
typos fail loudly instead of silently running defaults.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ContractError, ScenarioError
from .geometry import AgentConfig, GeometryParams, past_bound
from .planner import PlannerParams
from .thermal import ThermalParams, check_step

if TYPE_CHECKING:
    import numpy as np

_CONFIG_KEYS = ("x", "y", "phi", "kappa1", "kappa2")
POSE_BOX = 0.3                # half side of the sampled position box, metres


@dataclass(frozen=True)
class Scenario:
    q0: AgentConfig
    target: AgentConfig
    geometry: GeometryParams
    planner: PlannerParams
    thermal: ThermalParams
    thermal_gating: bool = True
    label: str = "scenario"


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path} must be an object, got {type(obj).__name__}")
    return obj


def _require_number(value, path: str, integer: bool = False) -> None:
    # a bool is an int to Python; json reads NaN, Infinity and integers
    # past the float range, which fail the comparison
    if (not isinstance(value, int if integer else (int, float))
            or isinstance(value, bool)
            or not integer and not abs(value) <= sys.float_info.max):
        kind = "an integer" if integer else "a finite number"
        raise ScenarioError(f"{path} must be {kind}")


def _build_params(cls, obj, path: str):
    obj = _require_mapping(obj, path)
    known = {f.name: f.default for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        if key not in known:
            raise ScenarioError(f"{path}.{key} is not a known field")
        # a tuple default takes a list of numbers, an integer one an integer
        if isinstance(known[key], tuple):
            if not isinstance(value, list):
                raise ScenarioError(f"{path}.{key} must be a list")
            for entry in value:
                _require_number(entry, f"{path}.{key}")
            value = tuple(value)
        else:
            _require_number(value, f"{path}.{key}",
                            integer=isinstance(known[key], int))
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _build_config(obj, path: str, geom: GeometryParams) -> AgentConfig:
    obj = _require_mapping(obj, path)
    for key in obj:
        if key not in _CONFIG_KEYS:
            raise ScenarioError(f"{path}.{key} is not a known field")
    for key in _CONFIG_KEYS:
        if key not in obj:
            raise ScenarioError(f"{path}.{key} is required")
        _require_number(obj[key], f"{path}.{key}")
    for key in ("kappa1", "kappa2"):
        if past_bound(obj[key], geom.kappa_max):
            raise ScenarioError(
                f"{path}.{key} = {obj[key]:.6g} exceeds the curvature bound "
                f"{geom.kappa_max:.6g}")
    return AgentConfig(**{k: float(obj[k]) for k in _CONFIG_KEYS})


def scenario_from_dict(data: dict, label: str = "scenario") -> Scenario:
    data = _require_mapping(data, "scenario")
    known = {"label", "geometry", "planner", "thermal", "q0", "target",
             "thermal_gating"}
    for key in data:
        if key not in known:
            raise ScenarioError(f"scenario.{key} is not a known field")
    geom = _build_params(GeometryParams, data.get("geometry", {}), "geometry")
    planner = _build_params(PlannerParams, data.get("planner", {}), "planner")
    thermal = _build_params(ThermalParams, data.get("thermal", {}), "thermal")
    try:
        check_step(thermal, planner.dt)
    except ContractError as exc:
        raise ScenarioError(str(exc)) from exc
    for key in ("q0", "target"):
        if key not in data:
            raise ScenarioError(f"scenario.{key} is required")
    gating = data.get("thermal_gating", True)
    if not isinstance(gating, bool):
        raise ScenarioError("scenario.thermal_gating must be true or false")
    name = data.get("label", label)
    if not isinstance(name, str):
        raise ScenarioError("scenario.label must be a string")
    return Scenario(
        q0=_build_config(data["q0"], "q0", geom),
        target=_build_config(data["target"], "target", geom),
        geometry=geom, planner=planner, thermal=thermal,
        thermal_gating=gating, label=name)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"scenario file is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    return scenario_from_dict(data, label=path)


def sample_scenario(rng: np.random.Generator, index: int = 0) -> Scenario:
    """Random start and target inside the workspace box, default parameters.

    Positions are uniform in +-POSE_BOX metres, headings over the circle,
    curvatures over the reachable single-segment range.
    """
    geometry = GeometryParams()
    kb = geometry.kappa_max

    def draw() -> AgentConfig:
        return AgentConfig(
            x=float(rng.uniform(-POSE_BOX, POSE_BOX)),
            y=float(rng.uniform(-POSE_BOX, POSE_BOX)),
            phi=float(rng.uniform(-math.pi, math.pi)),
            kappa1=float(rng.uniform(-kb, kb)),
            kappa2=float(rng.uniform(-kb, kb)))

    return Scenario(q0=draw(), target=draw(), geometry=geometry,
                    planner=PlannerParams(), thermal=ThermalParams(),
                    label=f"sample-{index:03d}")

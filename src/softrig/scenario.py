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
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ScenarioError
from .geometry import AgentConfig, GeometryParams
from .planner import PlannerParams
from .thermal import ThermalParams

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


def _build_params(cls, obj, path: str):
    obj = _require_mapping(obj, path)
    known = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        if key not in known:
            raise ScenarioError(f"{path}.{key} is not a known field")
        if isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (ContractError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _build_config(obj, path: str, geom: GeometryParams) -> AgentConfig:
    obj = _require_mapping(obj, path)
    for key in obj:
        if key not in _CONFIG_KEYS:
            raise ScenarioError(f"{path}.{key} is not a known field")
    for key in _CONFIG_KEYS:
        if key not in obj:
            raise ScenarioError(f"{path}.{key} is required")
        value = obj[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ScenarioError(f"{path}.{key} must be a finite number")
    for key in ("kappa1", "kappa2"):
        if abs(obj[key]) > geom.kappa_max * (1 + 1e-9):
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


def example_scenario_dict() -> dict:
    """A small hand-written scenario, also used by the docs."""
    return {
        "label": "sidestep-and-bend",
        "q0": {"x": 0.0, "y": 0.0, "phi": 0.0, "kappa1": 0.0, "kappa2": 0.0},
        "target": {"x": 0.12, "y": 0.08, "phi": 0.6,
                   "kappa1": 20.0, "kappa2": -15.0},
        "planner": {"dt": 0.05, "eps_goal": 0.02},
        "thermal_gating": True,
    }

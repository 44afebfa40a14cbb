"""Greedy stiffness-switching motion planner.

Each control step tries every reachable stiffness pattern, computes damped
least-squares drive inputs against the configuration error under that
pattern's Jacobian, integrates one step and keeps the pattern that ends
closest to the target.  A hysteresis rule holds the current pattern while
its step still changes the configuration, so a started curvature fix runs
to completion instead of chattering between patterns of near-equal
descent.  The all-rigid pattern is listed first and wins ties, so plans
finish in the rigid regime whenever it is as good as bending.

Distances are measured by a weighted Euclidean norm over
(x, y, phi, kappa1, kappa2).  The default weights de-emphasise curvature
(order 1e2 1/m against order 1e-1 m positions); the unweighted preset
reproduces the plain norm that treats all five coordinates alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import ContractError, StallError
from .geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                       StiffnessState, wrap_angle)
from .jacobian import hybrid_jacobian
from .simulator import fk_step_detailed

_BOUND_TOL = 1e-9


@dataclass(frozen=True)
class PlannerParams:
    lam: float = 1.0              # error feedback gain, 1/s
    dt: float = 0.05              # s
    mu: float = 1e-3              # damping of the least-squares solve
    eps_goal: float = 0.02        # weighted distance counted as arrival
    eps_progress: float = 1e-5    # smallest distance drop counted as progress
    weights: tuple = (1.0, 1.0, 0.05, 0.001, 0.001)
    max_steps: int = 10000

    def __post_init__(self):
        if self.dt <= 0 or self.lam <= 0:
            raise ContractError("planner dt and lam must be positive")
        if len(self.weights) != 5 or any(w < 0 for w in self.weights):
            raise ContractError("weights must be five non-negative numbers")
        if self.max_steps < 1:
            raise ContractError("max_steps must be at least 1")

    @classmethod
    def unweighted(cls, **overrides) -> "PlannerParams":
        """Plain Euclidean distance over all five coordinates."""
        return cls(weights=(1.0,) * 5, **overrides)


@dataclass(frozen=True)
class PlanStep:
    t: float
    config: AgentConfig
    stiffness: StiffnessState
    speeds: np.ndarray
    saturated: bool                 # the step's curvature clamp engaged


@dataclass
class PlanResult:
    q0: AgentConfig
    target: AgentConfig
    params: PlannerParams
    steps: list[PlanStep]
    configs: list[AgentConfig]      # len(steps) + 1, ends at the final state
    distances: list[float]          # weighted, aligned with configs
    converged: bool
    n_switches: int

    @property
    def final_config(self) -> AgentConfig:
        return self.configs[-1]

    @property
    def final_error(self) -> float:
        return self.distances[-1]

    def runs(self) -> list[tuple[str, int]]:
        """Consecutive same-stiffness spans as (label, step count)."""
        labels = (step.stiffness.label() for step in self.steps)
        return [(label, sum(1 for _ in run)) for label, run in groupby(labels)]

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "n_steps": len(self.steps),
            "n_switches": self.n_switches,
            "runs": [{"stiffness": lab, "steps": n} for lab, n in self.runs()],
            "final_error": self.final_error,
            "final_config": self.final_config.as_array().tolist(),
        }


def config_error(target: AgentConfig, q: AgentConfig) -> np.ndarray:
    """Coordinate-wise error with the heading wrapped to the short way."""
    err = target.as_array() - q.as_array()
    err[2] = wrap_angle(err[2])
    return err


def weighted_distance(err: np.ndarray, weights) -> float:
    w = np.asarray(weights, dtype=float)
    return float(np.sqrt(np.sum((w * err) ** 2)))


def damped_speeds(jac: np.ndarray, err: np.ndarray, lam: float,
                  mu: float) -> np.ndarray:
    """Damped least-squares drive inputs for one hypothesis step.

    Solves (Ja^T Ja + mu^2 I) u = Ja^T (lam * err) on the active columns Ja
    only (the 5 x 2 soft block or the 5 x 3 rigid block).  By the
    push-through identity (Wampler, IEEE SMC 1986) this equals
    J^T (J J^T + mu^2 I)^-1 (lam * err), but the 5 x 5 Gram matrix there
    has rank-deficient J J^T, so its conditioning is set by mu^2 alone.
    Columns of zeros (the inactive regime) get exactly zero input.
    """
    active = np.flatnonzero(jac.any(axis=0))
    ja = jac[:, active]
    gram = ja.T @ ja + (mu * mu) * np.eye(active.size)
    ups = np.zeros(jac.shape[1])
    ups[active] = np.linalg.solve(gram, ja.T @ (lam * err))
    return ups


def plan_motion(q0: AgentConfig, target: AgentConfig, geom: GeometryParams,
                params: PlannerParams | None = None) -> PlanResult:
    """Plan drive speeds and stiffness to move q0 to the target.

    Returns a PlanResult; converged is False when max_steps ran out.
    Raises StallError when no stiffness pattern can reduce the distance
    while the goal is still away.
    """
    params = params if params is not None else PlannerParams()
    uniform_bound = geom.kappa_max_uniform * (1 + _BOUND_TOL)
    q = q0
    err = config_error(target, q)
    dist = weighted_distance(err, params.weights)
    steps: list[PlanStep] = []
    configs = [q]
    distances = [dist]
    prev_idx: int | None = None
    n_switches = 0
    for step_no in range(params.max_steps):
        if dist <= params.eps_goal:
            return PlanResult(q0, target, params, steps, configs, distances,
                              True, n_switches)
        candidates: dict[int, tuple[float, np.ndarray, AgentConfig, bool]] = {}
        for idx, s in enumerate(STIFFNESS_STATES):
            if s.index == 3 and (abs(q.kappa1) > uniform_bound
                                 or abs(q.kappa2) > uniform_bound):
                continue
            jac = hybrid_jacobian(q, s, geom)
            ups = damped_speeds(jac, err, params.lam, params.mu)
            q_next, sat = fk_step_detailed(q, s, ups, params.dt, geom, jac=jac)
            d_next = weighted_distance(config_error(target, q_next),
                                       params.weights)
            candidates[idx] = (d_next, ups, q_next, sat)
        best_idx = min(candidates, key=lambda i: candidates[i][0])
        best_progress = dist - candidates[best_idx][0]
        if best_progress <= params.eps_progress:
            raise StallError(
                f"no stiffness pattern makes progress at step {step_no} "
                f"(distance {dist:.6g})",
                diagnostics={
                    STIFFNESS_STATES[i].label(): dist - c[0]
                    for i, c in candidates.items()})
        chosen = best_idx
        if prev_idx is not None and prev_idx != best_idx and prev_idx in candidates:
            d_hold, _, q_hold, _ = candidates[prev_idx]
            # retain while the pattern still changes the configuration, so a
            # curvature fix is finished before the mode is released.  A
            # pattern that no longer gains ground is let go even if it keeps
            # moving (it may be pinned at a curvature bound).
            if (dist - d_hold > 0.0
                    and weighted_distance(config_error(q_hold, q),
                                          params.weights)
                    > params.eps_progress):
                chosen = prev_idx
        _, ups, q_next, sat = candidates[chosen]
        steps.append(PlanStep(step_no * params.dt, q,
                              STIFFNESS_STATES[chosen], ups, sat))
        if prev_idx is not None and chosen != prev_idx:
            n_switches += 1
        prev_idx = chosen
        q = q_next
        err = config_error(target, q)
        dist = weighted_distance(err, params.weights)
        configs.append(q)
        distances.append(dist)
    return PlanResult(q0, target, params, steps, configs, distances,
                      False, n_switches)


def fk_reference(q0: AgentConfig, target: AgentConfig, n_steps: int,
                 weights=None) -> tuple[list[AgentConfig], list[float]]:
    """Straight-line configuration sweep used as a comparison baseline.

    Interpolates each coordinate linearly (heading along the short way)
    over n_steps and reports the weighted distance to the target at every
    point, by default with the standard planner weights.
    """
    if n_steps < 1:
        raise ContractError(f"need at least one step, got {n_steps}")
    if weights is None:
        weights = PlannerParams().weights
    a0 = q0.as_array()
    a1 = target.as_array()
    dphi = wrap_angle(a1[2] - a0[2])
    configs = []
    distances = []
    for i in range(n_steps + 1):
        frac = i / n_steps
        arr = a0 + frac * (a1 - a0)
        arr[2] = a0[2] + frac * dphi
        qi = AgentConfig.from_array(arr)
        configs.append(qi)
        distances.append(weighted_distance(config_error(target, qi), weights))
    return configs, distances

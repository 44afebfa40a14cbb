"""Greedy stiffness-switching motion planner.

Each control step computes, for a stiffness pattern, damped least-squares
drive inputs against the configuration error under that pattern's
Jacobian, integrates one step and measures the distance left to the
target.  A hysteresis rule holds the current pattern while its step still
gains ground and still changes the configuration, so a started curvature
fix runs to completion instead of chattering between patterns of
near-equal descent.  The held pattern is therefore tried first.  When it
holds, it is the step, and the other patterns are tried in the canonical
order only until one gains more than ``eps_progress``, which is all the
stall test needs; none is tried when the held pattern gains that much
itself.  Otherwise every reachable pattern is tried and the closest wins.
The all-rigid pattern is listed first and wins ties, so plans finish in
the rigid regime whenever it is as good as bending.

Distances are measured by a weighted Euclidean norm over
(x, y, phi, kappa1, kappa2).  The default weights de-emphasise curvature
(order 1e2 1/m against order 1e-1 m positions); the unweighted preset
reproduces the plain norm that treats all five coordinates alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

from .errors import ContractError, DomainError, StallError
from .geometry import (STIFFNESS_STATES, AgentConfig, GeometryParams,
                       StiffnessState, past_bound, wrap_angle)
from .jacobian import Columns, active_columns, shared_terms
from .simulator import fk_step_detailed


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
    speeds: tuple[float, ...]       # (v1, v2, u0, v0, r0)
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

    @property
    def n_switches(self) -> int:
        """Stiffness changes along the plan, one fewer than its runs."""
        return max(len(self.runs()) - 1, 0)

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "n_steps": len(self.steps),
            "n_switches": self.n_switches,
            "runs": [{"stiffness": lab, "steps": n} for lab, n in self.runs()],
            "final_error": self.final_error,
            "final_config": self.final_config.as_array().tolist(),
        }


def config_error(target: AgentConfig,
                 q: AgentConfig) -> tuple[float, float, float, float, float]:
    """Coordinate-wise error with the heading wrapped to the short way."""
    return (target.x - q.x, target.y - q.y, wrap_angle(target.phi - q.phi),
            target.kappa1 - q.kappa1, target.kappa2 - q.kappa2)


def weighted_distance(err, weights) -> float:
    total = 0.0
    for w, e in zip(weights, err):
        we = w * e
        total += we * we
    return math.sqrt(total)


def _dot(a, b) -> float:
    a0, a1, a2, a3, a4 = a
    b0, b1, b2, b3, b4 = b
    return a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4


def damped_speeds(cols: Columns, s: StiffnessState, err, lam: float,
                  mu: float) -> tuple[float, float, float, float, float]:
    """Damped least-squares drive inputs for one hypothesis step.

    Solves (Ja^T Ja + mu^2 I) u = Ja^T (lam * err) in closed form on the
    columns Ja that the pattern drives, ``cols`` from ``active_columns``
    (the two unit speeds or the three body-twist inputs, ``s.inputs``).
    By the push-through identity (Wampler, IEEE SMC 1986) this equals
    J^T (J J^T + mu^2 I)^-1 (lam * err), but the 5 x 5 Gram matrix there
    has rank-deficient J J^T, so its conditioning is set by mu^2 alone.
    The rigid columns are orthonormal (a heading rotation plus phi), so
    u = Ja^T (lam * err) / (1 + mu^2); the soft 2 x 2 system is solved by
    Cramer's rule.  Returns all five inputs; the inactive ones are exactly
    zero.
    """
    le = [lam * e for e in err]
    damp = mu * mu
    if not s.any_soft:
        scale = 1.0 + damp
        u0, v0, r0 = (_dot(col, le) / scale for col in cols)
        return 0.0, 0.0, u0, v0, r0
    a, b = cols
    g11 = _dot(a, a) + damp
    g12 = _dot(a, b)
    g22 = _dot(b, b) + damp
    r1, r2 = _dot(a, le), _dot(b, le)
    det = g11 * g22 - g12 * g12
    return ((g22 * r1 - g12 * r2) / det, (g11 * r2 - g12 * r1) / det,
            0.0, 0.0, 0.0)


def plan_motion(q0: AgentConfig, target: AgentConfig, geom: GeometryParams,
                params: PlannerParams | None = None) -> PlanResult:
    """Plan drive speeds and stiffness to move q0 to the target.

    Returns a PlanResult; converged is False when max_steps ran out.
    Raises DomainError when a curvature of q0 or the target exceeds the
    full-circle bound, and StallError when no stiffness pattern can reduce
    the distance while the goal is still away.
    """
    params = params if params is not None else PlannerParams()
    for name, cfg in (("q0", q0), ("target", target)):
        for j in (1, 2):
            if past_bound(cfg.kappa(j), geom.kappa_max):
                raise DomainError(
                    f"{name}.kappa{j} = {cfg.kappa(j):.6g} exceeds the "
                    f"curvature bound {geom.kappa_max:.6g}")
    q = q0
    err = config_error(target, q)
    dist = weighted_distance(err, params.weights)
    steps: list[PlanStep] = []
    configs = [q]
    distances = [dist]
    prev_idx: int | None = None
    bounds = [s.kappa_bound(geom) for s in STIFFNESS_STATES]
    for step_no in range(params.max_steps):
        if dist <= params.eps_goal:
            return PlanResult(q0, target, params, steps, configs, distances,
                              True)
        bend = max(abs(q.kappa1), abs(q.kappa2))
        # the equal-bend pattern cannot take over a bend past its bound
        reachable = [idx for idx, bound in enumerate(bounds)
                     if not past_bound(bend, bound)]
        shared = shared_terms(q, geom)
        tried: dict[int, tuple] = {}

        def trial(idx: int) -> tuple:
            # (distance, error, inputs, configuration, saturated) of one
            # step under pattern idx, worked out once per step
            if idx not in tried:
                s = STIFFNESS_STATES[idx]
                cols = active_columns(q, s, geom, shared)
                ups = damped_speeds(cols, s, err, params.lam, params.mu)
                q_next, sat = fk_step_detailed(q, s, ups, params.dt, geom,
                                               cols=cols)
                err_next = config_error(target, q_next)
                tried[idx] = (weighted_distance(err_next, params.weights),
                              err_next, ups, q_next, sat)
            return tried[idx]

        chosen = None
        if prev_idx in reachable:
            held = trial(prev_idx)
            gain = dist - held[0]
            # hold the pattern while it still gains ground and still changes
            # the configuration, so a curvature fix is finished before the
            # mode is released; one that keeps moving without gaining (it
            # may be pinned at a curvature bound) is let go.  A held pattern
            # is the step whatever the others reach: they only decide
            # whether the step stalls.
            if (gain > 0.0
                    and weighted_distance(config_error(held[3], q),
                                          params.weights)
                    > params.eps_progress
                    and (gain > params.eps_progress
                         or any(dist - trial(idx)[0] > params.eps_progress
                                for idx in reachable if idx != prev_idx))):
                chosen = prev_idx
        if chosen is None:
            candidates = {idx: trial(idx) for idx in reachable}
            chosen = min(candidates, key=lambda i: candidates[i][0])
            if dist - candidates[chosen][0] <= params.eps_progress:
                raise StallError(
                    f"no stiffness pattern makes progress at step {step_no} "
                    f"(distance {dist:.6g})",
                    diagnostics={
                        STIFFNESS_STATES[i].label(): dist - c[0]
                        for i, c in candidates.items()})
        dist, err, ups, q_next, sat = tried[chosen]
        steps.append(PlanStep(step_no * params.dt, q,
                              STIFFNESS_STATES[chosen], ups, sat))
        prev_idx = chosen
        q = q_next
        configs.append(q)
        distances.append(dist)
    return PlanResult(q0, target, params, steps, configs, distances, False)


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
    start = (q0.x, q0.y, q0.kappa1, q0.kappa2)
    end = (target.x, target.y, target.kappa1, target.kappa2)
    dphi = wrap_angle(target.phi - q0.phi)
    configs = []
    distances = []
    for i in range(n_steps + 1):
        frac = i / n_steps
        x, y, kappa1, kappa2 = (a + frac * (b - a)
                                for a, b in zip(start, end))
        qi = AgentConfig(x, y, q0.phi + frac * dphi, kappa1, kappa2)
        configs.append(qi)
        distances.append(weighted_distance(config_error(target, qi), weights))
    return configs, distances

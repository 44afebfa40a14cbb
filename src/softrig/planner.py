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
itself.  The pattern that last passed the stall test is tried first, if it
is reachable and is not the held pattern, since it usually passes again;
the test is a yes or no over trials cached per step, so the order changes
no plan.  Otherwise every reachable pattern is tried and the closest wins.
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
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import NamedTuple

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
    def unweighted(cls) -> "PlannerParams":
        """Plain Euclidean distance over all five coordinates."""
        return cls(weights=(1.0,) * 5)


class PlanStep(NamedTuple):
    """One planner step.  Immutable; a named tuple because one is built per
    step and costs a fraction of a frozen dataclass."""

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
    final_config: AgentConfig       # the state after the last step
    distances: list[float]          # weighted, len(steps) + 1
    converged: bool

    @property
    def final_error(self) -> float:
        return self.distances[-1]

    def runs(self) -> list[tuple[str, int]]:
        """Consecutive same-stiffness spans as (label, step count)."""
        return self._runs

    @cached_property
    def _runs(self) -> list[tuple[str, int]]:
        # worked out once per plan, which does not change after planning:
        # one label per span, not one per step
        return [(stiffness.label(), sum(1 for _ in run)) for stiffness, run
                in groupby(self.steps, key=attrgetter("stiffness"))]

    @property
    def n_switches(self) -> int:
        """Stiffness changes along the plan, one fewer than its runs."""
        return max(len(self.runs()) - 1, 0)

    def summary(self) -> dict:
        q = self.final_config
        return {
            "converged": self.converged,
            "n_steps": len(self.steps),
            "n_switches": self.n_switches,
            "runs": [{"stiffness": lab, "steps": n} for lab, n in self.runs()],
            "final_error": self.final_error,
            "final_config": [float(q.x), float(q.y), float(q.phi),
                             float(q.kappa1), float(q.kappa2)],
        }


def config_error(target: AgentConfig,
                 q: AgentConfig) -> tuple[float, float, float, float, float]:
    """Coordinate-wise error with the heading wrapped to the short way."""
    return (target.x - q.x, target.y - q.y, wrap_angle(target.phi - q.phi),
            target.kappa1 - q.kappa1, target.kappa2 - q.kappa2)


def weighted_distance(err, weights) -> float:
    """Weighted Euclidean norm of a five-coordinate error."""
    e0, e1, e2, e3, e4 = err
    w0, w1, w2, w3, w4 = weights
    # summed in coordinate order from +0.0
    a0, a1, a2, a3, a4 = w0 * e0, w1 * e1, w2 * e2, w3 * e3, w4 * e4
    return math.sqrt(0.0 + a0 * a0 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4)


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
    e0, e1, e2, e3, e4 = err
    le = (lam * e0, lam * e1, lam * e2, lam * e3, lam * e4)
    damp = mu * mu
    if not s.any_soft:
        scale = 1.0 + damp
        c0, c1, c2 = cols
        return (0.0, 0.0, _dot(c0, le) / scale, _dot(c1, le) / scale,
                _dot(c2, le) / scale)
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
    weights, lam, mu, dt = params.weights, params.lam, params.mu, params.dt
    eps_progress = params.eps_progress
    q = q0
    err = config_error(target, q)
    dist = weighted_distance(err, weights)
    steps: list[PlanStep] = []
    distances = [dist]
    prev_idx: int | None = None
    witness: int | None = None    # last pattern to pass the stall test
    bounds = [s.kappa_bound(geom) for s in STIFFNESS_STATES]

    def trial(idx: int) -> tuple:
        # (distance, error, inputs, configuration, saturated) of one step
        # under pattern idx from the loop's current q, err and shared terms,
        # worked out once per step and kept in its tried list
        found = tried[idx]
        if found is None:
            s = STIFFNESS_STATES[idx]
            cols = active_columns(q, s, geom, shared)
            ups = damped_speeds(cols, s, err, lam, mu)
            q_next, sat = fk_step_detailed(q, s, ups, dt, geom, cols=cols)
            err_next = config_error(target, q_next)
            found = tried[idx] = (weighted_distance(err_next, weights),
                                  err_next, ups, q_next, sat)
        return found

    def reachable(bend: float) -> list[int]:
        # the equal-bend pattern cannot take over a bend past its bound
        return [idx for idx, bound in enumerate(bounds)
                if not past_bound(bend, bound)]

    for step_no in range(params.max_steps):
        if dist <= params.eps_goal:
            return PlanResult(q0, target, params, steps, q, distances, True)
        bend = max(abs(q.kappa1), abs(q.kappa2))
        shared = shared_terms(q)
        tried = [None] * len(STIFFNESS_STATES)
        chosen = None
        # the held pattern's bound is tested alone; the reachable list is
        # built only when the other patterns are tried
        if prev_idx is not None and not past_bound(bend, bounds[prev_idx]):
            held = trial(prev_idx)
            gain = dist - held[0]
            # hold the pattern while it still gains ground and still changes
            # the configuration, so a curvature fix is finished before the
            # mode is released; one that keeps moving without gaining (it
            # may be pinned at a curvature bound) is let go.  A held pattern
            # is the step whatever the others reach: they only decide
            # whether the step stalls, and the last witness goes first.
            if (gain > 0.0
                    and weighted_distance(config_error(held[3], q), weights)
                    > eps_progress):
                if gain > eps_progress:
                    chosen = prev_idx
                else:
                    others = reachable(bend)
                    if witness in others:
                        # tried first; its repeat reads the cached trial
                        others.insert(0, witness)
                    passed = next((idx for idx in others if idx != prev_idx
                                   and dist - trial(idx)[0] > eps_progress),
                                  None)
                    if passed is not None:
                        chosen, witness = prev_idx, passed
        if chosen is None:
            candidates = {idx: trial(idx) for idx in reachable(bend)}
            chosen = min(candidates, key=lambda i: candidates[i][0])
            if dist - candidates[chosen][0] <= eps_progress:
                raise StallError(
                    f"no stiffness pattern makes progress at step {step_no} "
                    f"(distance {dist:.6g})",
                    diagnostics={
                        STIFFNESS_STATES[i].label(): dist - c[0]
                        for i, c in candidates.items()})
        dist, err, ups, q_next, sat = tried[chosen]
        steps.append(PlanStep(step_no * dt, q, STIFFNESS_STATES[chosen], ups,
                              sat))
        prev_idx = chosen
        q = q_next
        distances.append(dist)
    return PlanResult(q0, target, params, steps, q, distances, False)

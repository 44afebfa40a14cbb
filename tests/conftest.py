"""Reference forms for the tests: planar frames, the array Jacobian, the
rk4 flow, the straight-line configuration sweep, the log-spiral residual
written with ``np.unwrap``, the wheel matrix and its pseudoinverse, and
the thermal switching latency; plus a scaled geometry and the README's
example scenario.

The package maps points through (x, y, theta) poses and steps the
configuration with one explicit Euler step, all in float arithmetic; the
tests check it against these independent array forms.
"""
import dataclasses
import math

import numpy as np

from softrig.errors import ContractError, ThermalTimeoutError
from softrig.geometry import AgentConfig, wrap_angle
from softrig.jacobian import active_columns
from softrig.planner import PlannerParams, config_error, weighted_distance
from softrig.thermal import (PHASE_SOFT, initial_state, loop_step,
                             setpoint_for, target_phase)
from softrig.wheelmodel import wheel_rows

TRANSITION_DT = 0.01        # s, integration step of transition_time
TRANSITION_LIMIT = 120.0    # s, transition_time gives up past this
SOFT_SETTLE = 60.0          # s, soft hold before the cooling transition
RANK_TOL = 1e-10            # smallest singular value ratio body_twist inverts


def example_scenario_dict():
    """A small hand-written scenario: the README's example."""
    return {
        "label": "sidestep-and-bend",
        "q0": {"x": 0.0, "y": 0.0, "phi": 0.0, "kappa1": 0.0, "kappa2": 0.0},
        "target": {"x": 0.12, "y": 0.08, "phi": 0.6,
                   "kappa1": 20.0, "kappa2": -15.0},
        "planner": {"dt": 0.05, "eps_goal": 0.02},
        "thermal_gating": True,
    }


def scaled_geometry(geom, seg_len):
    """``geom`` with its fibre lengths scaled to the segment length
    ``seg_len``; the wheel units are off-the-shelf parts and keep theirs."""
    r = seg_len / geom.seg_len
    return dataclasses.replace(geom, seg_len=seg_len,
                               mid_link=geom.mid_link * r,
                               end_link=geom.end_link * r)


def frame(x, y, theta):
    """Homogeneous matrix of the planar pose (x, y, theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def frame_inverse(mat):
    """Inverse of a homogeneous frame, written (R^T, -R^T t)."""
    rot_t = mat[:2, :2].T
    out = np.eye(3)
    out[:2, :2] = rot_t
    out[:2, 2] = -rot_t @ mat[:2, 2]
    return out


def as_array(q):
    """The configuration (x, y, phi, kappa1, kappa2) as a numpy vector."""
    return np.array([q.x, q.y, q.phi, q.kappa1, q.kappa2])


def hybrid_jacobian(q, s, geom):
    """Full 5 x 5 Jacobian over (v1, v2, u0, v0, r0), regime gated.

    Only the columns ``s.inputs`` are filled, from ``active_columns``: the
    5 x 2 soft block while any segment is soft, the 5 x 3 rigid block
    otherwise.  The other columns are zero.
    """
    jac = np.zeros((5, 5))
    jac[:, s.inputs] = np.array(active_columns(q, s, geom)).T
    return jac


def _clamped_config(values, bound):
    # the vector as a configuration with both curvatures held to +-bound
    x, y, phi, kappa1, kappa2 = values.tolist()
    return AgentConfig(x, y, phi, min(max(kappa1, -bound), bound),
                       min(max(kappa2, -bound), bound))


def rk4_step(q, s, speeds, dt, geom):
    """One classical Runge-Kutta step of the flow dq/dt = J(q) u.

    The reference the Euler step of ``fk_step_detailed`` is checked
    against.  The stage states and the result are clamped to the
    pattern's curvature bound; returns (new config, whether the clamp
    engaged on the result).
    """
    bound = s.kappa_bound(geom)
    u = np.array(speeds, dtype=float)

    def rate(values):
        return hybrid_jacobian(_clamped_config(values, bound), s, geom) @ u

    start = as_array(q)
    k1 = hybrid_jacobian(q, s, geom) @ u
    k2 = rate(start + 0.5 * dt * k1)
    k3 = rate(start + 0.5 * dt * k2)
    k4 = rate(start + dt * k3)
    end = start + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6
    return _clamped_config(end, bound), bool(np.abs(end[3:]).max() > bound)


def fk_reference(q0, target, n_steps, weights=None):
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


def spiral_residual(d):
    """Log-spiral residuals and Jacobians at the offsets d (k, n, 2).

    The reference ``spiral._spiral_residual`` is checked against byte for
    byte: theta unwrapped by ``np.unwrap`` over the whole stack, and the
    Jacobian of theta and the line's slope formed by 2-wide broadcasts.
    Returns (r, jac, log_a, b, theta).
    """
    n = d.shape[1]

    def dot(x, y):
        return x.swapaxes(1, 2) @ y

    def mean(x):
        return np.add.reduce(x, axis=1, keepdims=True) / n

    rho2 = d[..., :1] ** 2 + d[..., 1:] ** 2
    rho = np.sqrt(rho2)
    theta = np.unwrap(np.arctan2(d[..., 1:], d[..., :1]), axis=1)
    log_rho = np.log(rho)
    theta_mean, log_rho_mean = mean(theta), mean(log_rho)
    u = theta - theta_mean
    v = log_rho - log_rho_mean
    s_tt = dot(u, u)
    b = dot(u, v) / s_tt
    log_a = log_rho_mean - b * theta_mean
    model = np.exp(log_a + b * theta)
    d_rho = -d / rho
    d_theta = d[..., ::-1] * (1.0, -1.0) / rho2    # (d_y, -d_x) / rho^2
    d_log_rho = d_rho / rho
    d_b = (dot(v, d_theta) + dot(u, d_log_rho) - 2.0 * b * dot(u, d_theta)) / s_tt
    d_log_a = mean(d_log_rho) - theta_mean * d_b - b * mean(d_theta)
    jac = d_rho - model * (d_log_a + theta * d_b + b * d_theta)
    return rho - model, jac, log_a, b, theta


def config_matrix(q, s, geom):
    """Unified wheel configuration matrix V, (4, 5): the active block
    ``wheel_rows`` in the columns ``s.inputs``, zero elsewhere."""
    v = np.zeros((4, 5))
    v[:, s.inputs] = wheel_rows(q, s, geom)
    return v


def body_twist_from_wheels(q, s, omega, geom):
    """Least-squares velocity input recovered from wheel rates.

    Inverts only the active block of V with the Moore-Penrose pseudoinverse
    and pads the inactive entries with zeros; raises LinAlgError when the
    block has no usable rank.
    """
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (4,):
        raise ContractError(f"wheel rates must have 4 entries, got {omega.shape}")
    block = np.array(wheel_rows(q, s, geom))
    sv = np.linalg.svd(block, compute_uv=False)
    if sv[-1] / sv[0] < RANK_TOL:
        regime = "soft" if s.any_soft else "rigid"
        raise np.linalg.LinAlgError(
            f"{regime} wheel block is rank deficient at kappa="
            f"({q.kappa1:.4g}, {q.kappa2:.4g})")
    ups = np.zeros(5)
    ups[s.inputs] = np.linalg.pinv(block) @ omega
    return ups


def transition_time(params, to_soft):
    """Simulated time for a settled segment to switch phase.

    Starts from the steady state of the opposite command (ambient for
    rigid, the soft hold after SOFT_SETTLE for soft) and steps
    ``loop_step`` by TRANSITION_DT until the phase flips.  Raises
    ThermalTimeoutError when the soft hold has not melted the segment, or
    past TRANSITION_LIMIT.
    """
    dt = TRANSITION_DT
    temp, _, integral, phase = initial_state(params)
    if not to_soft:
        soft_set = setpoint_for(True, params)
        for _ in range(int(round(SOFT_SETTLE / dt))):
            temp, integral, phase, _ = loop_step(temp, soft_set, integral,
                                                 phase, params, dt)
        if phase != PHASE_SOFT:
            raise ThermalTimeoutError(
                "segment never reached the soft phase while settling",
                temperatures=(temp,), elapsed=SOFT_SETTLE)
    setpoint = setpoint_for(to_soft, params)
    t = 0.0
    while phase != target_phase(to_soft):
        if t >= TRANSITION_LIMIT:
            raise ThermalTimeoutError(
                f"no phase change after {TRANSITION_LIMIT:g} s",
                temperatures=(temp,), elapsed=t)
        temp, integral, phase, _ = loop_step(temp, setpoint, integral, phase,
                                             params, dt)
        t += dt
    return t

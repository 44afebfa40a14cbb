"""Reference forms for the tests: planar frames, the array Jacobian, the
rk4 flow and the straight-line configuration sweep.

The package maps points through (x, y, theta) poses and steps the
configuration with one explicit Euler step, all in float arithmetic; the
tests check it against these independent array forms.
"""
import math

import numpy as np

from softrig.errors import ContractError
from softrig.geometry import AgentConfig, wrap_angle
from softrig.jacobian import active_columns
from softrig.planner import PlannerParams, config_error, weighted_distance


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

"""Logarithmic-spiral deformation model of the fibre.

While a soft segment bends, the joint between the moving side of the agent
and the fibre traces a curve that is well approximated by a logarithmic
spiral rho = a * exp(b * theta) about a centre fixed on the stationary side.
Three deformation modes have their own fitted spirals:

  mode 1  one segment soft, driven by the unit next to it; the middle link
          stays put and the moving joint is the segment's outer end
  mode 2  one segment soft, driven by the unit on the far side; the whole
          rigid side (unit, rigid segment, middle link) swings around the
          stationary unit
  mode 3  both segments soft with equal curvature, one unit driving while
          the other holds

The spiral angle theta is tied to segment curvature by an affine map
theta = pi + alpha / m (alpha = kappa * seg_len), so each spiral yields a
speed-to-curvature-rate gain K, and with it the heading-rate gain
seg_len * K, used by the deformation Jacobian.  Bending is mirror symmetric: the radius law
depends on |kappa| and the tabulated b takes the sign opposite to the bend.

Fit frames (used by ``sweep_curve`` and ``refit_oracle``): the curve is
expressed in the frame of the segment end where the spiral centre is
anchored, x pointing away from the moving side, positive bend curling
toward +y.  In this frame the fitted centres land at the tabulated
positions; the centre x for modes 2 and 3 has the opposite sign to the
reference table, which quotes the magnitudes in a mirrored axis convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError, FitError
from .geometry import GeometryParams, arc_chord, past_bound

_THETA_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_OFFSET_TOL = 1e-12          # converged relative offset of the centre solve
_MAX_ITER = 100
_MAX_REL_RESIDUAL = 0.10     # refit rms residual gate, share of the mean radius


@dataclass(frozen=True)
class SpiralModel:
    """Fitted constants of one deformation mode, lengths relative to seg_len."""

    mode: int
    a_over_l: float
    b_mag: float
    cx_over_l: float
    cy_over_l: float
    m: float                  # curvature map slope: kappa = m * (theta - pi) / l
    theta_lo: float
    theta_hi: float

    @property
    def kappa_bound(self) -> float:
        """Largest |kappa| the mode covers, in units of 1/seg_len."""
        return self.m * (self.theta_hi - math.pi)

    def radius(self, kappa: float, seg_len: float) -> float:
        """Distance from the spiral centre to the moving joint, metres.

        Symmetric in the bend direction; shrinks monotonically as the bend
        tightens toward the meeting point of the two units.
        """
        bound = self.kappa_bound / seg_len
        if past_bound(kappa, bound):
            raise DomainError(
                f"mode {self.mode} curvature {kappa:.6g} outside [-{bound:.6g}, "
                f"{bound:.6g}]")
        theta_abs = math.pi + abs(kappa) * seg_len / self.m
        return self.a_over_l * seg_len * math.exp(-self.b_mag * theta_abs)


# reference spiral table for the desk-scale fibre
SPIRALS = (
    SpiralModel(1, 2.325, 0.3165, -0.1223, 0.1782, 1.5, -math.pi / 3, 7 * math.pi / 3),
    SpiralModel(2, 3.3041, 0.083, 0.1988, 0.1640, 1.0, -math.pi, 3 * math.pi),
    SpiralModel(3, 2.4471, 0.2229, -0.2722, 0.3949, 0.75, -math.pi / 3, 7 * math.pi / 3),
)


def spiral_model(mode: int) -> SpiralModel:
    if mode not in (1, 2, 3):
        raise ContractError(f"deformation mode must be 1, 2 or 3, got {mode}")
    return SPIRALS[mode - 1]


def theta_from_kappa(mode: int, kappa: float, seg_len: float) -> float:
    """Spiral angle for a curvature, theta = pi + kappa * l / m."""
    sp = spiral_model(mode)
    theta = math.pi + kappa * seg_len / sp.m
    if not (sp.theta_lo - _THETA_TOL <= theta <= sp.theta_hi + _THETA_TOL):
        raise DomainError(
            f"mode {mode} curvature {kappa:.6g} maps to theta {theta:.6g} outside "
            f"[{sp.theta_lo:.6g}, {sp.theta_hi:.6g}]")
    return theta


def rate_coeffs(mode: int, kappa: float, seg_len: float) -> float:
    """Speed-to-curvature-rate gain K of a deformation mode at one curvature.

    kappa_dot = K * v for a unit driving speed v along the spiral, with
    K = m / (seg_len * rho) and rho the current centre-to-joint distance;
    the heading rate the mode drives is seg_len * K = m / rho.
    """
    sp = spiral_model(mode)
    return sp.m / (seg_len * sp.radius(kappa, seg_len))


# ---------------------------------------------------------------------------
# geometric sweep and refit
# ---------------------------------------------------------------------------

def sweep_curve(mode: int, geom: GeometryParams, kappas) -> np.ndarray:
    """Moving-joint trajectory from arc geometry, in the mode's fit frame.

    kappas are bend magnitudes, 0 to ``geom.kappa_max``.  With (cx, cy) =
    ``arc_chord(kappa, l)``, alpha = kappa l and h = mid_link / 2, the frame
    compositions reduce to closed forms: mode 1, segment 2's outer end about
    its middle-link joint, (-cx, cy); mode 2, the straight segment 1's far
    end in the bent segment's end frame, R(-alpha) (-(2h + l + cx), -cy);
    mode 3, segment 2's end in segment 1's, 2 (h + cx) (cos alpha, sin alpha).
    """
    spiral_model(mode)        # ContractError for a mode other than 1, 2, 3
    kappas = np.asarray(kappas, dtype=float).tolist()
    if any(kap < 0 or past_bound(kap, geom.kappa_max) for kap in kappas):
        raise DomainError("sweep kappas are bend magnitudes and must lie in "
                          f"[0, {geom.kappa_max:.6g}]")
    l, half_mid = geom.seg_len, geom.mid_link / 2
    pts = np.empty((len(kappas), 2))
    for i, kap in enumerate(kappas):
        cx, cy = arc_chord(kap, l)
        c, s = math.cos(kap * l), math.sin(kap * l)
        if mode == 1:
            pts[i] = (-cx, cy)
        elif mode == 2:
            px, py = -(2 * half_mid + l + cx), -cy
            pts[i] = (c * px + s * py, c * py - s * px)
        else:
            r = 2 * (half_mid + cx)
            pts[i] = (r * c, r * s)
    return pts


@dataclass(frozen=True)
class SpiralFit:
    """Result of refitting a mode's spiral from arc geometry."""

    mode: int
    a_over_l: float
    b: float
    cx_over_l: float
    cy_over_l: float
    rms_residual: float       # metres, against the fitted radii
    theta_span: float         # radians covered by one bend branch
    kappas: np.ndarray        # swept bend magnitudes, 1/m
    points: np.ndarray        # (n, 2) swept joint positions, fit frame, m


def _spiral_residual(pts: np.ndarray, centre: np.ndarray):
    """Residual of the log-spiral about ``centre`` and its Jacobian.

    The residual is r_i = rho_i - a * exp(b * theta_i), with (rho_i,
    theta_i) the polar coordinates of point i about the centre, theta
    unwrapped along the sweep, and (log a, b) the unweighted least-squares
    line of log rho against theta.  (a, b) are thereby projected out and r
    depends on the centre alone; the (n, 2) Jacobian dr/dc chains through
    rho(c), theta(c) and the closed-form line.  Returns (r, jac, a, b, theta).
    """
    d = pts - centre
    rho2 = d[:, 0] ** 2 + d[:, 1] ** 2
    rho = np.sqrt(rho2)
    theta = np.unwrap(np.arctan2(d[:, 1], d[:, 0]))
    log_rho = np.log(rho)
    theta_mean, log_rho_mean = theta.mean(), log_rho.mean()
    u = theta - theta_mean
    v = log_rho - log_rho_mean
    s_tt = u @ u
    b = (u @ v) / s_tt
    log_a = log_rho_mean - b * theta_mean
    model = np.exp(log_a + b * theta)
    d_rho = -d / rho[:, None]
    d_theta = np.column_stack((d[:, 1], -d[:, 0])) / rho2[:, None]
    d_log_rho = d_rho / rho[:, None]
    d_b = (v @ d_theta + u @ d_log_rho - 2.0 * b * (u @ d_theta)) / s_tt
    d_log_a = d_log_rho.mean(axis=0) - theta_mean * d_b - b * d_theta.mean(axis=0)
    jac = d_rho - model[:, None] * (d_log_a + theta[:, None] * d_b + b * d_theta)
    return rho - model, jac, math.exp(log_a), b, theta


def _solve_centre(pts: np.ndarray, centre0: np.ndarray):
    """Converge the projected log-spiral fit from a starting centre.

    Gauss-Newton on the 2-D centre, minimising the sum of squares |r|^2 of
    ``_spiral_residual``: each step solves (J^T J) s = J^T r and moves the
    centre by -s.  (log a, b) are the least-squares line of log rho against
    unwrapped theta for each centre (variable projection, Golub & Pereyra,
    SIAM J. Numer. Anal. 10(2), 1973).  It stops on the relative offset
    (Bates & Watts, Technometrics 23(2), 1981): the gradient g = J^T r
    measured in the Gauss-Newton metric, sqrt(g^T (J^T J)^-1 g), must fall
    to _OFFSET_TOL of |r|, plus a floor of 8 eps |rho| that bounds the
    rounding of r.  Both sides scale with the geometry, so the rule is
    scale free.  Returns (a, b, centre, theta, rms); raises FitError when
    the residual or the offset is not finite (a centre on a sample), the
    normal matrix is singular, or the rule is not met at any of the first
    _MAX_ITER centres.
    """
    centre = np.array(centre0, dtype=float)
    for _ in range(_MAX_ITER):
        with np.errstate(all="ignore"):
            r, jac, a, b, theta = _spiral_residual(pts, centre)
            grad = jac.T @ r
            try:
                step = np.linalg.solve(jac.T @ jac, grad)
            except np.linalg.LinAlgError:
                raise FitError("log-spiral fit has a singular normal matrix at "
                               f"centre ({centre[0]:.6g}, {centre[1]:.6g})") from None
            ss, decrement = r @ r, grad @ step
        if not (np.isfinite(ss) and np.isfinite(decrement) and decrement >= 0.0):
            raise FitError("log-spiral fit is not defined at centre "
                           f"({centre[0]:.6g}, {centre[1]:.6g})")
        floor = 8.0 * _EPS * np.linalg.norm(pts - centre)
        if math.sqrt(decrement) <= _OFFSET_TOL * math.sqrt(ss) + floor:
            return a, b, centre, theta, math.sqrt(ss / len(pts))
        centre = centre - step
    raise FitError(f"log-spiral centre solve did not converge in {_MAX_ITER} iterations")


def refit_oracle(mode: int, geom: GeometryParams, n_samples: int = 200) -> SpiralFit:
    """Refit a mode's spiral from pure arc geometry.

    Sweeps the bend from straight to the mode bound in n_samples steps and
    fits rho = a * exp(b * theta) by ``_solve_centre``, Gauss-Newton started
    once from the mean point of the sweep: the centre minimises sum_i
    (rho_i - a * exp(b * theta_i))^2 with (log a, b) the least-squares line
    of log rho against theta for that centre, and the solve stops once the
    Gauss-Newton-scaled gradient is 1e-12 of the residual norm, so the
    constants are the converged optimum rather than wherever a solver
    happened to stop.  Reports them in the reference convention for the
    positive bend: lengths over seg_len and b negative, opposite to the
    bend, together with the swept kappas and points the fit was made to.
    Raises FitError when the rms residual exceeds _MAX_REL_RESIDUAL of the
    mean radius, or when the centre solve fails.
    """
    if n_samples < 10:
        raise ContractError(f"need at least 10 sweep samples, got {n_samples}")
    sp = spiral_model(mode)
    bound = sp.kappa_bound / geom.seg_len
    kappas = np.linspace(0.0, bound, n_samples)
    pts = sweep_curve(mode, geom, kappas)
    a, b, centre, theta, rms = _solve_centre(pts, pts.mean(axis=0))
    mean_radius = float(np.mean(np.hypot(*(pts - centre).T)))
    if rms > _MAX_REL_RESIDUAL * mean_radius:
        raise FitError(
            f"mode {mode} spiral fit residual {rms:.3g} m exceeds "
            f"{_MAX_REL_RESIDUAL:.0%} of the mean radius {mean_radius:.3g} m",
            residual=rms)
    l = geom.seg_len
    return SpiralFit(
        mode=mode,
        a_over_l=a / l,
        b=-abs(b),
        cx_over_l=centre[0] / l,
        cy_over_l=centre[1] / l,
        rms_residual=rms,
        theta_span=float(abs(theta[-1] - theta[0])),
        kappas=kappas,
        points=pts,
    )

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
``refit_oracle`` solves the modes' centres in one stacked Gauss-Newton loop,
each sweep from its own mean-point start and with its own stop rule.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ContractError, DomainError, FitError
from .geometry import GeometryParams, arc_chord, past_bound

if TYPE_CHECKING:
    import numpy as np

_THETA_TOL = 1e-9
_EPS = sys.float_info.epsilon
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


def theta_from_kappa(mode: int, kappas, seg_len: float) -> np.ndarray:
    """Spiral angles of curvatures, theta = pi + kappa * l / m.  theta rises
    with kappa, so the extremes decide whether all lie in the mode's span."""
    import numpy as np
    sp = spiral_model(mode)
    thetas = math.pi + np.asarray(kappas, dtype=float) * seg_len / sp.m
    if thetas.size and not (sp.theta_lo - _THETA_TOL <= thetas.min()
                            and thetas.max() <= sp.theta_hi + _THETA_TOL):
        raise DomainError(
            f"mode {mode} curvatures map to theta [{thetas.min():.6g}, "
            f"{thetas.max():.6g}] outside [{sp.theta_lo:.6g}, {sp.theta_hi:.6g}]")
    return thetas


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
    import numpy as np
    spiral_model(mode)        # ContractError for a mode other than 1, 2, 3
    kappas = np.asarray(kappas, dtype=float)
    lo, hi = kappas.min(initial=0.0), kappas.max(initial=0.0)   # NaN if any is
    if not (lo >= 0.0 and not past_bound(hi, geom.kappa_max)):
        raise DomainError("sweep kappas are bend magnitudes and must lie in "
                          f"[0, {geom.kappa_max:.6g}]")
    l, half_mid = geom.seg_len, geom.mid_link / 2
    pts = []
    for kap in kappas.tolist():
        cx, cy = arc_chord(kap, l)
        c, s = math.cos(kap * l), math.sin(kap * l)
        if mode == 1:
            pts.append((-cx, cy))
        elif mode == 2:
            px, py = -(2 * half_mid + l + cx), -cy
            pts.append((c * px + s * py, c * py - s * px))
        else:
            r = 2 * (half_mid + cx)
            pts.append((r * c, r * s))
    return np.array(pts, dtype=float).reshape(len(pts), 2)


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


def _dot(x, y):    # x^T y for each sweep of a stack, one BLAS call per sweep
    return x.swapaxes(1, 2) @ y


def _spiral_residual(d: np.ndarray):
    """Log-spiral residuals and Jacobians at the offsets d = pts - centre.

    d stacks k sweeps, (k, n, 2).  The residual is r_i = rho_i - a * exp(b *
    theta_i), with (rho_i, theta_i) the polar coordinates of point i about
    the centre, theta unwrapped along the sweep, and (log a, b) the
    unweighted least-squares line of log rho against theta.  (a, b) are
    thereby projected out and r depends on the centre alone; the (n, 2)
    Jacobian dr/dc chains through rho(c), theta(c) and the closed-form line.
    Returns (r, jac, log_a, b, theta), per sample (k, n, 1), per sweep (k, 1, 1).
    """
    import numpy as np
    n = d.shape[1]

    def mean(x):    # ndarray.mean's sum and divide, without its call overhead
        return np.add.reduce(x, axis=1, keepdims=True) / n

    rho2 = d[..., :1] ** 2 + d[..., 1:] ** 2
    rho = np.sqrt(rho2)
    theta = np.unwrap(np.arctan2(d[..., 1:], d[..., :1]), axis=1)
    log_rho = np.log(rho)
    theta_mean, log_rho_mean = mean(theta), mean(log_rho)
    u = theta - theta_mean
    v = log_rho - log_rho_mean
    s_tt = _dot(u, u)
    b = _dot(u, v) / s_tt
    log_a = log_rho_mean - b * theta_mean
    model = np.exp(log_a + b * theta)
    d_rho = -d / rho
    d_theta = d[..., ::-1] * (1.0, -1.0) / rho2    # (d_y, -d_x) / rho^2
    d_log_rho = d_rho / rho
    d_b = (_dot(v, d_theta) + _dot(u, d_log_rho) - 2.0 * b * _dot(u, d_theta)) / s_tt
    d_log_a = mean(d_log_rho) - theta_mean * d_b - b * mean(d_theta)
    jac = d_rho - model * (d_log_a + theta * d_b + b * d_theta)
    return rho - model, jac, log_a, b, theta


def _solve_centre(modes, pts: np.ndarray, centre0: np.ndarray):
    """Converge the projected log-spiral fits of a stack of sweeps.

    Gauss-Newton on the 2-D centre of each sweep of ``modes`` in pts (k, n,
    2), from centre0 (k, 2), minimising |r|^2 of ``_spiral_residual``: each
    step solves (J^T J) s = J^T r and moves the centre by -s, with (log a,
    b) projected out (Golub & Pereyra, SIAM J. Numer. Anal. 10(2), 1973).
    A sweep stops on the relative offset (Bates & Watts, Technometrics
    23(2), 1981): the gradient g = J^T r measured in the Gauss-Newton
    metric, sqrt(g^T (J^T J)^-1 g), must fall to _OFFSET_TOL of |r|, plus a
    floor of 8 eps |rho| that bounds the rounding of r; the rule is scale
    free.  Each sweep leaves the stack in the iteration where it stops, and
    gets the floats it would get solved alone.  Returns (a, b, centre,
    theta, rms) per sweep; raises FitError, naming the lowest mode failing
    in an iteration, when the residual or offset is not finite (a centre on
    a sample), the normal matrix is singular, or the rule is not met at any
    of the first _MAX_ITER centres.  numpy's error state is restored.
    """
    import numpy as np
    k, n = pts.shape[:2]
    live, fits = list(range(k)), [None] * k    # stack rows still iterating
    centre = np.array(centre0, dtype=float).reshape(k, 1, 2)

    def fail(i, problem):
        return FitError(f"mode {modes[live[i]]}: log-spiral fit {problem} at "
                        f"centre ({centre[i, 0, 0]:.6g}, {centre[i, 0, 1]:.6g})")

    with np.errstate(all="ignore"):
        for _ in range(_MAX_ITER):
            d = pts - centre
            r, jac, log_a, b, theta = _spiral_residual(d)
            grad, normal = _dot(jac, r), _dot(jac, jac)
            try:
                step = np.linalg.solve(normal, grad)
            except np.linalg.LinAlgError:   # the lowest member with a zero pivot
                raise fail(int(np.argmax(np.linalg.det(normal) == 0)),
                           "has a singular normal matrix") from None
            flat = d.reshape(len(live), 2 * n, 1)
            ss, decrement, norm2 = (_dot(x, y).ravel().tolist() for x, y in
                                    ((r, r), (grad, step), (flat, flat)))
            keep = []
            for i, row in enumerate(live):
                if not (math.isfinite(ss[i]) and math.isfinite(decrement[i])
                        and decrement[i] >= 0):
                    raise fail(i, "is not defined")
                floor = 8.0 * _EPS * math.sqrt(norm2[i])
                if math.sqrt(decrement[i]) > _OFFSET_TOL * math.sqrt(ss[i]) + floor:
                    keep.append(i)
                else:
                    fits[row] = (math.exp(log_a[i, 0, 0]), b[i, 0, 0], centre[i, 0],
                                 theta[i, :, 0], math.sqrt(ss[i] / n))
            if not keep:
                return fits
            centre = centre - step.reshape(centre.shape)
            if len(keep) < len(live):
                pts, centre, live = pts[keep], centre[keep], [live[i] for i in keep]
    raise FitError(f"mode {modes[live[0]]}: log-spiral centre solve did not "
                   f"converge in {_MAX_ITER} iterations")


def refit_oracle(modes, geom: GeometryParams, n_samples: int = 200) -> list[SpiralFit]:
    """Refit the spirals of the given modes from pure arc geometry.

    Sweeps each bend from straight to the mode bound in n_samples steps and
    fits rho = a * exp(b * theta) by ``_solve_centre``, Gauss-Newton run on
    the modes as one stack, each from the mean point of its sweep: the
    centre minimises sum_i (rho_i - a * exp(b * theta_i))^2 with (log a, b)
    the least-squares line of log rho against theta for that centre, and
    the solve stops once the Gauss-Newton-scaled gradient is 1e-12 of the
    residual norm, so the constants are the converged optimum.  Returns the
    fits in the order of ``modes``, in the reference convention for the
    positive bend: lengths over seg_len and b negative, opposite to the
    bend, with the swept kappas and points the fit was made to.  Raises
    FitError when a centre solve fails, or when a mode's rms residual
    exceeds _MAX_REL_RESIDUAL of its mean radius.
    """
    import numpy as np
    if n_samples < 10:
        raise ContractError(f"need at least 10 sweep samples, got {n_samples}")
    kappas = [np.linspace(0.0, spiral_model(mode).kappa_bound / geom.seg_len,
                          n_samples) for mode in modes]
    pts = np.array([sweep_curve(mode, geom, kap) for mode, kap in zip(modes, kappas)])
    fits, l = [], geom.seg_len
    for mode, kap, p, (a, b, centre, theta, rms) in zip(
            modes, kappas, pts, _solve_centre(modes, pts, pts.mean(axis=1))):
        mean_radius = float(np.mean(np.hypot(*(p - centre).T)))
        if rms > _MAX_REL_RESIDUAL * mean_radius:
            raise FitError(
                f"mode {mode} spiral fit residual {rms:.3g} m exceeds "
                f"{_MAX_REL_RESIDUAL:.0%} of the mean radius {mean_radius:.3g} m",
                residual=rms)
        fits.append(SpiralFit(
            mode=mode,
            a_over_l=a / l,
            b=-abs(b),
            cx_over_l=centre[0] / l,
            cy_over_l=centre[1] / l,
            rms_residual=rms,
            theta_span=float(abs(theta[-1] - theta[0])),
            kappas=kap,
            points=p,
        ))
    return fits

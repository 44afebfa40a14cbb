import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import softrig
from softrig import cli, outputs, spiral
from softrig.errors import ContractError, DomainError, FitError
from softrig.geometry import (ARC_SERIES_ALPHA, GeometryParams, arc_chord,
                              cc_transform)
from softrig.spiral import (SPIRALS, _solve_centre, rate_coeffs, refit_oracle,
                            spiral_model, sweep_curve)

from conftest import frame, frame_inverse, scaled_geometry, spiral_residual
from test_run_bytes import OTHER_SWEEP_DIGESTS

GEOM = GeometryParams()
L = GEOM.seg_len

# converged optimum of the refit objective for the three mode spirals, on the
# 200-sample sweep of the default geometry (a/l, b, cx/l, cy/l): the centre
# solved by Newton's method in 40-digit arithmetic on the float64 sweep
# points, not a capture of one float64 solver run
FROZEN_FITS = {
    1: (2.3235687780290133, -0.31642013052845582,
        -0.12227595383632017, 0.17842597574073482),
    2: (3.3021970409834713, -0.082893675858887227,
        -0.19901881928147056, 0.16438578877667215),
    3: (2.4514002566250367, -0.22349660171814656,
        0.27114284457505618, 0.39257132735841807),
}


def test_model_table():
    assert [sp.mode for sp in SPIRALS] == [1, 2, 3]
    by_mode = {sp.mode: sp for sp in SPIRALS}
    assert by_mode[1].m == 1.5 and by_mode[2].m == 1.0 and by_mode[3].m == 0.75
    assert by_mode[2].theta_hi == 3 * math.pi
    # mode bounds: full circle for one segment, half for the shared bend
    assert math.isclose(by_mode[1].kappa_bound, 2 * math.pi)
    assert math.isclose(by_mode[2].kappa_bound, 2 * math.pi)
    assert math.isclose(by_mode[3].kappa_bound, math.pi)
    with pytest.raises(ContractError):
        spiral_model(4)


def test_eps_is_the_float64_epsilon():
    # the centre solve's rounding floor, read without importing numpy
    assert spiral._EPS == np.finfo(float).eps


def test_radius_symmetric_and_shrinking():
    sp = spiral_model(2)
    assert math.isclose(sp.radius(40.0, L), sp.radius(-40.0, L))
    rhos = [sp.radius(k, L) for k in np.linspace(0.0, sp.kappa_bound / L, 50)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))
    with pytest.raises(DomainError):
        sp.radius(sp.kappa_bound / L * 1.01, L)


def test_straight_radius_and_gains():
    # rho(0) = a * l * exp(-b * pi), K = m / (l rho), Phi = l K
    k_gain = rate_coeffs(2, 0.0, L)
    rho = spiral_model(2).radius(0.0, L)
    phi_gain = L * k_gain
    assert math.isclose(rho, 0.10182863846328276, rel_tol=1e-12)
    assert math.isclose(k_gain, 245.5105005554451, rel_tol=1e-12)
    assert math.isclose(phi_gain, 9.820420022217805, rel_tol=1e-12)
    assert math.isclose(phi_gain, L * k_gain, rel_tol=1e-12)
    for mode in (1, 2, 3):
        sp = spiral_model(mode)
        expect = sp.a_over_l * L * math.exp(-sp.b_mag * math.pi)
        assert math.isclose(sp.radius(0.0, L), expect, rel_tol=1e-12)


def chord_bytes(kappas, length):
    """The scalar ``arc_chord`` of each curvature, as (n, 2) float bytes."""
    return np.array([arc_chord(k, length) for k in kappas]).tobytes()


@pytest.mark.parametrize("length", [1.0, L])
def test_arc_chords_equal_the_scalar_chord_bit_for_bit(length):
    # zero, a tiny curvature, the series threshold and one ulp either side
    # of it, and the full-circle bound, each in both signs
    edge = ARC_SERIES_ALPHA / length
    kappas = [0.0, 1e-300, edge, math.nextafter(edge, 0.0),
              math.nextafter(edge, math.inf), 2 * math.pi / length]
    kappas += [-k for k in kappas]
    alphas = [abs(k * length) for k in kappas]
    assert min(a for a in alphas if a >= ARC_SERIES_ALPHA) == ARC_SERIES_ALPHA
    assert max(a for a in alphas if a < ARC_SERIES_ALPHA) == math.nextafter(
        ARC_SERIES_ALPHA, 0.0)
    cx, cy = spiral._arc_chords(np.array(kappas), length)
    assert np.stack((cx, cy), axis=1).tobytes() == chord_bytes(kappas, length)
    assert math.copysign(1.0, cy[len(kappas) // 2]) == -1.0     # at -0.0


def test_sweep_curve_frames():
    kappas = np.linspace(0.0, 10.0, 5)
    for mode in (1, 2, 3):
        pts = sweep_curve(mode, GEOM, kappas)
        assert pts.shape == (5, 2)
    # straight fibre: mode 1 watches the far joint of segment 2
    p0 = sweep_curve(1, GEOM, [0.0])[0]
    np.testing.assert_allclose(p0, [-L, 0.0], atol=1e-15)
    # modes 2 and 3 watch across the whole fibre
    p0 = sweep_curve(2, GEOM, [0.0])[0]
    np.testing.assert_allclose(p0, [-0.11, 0.0], atol=1e-15)
    with pytest.raises(DomainError):
        sweep_curve(1, GEOM, [-1.0])


def test_sweep_curve_range_check_and_inputs():
    assert sweep_curve(1, GEOM, []).shape == (0, 2)
    assert sweep_curve(3, GEOM, np.empty(0)).shape == (0, 2)
    # the range is checked once over the sweep, so a bad value anywhere fails
    for bad in (-1e-12, GEOM.kappa_max * (1 + 1e-8), math.nan):
        for kappas in ([bad], [0.0, bad, 1.0], [1.0, 0.0, bad]):
            with pytest.raises(DomainError):
                sweep_curve(2, GEOM, kappas)
    kappas = np.linspace(0.0, GEOM.kappa_max, 50)
    for mode in (1, 2, 3):
        from_list = sweep_curve(mode, GEOM, kappas.tolist())
        from_array = sweep_curve(mode, GEOM, kappas)
        assert from_list.shape == from_array.shape == (50, 2)
        assert from_list.tobytes() == from_array.tobytes()


@pytest.mark.parametrize("kappas", [5.0, np.float64(5.0), [[0.0, 1.0]],
                                    np.zeros((3, 2))])
def test_sweep_curve_rejects_a_sweep_that_is_not_1d(kappas):
    # a scalar or a stack is a contract error, never numpy's AxisError or
    # a silently reshaped curve
    for mode in (1, 2, 3):
        with pytest.raises(ContractError, match="1-d"):
            sweep_curve(mode, GEOM, kappas)


def frame_composition(mode, kappa):
    """The mode's joint point composed from the segment-end frames."""
    end1 = frame(*cc_transform(0.0 if mode == 2 else kappa, 1, GEOM))
    end2 = frame(*cc_transform(kappa, 2, GEOM))
    if mode == 1:
        x, y = end2[:2, 2]
        return GEOM.mid_link / 2 - x, y
    if mode == 2:
        return (frame_inverse(end2) @ end1[:, 2])[:2]
    return (frame_inverse(end1) @ end2[:, 2])[:2]


def test_sweep_curve_matches_frame_composition():
    for mode in (1, 2, 3):
        kappas = np.linspace(0.0, spiral_model(mode).kappa_bound / L, 200)
        expect = [frame_composition(mode, kap) for kap in kappas]
        np.testing.assert_allclose(sweep_curve(mode, GEOM, kappas), expect,
                                   rtol=0.0, atol=1e-15)
        with pytest.raises(DomainError):
            sweep_curve(mode, GEOM, [GEOM.kappa_max * (1 + 1e-8)])


def test_refit_matches_frozen_fit():
    fits = refit_oracle(tuple(FROZEN_FITS), GEOM, 200)
    assert [fit.mode for fit in fits] == list(FROZEN_FITS)
    for fit, (a, b, cx, cy) in zip(fits, FROZEN_FITS.values()):
        assert math.isclose(fit.a_over_l, a, rel_tol=1e-9)
        assert math.isclose(fit.b, b, rel_tol=1e-9)
        assert math.isclose(fit.cx_over_l, cx, rel_tol=1e-6)
        assert math.isclose(fit.cy_over_l, cy, rel_tol=1e-6)
        assert fit.rms_residual < 5e-4


def solve_one(mode, pts, centre0):
    """The centre solve of one sweep, as a stack of one."""
    return _solve_centre([mode], pts[None], [centre0])[0]


def test_refit_independent_of_start_centre():
    # the centre solve converges to the same optimum from the mean point the
    # refit starts at and from three starts around it.  The fit-frame origin
    # is not one of them: the mode-1 sweep curls its last sample back onto
    # it, and a centre on a sample leaves the spiral undefined.
    for mode, (a, b, _, _) in FROZEN_FITS.items():
        bound = spiral_model(mode).kappa_bound / L
        pts = sweep_curve(mode, GEOM, np.linspace(0.0, bound, 200))
        mean = pts.mean(axis=0)
        span = pts.max(axis=0) - pts.min(axis=0)
        for centre0 in (mean, mean + 0.25 * span, mean - 0.25 * span,
                        pts[0] * 0.5):
            fit_a, fit_b, _, _, _ = solve_one(mode, pts, centre0)
            assert math.isclose(fit_a / L, a, rel_tol=1e-9)
            assert math.isclose(-abs(fit_b), b, rel_tol=1e-9)


def test_refit_solves_each_centre_once(monkeypatch, tmp_path, capsys):
    original = spiral._solve_centre
    solves = []

    def counted(modes, pts, centre0):
        assert len(pts) == len(centre0) == len(modes)
        solves.append(list(modes))
        return original(modes, pts, centre0)

    # every module binding of the function, so a second solving site counts
    for module in (softrig, spiral, outputs, cli):
        if getattr(module, "_solve_centre", None) is original:
            monkeypatch.setattr(module, "_solve_centre", counted)
    # a sweep solves every mode's centre in one stack, each mode once
    assert cli.main(["sweep", "--out", str(tmp_path / "o")]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(solves) == 1
    assert sorted(solves[0]) == [1, 2, 3]
    # a one-mode refit runs one solve of one member
    for mode in (1, 2, 3):
        solves.clear()
        refit_oracle([mode], GEOM, 200)
        assert solves == [[mode]]


def mode_sweep(mode, geom, n_samples):
    bound = spiral_model(mode).kappa_bound / geom.seg_len
    return sweep_curve(mode, geom, np.linspace(0.0, bound, n_samples))


def mode_stack(geom, n_samples):
    """Sweeps of modes 1-3 stacked as the refit stacks them, and their
    mean-point starts."""
    pts = np.array([mode_sweep(mode, geom, n_samples) for mode in (1, 2, 3)])
    return pts, pts.mean(axis=1)


@pytest.mark.parametrize("ratio", [0.1, 0.75, 3.0])
@pytest.mark.parametrize("n_samples", [10, 200, 1000])
def test_stacked_solve_is_bit_identical_to_one_mode_solves(n_samples, ratio):
    # solving three sweeps as one stack changes no float of any of them
    pts, starts = mode_stack(GeometryParams(mid_link=ratio * L), n_samples)
    stacked = _solve_centre([1, 2, 3], pts, starts)
    for i, mode in enumerate((1, 2, 3)):
        a, b, centre, theta, rms = stacked[i]
        a1, b1, centre1, theta1, rms1 = solve_one(mode, pts[i], starts[i])
        assert (a, b, rms) == (a1, b1, rms1), mode
        assert np.array_equal(centre, centre1), mode
        assert np.array_equal(theta, theta1), mode


def test_refit_tracks_reference_table():
    for sp, fit in zip(SPIRALS, refit_oracle([sp.mode for sp in SPIRALS], GEOM, 200)):
        assert abs(fit.a_over_l - sp.a_over_l) / sp.a_over_l < 0.05
        assert abs(abs(fit.b) - sp.b_mag) / sp.b_mag < 0.05
        # centre magnitudes land near the table as well
        assert abs(abs(fit.cx_over_l) - abs(sp.cx_over_l)) < 0.02
        assert abs(abs(fit.cy_over_l) - abs(sp.cy_over_l)) < 0.02


def test_refit_scale_free():
    ref, = refit_oracle([2], GEOM, 100)
    big, = refit_oracle([2], scaled_geometry(GEOM, 0.5), 100)
    assert math.isclose(big.a_over_l, ref.a_over_l, rel_tol=1e-6)
    assert math.isclose(big.b, ref.b, rel_tol=1e-6)


def test_refit_input_checks():
    with pytest.raises(ContractError):
        refit_oracle([1], GEOM, 5)
    with pytest.raises(ContractError):
        refit_oracle([1, 4], GEOM, 100)


def test_refit_residual_gate(monkeypatch):
    monkeypatch.setattr(spiral, "_MAX_REL_RESIDUAL", 1e-9)
    with pytest.raises(FitError, match="^mode 1 "):
        refit_oracle([1], GEOM, 100)
    try:
        refit_oracle([1], GEOM, 100)
    except FitError as exc:
        assert exc.residual is not None and exc.residual > 0.0


def test_solve_centre_fails_on_a_sample():
    # a centre on a sample leaves rho = 0 there and the spiral undefined
    pts = mode_sweep(2, GEOM, 50)
    with pytest.raises(FitError, match="^mode 2: .*not defined"):
        solve_one(2, pts, pts[7])


def test_solve_centre_restores_numpy_error_state():
    # the solve ignores floating-point errors inside and only there, and a
    # failed member of a stack is named by its mode
    pts = mode_sweep(2, GEOM, 50)
    stack, starts = mode_stack(GEOM, 50)
    starts[1] = stack[1, 7]
    with np.errstate(all="warn", under="raise"):
        before = np.geterr()
        solve_one(2, pts, pts.mean(axis=0))
        assert np.geterr() == before
        with pytest.raises(FitError):
            solve_one(2, pts, pts[7])
        assert np.geterr() == before
        with pytest.raises(FitError, match="^mode 2: "):
            _solve_centre([1, 2, 3], stack, starts)
        assert np.geterr() == before


def test_solve_centre_names_the_lowest_failing_mode():
    # members 2 and 3 both start on a sample and fail in the first iteration
    stack, starts = mode_stack(GEOM, 50)
    starts[1:] = stack[1:, 7]
    with pytest.raises(FitError, match="^mode 2: "):
        _solve_centre([1, 2, 3], stack, starts)


def test_solve_centre_fails_without_converging(monkeypatch):
    monkeypatch.setattr(spiral, "_MAX_ITER", 1)
    pts = mode_sweep(1, GEOM, 200)
    with pytest.raises(FitError, match="did not converge"):
        solve_one(1, pts, pts.mean(axis=0))
    stack, starts = mode_stack(GEOM, 200)
    with pytest.raises(FitError, match="^mode 1: .*did not converge"):
        _solve_centre([1, 2, 3], stack, starts)


@pytest.mark.parametrize("ratio", [0.1, 0.75, 3.0])
def test_refit_independent_of_start_across_link_ratios(ratio):
    # mid_link / seg_len away from the default 0.75 as well, and few or many
    # samples: the starts the refit test uses land on one optimum
    geom = GeometryParams(mid_link=ratio * L)
    for n_samples in (10, 1000):
        for mode in (1, 2, 3):
            pts = mode_sweep(mode, geom, n_samples)
            mean = pts.mean(axis=0)
            span = pts.max(axis=0) - pts.min(axis=0)
            a, b, _, _, _ = solve_one(mode, pts, mean)
            for centre0 in (mean + 0.25 * span, mean - 0.25 * span):
                fit_a, fit_b, _, _, _ = solve_one(mode, pts, centre0)
                assert math.isclose(fit_a, a, rel_tol=1e-9), (mode, n_samples)
                assert math.isclose(fit_b, b, rel_tol=1e-9), (mode, n_samples)


def assert_residual_matches_reference(d):
    with np.errstate(all="ignore"):
        got, expect = spiral._spiral_residual(d), spiral_residual(d)
    assert len(got) == len(expect) == 5
    for name, x, y in zip(("r", "jac", "log_a", "b", "theta"), got, expect):
        assert x.shape == y.shape and x.strides == y.strides, name
        assert x.tobytes() == y.tobytes(), name


@pytest.mark.parametrize("k, n", [(1, 10), (2, 57), (3, 200)])
def test_residual_matches_reference_on_random_stacks(k, n):
    # points scattered about the centre: their angles jump all along a sweep
    rng = np.random.default_rng(100 * k + n)
    for _ in range(25):
        d = rng.normal(size=(k, n, 2)) * rng.uniform(1e-3, 10.0)
        assert_residual_matches_reference(d)
    # the refit's own stack, about its mean points and about shifted centres
    stack, starts = mode_stack(GEOM, n)
    for offset in (0.0, 0.01, -0.03):
        assert_residual_matches_reference(stack[:k] - starts[:k, None] - offset)


def polar_rows(*rows):
    """A (k, n, 2) stack of points (r cos t, r sin t), one row per sweep."""
    t = np.array(rows, dtype=float)[..., None]
    return np.concatenate((np.cos(t), np.sin(t)), axis=2) * (1.0 + 0.1 * t ** 2)


def test_residual_matches_reference_without_jumps():
    assert_residual_matches_reference(polar_rows(np.linspace(-1.0, 1.0, 40),
                                                 np.linspace(0.5, 3.0, 40)))


def test_residual_matches_reference_at_several_jumps_per_row():
    # winding up to three turns, each row jumping at its own samples, one
    # of them the other way round
    assert_residual_matches_reference(polar_rows(
        np.linspace(0.0, 6 * math.pi + 0.3, 50),
        np.linspace(2.5, 2.5 + 5 * math.pi, 50),
        np.linspace(1.0, 1.0 - 4 * math.pi, 50)))


def test_residual_matches_reference_at_steps_of_exactly_pi():
    # on the x axis theta is 0, pi or -pi, so steps are exactly +-pi or 2 pi
    x = [1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 0.5, -2.0, 1.0]
    y = [0.0, 0.0, 0.0, -0.0, 0.0, 0.0, 0.5, -0.0, -0.0]
    d = np.array([list(zip(x, y)), list(zip(x[::-1], y[::-1]))])
    steps = np.diff(np.arctan2(d[..., 1:], d[..., :1]), axis=1)
    assert math.pi in steps and -math.pi in steps
    assert_residual_matches_reference(d)


def test_residual_matches_reference_at_negative_zero_angles():
    # -0.0 first keeps its sign; a later -0.0 gets the shift added, +0.0
    d = np.array([[(1.0, -0.0), (1.0, 0.5), (1.0, -0.0), (2.0, -0.0),
                   (-1.0, 0.1), (1.0, 1.0)],
                  [(2.0, 1.0), (1.0, -0.0), (3.0, 0.2), (-1.0, -0.1),
                   (1.0, -0.0), (1.0, 2.0)]])
    theta = spiral._spiral_residual(d)[4]
    assert math.copysign(1.0, theta[0, 0, 0]) == -1.0
    assert math.copysign(1.0, theta[0, 2, 0]) == 1.0
    assert_residual_matches_reference(d)


def test_residual_matches_reference_on_a_nan_row():
    d = np.random.default_rng(7).normal(size=(3, 30, 2))
    d[1, 11, 0] = math.nan
    d[2, 0, 1] = math.nan
    assert_residual_matches_reference(d)


def test_unwrap_matches_numpy_on_arbitrary_angles():
    # steps of any size, exact +-pi steps off zero and signed zeros
    rng = np.random.default_rng(3)
    for _ in range(50):
        theta = rng.uniform(-12.0, 12.0, size=(3, 40, 1))
        theta[0, 5:9, 0] = (0.0, math.pi, -0.0, -math.pi)
        theta[1, rng.integers(40), 0] = math.nan
        theta[2, 20:23, 0] = (-0.0, -0.0, 2 * math.pi)
        expect = np.unwrap(theta, axis=1)
        spiral._unwrap_sweeps(theta)
        assert theta.tobytes() == expect.tobytes()


AVX512_TARGETS = ("AVX512_ICL", "AVX512_SPR", "X86_V4")
# what numpy falls back to on x86-64: its AVX2 loops, then its baseline ones
FALLBACKS = (AVX512_TARGETS, AVX512_TARGETS + ("X86_V3",))


def dispatched_targets():
    try:
        from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                                   __cpu_features__)
    except ImportError:
        return set()
    return {t for t in __cpu_dispatch__ if __cpu_features__.get(t)}


@pytest.mark.skipif(not set(FALLBACKS[-1]) <= dispatched_targets(),
                    reason="numpy does not dispatch AVX-512 and X86_V3 targets here")
def test_sweep_csv_holds_without_avx512_dispatch(tmp_path):
    # sweep.csv's floats come from numpy's float64 sin and cos in
    # sweep_curve, which give math.sin's and math.cos's floats on each
    # path, so it keeps its pinned bytes when numpy falls back to its AVX2
    # or its baseline loops (refit.json does not: its last digits follow
    # the dispatch)
    for disabled in FALLBACKS:
        code = ("import sys\n"
                "from numpy._core._multiarray_umath import __cpu_features__\n"
                "from softrig.cli import main\n"
                f"assert not any(__cpu_features__[t] for t in {disabled})\n"
                "sys.exit(main(sys.argv[1:]))\n")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(disabled),
                   PYTHONPATH=str(Path(spiral.__file__).resolve().parents[1]))
        out = tmp_path / disabled[-1]
        subprocess.run([sys.executable, "-c", code, "sweep", "--samples", "60",
                        "--out", str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert digest == OTHER_SWEEP_DIGESTS[60]["sweep.csv"], disabled

import math

import numpy as np
import pytest

import softrig
from softrig import cli, outputs, spiral
from softrig.errors import ContractError, DomainError, FitError
from softrig.geometry import GeometryParams, cc_transform
from softrig.spiral import (SPIRALS, _solve_centre, rate_coeffs, refit_oracle,
                            spiral_model, sweep_curve, theta_from_kappa)

from conftest import frame, frame_inverse

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


def test_theta_kappa_round_trip():
    for mode in (1, 2, 3):
        bound = spiral_model(mode).kappa_bound / L
        for kap in np.linspace(-bound, bound, 7):
            # the whole curvature range maps inside the mode's theta span
            theta_from_kappa(mode, kap, L)
    assert math.isclose(theta_from_kappa(2, 0.0, L), math.pi)
    with pytest.raises(DomainError):
        theta_from_kappa(1, 3 * math.pi / L, L)


def test_theta_from_kappa_maps_a_whole_sweep():
    # one array expression, equal to the formula taken one curvature at a time
    for sp in SPIRALS:
        bound = sp.kappa_bound / L
        kappas = np.linspace(-bound, bound, 201)
        assert theta_from_kappa(sp.mode, kappas, L).tolist() == [
            math.pi + kap * L / sp.m for kap in kappas.tolist()]
        # a curvature outside the span fails wherever it sits in the sweep
        for bad in (-1.01 * bound, 1.01 * bound, math.nan):
            with pytest.raises(DomainError):
                theta_from_kappa(sp.mode, [0.0, bad, bound], L)
    assert theta_from_kappa(1, [], L).shape == (0,)


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
    big, = refit_oracle([2], GEOM.scaled(0.5), 100)
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

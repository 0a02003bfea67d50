import math

import numpy as np
import pytest
from scipy.interpolate import BSpline, CubicSpline
from scipy.linalg import eigh
from scipy.optimize import brentq

from magqmc.bsplines import PiecewisePolynomial, SplineBasis, bisect, graded_breakpoints
from magqmc.kernels import CUTOFF_EFOLDS, _q_cutoff, graded_grid


@pytest.fixture(scope="module")
def basis():
    return SplineBasis(graded_breakpoints(8.0, 12, first_element=0.05), order=6)


def test_breakpoints_symmetric_and_graded():
    bp = graded_breakpoints(10.0, 15, first_element=0.02)
    assert np.allclose(bp, -bp[::-1])
    steps = np.diff(bp[15:])
    assert steps[0] == pytest.approx(0.02, rel=1e-6)
    assert np.all(np.diff(steps) > 0)


def test_knots_clamped(basis):
    p = basis.degree
    assert np.all(np.diff(basis.knots) >= 0)
    assert np.all(basis.knots[: p + 1] == basis.breakpoints[0])
    assert np.all(basis.knots[-(p + 1):] == basis.breakpoints[-1])


def test_partition_of_unity(basis):
    z = np.linspace(-7.99, 7.99, 601)
    assert np.allclose(basis.partition_of_unity(z), 1.0, atol=1e-12)


def test_dirichlet_restriction_vanishes_at_ends(basis):
    edge = basis.design_matrix(np.array(basis.domain))
    assert np.allclose(edge, 0.0, atol=1e-14)


def test_design_derivatives_match_finite_differences(basis):
    z = np.array([-3.3, -0.02, 0.013, 0.4, 5.1])
    h = 1e-6
    d1 = basis.design_matrix(z, 1)
    fd = (basis.design_matrix(z + h) - basis.design_matrix(z - h)) / (2 * h)
    assert np.allclose(d1, fd, rtol=1e-5, atol=1e-7)
    d2 = basis.design_matrix(z, 2)
    fd2 = (
        basis.design_matrix(z + h) - 2 * basis.design_matrix(z) + basis.design_matrix(z - h)
    ) / h**2
    assert np.allclose(d2, fd2, rtol=1e-3, atol=1e-3)


def test_coefficient_spline_consistency(basis):
    rng = np.random.default_rng(4)
    c = rng.standard_normal((basis.n_funcs, 2))
    z = rng.uniform(-7, 7, size=17)
    direct = basis.design_matrix(z) @ c
    via_spline = basis.coefficient_spline(c)(z)
    assert np.allclose(direct, via_spline, atol=1e-12)


def test_particle_in_a_box_convergence():
    # V = 0 with vanishing ends: lowest eigenvalue -> pi^2 / (2 L_box^2);
    # sextic-order splines reach rounding level already at a handful of
    # elements, so every refinement level must sit at the exact value
    exact = np.pi**2 / (2 * 16.0**2)
    for n_el in (6, 12):
        b = SplineBasis(graded_breakpoints(8.0, n_el, ratio=1.2), order=6)
        w = eigh(b.kinetic(), b.overlap(), subset_by_index=(0, 0))[0][0]
        assert abs(w - exact) < 1e-10 * exact


def test_outside_domain_evaluates_to_zero(basis):
    vals = basis.design_matrix(np.array([-9.0, 9.0, 100.0]))
    assert np.all(vals == 0.0)


# -- the numpy spline code against scipy's, which it replaced ----------------


def _edge_points(basis):
    """Quadrature nodes, every breakpoint (both ends, the triple knot at 0),
    points a rounding step either side of 0 and of the ends, and outside."""
    lo, hi = basis.domain
    return np.concatenate([basis.zq, basis.breakpoints, [-1e-15, 1e-15],
                           np.nextafter([lo, hi], 0.0), [lo - 1e-9, hi + 1e-9, -50.0, 50.0]])


def _scipy_full_design(basis, z, deriv):
    n_full = len(basis.knots) - basis.degree - 1
    b = BSpline(basis.knots, np.eye(n_full), basis.degree, extrapolate=False)
    # derivative() refuses the high orders across the triple knot at 0
    vals = b.derivative(deriv)(z) if 0 < deriv < 3 else b(z, nu=deriv)
    return np.nan_to_num(vals)


@pytest.mark.parametrize("deriv", range(6))
def test_design_matrix_matches_scipy_bspline(basis, deriv):
    z = _edge_points(basis)
    want = _scipy_full_design(basis, z, deriv)
    got = basis.design_matrix(z, deriv)
    scale = np.abs(want).max(axis=0)[1:-1]
    assert np.all(np.abs(got - want[:, 1:-1]) <= 1e-13 * scale)
    assert np.all(got[-4:] == 0.0)  # outside the domain


def test_coefficient_spline_matches_scipy_bspline(basis):
    rng = np.random.default_rng(11)
    c = rng.standard_normal((basis.n_funcs, 3))
    pad = np.zeros((1, 3))
    ref = BSpline(basis.knots, np.concatenate([pad, c, pad]), basis.degree, extrapolate=False)
    z = _edge_points(basis)
    got = basis.coefficient_spline(c).derivatives(z)
    for d, g in enumerate(got):
        want = np.nan_to_num(ref.derivative(d)(z) if d else ref(z))
        assert g.shape == (len(z), 3)
        assert np.all(np.abs(g - want) <= 1e-13 * np.abs(want).max(axis=0))
        assert np.all(g[-4:] == 0.0)


def test_cubic_fit_matches_scipy_cubic_spline():
    # a graded grid, and the fewest points a not-a-knot fit takes
    for x in (graded_grid(12.0, 60, 1e-3), np.array([0.0, 0.1, 1.5, 1.7])):
        y = np.column_stack([np.exp(-x), 1.0 / np.sqrt(1.0 + x * x)])
        fit = PiecewisePolynomial.cubic_fit(x, y)
        ref = CubicSpline(x, y)
        assert fit.c.shape == ref.c.shape
        scale = np.abs(ref.c).max(axis=1, keepdims=True)
        assert np.all(np.abs(fit.c - ref.c) <= 1e-13 * scale)
        z = np.concatenate([x, 0.5 * (x[:-1] + x[1:])])
        assert np.allclose(fit(z), ref(z), rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        PiecewisePolynomial.cubic_fit(x[:3], y[:3])


def _cutoff_equation(degree, rate):
    t_peak = degree / rate
    return lambda t: rate * (t - t_peak) - degree * math.log(t / t_peak) - CUTOFF_EFOLDS


# the three mesh equations: breakpoint growth ratio (4 elements need a
# ratio above 4), graded kernel grid, and the q cutoff of the kernels
@pytest.mark.parametrize("f, lo, hi", [
    (lambda r: (r - 1.0) / (r**24 - 1.0) - 0.012, 1.0 + 1e-9, 4.0),
    (lambda r: (r - 1.0) / (r**4 - 1.0) - 0.005, 1.0 + 1e-9, 8.0),
    (lambda a: np.expm1(a) / a - 12.0 / (800 * 3e-5), 1e-8, 200.0),
    (_cutoff_equation(10, 2.0), 5.0, 40.0),
    (_cutoff_equation(50, 1.0), 50.0, 200.0),
])
def test_bisect_matches_brentq_on_mesh_equations(f, lo, hi):
    want = brentq(f, lo, hi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
    assert bisect(f, lo, hi) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError, match="same sign"):
        bisect(f, lo, lo * (1 + 1e-12))


def test_mesh_functions_match_brentq_roots():
    ratio = brentq(lambda r: (r - 1.0) / (r**12 - 1.0) - 0.05 / 8.0, 1.0 + 1e-9, 4.0,
                   xtol=1e-15)
    k = np.arange(1, 13)
    assert np.allclose(graded_breakpoints(8.0, 12, first_element=0.05)[13:],
                       (ratio**k - 1.0) / (ratio**12 - 1.0) * 8.0, rtol=1e-13, atol=0)
    a = brentq(lambda a: np.expm1(a) / a - 10.0 / (100 * 1e-3), 1e-8, 200.0, xtol=1e-15)
    want = 10.0 * np.expm1(a * np.linspace(0.0, 1.0, 100)) / np.expm1(a)
    assert np.allclose(graded_grid(10.0, 100, 1e-3), want, rtol=1e-13, atol=0)
    t_cut = brentq(_cutoff_equation(6, 2.0), 3.0, 60.0, xtol=1e-15)
    assert _q_cutoff(5.0, 6, 2.0) == pytest.approx(math.sqrt(2.0 * 5.0 * t_cut), rel=1e-14)

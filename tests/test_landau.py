import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_genlaguerre, gammaln, jv

from magqmc.config import parse_config_text
from magqmc.kernels import build_kernel_table
from magqmc.landau import (
    LandauOrbital,
    eval_transverse,
    form_factor,
    laguerre,
    mixed_form_factor,
    norm_const,
    transverse_value_grad_lap,
)
from magqmc.pipeline import kernel_grid_for

GAMMA_HE = 2 * 212.7207


def radial_quad(f, gamma):
    # adaptive radial quadrature with the natural transverse scale
    scale = 1.0 / np.sqrt(gamma)
    val, err = quad(f, 0.0, 40.0 * scale, limit=200)
    return val


def overlap(m1, m2, gamma):
    """<m1|m2> over the plane: exact azimuthal integral times radial quad."""
    if m1 != m2:
        # e^{i(m1-m2)phi} integrates to zero; verify with a trapezoid that is
        # spectrally exact for integer harmonics
        phi = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        az = np.mean(np.exp(1j * (m1 - m2) * phi))
        assert abs(az) < 1e-14
        return 0.0
    f = lambda r: np.abs(eval_transverse(LandauOrbital(m1, gamma), r, 0.0)) ** 2 * r
    return 2 * np.pi * radial_quad(f, gamma)


@pytest.mark.parametrize("m,gamma", [(0, 1.0), (0, 212.7207), (0, GAMMA_HE), (2, 10.0), (5, 425.0)])
def test_normalization_by_quadrature(m, gamma):
    assert overlap(m, m, gamma) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("m1,m2", [(0, 1), (0, 3), (2, 4)])
def test_orthogonality(m1, m2):
    assert overlap(m1, m2, GAMMA_HE) == pytest.approx(0.0, abs=1e-9)


def test_peak_value_and_ring_zero():
    assert eval_transverse(LandauOrbital(0, 1.0), 0.0, 0.3) == pytest.approx(
        np.sqrt(1 / (2 * np.pi)), rel=1e-12
    )
    assert eval_transverse(LandauOrbital(1, 77.0), 0.0, 0.0) == 0.0


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        eval_transverse(LandauOrbital(0, 1.0), -0.1, 0.0)


@pytest.mark.parametrize("m,gamma", [(0, GAMMA_HE), (1, GAMMA_HE), (3, 50.0)])
def test_mean_rho2_quadrature(m, gamma):
    f = lambda r: np.abs(eval_transverse(LandauOrbital(m, gamma), r, 0.0)) ** 2 * r**3
    rho2 = 2 * np.pi * radial_quad(f, gamma)
    assert rho2 == pytest.approx(2 * (m + 1) / gamma, rel=1e-9)
    assert LandauOrbital(m, gamma).mean_rho2 == pytest.approx(2 * (m + 1) / gamma)


def test_larmor_scaling_quadruple_field_halves_extent():
    def rms(gamma):
        f = lambda r: np.abs(eval_transverse(LandauOrbital(0, gamma), r, 0.0)) ** 2 * r**3
        return np.sqrt(2 * np.pi * radial_quad(f, gamma))

    assert rms(4 * GAMMA_HE) == pytest.approx(0.5 * rms(GAMMA_HE), rel=1e-9)


def test_phase_winding():
    orb = LandauOrbital(2, 10.0)
    v1 = eval_transverse(orb, 1.0, 0.4)
    v2 = eval_transverse(orb, 1.0, 0.0)
    assert np.angle(v1 / v2) == pytest.approx(-2 * 0.4)


def test_value_grad_lap_against_finite_differences():
    ms = [0, 1, 3]
    gamma = 40.0
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((6, 2)) * 0.3
    x, y = pts[:, :1], pts[:, 1:]
    p, d = transverse_value_grad_lap(ms, gamma, pts[:, 0], pts[:, 1])
    # the closed-form Cartesian derivatives assembled from (P, D)
    px = d - 0.5 * gamma * x * p
    py = -1j * d - 0.5 * gamma * y * p
    lap = (gamma**2 * (x * x + y * y) / 4.0 - (np.asarray(ms) + 1) * gamma) * p
    h = 1e-6
    for k in (0, 1):
        shift = np.zeros(2)
        shift[k] = h
        pp = transverse_value_grad_lap(ms, gamma, pts[:, 0] + shift[0], pts[:, 1] + shift[1])[0]
        pm = transverse_value_grad_lap(ms, gamma, pts[:, 0] - shift[0], pts[:, 1] - shift[1])[0]
        fd = (pp - pm) / (2 * h)
        ana = px if k == 0 else py
        assert np.allclose(fd, ana, rtol=1e-6, atol=1e-9)
    # laplacian via 5-point second differences, with its own step: their
    # roundoff grows like eps*|P|/h^2 (max error 1.2e-3 at h=1e-6, above the
    # bound), while at h=1e-4 both roundoff and h^2 truncation stay ~1e-5
    h2 = 1e-4
    num = np.zeros_like(p)
    for k in (0, 1):
        shift = np.zeros(2)
        shift[k] = h2
        pp = transverse_value_grad_lap(ms, gamma, pts[:, 0] + shift[0], pts[:, 1] + shift[1])[0]
        pm = transverse_value_grad_lap(ms, gamma, pts[:, 0] - shift[0], pts[:, 1] - shift[1])[0]
        num += (pp - 2 * p + pm) / h2**2
    assert np.allclose(num, lap, rtol=2e-4, atol=1e-6)


def test_transverse_value_matches_eval_transverse():
    ms = [0, 1, 3, 7]
    gamma = 40.0
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((6, 2)) * 0.3
    p, d = transverse_value_grad_lap(ms, gamma, pts[:, 0], pts[:, 1])
    rho, phi = np.hypot(pts[:, 0], pts[:, 1]), np.arctan2(pts[:, 1], pts[:, 0])
    w = pts[:, 0] - 1j * pts[:, 1]
    for k, m in enumerate(ms):
        ref = eval_transverse(LandauOrbital(m, gamma), rho, phi)
        assert np.allclose(p[:, k], ref, rtol=1e-12, atol=0)
        # D = m P / w away from the axis
        assert np.allclose(d[:, k], m * ref / w, rtol=1e-12, atol=0)


def test_form_factor_limits():
    for m in (0, 1, 4):
        assert form_factor(m, 0.0, GAMMA_HE) == pytest.approx(1.0)
    assert mixed_form_factor(2, 2, 0.0, GAMMA_HE) == pytest.approx(1.0)
    assert mixed_form_factor(2, 1, 0.0, GAMMA_HE) == 0.0


@pytest.mark.parametrize("m1,m2,q", [(2, 1, 1.0), (2, 1, 10.0), (3, 0, 12.0), (1, 1, 7.0)])
def test_mixed_form_factor_against_hankel_quadrature(m1, m2, q):
    gamma = 425.44

    def radial(m, rho):
        return norm_const(m, gamma) * rho**m * np.exp(-gamma * rho**2 / 4)

    direct = 2 * np.pi * quad(
        lambda r: r * radial(m1, r) * radial(m2, r) * jv(abs(m1 - m2), q * r),
        0, np.inf, limit=200,
    )[0]
    assert mixed_form_factor(m1, m2, q, gamma) == pytest.approx(direct, rel=1e-8)


# -- the numpy special functions against scipy's, which they replaced -------


@pytest.fixture(scope="module", params=["he+", "c6"])
def q_rule(request):
    """(q nodes, gamma) of the He+ (1e8 T) and C6 (5e8 T) kernel tables."""
    text = {"he+": "z = 2\nn_electrons = 1\nb_tesla = 1e8\n",
            "c6": "z = 6\nn_electrons = 6\nb_tesla = 5e8\n"}[request.param]
    cfg = parse_config_text(text)
    table = build_kernel_table(cfg.field.beta, cfg.field.gamma, float(cfg.z),
                               [o.m for o in cfg.occupations], kernel_grid_for(cfg))
    return table.q, table.gamma


def _within_column_max(got, want, rtol=1e-13):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_laguerre_matches_scipy_on_the_q_rule(q_rule):
    q, gamma = q_rule
    t = q * q / (2 * gamma)
    for n in range(26):
        for nu in range(26 - n):
            assert _within_column_max(laguerre(n, nu, t), eval_genlaguerre(n, nu, t)), (n, nu)


def test_mixed_form_factor_matches_scipy_on_the_q_rule(q_rule):
    q, gamma = q_rule
    t = q * q / (2 * gamma)
    for m1 in range(26):
        for m2 in range(m1 + 1):
            nu, n = m1 - m2, m2
            log_a = 0.5 * (gammaln(n + 1) - gammaln(m1 + 1)) - 0.5 * nu * np.log(2 * gamma)
            want = np.exp(log_a) * q**nu * np.exp(-t) * eval_genlaguerre(n, nu, t)
            for pair in ((m1, m2), (m2, m1)):
                assert _within_column_max(mixed_form_factor(*pair, q, gamma), want), pair


@pytest.mark.parametrize("gamma", [1.0, 2.3, GAMMA_HE, 4254.4])
def test_norm_const_matches_exact_rational_closed_form(gamma):
    for m in range(26):
        # c_m^2 exact in rationals, up to the rounding of pi to a double
        exact = Fraction(gamma / 2) ** (m + 1) / (Fraction(math.pi) * math.factorial(m))
        want = math.sqrt(float(exact))
        assert abs(norm_const(m, gamma) / want - 1.0) <= 1e-15, m
        # the log form with scipy's gammaln, which it replaced, is only good to
        # the rounding of its exponent
        old = math.exp(0.5 * ((m + 1) * (math.log(gamma) - math.log(2.0)) - math.log(math.pi)
                              - gammaln(m + 1)))
        assert abs(old / want - 1.0) <= 3e-14, m

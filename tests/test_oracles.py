import numpy as np
import pytest

from magqmc.guiding import GuidingFunction
from magqmc.oracles import (
    GridResolutionError,
    HarmonicLongitudinal,
    grid_eigensolve,
    mc_integral_kernel,
    nuclear_kernel_m0_closed,
    separable_test_hamiltonian,
)


def test_harmonic_oscillator_spectrum():
    res = grid_eigensolve(lambda z: 0.5 * z**2, z_max=12.0, n_points=4001, k=4)
    assert np.allclose(res.eigenvalues, [0.5, 1.5, 2.5, 3.5], atol=1e-7)
    assert np.all(np.diff(res.eigenvalues) > 0)


def test_eigenvectors_normalized_on_grid():
    res = grid_eigensolve(lambda z: 0.5 * z**2, z_max=10.0, n_points=2001, k=2)
    h = res.z[1] - res.z[0]
    norms = h * np.sum(res.eigenvectors**2, axis=0)
    assert np.allclose(norms, 1.0, atol=1e-10)


@pytest.mark.parametrize("n_points", [2001, 100001])
def test_error_estimate_bounds_actual_error(n_points):
    # truncation dominates on the coarse grid, the eigensolver's roundoff
    # floor (~eps/h^2) on the fine one; the estimate must cover both
    res = grid_eigensolve(lambda z: 0.5 * z**2, z_max=10.0, n_points=n_points, k=2)
    assert np.all(np.abs(res.eigenvalues - [0.5, 1.5]) <= res.error_estimate)


def test_box_spectrum_quadratic():
    res = grid_eigensolve(lambda z: np.zeros_like(z), z_max=5.0, n_points=4001, k=3)
    ratios = res.eigenvalues / res.eigenvalues[0]
    assert np.allclose(ratios, [1.0, 4.0, 9.0], rtol=1e-6)


def test_unresolved_potential_refused():
    spike = lambda z: -500.0 * np.exp(-((z / 1e-4) ** 2))
    with pytest.raises(GridResolutionError):
        grid_eigensolve(spike, z_max=5.0, n_points=2001, k=1)


def test_closed_form_kernel_stable_and_correct():
    g = 425.44
    assert nuclear_kernel_m0_closed(g, 1.0, 0.0) == pytest.approx(
        -np.sqrt(np.pi * g / 2), rel=1e-12
    )
    far = nuclear_kernel_m0_closed(g, 3.0, 100.0)
    assert np.isfinite(far)
    assert far == pytest.approx(-3.0 / 100.0, rel=1e-3)


def test_mc_kernel_basics():
    with pytest.raises(ValueError):
        mc_integral_kernel(1.0, 0, 0, 0.0, n_samples=100)
    est, sem = mc_integral_kernel(1.0, 0, 0, 0.0, n_samples=300_000, seed=5)
    assert abs(est - np.sqrt(np.pi) / 2) < 3 * sem
    # symmetry within errors
    a, sa = mc_integral_kernel(50.0, 0, 2, 0.1, seed=1)
    b, sb = mc_integral_kernel(50.0, 2, 0, 0.1, seed=2)
    assert abs(a - b) < 3 * np.hypot(sa, sb)
    # far field (the 1/zeta^3 multipole correction sits below 1e-3 here)
    g = 50.0
    zeta = 100.0 / np.sqrt(g)
    est, sem = mc_integral_kernel(g, 1, 1, zeta, seed=3)
    assert abs(est * zeta - 1.0) < 3 * sem * zeta + 1e-3


def test_separable_case_exact_energy_and_variance():
    case = separable_test_hamiltonian(gamma=6.0, omega=1.5, n_electrons=2)
    assert case.exact_energy == pytest.approx(0.5 * 1.5 * 2)
    loose = separable_test_hamiltonian(
        gamma=6.0, omega=1.5, n_electrons=1, spin_zeeman_included=False
    )
    assert loose.exact_energy == pytest.approx(0.5 * 6.0 + 0.5 * 1.5)

    rng = np.random.default_rng(8)
    r = rng.standard_normal((128, 2, 3)) * 0.5
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    ev = gf.evaluate(r)
    assert np.max(np.abs(ev.e_loc - case.exact_energy)) < 1e-10

    jittered = separable_test_hamiltonian(gamma=6.0, omega=1.5, n_electrons=2,
                                          amplitude_jitter=0.01)
    gj = GuidingFunction(jittered.orbitals, jittered.hamiltonian())
    evj = gj.evaluate(r)
    assert np.std(np.real(evj.e_loc)) > 1e-4


def test_harmonic_longitudinal_closed_forms():
    om = 1.7
    z = np.random.default_rng(9).normal(size=(5, 3))
    zc = z[..., None]
    g = (om / np.pi) ** 0.25 * np.exp(-0.5 * om * zc**2)
    # jitter 0: exactly the oscillator ground state and its derivatives
    f, f1, f2 = HarmonicLongitudinal(range(3), 4.0, om).longitudinal(z)
    assert f.shape == f1.shape == f2.shape == (5, 3, 3)
    for got, want in ((f, g), (f1, -om * zc * g), (f2, (om**2 * zc**2 - om) * g)):
        assert np.broadcast_to(want, got.shape).tobytes() == got.tobytes()
    # jitter j: f = g (1 + j om z^2), derivatives against central differences
    orbs = HarmonicLongitudinal(range(3), 4.0, om, amplitude_jitter=0.3)
    f, f1, f2 = orbs.longitudinal(z)
    np.testing.assert_allclose(f, np.broadcast_to(g * (1 + 0.3 * om * zc**2), f.shape),
                               rtol=1e-14)
    h = 1e-4
    fp, fm = orbs.longitudinal(z + h)[0], orbs.longitudinal(z - h)[0]
    np.testing.assert_allclose(f1, (fp - fm) / (2 * h), rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(f2, (fp - 2 * f + fm) / h**2, rtol=1e-5, atol=1e-6)
    assert orbs.z_domain == (-8.0 / np.sqrt(om), 8.0 / np.sqrt(om))


def test_frequency_validation():
    with pytest.raises(ValueError):
        separable_test_hamiltonian(gamma=-1.0, omega=1.0)

import math

import numpy as np
import pytest

from magqmc import units
from magqmc.guiding import GuidingFunction, Hamiltonian
from magqmc.jastrow import JastrowParams
from magqmc.oracles import HarmonicLongitudinal, separable_test_hamiltonian
from magqmc.sampler import init_walkers


@pytest.fixture
def he_r0():
    rng = np.random.default_rng(31)
    return rng.standard_normal((1, 2, 3)) * np.array([0.05, 0.05, 0.2])


def det_only(guiding):
    return GuidingFunction(guiding.orbitals, guiding.hamiltonian, None)


@pytest.mark.parametrize("n_el,spin_flag", [(1, True), (2, True), (1, False)])
def test_zero_variance_for_exact_guiding(n_el, spin_flag):
    case = separable_test_hamiltonian(
        gamma=9.0, omega=2.5, n_electrons=n_el, spin_zeeman_included=spin_flag
    )
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    rng = np.random.default_rng(32)
    r = rng.standard_normal((200, n_el, 3)) * 0.5
    ev = gf.evaluate(r)
    assert np.max(np.abs(ev.e_loc - case.exact_energy)) < 1e-8
    assert np.max(np.abs(ev.e_loc.imag)) < 1e-10


def test_drift_and_phase_gradient_match_finite_differences(he_guiding, he_r0):
    ev = he_guiding.evaluate(he_r0)
    h = 1e-6
    for i in range(2):
        for k in range(3):
            rp, rm = he_r0.copy(), he_r0.copy()
            rp[0, i, k] += h
            rm[0, i, k] -= h
            evp, evm = he_guiding.evaluate(rp), he_guiding.evaluate(rm)
            fd_log = (evp.log_abs[0] - evm.log_abs[0]) / (2 * h)
            fd_phase = (evp.phase[0] - evm.phase[0]) / (2 * h)
            assert ev.drift[0, i, k] == pytest.approx(fd_log, rel=1e-6, abs=1e-8)
            assert ev.phase_grad[0, i, k] == pytest.approx(fd_phase, rel=1e-6, abs=1e-8)


def test_log_laplacian_consistency(he_guiding, he_r0):
    from magqmc.jastrow import jastrow_u
    from magqmc.slater import slater_eval

    det = slater_eval(he_guiding.orbitals, he_r0)
    _, _, lap_u = jastrow_u(he_guiding.jastrow, he_r0)
    analytic = float(
        np.real(np.sum(det.lap[0]) - np.sum(det.grad[0] ** 2)) - lap_u[0]
    )
    h = 1e-6
    fd = 0.0
    base = he_guiding.evaluate(he_r0).log_abs[0]
    for i in range(2):
        for k in range(3):
            rp, rm = he_r0.copy(), he_r0.copy()
            rp[0, i, k] += h
            rm[0, i, k] -= h
            fd += (
                he_guiding.evaluate(rp).log_abs[0]
                - 2 * base
                + he_guiding.evaluate(rm).log_abs[0]
            ) / h**2
    assert analytic == pytest.approx(fd, rel=1e-4)


def _even_slope(gf, r0, electron, radii, rng, n_dirs=8):
    """Fitted d log|Psi| / dr of the direction-even part as r_electron -> 0."""
    base_cfg = r0.copy()
    base_cfg[0, electron] = 0.0
    base = gf.evaluate(base_cfg).log_abs[0]
    slopes = []
    for r in radii:
        vals = []
        for _ in range(n_dirs):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            rp, rm = base_cfg.copy(), base_cfg.copy()
            rp[0, electron] = d * r
            rm[0, electron] = -d * r
            vals.append(0.5 * (gf.evaluate(rp).log_abs[0] + gf.evaluate(rm).log_abs[0]))
        slopes.append((np.mean(vals) - base) / r)
    return np.polyfit(radii, slopes, 2)[-1]


def test_nuclear_cusp_of_full_guiding(he_guiding, he_r0):
    rng = np.random.default_rng(33)
    # the Jastrow's r/(1+sr) has an r^3 term, which biases a quadratic fit
    # by ~beta/4*(r1 r2 + r1 r3 + r2 r3); a cubic fit removes it
    radii = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    z_charge = he_guiding.hamiltonian.nuclear_charge
    # the determinant is smooth toward the nucleus; the cusp comes from e^{-U}
    det_slope = _even_slope(det_only(he_guiding), he_r0, 0, radii, rng)
    assert abs(det_slope) < 0.01
    full_slope = _even_slope(he_guiding, he_r0, 0, radii, rng)
    assert full_slope == pytest.approx(-z_charge, abs=0.02)


def test_pair_cusp_of_full_guiding(he_guiding, he_r0):
    rng = np.random.default_rng(34)
    # the Jastrow's r/(1+sr) has an r^3 term, which biases a quadratic fit
    # by ~beta/4*(r1 r2 + r1 r3 + r2 r3); a cubic fit removes it
    radii = np.array([1e-3, 1e-4, 1e-5, 1e-6])
    d = rng.standard_normal(3)
    d /= np.linalg.norm(d)

    def pair_slope(gf):
        slopes = []
        for r in radii:
            vals = []
            for sign in (1.0, -1.0):
                cfg = he_r0.copy()
                cfg[0, 1] = cfg[0, 0] + sign * d * r
                vals.append(gf.evaluate(cfg).log_abs[0])
            # same-spin pair: determinant vanishes linearly; remove log r
            slopes.append(0.5 * (vals[0] + vals[1]) - np.log(r))
        return np.polyfit(radii, np.asarray(slopes), 3)[-2]

    det_val = pair_slope(det_only(he_guiding))
    full_val = pair_slope(he_guiding)
    assert full_val - det_val == pytest.approx(0.25, abs=1e-6)
    assert full_val == pytest.approx(0.25, abs=0.02)


def test_full_guiding_antisymmetry(he_guiding):
    rng = np.random.default_rng(35)
    r = rng.standard_normal((1, 2, 3)) * 0.2
    swapped = r[:, ::-1].copy()
    a = he_guiding.evaluate(r)
    b = he_guiding.evaluate(swapped)
    assert b.log_abs[0] == pytest.approx(a.log_abs[0], abs=1e-10)
    assert (b.phase[0] - a.phase[0]) % (2 * np.pi) == pytest.approx(np.pi, abs=1e-10)


def test_coincidence_flagged(he_guiding):
    r = np.zeros((1, 2, 3))
    r[0, 1] = [0.1, 0.0, 0.1]
    r[0, 0] = [0.0, 0.0, 0.0]  # on the nucleus
    ev = he_guiding.evaluate(r)
    assert not ev.ok[0]
    r2 = np.full((1, 2, 3), 0.1)  # coincident electrons
    assert not he_guiding.evaluate(r2).ok[0]


def test_potential_hand_value():
    ham = Hamiltonian(gamma=1.0, nuclear_charge=2.0)
    r = np.array([[[1.0, 0, 0], [0, 0, 2.0]]])
    v = ham.potential(r)
    rij = np.sqrt(1.0 + 4.0)
    assert v[0] == pytest.approx(-2.0 / 1.0 - 2.0 / 2.0 + 1.0 / rij)


def test_field_parameter_mismatch_rejected():
    case = separable_test_hamiltonian(gamma=4.0, omega=1.0)
    bad = Hamiltonian(gamma=5.0, nuclear_charge=0.0, include_pair=False)
    with pytest.raises(ValueError, match="field"):
        GuidingFunction(case.orbitals, bad)


def test_paramagnetic_term_uses_total_angular_momentum(he_guiding):
    assert he_guiding.m_total == 1  # m = 0 and m = 1 occupied
    case = separable_test_hamiltonian(gamma=4.0, omega=1.0, n_electrons=3)
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    assert gf.m_total == 0 + 1 + 2


# ---------------------------------------------------------------------------
# the one-pass evaluation against an inline textbook reference

FE_FIELD = units.beta_from_tesla(5e8)


def reference_evaluation(orbitals, ham, jas, r):
    """log|Psi|, drift, phase gradient, E_L and cond(A) from the textbook formulas.

    Shares no code with the production path: complex powers w**m, explicit
    dP/dx, dP/dy and lap P matrices contracted by four einsums, and the
    Jastrow factor and potential on the full N x N pair matrices.
    """
    gamma = orbitals.gamma
    ms = np.asarray(orbitals.ms)
    n = len(ms)
    x, y = r[..., 0, None], r[..., 1, None]
    w = x - 1j * y
    rho2 = x * x + y * y
    c = np.array([math.sqrt(gamma ** (m + 1) / (2 ** (m + 1) * math.pi * math.factorial(m)))
                  for m in ms])
    base = c * np.exp(-gamma * rho2 / 4)
    wm, wm1 = w**ms, w ** np.maximum(ms - 1, 0)
    p = base * wm
    px = base * (ms * wm1 - 0.5 * gamma * x * wm)
    py = base * (-1j * ms * wm1 - 0.5 * gamma * y * wm)
    plap = (gamma**2 * rho2 / 4 - (ms + 1) * gamma) * p
    f, f1, f2 = orbitals.longitudinal(r[..., 2])
    a = p * f
    _, logdet = np.linalg.slogdet(a)
    ainv = np.linalg.inv(a)
    grad = np.stack([np.einsum("wvi,wiv->wi", ainv, d) for d in (px * f, py * f, p * f1)],
                    axis=-1)
    lap = np.einsum("wvi,wiv->wi", ainv, plap * f + p * f2)

    s, zc = jas.s, jas.z_charge
    ri = np.linalg.norm(r, axis=-1)
    diff = r[:, :, None, :] - r[:, None, :, :]
    off = ~np.eye(n, dtype=bool)
    rij = np.where(off, np.linalg.norm(diff, axis=-1), 1.0)
    den, denp = 1 + s * ri, 1 + s * rij
    u = zc * np.sum(ri / den, -1) - 0.125 * np.sum(np.where(off, rij / denp, 0), axis=(1, 2))
    gu = (zc / den**2 / ri)[..., None] * r + np.sum(
        np.where(off, -0.25 / denp**2 / rij, 0)[..., None] * diff, axis=2)
    lap_u = np.sum(-2 * zc * s / den**3 + 2 * zc / den**2 / ri, -1) + np.sum(
        np.where(off, 0.5 * s / denp**3 - 0.5 / denp**2 / rij, 0), axis=(1, 2))
    lap_psi = (np.sum(lap, -1) - 2 * np.einsum("wik,wik->w", gu, grad)
               + np.einsum("wik,wik->w", gu, gu) - lap_u)
    v = (-ham.nuclear_charge * np.sum(1 / ri, -1)
         + 0.5 * np.sum(np.where(off, 1 / rij, 0), axis=(1, 2)))
    e_loc = (-0.5 * lap_psi - 0.5 * gamma * ms.sum()
             + gamma**2 / 8 * np.sum(rho2, axis=(1, 2)) + v - 0.5 * gamma * n)
    return logdet - u, np.real(grad) - gu, np.imag(grad), e_loc, np.linalg.cond(a)


def fe_like_guiding(n, jitter=0.1):
    orbs = HarmonicLongitudinal(range(n), FE_FIELD.gamma, 50.0, amplitude_jitter=jitter)
    ham = Hamiltonian(gamma=FE_FIELD.gamma, nuclear_charge=26.0)
    jas = JastrowParams(FE_FIELD.beta, 26.0, n)
    return GuidingFunction(orbs, ham, jas)


def orbital_draws(rng, n, walkers):
    """Configurations on the orbital supports (transverse <rho^2> = 2(m+1)/gamma)."""
    r = np.empty((walkers, n, 3))
    sigma = np.sqrt((np.arange(n) + 1) / FE_FIELD.gamma)
    r[..., 0] = rng.standard_normal((walkers, n)) * sigma
    r[..., 1] = rng.standard_normal((walkers, n)) * sigma
    r[..., 2] = rng.standard_normal((walkers, n)) * 0.1
    return r


@pytest.mark.parametrize("n", [2, 12, 26])
def test_evaluation_matches_textbook_reference(n):
    gf = fe_like_guiding(n)
    r = orbital_draws(np.random.default_rng(40 + n), n, 24)
    ev = gf.evaluate(r)
    log_ref, drift_ref, phase_ref, e_ref, cond = reference_evaluation(
        gf.orbitals, gf.hamiltonian, gf.jastrow, r)
    assert ev.ok.all()
    # both sides carry rounding of order cond(A) eps; measured ratios <= 2.4
    tol = 20.0 * np.finfo(float).eps * cond
    grad_scale = np.max(np.abs(drift_ref), axis=(1, 2))
    assert np.all(np.abs(ev.log_abs - log_ref) <= tol * np.abs(log_ref))
    assert np.all(np.max(np.abs(ev.drift - drift_ref), axis=(1, 2)) <= tol * grad_scale)
    assert np.all(np.max(np.abs(ev.phase_grad - phase_ref), axis=(1, 2)) <= tol * grad_scale)
    assert np.all(np.abs(ev.e_loc - e_ref) <= tol * np.abs(e_ref))


@pytest.mark.parametrize("case", ["pair 1e-13 apart", "on the nucleus", "on a node"])
def test_coincidences_and_nodes_masked(case):
    gf = fe_like_guiding(2, jitter=0.0)
    r = np.array([[[0.01, 0.02, 0.05], [-0.02, 0.01, -0.03]]])
    if case == "pair 1e-13 apart":
        r[0, 1] = r[0, 0] + np.array([1e-13, 0.0, 0.0])
    elif case == "on the nucleus":
        r[0, 0] = 0.0
    else:
        # same transverse point at mirrored z: identical rows, distinct electrons
        r[0, 1] = r[0, 0] * np.array([1.0, 1.0, -1.0])
    ev = gf.evaluate(r)
    assert not ev.ok[0]
    assert np.isnan(ev.e_loc[0])


def test_zero_variance_at_iron_size():
    case = separable_test_hamiltonian(gamma=FE_FIELD.gamma, omega=50.0, n_electrons=26)
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    # walkers sampled from |Psi_G|^2; draws right next to a node carry
    # cond(A) eps errors of their own (see the reference test above)
    pop = init_walkers(gf, 20, np.random.default_rng(4), z_domain=(-1.1, 1.1))
    rel = np.abs(pop.ev.e_loc - case.exact_energy) / case.exact_energy
    assert pop.ev.ok.all()
    assert np.max(rel) < 1e-8

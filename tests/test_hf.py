import logging

import numpy as np
import pytest
from scipy.linalg import eigh

from magqmc.bsplines import SplineBasis, graded_breakpoints
from magqmc.config import Occupation, parse_config_text, with_overrides
from magqmc.hf import (
    BasisError,
    MeanFieldWorkspace,
    SCFError,
    count_nodes,
    load_orbitals,
    save_orbitals,
    scf,
    basis_for_config,
    hf_total_energy,
    solve_channel,
)
from magqmc.kernels import build_kernel_table
from magqmc.oracles import grid_eigensolve, nuclear_kernel_m0_closed
from magqmc.pipeline import kernel_grid_for
from magqmc.units import hartree_to_kev


def test_count_nodes_window_robust():
    z = np.linspace(-10, 10, 2001)
    f = np.exp(-(z**2))  # nodeless
    f += 1e-4 * np.sin(40 * z) * (np.abs(z) > 5)  # tail ringing
    assert count_nodes(f) == 0
    g = z * np.exp(-(z**2))
    assert count_nodes(g) == 1
    h = (4 * z**2 - 2) * np.exp(-(z**2))
    assert count_nodes(h) == 2


def test_hydrogen_channel_matches_grid_oracle(hydrogen_cfg, hydrogen_kernels):
    orb = scf(hydrogen_cfg, hydrogen_kernels)
    gamma = hydrogen_cfg.field.gamma
    # the oracle's walls sit 20 decay lengths out, where the bound state's
    # tail no longer lifts the energy
    kappa = np.sqrt(-2.0 * orb.eigenvalues[0])
    res = grid_eigensolve(
        lambda z: nuclear_kernel_m0_closed(gamma, 1.0, z),
        z_max=20.0 / kappa,
        n_points=10001,
        k=1,
    )
    # the oracle must resolve well below the bound it is compared at
    assert res.error_estimate[0] < 1e-8
    assert abs(orb.eigenvalues[0] - res.eigenvalues[0]) < 1e-7


@pytest.mark.parametrize("elements", [4, 6])
def test_few_elements_build_a_symmetric_basis(elements):
    # so few elements need a growth ratio above 4 to reach the domain edge
    cfg = parse_config_text(f"z = 1\nbeta = 50\nhf_elements = {elements}\n")
    bp = basis_for_config(cfg).breakpoints
    assert len(bp) == 2 * elements + 1
    assert np.array_equal(bp, -bp[::-1])
    assert bp[elements + 1] - bp[elements] == pytest.approx(0.25 / cfg.field.gamma**0.5, rel=1e-9)
    assert bp[-1] == pytest.approx(cfg.hf_domain, rel=1e-12)


def test_box_limit_of_channel_solver():
    # V = 0: the generalized eigensolver must approach the box spectrum
    basis = SplineBasis(graded_breakpoints(6.0, 10, ratio=1.1), order=6)
    w, _ = solve_channel(basis, basis.kinetic(), basis.overlap(), 2)
    exact = np.pi**2 / (2 * 12.0**2)
    assert w[0] == pytest.approx(exact, rel=1e-9)
    assert w[1] == pytest.approx(4 * exact, rel=1e-8)


@pytest.mark.parametrize("system", ["he+", "c6"])
def test_channel_eigensolve_matches_scipy_generalized_eigh(system, he_kernels):
    # the bare channel matrices T + V_m of Z = 2 at 1e8 T, and of C6 at 5e8 T
    # on 36 elements
    if system == "he+":
        cfg, kernels = parse_config_text("z = 2\nn_electrons = 1\nb_tesla = 1e8\n"), he_kernels
    else:
        cfg = parse_config_text("z = 6\nn_electrons = 6\nb_tesla = 5e8\nhf_elements = 36\n")
        kernels = build_kernel_table(cfg.field.beta, cfg.field.gamma, 6.0, range(6),
                                     kernel_grid_for(cfg))
    basis = basis_for_config(cfg)
    s = basis.overlap()
    for m in kernels.ms:
        h = basis.kinetic() + basis.potential_matrix(kernels.nuclear(m, basis.zq))
        w, v = solve_channel(basis, h, s, 8)
        _, ref = eigh(h, s, subset_by_index=(0, 7))
        quotient = np.sum(ref * (h @ ref), axis=0) / np.sum(ref * (s @ ref), axis=0)
        np.testing.assert_allclose(w, quotient, rtol=1e-12, atol=0)
        # equal up to sign, to the eigenvectors' own rounding (~eps cond(S) / gap)
        v = v * np.sign(np.sum(v * (s @ ref), axis=0))
        assert np.all(np.abs(v - ref).max(axis=0) <= 1e-8 * np.abs(ref).max(axis=0))


def test_residual_guard_rejects_bad_overlap():
    basis = SplineBasis(graded_breakpoints(4.0, 6), order=6)
    s = basis.overlap()
    h = basis.kinetic()
    s_bad = s.copy()
    s_bad[0, :] = s_bad[:, 0] = 0.0  # singular overlap
    from magqmc.hf import BasisError

    with pytest.raises(BasisError):
        solve_channel(basis, h, s_bad, 1)


def test_doubling_elements_stabilizes_eigenvalue(hydrogen_cfg, hydrogen_kernels):
    eps = {}
    for el in (24, 48):
        cfg = with_overrides(hydrogen_cfg, hf_elements=el)
        eps[el] = scf(cfg, hydrogen_kernels, basis_for_config(cfg)).eigenvalues[0]
    assert abs(eps[24] - eps[48]) < 1e-8


def test_single_electron_scf_is_bare_channel(hydrogen_cfg, hydrogen_kernels):
    orb = scf(hydrogen_cfg, hydrogen_kernels)
    basis = orb.basis
    h = basis.kinetic() + basis.potential_matrix(hydrogen_kernels.nuclear(0, basis.zq))
    w, _ = solve_channel(basis, h, basis.overlap(), 1)
    # no self-interaction: SCF total equals the bare channel eigenvalue
    assert orb.e_total == pytest.approx(w[0], abs=1e-12)
    assert orb.eigenvalues[0] == pytest.approx(w[0], abs=1e-12)


def test_helium_reference_energy(he_orbitals):
    assert hartree_to_kev(he_orbitals.e_total) == pytest.approx(-0.5754, rel=0.01)


def test_helium_scf_converges_fast_to_the_same_fixed_point(he_orbitals):
    # linear damping needs 17 iterations to this energy. V, D and X_mm come
    # from the q rule: the X_01 spline alone leaves 2.3e-10 Ha of the limit
    # of finer kernel grids (-21.1426178441905 Ha at 3200 points)
    assert len(he_orbitals.scf_energies) <= 10
    assert he_orbitals.e_total == pytest.approx(-21.14261784396318, rel=1e-10)


def test_excited_carbon_filling_converges_fast():
    # one electron at nu_z = 1: linear damping needs 35 iterations
    cfg = parse_config_text(
        "z = 6\nn_electrons = 6\nb_tesla = 5.0e8\n"
        "occupations = 0:0 1:0 2:0 3:0 4:0 0:1\n"
    )
    kernels = build_kernel_table(
        cfg.field.beta, cfg.field.gamma, 6.0, range(5), kernel_grid_for(cfg)
    )
    orb = scf(cfg, kernels)
    assert len(orb.scf_energies) <= 16
    assert orb.e_total == pytest.approx(-272.45821235757, rel=1e-10)


def test_scf_logs_every_iteration_at_debug(hydrogen_cfg, hydrogen_kernels, caplog):
    with caplog.at_level(logging.DEBUG, logger="magqmc.hf"):
        orb = scf(hydrogen_cfg, hydrogen_kernels)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(lines) == len(orb.scf_energies)
    for it, line in enumerate(lines, 1):
        assert line.startswith(f"scf iter {it}: E=")
        for key in ("dE=", "orbital change=", "residual=", "subspace="):
            assert key in line


def test_energy_parts_signs(he_orbitals):
    parts = he_orbitals.energy_parts
    assert parts["kinetic"] > 0
    assert parts["nuclear"] < 0
    assert parts["direct"] > 0
    assert parts["direct"] - parts["exchange"] >= 0


def test_self_pairing_cancels_exactly(hydrogen_cfg, hydrogen_kernels):
    orb = scf(hydrogen_cfg, hydrogen_kernels)
    ws = MeanFieldWorkspace(orb.basis, hydrogen_kernels, orb.occupations)
    parts = ws.energy(orb.coeffs, *ws.mean_field(orb.coeffs))
    scale = abs(parts["direct"]) + 1e-30
    assert abs(parts["direct"] - parts["exchange"]) < 1e-12 * scale


def test_orbitals_orthonormal_and_even(he_orbitals):
    basis = he_orbitals.basis
    f_quad = he_orbitals.coeffs @ basis.bq.T
    gram = (f_quad * basis.wq) @ f_quad.T
    assert np.allclose(np.diag(gram), 1.0, atol=1e-9)
    # product orbitals of different m are orthogonal through their transverse
    # factor e^{im phi}, not through f(z): the full overlap is gram * delta_mm'
    ms = he_orbitals.ms
    product_overlap = gram * (ms[:, None] == ms[None, :])
    assert np.allclose(product_overlap, np.eye(len(ms)), atol=1e-9)
    z = np.linspace(-2.0, 2.0, 101)
    f, _, _ = he_orbitals.longitudinal(z)
    assert np.allclose(f, f[::-1], atol=1e-9)  # both nu_z = 0: even


def test_node_count_selection_for_excited_state(he_cfg, he_kernels):
    cfg = parse_config_text(
        "z = 2\nbeta = 212.7207\noccupations = 0:0 0:1\nseed = 1\n"
    )
    orb = scf(cfg, he_kernels)
    z = np.linspace(-2.0, 2.0, 401)
    f, _, _ = orb.longitudinal(z)
    assert count_nodes(f[:, 0]) == 0
    assert count_nodes(f[:, 1]) == 1
    assert np.allclose(f[:, 1], -f[::-1, 1], atol=1e-9)  # odd parity
    # same-channel orthogonality through the transverse-free overlap
    w = orb.basis.wq
    fq = orb.coeffs @ orb.basis.bq.T
    assert abs(np.sum(w * fq[0] * fq[1])) < 1e-9


def test_scf_fixed_point(he_cfg, he_kernels, he_orbitals):
    # one more SCF iteration from the converged orbitals must not move E
    ws = MeanFieldWorkspace(he_orbitals.basis, he_kernels, he_orbitals.occupations)
    basis = he_orbitals.basis
    udir, kx = ws.mean_field(he_orbitals.coeffs)
    t_mat, s_mat = basis.kinetic(), basis.overlap()
    coeffs = np.zeros_like(he_orbitals.coeffs)
    for k, occ in enumerate(he_orbitals.occupations):
        h = (
            t_mat
            + basis.potential_matrix(ws.v_quad[occ.m])
            + basis.potential_matrix(udir[occ.m])
            - kx[occ.m]
        )
        _, v = solve_channel(basis, h, s_mat, 1)
        coeffs[k] = v[:, 0]
    parts = ws.energy(coeffs, *ws.mean_field(coeffs))
    assert abs(parts["longitudinal"] - he_orbitals.e_total) < 1e-9


@pytest.fixture(scope="module")
def repeated_channel(he_cfg, he_kernels):
    """Orbitals 0:0, 0:1 and 1:0 (two in one channel) and their workspace.

    The orbitals are bare-channel eigenvectors: any smooth set exercises the
    mean-field algebra, which is bilinear in them."""
    occs = (Occupation(0, 0), Occupation(0, 1), Occupation(1, 0))
    basis = basis_for_config(he_cfg)
    t_mat, s_mat = basis.kinetic(), basis.overlap()
    vecs = {}
    for m, n in ((0, 2), (1, 1)):
        h = t_mat + basis.potential_matrix(he_kernels.nuclear(m, basis.zq))
        vecs[m] = solve_channel(basis, h, s_mat, n)[1]
    coeffs = np.array([vecs[0][:, 0], vecs[0][:, 1], vecs[1][:, 0]])
    return MeanFieldWorkspace(basis, he_kernels, occs), coeffs


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_mean_field_against_grid_reference(repeated_channel, he_kernels):
    ws, coeffs = repeated_channel
    basis = ws.basis
    zq, wq = basis.zq, basis.wq
    dz = np.abs(zq[:, None] - zq[None, :])
    f = coeffs @ basis.bq.T
    wb = basis.bq * wq[:, None]
    udir, kx = ws.mean_field(coeffs)
    assert sorted(udir) == sorted(kx) == [0, 1]
    for m in (0, 1):
        u_ref = sum(he_kernels.direct(m, o.m, dz) @ (wq * f[k] ** 2)
                    for k, o in enumerate(ws.occupations))
        g = sum(f[k][:, None] * he_kernels.exchange(m, o.m, dz) * f[k][None, :]
                for k, o in enumerate(ws.occupations))
        assert _rel(udir[m], u_ref) < 1e-12
        assert _rel(kx[m], wb.T @ g @ wb) < 1e-12

    # energy parts against the double sums over orbital pairs
    e_dir = e_exc = 0.0
    for a, oa in enumerate(ws.occupations):
        for b, ob in enumerate(ws.occupations):
            da, db = wq * f[a] ** 2, wq * f[b] ** 2
            e_dir += 0.5 * da @ he_kernels.direct(oa.m, ob.m, dz) @ db
            ov = wq * f[a] * f[b]
            e_exc += 0.5 * ov @ he_kernels.exchange(oa.m, ob.m, dz) @ ov
    parts = ws.energy(coeffs, udir, kx)
    assert parts["direct"] == pytest.approx(e_dir, rel=1e-12)
    assert parts["exchange"] == pytest.approx(e_exc, rel=1e-12)


def _ndarrays(val):
    """Every ndarray in val, looking into dicts, lists and tuples."""
    if isinstance(val, np.ndarray):
        yield val
    elif isinstance(val, (dict, list, tuple)):
        for v in val.values() if isinstance(val, dict) else val:
            yield from _ndarrays(v)


def test_workspace_keeps_only_pair_matrices_on_the_grid(repeated_channel):
    ws, _ = repeated_channel
    nq = len(ws.basis.zq)
    h = nq // 2
    assert sorted(ws.x_pairs) == [(0, 0), (0, 1), (1, 1)]
    assert not hasattr(ws, "d_pairs")  # the direct term has no pair kernel
    # every pair keeps one packed exchange (even, odd) array and its
    # diagonal correction on the half grid, and nothing nq x nq is resident
    for packed, delta in ws.x_pairs.values():
        assert packed.shape == (h, h) and packed.flags.f_contiguous
        assert delta.shape == (h,)
    square = [name for name, val in vars(ws).items()
              if any(a.shape == (nq, nq) for a in _ndarrays(val))]
    assert square == []


def test_workspace_pair_storage_is_half_the_parity_matrices(repeated_channel):
    ws, _ = repeated_channel
    h, n_pairs = ws.half, len(ws.x_pairs)
    # the one-body matrices and nuclear kernels do not grow with the pairs
    one_body = {"s_mat", "t_mat", "v_mats", "v_quad", "lower"}
    rest = sum(a.nbytes for k, v in vars(ws).items() if k not in one_body for a in _ndarrays(v))
    # one h x h exchange array per pair, where the even and odd parity
    # matrices took two, plus O(h); no direct array
    assert rest <= n_pairs * h * h * 8 + n_pairs * h * 8


def test_workspace_logs_its_resident_size(repeated_channel, he_kernels, caplog):
    ws, _ = repeated_channel
    with caplog.at_level(logging.INFO, logger="magqmc.hf"):
        MeanFieldWorkspace(ws.basis, he_kernels, ws.occupations)
    mib = 3 * (ws.half**2 + ws.half) * 8 / 2**20
    assert [r.getMessage() for r in caplog.records] == [
        f"mean-field workspace: 3 channel pairs on a {ws.half}-node half grid, "
        f"{mib:.1f} MiB of exchange kernels"]


def test_workspace_rejects_asymmetric_grid(he_kernels):
    bp = graded_breakpoints(6.0, 8, ratio=1.1)
    basis = SplineBasis(np.concatenate([bp[:8], 0.5 * bp[8:]]), order=6)
    with pytest.raises(BasisError, match="mirror-symmetric"):
        MeanFieldWorkspace(basis, he_kernels, (Occupation(0, 0),))


def test_variational_monotonicity_under_refinement(he_cfg, he_kernels):
    energies = []
    for el in (8, 14, 24):
        cfg = with_overrides(he_cfg, hf_elements=el)
        energies.append(scf(cfg, he_kernels, basis_for_config(cfg)).e_total)
    assert energies[1] <= energies[0] + 1e-10
    assert energies[2] <= energies[1] + 1e-10


def test_hf_total_energy_consistent(he_orbitals, he_kernels):
    again = hf_total_energy(he_orbitals, he_kernels)
    assert again.hartree == pytest.approx(he_orbitals.e_total, abs=1e-10)


def test_spin_term_convention_flag(he_cfg, he_kernels):
    cfg = with_overrides(he_cfg, spin_zeeman_included=False)
    orb = scf(cfg, he_kernels)
    base = scf(he_cfg, he_kernels)
    shift = 0.5 * he_cfg.field.gamma * 2
    assert orb.e_total == pytest.approx(base.e_total + shift, abs=1e-8)


def test_eval_longitudinal_contract(he_orbitals):
    # the window must hold the orbitals: the m=1 tail still carries ~1e-4
    # of the norm beyond |z| = 1.5
    z = np.linspace(-3.0, 3.0, 3001)
    f, f1, f2 = he_orbitals.longitudinal(z)
    norm = np.trapezoid(f**2, z, axis=0)
    assert np.allclose(norm, 1.0, atol=1e-6)
    # derivative consistency at random interior points
    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, size=12)
    fp, f1p, f2p = he_orbitals.longitudinal(pts + 1e-6)
    fm, _, _ = he_orbitals.longitudinal(pts - 1e-6)
    fd = (fp - fm) / 2e-6
    assert np.allclose(fd, he_orbitals.longitudinal(pts)[1], rtol=1e-5, atol=1e-8)
    # outside the domain the orbitals vanish
    f_out, f1_out, _ = he_orbitals.longitudinal(np.array([1e3, -1e3]))
    assert np.all(f_out == 0.0) and np.all(f1_out == 0.0)
    # a scalar z gives one row of (f, f', f'')
    v, d1, d2 = he_orbitals.longitudinal(0.1)
    assert v.shape == d1.shape == d2.shape == (he_orbitals.coeffs.shape[0],)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))


def test_longitudinal_matches_scipy_bspline(he_orbitals):
    # the scipy evaluation the polynomial pieces replaced
    from scipy.interpolate import BSpline

    basis = he_orbitals.basis
    c = he_orbitals.coeffs.T
    pad = np.zeros((1, c.shape[1]))
    ref = BSpline(basis.knots, np.concatenate([pad, c, pad]), basis.degree, extrapolate=False)
    lo, hi = basis.domain
    z = np.concatenate([np.linspace(lo, hi, 2001), basis.breakpoints, [lo - 1.0, hi + 1.0]])
    got = he_orbitals.longitudinal(z.reshape(-1, 2))
    for d, g in enumerate(got):
        want = np.nan_to_num(ref.derivative(d)(z) if d else ref(z))
        assert g.shape == (len(z) // 2, 2, c.shape[1])
        g = g.reshape(want.shape)
        assert np.all(np.abs(g - want) <= 1e-12 * np.abs(want).max(axis=0))
        assert np.all(g[-2:] == 0.0)


def test_orbital_file_round_trip(tmp_path, he_orbitals):
    path = tmp_path / "orb.npz"
    save_orbitals(path, he_orbitals, physics_hash="abc123", config_hash="run1")
    loaded = load_orbitals(path, expect_physics_hash="abc123")
    assert np.array_equal(loaded.coeffs, he_orbitals.coeffs)
    assert np.array_equal(loaded.eigenvalues, he_orbitals.eigenvalues)
    assert loaded.e_total == he_orbitals.e_total
    assert loaded.occupations == he_orbitals.occupations
    z = np.linspace(-0.5, 0.5, 11)
    assert np.allclose(loaded.longitudinal(z)[0], he_orbitals.longitudinal(z)[0])
    with pytest.raises(ValueError, match="hash"):
        load_orbitals(path, expect_physics_hash="different")


def test_interrupted_orbital_save_keeps_previous_file(tmp_path, he_orbitals, monkeypatch):
    path = tmp_path / "orb.npz"
    save_orbitals(path, he_orbitals)
    before = path.read_bytes()

    def dies_midway(fh, **arrays):
        fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", dies_midway)
    with pytest.raises(KeyboardInterrupt):
        save_orbitals(path, he_orbitals)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no stray .tmp


def test_scf_failure_carries_history(he_cfg, he_kernels):
    with pytest.raises(SCFError) as err:
        scf(he_cfg, he_kernels, max_iter=2)
    assert len(err.value.energy_history) >= 1
    assert "residual norm=" in str(err.value)

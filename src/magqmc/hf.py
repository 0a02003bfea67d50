"""Self-consistent longitudinal Hartree-Fock on the B-spline basis.

Every electron occupies a product orbital: a transverse lowest-level state
with label m times an unknown longitudinal function f(z). All electrons
share one spin projection, so each feels the direct interaction of every
other and the full same-spin exchange. The effective 1D Fock operator of
the m-channel is

    F_m = -1/2 d^2/dz^2 + V_m(z) + U_m(z) - K_m,

with the kernels taken from a KernelTable. V_m and U_m are vectors on the
quadrature grid, straight from the table's q rule; U_m has no pair matrix,
so the direct term costs the same for any filling. The exchange goes
straight into the Galerkin space: K_m = sum_k Y_k^T X_{m m_k} Y_k, with
Y_k = (w f_k)[:, None] * B and B the basis values at the quadrature nodes.
The grid is mirror-symmetric about z = 0, so K_m takes the even and odd
image kernels X(|z - z'|) +- X(z + z') on the positive half grid, one
packed (nq/2, nq/2) array per channel pair for BLAS symm, and the even and
odd parts of Y_k. Each iteration builds one mean field, and its energy comes
from it (E_dir = 1/2 sum_k rho_k . U, E_exc = 1/2 sum_k c_k^T K c_k).
Orbitals within a channel are picked by longitudinal node count, not by
eigenvalue index. The SCF extrapolates the Galerkin mean field U_m - K_m
by Pulay's DIIS (Chem. Phys. Lett. 73, 393, 1980), as :func:`scf` says.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bsplines import SplineBasis, graded_breakpoints
from .config import Occupation, RunConfig
from .errors import SolverError
from .iofiles import read_artifact, write_artifact
from .kernels import KernelTable, image_exchange
from .units import EnergyValue

logger = logging.getLogger(__name__)

ORBITAL_FORMAT = "magqmc-orbitals/2"

#: DIIS pairs kept, and the Gram condition number above which the oldest go
DIIS_DEPTH, DIIS_MAX_COND = 6, 1e12


class SCFError(SolverError):
    """SCF failed to converge; carries the energy history, also in the message."""

    def __init__(self, message, energy_history):
        self.energy_history = list(energy_history)
        lines = [f"  iter {i:3d}  {e:.10f}" for i, e in enumerate(self.energy_history)]
        super().__init__("\n".join([message, "energy history (hartree):", *lines]))


class BasisError(SolverError):
    """Singular overlap or other basis-construction defect."""


def basis_for_config(cfg: RunConfig) -> SplineBasis:
    # innermost elements must resolve the transverse smearing scale of the
    # potentials, 1/sqrt(gamma)
    bp = graded_breakpoints(
        cfg.hf_domain, cfg.hf_elements, first_element=0.25 / cfg.field.gamma**0.5
    )
    return SplineBasis(bp, order=cfg.hf_order)


def count_nodes(vals: np.ndarray, rel_tol: float = 1e-3, mass_window: float = 0.999) -> int:
    """Sign changes of a uniformly sampled bound-state function.

    Counting is restricted to the window carrying ``mass_window`` of the
    probability and to samples above a relative floor: basis-truncation
    ringing in the exponentially small tails would otherwise register as
    spurious nodes, while genuine lobes always carry O(1) mass. Crossings
    survive the floor because the sign still flips across a node.
    """
    c = np.cumsum(vals * vals)
    c /= c[-1]
    lo = int(np.searchsorted(c, 0.5 * (1.0 - mass_window)))
    hi = int(np.searchsorted(c, 1.0 - 0.5 * (1.0 - mass_window)))
    v = vals[lo : hi + 1]
    v = v[np.abs(v) > rel_tol * np.max(np.abs(v))]
    return int(np.sum(np.sign(v[1:]) != np.sign(v[:-1])))


def inverse_cholesky(s_matrix: np.ndarray) -> np.ndarray:
    """L^-1 for the Cholesky factor S = L L^T of an overlap matrix; raises
    :class:`BasisError` if S is not positive definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(s_matrix))
    except np.linalg.LinAlgError as exc:
        raise BasisError(f"overlap matrix is not positive definite: {exc}") from exc


def solve_channel(
    basis: SplineBasis,
    h_matrix: np.ndarray,
    s_matrix: np.ndarray,
    n_states: int,
    residual_tol: float = 1e-10,
    s_factor: np.ndarray | None = None,
):
    """Lowest generalized eigenpairs of (h, s); coefficient columns are
    s-orthonormal. Verifies the Galerkin residual of each returned pair.

    The pairs come from the standard problem L^-1 h L^-T u = lambda u, v =
    L^-T u, with ``s_factor`` = L^-1 of :func:`inverse_cholesky`, taken if
    not given. The eigenvalues returned are the Rayleigh quotients v'hv /
    v'sv of the returned vectors, not the raw ``eigh`` values: on a graded
    mesh the overlap is ill-conditioned and the raw values sit ~1e-12 away
    from the quotient, whose error is second order in the eigenvector's error.
    """
    if s_factor is None:
        s_factor = inverse_cholesky(s_matrix)
    try:
        _, u = np.linalg.eigh(s_factor @ h_matrix @ s_factor.T)
    except np.linalg.LinAlgError as exc:
        raise BasisError(f"generalized eigensolve failed: {exc}") from exc
    v = s_factor.T @ u[:, :n_states]
    hv = h_matrix @ v
    sv = s_matrix @ v
    w = np.sum(v * hv, axis=0) / np.sum(v * sv, axis=0)
    scale = np.linalg.norm(h_matrix)
    for k in range(n_states):
        r = np.linalg.norm(hv[:, k] - w[k] * sv[:, k])
        if r / (scale * np.linalg.norm(v[:, k])) > residual_tol:
            raise BasisError(
                f"eigenpair residual {r:.2e} exceeds {residual_tol:g} * |H|;"
                " overlap matrix may be near-singular"
            )
    return w, v


@dataclass
class OrbitalSet:
    """Converged guiding orbitals plus the total-energy bookkeeping.

    The orbitals are stored as B-spline coefficients. On first evaluation
    they are converted once into per-interval polynomial pieces, from which
    :meth:`longitudinal` takes f, f' and f'' with one interval search.
    """

    basis: SplineBasis
    beta: float
    gamma: float
    z_charge: float
    occupations: tuple[Occupation, ...]
    coeffs: np.ndarray  # (n_orb, n_funcs)
    eigenvalues: np.ndarray  # (n_orb,)
    spin_zeeman_included: bool
    e_total: float = 0.0
    energy_parts: dict = field(default_factory=dict)
    scf_energies: tuple = ()

    @property
    def ms(self) -> np.ndarray:
        return np.array([o.m for o in self.occupations], dtype=int)

    @property
    def z_domain(self) -> tuple[float, float]:
        """Longitudinal support of the orbitals: the basis domain."""
        return self.basis.domain

    @cached_property
    def _pieces(self):
        return self.basis.coefficient_spline(self.coeffs.T)

    def longitudinal(self, z):
        """(f, f', f'') for every orbital, shape z.shape + (n_orb,); 0 outside."""
        return self._pieces.derivatives(z)


class MeanFieldWorkspace:
    """Exchange matrices on the half quadrature grid and the Galerkin assembly of F_m.

    Holds the one-body matrices (S, T, V_m), the nuclear kernels on the
    grid, the map from channel densities to direct potentials, and per
    unordered pair of occupied channels the packed even and odd image
    exchange kernels of :meth:`KernelTable.pair_matrices`: the values of
    one nq x nq matrix in a quarter of the memory. The grid must be
    mirror-symmetric about z = 0 (every ``basis_for_config`` grid is, bit
    for bit); otherwise :class:`BasisError` is raised.
    """

    def __init__(self, basis: SplineBasis, kernels: KernelTable, occupations):
        self.basis = basis
        self.occupations = tuple(occupations)
        self.channels: dict[int, list[int]] = {}
        for k, occ in enumerate(self.occupations):
            self.channels.setdefault(occ.m, []).append(k)
        self.ms = sorted(self.channels)
        zq = basis.zq
        self.half = h = len(zq) // 2
        # only the nodes need the mirror: the fold reads both halves of Y as they are
        if len(zq) % 2 or not np.array_equal(zq[:h][::-1], -zq[h:]):
            raise BasisError("quadrature grid is not mirror-symmetric about z = 0")
        self.s_mat = basis.overlap()
        self.t_mat = basis.kinetic()
        self.v_quad = {m: kernels.nuclear(m, zq) for m in self.ms}
        self.v_mats = {m: basis.potential_matrix(self.v_quad[m]) for m in self.ms}
        self.lower = np.tril_indices(basis.n_funcs)
        self.direct_potentials = kernels.direct_potentials(zq)
        self.x_pairs = kernels.pair_matrices(zq[h:], self.ms)
        resident = sum(a.nbytes for mats in self.x_pairs.values() for a in mats)
        logger.info("mean-field workspace: %d channel pairs on a %d-node half grid, "
                    "%.1f MiB of exchange kernels", len(self.x_pairs), h, resident / 2**20)

    def _fold(self, v: np.ndarray):
        """(v(z) + v(-z), v(z) - v(-z)) on the positive half grid, along axis 0."""
        pos, neg = v[self.half:], v[self.half - 1::-1]
        return pos + neg, pos - neg

    def mean_field(self, coeffs: np.ndarray):
        """Direct potentials on the quadrature grid and Galerkin exchange matrices.

        ``coeffs[k]`` holds the basis coefficients of orbital k. Returns
        ({m: U_m}, {m: K_m}) with U_m(z) = sum_k int D_{m m_k}(z - z') f_k(z')^2
        and K_m = sum_k Y_k^T X_{m m_k} Y_k, Y_k = (w f_k)[:, None] * bq,
        self terms included: D_mm and X_mm both come from the q rule, so
        their direct and exchange energies cancel to rounding.

        The Y_k are folded into their even (s) and odd (d) parts on the half
        grid, where Y^T X Y = 1/2 (Y_s^T Xe Y_s + Y_d^T Xo Y_d). Per parity
        and channel of a pair, :func:`~magqmc.kernels.image_exchange` takes
        the sum over the stacked Y_k of the other channel from the stored
        triangle of the exchange array, as S + S^T.
        """
        basis = self.basis
        nb = basis.n_funcs
        f_quad = coeffs @ basis.bq.T
        rho = {m: sum(basis.wq * f_quad[k] ** 2 for k in ks) for m, ks in self.channels.items()}
        y = {m: self._fold(np.hstack([(basis.wq * f_quad[k])[:, None] * basis.bq for k in ks]))
             for m, ks in self.channels.items()}
        kx = {m: np.zeros((nb, nb)) for m in self.ms}  # 2 K_m
        for (a, b), (packed, delta) in self.x_pairs.items():
            # the field of channel m from the orbitals of channel k
            sides = ((a, b),) if a == b else ((a, b), (b, a))
            for p in (0, 1):
                for m, k in sides:
                    kx[m] += image_exchange(p, packed, delta, y[k][p], nb)
        return self.direct_potentials(rho), {m: 0.5 * k for m, k in kx.items()}

    def pack(self, udir, kx) -> np.ndarray:
        """The Galerkin mean field U_m - K_m, one row per channel in ``ms``:
        its lower triangle, which is all ``eigh`` reads of a Fock matrix."""
        return np.array([(self.basis.potential_matrix(udir[m]) - kx[m])[self.lower]
                         for m in self.ms])

    def fock(self, m: int, field: np.ndarray) -> np.ndarray:
        """Galerkin Fock matrix T + V_m + U_m - K_m from a field in :meth:`pack` form."""
        g = np.zeros_like(self.t_mat)
        g[self.lower] = field[self.ms.index(m)]
        return self.t_mat + self.v_mats[m] + g + np.tril(g, -1).T

    def energy(self, coeffs: np.ndarray, udir, kx):
        """Total-energy pieces (no transverse/spin part) from the mean field
        of the same orbitals: E_dir = 1/2 sum_k rho_k . U_{m_k} and
        E_exc = 1/2 sum_k c_k^T K_{m_k} c_k."""
        wq = self.basis.wq
        f_quad = coeffs @ self.basis.bq.T
        e_kin = float(np.sum(np.einsum("ki,ij,kj->k", coeffs, self.t_mat, coeffs)))
        e_nuc = e_dir = e_exc = 0.0
        for k, occ in enumerate(self.occupations):
            e_nuc += wq @ (self.v_quad[occ.m] * f_quad[k] ** 2)
            e_dir += 0.5 * (wq * f_quad[k] ** 2) @ udir[occ.m]
            e_exc += 0.5 * coeffs[k] @ kx[occ.m] @ coeffs[k]
        e_nuc, e_dir, e_exc = float(e_nuc), float(e_dir), float(e_exc)
        return {"kinetic": e_kin, "nuclear": e_nuc, "direct": e_dir, "exchange": e_exc,
                "longitudinal": e_kin + e_nuc + e_dir - e_exc}


def scf(
    cfg: RunConfig,
    kernels: KernelTable,
    basis: SplineBasis | None = None,
    e_tol: float = 1e-9,
    orb_tol: float = 1e-7,
    max_iter: int = 200,
) -> OrbitalSet:
    """Iterate the longitudinal Fock equations to self-consistency.

    Each iteration solves every channel in the input field x (at first
    x = 0: the bare channels), builds the mean field of the new orbitals,
    takes the energy from it and tests whether energy and orbitals settled.
    x and its residual r = (field out) - x are packed Galerkin U_m - K_m
    (:meth:`MeanFieldWorkspace.pack`). The next x is Pulay's DIIS over the
    last ``DIIS_DEPTH`` pairs, sum_i c_i (x_i + r_i) with sum_i c_i = 1
    minimising |sum_i c_i r_i|; while the Gram matrix r_i . r_j has a
    condition number above ``DIIS_MAX_COND`` the oldest pairs are dropped.
    """
    if basis is None:
        basis = basis_for_config(cfg)
    ws = MeanFieldWorkspace(basis, kernels, cfg.occupations)
    n_orb = len(cfg.occupations)
    # node counting samples the eigenvectors on a uniform interior grid
    fine_design = basis.design_matrix(np.linspace(*basis.domain, 2001)[1:-1])
    s_factor = inverse_cholesky(ws.s_mat)  # S is fixed: factored once

    def solve_all(field):
        new_c = np.zeros((n_orb, basis.n_funcs))
        new_e = np.zeros(n_orb)
        for m in ws.ms:
            h = ws.fock(m, field)
            want = {cfg.occupations[k].nu_z: k for k in ws.channels[m]}
            n_solve = min(max(want) + 8, basis.n_funcs)
            w, v = solve_channel(basis, h, ws.s_mat, n_solve, s_factor=s_factor)
            fine = fine_design @ v
            found = {}  # node count -> its lowest column
            for col in range(n_solve):
                found.setdefault(count_nodes(fine[:, col]), col)
            missing = sorted(set(want) - set(found))
            if missing:
                raise SCFError(
                    f"channel m={m}: no eigenvector with node count(s) {missing} "
                    f"among the lowest {n_solve}", energies)
            for nu_z, k in want.items():
                col = found[nu_z]
                peak = np.argmax(np.abs(fine[:, col]))
                new_c[k] = np.sign(fine[peak, col]) * v[:, col]
                new_e[k] = w[col]
        return new_c, new_e

    energies: list[float] = []
    x = np.zeros((len(ws.ms), len(ws.lower[0])))
    xs, rs = [], []  # DIIS history, oldest first: fields in and their residuals
    gram = np.zeros((0, 0))  # rs[i] . rs[j]
    f_quad = None
    for it in range(max_iter):
        coeffs, eigvals = solve_all(x)
        udir, kx = ws.mean_field(coeffs)
        parts = ws.energy(coeffs, udir, kx)
        energies.append(parts["longitudinal"])

        f_quad_new = coeffs @ basis.bq.T
        orb_change = np.inf
        if f_quad is not None:
            align = np.sign(np.sum(basis.wq * f_quad * f_quad_new, axis=1))
            diff = f_quad_new - align[:, None] * f_quad
            orb_change = float(np.max(np.sqrt(np.sum(basis.wq * diff**2, axis=1))))
        f_quad = f_quad_new

        r = ws.pack(udir, kx) - x
        xs.append(x)
        rs.append(r)
        gram = np.pad(gram, ((0, 1), (0, 1)))
        gram[-1] = gram[:, -1] = [np.vdot(q, r) for q in rs]
        lam = np.linalg.eigvalsh(gram)  # not np.linalg.cond: its SVD pages in more LAPACK
        while len(rs) > DIIS_DEPTH or len(rs) > 1 and lam[0] * DIIS_MAX_COND < lam[-1]:
            del xs[0], rs[0]
            gram = gram[1:, 1:]
            lam = np.linalg.eigvalsh(gram)
        n = len(rs)
        bordered = np.block([[gram, np.ones((n, 1))], [np.ones((1, n)), np.zeros((1, 1))]])
        c = np.linalg.solve(bordered, np.eye(n + 1)[n])[:n]
        x = sum(ci * (xi + ri) for ci, xi, ri in zip(c, xs, rs))

        d_now = energies[-1] - energies[-2] if it else np.nan
        res_norm = float(np.sqrt(gram[-1, -1]))
        logger.debug("scf iter %d: E=%.12f dE=%.3e orbital change=%.3e residual=%.3e "
                     "subspace=%d", it + 1, energies[-1], d_now, orb_change, res_norm, n)
        if it >= 2 and abs(d_now) < e_tol and orb_change < orb_tol:
            logger.info("scf converged in %d iterations, E=%.10f", it + 1, energies[-1])
            break
    else:
        raise SCFError(f"no SCF convergence after {max_iter} iterations (last dE={d_now:.3e}, "
                       f"residual norm={res_norm:.3e})", energies)

    parts["transverse_spin"] = 0.0 if cfg.spin_zeeman_included else 0.5 * kernels.gamma * n_orb
    e_total = parts["longitudinal"] + parts["transverse_spin"]
    return OrbitalSet(
        basis=basis,
        beta=cfg.field.beta,
        gamma=kernels.gamma,
        z_charge=float(cfg.z),
        occupations=tuple(cfg.occupations),
        coeffs=coeffs,
        eigenvalues=eigvals,
        spin_zeeman_included=cfg.spin_zeeman_included,
        e_total=float(e_total),
        energy_parts=parts,
        scf_energies=tuple(energies),
    )


def hf_total_energy(orbitals: OrbitalSet, kernels: KernelTable) -> EnergyValue:
    """Recompute the total energy functional from the stored orbitals."""
    ws = MeanFieldWorkspace(orbitals.basis, kernels, orbitals.occupations)
    parts = ws.energy(orbitals.coeffs, *ws.mean_field(orbitals.coeffs))
    n_orb = len(orbitals.occupations)
    extra = 0.0 if orbitals.spin_zeeman_included else 0.5 * orbitals.gamma * n_orb
    return EnergyValue(parts["longitudinal"] + extra)


# ---------------------------------------------------------------------------
# orbital file I/O


def save_orbitals(path, orbitals: OrbitalSet, physics_hash: str = "", config_hash: str = "") -> None:
    basis = orbitals.basis
    arrays = {
        "breakpoints": basis.breakpoints,
        "coeffs": orbitals.coeffs,
        "eigenvalues": orbitals.eigenvalues,
        "scf_energies": np.asarray(orbitals.scf_energies),
    }
    meta = {
        "beta": orbitals.beta,
        "gamma": orbitals.gamma,
        "z_charge": orbitals.z_charge,
        "occupations": [list(o) for o in orbitals.occupations],
        "spin_zeeman_included": orbitals.spin_zeeman_included,
        "order": basis.order,
        "quad_points": basis.quad_points,
        "center_multiplicity": basis.center_multiplicity,
        "e_total": orbitals.e_total,
        "energy_parts": orbitals.energy_parts,
        "physics_hash": physics_hash,
        "config_hash": config_hash,
    }
    write_artifact(path, ORBITAL_FORMAT, meta, arrays)


def load_orbitals(path, expect_physics_hash: str | None = None) -> OrbitalSet:
    meta, arrays = read_artifact(path, ORBITAL_FORMAT, {"physics_hash": expect_physics_hash})
    basis = SplineBasis(
        arrays["breakpoints"],
        order=meta["order"],
        quad_points=meta["quad_points"],
        center_multiplicity=meta["center_multiplicity"],
    )
    return OrbitalSet(
        basis=basis,
        beta=meta["beta"],
        gamma=meta["gamma"],
        z_charge=meta["z_charge"],
        occupations=tuple(Occupation(*o) for o in meta["occupations"]),
        coeffs=arrays["coeffs"],
        eigenvalues=arrays["eigenvalues"],
        spin_zeeman_included=meta["spin_zeeman_included"],
        e_total=meta["e_total"],
        energy_parts=meta["energy_parts"],
        scf_energies=tuple(arrays["scf_energies"]),
    )

"""Full guiding function: determinant times correlation factor.

Combines the Slater and Jastrow pieces into the quantities every sampler
needs at a configuration R: log|Psi_G|, the phase, the drift
grad log|Psi_G|, the phase gradient, and the complex local energy

    E_L = -1/2 sum_i (del_i^2 Psi_G)/Psi_G  - (gamma/2) M_tot
          + (gamma^2/8) sum_i rho_i^2 + V_ext(R) [- N gamma/2 if spin term],

where M_tot = sum_nu m_nu is exact because every determinant column is an
angular-momentum eigenstate and the correlation factor is invariant under
global rotations about the field axis. V_ext defaults to the nuclear
attraction plus electron-electron repulsion; tests swap in other
potentials through the Hamiltonian.

One evaluation is one pass over two pieces:

- the determinant (slater module): one transverse power table, one
  slogdet and one inverse, then three trace contractions for the
  gradient and Laplacian rows;
- one distance pass (geometry module): the electron-nucleus distances and
  the pair distances i < j, computed once and shared by the potential, the
  coincidence mask and the Jastrow factor, whose pair gradient is a matrix
  product instead of a (W, N, N, 3) difference tensor. At N = 1 there is
  no pair work.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .geometry import Distances, distances
from .jastrow import JastrowParams, jastrow_u
from .slater import GuidingOrbitals, slater_eval, take_fields

#: proposals placing an electron closer than this to the nucleus or to
#: another electron are rejected outright (measure-zero set; avoids NaNs).
COINCIDENCE_CUTOFF = 1e-12


@dataclass(frozen=True)
class Hamiltonian:
    """N-electron Hamiltonian in the symmetric gauge, atomic units."""

    gamma: float
    nuclear_charge: float
    include_pair: bool = True
    spin_zeeman_included: bool = True
    external_potential: Callable[[np.ndarray], np.ndarray] | None = None

    def potential(self, r_elec: np.ndarray, dist: Distances | None = None) -> np.ndarray:
        """Scalar potential (without the magnetic one-body terms), batched.

        ``dist`` holds the distances of ``r_elec`` (computed here when not
        given).
        """
        r = np.asarray(r_elec, dtype=float)
        if dist is None:
            dist = distances(r)
        v = np.zeros(r.shape[:-2])
        if self.nuclear_charge != 0.0:
            v = v - self.nuclear_charge * np.sum(
                1.0 / np.maximum(dist.ri, COINCIDENCE_CUTOFF), axis=-1
            )
        if self.include_pair and r.shape[-2] > 1:
            v = v + np.sum(1.0 / np.maximum(dist.rij, COINCIDENCE_CUTOFF), axis=-1)
        if self.external_potential is not None:
            v = v + self.external_potential(r)
        return v


@dataclass
class GuidingEval:
    """Everything the samplers consume, batched over configurations."""

    log_abs: np.ndarray    # (W,) log |Psi_G|
    phase: np.ndarray      # (W,) determinant phase in (-pi, pi]
    drift: np.ndarray      # (W, N, 3) grad log |Psi_G|
    phase_grad: np.ndarray # (W, N, 3) grad of the phase
    e_loc: np.ndarray      # (W,) complex local energy
    ok: np.ndarray         # (W,) False on nodes / coincidences

    def take(self, idx) -> "GuidingEval":
        """The configurations ``idx``: an index array, or 0 for a lone one."""
        return take_fields(self, idx)

    def where(self, mask: np.ndarray, other: "GuidingEval") -> "GuidingEval":
        """This evaluation where ``mask`` (W,) holds, ``other`` elsewhere."""
        def pick(a, b):
            return np.where(mask.reshape(mask.shape + (1,) * (a.ndim - 1)), a, b)

        return GuidingEval(*(pick(getattr(self, f.name), getattr(other, f.name))
                             for f in fields(self)))


class GuidingFunction:
    """Slater x Jastrow guiding function bound to a Hamiltonian."""

    def __init__(
        self,
        orbitals: GuidingOrbitals,
        hamiltonian: Hamiltonian,
        jastrow: JastrowParams | None = None,
    ):
        if abs(orbitals.gamma - hamiltonian.gamma) > 1e-12 * abs(hamiltonian.gamma):
            raise ValueError("orbital and Hamiltonian field parameters disagree")
        self.orbitals = orbitals
        self.hamiltonian = hamiltonian
        self.jastrow = jastrow
        self.m_total = int(np.sum(orbitals.ms))
        self.n_electrons = len(np.asarray(orbitals.ms))

    def evaluate(self, r_elec: np.ndarray) -> GuidingEval:
        r = np.asarray(r_elec, dtype=float)
        squeeze = r.ndim == 2
        if squeeze:
            r = r[None]
        het = self.hamiltonian
        n = r.shape[-2]

        det = slater_eval(self.orbitals, r)
        dist = distances(r)
        ok = det.ok
        if het.nuclear_charge != 0.0:
            ok = ok & np.all(dist.ri > COINCIDENCE_CUTOFF, axis=-1)
        if het.include_pair and n > 1:
            ok = ok & np.all(dist.rij > COINCIDENCE_CUTOFF, axis=-1)

        if self.jastrow is not None:
            u, gu, lap_u = jastrow_u(self.jastrow, r, dist)
        else:
            u = np.zeros(r.shape[0])
            gu = np.zeros_like(r)
            lap_u = np.zeros(r.shape[0])

        # kinetic: del^2 Psi/Psi = lap_det - 2 grad U . grad log det + |grad U|^2 - lap U
        cross = np.einsum("wik,wik->w", gu, det.grad)
        gu2 = np.einsum("wik,wik->w", gu, gu)
        lap_psi = np.sum(det.lap, axis=-1) - 2.0 * cross + gu2 - lap_u
        kinetic = -0.5 * lap_psi

        rho2 = np.sum(r[..., :2] ** 2, axis=(-2, -1))
        e_loc = (
            kinetic
            - 0.5 * het.gamma * self.m_total
            + het.gamma**2 / 8.0 * rho2
            + het.potential(r, dist)
        )
        if het.spin_zeeman_included:
            e_loc = e_loc - 0.5 * het.gamma * n

        out = GuidingEval(
            log_abs=det.log_abs - u,
            phase=det.phase,
            drift=np.real(det.grad) - gu,
            phase_grad=np.imag(det.grad),
            e_loc=np.where(ok, e_loc, np.nan + 0j),
            ok=ok,
        )
        return out.take(0) if squeeze else out

"""Pair/nuclear correlation factor exp(-U) multiplying the determinant.

U mixes a saturating nuclear term and a pair term,

    U = -1/4 sum_{i<j} r_ij/(1 + s r_ij) + Z sum_i r_i/(1 + s r_i),

with s = sqrt(beta). The coefficients fix both cusps of log|Psi_G|
(-Z toward the nucleus, +1/4 for same-spin pairs) independently of s;
s sets the range, of the order of the transverse extent of the orbitals,
beyond which U saturates and the determinant is left untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Distances, distances, pair_indices

_TINY = 1e-30


@dataclass(frozen=True)
class JastrowParams:
    beta: float
    z_charge: float
    n_electrons: int

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")

    @property
    def s(self) -> float:
        return self.beta**0.5

    @property
    def nuclear_saturation(self) -> float:
        """Limit of the one-electron term as r -> infinity: Z / sqrt(beta)."""
        return self.z_charge / self.s


def jastrow_u(params: JastrowParams, r_elec: np.ndarray, dist: Distances | None = None):
    """U, its per-electron gradient and its total Laplacian.

    ``r_elec`` has shape (..., N, 3) and ``dist`` holds its distances
    (computed here when not given). Returns ``(u, grad, lap)`` with shapes
    (...,), (..., N, 3), (...,). The pair gradient is
    sum_j C_ij (r_i - r_j) = r_i sum_j C_ij - (C r)_i with the symmetric
    C_ij = u'(r_ij)/r_ij, so no pair difference vectors are formed.
    Coincident points give finite U; the gradient/Laplacian there are left
    to the caller's move rejection (they carry the 1/r cusp terms by
    construction).
    """
    r = np.asarray(r_elec, dtype=float)
    if dist is None:
        dist = distances(r)
    n = r.shape[-2]
    s = params.s
    zc = params.z_charge

    ri = dist.ri
    ri_safe = np.maximum(ri, _TINY)
    den = 1.0 + s * ri
    u = zc * np.sum(ri / den, axis=-1)
    # d/dr [Z r/(1+s r)] = Z/(1+s r)^2 ; lap = v'' + 2 v'/r
    vp = zc / den**2
    grad = (vp / ri_safe)[..., None] * r
    lap = np.sum(-2.0 * zc * s / den**3 + 2.0 * vp / ri_safe, axis=-1)

    if n > 1:
        rp = dist.rij
        denp = 1.0 + s * rp
        u = u - 0.25 * np.sum(rp / denp, axis=-1)
        # pair term u'(r) = -1/4 (1+s r)^-2, u''(r) = 1/2 s (1+s r)^-3
        cp = -0.25 / denp**2 / np.maximum(rp, _TINY)
        iu, ju = pair_indices(n)
        c = np.zeros(r.shape[:-1] + (n,))
        c[..., iu, ju] = cp
        c[..., ju, iu] = cp
        grad += np.sum(c, axis=-1)[..., None] * r - c @ r
        # each pair enters the Laplacian of both electrons
        lap = lap + np.sum(s / denp**3 + 4.0 * cp, axis=-1)

    return u, grad, lap

"""Lowest-level transverse orbitals in a strong magnetic field.

The state with magnetic quantum number label m (true angular momentum -m)
is ``Phi_m(rho, phi) = c_m rho^m exp(-i m phi) exp(-gamma rho^2 / 4)`` with
``c_m = sqrt(gamma^(m+1) / (2^(m+1) pi m!))``; gamma is the field in atomic
units (see units.FieldStrength.gamma). All states of the lowest level carry
transverse energy gamma/2 regardless of m.

Also provides the transverse form factors that reduce 3D Coulomb integrals
over these orbitals to 1D integrals (kernels module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def norm_const(m: int, gamma: float) -> float:
    """Normalization sqrt(gamma^(m+1) / (2^(m+1) pi m!)), for m <= 170.

    Taken straight from the closed form, to a few 1e-16 relative; the log
    form lost up to 2e-14 at m <= 25 to the rounding of its exponent.
    """
    return math.sqrt((0.5 * gamma) ** (m + 1) / (math.pi * math.factorial(m)))


def laguerre(n: int, nu: int, t) -> np.ndarray:
    """Generalized Laguerre polynomial L_n^(nu)(t), vectorized over t, by the
    three-term recurrence (k + 1) L_(k+1) = (2k + 1 + nu - t) L_k - (k + nu) L_(k-1)."""
    t = np.asarray(t, dtype=float)
    prev, cur = np.ones_like(t), 1.0 + nu - t
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + nu - t) * cur - (k + nu) * prev) / (k + 1)
    return cur


@dataclass(frozen=True)
class LandauOrbital:
    m: int
    gamma: float

    def __post_init__(self):
        if self.m < 0 or self.gamma <= 0:
            raise ValueError(f"need m >= 0 and gamma > 0, got m={self.m}, gamma={self.gamma}")

    @property
    def mean_rho2(self) -> float:
        return 2.0 * (self.m + 1) / self.gamma


def eval_transverse(orbital: LandauOrbital, rho, phi):
    """Complex amplitude Phi_m(rho, phi); vectorized over rho/phi arrays."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be non-negative")
    m, g = orbital.m, orbital.gamma
    amp = norm_const(m, g) * rho**m * np.exp(-g * rho**2 / 4.0)
    return amp * np.exp(-1j * m * np.asarray(phi, dtype=float))


def transverse_value_grad_lap(ms, gamma: float, x, y):
    """Batched transverse factors for the Slater matrix, derivatives in closed form.

    For each orbital label in ``ms`` evaluated at Cartesian (x, y), with
    ``w = x - i y`` (so ``rho^m e^{-i m phi} = w^m``, no rho=0 singularity)
    and ``g = exp(-gamma rho^2 / 4)``, returns ``(P, D)``:

        P = c_m w^m g,      D = c_m m w^(m-1) g   (zero for m = 0),

    shapes ``x.shape + (len(ms),)``. The gradient and Laplacian follow:

        dP/dx = D - (gamma x / 2) P,     dP/dy = -i D - (gamma y / 2) P,
        lap P = (gamma^2 rho^2 / 4 - (m + 1) gamma) P.

    Both come from one table T_k = c_k w^k g, k = 0 .. max(m), built by a
    cumulative product of w c_k / c_(k-1) = w sqrt(gamma / 2k), so no complex
    power is taken and c_k (~ gamma^(k/2)) never meets w^k unscaled; then
    P = T_m and D = sqrt(m gamma / 2) T_(m-1).
    """
    ms = np.asarray(ms, dtype=int)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    top = int(ms.max(initial=0))
    table = np.empty(x.shape + (top + 1,), dtype=complex)
    table[..., 0] = norm_const(0, gamma) * np.exp(-gamma * (x * x + y * y) / 4.0)
    if top:
        table[..., 1:] = (x - 1j * y)[..., None] * np.sqrt(gamma / (2.0 * np.arange(1, top + 1)))
        np.cumprod(table, axis=-1, out=table)
    d = np.sqrt(0.5 * gamma * ms) * np.take(table, np.maximum(ms - 1, 0), axis=-1)
    return np.take(table, ms, axis=-1), d


def form_factor(m: int, q, gamma: float):
    """Transverse density form factor S_m(q) = L_m(t) exp(-t), t = q^2/(2 gamma).

    This is the 2D Fourier transform of |Phi_m|^2; it reduces the Coulomb
    interaction with one smeared transverse density to a 1D q-integral.
    """
    t = np.asarray(q, dtype=float) ** 2 / (2.0 * gamma)
    return laguerre(m, 0, t) * np.exp(-t)


def mixed_form_factor(m1: int, m2: int, q, gamma: float):
    """Hankel transform (order |m1-m2|) of the mixed radial density Phi_m1 Phi_m2.

    Closed form: with nu = |m1-m2|, n = min(m1, m2), t = q^2/(2 gamma),
       T(q) = A q^nu exp(-t) L_n^(nu)(t),
    normalized so T(0) = delta_{m1 m2}. Squared under the q-integral it
    yields the exchange interaction of the transverse pair.
    """
    q = np.asarray(q, dtype=float)
    if m1 < m2:
        m1, m2 = m2, m1
    nu, n = m1 - m2, m2
    t = q * q / (2.0 * gamma)
    log_a = (
        0.5 * (math.lgamma(n + 1) - math.lgamma(m1 + 1))
        - nu * 0.5 * (math.log(2.0) + math.log(gamma))
    )
    pref = np.exp(log_a + nu * np.log(np.where(q > 0, q, 1.0)))
    pref = np.where((q == 0) & (nu > 0), 0.0, pref)
    if nu == 0:
        pref = np.exp(log_a) * np.ones_like(q)
    return pref * np.exp(-t) * laguerre(n, nu, t)

"""Independent brute-force oracles used by the test suite.

Deliberately primitive numerics that share no code with the production
modules: a dense finite-difference 1D eigensolver with Richardson
extrapolation, a 4D Monte Carlo estimate of the direct transverse
interaction, the closed-form m=0 nuclear kernel, the nuclear kernel of
every m at z=0, and an exactly solvable separable one-electron Hamiltonian
with its analytic guiding function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import erfcx


class GridResolutionError(RuntimeError):
    """The uniform grid does not resolve the potential."""


@dataclass
class GridEigenResult:
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # (n_grid, k), L2-normalized with the grid weight
    z: np.ndarray
    error_estimate: np.ndarray


def _fd_eigs(v_vals: np.ndarray, h: float, k: int):
    """Lowest k eigenpairs of the FD matrix and its roundoff floor 2 eps |T|_1.

    ``eigh_tridiagonal`` bisects to an interval of eps |T|_1, and the Sturm
    counts it bisects on carry rounding of the same size; |T|_1 ~ 2/h^2.
    """
    main = 1.0 / h**2 + v_vals
    off = np.full(len(v_vals) - 1, -0.5 / h**2)
    w, v = eigh_tridiagonal(main, off, select="i", select_range=(0, k - 1))
    floor = 2.0 * np.finfo(float).eps * (np.max(np.abs(main)) + 1.0 / h**2)
    return w, v / math.sqrt(h), floor


def _richardson(w_coarse, n_coarse: int, w_fine, n_fine: int):
    """Eliminate the h^2 term between solves on n_coarse and n_fine points."""
    r = ((n_fine - 1) / (n_coarse - 1)) ** 2
    return (r * w_fine - w_coarse) / (r - 1.0)


def grid_eigensolve(potential, z_max: float, n_points: int = 20001, k: int = 1) -> GridEigenResult:
    """Lowest eigenpairs of -1/2 d^2/dz^2 + V on [-z_max, z_max], vanishing ends.

    Second-order central differences at spacings h and h/2 (``n_points`` and
    ``2 n_points - 1`` points), Richardson extrapolated. The error estimate
    of the extrapolated eigenvalues has two parts:

    - truncation: the h^4 residual left by the extrapolation, |R(h, h/2) -
      R(2h, h)| / 15 with a third solve at spacing ~2h;
    - roundoff: the eigensolve's floor 2 eps |T|_1 on each grid, carried
      through the extrapolation weights. It grows like 1/h^2 while the
      truncation falls like h^4, so refining past their crossing (often a
      few 1e4 points) makes the result worse, not better.

    The walls are not part of the estimate: ``z_max`` must enclose the
    states, with the walls far out in their exponential tails. Refuses
    visibly under-resolved potentials.
    """
    if n_points < 1001:
        raise ValueError("use at least 1001 grid points")
    z1 = np.linspace(-z_max, z_max, n_points)[1:-1]
    v1 = np.asarray(potential(z1), dtype=float)
    dv = np.abs(np.diff(v1))
    depth = np.max(v1) - np.min(v1)
    if depth > 0 and np.max(dv) > 0.05 * depth:
        raise GridResolutionError(
            f"potential changes by {np.max(dv):.3g} between neighbouring grid "
            f"points (depth {depth:.3g}); refine the grid"
        )
    h1 = z1[1] - z1[0]
    w1, _, floor1 = _fd_eigs(v1, h1, k)

    n2 = 2 * n_points - 1
    z2 = np.linspace(-z_max, z_max, n2)[1:-1]
    v2 = np.asarray(potential(z2), dtype=float)
    h2 = z2[1] - z2[0]
    w2, vec2, floor2 = _fd_eigs(v2, h2, k)

    n0 = (n_points + 1) // 2
    z0 = np.linspace(-z_max, z_max, n0)[1:-1]
    w0, _, _ = _fd_eigs(np.asarray(potential(z0), dtype=float), z0[1] - z0[0], k)

    extrap = _richardson(w1, n_points, w2, n2)
    coarse = _richardson(w0, n0, w1, n_points)
    roundoff = (4.0 * floor2 + floor1) / 3.0
    return GridEigenResult(
        eigenvalues=extrap,
        eigenvectors=vec2,
        z=z2,
        error_estimate=np.abs(extrap - coarse) / 15.0 + roundoff,
    )


def nuclear_kernel_m0_closed(gamma: float, z_charge: float, z):
    """Closed form of the m=0 smeared nuclear attraction.

    -Z sqrt(pi gamma / 2) exp(gamma z^2/2) erfc(sqrt(gamma/2) |z|),
    evaluated through the scaled complementary error function for
    stability at large |z|.
    """
    t = np.sqrt(gamma / 2.0) * np.abs(np.asarray(z, dtype=float))
    return -z_charge * math.sqrt(math.pi * gamma / 2.0) * erfcx(t)


def nuclear_kernel_origin(gamma: float, m: int, z_charge: float) -> float:
    """Closed form of the smeared nuclear attraction of channel m at z=0.

    -Z sqrt(gamma/2) Gamma(m + 1/2) / m!, from substituting t = q^2/(2 gamma)
    and int_0^inf t^(-1/2) L_m(t) exp(-t) dt = Gamma(m + 1/2) / m!.
    """
    ratio = math.exp(math.lgamma(m + 0.5) - math.lgamma(m + 1))
    return -z_charge * math.sqrt(gamma / 2.0) * ratio


def mc_integral_kernel(
    gamma: float, m1: int, m2: int, zeta: float, n_samples: int = 200_000, seed: int = 0
):
    """Monte Carlo estimate of the direct transverse interaction D_{m1 m2}(zeta).

    Samples the two transverse densities exactly (rho^2 of the level-m
    density is Gamma-distributed with shape m+1 and scale 2/gamma) and
    averages the 3D Coulomb interaction at longitudinal separation zeta.
    Returns (estimate, standard error).
    """
    if n_samples < 10_000:
        raise ValueError("use at least 1e4 samples")
    rng = np.random.default_rng(seed)

    def draw(m):
        rho = np.sqrt(rng.gamma(m + 1, 2.0 / gamma, size=n_samples))
        phi = rng.uniform(0.0, 2.0 * math.pi, size=n_samples)
        return rho * np.cos(phi), rho * np.sin(phi)

    x1, y1 = draw(m1)
    x2, y2 = draw(m2)
    d = np.sqrt((x1 - x2) ** 2 + (y1 - y2) ** 2 + zeta**2)
    vals = 1.0 / d
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_samples))


# ---------------------------------------------------------------------------
# exactly solvable separable test Hamiltonian


class HarmonicLongitudinal:
    """Analytic longitudinal orbitals: each a harmonic-oscillator ground state.

    Implements the orbital interface the determinant consumes, with m
    labels taken from ``ms`` and every longitudinal factor equal to the
    omega ground state (optionally with coefficients jittered to make the
    guiding inexact on purpose).
    """

    def __init__(self, ms, gamma: float, omega: float, amplitude_jitter: float = 0.0):
        self._ms = np.asarray(ms, dtype=int)
        self.gamma = float(gamma)
        self.omega = float(omega)
        self.jitter = float(amplitude_jitter)

    @property
    def ms(self) -> np.ndarray:
        return self._ms

    def longitudinal(self, z):
        z = np.asarray(z, dtype=float)[..., None]
        om = self.omega
        f = (om / math.pi) ** 0.25 * np.exp(-0.5 * om * z**2)
        if self.jitter:
            # an inexact trial: mix in a small even perturbation
            f = f * (1.0 + self.jitter * om * z**2)
        f = np.broadcast_to(f, z.shape[:-1] + (len(self._ms),)).copy()
        if self.jitter:
            zb = np.broadcast_to(z, f.shape)
            base = (om / math.pi) ** 0.25 * np.exp(-0.5 * om * zb**2)
            f1 = base * (-om * zb) * (1.0 + self.jitter * om * zb**2) + base * (
                2.0 * self.jitter * om * zb
            )
            f2 = base * (
                (om**2 * zb**2 - om) * (1.0 + self.jitter * om * zb**2)
                + 2.0 * (-om * zb) * (2.0 * self.jitter * om * zb)
                + 2.0 * self.jitter * om
            )
        else:
            zb = np.broadcast_to(z, f.shape)
            f1 = -om * zb * f
            f2 = (om**2 * zb**2 - om) * f
        return f, f1, f2


@dataclass
class SeparableTestCase:
    """Bundle for zero-variance engine tests: exact guiding + exact energy."""

    orbitals: HarmonicLongitudinal
    omega: float
    gamma: float
    spin_zeeman_included: bool

    @property
    def exact_energy(self) -> float:
        n = len(self.orbitals.ms)
        transverse = 0.0 if self.spin_zeeman_included else 0.5 * self.gamma * n
        return transverse + 0.5 * self.omega * n

    def hamiltonian(self):
        from .guiding import Hamiltonian

        om = self.omega
        return Hamiltonian(
            gamma=self.gamma,
            nuclear_charge=0.0,
            include_pair=False,
            spin_zeeman_included=self.spin_zeeman_included,
            external_potential=lambda r: 0.5 * om**2 * np.sum(r[..., 2] ** 2, axis=-1),
        )


def separable_test_hamiltonian(
    gamma: float,
    omega: float,
    n_electrons: int = 1,
    spin_zeeman_included: bool = True,
    amplitude_jitter: float = 0.0,
) -> SeparableTestCase:
    """One-or-more non-interacting electrons: transverse level x longitudinal HO."""
    if gamma <= 0 or omega <= 0:
        raise ValueError("frequencies must be positive")
    orbitals = HarmonicLongitudinal(
        ms=list(range(n_electrons)), gamma=gamma, omega=omega, amplitude_jitter=amplitude_jitter
    )
    return SeparableTestCase(orbitals, omega, gamma, spin_zeeman_included)

"""Clamped B-spline basis on a symmetric, geometrically graded 1D mesh.

The longitudinal wave functions live on [-L, L] with homogeneous Dirichlet
ends, elements graded toward z=0 where the smeared potentials have their
|z| kink. A triple knot at z=0 lowers the basis continuity there to C^2,
matching the solution's actual smoothness so the spectral convergence of
the spline order is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import brentq


def graded_breakpoints(
    z_max: float,
    n_elements_half: int,
    ratio: float | None = None,
    first_element: float | None = None,
) -> np.ndarray:
    """Symmetric breakpoints on [-z_max, z_max], element sizes geometric from 0.

    Either fix the growth ``ratio`` directly or give the size of the
    innermost element and let the ratio follow; the kernels' kink at z=0
    sets the scale the innermost elements must resolve.
    """
    m = n_elements_half
    if ratio is None:
        if first_element is None:
            ratio = 1.4
        else:
            h0 = min(max(first_element, 1e-9), 0.5 * z_max / m)
            target = h0 / z_max  # (r-1)/(r^M - 1) = h0/L

            def f(r):
                return (r - 1.0) / (r**m - 1.0) - target

            if m == 1 or f(1.0 + 1e-9) < 0:
                ratio = 1.0 + 1e-9
            else:
                # f falls toward -target as r grows; few elements need r > 4
                hi = 4.0
                while f(hi) > 0:
                    hi *= 2.0
                ratio = brentq(f, 1.0 + 1e-9, hi)
    k = np.arange(1, m + 1)
    pos = (ratio**k - 1.0) / (ratio**m - 1.0) * z_max
    return np.concatenate([-pos[::-1], [0.0], pos])


@dataclass
class SplineBasis:
    """B-spline basis with Dirichlet ends and per-element Gauss quadrature.

    ``order`` counts coefficients per span (degree + 1). The two boundary
    functions are dropped, so every retained function vanishes at +-L.
    """

    breakpoints: np.ndarray
    order: int = 6
    quad_points: int = 10
    center_multiplicity: int = 3

    knots: np.ndarray = field(init=False)
    degree: int = field(init=False)
    n_funcs: int = field(init=False)
    zq: np.ndarray = field(init=False)
    wq: np.ndarray = field(init=False)
    bq: np.ndarray = field(init=False)   # (nq, n_funcs) values at quadrature nodes
    bq1: np.ndarray = field(init=False)  # first derivatives
    bq2: np.ndarray = field(init=False)  # second derivatives

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        p = self.order - 1
        self.degree = p
        interior = []
        for b in bp[1:-1]:
            mult = self.center_multiplicity if b == 0.0 else 1
            interior.extend([b] * min(mult, p))
        self.knots = np.concatenate(
            [np.full(p + 1, bp[0]), np.asarray(interior), np.full(p + 1, bp[-1])]
        )
        n_full = len(self.knots) - p - 1
        self.n_funcs = n_full - 2  # Dirichlet: drop first and last function

        # per-element Gauss-Legendre nodes
        xg, wg = np.polynomial.legendre.leggauss(self.quad_points)
        zq, wq = [], []
        for a, b in zip(bp[:-1], bp[1:]):
            zq.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            wq.append(0.5 * (b - a) * wg)
        self.zq = np.concatenate(zq)
        self.wq = np.concatenate(wq)
        self.bq = self._design(self.zq, 0)
        self.bq1 = self._design(self.zq, 1)
        self.bq2 = self._design(self.zq, 2)

    # -- evaluation ----------------------------------------------------------

    def _full_spline(self, deriv: int) -> BSpline:
        n_full = len(self.knots) - self.degree - 1
        b = BSpline(self.knots, np.eye(n_full), self.degree, extrapolate=False)
        return b.derivative(deriv) if deriv else b

    def _design(self, z, deriv: int) -> np.ndarray:
        vals = self._full_spline(deriv)(np.asarray(z, dtype=float))
        return np.nan_to_num(vals)[..., 1:-1]

    def design_matrix(self, z, deriv: int = 0) -> np.ndarray:
        """(len(z), n_funcs) matrix of basis values or derivatives; 0 outside."""
        return self._design(z, deriv)

    def partition_of_unity(self, z) -> np.ndarray:
        """Sum over the full (unrestricted) basis; equals 1 strictly inside."""
        return np.nan_to_num(self._full_spline(0)(np.asarray(z, dtype=float))).sum(axis=-1)

    def coefficient_spline(self, coeffs: np.ndarray) -> BSpline:
        """BSpline for Dirichlet-restricted coefficients (possibly a stack).

        ``coeffs`` has shape (n_funcs,) or (n_funcs, k); zero boundary
        coefficients are reinserted.
        """
        c = np.asarray(coeffs, dtype=float)
        pad = np.zeros((1,) + c.shape[1:])
        full = np.concatenate([pad, c, pad], axis=0)
        return BSpline(self.knots, full, self.degree, extrapolate=False)

    # -- Galerkin matrices ----------------------------------------------------

    def overlap(self) -> np.ndarray:
        return (self.bq * self.wq[:, None]).T @ self.bq

    def kinetic(self) -> np.ndarray:
        return 0.5 * (self.bq1 * self.wq[:, None]).T @ self.bq1

    def potential_matrix(self, v_at_quad: np.ndarray) -> np.ndarray:
        return (self.bq * (self.wq * v_at_quad)[:, None]).T @ self.bq

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

"""Clamped B-spline basis on a symmetric, geometrically graded 1D mesh, and
the piecewise polynomials every spline of the package is evaluated as.

The longitudinal wave functions live on [-L, L] with homogeneous Dirichlet
ends, elements graded toward z=0 where the smeared potentials have their
|z| kink. A triple knot at z=0 lowers the basis continuity there to C^2,
matching the solution's actual smoothness so the spectral convergence of
the spline order is preserved.

Basis values and derivatives come from the Cox-de Boor recursion
(:func:`bspline_design`). A spline that is evaluated many times, such as
an HF orbital or a kernel table, is held as a :class:`PiecewisePolynomial`:
per-interval power coefficients, found once, then one interval search and
a few multiply-adds per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss


def bisect(f, lo: float, hi: float) -> float:
    """Root of ``f`` in [lo, hi], to the last bit, by bisection.

    ``f(lo)`` and ``f(hi)`` must not have the same strict sign; otherwise
    ValueError is raised.
    """
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0:
        return lo
    if f_hi == 0:
        return hi
    if (f_lo > 0) == (f_hi > 0):
        raise ValueError(f"f({lo}) and f({hi}) have the same sign: no bracketed root")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0:
            return mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid


def locate(breakpoints: np.ndarray, z: np.ndarray):
    """Interval index i with breakpoints[i] <= z < breakpoints[i+1] and the
    offset s = z - breakpoints[i]. The last interval also takes its right
    end; points outside are given the nearest end interval."""
    i = np.clip(np.searchsorted(breakpoints, z, side="right") - 1, 0, len(breakpoints) - 2)
    return i, z - breakpoints[i]


def bspline_design(knots: np.ndarray, degree: int, z, deriv: int = 0) -> np.ndarray:
    """(z.shape + (n,)) values of the ``deriv``-th derivative of all n
    B-splines of ``degree`` on ``knots``; 0 outside [knots[0], knots[-1]].

    The interval of each point is found as for :func:`locate` on the knots,
    so at an interior knot the derivatives are the right-sided ones. The
    degree - deriv functions nonzero there come from the Cox-de Boor
    recursion, and each further degree applies the derivative recursion
    B'_{i,r} = r (B_{i,r-1} / (t_{i+r} - t_i) - B_{i+1,r-1} / (t_{i+r+1} - t_{i+1})).
    """
    t, p = np.asarray(knots, dtype=float), degree
    z = np.asarray(z, dtype=float)
    zf = z.ravel()
    n = len(t) - p - 1
    out = np.zeros((len(zf), n))
    if deriv > p:
        return out.reshape(z.shape + (n,))
    mu = np.clip(np.searchsorted(t, zf, side="right") - 1, p, n - 1)
    # column j holds the function mu - r + j of the current degree r
    b = np.ones((len(zf), 1))
    for r in range(1, p + 1):
        nxt = np.zeros((len(zf), r + 1))
        for j in range(r):
            i = mu - r + 1 + j
            w = b[:, j] / (t[i + r] - t[i])
            if r <= p - deriv:  # Cox-de Boor
                nxt[:, j] += (t[i + r] - zf) * w
                nxt[:, j + 1] += (zf - t[i]) * w
            else:  # derivative
                nxt[:, j] -= r * w
                nxt[:, j + 1] += r * w
        b = nxt
    rows = np.arange(len(zf))[:, None]
    out[rows, mu[:, None] - p + np.arange(p + 1)] = b
    out[~((zf >= t[0]) & (zf <= t[-1]))] = 0.0
    return out.reshape(z.shape + (n,))


class PiecewisePolynomial:
    """Polynomial pieces on the intervals of strictly increasing ``breakpoints``.

    ``coeffs`` has shape (k + 1, len(breakpoints) - 1) + trailing: on
    interval i, piece ``j`` of the trailing shape is
    sum_q coeffs[q, i, j] (z - breakpoints[i])^(k - q), highest power first.
    Evaluation gives z.shape + trailing and is 0 outside the breakpoints.
    """

    def __init__(self, breakpoints, coeffs):
        self.x = np.asarray(breakpoints, dtype=float)
        self.c = np.asarray(coeffs, dtype=float)
        if self.c.ndim < 2 or self.c.shape[1] != len(self.x) - 1:
            raise ValueError("coeffs must have shape (k + 1, len(breakpoints) - 1, ...)")

    @classmethod
    def from_bspline(cls, knots, coeffs, degree: int) -> "PiecewisePolynomial":
        """The pieces of sum_i coeffs[i] B_i between the distinct knots:
        coefficient k - d is the right-sided d-th derivative at each
        interval's left end over d!."""
        t = np.asarray(knots, dtype=float)
        # the knots are sorted; np.unique would also load numpy.ma
        x = t[np.concatenate([[True], t[1:] != t[:-1]])]
        c = np.asarray(coeffs, dtype=float)
        pieces = [np.tensordot(bspline_design(knots, degree, x[:-1], d), c, axes=1)
                  / math.factorial(d) for d in range(degree, -1, -1)]
        return cls(x, np.stack(pieces))

    @classmethod
    def cubic_fit(cls, x, y) -> "PiecewisePolynomial":
        """Not-a-knot cubic interpolant of ``y`` (shape (len(x),) + trailing).

        The same tridiagonal system for the node slopes, and the same
        coefficient formulas, as scipy's ``CubicSpline``; at least 4 points.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = len(x)
        if n < 4 or y.shape[0] != n:
            raise ValueError("a not-a-knot cubic fit needs at least 4 points, one y row each")
        dx = np.diff(x)
        if np.any(dx <= 0):
            raise ValueError("x must be strictly increasing")
        dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        # row i: lower[i - 1] s[i - 1] + diag[i] s[i] + upper[i] s[i + 1] = b[i]
        h = dx.tolist()
        lower = h[1:] + [x[-1] - x[-3]]
        diag = [h[1]] + [2 * (a + c) for a, c in zip(h, h[1:])] + [h[-2]]
        upper = [x[2] - x[0]] + h[:-1]
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        # Elimination without pivoting, one sweep for all columns: the
        # interior rows are diagonally dominant, and the not-a-knot end rows,
        # which are not, have a nonzero pivot after one elimination step
        # (dx[0] + dx[1] in row 1, at least dx[-2]^2 / (2 dx[-2] + dx[-1]) in
        # the last row). b becomes the node slopes s in place.
        for i in range(1, n):
            f = lower[i - 1] / diag[i - 1]
            diag[i] -= f * upper[i - 1]
            b[i] -= f * b[i - 1]
        s = b
        s[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            s[i] -= upper[i] * s[i + 1]
            s[i] /= diag[i]
        # Hermite pieces from the node values and slopes
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        return cls(x, np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1])))

    def _pieces(self, z):
        """For the flattened z: the coefficients of its pieces, shape
        (k + 1, z.size) + trailing, the offsets broadcast to match, and the
        mask of points outside."""
        zf = np.asarray(z, dtype=float).ravel()
        i, s = locate(self.x, zf)
        outside = ~((zf >= self.x[0]) & (zf <= self.x[-1]))
        return self.c[:, i], s.reshape(s.shape + (1,) * (self.c.ndim - 2)), outside

    def _shaped(self, z, val, outside):
        if outside.any():
            val[outside] = 0.0
        return val.reshape(np.shape(z) + self.c.shape[2:])

    def __call__(self, z) -> np.ndarray:
        """Values, summed in ascending powers of s as scipy's PPoly sums them:
        c[k] + c[k-1] s + c[k-2] s^2 + ..., each power one product further."""
        c, s, outside = self._pieces(z)
        k = len(c) - 1
        val = c[k]  # c is this call's own gather: summed into in place
        power = s
        for q in range(k - 1, -1, -1):
            val += c[q] * power
            if q:
                power = power * s
        return self._shaped(z, val, outside)

    def derivatives(self, z):
        """(f, f', f'') from one interval search, by Horner's scheme run on
        the value and its first two derivatives together."""
        c, s, outside = self._pieces(z)
        f = c[0]
        d1 = np.zeros_like(f)
        d2 = np.zeros_like(f)
        for cq in c[1:]:
            d2 = d2 * s + d1
            d1 = d1 * s + f
            f = f * s + cq
        return tuple(self._shaped(z, v, outside) for v in (f, d1, 2.0 * d2))


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
                ratio = bisect(f, 1.0 + 1e-9, hi)
    k = np.arange(1, m + 1)
    pos = (ratio**k - 1.0) / (ratio**m - 1.0) * z_max
    return np.concatenate([-pos[::-1], [0.0], pos])


#: Gauss-Legendre nodes per element, and the multiplicity of the knot at z = 0
QUAD_POINTS, CENTER_MULTIPLICITY = 10, 3


@dataclass
class SplineBasis:
    """B-spline basis with Dirichlet ends and per-element Gauss quadrature.

    ``order`` counts coefficients per span (degree + 1). The two boundary
    functions are dropped, so every retained function vanishes at +-L.
    """

    breakpoints: np.ndarray
    order: int = 6

    knots: np.ndarray = field(init=False)
    degree: int = field(init=False)
    n_funcs: int = field(init=False)
    zq: np.ndarray = field(init=False)
    wq: np.ndarray = field(init=False)
    bq: np.ndarray = field(init=False)   # (nq, n_funcs) values at quadrature nodes
    bq1: np.ndarray = field(init=False)  # first derivatives

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        p = self.order - 1
        self.degree = p
        interior = []
        for b in bp[1:-1]:
            mult = CENTER_MULTIPLICITY if b == 0.0 else 1
            interior.extend([b] * min(mult, p))
        self.knots = np.concatenate(
            [np.full(p + 1, bp[0]), np.asarray(interior), np.full(p + 1, bp[-1])]
        )
        n_full = len(self.knots) - p - 1
        self.n_funcs = n_full - 2  # Dirichlet: drop first and last function

        # per-element Gauss-Legendre nodes
        xg, wg = leggauss(QUAD_POINTS)
        zq, wq = [], []
        for a, b in zip(bp[:-1], bp[1:]):
            zq.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            wq.append(0.5 * (b - a) * wg)
        self.zq = np.concatenate(zq)
        self.wq = np.concatenate(wq)
        self.bq = self.design_matrix(self.zq, 0)
        self.bq1 = self.design_matrix(self.zq, 1)

    # -- evaluation ----------------------------------------------------------

    def design_matrix(self, z, deriv: int = 0) -> np.ndarray:
        """(len(z), n_funcs) matrix of basis values or derivatives; 0 outside."""
        return bspline_design(self.knots, self.degree, z, deriv)[..., 1:-1]

    def partition_of_unity(self, z) -> np.ndarray:
        """Sum over the full (unrestricted) basis; equals 1 strictly inside."""
        return bspline_design(self.knots, self.degree, z).sum(axis=-1)

    def coefficient_spline(self, coeffs: np.ndarray) -> PiecewisePolynomial:
        """Piecewise polynomial of Dirichlet-restricted coefficients (possibly
        a stack); 0 outside the domain.

        ``coeffs`` has shape (n_funcs,) or (n_funcs, k); zero boundary
        coefficients are reinserted.
        """
        c = np.asarray(coeffs, dtype=float)
        pad = np.zeros((1,) + c.shape[1:])
        full = np.concatenate([pad, c, pad], axis=0)
        return PiecewisePolynomial.from_bspline(self.knots, full, self.degree)

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

"""Effective 1D interaction kernels from transverse smearing.

Integrating the 3D Coulomb interactions over the transverse orbitals
reduces them exactly to 1D integrals via the Lipschitz/Hankel identity
``1/sqrt(rho^2 + z^2) = int_0^inf J0(q rho) exp(-q |z|) dq``:

    V_m(z)       = -Z * int dq S_m(q) exp(-q |z|)            (nuclear)
    D_mm'(zeta)  =  int dq S_m(q) S_m'(q) exp(-q |zeta|)     (direct)
    X_mm'(zeta)  =  int dq T_mm'(q)^2 exp(-q |zeta|)         (exchange)

with the form factors from the landau module; T_mm = S_m, so X_mm = D_mm.

Cutoff model. In t = q^2/(2 gamma) each integrand is a polynomial times an
exponential: degree m with exp(-t) for V_m, degree m+m' with exp(-2t) for
D_mm' and X_mm'. The q-integral is cut where the leading term
t^degree exp(-rate t) has fallen CUTOFF_EFOLDS e-folds below its peak;
the neglected tail is then at most 2.2e-17 of the kernel at zeta=0 (checked
on a sample of V, D and X with m, m' <= 25). A cutoff that ignores the
degree cuts V_m(0) short by up to 1.9e-6 relative at m = 10.

Rule + X splines. A table's kernels share one composite Gauss-Legendre
rule in q (geometric panels toward q = 0 from 1/span, then uniform ones to
the largest cutoff), so each is K(zeta) = sum_j w_j F(q_j) exp(-q_j |zeta|).
V, D and X_mm come straight from it. Only X_mm' with m < m', which the
exchange needs over every pair of grid points, is tabulated on a graded
grid (dense near the |zeta| kink at 0) and interpolated by not-a-knot cubic
splines. A build passes a two-part gate, relative with a floor of
1e-3 sqrt(gamma): (i) for every V, D and X the rule agrees with the same
rule on doubled panels at every grid point to QUAD_RTOL; (ii) the X splines
agree with the rule at every interval midpoint to SPLINE_RTOL. A failure
raises KernelAccuracyError naming the part that failed.

The point functions nuclear_kernel, direct_kernel and exchange_kernel
integrate one kernel with adaptive Gauss-Kronrod quadrature (scipy's
``quad``) over the same cutoff: the independent reference for tests and
oracles, so ``quad`` is imported only when one of them runs.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import iofiles
from .bsplines import PiecewisePolynomial, bisect, locate
from .errors import SolverError
from .landau import form_factor, mixed_form_factor

logger = logging.getLogger(__name__)

KERNEL_FORMAT = "magqmc-kernels/4"

#: adaptive-quadrature relative tolerances of the point functions
V_EPSREL = 1e-9
DX_EPSREL = 1e-7

#: e-folds below its peak at which an integrand's leading term is cut off
CUTOFF_EFOLDS = 36.0
#: Gauss-Legendre nodes per panel of the tabulation rule
NODES_PER_PANEL = 16
#: build gate: rule vs doubled-panel rule, and X splines vs rule at midpoints
QUAD_RTOL = 1e-9
SPLINE_RTOL = 1e-7
#: exp(-x) is taken at min(x, _EXP_CUT): that moves terms below 1e-130 of the
#: kernels and keeps subnormal numbers, slow in exp and BLAS, out of the products
_EXP_CUT = 300.0
#: zeta rows per exp(-outer(zeta, q)) block, which stays at a few MB
_ZETA_CHUNK = 256
#: points (direct and image arguments) per row block of
#: KernelTable.pair_matrices, sized to stay in cache
_PAIR_BLOCK = 32768
#: points below which _lower_kernels takes its exponentials directly
_LEAF = 8
#: row blocks of the half grid in image_exchange
_EXCHANGE_BLOCKS = 5


class KernelAccuracyError(SolverError):
    """Quadrature or interpolation failed to reach its tolerance."""


def _q_cutoff(gamma: float, degree: int, rate: float) -> float:
    """q at which t^degree exp(-rate t), with t = q^2/(2 gamma), has fallen
    CUTOFF_EFOLDS e-folds below its peak at t = degree/rate."""
    t_peak = degree / rate

    def f(t):
        return rate * (t - t_peak) - degree * math.log(t / t_peak) - CUTOFF_EFOLDS

    if degree == 0:
        t_cut = CUTOFF_EFOLDS / rate
    else:
        hi = t_peak + CUTOFF_EFOLDS / rate
        while f(hi) < 0:
            hi *= 2.0
        t_cut = bisect(f, t_peak, hi)
    return math.sqrt(2.0 * gamma * t_cut)


def _nuclear_cutoff(gamma: float, m: int) -> float:
    # S_m = L_m(t) exp(-t)
    return _q_cutoff(gamma, m, 1.0)


def _pair_cutoff(gamma: float, m1: int, m2: int) -> float:
    # S_m1 S_m2 and T_m1m2^2 are both degree m1+m2 in t times exp(-2t)
    return _q_cutoff(gamma, m1 + m2, 2.0)


def _lipschitz_integral(sq, zeta: float, qmax: float) -> tuple[float, float]:
    """integral of sq(q) * exp(-q |zeta|) over [0, qmax]; returns (value, abserr)."""
    # the reference path only: the build never loads scipy.integrate
    from scipy.integrate import quad

    az = abs(zeta)
    pts = None
    if az * qmax > 10.0:
        # exp(-q zeta) boundary layer: steer the subdivision toward q=0
        pts = [p / az for p in (1.0, 5.0, 20.0) if p / az < qmax]
    val, err = quad(
        lambda q: sq(q) * np.exp(-q * az),
        0.0,
        qmax,
        epsabs=1e-13 * qmax,
        epsrel=min(V_EPSREL, DX_EPSREL),
        limit=400,
        points=pts,
    )
    return val, err


def nuclear_kernel(gamma: float, m: int, z_charge: float, z) -> np.ndarray | float:
    """Nuclear attraction seen by the m-channel, smeared transversely.

    Finite at z=0 and approaching -Z/|z| far away. Vectorized over z.
    """
    qmax = _nuclear_cutoff(gamma, m)
    sq = lambda q: form_factor(m, q, gamma)
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(zs)
    for i, zi in enumerate(zs.ravel()):
        val, err = _lipschitz_integral(sq, zi, qmax)
        if err > max(abs(val) * V_EPSREL * 50, 1e-11):
            raise KernelAccuracyError(
                f"nuclear kernel quadrature: abserr={err:.2e} for value {val:.6e} "
                f"(m={m}, gamma={gamma}, z={zi})"
            )
        out.ravel()[i] = -z_charge * val
    return out if np.ndim(z) else float(out[0])


def direct_kernel(gamma: float, m1: int, m2: int, zeta) -> np.ndarray | float:
    """Direct (Hartree) interaction of two smeared transverse densities."""
    qmax = _pair_cutoff(gamma, m1, m2)
    sq = lambda q: form_factor(m1, q, gamma) * form_factor(m2, q, gamma)
    zs = np.atleast_1d(np.asarray(zeta, dtype=float))
    out = np.array([_lipschitz_integral(sq, zi, qmax)[0] for zi in zs.ravel()])
    return out.reshape(zs.shape) if np.ndim(zeta) else float(out[0])


def exchange_kernel(gamma: float, m1: int, m2: int, zeta) -> np.ndarray | float:
    """Exchange interaction of the mixed transverse density pair."""
    qmax = _pair_cutoff(gamma, m1, m2)
    sq = lambda q: mixed_form_factor(m1, m2, q, gamma) ** 2
    zs = np.atleast_1d(np.asarray(zeta, dtype=float))
    out = np.array([_lipschitz_integral(sq, zi, qmax)[0] for zi in zs.ravel()])
    return out.reshape(zs.shape) if np.ndim(zeta) else float(out[0])


def _panel_edges(gamma: float, span: float, qmax: float, max_degree: int) -> np.ndarray:
    """Panel edges of the tabulation rule on [0, qmax].

    Geometric (ratio 2) from 1/span, which resolves exp(-q span), up to the
    uniform width 2 sqrt(gamma / (max_degree + 1)); that is about two thirds
    of the shortest period, pi sqrt(gamma / (max_degree + 1)), of the
    degree-``max_degree`` form-factor products.
    """
    width = 2.0 * math.sqrt(gamma / (max_degree + 1))
    q0 = min(1.0 / span, width)
    n_geo = math.ceil(math.log2(width / q0))
    geo = q0 * 2.0 ** np.arange(n_geo)
    n_uni = math.ceil(qmax / width)
    return np.concatenate([[0.0], geo[geo < width], width * np.arange(1, n_uni + 1)])


def _gauss_legendre_rule(edges: np.ndarray, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on every panel."""
    x, w = leggauss(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (lo + half * (1.0 + x)).ravel(), (half * w).ravel()


def _doubled(edges: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(edges) - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _decay(zeta, q) -> np.ndarray:
    """exp(-outer(zeta, q)) for zeta >= 0, the exponent cut at -_EXP_CUT."""
    x = np.multiply.outer(zeta, -q)
    return np.exp(np.maximum(x, -_EXP_CUT, out=x), out=x)


def _rule_product(zeta: np.ndarray, q: np.ndarray, wf: np.ndarray) -> np.ndarray:
    """exp(-outer(zeta, q)) @ wf for zeta >= 0, in blocks of _ZETA_CHUNK rows."""
    out = np.empty((len(zeta),) + wf.shape[1:])
    for i in range(0, len(zeta), _ZETA_CHUNK):
        out[i:i + _ZETA_CHUNK] = _decay(zeta[i:i + _ZETA_CHUNK], q) @ wf
    return out


def graded_grid(span: float, n_points: int, smallest_step: float) -> np.ndarray:
    """Exponentially graded points on [0, span], first step ~= smallest_step."""
    if span <= 0 or n_points < 16 or smallest_step <= 0 or smallest_step * n_points > span:
        raise ValueError("inconsistent grid spec")
    target = span / (n_points * smallest_step)

    def f(a):
        return np.expm1(a) / a - target

    a = bisect(f, 1e-8, 200.0)
    t = np.linspace(0.0, 1.0, n_points)
    return span * np.expm1(a * t) / np.expm1(a)


@dataclass
class GridSpec:
    span: float
    n_points: int = 800

    def points(self, gamma: float) -> np.ndarray:
        """The graded grid, first step 1e-3 / sqrt(gamma)."""
        return graded_grid(self.span, self.n_points, 1e-3 / np.sqrt(gamma))


def cache_key(gamma: float, z_charge: float, ms, grid: GridSpec) -> str:
    """Key of the table that build_kernel_table makes from these inputs."""
    s = (f"gamma={float(gamma)!r};z={float(z_charge)!r};ms={sorted(set(int(m) for m in ms))};"
         f"span={float(grid.span)!r};n={int(grid.n_points)}")
    return hashlib.sha256(s.encode()).hexdigest()[:16]


class KernelTable:
    """The kernels of one (gamma, nuclear charge, occupied-m set): the q rule
    (nodes ``q``, weights ``w``), and on ``grid`` the tables ``x_tab`` of
    X_ab, a < b, with their cubic splines. Kernels are even in their
    argument. Beyond the span of the grid the exact point-charge
    asymptotics are used (V -> -Z/|z|, D -> 1/|zeta|, X -> delta_mm'/|zeta|).
    """

    def __init__(self, beta, gamma, z_charge, ms, q, w, grid, x_tab):
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.z_charge = float(z_charge)
        self.ms = tuple(sorted(set(int(m) for m in ms)))
        self.q = np.asarray(q, dtype=float)
        self.w = np.asarray(w, dtype=float)
        # S_m at the nodes, one column per channel of ms
        self._s = np.column_stack([form_factor(m, self.q, self.gamma) for m in self.ms])
        self.grid = np.asarray(grid, dtype=float)
        self.span = float(self.grid[-1])
        self.x_tab = {tuple(k): np.asarray(v) for k, v in x_tab.items()}
        self._x_sp = {}
        if self.x_tab:
            # one fit: the tables share the grid, and pair_matrices its interval search
            fit = PiecewisePolynomial.cubic_fit(self.grid, np.column_stack(list(self.x_tab.values())))
            self._x_sp = {p: PiecewisePolynomial(self.grid, np.ascontiguousarray(fit.c[..., j]))
                          for j, p in enumerate(self.x_tab)}

    def _form(self, *ms) -> np.ndarray:
        """w times the product of S_m over ``ms``, at the nodes."""
        wf = self.w.copy()
        for m in ms:
            wf *= self._s[:, self.ms.index(m)]
        return wf

    def _from_rule(self, wf: np.ndarray, zeta, tail: float):
        az = np.abs(np.asarray(zeta, dtype=float))
        flat = az.ravel()
        out = tail / np.maximum(flat, 1e-300)
        inside = flat < self.span
        out[inside] = _rule_product(flat[inside], self.q, wf)
        return out.reshape(az.shape) if np.ndim(zeta) else float(out[0])

    def nuclear(self, m: int, z):
        return self._from_rule(-self.z_charge * self._form(m), z, -self.z_charge)

    def direct(self, m1: int, m2: int, zeta):
        return self._from_rule(self._form(m1, m2), zeta, 1.0)

    def exchange(self, m1: int, m2: int, zeta):
        if m1 == m2:
            return self.direct(m1, m2, zeta)
        az = np.abs(np.asarray(zeta, dtype=float))
        spline = self._x_sp[min(m1, m2), max(m1, m2)]
        out = np.where(az < self.span, spline(np.minimum(az, self.span)), 0.0)
        return out if np.ndim(zeta) else float(out)

    def direct_potentials(self, z):
        """The map {k: rho_k} -> {m: U_m} on the sorted grid ``z``, symmetric
        about 0 bit for bit and inside the span, where rho_k is the density
        of channel k at the points times their quadrature weights and
        U_m(z_i) = sum_k sum_l D_mk(z_i - z_l) rho_k(z_l)
                 = sum_j w_j S_m(q_j) sum_l exp(-q_j |z_i - z_l|) g_j(z_l),
        g_j = sum_k S_k(q_j) rho_k. At +-z_i the points on the same side
        come in by a forward recursion c_i = g_i + exp(-q (z_i - z_{i-1})) c_{i-1}
        and a backward one, stable as every factor is at most 1, and the
        other side by the separable exp(-q z_i) sum_l exp(-q z_l) g(-+z_l).
        The exponentials are taken once, when the map is made.
        """
        z = np.asarray(z, dtype=float)
        h = len(z) // 2
        half = z[h:]
        if len(z) % 2 or not np.array_equal(z[:h][::-1], -half) or 2.0 * z[-1] >= self.span:
            raise ValueError("the grid must be mirror-symmetric about z = 0 and inside the span")
        image = _decay(half, self.q)  # (h, n_q)
        # row i: the factors into z_i (forward) and z_{h-1-i} (backward)
        step = np.diff(half)
        decay = _decay(np.column_stack([step, step[::-1]]), self.q)[:, :, None]

        def potentials(rho: dict) -> dict:
            s = self._s[:, [self.ms.index(m) for m in rho]]
            ws = self.w[:, None] * s
            r = np.column_stack(list(rho.values()))
            r = np.stack([r[h:], r[h - 1::-1]], axis=1)  # (h, 2, n_k): at +z_i, then -z_i
            # row i: the sources at z_i (forward) and z_{h-1-i} (backward), summed in place
            c = np.stack([r, r[::-1]], axis=1) @ s.T
            # sum_l exp(-q z_l) g(-+z_l): the other side's image sums
            across = np.einsum("qsk,qk->sq", np.tensordot(image, r, axes=(0, 0)), s)[::-1]
            tmp, rows = np.empty_like(c[0]), list(c)
            for prev, row, factor in zip(rows, rows[1:], decay):
                row += np.multiply(factor, prev, out=tmp)
            c = (c.reshape(-1, len(self.q)) @ ws).reshape(h, 2, 2, -1)
            # both recursions count g_i, so it is taken off once
            u = (c[:, 0] + c[::-1, 1] - r @ (s.T @ ws)
                 + (image @ (across[:, :, None] * ws)).transpose(1, 0, 2))
            return {m: np.concatenate([u[::-1, 1, j], u[:, 0, j]]) for j, m in enumerate(rho)}

        return potentials

    def pair_matrices(self, z, ms) -> dict:
        """{(a, b): (packed, delta)}, a <= b in ``ms``: the even and odd image
        exchange kernels on the half grid ``z`` (sorted, inside half the span).

        On the grid symmetric about 0 whose positive half is ``z``, a kernel
        K(|z - z'|) has even and odd image kernels Ke = K(|z_i - z_j|) +
        K(z_i + z_j) and Ko = K(|z_i - z_j|) - K(z_i + z_j), both symmetric:
        one Fortran-order (n, n) array holds Ke in its upper triangle,
        diagonal included, and Ko strictly below it, and delta = diag(Ko) -
        diag(Ke). X_mm comes from the rule, in products of factors exp(-q d) <= 1.
        For a < b each value equals bit for bit ``exchange(a, b, .)``: the
        spline interval of both arguments is found once for all tables,
        each table is one cubic pass summed as a PiecewisePolynomial sums
        it, and only the upper triangle is evaluated, in row blocks of
        about _PAIR_BLOCK points, Ko mirrored below the diagonal.
        """
        z = np.asarray(z, dtype=float)
        n = len(z)
        if np.any(np.diff(z) < 0) or z[0] < 0 or 2.0 * z[-1] >= self.span:
            raise ValueError("the half grid must be sorted, in [0, span / 2)")
        ms = sorted(set(int(m) for m in ms))
        # X_mm = D_mm from the rule: K(z_i + z_l) = sum_j wf_j e_ij e_lj, e =
        # exp(-outer(z, q)), is the product of e sqrt(wf) with its transpose
        wf = np.column_stack([self._form(m, m) for m in ms])
        k_minus = np.zeros((len(ms), n, n))
        _lower_kernels(z, self.q, wf, k_minus)
        e, x = _decay(z, self.q), {}
        below = np.tri(n, dtype=bool)  # on and below the diagonal
        for m, km, root in zip(ms, k_minus, np.sqrt(wf.T)):
            kp = e * root
            kp = kp @ kp.T  # K(z_i + z_l); numpy forms a @ a.T as a symmetric rank-k update
            # km becomes the transpose of the packed array in place: Ko
            # above the diagonal, from its lower triangle, then Ke on and below
            for i in range(n - 1):
                np.subtract(km[i + 1:, i], kp[i + 1:, i], out=km[i, i + 1:])
            np.add(km, kp, out=km, where=below)
            x[m, m] = km.T, -2.0 * np.diag(kp)
        splined = {(a, b): (np.empty((n, n), order="F"), np.empty(n))
                   for i, a in enumerate(ms) for b in ms[i + 1:]}
        rows = max(1, _PAIR_BLOCK // max(2 * n, 1))
        for r0 in range(0, n, rows) if splined else ():
            r1 = min(r0 + rows, n)
            zi, zj = z[r0:r1, None], z[None, r0:]
            # (2, rows, cols): the direct argument, then the image one
            i, s = locate(self.grid, np.abs(np.stack([zi - zj, zi + zj])))
            s2, s3 = s * s, s * s * s
            tmp = np.empty_like(s)
            # strictly lower triangle and diagonal of the block's leading square
            below, diag = np.tril_indices(r1 - r0, -1), np.diag_indices(r1 - r0)
            for p, (packed, delta) in splined.items():
                c = self._x_sp[p].c
                val = np.take(c[3], i)
                val += np.multiply(np.take(c[2], i, out=tmp), s, out=tmp)
                val += np.multiply(np.take(c[1], i, out=tmp), s2, out=tmp)
                val += np.multiply(np.take(c[0], i, out=tmp), s3, out=tmp)
                even = np.add(val[0], val[1], out=packed[r0:r1, r0:])
                odd = np.subtract(val[0], val[1], out=tmp[0])
                delta[r0:r1] = odd[diag] - even[diag]
                packed[r1:, r0:r1] = odd[:, r1 - r0:].T
                packed[r0:r1, r0:r1][below] = odd[below]
        return dict(sorted({**x, **splined}.items()))

    # -- serialization ------------------------------------------------------

    def _arrays(self) -> dict[str, np.ndarray]:
        return {"q": self.q, "w": self.w, "grid": self.grid,
                **{f"x_{a}_{b}": tab for (a, b), tab in sorted(self.x_tab.items())}}

    def checksum(self) -> str:
        return iofiles.checksum(self._arrays())

    def save(self, path) -> None:
        meta = {"beta": self.beta, "gamma": self.gamma, "z_charge": self.z_charge,
                "ms": list(self.ms)}
        iofiles.write_artifact(path, KERNEL_FORMAT, meta, self._arrays())

    @classmethod
    def load(cls, path) -> "KernelTable":
        meta, arrays = iofiles.read_artifact(path, KERNEL_FORMAT)
        x_tab = {tuple(int(m) for m in name.split("_")[1:]): tab
                 for name, tab in arrays.items() if name.startswith("x_")}
        return cls(meta["beta"], meta["gamma"], meta["z_charge"], meta["ms"],
                   arrays["q"], arrays["w"], arrays["grid"], x_tab)


def _lower_kernels(z, q, wf, out) -> None:
    """Write K_p(z_i - z_l) = sum_j wf_jp exp(-q_j |z_i - z_l|) for z_l <= z_i,
    at least, into out[p] (n, n), with z sorted.

    Halving the sorted grid at z_m, the block of z_i >= z_m against z_l < z_m
    is sum_j wf_jp exp(-q_j (z_i - z_m)) exp(-q_j (z_m - z_l)), one GEMM;
    both halves recurse, down to _LEAF points, whose exponentials are direct.
    """
    n, n_q = len(z), len(q)
    if n <= _LEAF:
        out[:] = np.moveaxis(_decay(np.abs(z[:, None] - z[None, :]), q) @ wf, -1, 0)
        return
    m = n // 2
    near = (wf.T[:, None, :] * _decay(z[m:] - z[m], q)).reshape(-1, n_q)
    out[:, m:, :m] = (near @ _decay(z[m] - z[:m], q).T).reshape(-1, n - m, m)
    _lower_kernels(z[:m], q, wf, out[:, :m, :m])
    _lower_kernels(z[m:], q, wf, out[:, m:, m:])


def image_exchange(parity: int, packed: np.ndarray, delta: np.ndarray, y: np.ndarray,
                   width: int) -> np.ndarray:
    """sum_k Y_k^T K Y_k for the even (``parity`` 0) or odd (1) image kernel K
    of a :meth:`KernelTable.pair_matrices` array, Y_k the column blocks of
    ``width`` of the C-order matrix ``y``.

    K = N + N^T, with N the stored triangle of K (Ke above the diagonal, Ko
    below) plus half its diagonal, so the sum is S + S^T with S = sum_k
    Y_k^T W_k and W = N y. W is taken in _EXCHANGE_BLOCKS row blocks I: the
    triangle of the diagonal block, then the full blocks of N beside it,
    P_{I,>I} y_{>I} (even) or P_{I,<I} y_{<I} (odd).
    """
    h = len(y)
    w = np.empty_like(y)
    edges = [h * i // _EXCHANGE_BLOCKS for i in range(_EXCHANGE_BLOCKS + 1)]
    # 1 above the diagonal, 1/2 on it, 0 below: N_II is a diagonal block times it
    b = edges[-1] - edges[-2]
    mask = np.tri(b, k=-1).T + 0.5 * np.eye(b)
    if parity:
        mask = mask.T
    for r0, r1 in zip(edges, edges[1:]):
        tri = packed[r0:r1, r0:r1] * mask[:r1 - r0, :r1 - r0]
        if parity:
            tri.flat[::r1 - r0 + 1] += 0.5 * delta[r0:r1]
        np.matmul(tri, y[r0:r1], out=w[r0:r1])
        rest = slice(0, r0) if parity else slice(r1, h)
        if rest.start < rest.stop:
            w[r0:r1] += packed[r0:r1, rest] @ y[rest]
    s = y.reshape(-1, width).T @ w.reshape(-1, width)
    return s + s.T


def build_kernel_table(field_beta: float, gamma: float, z_charge: float, ms,
                       grid: GridSpec) -> KernelTable:
    """Build the q rule for the occupied-m set, tabulate X_ab (a < b) on the
    graded grid, and run the two-part gate of the module docstring."""
    ms = sorted(set(int(m) for m in ms))
    pairs = [(a, b) for i, a in enumerate(ms) for b in ms[i:]]
    pts = grid.points(gamma)
    mids = 0.5 * (pts[:-1] + pts[1:])
    qmax = max([_nuclear_cutoff(gamma, m) for m in ms]
               + [_pair_cutoff(gamma, a, b) for a, b in pairs])
    edges = _panel_edges(gamma, pts[-1], qmax, max_degree=2 * ms[-1])
    names = ([f"V_{m}" for m in ms] + [f"D_{a}_{b}" for a, b in pairs]
             + [f"X_{a}_{b}" for a, b in pairs])

    def every_kernel(zeta, q, w):
        # one column per name: -Z S_m, then S_a S_b, then T_ab^2
        s = {m: form_factor(m, q, gamma) for m in ms}
        f = ([-z_charge * s[m] for m in ms] + [s[a] * s[b] for a, b in pairs]
             + [mixed_form_factor(a, b, q, gamma) ** 2 for a, b in pairs])
        return _rule_product(zeta, q, w[:, None] * np.column_stack(f))

    t0 = time.perf_counter()
    q, w = _gauss_legendre_rule(edges, NODES_PER_PANEL)
    vals = every_kernel(np.concatenate([pts, mids]), q, w)
    tabs = vals[:len(pts)]
    # the tabulated kernels: the X_ab columns with a < b
    first_x = len(ms) + len(pairs)
    cols = [first_x + j for j, (a, b) in enumerate(pairs) if a < b]
    table = KernelTable(field_beta, gamma, z_charge, ms, q, w, pts,
                        {pairs[j - first_x]: tabs[:, j].copy() for j in cols})
    floor = 1e-3 * math.sqrt(gamma)
    refined = every_kernel(pts, *_gauss_legendre_rule(_doubled(edges), NODES_PER_PANEL))
    _gate("quadrature", "the rule and the doubled-panel rule disagree at grid points",
          "raise NODES_PER_PANEL", names, tabs, refined, QUAD_RTOL, floor)
    if cols:
        splines = np.column_stack([table.exchange(*p, mids) for p in table.x_tab])
        _gate("interpolation", "the X splines miss the rule at interval midpoints",
              "refine the grid", [names[j] for j in cols], splines, vals[len(pts):, cols],
              SPLINE_RTOL, floor)
    logger.info("kernel table: %d m-channels, %d pairs, %d points, %d q-nodes in %.3fs "
                "(gate passed)", len(ms), len(pairs), len(pts), len(q), time.perf_counter() - t0)
    return table


def _gate(part, what, remedy, names, got, want, rtol, floor) -> None:
    """Raise KernelAccuracyError if any column of ``got`` misses ``want``."""
    err = np.abs(got - want) / np.maximum(np.abs(want), floor)
    worst = np.max(err, axis=0)
    j = int(np.argmax(worst))
    if worst[j] > rtol:
        raise KernelAccuracyError(
            f"kernel {part} check failed: {what}; {names[j]} is off by "
            f"{worst[j]:.2e} relative (> {rtol:g}); {remedy}"
        )

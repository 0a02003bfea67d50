"""Effective 1D interaction kernels from transverse smearing.

Integrating the 3D Coulomb interactions over the transverse orbitals
reduces them exactly to 1D integrals via the Lipschitz/Hankel identity
``1/sqrt(rho^2 + z^2) = int_0^inf J0(q rho) exp(-q |z|) dq``:

    V_m(z)       = -Z * int dq S_m(q) exp(-q |z|)            (nuclear)
    D_mm'(zeta)  =  int dq S_m(q) S_m'(q) exp(-q |zeta|)     (direct)
    X_mm'(zeta)  =  int dq T_mm'(q)^2 exp(-q |zeta|)         (exchange)

with the form factors from the landau module.

Cutoff model. In t = q^2/(2 gamma) each integrand is a polynomial times an
exponential: degree m with exp(-t) for V_m, degree m+m' with exp(-2t) for
D_mm' and X_mm'. The q-integral is cut where the leading term
t^degree exp(-rate t) has fallen CUTOFF_EFOLDS e-folds below its peak;
the neglected tail is then at most 2.2e-17 of the kernel at zeta=0 (checked
on a sample of V, D and X with m, m' <= 25). A cutoff that ignores the
degree cuts V_m(0) short by up to 1.9e-6 relative at m = 10.

Tabulation. All tables of a build share one composite Gauss-Legendre rule
in q: geometric panels toward q = 0, the smallest one sized from the table
span so the exp(-q zeta) boundary layer of the largest zeta is resolved,
then uniform panels, sized from the highest polynomial degree, out to the
largest cutoff. The form-factor columns F(q) (-Z S_m, S_m S_m', T_mm'^2)
are evaluated once at the nodes, and every table follows from one matrix
product exp(-outer(zeta, q)) @ (w * F), taken over chunks of zeta.

Tables are sampled on a graded grid (dense near zeta=0 where the kernels
have their |zeta| kink) and interpolated by not-a-knot cubic splines, held
as :class:`~magqmc.bsplines.PiecewisePolynomial` pieces. Every build
passes a two-part accuracy gate:

  (i)  quadrature: the rule agrees with the same rule on doubled panels at
       every grid point to QUAD_RTOL;
  (ii) interpolation: the splines agree with the rule at every interval
       midpoint to SPLINE_RTOL;

both relative, with a floor of 1e-3 sqrt(gamma) near zeros. A failure
raises KernelAccuracyError naming the part that failed. The point functions
nuclear_kernel, direct_kernel and exchange_kernel integrate one kernel
with adaptive Gauss-Kronrod quadrature (scipy's ``quad``) over the same
cutoff; they are the independent reference for tests and oracles, not the
build path, so ``quad`` is imported only when one of them runs.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymm, dsymv

from . import iofiles
from .bsplines import PiecewisePolynomial, bisect, locate
from .errors import SolverError
from .landau import form_factor, mixed_form_factor

logger = logging.getLogger(__name__)

KERNEL_FORMAT = "magqmc-kernels/3"

#: adaptive-quadrature relative tolerances of the point functions
V_EPSREL = 1e-9
DX_EPSREL = 1e-7

#: e-folds below its peak at which an integrand's leading term is cut off
CUTOFF_EFOLDS = 36.0
#: Gauss-Legendre nodes per panel of the tabulation rule
NODES_PER_PANEL = 16
#: build gate: rule vs doubled-panel rule, and splines vs rule at midpoints
QUAD_RTOL = 1e-9
SPLINE_RTOL = 1e-7
#: zeta rows per exp(-outer(zeta, q)) block, which stays at a few MB
_ZETA_CHUNK = 256
#: points (direct and image arguments) per row block of
#: KernelTable.pair_matrices, sized to stay in cache
_PAIR_BLOCK = 32768


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


# ---------------------------------------------------------------------------
# product rule in q


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
    x, w = np.polynomial.legendre.leggauss(n)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (lo + half * (1.0 + x)).ravel(), (half * w).ravel()


def _doubled(edges: np.ndarray) -> np.ndarray:
    out = np.empty(2 * len(edges) - 1)
    out[::2] = edges
    out[1::2] = 0.5 * (edges[:-1] + edges[1:])
    return out


def _form_factor_columns(gamma, z_charge, ms, pairs, q) -> np.ndarray:
    """(len(q), n_tables) matrix: -Z S_m, then S_a S_b, then T_ab^2."""
    s = {m: form_factor(m, q, gamma) for m in ms}
    cols = [-z_charge * s[m] for m in ms]
    cols += [s[a] * s[b] for a, b in pairs]
    cols += [mixed_form_factor(a, b, q, gamma) ** 2 for a, b in pairs]
    return np.column_stack(cols)


def _tabulate(gamma, z_charge, ms, pairs, zeta, edges) -> np.ndarray:
    """Every table at every zeta >= 0: exp(-outer(zeta, q)) @ (w F), in zeta blocks."""
    q, w = _gauss_legendre_rule(edges, NODES_PER_PANEL)
    wf = w[:, None] * _form_factor_columns(gamma, z_charge, ms, pairs, q)
    out = np.empty((len(zeta), wf.shape[1]))
    for i in range(0, len(zeta), _ZETA_CHUNK):
        out[i:i + _ZETA_CHUNK] = np.exp(-np.outer(zeta[i:i + _ZETA_CHUNK], q)) @ wf
    return out


# ---------------------------------------------------------------------------
# graded grid + tabulation


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


def _splines(grid: np.ndarray, tabs: dict) -> dict:
    """One cubic spline per table, cut out of a single multi-column fit."""
    if not tabs:
        return {}
    fit = PiecewisePolynomial.cubic_fit(grid, np.column_stack(list(tabs.values())))
    return {k: PiecewisePolynomial(grid, np.ascontiguousarray(fit.c[..., j]))
            for j, k in enumerate(tabs)}


class KernelTable:
    """Tabulated kernels for one (gamma, nuclear charge, occupied-m set).

    Kernels are even in their argument; splines live on [0, span] and are
    evaluated at |zeta|. Beyond the span the exact point-charge asymptotics
    are used (V -> -Z/|z|, D -> 1/|zeta|, X -> delta_mm'/|zeta|).
    """

    def __init__(self, beta, gamma, z_charge, ms, grid, v_tab, d_tab, x_tab):
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.z_charge = float(z_charge)
        self.ms = tuple(sorted(set(int(m) for m in ms)))
        self.grid = np.asarray(grid, dtype=float)
        self.span = float(self.grid[-1])
        self.v_tab = {int(k): np.asarray(v) for k, v in v_tab.items()}
        self.d_tab = {tuple(k): np.asarray(v) for k, v in d_tab.items()}
        self.x_tab = {tuple(k): np.asarray(v) for k, v in x_tab.items()}
        # one fit for every table: they share the grid, and so the interval
        # search of pair_matrices serves them all
        sp = _splines(self.grid, {**{("v", m): t for m, t in self.v_tab.items()},
                                  **{("d", p): t for p, t in self.d_tab.items()},
                                  **{("x", p): t for p, t in self.x_tab.items()}})
        self._v_sp = {m: sp["v", m] for m in self.v_tab}
        self._d_sp = {p: sp["d", p] for p in self.d_tab}
        self._x_sp = {p: sp["x", p] for p in self.x_tab}

    @staticmethod
    def _pair(m1: int, m2: int) -> tuple[int, int]:
        return (m1, m2) if m1 <= m2 else (m2, m1)

    def nuclear(self, m: int, z):
        az = np.abs(np.asarray(z, dtype=float))
        inside = az < self.span
        out = np.where(inside, self._v_sp[m](np.minimum(az, self.span)),
                       -self.z_charge / np.maximum(az, 1e-300))
        return out if np.ndim(z) else float(out)

    def direct(self, m1: int, m2: int, zeta):
        az = np.abs(np.asarray(zeta, dtype=float))
        inside = az < self.span
        out = np.where(inside, self._d_sp[self._pair(m1, m2)](np.minimum(az, self.span)),
                       1.0 / np.maximum(az, 1e-300))
        return out if np.ndim(zeta) else float(out)

    def exchange(self, m1: int, m2: int, zeta):
        az = np.abs(np.asarray(zeta, dtype=float))
        inside = az < self.span
        tail = (1.0 if m1 == m2 else 0.0) / np.maximum(az, 1e-300)
        out = np.where(inside, self._x_sp[self._pair(m1, m2)](np.minimum(az, self.span)), tail)
        return out if np.ndim(zeta) else float(out)

    def pair_matrices(self, z, ms) -> tuple[dict, dict]:
        """Even and odd image kernels on the half grid ``z``, for every pair of ``ms``.

        On a grid symmetric about 0 whose positive half is ``z``, a pair
        kernel K(|z - z'|) has one block within a half, K(|z_i - z_j|), and
        one across, K(z_i + z_j). Its even and odd image kernels
        Ke = K(|z_i - z_j|) + K(|z_i + z_j|) and
        Ko = K(|z_i - z_j|) - K(|z_i + z_j|) are both symmetric, so one
        Fortran-order (n, n) array holds the two: Ke in its upper triangle,
        diagonal included, and Ko strictly below it. Beside it is kept the
        n-vector delta = diag(Ko) - diag(Ke), so that Ko is the symmetric
        matrix read from the lower triangle plus diag(delta). Returns
        ({(a, b): (packed, delta)}, {(a, b): (packed, delta)}) for the
        direct and the exchange kernels, a <= b. Each K value equals bit
        for bit ``direct(a, b, .)`` or ``exchange(a, b, .)``, beyond-span
        tails included. The spline interval of both arguments is found once
        for all tables, and each table is then one cubic pass, summed in the
        order a :class:`~magqmc.bsplines.PiecewisePolynomial` sums it. Only
        the upper triangle is evaluated, in row blocks of about _PAIR_BLOCK
        points: Ke is written row-wise, Ko mirrored below the diagonal.
        """
        z = np.asarray(z, dtype=float)
        n = len(z)
        ms = sorted(set(int(m) for m in ms))
        pairs = [(a, b) for i, a in enumerate(ms) for b in ms[i:]]
        d = {p: (np.empty((n, n), order="F"), np.empty(n)) for p in pairs}
        x = {p: (np.empty((n, n), order="F"), np.empty(n)) for p in pairs}
        # (coefficients, (packed, delta) outputs, weight of the 1/|zeta| tail)
        jobs = ([(self._d_sp[p].c, d[p], 1.0) for p in pairs]
                + [(self._x_sp[p].c, x[p], float(p[0] == p[1])) for p in pairs])
        rows = max(1, _PAIR_BLOCK // max(2 * n, 1))
        for r0 in range(0, n, rows):
            r1 = min(r0 + rows, n)
            zi, zj = z[r0:r1, None], z[None, r0:]
            # (2, rows, cols): the direct argument, then the image one
            az = np.abs(np.stack([zi - zj, zi + zj]))
            i, s = locate(self.grid, az)
            s2 = s * s
            s3 = s2 * s
            outside = az >= self.span
            inv = 1.0 / np.maximum(az, 1e-300) if outside.any() else None
            tmp = np.empty_like(az)
            # strictly lower triangle and diagonal of the block's leading square
            below, diag = np.tril_indices(r1 - r0, -1), np.diag_indices(r1 - r0)
            for c, (packed, delta), tail in jobs:
                val = np.take(c[3], i)
                val += np.multiply(np.take(c[2], i, out=tmp), s, out=tmp)
                val += np.multiply(np.take(c[1], i, out=tmp), s2, out=tmp)
                val += np.multiply(np.take(c[0], i, out=tmp), s3, out=tmp)
                if inv is not None:
                    val = np.where(outside, tail * inv, val)
                even = np.add(val[0], val[1], out=packed[r0:r1, r0:])
                odd = np.subtract(val[0], val[1], out=tmp[0])
                delta[r0:r1] = odd[diag] - even[diag]
                packed[r1:, r0:r1] = odd[:, r1 - r0:].T
                packed[r0:r1, r0:r1][below] = odd[below]
        return d, x

    # -- serialization ------------------------------------------------------

    def cache_key(self) -> str:
        s = (
            f"gamma={self.gamma!r};z={self.z_charge!r};ms={self.ms};"
            f"span={self.span!r};n={len(self.grid)};h0={self.grid[1] - self.grid[0]!r}"
        )
        return hashlib.sha256(s.encode()).hexdigest()[:16]

    def _arrays(self) -> dict[str, np.ndarray]:
        arrs = {"grid": self.grid}
        for m, tab in sorted(self.v_tab.items()):
            arrs[f"v_{m}"] = tab
        for (a, b), tab in sorted(self.d_tab.items()):
            arrs[f"d_{a}_{b}"] = tab
        for (a, b), tab in sorted(self.x_tab.items()):
            arrs[f"x_{a}_{b}"] = tab
        return arrs

    def checksum(self) -> str:
        return iofiles.checksum(self._arrays())

    def save(self, path) -> None:
        meta = {"beta": self.beta, "gamma": self.gamma, "z_charge": self.z_charge,
                "ms": list(self.ms), "cache_key": self.cache_key(), "interpolation": "cubic"}
        iofiles.write_artifact(path, KERNEL_FORMAT, meta, self._arrays())

    @classmethod
    def load(cls, path) -> "KernelTable":
        meta, arrays = iofiles.read_artifact(path, KERNEL_FORMAT)
        tabs = {"v": {}, "d": {}, "x": {}}
        for name, tab in arrays.items():
            kind, *ms = name.split("_")
            if kind in tabs:
                key = tuple(int(m) for m in ms)
                tabs[kind][key if len(key) > 1 else key[0]] = tab
        return cls(meta["beta"], meta["gamma"], meta["z_charge"], meta["ms"],
                   arrays["grid"], tabs["v"], tabs["d"], tabs["x"])


def image_product(parity: int, packed: np.ndarray, delta: np.ndarray, v: np.ndarray):
    """The even (``parity`` 0) or odd (1) image kernel of a
    :meth:`KernelTable.pair_matrices` array times the vector or C-order
    matrix ``v``.

    A vector goes to BLAS symv. A matrix goes to symm as v^T K, whose
    transpose is returned: v^T is Fortran-order, which the BLAS wrappers
    take without a copy, and symm on one or two columns would pack the
    whole kernel on every call. The odd kernel reads the lower triangle,
    whose diagonal is the even one's, and adds diag(delta) v in place.
    """
    if v.ndim == 1:
        if parity == 0:
            return dsymv(1.0, packed, v)
        return dsymv(1.0, packed, v, beta=1.0, y=delta * v, lower=1, overwrite_y=1)
    vt = v.T
    if parity == 0:
        return dsymm(1.0, packed, vt, side=1).T
    return dsymm(1.0, packed, vt, beta=1.0, c=vt * delta, side=1, lower=1, overwrite_c=1).T


def build_kernel_table(
    field_beta: float,
    gamma: float,
    z_charge: float,
    ms,
    grid: GridSpec,
) -> KernelTable:
    """Tabulate all kernels for the occupied-m set on a graded grid.

    One Gauss-Legendre product rule in q gives every table at once. The
    two-part gate of the module docstring then runs (doubled-panel rule at
    every grid point, splines at every interval midpoint); a failure raises
    :class:`KernelAccuracyError` saying which part failed.
    """
    ms = sorted(set(int(m) for m in ms))
    pairs = [(a, b) for i, a in enumerate(ms) for b in ms[i:]]
    pts = grid.points(gamma)
    mids = 0.5 * (pts[:-1] + pts[1:])
    qmax = max([_nuclear_cutoff(gamma, m) for m in ms]
               + [_pair_cutoff(gamma, a, b) for a, b in pairs])
    edges = _panel_edges(gamma, pts[-1], qmax, max_degree=2 * ms[-1])
    names = ([f"V_{m}" for m in ms] + [f"D_{a}_{b}" for a, b in pairs]
             + [f"X_{a}_{b}" for a, b in pairs])

    t0 = time.perf_counter()
    vals = _tabulate(gamma, z_charge, ms, pairs, np.concatenate([pts, mids]), edges)
    tabs, at_mids = vals[:len(pts)], vals[len(pts):]
    cols = iter(np.ascontiguousarray(tabs.T))
    table = KernelTable(
        field_beta, gamma, z_charge, ms, pts,
        {m: next(cols) for m in ms},
        {p: next(cols) for p in pairs},
        {p: next(cols) for p in pairs},
    )
    floor = 1e-3 * math.sqrt(gamma)
    refined = _tabulate(gamma, z_charge, ms, pairs, pts, _doubled(edges))
    _gate("quadrature", "the rule and the doubled-panel rule disagree at grid points",
          "raise NODES_PER_PANEL", names, tabs, refined, QUAD_RTOL, floor)
    splines = np.column_stack(
        [table.nuclear(m, mids) for m in ms]
        + [table.direct(a, b, mids) for a, b in pairs]
        + [table.exchange(a, b, mids) for a, b in pairs]
    )
    _gate("interpolation", "the splines miss the rule at interval midpoints",
          "refine the grid", names, splines, at_mids, SPLINE_RTOL, floor)
    logger.info(
        "kernel table: %d m-channels, %d pairs, %d points, %d q-nodes in %.3fs (gate passed)",
        len(ms), len(pairs), len(pts), (len(edges) - 1) * NODES_PER_PANEL,
        time.perf_counter() - t0,
    )
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

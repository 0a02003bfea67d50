"""Complex Slater determinant of transverse x longitudinal orbitals.

Evaluation is batched over walker configurations. Every column is a
lowest-Landau-level orbital times a longitudinal factor,
A[w, i, nu] = P_nu(x_i, y_i) f_nu(z_i) with P_nu = c_nu w^m_nu
exp(-gamma rho^2 / 4) and w = x - i y, so its derivatives need no matrix
of their own:

- the transverse factors P and D = c_nu m_nu w^(m_nu - 1) exp(-gamma rho^2/4)
  are read off one power table c_k w^k exp(-gamma rho^2/4), k = 0 .. max(m),
  built by a cumulative product (landau module);
- with S_X[i] = sum_nu X[i, nu] Ainv[nu, i] and (A Ainv)_ii = 1, three
  trace contractions give the gradient and Laplacian rows of log det:

      d/dx = S_B - gamma x / 2,      d/dy = -i S_B - gamma y / 2,
      d/dz = S_{P f'},
      lap  = gamma^2 rho^2 / 4 - gamma - gamma w S_B + S_{P f''},

  where B = D f.

The log-determinant comes from a pivoted factorization (slogdet) and the
contractions from the inverse. Everything stays in log domain, so |det|
spanning hundreds of orders of magnitude is routine; an exactly singular or
underflowed matrix is reported through the ``ok`` mask ("on node") instead
of propagating non-finite values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .landau import transverse_value_grad_lap


class GuidingOrbitals(Protocol):
    """What the determinant (and the sampler's initial draw) needs from an
    orbital set."""

    gamma: float

    @property
    def ms(self) -> np.ndarray: ...

    @property
    def z_domain(self) -> tuple[float, float]: ...

    def longitudinal(self, z): ...


@dataclass
class SlaterEval:
    log_abs: np.ndarray      # (W,)
    phase: np.ndarray        # (W,) in (-pi, pi]
    grad: np.ndarray         # (W, N, 3) complex: rows of grad log det
    lap: np.ndarray          # (W, N) complex: (del_i^2 det)/det
    ok: np.ndarray           # (W,) bool: False on or numerically under a node


def _trace_rows(x: np.ndarray, ainv: np.ndarray) -> np.ndarray:
    """S[w, i] = sum_nu x[w, i, nu] ainv[w, nu, i]."""
    return np.einsum("wiv,wvi->wi", x, ainv)


def slater_eval(orbitals: GuidingOrbitals, r_elec: np.ndarray) -> SlaterEval:
    """Determinant value/derivatives at configurations (..., N, 3)."""
    r = np.asarray(r_elec, dtype=float)
    squeeze = r.ndim == 2
    if squeeze:
        r = r[None]
    n = r.shape[1]
    ms = np.asarray(orbitals.ms, dtype=int)
    if len(ms) != n:
        raise ValueError(f"{n} electrons for {len(ms)} orbitals")
    gamma = orbitals.gamma

    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    p, b = transverse_value_grad_lap(ms, gamma, x, y)
    f, f1, f2 = orbitals.longitudinal(z)

    pf1 = p * f1
    pf2 = p * f2
    a = np.multiply(p, f, out=p)
    b *= f

    sign, log_abs = np.linalg.slogdet(a)
    ok = np.isfinite(log_abs) & (sign != 0)
    if not ok.all():
        a = np.where(ok[:, None, None], a, np.eye(n))
    ainv = np.linalg.inv(a)

    s_b = _trace_rows(b, ainv)
    grad = np.empty(r.shape, dtype=complex)
    grad[..., 0] = s_b - 0.5 * gamma * x
    grad[..., 1] = -1j * s_b - 0.5 * gamma * y
    grad[..., 2] = _trace_rows(pf1, ainv)
    lap = (
        0.25 * gamma * gamma * (x * x + y * y) - gamma
        - gamma * (x - 1j * y) * s_b
        + _trace_rows(pf2, ainv)
    )

    out = SlaterEval(
        log_abs=log_abs,
        phase=np.angle(sign),
        grad=grad,
        lap=lap,
        ok=ok,
    )
    if squeeze:
        return SlaterEval(out.log_abs[0], out.phase[0], out.grad[0], out.lap[0], out.ok[0])
    return out

"""Correctness checks, each against a value the run under test does not produce.

Every check takes the JSON a repetition wrote (see child.py) and returns
a list of failure messages; an empty list passes. They run outside the
timed region.

References and tolerances:

- He+ at 1e8 T: E_HF = -15.2957321371 Ha to 1e-7 relative. Z^2 scaling
  of a one-electron ion gives the same value from hydrogen at 2.5e7 T,
  4 x (-3.8239330342749) Ha, to 1e-15.
- C (N=6) at 5e8 T: E_HF at 24 elements = -282.1865070294 Ha to 1e-7
  relative; 24 and 36 elements agree to 1e-6 relative (3.5e-8 measured);
  ``hf_total_energy`` recomputes the stored ``e_total`` to 1e-10 relative.
- Fe walkers, zero-variance probe: the exactly separable N=26 Hamiltonian
  (harmonic longitudinal factor, omega=50) has E = N omega / 2 = 650 Ha at
  every configuration; at the run's final walkers E_L must match to 1e-6
  relative with |Im E_L| <= 1e-3 Ha.
- Fe walkers, finite-difference probe: the Coulomb+Jastrow local energy
  agrees with central differences of log Psi at h=1e-4 (computed by
  ``fd_local_energy``, which shares only the wave-function value with the
  code) to 1e-3 relative on four final walkers. Those are the first four
  on which a step h changes log Psi by at most 0.05 (``fd_probe_walkers``):
  next to a node of the complex determinant the gradient reaches ~1e4
  and the difference formula, not the code, is what fails there.
- Stage energies lie within ``STAGE_BOUNDS``: the median over 100 seeds
  (He+) or 12 seeds (fe-walkers) plus or minus the larger of 6 standard
  deviations over those seeds and 1.5 times the largest deviation seen
  (``calibrate.py`` reproduces them).
  The per-run ``sem`` is not used, since it ignores autocorrelation.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import FE_OMEGA, FE_Z

HEPLUS_E_HF = -15.2957321371
HEPLUS_E_HF_RTOL = 1e-7
C6_E_HF_24 = -282.1865070294
C6_E_HF_RTOL = 1e-7
C6_BASIS_RTOL = 1e-6
C6_RECOMPUTE_RTOL = 1e-10
FE_EXACT_SEPARABLE = 0.5 * FE_OMEGA * FE_Z
FE_ZV_RTOL = 1e-6
FE_ZV_IMAG_ABS = 1e-3
FE_FD_RTOL = 1e-3
FE_FD_H = 1e-4
FE_FD_MAX_STEP = 0.05  # largest h * |grad log Psi| on a probed walker
FE_FD_WALKERS = 4

#: workload -> stage -> (center, half width) in hartree, from calibrate.py
#: at the version that defined the benchmark: over seeds 1001-1100 for the
#: He+ workloads (--seeds 100), 1001-1012 for fe-walkers
STAGE_BOUNDS: dict[str, dict[str, tuple[float, float]]] = {
    "heplus-cold": {"vqmc": (-15.3808, 0.5949), "fpdqmc": (-15.4642, 0.6768),
                    "rpdqmc": (-15.4783, 0.6395)},
    "heplus-warm": {"vqmc": (-15.3951, 0.4392), "fpdqmc": (-15.47, 0.4522),
                    "rpdqmc": (-15.4577, 0.5034)},
    "fe-walkers": {"vqmc": (-3472.7541, 484.1137)},
}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _stage_failures(workload: str, energies: dict) -> list[str]:
    out = []
    for stage, (center, half) in STAGE_BOUNDS.get(workload, {}).items():
        e = energies.get(stage)
        if e is None or not math.isfinite(e):
            out.append(f"{stage}: no finite energy ({e})")
        elif abs(e - center) > half:
            out.append(f"{stage}: E = {e:.6f} Ha outside {center:.6f} +- {half:.6f}")
    return out


def check_he(workload: str, out: dict) -> list[str]:
    fails = []
    if _rel(out["e_hf"], HEPLUS_E_HF) > HEPLUS_E_HF_RTOL:
        fails.append(f"E_HF = {out['e_hf']!r} Ha, reference {HEPLUS_E_HF!r} "
                     f"(rtol {HEPLUS_E_HF_RTOL:g})")
    return fails + _stage_failures(workload, out["energies"])


def check_c6(workload: str, out: dict) -> list[str]:
    fails = [f"hf exited with {c}" for c in out["exit_codes"] if c != 0]
    scf = out["scf"]
    if set(scf) != {"24", "36"}:
        return fails + [f"SCF results for {sorted(scf)} elements, want 24 and 36"]
    e24, e36 = scf["24"]["e_total"], scf["36"]["e_total"]
    if _rel(e24, C6_E_HF_24) > C6_E_HF_RTOL:
        fails.append(f"E_HF(24) = {e24!r} Ha, reference {C6_E_HF_24!r}")
    if _rel(e36, e24) > C6_BASIS_RTOL:
        fails.append(f"E_HF(36) = {e36!r} and E_HF(24) = {e24!r} differ by more than "
                     f"{C6_BASIS_RTOL:g} relative")
    for e, v in scf.items():
        if _rel(v["e_recomputed"], v["e_total"]) > C6_RECOMPUTE_RTOL:
            fails.append(f"hf_total_energy at {e} elements gives {v['e_recomputed']!r}, "
                         f"stored e_total {v['e_total']!r}")
    return fails


def check_fe(workload: str, out: dict) -> list[str]:
    fails = []
    re = np.asarray(out["zero_variance"]["re"])
    im = np.asarray(out["zero_variance"]["im"])
    worst = float(np.max(np.abs(re - FE_EXACT_SEPARABLE))) / FE_EXACT_SEPARABLE
    if not worst <= FE_ZV_RTOL:
        fails.append(f"separable E_L misses {FE_EXACT_SEPARABLE} Ha by {worst:.2e} relative")
    if not float(np.max(np.abs(im))) <= FE_ZV_IMAG_ABS:
        fails.append(f"separable |Im E_L| reaches {np.max(np.abs(im)):.2e} Ha")
    code = np.array([complex(*p) for p in out["fd"]["code"]])
    ref = np.array([complex(*p) for p in out["fd"]["ref"]])
    if len(ref) != FE_FD_WALKERS:
        fails.append(f"{len(ref)} walkers fit for the finite-difference probe, want {FE_FD_WALKERS}")
    fd = float(np.max(np.abs(code - ref) / np.abs(ref), initial=0.0))
    if not fd <= FE_FD_RTOL:
        fails.append(f"E_L differs from finite differences of log Psi by {fd:.2e} relative")
    return fails + _stage_failures(workload, out["energies"])


CHECKS = {"he": check_he, "c6": check_c6, "fe": check_fe}


def check_same_run(first: dict, rep: dict) -> list[str]:
    """A repetition of the same seed, traced or not, matches the first bit for bit."""
    fails = []
    if rep["rows"] != first["rows"]:
        fails.append("trace rows differ from the first repetition")
    if rep["energies"] != first["energies"]:
        fails.append("stage energies differ from the first repetition")
    return fails


def fd_probe_walkers(drift: np.ndarray, phase_grad: np.ndarray) -> np.ndarray:
    """Indices of the first walkers whose log Psi varies slowly on the scale FE_FD_H."""
    grad = np.sqrt(np.sum(drift**2 + phase_grad**2, axis=-1)).max(axis=-1)
    return np.flatnonzero(FE_FD_H * grad <= FE_FD_MAX_STEP)[:FE_FD_WALKERS]


def fd_local_energy(evaluate, r: np.ndarray, gamma: float, z_charge: float,
                    h: float = FE_FD_H) -> np.ndarray:
    """Local energy from central differences of log Psi, for comparison.

    ``evaluate(R)`` must give ``log_abs`` and ``phase`` for a batch of
    configurations (K, N, 3). The kinetic energy of the symmetric gauge,
    (p + A)^2 / 2 = -lap/2 + (gamma/2) L_z + gamma^2 rho^2 / 8, is built
    from differences of log Psi = log|Psi| + i phase; the Coulomb
    potential and the spin term (-N gamma / 2) are computed here directly.
    """
    r = np.asarray(r, dtype=float)
    k, n, _ = r.shape
    d = 3 * n
    steps = np.zeros((2 * d + 1, d))
    steps[1::2] = h * np.eye(d)
    steps[2::2] = -h * np.eye(d)
    pts = r.reshape(k, 1, d) + steps[None]
    ev = evaluate(pts.reshape(-1, n, 3))
    la = np.asarray(ev.log_abs).reshape(k, 2 * d + 1)
    ph = np.asarray(ev.phase).reshape(k, 2 * d + 1)

    def wrap(a):
        return np.angle(np.exp(1j * a))

    l0, lp, lm = la[:, :1], la[:, 1::2], la[:, 2::2]
    p0, pp, pm = ph[:, :1], ph[:, 1::2], ph[:, 2::2]
    grad = ((lp - lm) + 1j * wrap(pp - pm)) / (2 * h)
    second = ((lp - 2 * l0 + lm) + 1j * (wrap(pp - p0) + wrap(pm - p0))) / h**2
    lap_over_psi = np.sum(second + grad**2, axis=1)

    g = grad.reshape(k, n, 3)
    x, y = r[..., 0], r[..., 1]
    lz = -1j * np.sum(x * g[..., 1] - y * g[..., 0], axis=1)

    ri = np.sqrt(np.sum(r * r, axis=-1))
    iu, ju = np.triu_indices(n, k=1)
    rij = np.sqrt(np.sum((r[:, iu] - r[:, ju]) ** 2, axis=-1))
    potential = -z_charge * np.sum(1.0 / ri, axis=1) + np.sum(1.0 / rij, axis=1)
    rho2 = np.sum(x * x + y * y, axis=1)
    return (-0.5 * lap_over_psi + 0.5 * gamma * lz + gamma**2 / 8.0 * rho2
            + potential - 0.5 * gamma * n)

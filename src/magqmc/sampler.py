"""Walker population and Metropolis drift-diffusion sampling of |Psi_G|^2.

Walkers advance together as batched arrays: one all-electron
drift-diffusion proposal per walker per step,

    R' = R + drift(R) dtau + xi,   xi ~ N(0, dtau) per coordinate,

accepted with the Metropolis-Hastings ratio for |Psi_G|^2 including the
asymmetric-proposal (Green's function) correction. The same step serves
every stage of :func:`magqmc.dqmc.run_stage`: the variational stage takes
it as it is (weights stay 1), the diffusion stages through ``fp_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SamplingError
from .guiding import GuidingEval, GuidingFunction


@dataclass
class WalkerPopulation:
    r: np.ndarray        # (W, N, 3)
    weight: np.ndarray   # (W,)
    phase: np.ndarray    # (W,) accumulated released-phase angle (path-continuous)
    age: np.ndarray      # (W,) steps since last accepted move
    ev: GuidingEval      # cached evaluation at r

    @property
    def size(self) -> int:
        return len(self.weight)

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weight))


@dataclass
class BlockStats:
    """One row of the run trace."""

    stage: str
    index: int                # block index within its stage
    e_block: float            # block energy estimate (hartree)
    e_avg: float              # running mean over post-equilibration blocks
    sigma: float              # std of post-equilibration block energies so far
    acceptance: float
    population: int
    e_trial: float            # energy offset (nan in the variational stage)
    rp_signal: float          # released-phase signal magnitude (nan otherwise)
    equilibration: bool
    excluded: bool = False    # dropped from averages (lost released-phase signal)


def metropolis_step(
    pop: WalkerPopulation, guiding: GuidingFunction, dtau: float, rng: np.random.Generator
) -> tuple[WalkerPopulation, int]:
    """Advance every walker by one drift-diffusion proposal; returns accept count."""
    w = pop.size
    noise = rng.standard_normal(pop.r.shape) * math.sqrt(dtau)
    r_new = pop.r + pop.ev.drift * dtau + noise
    ev_new = guiding.evaluate(r_new)

    back = pop.r - r_new - dtau * ev_new.drift
    log_t = (np.sum(noise * noise, axis=(1, 2)) - np.sum(back * back, axis=(1, 2))) / (
        2.0 * dtau
    )
    log_ratio = 2.0 * (ev_new.log_abs - pop.ev.log_abs) + log_t
    log_ratio = np.where(ev_new.ok, log_ratio, -np.inf)
    accept = np.log(rng.random(w)) < log_ratio

    new_pop = replace(
        pop,
        r=np.where(accept[:, None, None], r_new, pop.r),
        age=np.where(accept, 0, pop.age + 1),
        ev=ev_new.where(accept, pop.ev),
    )
    return new_pop, int(np.count_nonzero(accept))


def init_walkers(
    guiding: GuidingFunction,
    n_walkers: int,
    rng: np.random.Generator,
    z_domain: tuple[float, float] | None = None,
    pre_steps: int = 50,
) -> WalkerPopulation:
    """Seeded starting population matched to the orbital supports.

    Transverse coordinates of electron slot k are Gaussian with
    <rho^2> = 2(m_k+1)/gamma; longitudinal coordinates are drawn from the
    slot's |f|^2 by inverse CDF on a fine grid over ``z_domain`` (by
    default the orbitals' own). Walkers landing on a node are redrawn, then
    the population is pre-equilibrated with a few Metropolis steps.
    Deterministic for a given generator state.
    """
    orbitals = guiding.orbitals
    ms = np.asarray(orbitals.ms)
    n = len(ms)
    gamma = orbitals.gamma

    z_lo, z_hi = orbitals.z_domain if z_domain is None else z_domain
    zgrid = np.linspace(z_lo, z_hi, 4001)
    f, _, _ = orbitals.longitudinal(zgrid)
    dens = f**2
    cdfs = np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(zgrid)[:, None], axis=0)
    cdfs = np.vstack([np.zeros(n), cdfs])
    cdfs /= cdfs[-1]

    def draw(count: int) -> np.ndarray:
        r = np.empty((count, n, 3))
        sigma = np.sqrt((ms + 1) / gamma)
        r[:, :, 0] = rng.standard_normal((count, n)) * sigma
        r[:, :, 1] = rng.standard_normal((count, n)) * sigma
        u = rng.random((count, n))
        for k in range(n):
            r[:, k, 2] = np.interp(u[:, k], cdfs[:, k], zgrid)
        return r

    r = draw(n_walkers)
    ev = guiding.evaluate(r)
    for _ in range(100):
        bad = ~ev.ok
        if not np.any(bad):
            break
        r[bad] = draw(int(np.count_nonzero(bad)))
        ev = guiding.evaluate(r)
    else:
        raise SamplingError("could not draw a node-free initial population")

    pop = WalkerPopulation(
        r=r,
        weight=np.ones(n_walkers),
        phase=np.zeros(n_walkers),
        age=np.zeros(n_walkers, dtype=int),
        ev=ev,
    )
    dtau_pre = 0.5 / gamma
    for _ in range(pre_steps):
        pop, _ = metropolis_step(pop, guiding, dtau_pre, rng)
    return pop


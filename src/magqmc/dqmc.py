"""Fixed-phase and released-phase diffusion of the walker population.

Each diffusion step is the Metropolis drift-diffusion move of the sampler
followed by the short-time branching weight

    w *= exp(-dtau (  (E_L(R') + E_L(R))/2 - E_T ))

with the fixed-phase local energy E_L = Re(complex local energy); walkers
are then stochastically replicated (floor(w + u) copies, copies reset to
weight 1). The energy offset E_T is updated once per block by a
logarithmic population feedback. The released stage additionally
integrates each walker's phase, d(theta) = -dtau Im(E_L) (midpoint rule),
and estimates energies with complex weights w e^{i theta}; the coherence
|sum w e^{i theta}| / sum w is reported as the signal diagnostic.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import StageSpec
from .guiding import GuidingFunction
from .sampler import (
    BlockStats,
    WalkerPopulation,
    _merge_eval,
    _take_eval,
    metropolis_step,
    vqmc_block,
)

logger = logging.getLogger(__name__)

WEIGHT_CLAMP = (1e-12, 1e12)
SIGNAL_FLOOR = 0.1
POPULATION_CAP_FACTOR = 10


class PopulationControlError(RuntimeError):
    """Walker population escaped its control bounds."""


@dataclass
class PopulationControl:
    """Energy-offset feedback keeping the population near its target."""

    e_trial: float
    target: int
    tau_block: float          # steps_per_block * dtau
    gain: float = 0.1
    history: list = field(default_factory=list)  # recent block energies

    def update(self, block_energy: float, population: int) -> float:
        self.history.append(float(block_energy))
        recent = self.history[-20:]
        e_t = block_energy + self.gain / self.tau_block * math.log(self.target / population)
        if len(recent) >= 2:
            sig = float(np.std(recent))
            lo = min(recent) - 10.0 * sig
            hi = max(recent) + 10.0 * sig
            e_t = min(max(e_t, lo), hi)
        if not math.isfinite(e_t):
            raise PopulationControlError(f"energy offset became {e_t}")
        self.e_trial = e_t
        return e_t


def branch(pop: WalkerPopulation, rng: np.random.Generator, target: int) -> WalkerPopulation:
    """Stochastic integer replication; copies restart at weight 1.

    Expected copy count equals the walker weight. At least one walker
    always survives (the heaviest), and a population beyond
    POPULATION_CAP_FACTOR * target aborts as a control failure.
    """
    u = rng.random(pop.size)
    copies = np.floor(pop.weight + u).astype(int)
    if copies.sum() == 0:
        copies[int(np.argmax(pop.weight))] = 1
    idx = np.repeat(np.arange(pop.size), copies)
    if len(idx) > POPULATION_CAP_FACTOR * target:
        raise PopulationControlError(
            f"population {len(idx)} exceeded {POPULATION_CAP_FACTOR}x target {target}; "
            "energy offset feedback failed (check dtau and the guiding function)"
        )
    return WalkerPopulation(
        r=pop.r[idx],
        weight=np.ones(len(idx)),
        phase=pop.phase[idx],
        age=pop.age[idx],
        ev=_take_eval(pop.ev, idx),
    )


def update_offset(control: PopulationControl, block_energy: float, population: int) -> float:
    """E_T <- E_B + (gain / tau_block) ln(target / population), clamped."""
    return control.update(block_energy, population)


@dataclass
class StepDiagnostics:
    clamped: int = 0
    accepted: int = 0
    proposed: int = 0


def fp_step(
    pop: WalkerPopulation,
    guiding: GuidingFunction,
    dtau: float,
    e_trial: float,
    rng: np.random.Generator,
    released: bool = False,
    use_metropolis: bool = True,
    diag: StepDiagnostics | None = None,
) -> WalkerPopulation:
    """One drift-diffusion-branching step at fixed (or released) phase."""
    e_old = pop.ev.e_loc
    if use_metropolis:
        pop, n_acc = metropolis_step(pop, guiding, dtau, rng)
    else:
        noise = rng.standard_normal(pop.r.shape) * math.sqrt(dtau)
        r_new = pop.r + pop.ev.drift * dtau + noise
        ev_new = guiding.evaluate(r_new)
        good = ev_new.ok
        pop = replace(
            pop,
            r=np.where(good[:, None, None], r_new, pop.r),
            age=np.where(good, 0, pop.age + 1),
            ev=_merge_eval(good, ev_new, pop.ev),
        )
        n_acc = int(np.count_nonzero(good))
    e_new = pop.ev.e_loc

    e_mid_fp = 0.5 * (np.real(e_old) + np.real(e_new))
    lo, hi = WEIGHT_CLAMP
    # bound the exponent one e-fold past the clamp so exp cannot overflow; a
    # bounded weight still lands beyond the clamp and is clipped as before
    log_growth = np.clip(-dtau * (e_mid_fp - e_trial),
                         np.log(lo / pop.weight) - 1.0, np.log(hi / pop.weight) + 1.0)
    weight = pop.weight * np.exp(log_growth)
    clamped = int(np.count_nonzero((weight < lo) | (weight > hi)))
    if diag is not None:
        diag.clamped += clamped
        diag.accepted += n_acc
        diag.proposed += pop.size
    if clamped:
        weight = np.clip(weight, lo, hi)

    phase = pop.phase
    if released:
        phase = phase - dtau * 0.5 * (np.imag(e_old) + np.imag(e_new))
    return replace(pop, weight=weight, phase=phase)


@dataclass
class StageResult:
    stage: str
    stats: list[BlockStats]
    energy: float          # final <E_B> over post-equilibration (kept) blocks
    sigma: float           # std of those block energies
    sem: float             # sigma / sqrt(n_kept)
    spec: StageSpec
    weight_clamps: int = 0
    signal_lost_block: int | None = None

    @property
    def n_kept(self) -> int:
        return sum(1 for s in self.stats if not s.equilibration and not s.excluded)


def _running(kept: list[float]) -> tuple[float, float]:
    if not kept:
        return float("nan"), float("nan")
    avg = float(np.mean(kept))
    sig = float(np.std(kept, ddof=1)) if len(kept) >= 2 else float("nan")
    return avg, sig


def run_stage(
    pop: WalkerPopulation,
    guiding: GuidingFunction,
    spec: StageSpec,
    dtau: float,
    rng: np.random.Generator,
    control: PopulationControl | None = None,
    released: bool = False,
    dtau_metropolis: float | None = None,
    use_metropolis: bool = True,
    on_block=None,
    start_block: int = 0,
    prior_stats: list[BlockStats] | None = None,
) -> tuple[WalkerPopulation, StageResult]:
    """Run (or resume) one stage of the schedule, one BlockStats per block."""
    stats: list[BlockStats] = list(prior_stats or [])
    kept = [s.e_block for s in stats if not s.equilibration and not s.excluded]
    signal_lost_at = next((s.index for s in stats if s.excluded), None)
    diag = StepDiagnostics()
    warned_acceptance = False
    if released and start_block == 0:
        pop = replace(pop, phase=np.zeros(pop.size))

    for blk in range(start_block, spec.n_blocks):
        if control is None:
            step = dtau if dtau_metropolis is None else dtau_metropolis
            pop, e_block, acceptance = vqmc_block(pop, guiding, spec.steps_per_block, step, rng)
            signal = float("nan")
            e_t = float("nan")
            population = pop.size
        else:
            num = 0.0 + 0.0j if released else 0.0
            den = 0.0 + 0.0j if released else 0.0
            mag_den = 0.0
            diag.accepted = diag.proposed = 0
            for _ in range(spec.steps_per_block):
                pop = fp_step(
                    pop, guiding, dtau, control.e_trial, rng,
                    released=released, use_metropolis=use_metropolis, diag=diag,
                )
                if released:
                    cw = pop.weight * np.exp(1j * pop.phase)
                    num += np.sum(cw * pop.ev.e_loc)
                    den += np.sum(cw)
                    mag_den += pop.total_weight
                else:
                    num += float(np.sum(pop.weight * np.real(pop.ev.e_loc)))
                    den += pop.total_weight
                pop = branch(pop, rng, control.target)
            if released:
                e_block = float(np.real(num / den))
                signal = float(abs(den) / mag_den)
            else:
                e_block = num / den
                signal = float("nan")
            acceptance = diag.accepted / max(diag.proposed, 1)
            population = pop.size
            e_t = control.update(e_block, population)

        if not warned_acceptance and (acceptance < 0.01 or acceptance > 0.99):
            warned_acceptance = True
            logger.warning(
                "%s acceptance %.1f%% in block %d is pathological; %s the "
                "Metropolis step (dtau_metropolis for the variational stage)",
                spec.stage, 100 * acceptance, blk,
                "increase" if acceptance > 0.99 else "decrease",
            )
        equil = blk < spec.equilibration_blocks
        excluded = False
        if released and signal_lost_at is None and not math.isnan(signal) and signal < SIGNAL_FLOOR:
            signal_lost_at = blk
            logger.warning("released-phase signal lost at block %d (%.3f)", blk, signal)
        if signal_lost_at is not None and blk >= signal_lost_at:
            excluded = True
        if not equil and not excluded:
            kept.append(e_block)
        e_avg, sigma = _running(kept)
        row = BlockStats(
            stage=spec.stage,
            index=blk,
            e_block=e_block,
            e_avg=e_avg,
            sigma=sigma,
            acceptance=acceptance,
            population=population,
            e_trial=e_t,
            rp_signal=signal,
            equilibration=equil,
            excluded=excluded,
        )
        stats.append(row)
        if on_block is not None:
            on_block(pop, row, control)

    e_avg, sigma = _running(kept)
    sem = sigma / math.sqrt(len(kept)) if len(kept) >= 2 else float("nan")
    return pop, StageResult(
        stage=spec.stage,
        stats=stats,
        energy=e_avg,
        sigma=sigma,
        sem=sem,
        spec=spec,
        weight_clamps=diag.clamped,
        signal_lost_block=signal_lost_at,
    )

"""End-to-end orchestration: kernels -> SCF -> three sampling stages.

The walker population flows through the schedule in order; the energy
offset of the first diffusion stage starts from the preceding stage's
average (or the current population's mean local energy). Per-block trace
rows, rolling checkpoints, a final summary and a run manifest land in the
config's output directory. With a fixed seed a run is bit-reproducible,
including through kill/resume at any checkpoint.

Stages are keyed by their name, which is unique in a schedule: the trace
rows, the summary keys, ``--stages`` and the checkpoint all identify a
stage by it. A checkpoint holds the rows of every stage run so far, the
walkers, the generator state and the population control of the stage it
was written in. Resuming it with the same stage at the same position of
the requested schedule continues that stage after its rows (its
``prior_stats``); any other schedule takes only the walkers and generator
state and starts the schedule afresh.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# numpy loads its random module on first use: here, at import, not inside a run
from numpy.random import default_rng

from . import iofiles
from .config import ConfigError, RunConfig, config_hash, physics_hash, render_config
from .dqmc import PopulationControl, StageResult, run_stage
from .guiding import GuidingFunction, Hamiltonian
from .hf import OrbitalSet, basis_for_config, load_orbitals, save_orbitals, scf
from .iofiles import ArtifactError
from .jastrow import JastrowParams
from .kernels import GridSpec, KernelTable, build_kernel_table, cache_key
from .sampler import BlockStats, WalkerPopulation, init_walkers
from .units import EnergyValue, hartree_to_kev

logger = logging.getLogger(__name__)

CACHE_DIR_ENV = "MAGQMC_CACHE_DIR"


def kernel_cache_dir(cfg: RunConfig) -> Path:
    env = os.environ.get(CACHE_DIR_ENV)
    return Path(env) if env else Path(cfg.outdir) / "cache"


def kernel_grid_for(cfg: RunConfig) -> GridSpec:
    return GridSpec(span=2.04 * cfg.hf_domain)


def _load_or_build(path: Path, force: bool, load, build, save, hit: str, unusable: str):
    """Load ``path`` unless ``force``; if it is missing or fails to load (the
    ``unusable`` warning), build, save and return it. Returns (object, path,
    cache_hit)."""
    if path.exists() and not force:
        try:
            obj = load(path)
            logger.info(hit, path)
            return obj, path, True
        except ArtifactError as exc:
            logger.warning(unusable, path, exc)
    path.parent.mkdir(parents=True, exist_ok=True)
    obj = build()
    save(path, obj)
    return obj, path, False


def ensure_kernels(cfg: RunConfig, force: bool = False) -> tuple[KernelTable, Path, bool]:
    """Build or reuse the cached kernel table; returns (table, path, cache_hit)."""
    grid = kernel_grid_for(cfg)
    gamma = cfg.field.gamma
    ms = sorted(set(o.m for o in cfg.occupations))
    path = kernel_cache_dir(cfg) / f"kernels_{cache_key(gamma, float(cfg.z), ms, grid)}.npz"
    return _load_or_build(
        path, force, KernelTable.load,
        lambda: build_kernel_table(cfg.field.beta, gamma, float(cfg.z), ms, grid),
        lambda p, table: table.save(p),
        "kernel cache hit: %s", "kernel cache %s unusable (%s); rebuilding",
    )


def orbital_path(cfg: RunConfig) -> Path:
    return Path(cfg.outdir) / f"orbitals_{physics_hash(cfg)}.npz"


def ensure_orbitals(
    cfg: RunConfig, kernels: KernelTable, force: bool = False
) -> tuple[OrbitalSet, Path, bool]:
    """Reuse the orbital file of this physics hash or run the SCF; returns
    (orbitals, path, cache_hit)."""
    phys = physics_hash(cfg)
    return _load_or_build(
        orbital_path(cfg), force,
        lambda p: load_orbitals(p, expect_physics_hash=phys),
        lambda: scf(cfg, kernels, basis_for_config(cfg)),
        lambda p, orbs: save_orbitals(p, orbs, physics_hash=phys, config_hash=config_hash(cfg)),
        "orbital cache hit: %s", "orbital file %s unusable (%s); re-running SCF",
    )


def guiding_for(cfg: RunConfig, orbitals: OrbitalSet) -> GuidingFunction:
    ham = Hamiltonian(
        gamma=cfg.field.gamma,
        nuclear_charge=float(cfg.z),
        spin_zeeman_included=cfg.spin_zeeman_included,
    )
    jas = JastrowParams(
        beta=cfg.field.beta, z_charge=float(cfg.z), n_electrons=cfg.n_electrons
    )
    return GuidingFunction(orbitals, ham, jas)


@dataclass
class PipelineResult:
    config: RunConfig
    hf_energy: EnergyValue
    stages: list[StageResult]
    trace_path: Path
    summary_path: Path
    manifest_path: Path

    @property
    def final(self) -> StageResult:
        return self.stages[-1]


def run_pipeline(
    cfg: RunConfig,
    resume: str | os.PathLike | None = None,
    stages: list[str] | None = None,
) -> PipelineResult:
    """Execute the configured schedule, optionally a subset or a resume."""
    t_start = time.perf_counter()
    cfg_hash = config_hash(cfg)
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    trace_path = outdir / "trace.csv"
    summary_path = outdir / "summary.txt"
    manifest_path = outdir / "manifest.json"
    ckpt_path = outdir / "checkpoint.npz"
    schedule = [s for s in cfg.schedule if stages is None or s.stage in stages]
    if not schedule:
        raise ConfigError([f"no stages to run (requested {stages})"])
    ck = None if resume is None else iofiles.load_checkpoint(resume, expect_config_hash=cfg_hash)

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    kernels, kernel_path, _ = ensure_kernels(cfg)
    timings["kernels"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    orbitals, orb_path, _ = ensure_orbitals(cfg, kernels)
    timings["hf"] = time.perf_counter() - t0
    hf_energy = EnergyValue(orbitals.e_total)
    logger.info("adiabatic reference energy: %s", hf_energy)

    guiding = guiding_for(cfg, orbitals)

    # --- state: fresh or resumed -------------------------------------------
    rng = default_rng(cfg.seed)
    stage_rows: dict[str, list[BlockStats]] = {}
    start_stage, resumed_control = 0, None
    if ck is not None:
        rng.bit_generator.state = ck["rng_state"]
        wk = ck["walkers"]
        pop = WalkerPopulation(
            r=wk["r"], weight=wk["weight"], phase=wk["phase"],
            age=wk["age"].astype(int), ev=guiding.evaluate(wk["r"]),
        )
        idx, name = ck["stage_index"], ck["stage_name"]
        if idx < len(schedule) and schedule[idx].stage == name:
            # the same stage at the same position: continue it in place
            stage_rows, start_stage, resumed_control = ck["stage_rows"], idx, ck["control"]
            logger.info("resumed %s after block %d from %s",
                        name, len(stage_rows[name]), resume)
        else:
            # another stage selection: carry the population over, start fresh
            logger.info(
                "checkpoint stage %r not at the same position in the requested "
                "schedule %s; carrying the population over and starting at %s",
                name, [s.stage for s in schedule], schedule[0].stage,
            )
    else:
        t0 = time.perf_counter()
        pop = init_walkers(guiding, cfg.n_walkers, rng)
        timings["init"] = time.perf_counter() - t0

    # the trace so far: its header plus the rows a resumed checkpoint carries
    trace_fh = open(trace_path, "w")
    trace_fh.write(iofiles.trace_header(cfg_hash) + "".join(
        iofiles.trace_row(row) for rows in stage_rows.values() for row in rows))
    trace_fh.flush()

    def writer(stage_idx):
        spec = schedule[stage_idx]

        def on_block(pop_now, row, control_now):
            trace_fh.write(iofiles.trace_row(row))
            trace_fh.flush()
            stage_rows[spec.stage].append(row)
            due = cfg.checkpoint_every and (row.index + 1) % cfg.checkpoint_every == 0
            if due or row.index + 1 == spec.n_blocks:
                iofiles.save_checkpoint(
                    ckpt_path, cfg_hash, pop_now, rng,
                    stage_index=stage_idx, next_block=row.index + 1,
                    stage_name=spec.stage, stage_rows=stage_rows, control=control_now,
                )
        return on_block

    results: list[StageResult] = []
    try:
        for idx, spec in enumerate(schedule):
            prior = stage_rows.setdefault(spec.stage, [])
            if idx < start_stage:
                results.append(StageResult.from_stats(spec, prior))
                continue
            control = resumed_control if idx == start_stage else None
            if control is None and spec.stage != "vqmc":
                control = PopulationControl(
                    e_trial=_initial_offset(results, pop),
                    target=cfg.n_walkers,
                    tau_block=spec.steps_per_block * cfg.dtau,
                )
            dtau = cfg.vqmc_step if spec.stage == "vqmc" else cfg.dtau
            t0 = time.perf_counter()
            pop, res = run_stage(pop, guiding, spec, dtau, rng, control=control,
                                 on_block=writer(idx), prior_stats=prior)
            timings[spec.stage] = time.perf_counter() - t0
            results.append(res)
            logger.info(
                "%s: <E_B> = %.6f hartree (%.5f keV), sigma = %.4g, population %d",
                spec.stage, res.energy, hartree_to_kev(res.energy), res.sigma, pop.size,
            )
    finally:
        trace_fh.close()

    summary = _summary_fields(cfg, hf_energy, results)
    iofiles.write_summary(summary_path, cfg_hash, summary)
    manifest = {
        "config_hash": cfg_hash,
        "physics_hash": physics_hash(cfg),
        "format": "magqmc-manifest/1",
        "config": render_config(cfg),
        "artifacts": {
            "kernels": str(kernel_path),
            "orbitals": str(orb_path),
            "trace": str(trace_path),
            "summary": str(summary_path),
            "checkpoint": str(ckpt_path),
        },
        "scf_iterations": len(orbitals.scf_energies),
        "versions": {"numpy": np.__version__},
        "timings_sec": {k: round(v, 3) for k, v in timings.items()},
        "total_sec": round(time.perf_counter() - t_start, 3),
    }
    iofiles.write_manifest(manifest_path, manifest)
    return PipelineResult(
        config=cfg,
        hf_energy=hf_energy,
        stages=results,
        trace_path=trace_path,
        summary_path=summary_path,
        manifest_path=manifest_path,
    )


def _initial_offset(results: list[StageResult], pop: WalkerPopulation) -> float:
    for res in reversed(results):
        if np.isfinite(res.energy):
            return res.energy
    w = pop.weight
    return float(np.sum(w * np.real(pop.ev.e_loc)) / np.sum(w))


def _summary_fields(cfg: RunConfig, hf_energy: EnergyValue, results: list[StageResult]) -> dict:
    fields: dict = {
        "z": cfg.z,
        "n_electrons": cfg.n_electrons,
        "beta": cfg.field.beta,
        "b_tesla": cfg.field.b_tesla,
        "seed": cfg.seed,
        "n_walkers": cfg.n_walkers,
        "dtau": cfg.dtau,
        "spin_zeeman": str(cfg.spin_zeeman_included).lower(),
        "schedule": " ".join(map(str, cfg.schedule)),
        "hf_hartree": hf_energy.hartree,
        "hf_kev": hf_energy.kev,
    }
    for res in results:
        fields[f"{res.stage}_hartree"] = res.energy
        fields[f"{res.stage}_kev"] = hartree_to_kev(res.energy)
        fields[f"{res.stage}_sigma_hartree"] = res.sigma
        fields[f"{res.stage}_sigma_kev"] = hartree_to_kev(res.sigma)
        fields[f"{res.stage}_sem_hartree"] = res.sem
        fields[f"{res.stage}_blocks_kept"] = res.n_kept
        if res.signal_lost_block is not None:
            fields[f"{res.stage}_signal_lost_block"] = res.signal_lost_block
    if results:
        last = results[-1]
        fields["final_hartree"] = last.energy
        fields["final_kev"] = hartree_to_kev(last.energy)
        fields["final_sigma_kev"] = hartree_to_kev(last.sigma)
    return fields

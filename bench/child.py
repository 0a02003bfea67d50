"""One repetition of a workload, in a fresh process.

    python bench/child.py --workload NAME --seed N --trace 0|1 --workdir DIR --out FILE
    python bench/child.py --prepare he|c6 --workdir DIR

run.py starts this with single-threaded BLAS, ``MAGQMC_CACHE_DIR`` pointing
into the repetition's own directory and ``PYTHONPATH`` at the checkout's
``src``. The timed region is the call into the workload's entry point; the
data the correctness checks need is gathered after it, with tracing off,
and written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path

import numpy as np

from checks import fd_local_energy, fd_probe_walkers
from layers import LAYER_TARGETS, STAGE_TARGETS, layer_metrics
from tracer import Tracer
from workloads import (
    C6_ELEMENTS, C6_PHYSICS, FE_B_TESLA, FE_DTAU, FE_OMEGA, FE_WALKERS, FE_Z,
    HEPLUS_PHYSICS, WORKLOADS, Workload, config_text,
)


def _timed(tracer: Tracer, fn):
    """Run the entry point inside the root span; tracing ends with it.

    Returns (output, timings); peak memory is read before the checks run.
    """
    root = tracer.begin("entry")
    try:
        out = fn()
    finally:
        tracer.end(root)
        tracer.uninstall()
    entry = tracer.spans[root]
    first = tracer.first("run_stage")
    return out, {
        "setup_s": (first.start if first else entry.end) - entry.start,
        "wall_s": entry.duration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_he(wl: Workload, seed: int, workdir: Path, tracer: Tracer) -> dict:
    from magqmc import config, pipeline

    outdir = workdir / "out"
    cfg = config.parse_config_text(config_text(
        HEPLUS_PHYSICS, schedule=wl.schedule_text, seed=seed, outdir=outdir))
    result, timings = _timed(tracer, lambda: pipeline.run_pipeline(cfg))
    # rows below the hash line and the column header: the hash covers outdir
    rows = (outdir / "trace.csv").read_text().splitlines()[2:]
    return {
        **timings,
        "walker_steps": HEPLUS_PHYSICS["n_walkers"] * wl.steps,
        "e_hf": result.hf_energy.hartree,
        "energies": {s.stage: s.energy for s in result.stages},
        "rows": rows,
    }


def run_c6(wl: Workload, seed: int, workdir: Path, tracer: Tracer) -> dict:
    from magqmc import cli, config, hf, pipeline

    def argv(elements):
        fields = {**C6_PHYSICS, "hf_elements": elements, "seed": seed,
                  "outdir": workdir / f"e{elements}"}
        return ["hf"] + [a for k, v in fields.items() for a in ("--set", f"{k}={v}")]

    def study():
        return [cli.main(argv(e)) for e in C6_ELEMENTS]

    codes, timings = _timed(tracer, study)
    # no sampling stage: the whole run is set-up
    out = {**timings, "setup_s": timings["wall_s"], "walker_steps": 0, "exit_codes": codes,
           "scf": {}}
    for e in C6_ELEMENTS:
        files = sorted((workdir / f"e{e}").glob("orbitals_*.npz"))
        if not files:
            continue
        cfg = config.parse_config_text(config_text(
            C6_PHYSICS, hf_elements=e, outdir=workdir / f"e{e}"))
        orbs = hf.load_orbitals(files[0])
        kernels, _, _ = pipeline.ensure_kernels(cfg)
        out["scf"][str(e)] = {
            "e_total": orbs.e_total,
            "iterations": len(orbs.scf_energies),
            "e_recomputed": hf.hf_total_energy(orbs, kernels).hartree,
        }
    out["rows"] = [f"{e},{v['e_total']!r},{v['iterations']}" for e, v in out["scf"].items()]
    out["energies"] = {}
    return out


def run_fe(wl: Workload, seed: int, workdir: Path, tracer: Tracer) -> dict:
    from magqmc import config, dqmc, guiding, jastrow, oracles, sampler, units

    field = units.beta_from_tesla(FE_B_TESLA)
    half = 8.0 / math.sqrt(FE_OMEGA)
    specs = [config.StageSpec(*s) for s in wl.schedule]

    def walk():
        orbs = oracles.HarmonicLongitudinal(range(FE_Z), field.gamma, FE_OMEGA)
        ham = guiding.Hamiltonian(gamma=field.gamma, nuclear_charge=float(FE_Z))
        jas = jastrow.JastrowParams(field.beta, float(FE_Z), FE_Z)
        g = guiding.GuidingFunction(orbs, ham, jas)
        rng = np.random.default_rng(seed)
        pop = sampler.init_walkers(g, FE_WALKERS, rng, z_domain=(-half, half))
        results = []
        for spec in specs:
            pop, res = dqmc.run_stage(pop, g, spec, FE_DTAU, rng)
            results.append(res)
        return g, pop, results

    (g, pop, results), timings = _timed(tracer, walk)

    case = oracles.separable_test_hamiltonian(field.gamma, FE_OMEGA, FE_Z)
    exact = guiding.GuidingFunction(case.orbitals, case.hamiltonian()).evaluate(pop.r)
    ev = g.evaluate(pop.r)
    probe = pop.r[fd_probe_walkers(ev.drift, ev.phase_grad)]
    return {
        **timings,
        "walker_steps": FE_WALKERS * wl.steps,
        "energies": {r.stage: r.energy for r in results},
        "rows": [f"{s.stage},{s.index},{s.e_block!r},{s.acceptance!r},{s.population}"
                 for r in results for s in r.stats],
        "zero_variance": {"re": np.real(exact.e_loc).tolist(),
                          "im": np.imag(exact.e_loc).tolist()},
        "fd": {"code": _pairs(g.evaluate(probe).e_loc),
               "ref": _pairs(fd_local_energy(g.evaluate, probe, field.gamma, FE_Z))},
    }


def _pairs(z) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(z)]


RUNNERS = {"he": run_he, "c6": run_c6, "fe": run_fe}


def prepare(name: str, workdir: Path) -> None:
    """Artifacts a warm workload starts from, built by the code under test."""
    from magqmc import cli

    physics = {"he": HEPLUS_PHYSICS, "c6": C6_PHYSICS}[name]
    fields = {k: v for k, v in physics.items() if k in ("z", "n_electrons", "b_tesla")}
    fields["outdir"] = workdir
    args = [a for k, v in fields.items() for a in ("--set", f"{k}={v}")]
    code = cli.main(["hf" if name == "he" else "kernels"] + args)
    if code:
        raise SystemExit(f"preparing {name} failed with exit code {code}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--prepare", choices=("he", "c6"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    if args.prepare:
        prepare(args.prepare, args.workdir)
        return 0

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    tracer.install(LAYER_TARGETS if args.trace else STAGE_TARGETS)
    result = RUNNERS[wl.kind](wl, args.seed, args.workdir, tracer)
    result["absent"] = tracer.absent
    if args.trace:
        result["layers"] = layer_metrics(tracer.spans, tracer.absent)
        result["spans"] = [[s.name, s.start, s.end, s.parent, s.attrs] for s in tracer.spans]
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

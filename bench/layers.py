"""Which magqmc functions the traced run wraps, and the per-layer metrics.

Every target names the attribute its caller resolves at call time, e.g.
``magqmc.pipeline.scf`` (``pipeline`` imported ``scf`` by name) but
``magqmc.iofiles.save_checkpoint`` (``pipeline`` calls ``iofiles.save_checkpoint``).
Layers that are never called in a workload report 0.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from tracer import Span, Target, has_ancestor, self_times

MIB = 2.0**20


def _points(args, kwargs, result):
    # nuclear_kernel(gamma, m, z_charge, z) / direct_kernel(gamma, m1, m2, zeta)
    pts = args[3] if len(args) > 3 else kwargs.get("z", kwargs.get("zeta"))
    return {"points": int(np.size(pts))}


def _tables(args, kwargs, result):
    return {"tables": sum(len(getattr(result, k, ())) for k in ("v_tab", "d_tab", "x_tab"))}


def _iterations(args, kwargs, result):
    return {"iterations": len(getattr(result, "scf_energies", ()))}


def _pair_matrix_bytes(args, kwargs, result):
    """Bytes of the nq x nq matrices a MeanFieldWorkspace holds after __init__."""
    ws = args[0]
    nq = len(ws.basis.zq)
    total = 0
    for val in vars(ws).values():
        arrays = val.values() if isinstance(val, dict) else [val]
        for a in arrays:
            if isinstance(a, np.ndarray) and a.shape == (nq, nq):
                total += a.nbytes
    return {"pair_bytes": total}


def _configs(args, kwargs, result):
    r = np.asarray(args[1] if len(args) > 1 else kwargs["r_elec"])
    return {"configs": r.shape[0] if r.ndim == 3 else 1}


def _metropolis(args, kwargs, result):
    return {"proposed": args[0].size, "accepted": int(result[1])}


def _population(args, kwargs, result):
    return {"population": result.size}


def _stage(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"stage": spec.stage, "clamps": int(getattr(result[1], "weight_clamps", 0))}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


#: Wrapped in untraced runs too: set-up ends at the first call into a stage.
STAGE_TARGETS = [
    Target("magqmc.pipeline", "run_stage", "run_stage", _stage),
    Target("magqmc.dqmc", "run_stage", "run_stage", _stage),
]

LAYER_TARGETS = STAGE_TARGETS + [
    Target("magqmc.kernels", "nuclear_kernel", "kernels.quad", _points),
    Target("magqmc.kernels", "direct_kernel", "kernels.quad", _points),
    Target("magqmc.kernels", "exchange_kernel", "kernels.quad", _points),
    Target("magqmc.pipeline", "build_kernel_table", "kernels.build", _tables),
    Target("magqmc.kernels", "KernelTable.load", "kernels.load"),
    Target("magqmc.kernels", "KernelTable.save", "kernels.save"),
    Target("magqmc.pipeline", "load_orbitals", "hf.load"),
    Target("magqmc.pipeline", "save_orbitals", "hf.save"),
    Target("magqmc.pipeline", "scf", "hf.scf", _iterations),
    Target("magqmc.hf", "MeanFieldWorkspace.__init__", "hf.workspace", _pair_matrix_bytes),
    Target("magqmc.hf", "MeanFieldWorkspace.mean_field", "hf.mean_field"),
    Target("magqmc.hf", "solve_channel", "hf.eigensolve"),
    Target("magqmc.bsplines", "SplineBasis.potential_matrix", "bsplines.assemble"),
    Target("magqmc.bsplines", "SplineBasis.nonlocal_matrix", "bsplines.assemble"),
    Target("magqmc.guiding", "GuidingFunction.evaluate", "guiding.evaluate", _configs),
    Target("magqmc.guiding", "slater_eval", "slater.eval"),
    Target("magqmc.slater", "transverse_value_grad_lap", "landau.transverse"),
    Target("magqmc.hf", "OrbitalSet.longitudinal", "hf.longitudinal"),
    Target("magqmc.oracles", "HarmonicLongitudinal.longitudinal", "hf.longitudinal"),
    Target("magqmc.guiding", "jastrow_u", "jastrow.u"),
    Target("magqmc.guiding", "Hamiltonian.potential", "guiding.potential"),
    Target("magqmc.pipeline", "init_walkers", "sampler.init"),
    Target("magqmc.sampler", "init_walkers", "sampler.init"),
    Target("magqmc.sampler", "metropolis_step", "sampler.metropolis", _metropolis),
    Target("magqmc.dqmc", "metropolis_step", "sampler.metropolis", _metropolis),
    Target("magqmc.dqmc", "fp_step", "dqmc.fp_step"),
    Target("magqmc.dqmc", "branch", "dqmc.branch", _population),
    Target("magqmc.iofiles", "save_checkpoint", "iofiles.checkpoint", _file_bytes),
    Target("magqmc.iofiles", "trace_row", "iofiles.trace_row"),
]

#: name -> unit of every per-layer metric, in report order. The last three
#: come from comparing traced and untraced runs, see run.py.
PER_LAYER = {
    "kernels.build_s": "s",
    "kernels.tables": "count",
    "kernels.quad_points": "count",
    "kernels.load_s": "s",
    "kernels.save_s": "s",
    "hf.load_s": "s",
    "hf.save_s": "s",
    "hf.scf_s": "s",
    "hf.scf_iterations": "count",
    "hf.workspace_s": "s",
    "hf.mean_field_s": "s",
    "hf.eigensolve_s": "s",
    "bsplines.assemble_s": "s",
    "hf.pair_matrix_mb": "MiB",
    "guiding.evaluate_s": "s",
    "guiding.configs": "count",
    "guiding.us_per_config": "us",
    "guiding.evaluate_ms_p50": "ms",
    "guiding.evaluate_ms_p90": "ms",
    "guiding.self_s": "s",
    "slater.eval_s": "s",
    "landau.transverse_s": "s",
    "hf.longitudinal_s": "s",
    "jastrow.u_s": "s",
    "guiding.potential_s": "s",
    "sampler.init_s": "s",
    "sampler.metropolis_self_s": "s",
    "sampler.proposed": "count",
    "sampler.accepted": "count",
    "sampler.acceptance": "fraction",
    "dqmc.fp_step_self_s": "s",
    "dqmc.branch_s": "s",
    "dqmc.branch_calls": "count",
    "dqmc.weight_clamps": "count",
    "dqmc.population_min": "count",
    "dqmc.population_max": "count",
    "iofiles.checkpoint_s": "s",
    "iofiles.checkpoints": "count",
    "iofiles.checkpoint_bytes": "bytes",
    "iofiles.trace_rows": "count",
    "pipeline.vqmc_s": "s",
    "pipeline.fpdqmc_s": "s",
    "pipeline.rpdqmc_s": "s",
    "trace.uncovered_frac": "fraction",
    "trace.absent_layers": "count",
    "pipeline.walker_steps_per_s": "1/s",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(spans: list[Span], absent: list[str], entry: str = "entry") -> dict:
    """Per-layer metrics of one traced run (all but the last two of PER_LAYER).

    ``sampler.proposed``/``accepted`` count only moves made inside a stage,
    not the pre-equilibration steps of ``init_walkers``.
    """
    own = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for i, s in enumerate(spans):
        total[s.name] += s.duration
        self_[s.name] += own[i]
        calls[s.name] += 1
        for key, val in s.attrs.items():
            if isinstance(val, (int, float)):
                sums[s.name, key] += val

    moves = [s for i, s in enumerate(spans)
             if s.name == "sampler.metropolis" and has_ancestor(spans, i, "run_stage")]
    proposed = sum(s.attrs.get("proposed", 0) for s in moves)
    accepted = sum(s.attrs.get("accepted", 0) for s in moves)
    eval_ms = [1e3 * s.duration for s in spans if s.name == "guiding.evaluate"]
    pops = [s.attrs["population"] for s in spans if "population" in s.attrs]
    pair_bytes = [s.attrs["pair_bytes"] for s in spans if "pair_bytes" in s.attrs]
    configs = sums["guiding.evaluate", "configs"]

    def stage_s(stage):
        return sum(s.duration for s in spans
                   if s.name == "run_stage" and s.attrs.get("stage") == stage)

    root = next(i for i, s in enumerate(spans) if s.name == entry)
    covered = sum(s.duration for s in spans if s.parent == root)
    out = {
        "kernels.build_s": total["kernels.build"],
        "kernels.tables": sums["kernels.build", "tables"],
        "kernels.quad_points": sums["kernels.quad", "points"],
        "kernels.load_s": total["kernels.load"],
        "kernels.save_s": total["kernels.save"],
        "hf.load_s": total["hf.load"],
        "hf.save_s": total["hf.save"],
        "hf.scf_s": total["hf.scf"],
        "hf.scf_iterations": sums["hf.scf", "iterations"],
        "hf.workspace_s": total["hf.workspace"],
        "hf.mean_field_s": total["hf.mean_field"],
        "hf.eigensolve_s": total["hf.eigensolve"],
        "bsplines.assemble_s": total["bsplines.assemble"],
        "hf.pair_matrix_mb": max(pair_bytes, default=0) / MIB,
        "guiding.evaluate_s": total["guiding.evaluate"],
        "guiding.configs": configs,
        "guiding.us_per_config": 1e6 * total["guiding.evaluate"] / configs if configs else 0.0,
        "guiding.evaluate_ms_p50": float(np.percentile(eval_ms, 50)) if eval_ms else 0.0,
        "guiding.evaluate_ms_p90": float(np.percentile(eval_ms, 90)) if eval_ms else 0.0,
        "guiding.self_s": self_["guiding.evaluate"],
        "slater.eval_s": self_["slater.eval"],
        "landau.transverse_s": total["landau.transverse"],
        "hf.longitudinal_s": total["hf.longitudinal"],
        "jastrow.u_s": total["jastrow.u"],
        "guiding.potential_s": total["guiding.potential"],
        "sampler.init_s": total["sampler.init"],
        "sampler.metropolis_self_s": self_["sampler.metropolis"],
        "sampler.proposed": proposed,
        "sampler.accepted": accepted,
        "sampler.acceptance": accepted / proposed if proposed else 0.0,
        "dqmc.fp_step_self_s": self_["dqmc.fp_step"],
        "dqmc.branch_s": total["dqmc.branch"],
        "dqmc.branch_calls": calls["dqmc.branch"],
        "dqmc.weight_clamps": sums["run_stage", "clamps"],
        "dqmc.population_min": min(pops, default=0),
        "dqmc.population_max": max(pops, default=0),
        "iofiles.checkpoint_s": total["iofiles.checkpoint"],
        "iofiles.checkpoints": calls["iofiles.checkpoint"],
        "iofiles.checkpoint_bytes": sums["iofiles.checkpoint", "bytes"],
        "iofiles.trace_rows": calls["iofiles.trace_row"],
        "pipeline.vqmc_s": stage_s("vqmc"),
        "pipeline.fpdqmc_s": stage_s("fpdqmc"),
        "pipeline.rpdqmc_s": stage_s("rpdqmc"),
        "trace.uncovered_frac": 1.0 - covered / spans[root].duration,
        "trace.absent_layers": len(absent),
    }
    return {k: float(v) for k, v in out.items()}

"""Command-line driver.

Subcommands: ``kernels`` (build/cache the interaction tables), ``hf``
(self-consistent orbitals + adiabatic energy), ``run`` (full pipeline),
``trace-export`` (plot-ready files from a trace), ``print-config`` (echo
the resolved configuration). Exit codes: 0 success, 2 configuration
error, 3 solver (kernel/SCF) failure, 4 sampling failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from .config import ConfigError, RunConfig, config_hash, parse_config_text, render_config
from .hf import BasisError, SCFError
from .iofiles import export_trace
from .kernels import KernelAccuracyError
from .units import hartree_to_kev

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_QMC = 4


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="key-value config file")
    p.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override any config key (repeatable)",
    )


def load_config(args) -> RunConfig:
    text = args.config.read_text() if args.config else ""
    overrides = {}
    for item in args.overrides:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError([f"--set expects KEY=VALUE, got '{item}'"])
        overrides[key] = val
    return parse_config_text(text, overrides)


def cmd_print_config(args) -> int:
    cfg = load_config(args)
    sys.stdout.write(render_config(cfg))
    print(f"# config_hash = {config_hash(cfg)}")
    return EXIT_OK


def cmd_kernels(args) -> int:
    from .pipeline import ensure_kernels

    cfg = load_config(args)
    t0 = time.perf_counter()
    table, path, hit = ensure_kernels(cfg, force=args.force)
    status = "cache hit" if hit else "built"
    print(f"kernels {status}: {path} ({time.perf_counter() - t0:.1f}s, "
          f"{len(table.ms)} channels)")
    return EXIT_OK


def cmd_hf(args) -> int:
    from .pipeline import ensure_kernels, ensure_orbitals

    cfg = load_config(args)
    try:
        kernels, _, _ = ensure_kernels(cfg)
        orbitals, path, hit = ensure_orbitals(cfg, kernels, force=args.force)
    except SCFError as exc:
        print("SCF failed:", exc, file=sys.stderr)
        print("energy history (hartree):", file=sys.stderr)
        for i, e in enumerate(exc.energy_history):
            print(f"  iter {i:3d}  {e:.10f}", file=sys.stderr)
        return EXIT_SOLVER
    tag = " (cached)" if hit else ""
    print(f"orbitals{tag}: {path}")
    print(f"E_HF = {orbitals.e_total:.6f} hartree = "
          f"{hartree_to_kev(orbitals.e_total):.5f} keV")
    for key, val in orbitals.energy_parts.items():
        print(f"  {key:>15s} = {val:+.6f} hartree")
    return EXIT_OK


def cmd_run(args) -> int:
    from .dqmc import PopulationControlError
    from .pipeline import run_pipeline

    cfg = load_config(args)
    stages = args.stages.split(",") if args.stages else None
    try:
        result = run_pipeline(cfg, resume=args.resume, stages=stages)
    except SCFError as exc:
        print("SCF failed:", exc, file=sys.stderr)
        return EXIT_SOLVER
    except (KernelAccuracyError, BasisError) as exc:
        # solver failures, caught before the RuntimeError of sampling below
        print("solver failed:", exc, file=sys.stderr)
        return EXIT_SOLVER
    except (PopulationControlError, RuntimeError) as exc:
        print("sampling failed:", exc, file=sys.stderr)
        return EXIT_QMC
    print(f"E_HF    = {result.hf_energy.hartree:+.6f} hartree "
          f"= {result.hf_energy.kev:+.5f} keV")
    for res in result.stages:
        print(
            f"{res.stage:>7s} = {res.energy:+.6f} hartree = "
            f"{hartree_to_kev(res.energy):+.5f} keV   "
            f"(sigma {hartree_to_kev(res.sigma):.5f} keV over {res.n_kept} blocks)"
        )
    print(f"trace:   {result.trace_path}")
    print(f"summary: {result.summary_path}")
    return EXIT_OK


def cmd_trace_export(args) -> int:
    refs = {}
    for item in args.ref:
        name, sep, val = item.partition("=")
        if not sep:
            print(f"--ref expects NAME=KEV, got '{item}'", file=sys.stderr)
            return EXIT_CONFIG
        refs[name] = float(val)
    data_path, refs_path = export_trace(args.trace, args.out, refs)
    print(f"wrote {data_path} and {refs_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    # hidden maintenance command: manual spot checks of the test oracles
    from . import oracles

    if args.what == "grid-eigen":
        from .kernels import nuclear_kernel

        res = oracles.grid_eigensolve(
            lambda z: nuclear_kernel(args.gamma, args.m, args.z_charge, z),
            z_max=args.zmax, n_points=args.points, k=args.k,
        )
        for i, (w, err) in enumerate(zip(res.eigenvalues, res.error_estimate)):
            print(f"eps_{i} = {w:.10f} hartree (+- {err:.1e} truncation + roundoff)")
    elif args.what == "kernel-mc":
        est, sem = oracles.mc_integral_kernel(
            args.gamma, args.m, args.m2, args.zeta, n_samples=args.samples, seed=args.seed
        )
        print(f"D_{args.m}{args.m2}({args.zeta}) = {est:.6f} +- {sem:.6f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magqmc",
        description="Ground states of atoms in neutron-star magnetic fields "
        "(Hartree-Fock guiding functions + diffusion Monte Carlo).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("print-config", help="echo the fully resolved configuration")
    _add_config_args(p)
    p.set_defaults(func=cmd_print_config)

    p = sub.add_parser("kernels", help="build and cache the 1D interaction kernels")
    _add_config_args(p)
    p.add_argument("--force", action="store_true", help="rebuild even on cache hit")
    p.set_defaults(func=cmd_kernels)

    p = sub.add_parser("hf", help="solve the self-consistent orbitals")
    _add_config_args(p)
    p.add_argument("--force", action="store_true", help="re-run even if orbitals exist")
    p.set_defaults(func=cmd_hf)

    p = sub.add_parser("run", help="run the configured sampling pipeline")
    _add_config_args(p)
    p.add_argument("--resume", type=Path, help="checkpoint file to continue from")
    p.add_argument(
        "--stages", help="comma-separated subset of stages to run (e.g. fpdqmc,rpdqmc)"
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace-export", help="export a trace CSV into plot-ready files")
    p.add_argument("trace", type=Path)
    p.add_argument("--out", type=Path, required=True, help="output prefix")
    p.add_argument(
        "--ref", action="append", default=[], metavar="NAME=KEV",
        help="horizontal reference line (repeatable)",
    )
    p.set_defaults(func=cmd_trace_export)

    p = sub.add_parser("oracle")  # intentionally undocumented in --help text
    osub = p.add_subparsers(dest="what", required=True)
    g = osub.add_parser("grid-eigen")
    g.add_argument("--gamma", type=float, required=True)
    g.add_argument("--m", type=int, default=0)
    g.add_argument("--z-charge", type=float, default=1.0)
    g.add_argument("--zmax", type=float, default=6.0)
    g.add_argument("--points", type=int, default=20001)
    g.add_argument("--k", type=int, default=1)
    k = osub.add_parser("kernel-mc")
    k.add_argument("--gamma", type=float, required=True)
    k.add_argument("--m", type=int, default=0)
    k.add_argument("--m2", type=int, default=0)
    k.add_argument("--zeta", type=float, default=0.0)
    k.add_argument("--samples", type=int, default=200_000)
    k.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  - {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except KernelAccuracyError as exc:
        print("kernel construction failed:", exc, file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())

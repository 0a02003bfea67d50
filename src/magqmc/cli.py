"""Command-line driver.

Subcommands: ``kernels`` (build/cache the q rule and X splines), ``hf``
(self-consistent orbitals + adiabatic energy), ``run`` (full pipeline),
``trace-export`` (plot-ready files from a trace), ``print-config`` (echo
the resolved configuration). Exit codes: 0 success, 2 bad input (a
configuration error, or an input artifact such as a ``--resume``
checkpoint that is missing, truncated, corrupted, outdated or from another
configuration), 3 solver (kernel/basis/SCF) failure, 4 sampling failure.
Every failure is a :class:`~magqmc.errors.MagqmcError`, whose class fixes
the code; its message goes to stderr without a traceback.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
import time
from pathlib import Path

from .config import ConfigError, RunConfig, config_hash, parse_config_text, render_config
from .errors import MagqmcError
from .iofiles import export_trace
from .units import hartree_to_kev

EXIT_OK = 0


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
    kernels, _, _ = ensure_kernels(cfg)
    orbitals, path, hit = ensure_orbitals(cfg, kernels, force=args.force)
    tag = " (cached)" if hit else ""
    print(f"orbitals{tag}: {path}")
    print(f"E_HF = {orbitals.e_total:.6f} hartree = "
          f"{hartree_to_kev(orbitals.e_total):.5f} keV")
    for key, val in orbitals.energy_parts.items():
        print(f"  {key:>15s} = {val:+.6f} hartree")
    print(f"SCF iterations = {len(orbitals.scf_energies)}")
    return EXIT_OK


def cmd_run(args) -> int:
    from .pipeline import run_pipeline

    cfg = load_config(args)
    stages = args.stages.split(",") if args.stages else None
    result = run_pipeline(cfg, resume=args.resume, stages=stages)
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
            raise ConfigError([f"--ref expects NAME=KEV, got '{item}'"])
        try:
            refs[name] = float(val)
        except ValueError:
            raise ConfigError([f"--ref expects NAME=KEV with a number, got '{item}'"]) from None
    data_path, refs_path = export_trace(args.trace, args.out, refs)
    print(f"wrote {data_path} and {refs_path}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    # hidden maintenance command: manual spot checks of the test oracles
    from . import oracles

    positive = {"--gamma": args.gamma}
    if args.what == "grid-eigen":
        positive["--zmax"] = args.zmax
        finite = {"--z-charge": args.z_charge}
        # the coarsest of the oracle's three grids has (points + 1) // 2 - 2 interior nodes
        bounded = [("--m", args.m, 0, math.inf),
                   ("--k", args.k, 1, max(1, (args.points + 1) // 2 - 2)),
                   ("--points", args.points, oracles.MIN_GRID_POINTS, math.inf)]
    else:
        finite = {"--zeta": args.zeta}
        bounded = [("--m", args.m, 0, math.inf), ("--m2", args.m2, 0, math.inf),
                   ("--samples", args.samples, oracles.MIN_MC_SAMPLES, math.inf)]
    bad = [f"{flag} must be positive and finite, got {val}"
           for flag, val in positive.items() if not 0 < val < math.inf]
    bad += [f"{flag} must be finite, got {val}" for flag, val in finite.items()
            if not math.isfinite(val)]
    for flag, val, low, high in bounded:
        if val < low:
            bad.append(f"{flag} must be >= {low}, got {val}")
        elif val > high:
            bad.append(f"{flag} must be <= {high} here, got {val}")
    if bad:
        raise ConfigError(bad)
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
    parser.add_argument(
        "--log-level", choices=("DEBUG", "INFO", "WARNING"), default="INFO",
        help="logging threshold; DEBUG adds one line per SCF iteration (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("print-config", help="echo the fully resolved configuration")
    _add_config_args(p)
    p.set_defaults(func=cmd_print_config)

    p = sub.add_parser("kernels", help="build and cache the 1D kernels: the q rule and X splines")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    # basicConfig does nothing once the root logger has a handler, as on a
    # second main() in one process: set the level on its own
    logging.getLogger().setLevel(args.log_level)
    try:
        return args.func(args)
    except MagqmcError as exc:
        print(f"magqmc {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())

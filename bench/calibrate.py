"""Stage-energy bounds for checks.STAGE_BOUNDS from the spread over seeds.

    python3 bench/calibrate.py [--workload NAME ...] [--seeds N]

Runs every sampling workload once per seed 1001, 1002, ... (12 seeds
unless ``--seeds`` says otherwise), untraced, exactly as run.py does, and
prints for each stage the median energy and the half width
max(6 * std, 1.5 * largest deviation from the median). The bounds are
then pasted into checks.py; rerun this when a change moves the energies
on purpose. The He+ bounds were made with ``--seeds 100``.
"""

from __future__ import annotations

import argparse
import statistics

from run import run_rep, prepared
from workloads import WORKLOADS

FIRST_SEED = 1001


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                   help="only these workloads (default: every sampling workload)")
    p.add_argument("--seeds", type=int, default=12, help="number of seeds (default 12)")
    args = p.parse_args(argv)
    bounds = {}
    for wl in WORKLOADS.values():
        if not wl.schedule or (args.workload and wl.name not in args.workload):
            continue
        prep = prepared(wl.prep) if wl.prep else None
        energies: dict[str, list[float]] = {}
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            res, err = run_rep(wl, seed, 0, prep, timeout=600.0)
            if err:
                raise SystemExit(f"{wl.name} seed {seed}: {err}")
            for stage, e in res["energies"].items():
                energies.setdefault(stage, []).append(e)
        bounds[wl.name] = {}
        for stage, vals in energies.items():
            center = statistics.median(vals)
            spread = max(6.0 * statistics.stdev(vals),
                         1.5 * max(abs(v - center) for v in vals))
            bounds[wl.name][stage] = (round(center, 4), round(spread, 4))
            print(f"{wl.name} {stage}: median {center:.6f}, std {statistics.stdev(vals):.6f}, "
                  f"range [{min(vals):.6f}, {max(vals):.6f}] over {len(vals)} seeds")
    print("STAGE_BOUNDS =", bounds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

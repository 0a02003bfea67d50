"""Benchmark of the magqmc pipeline: set-up time, wall time and memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
code under test is its ``src/magqmc``. Each repetition runs in a fresh,
single-threaded process (bench/child.py) with its own output directory and
kernel-cache directory under ``.bench_build/``. Artifacts a warm workload
starts from are built once per version of the code, untimed, with the
code under test, and copied into each repetition.

With ``--trace 0`` the workload repeats (at least twice) as long as
another repetition still fits in ``--seconds``, and the end-to-end
metrics are medians over the repetitions. With ``--trace 1`` it runs
twice untraced and once traced, and reports the per-layer metrics of the
traced run. Every repetition's outputs are checked (checks.py), and
repetitions of one seed must agree bit for bit. The last line of
standard output is the result: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
CHILD = BENCH / "child.py"
#: every invocation ends within this many seconds of wall time
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))

from checks import CHECKS, check_same_run  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_REPS = 2
#: untraced, untraced, traced: one seed three times for the determinism check
TRACED_PLAN = (0, 0, 1)

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(rundir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MAGQMC_")}
    env.update({v: "1" for v in THREAD_VARS})
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        MAGQMC_CACHE_DIR=str(rundir / "cache"),
        TMPDIR=str(rundir / "tmp"),
    )
    return env


def code_digest() -> str:
    """Hash of the code under test and of the benchmark's inputs."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [BENCH / "workloads.py", CHILD]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def prepared(name: str) -> Path:
    """Directory with the artifacts of prep ``name``; built once per code version."""
    final = BUILD / "prep" / f"{name}-{code_digest()}"
    if final.exists():
        return final
    tmp = BUILD / "prep" / f"tmp-{uuid.uuid4().hex}"
    (tmp / "tmp").mkdir(parents=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), "--prepare", name, "--workdir", str(tmp)],
            env=child_env(tmp), cwd=tmp, capture_output=True, text=True, timeout=700,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise SystemExit(f"preparing {name} failed (exit {proc.returncode})")
        shutil.rmtree(tmp / "tmp")
        try:
            tmp.rename(final)
        except OSError:  # a concurrent invocation finished first
            pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def run_rep(wl: Workload, seed: int, trace: int, prep: Path | None, timeout: float):
    """One repetition in a fresh process; returns (result dict or None, error)."""
    rundir = BUILD / "runs" / uuid.uuid4().hex
    (rundir / "tmp").mkdir(parents=True)
    (rundir / "out").mkdir()
    try:
        if prep is not None:
            shutil.copytree(prep / "cache", rundir / "cache")
            for f in prep.glob("orbitals_*.npz"):
                shutil.copy2(f, rundir / "out" / f.name)
        out = rundir / "result.json"
        cmd = [sys.executable, str(CHILD), "--workload", wl.name, "--seed", str(seed),
               "--trace", str(trace), "--workdir", str(rundir), "--out", str(out)]
        try:
            proc = subprocess.run(cmd, env=child_env(rundir), cwd=rundir,
                                  capture_output=True, text=True, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        return json.loads(out.read_text()), None
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def environment(args) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "threads": {v: "1" for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "code": code_digest(),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: int, prep: Path | None):
    """Repetitions as (traced, result or None, error or None); stops at the first error."""
    t_start = time.monotonic()
    reps: list[tuple[int, dict | None, str | None]] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t_start
        if trace:
            if len(reps) == len(TRACED_PLAN):
                break
            traced = TRACED_PLAN[len(reps)]
        elif len(reps) >= MIN_REPS and elapsed + longest > min(seconds, DEADLINE_S):
            # another repetition would overrun the measuring time
            break
        else:
            traced = 0
        res, err = run_rep(wl, seed, traced, prep, DEADLINE_S - elapsed)
        longest = max(longest, time.monotonic() - t_start - elapsed)
        reps.append((traced, res, err))
        if err is not None:
            break
    return reps


def report(wl: Workload, trace: int, reps) -> tuple[dict, list[str]]:
    """The result line and the failure messages for a list of repetitions."""
    ok = [(t, r) for t, r, e in reps if r is not None]
    messages = []
    failed = 0
    for i, (_, res, err) in enumerate(reps):
        fails = [err] if err else CHECKS[wl.kind](wl.name, res) + check_same_run(ok[0][1], res)
        if fails:
            failed += 1
            messages.append(f"repetition {i}: {'; '.join(fails)}")

    plain = [r for t, r in ok if not t]
    if not plain or (trace and len(plain) == len(ok)):
        raise RuntimeError("no successful repetition to report")

    def median(key):
        return statistics.median(r[key] for r in plain)

    if trace:
        run = next(r for t, r in ok if t)
        metrics = dict(run["layers"])
        sampling_s = median("wall_s") - median("setup_s")
        metrics["pipeline.walker_steps_per_s"] = (
            median("walker_steps") / sampling_s if run["walker_steps"] else 0.0)
        metrics["trace.overhead_frac"] = run["wall_s"] / median("wall_s") - 1.0
        units = PER_LAYER
    else:
        metrics = {k: median(k) for k in END_TO_END}
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }, messages


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "magqmc" / "__init__.py").is_file():
        print(f"no magqmc sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args)}), flush=True)
    # the deadline leaves out the one-off preparation
    prep = prepared(wl.prep) if wl.prep else None
    reps = measure(wl, args.seed, args.seconds, args.trace, prep)
    try:
        result, messages = report(wl, args.trace, reps)
    except RuntimeError as exc:
        for _, _, err in reps:
            print(err or "", file=sys.stderr)
        print(exc, file=sys.stderr)
        return 1
    for msg in messages:
        print("check failed:", msg, file=sys.stderr)

    ok = [(t, r) for t, r, e in reps if r is not None]
    traced = [r for t, r in ok if t]
    if traced:
        BUILD.joinpath("traces").mkdir(parents=True, exist_ok=True)
        BUILD.joinpath("traces", f"{wl.name}-seed{args.seed}.json").write_text(
            json.dumps({"spans": traced[0]["spans"], "absent": traced[0]["absent"]}))
    print(json.dumps({
        "repetitions": [{"traced": t, **{k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb")},
                         "energies": r["energies"]} for t, r in ok],
        "absent_layers": sorted({a for _, r in ok for a in r["absent"]}),
    }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

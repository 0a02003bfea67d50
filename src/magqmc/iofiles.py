"""Run artifacts: trace CSV, checkpoints, summary, manifest, trace export.

Every artifact starts with a versioned header line carrying the config
hash; readers refuse mismatched hashes when given an expected one. Binary
artifacts (checkpoints, kernel caches, orbital files) are zipped numpy
archives whose ``meta`` entry is a JSON string with the same header
fields. Kernel caches and orbital files also carry an array checksum for
corruption detection; checkpoints carry none. All three are written to
``<path>.tmp`` and renamed into place; a failed write removes the
``.tmp``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .sampler import BlockStats, WalkerPopulation
from .units import hartree_to_kev

TRACE_FORMAT = "magqmc-trace/1"
SUMMARY_FORMAT = "magqmc-summary/1"
CHECKPOINT_FORMAT = "magqmc-checkpoint/1"

TRACE_COLUMNS = (
    "stage,block,e_b_hartree,e_b_kev,e_avg_hartree,e_avg_kev,acceptance,"
    "population,e_t_hartree,sigma_hartree,rp_signal,equilibration,excluded"
)


class HeaderMismatch(ValueError):
    """Artifact header does not match the active configuration."""


def trace_header(config_hash: str) -> str:
    return f"# {TRACE_FORMAT} config={config_hash}\n{TRACE_COLUMNS}\n"


def trace_row(stats: BlockStats) -> str:
    s = stats
    return (
        f"{s.stage},{s.index},{s.e_block!r},{hartree_to_kev(s.e_block)!r},"
        f"{s.e_avg!r},{hartree_to_kev(s.e_avg)!r},{s.acceptance:.6f},"
        f"{s.population},{s.e_trial!r},{s.sigma!r},{s.rp_signal!r},"
        f"{int(s.equilibration)},{int(s.excluded)}\n"
    )


def read_trace(path, expect_config_hash: str | None = None) -> list[dict]:
    """Parse a trace CSV back into one dict per block row."""
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    head = lines[0]
    if not head.startswith(f"# {TRACE_FORMAT}"):
        raise ValueError(f"{path}: not a trace file ({head[:40]!r})")
    if expect_config_hash is not None:
        got = head.split("config=", 1)[1].strip()
        if got != expect_config_hash:
            raise HeaderMismatch(f"{path}: trace config hash {got} != {expect_config_hash}")
    cols = lines[1].split(",")
    rows = []
    for ln in lines[2:]:
        parts = ln.split(",")
        row = dict(zip(cols, parts))
        for key in row:
            if key not in ("stage",):
                row[key] = float(row[key])
        rows.append(row)
    return rows


def export_trace(trace_path, out_prefix, references: dict[str, float] | None = None):
    """Plot-ready export: whitespace columns + a file of horizontal lines.

    Output columns are (running block, stage, E_B, <E_B>, E_T) in keV.
    ``references`` maps line labels to keV values (e.g. the adiabatic
    reference energy and literature values).
    """
    rows = read_trace(trace_path)
    out_prefix = Path(out_prefix)
    data_path = out_prefix.with_suffix(".dat")
    refs_path = out_prefix.parent / (out_prefix.name + "_refs.dat")
    with open(data_path, "w") as fh:
        fh.write(f"# {TRACE_FORMAT} export\n")
        fh.write("# block stage e_b_kev e_avg_kev e_t_kev\n")
        for i, row in enumerate(rows):
            e_t = row["e_t_hartree"]
            e_t_kev = hartree_to_kev(e_t) if math.isfinite(e_t) else float("nan")
            fh.write(
                f"{i} {row['stage']} {row['e_b_kev']!r} {row['e_avg_kev']!r} {e_t_kev!r}\n"
            )
    with open(refs_path, "w") as fh:
        fh.write("# label value_kev\n")
        for name, val in (references or {}).items():
            fh.write(f"{name} {val!r}\n")
    return data_path, refs_path


# ---------------------------------------------------------------------------
# checkpoints


def stats_to_jsonable(stats: list[BlockStats]) -> list[dict]:
    return [asdict(s) for s in stats]


def stats_from_jsonable(rows: list[dict]) -> list[BlockStats]:
    return [BlockStats(**row) for row in rows]


def save_checkpoint(
    path,
    config_hash: str,
    pop: WalkerPopulation,
    rng: np.random.Generator,
    stage_index: int,
    next_block: int,
    stage_rows: dict[str, list[dict]],
    control_state: dict | None,
    trace_text: str,
    stage_name: str = "",
) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config_hash": config_hash,
        "stage_index": stage_index,
        "stage_name": stage_name,
        "next_block": next_block,
        "stage_rows": stage_rows,
        "control": control_state,
        "rng_state": rng.bit_generator.state,
    }
    # write aside and rename, so a killed write never leaves a partial file
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                meta=np.array(json.dumps(meta)),
                trace=np.array(trace_text),
                r=pop.r,
                weight=pop.weight,
                phase=pop.phase,
                age=pop.age,
            )
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, expect_config_hash: str | None = None) -> dict:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: not a checkpoint (format={meta.get('format')})")
        if expect_config_hash and meta["config_hash"] != expect_config_hash:
            raise HeaderMismatch(
                f"{path}: checkpoint config hash {meta['config_hash']} != {expect_config_hash}"
            )
        meta["walkers"] = {
            "r": data["r"],
            "weight": data["weight"],
            "phase": data["phase"],
            "age": data["age"],
        }
        meta["trace_text"] = str(data["trace"])
    return meta


# ---------------------------------------------------------------------------
# summary + manifest


def write_summary(path, config_hash: str, fields: dict) -> None:
    lines = [f"# {SUMMARY_FORMAT} config={config_hash}"]
    for key, val in fields.items():
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_summary(path, expect_config_hash: str | None = None) -> dict:
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith(f"# {SUMMARY_FORMAT}"):
        raise ValueError(f"{path}: not a summary file")
    if expect_config_hash is not None:
        got = lines[0].split("config=", 1)[1].strip()
        if got != expect_config_hash:
            raise HeaderMismatch(f"{path}: summary config hash {got} != {expect_config_hash}")
    out = {}
    for ln in lines[1:]:
        if not ln.strip() or ln.startswith("#"):
            continue
        key, _, val = ln.partition("=")
        out[key.strip()] = val.strip()
    return out


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

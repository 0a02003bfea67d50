"""Run artifacts: trace CSV, summary, manifest, and the binary artifact codec.

Text artifacts (trace, summary) start with a ``# <format> config=<hash>``
line; their readers share one check of it and refuse a mismatched hash
when given an expected one.

Every binary artifact (kernel table, orbital file, checkpoint) goes
through one codec, :func:`write_artifact` / :func:`read_artifact`: an
``.npz`` holding a JSON ``meta`` entry (its ``format`` first), the named
arrays, and a sha256 ``checksum`` over all of them. Binary artifacts, the
summary and the manifest are written by :func:`write_atomic`: to
``<path>.tmp``, then renamed into place, and a failed write removes the
``.tmp``, so a kill at any point leaves the previous file intact. Reading
checks the format, the checksum and an optional hash guard; a missing,
truncated, corrupted, outdated or mismatched file raises
:class:`ArtifactError`. Old formats are refused, never migrated.

Checkpoints store the trace rows once, as JSON, keyed by stage name, and
the population control as its dataclass fields; :func:`save_checkpoint`
and :func:`load_checkpoint` are the only converters, so callers keep
:class:`BlockStats` and :class:`PopulationControl` objects. On resume the
trace file is regenerated from the rows (header plus :func:`trace_row` of
each), byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .dqmc import PopulationControl
from .errors import InputError
from .sampler import BlockStats, WalkerPopulation
from .units import hartree_to_kev

TRACE_FORMAT = "magqmc-trace/1"
SUMMARY_FORMAT = "magqmc-summary/1"
CHECKPOINT_FORMAT = "magqmc-checkpoint/2"

TRACE_COLUMNS = (
    "stage,block,e_b_hartree,e_b_kev,e_avg_hartree,e_avg_kev,acceptance,"
    "population,e_t_hartree,sigma_hartree,rp_signal,equilibration,excluded"
)


class ArtifactError(InputError):
    """An artifact file is missing, unreadable, corrupted or of another format."""


class HeaderMismatch(ArtifactError):
    """Artifact header does not match the active configuration."""


# ---------------------------------------------------------------------------
# binary artifacts


def checksum(entries: dict[str, np.ndarray]) -> str:
    """sha256 over the (name, dtype, shape, bytes) of every entry, sorted by name."""
    h = hashlib.sha256()
    for name in sorted(entries):
        arr = np.ascontiguousarray(entries[name])
        h.update(f"{name}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def write_atomic(path, write) -> None:
    """Create ``path`` by ``write(fh)`` into ``<path>.tmp`` (binary) and a
    rename, so a kill at any point leaves the previous file intact; a failed
    write or rename removes the ``.tmp``."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_artifact(path, fmt: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Atomically write ``arrays`` and ``meta`` (JSON) as a checksummed npz."""
    entries = {"meta": np.array(json.dumps({"format": fmt, **meta})), **arrays}
    entries["checksum"] = np.array(checksum(entries))
    write_atomic(path, lambda fh: np.savez(fh, **entries))


def read_artifact(path, fmt: str, expect: dict | None = None) -> tuple[dict, dict]:
    """(meta, arrays) of an artifact written by :func:`write_artifact`.

    ``expect`` maps meta keys (``config_hash``, ``physics_hash``) to the
    values the caller requires; a None value is not checked. Raises
    ArtifactError, or its subclass HeaderMismatch for a failed guard.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            entries = {name: data[name] for name in data.files}
        meta = json.loads(str(entries["meta"]))
        stored = str(entries.pop("checksum", ""))
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ArtifactError(f"{path}: unreadable {fmt} file ({exc})") from exc
    if meta.get("format") != fmt:
        raise ArtifactError(f"{path}: format {meta.get('format')!r}, expected {fmt!r}")
    if stored != checksum(entries):
        raise ArtifactError(f"{path}: checksum mismatch (corrupted {fmt} file)")
    for key, want in (expect or {}).items():
        if want is not None and meta.get(key) != want:
            raise HeaderMismatch(f"{path}: {key} {meta.get(key)} != {want}")
    del entries["meta"]
    return meta, entries


# ---------------------------------------------------------------------------
# trace


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


def _read_text_artifact(path, fmt: str, expect_config_hash: str | None) -> list[tuple[int, str]]:
    """(line number, text) of the non-blank lines of a text artifact below
    its checked ``# <fmt> config=<hash>`` line."""
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"{path}: unreadable {fmt} file ({exc})") from exc
    head = lines[0] if lines else ""
    if not head.startswith(f"# {fmt} config="):
        raise ArtifactError(f"{path}: not a {fmt} file ({head[:40]!r})")
    got = head.split("config=", 1)[1].strip()
    if expect_config_hash is not None and got != expect_config_hash:
        raise HeaderMismatch(f"{path}: config_hash {got} != {expect_config_hash}")
    return [(num, ln) for num, ln in enumerate(lines[1:], start=2) if ln.strip()]


def read_trace(path, expect_config_hash: str | None = None) -> list[dict]:
    """Parse a trace CSV back into one dict per block row.

    A missing or foreign column line, a row with another number of fields
    (as a row cut mid-write has) and a non-numeric field raise
    :class:`ArtifactError` naming the file and line.
    """
    lines = _read_text_artifact(path, TRACE_FORMAT, expect_config_hash)
    if not lines or lines[0][1] != TRACE_COLUMNS:
        where = f"line {lines[0][0]}" if lines else "end of file"
        raise ArtifactError(f"{path}, {where}: expected the {TRACE_FORMAT} column line")
    cols = TRACE_COLUMNS.split(",")
    rows = []
    for num, ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(cols):
            raise ArtifactError(f"{path}, line {num}: {len(fields)} fields, "
                                f"expected {len(cols)} (truncated or corrupted row)")
        row = dict(zip(cols, fields))
        try:
            for key in cols:
                if key != "stage":
                    row[key] = float(row[key])
        except ValueError as exc:
            raise ArtifactError(f"{path}, line {num}: {exc}") from None
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


def save_checkpoint(
    path,
    config_hash: str,
    pop: WalkerPopulation,
    rng: np.random.Generator,
    stage_index: int,
    next_block: int,
    stage_rows: dict[str, list[BlockStats]],
    control: PopulationControl | None,
    stage_name: str = "",
) -> None:
    meta = {
        "config_hash": config_hash,
        "stage_index": stage_index,
        "stage_name": stage_name,
        "next_block": next_block,
        "stage_rows": {name: [asdict(s) for s in rows] for name, rows in stage_rows.items()},
        "control": None if control is None else asdict(control),
        "rng_state": rng.bit_generator.state,
    }
    arrays = {"r": pop.r, "weight": pop.weight, "phase": pop.phase, "age": pop.age}
    write_artifact(path, CHECKPOINT_FORMAT, meta, arrays)


def load_checkpoint(path, expect_config_hash: str | None = None) -> dict:
    """The checkpoint's meta fields, with ``stage_rows`` as BlockStats and
    ``control`` as a PopulationControl (or None), plus its walker arrays
    under ``walkers``."""
    meta, arrays = read_artifact(path, CHECKPOINT_FORMAT, {"config_hash": expect_config_hash})
    meta["stage_rows"] = {name: [BlockStats(**row) for row in rows]
                          for name, rows in meta["stage_rows"].items()}
    if meta["control"] is not None:
        meta["control"] = PopulationControl(**meta["control"])
    meta["walkers"] = arrays
    return meta


# ---------------------------------------------------------------------------
# summary + manifest


def write_summary(path, config_hash: str, fields: dict) -> None:
    lines = [f"# {SUMMARY_FORMAT} config={config_hash}"]
    for key, val in fields.items():
        lines.append(f"{key} = {val!r}" if isinstance(val, float) else f"{key} = {val}")
    text = "\n".join(lines) + "\n"
    write_atomic(path, lambda fh: fh.write(text.encode()))


def read_summary(path, expect_config_hash: str | None = None) -> dict:
    out = {}
    for _, ln in _read_text_artifact(path, SUMMARY_FORMAT, expect_config_hash):
        if not ln.startswith("#"):
            key, _, val = ln.partition("=")
            out[key.strip()] = val.strip()
    return out


def write_manifest(path, manifest: dict) -> None:
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic(path, lambda fh: fh.write(text.encode()))

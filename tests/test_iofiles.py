import json
import struct
import zipfile

import numpy as np
import pytest

from magqmc.bsplines import SplineBasis, graded_breakpoints
from magqmc.config import Occupation
from magqmc import iofiles
from magqmc.hf import OrbitalSet, load_orbitals, save_orbitals
from magqmc.iofiles import (
    ArtifactError,
    load_checkpoint,
    save_checkpoint,
    write_manifest,
    write_summary,
)
from magqmc.kernels import KernelTable
from magqmc.sampler import WalkerPopulation


def _kernel_table(path):
    grid = np.linspace(0.0, 10.0, 64)
    q, w = np.polynomial.legendre.leggauss(16)
    KernelTable(25.0, 50.0, 1.0, [0, 1], 5.0 * (q + 1.0), 5.0 * w, grid,
                {(0, 1): 1.0 / (1.0 + grid)}).save(path)
    return KernelTable.load, "x_0_1"


def _orbital_file(path):
    basis = SplineBasis(graded_breakpoints(6.0, 6, ratio=1.2))
    coeffs = np.random.default_rng(1).normal(size=(1, basis.n_funcs))
    orbs = OrbitalSet(basis=basis, beta=25.0, gamma=50.0, z_charge=1.0,
                      occupations=(Occupation(0, 0),), coeffs=coeffs,
                      eigenvalues=np.array([-1.0]), spin_zeeman_included=True,
                      e_total=-1.0, scf_energies=(-0.9, -1.0))
    save_orbitals(path, orbs, physics_hash="p")
    return load_orbitals, "coeffs"


def _checkpoint(path):
    rng = np.random.default_rng(2)
    pop = WalkerPopulation(r=rng.normal(size=(5, 1, 3)), weight=np.ones(5),
                           phase=np.zeros(5), age=np.arange(5), ev=None)
    save_checkpoint(path, "c", pop, rng, 0, 1, {}, None, stage_name="vqmc")
    return load_checkpoint, "r"


def _truncate(path, entry):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _flip_byte(path, entry):
    """Flip the last stored byte of array ``entry`` in place."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(f"{entry}.npy")
    data = bytearray(path.read_bytes())
    start = info.header_offset
    name_len, extra_len = struct.unpack("<HH", data[start + 26:start + 30])
    end = start + 30 + name_len + extra_len + info.compress_size
    data[end - 1] ^= 0xFF
    path.write_bytes(bytes(data))


def _rewrite(path, entry):
    """A well-formed archive whose array ``entry`` changed after the checksum."""
    with np.load(path, allow_pickle=False) as data:
        entries = {name: data[name] for name in data.files}
    entries[entry] = entries[entry] + 1
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


@pytest.mark.parametrize("corrupt", [_truncate, _flip_byte, _rewrite],
                         ids=["truncated", "flipped-byte", "rewritten"])
@pytest.mark.parametrize("write", [_kernel_table, _orbital_file, _checkpoint],
                         ids=["kernels", "orbitals", "checkpoint"])
def test_corrupted_artifact_raises(tmp_path, write, corrupt):
    path = tmp_path / "artifact.npz"
    load, entry = write(path)
    load(path)  # intact
    corrupt(path, entry)
    with pytest.raises(ArtifactError):
        load(path)
    assert list(tmp_path.iterdir()) == [path]  # no stray .tmp


def test_old_checkpoint_format_is_refused(tmp_path):
    # the layout of a format-1 checkpoint: no checksum, the trace text stored
    path = tmp_path / "old.npz"
    meta = {"format": "magqmc-checkpoint/1", "config_hash": "c"}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), trace=np.array("# trace"),
                 r=np.zeros((1, 1, 3)))
    with pytest.raises(ArtifactError, match="magqmc-checkpoint/2"):
        load_checkpoint(path)


@pytest.mark.parametrize("write", [
    lambda path, e: write_summary(path, "abc", {"energy": e}),
    lambda path, e: write_manifest(path, {"energy": e}),
], ids=["summary", "manifest"])
def test_failed_text_write_keeps_previous_file(tmp_path, monkeypatch, write):
    # a write cut before its rename leaves the old file whole and no .tmp
    path = tmp_path / "out.txt"
    write(path, -1.5)
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(iofiles.os, "replace", fail)
    with pytest.raises(OSError, match="killed"):
        write(path, -2.5)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

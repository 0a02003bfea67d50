import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from magqmc import iofiles
from magqmc.config import config_hash, parse_config_text, physics_hash
from magqmc.hf import load_orbitals
from magqmc.iofiles import HeaderMismatch, load_checkpoint, read_summary, read_trace
from magqmc.pipeline import ensure_kernels, ensure_orbitals, run_pipeline
from magqmc.sampler import WalkerPopulation

TINY = """
z = 1
n_electrons = 1
beta = 50
n_walkers = 40
dtau = 2e-4
schedule = vqmc:4x20:1 fpdqmc:6x20:2 rpdqmc:6x20:2
seed = 77
checkpoint_every = 2
hf_elements = 12
"""


def tiny_cfg(tmp_path, name, extra=""):
    return parse_config_text(TINY + extra + f"outdir = {tmp_path / name}\n")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("pipe")
    cfg = tiny_cfg(tmp, "run1")
    return cfg, run_pipeline(cfg), tmp


def test_artifacts_exist_and_rows_count(tiny_run):
    cfg, res, _ = tiny_run
    assert res.trace_path.exists()
    assert res.summary_path.exists()
    assert res.manifest_path.exists()
    rows = read_trace(res.trace_path, expect_config_hash=config_hash(cfg))
    assert len(rows) == sum(s.n_blocks for s in cfg.schedule)
    stages = [r["stage"] for r in rows]
    assert stages == ["vqmc"] * 4 + ["fpdqmc"] * 6 + ["rpdqmc"] * 6


def test_manifest_records_scf_iterations(tiny_run):
    _, res, _ = tiny_run
    manifest = json.loads(res.manifest_path.read_text())
    orbitals = load_orbitals(manifest["artifacts"]["orbitals"])
    assert manifest["scf_iterations"] == len(orbitals.scf_energies) == 3


def test_manifest_records_library_versions(tiny_run):
    # numpy is the only library a run uses
    _, res, _ = tiny_run
    versions = json.loads(res.manifest_path.read_text())["versions"]
    assert versions == {"numpy": np.__version__}


def test_summary_contents(tiny_run):
    cfg, res, _ = tiny_run
    summary = read_summary(res.summary_path, expect_config_hash=config_hash(cfg))
    for key in ("hf_kev", "vqmc_kev", "fpdqmc_kev", "rpdqmc_kev", "final_kev", "seed"):
        assert key in summary
    assert summary["seed"] == "77"
    # the pipeline result mirrors the file
    assert float(summary["final_hartree"]) == pytest.approx(res.final.energy)


def test_run_determinism_bitwise(tiny_run, tmp_path):
    cfg1, res1, _ = tiny_run
    cfg2 = tiny_cfg(tmp_path, "again")
    res2 = run_pipeline(cfg2)
    # the config hash leaves out the outdir, so the files match in full,
    # headers included
    assert res1.trace_path.read_bytes() == res2.trace_path.read_bytes()
    assert res1.summary_path.read_bytes() == res2.summary_path.read_bytes()


def test_seed_changes_results(tiny_run, tmp_path):
    _, res1, _ = tiny_run
    cfg2 = tiny_cfg(tmp_path, "seed", extra="seed = 78\n")
    res2 = run_pipeline(cfg2)
    assert res1.final.energy != res2.final.energy


def test_tiny_config_hashes_are_stable(tmp_path):
    # every checkpoint and orbital file is keyed by these digests: a change
    # to the canonical config text would orphan all of them
    cfg = tiny_cfg(tmp_path, "hash")
    assert config_hash(cfg) == "4567e3e226aaccf6"
    assert physics_hash(cfg) == "ea04e4db96022973"


#: resume points: (stage the checkpoint was written in, blocks done in it)
RESUME_POINTS = {
    "mid-vqmc": ("vqmc", 2),
    "vqmc-end": ("vqmc", 4),
    "mid-fpdqmc": ("fpdqmc", 4),
    # a stage boundary: rpdqmc starts fresh and resets the walker phases
    "fpdqmc-end": ("fpdqmc", 6),
    # the walker phases and the population control carry over
    "mid-rpdqmc": ("rpdqmc", 4),
}


@pytest.mark.parametrize("point", RESUME_POINTS)
def test_kill_resume_reproduces_run(tiny_run, tmp_path, monkeypatch, point):
    cfg_ref, res_ref, _ = tiny_run

    # capture the rolling checkpoint written at the resume point
    stage, next_block = RESUME_POINTS[point]
    snap = {}
    real_save = iofiles.save_checkpoint

    def spy(path, *args, **kwargs):
        real_save(path, *args, **kwargs)
        if kwargs.get("stage_name") == stage and kwargs.get("next_block") == next_block:
            snap["bytes"] = Path(path).read_bytes()

    monkeypatch.setattr(iofiles, "save_checkpoint", spy)
    cfg_a = tiny_cfg(tmp_path, "killed")
    run_pipeline(cfg_a)
    assert "bytes" in snap
    monkeypatch.undo()

    # "crash": replay from the snapshot in the same outdir
    ckpt = tmp_path / "killed" / "checkpoint.npz"
    ckpt.write_bytes(snap["bytes"])
    res_resumed = run_pipeline(cfg_a, resume=ckpt)
    rows_ref = res_ref.trace_path.read_text().splitlines()[1:]
    rows_res = res_resumed.trace_path.read_text().splitlines()[1:]
    assert rows_res == rows_ref
    sum_ref = res_ref.summary_path.read_text().splitlines()[1:]
    sum_res = res_resumed.summary_path.read_text().splitlines()[1:]
    assert sum_res == sum_ref


def test_checkpoint_hash_guard(tiny_run, tmp_path):
    cfg, res, _ = tiny_run
    ckpt = Path(cfg.outdir) / "checkpoint.npz"
    other = tiny_cfg(tmp_path, "other", extra="seed = 1234\n")
    with pytest.raises(HeaderMismatch):
        load_checkpoint(ckpt, expect_config_hash=config_hash(other))


def test_interrupted_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    pop = WalkerPopulation(r=np.zeros((3, 1, 3)), weight=np.ones(3), phase=np.zeros(3),
                           age=np.zeros(3, dtype=int), ev=None)
    rng = np.random.default_rng(0)
    path = tmp_path / "checkpoint.npz"

    def save():
        iofiles.save_checkpoint(path, "hash", pop, rng, 0, 1, {}, None)

    save()
    before = path.read_bytes()

    def dies_midway(fh, **arrays):
        fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", dies_midway)
    with pytest.raises(KeyboardInterrupt):
        save()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no stray .tmp


def test_stage_subset_with_carryover(tiny_run, tmp_path):
    cfg, res, _ = tiny_run
    ckpt = Path(cfg.outdir) / "checkpoint.npz"
    cfg2 = tiny_cfg(tmp_path, "subset")
    res2 = run_pipeline(cfg2, resume=ckpt, stages=["fpdqmc"])
    assert [s.stage for s in res2.stages] == ["fpdqmc"]
    rows = read_trace(res2.trace_path)
    assert {r["stage"] for r in rows} == {"fpdqmc"}


def test_kernel_cache_hit_and_corruption_recovery(tmp_path):
    cfg = tiny_cfg(tmp_path, "cache")
    table, path, hit = ensure_kernels(cfg)
    assert not hit
    bytes_first = path.read_bytes()
    table2, path2, hit2 = ensure_kernels(cfg)
    assert hit2 and path2 == path
    assert path.read_bytes() == bytes_first  # cache reuse leaves the file alone
    # corrupt the cache: the pipeline rebuilds instead of failing
    path.write_bytes(bytes_first[: len(bytes_first) // 2])
    table3, path3, hit3 = ensure_kernels(cfg)
    assert not hit3
    z = np.array([0.0, 0.5])
    assert np.allclose(table3.nuclear(0, z), table.nuclear(0, z))


def test_orbital_cache_hit(tmp_path):
    cfg = tiny_cfg(tmp_path, "orbcache")
    kernels, _, _ = ensure_kernels(cfg)
    orb1, path, hit1 = ensure_orbitals(cfg, kernels)
    assert not hit1
    orb2, _, hit2 = ensure_orbitals(cfg, kernels)
    assert hit2
    assert orb2.e_total == orb1.e_total


def test_orbital_file_corruption_reruns_scf(tmp_path, caplog):
    cfg = tiny_cfg(tmp_path, "orbcorrupt")
    kernels, _, _ = ensure_kernels(cfg)
    orb1, path, _ = ensure_orbitals(cfg, kernels)
    path.write_bytes(path.read_bytes()[:100])
    with caplog.at_level("WARNING", logger="magqmc.pipeline"):
        orb2, path2, hit = ensure_orbitals(cfg, kernels)
    assert not hit and path2 == path
    assert "unusable" in caplog.text and "re-running SCF" in caplog.text
    assert orb2.e_total == orb1.e_total
    assert ensure_orbitals(cfg, kernels)[2]  # the rewritten file loads


def test_empty_stage_selection_rejected(tmp_path):
    cfg = tiny_cfg(tmp_path, "empty")
    with pytest.raises(ValueError, match="no stages"):
        run_pipeline(cfg, stages=["nonexistent"])


def test_truncated_orbital_file_reruns_scf(tmp_path, monkeypatch):
    monkeypatch.setenv("MAGQMC_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tiny_cfg(tmp_path, "out")
    kernels, _, _ = ensure_kernels(cfg)
    orbs, path, hit = ensure_orbitals(cfg, kernels)
    assert not hit
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    again, path2, hit = ensure_orbitals(cfg, kernels)
    assert not hit and path2 == path
    assert again.e_total == orbs.e_total
    assert ensure_orbitals(cfg, kernels)[2]
    assert list(path.parent.iterdir()) == [path]

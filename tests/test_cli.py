import importlib
import inspect
import json
import logging
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magqmc.cli import main
from magqmc.config import ConfigError, parse_config_text
from magqmc.errors import MagqmcError, SamplingError
from magqmc.hf import BasisError, SCFError
from magqmc.iofiles import ArtifactError, save_checkpoint, trace_header, trace_row
from magqmc.kernels import KernelAccuracyError, nuclear_kernel
from magqmc.oracles import grid_eigensolve
from magqmc.sampler import BlockStats, WalkerPopulation

TINY = """
z = 1
n_electrons = 1
beta = 50
n_walkers = 30
dtau = 2e-4
schedule = vqmc:3x15:1 fpdqmc:4x15:1 rpdqmc:4x15:1
seed = 5
hf_elements = 12
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY + f"outdir = {tmp_path / 'out'}\n")
    return path


def test_print_config_round_trip(cfg_file, capsys):
    assert main(["print-config", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "beta = 50.0" in out
    assert "config_hash" in out
    # the echoed text parses back to the same configuration
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#"))
    cfg = parse_config_text(body)
    assert cfg.z == 1 and cfg.n_walkers == 30


def test_print_config_overrides(cfg_file, capsys):
    main(["print-config", "--config", str(cfg_file), "--set", "n_walkers=99"])
    assert "n_walkers = 99" in capsys.readouterr().out


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("z = 2\nbeta = 50\noccupations = 0:0 0:0\n")
    assert main(["print-config", "--config", str(bad)]) == 2
    assert "Pauli" in capsys.readouterr().err


def test_kernels_and_hf_commands(cfg_file, capsys):
    assert main(["kernels", "--config", str(cfg_file)]) == 0
    assert "built" in capsys.readouterr().out
    assert main(["kernels", "--config", str(cfg_file)]) == 0
    assert "cache hit" in capsys.readouterr().out
    assert main(["hf", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "E_HF" in out and "keV" in out
    # one electron: the bare channel is self-consistent at the third iteration
    assert "SCF iterations = 3" in out
    assert main(["hf", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "cached" in out and "SCF iterations = 3" in out


def test_log_level_option(cfg_file, caplog):
    root = logging.getLogger()
    before = root.level
    try:
        assert main(["--log-level", "DEBUG", "hf", "--config", str(cfg_file)]) == 0
        scf_lines = [r for r in caplog.records if r.getMessage().startswith("scf iter")]
        assert [r.levelno for r in scf_lines] == [logging.DEBUG] * 3
        # a second call in the same process takes its own level
        caplog.clear()
        assert main(["hf", "--config", str(cfg_file), "--force"]) == 0
        assert root.level == logging.INFO
        assert not any(r.levelno == logging.DEBUG for r in caplog.records)
        assert any("scf converged" in r.getMessage() for r in caplog.records)
    finally:
        root.setLevel(before)


def test_scf_failure_exit_3(cfg_file, capsys, monkeypatch):
    import magqmc.pipeline as pl

    def boom(*a, **k):
        raise SCFError("no convergence", [-1.0, -1.1])

    monkeypatch.setattr(pl, "scf", boom)
    assert main(["hf", "--config", str(cfg_file), "--force"]) == 3
    err = capsys.readouterr().err
    assert "energy history" in err


def _raise(error, message):
    def boom(*args, **kwargs):
        raise error(message, [-1.0, -1.1]) if error is SCFError else error(message)
    return boom


#: failing `magqmc run` inputs: case -> (exit code, text on stderr)
RUN_FAILURES = {
    "resume-mismatched": (2, "config_hash"),
    "resume-truncated": (2, "unreadable"),
    "resume-missing": (2, "No such file"),
    "stages-bogus": (2, "no stages to run"),
    "schedule-repeated": (2, "repeats stage fpdqmc"),
    "build_kernel_table-KernelAccuracyError": (3, "forced failure"),
    "scf-BasisError": (3, "forced failure"),
    "scf-SCFError": (3, "energy history"),
    "init_walkers-SamplingError": (4, "forced failure"),
}


@pytest.mark.parametrize("case", RUN_FAILURES)
def test_run_failure_exit_code(cfg_file, tmp_path, capsys, monkeypatch, case):
    import magqmc.pipeline as pl

    argv = ["run", "--config", str(cfg_file)]
    ckpt = tmp_path / "checkpoint.npz"
    if case.startswith("resume-"):
        argv += ["--resume", str(ckpt)]
        if case != "resume-missing":
            # a checkpoint written under another configuration's hash
            pop = WalkerPopulation(r=np.zeros((2, 1, 3)), weight=np.ones(2),
                                   phase=np.zeros(2), age=np.zeros(2, dtype=int), ev=None)
            save_checkpoint(ckpt, "0" * 16, pop, np.random.default_rng(0), 0, 1, {}, None)
        if case == "resume-truncated":
            data = ckpt.read_bytes()
            ckpt.write_bytes(data[: len(data) // 2])
    elif case == "stages-bogus":
        argv += ["--stages", "bogus"]
    elif case == "schedule-repeated":
        argv += ["--set", "schedule=vqmc:2x10:1 fpdqmc:3x10:1 fpdqmc:3x10:1"]
    else:
        target, error = case.split("-")
        errors = {"KernelAccuracyError": KernelAccuracyError, "BasisError": BasisError,
                  "SCFError": SCFError, "SamplingError": SamplingError}
        monkeypatch.setattr(pl, target, _raise(errors[error], "forced failure"))
    code, message = RUN_FAILURES[case]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_every_error_class_has_an_exit_code():
    import magqmc

    found = set()
    for info in pkgutil.iter_modules(magqmc.__path__):
        module = importlib.import_module(f"magqmc.{info.name}")
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if issubclass(cls, Exception) and cls.__module__.startswith("magqmc.")}
    assert {ArtifactError, ConfigError, KernelAccuracyError, SCFError, SamplingError} <= found
    for cls in found - {MagqmcError}:
        assert issubclass(cls, MagqmcError), cls
        assert cls.exit_code in (2, 3, 4), cls


#: prepended to a child's code: a finder that refuses every scipy import
REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is refused here: {name}")

sys.meta_path.insert(0, RefuseScipy())
"""


def _python(code: str) -> subprocess.CompletedProcess:
    import magqmc

    src = str(Path(magqmc.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)


def test_runtime_loads_no_scipy(cfg_file, tmp_path):
    # scipy is a test dependency only: importing the package, its CLI and its
    # oracles loads none of it, and the oracles import it when they run
    proc = _python("import json, sys, magqmc, magqmc.cli, magqmc.oracles; "
                   "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    # an HF solve and a full run work with every scipy import refused
    cache = tmp_path / "cache"
    for argv in (["hf", "--config", str(cfg_file)], ["run", "--config", str(cfg_file)]):
        proc = _python(REFUSE_SCIPY + f"import os\nos.environ['MAGQMC_CACHE_DIR'] = {str(cache)!r}\n"
                       f"from magqmc.cli import main\nsys.exit(main({argv!r}))")
        assert proc.returncode == 0, proc.stderr


def test_hf_solver_failure_exit_3(cfg_file, capsys, monkeypatch):
    import magqmc.pipeline as pl

    def boom(*a, **k):
        raise BasisError("forced failure")

    monkeypatch.setattr(pl, "scf", boom)
    assert main(["hf", "--config", str(cfg_file), "--force"]) == 3
    assert "forced failure" in capsys.readouterr().err


def test_run_and_trace_export(cfg_file, tmp_path, capsys):
    assert main(["run", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "vqmc" in out and "rpdqmc" in out and "summary" in out
    trace = tmp_path / "out" / "trace.csv"
    assert trace.exists()
    assert (
        main(
            ["trace-export", str(trace), "--out", str(tmp_path / "plot"),
             "--ref", "adiabatic=-0.575", "--ref", "literature=-0.580"]
        )
        == 0
    )
    data = (tmp_path / "plot.dat").read_text().splitlines()
    assert len(data) == 2 + 11  # header lines + one row per block
    refs = (tmp_path / "plot_refs.dat").read_text()
    assert "adiabatic -0.575" in refs and "literature -0.58" in refs


def test_trace_export_iron_schedule_shape(tmp_path):
    # Fig.-1-style staging: 100 + 300 + 300 rows in the exported table
    rows = []
    for stage, blocks in (("vqmc", 100), ("fpdqmc", 300), ("rpdqmc", 300)):
        for b in range(blocks):
            rows.append(
                BlockStats(stage=stage, index=b, e_block=-4000.0, e_avg=-4000.0,
                           sigma=1.0, acceptance=0.9, population=500,
                           e_trial=-4000.0, rp_signal=1.0, equilibration=b < 10)
            )
    trace = tmp_path / "fe_trace.csv"
    trace.write_text(trace_header("feedbeef") + "".join(trace_row(r) for r in rows))
    assert main(["trace-export", str(trace), "--out", str(tmp_path / "fe")]) == 0
    lines = (tmp_path / "fe.dat").read_text().splitlines()
    assert len(lines) - 2 == 700


def test_trace_export_empty_trace(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text(trace_header("cafe"))
    assert main(["trace-export", str(trace), "--out", str(tmp_path / "e")]) == 0
    lines = (tmp_path / "e.dat").read_text().splitlines()
    assert len(lines) == 2  # headers only


def _damaged_trace(damage: str) -> str:
    rows = [trace_row(BlockStats(stage="vqmc", index=b, e_block=-1.5, e_avg=-1.5, sigma=0.1,
                                 acceptance=0.9, population=50, e_trial=float("nan"),
                                 rp_signal=1.0, equilibration=False)) for b in range(3)]
    if damage == "cut":  # the last row cut mid-write
        rows[-1] = rows[-1][: len(rows[-1]) // 2]
    elif damage == "text":
        rows[1] = rows[1].replace(",-1.5,", ",abc,", 1)
    else:  # only the format line
        return trace_header("cafe").splitlines()[0] + "\n"
    return trace_header("cafe") + "".join(rows)


@pytest.mark.parametrize("damage, where", [
    ("cut", "line 5: 6 fields, expected 13"),
    ("text", "line 4: could not convert string to float: 'abc'"),
    ("format-line-only", "end of file: expected the magqmc-trace/1 column line"),
], ids=["cut", "text", "format-line-only"])
def test_trace_export_damaged_trace_exits_2(tmp_path, capsys, damage, where):
    trace = tmp_path / "t.csv"
    trace.write_text(_damaged_trace(damage))
    assert main(["trace-export", str(trace), "--out", str(tmp_path / "x")]) == 2
    assert f"{trace}, {where}" in capsys.readouterr().err


def test_bad_ref_argument(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text(trace_header("00"))
    assert main(["trace-export", str(trace), "--out", str(tmp_path / "x"),
                 "--ref", "missing-equals"]) == 2
    assert main(["trace-export", str(trace), "--out", str(tmp_path / "x"),
                 "--ref", "a=abc"]) == 2


def test_oracle_subcommand(capsys):
    assert main(["oracle", "kernel-mc", "--gamma", "4.0", "--samples", "20000"]) == 0
    assert "D_00" in capsys.readouterr().out
    assert main(["oracle", "grid-eigen", "--gamma", "2.0", "--zmax", "8",
                 "--points", "2001"]) == 0
    out = capsys.readouterr().out
    assert "eps_0" in out
    res = grid_eigensolve(lambda z: nuclear_kernel(2.0, 0, 1.0, z), z_max=8.0, n_points=2001)
    assert f"+- {res.error_estimate[0]:.1e} truncation + roundoff" in out


@pytest.mark.parametrize("argv, message", [
    ("grid-eigen --gamma -1", "--gamma must be positive and finite, got -1.0"),
    ("grid-eigen --gamma inf", "--gamma must be positive and finite, got inf"),
    ("grid-eigen --gamma 2 --points 3", "--points must be >= 1001, got 3"),
    ("grid-eigen --gamma 2 --zmax 0 --k 0", "--zmax must be positive"),
    ("grid-eigen --gamma 2 --points 1001 --k 500", "--k must be <= 499 here, got 500"),
    ("grid-eigen --gamma 2 --z-charge nan", "--z-charge must be finite"),
    ("kernel-mc --gamma 4 --zeta nan", "--zeta must be finite, got nan"),
    ("kernel-mc --gamma 4 --samples 0", "--samples must be >= 10000, got 0"),
    ("kernel-mc --gamma 4 --m -1", "--m must be >= 0, got -1"),
    ("kernel-mc --gamma 4 --m2 -2", "--m2 must be >= 0, got -2"),
])
def test_oracle_bad_arguments_exit_2(capsys, argv, message):
    assert main(["oracle", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_hf_order_too_low_exits_2(cfg_file, capsys):
    assert main(["hf", "--config", str(cfg_file), "--set", "hf_order=4"]) == 2
    assert "hf_order must be >= 5" in capsys.readouterr().err


def test_run_resume_flag(cfg_file, tmp_path, capsys):
    assert main(["run", "--config", str(cfg_file)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "out" / "checkpoint.npz"
    assert ckpt.exists()
    assert main(["run", "--config", str(cfg_file), "--resume", str(ckpt),
                 "--stages", "fpdqmc,rpdqmc"]) == 0
    out = capsys.readouterr().out
    assert " fpdqmc" in out
    assert "   vqmc" not in out  # the variational stage was skipped

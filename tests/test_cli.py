import pytest

from magqmc.cli import main
from magqmc.config import parse_config_text
from magqmc.hf import BasisError
from magqmc.iofiles import trace_header, trace_row
from magqmc.kernels import KernelAccuracyError, nuclear_kernel
from magqmc.oracles import grid_eigensolve
from magqmc.sampler import BlockStats

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
    assert main(["hf", "--config", str(cfg_file)]) == 0
    assert "cached" in capsys.readouterr().out


def test_scf_failure_exit_3(cfg_file, capsys, monkeypatch):
    import magqmc.pipeline as pl
    from magqmc.hf import SCFError

    def boom(*a, **k):
        raise SCFError("no convergence", [-1.0, -1.1])

    monkeypatch.setattr(pl, "scf", boom)
    assert main(["hf", "--config", str(cfg_file), "--force"]) == 3
    err = capsys.readouterr().err
    assert "energy history" in err


@pytest.mark.parametrize("target, error", [
    ("build_kernel_table", KernelAccuracyError),
    ("scf", BasisError),
])
def test_run_solver_failure_exit_3(cfg_file, capsys, monkeypatch, target, error):
    import magqmc.pipeline as pl

    def boom(*a, **k):
        raise error("forced failure")

    monkeypatch.setattr(pl, target, boom)
    assert main(["run", "--config", str(cfg_file)]) == 3
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


def test_bad_ref_argument(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_text(trace_header("00"))
    assert main(["trace-export", str(trace), "--out", str(tmp_path / "x"),
                 "--ref", "missing-equals"]) == 2


def test_oracle_subcommand(capsys):
    assert main(["oracle", "kernel-mc", "--gamma", "4.0", "--samples", "20000"]) == 0
    assert "D_00" in capsys.readouterr().out
    assert main(["oracle", "grid-eigen", "--gamma", "2.0", "--zmax", "8",
                 "--points", "2001"]) == 0
    out = capsys.readouterr().out
    assert "eps_0" in out
    res = grid_eigensolve(lambda z: nuclear_kernel(2.0, 0, 1.0, z), z_max=8.0, n_points=2001)
    assert f"+- {res.error_estimate[0]:.1e} truncation + roundoff" in out


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

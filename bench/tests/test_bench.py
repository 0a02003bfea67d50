"""The benchmark's own tests: tracer arithmetic, check sensitivity, a smoke run.

    python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import checks
import child
import run
from layers import PER_LAYER, layer_metrics
from tracer import Span, Target, Tracer, self_times
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]


# -- tracer -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_of_synthetic_spans():
    spans = [
        Span("entry", 0.0, 10.0, -1),
        Span("kernels.build", 0.0, 4.0, 0, {"tables": 8}),
        Span("kernels.quad", 0.5, 3.5, 1, {"points": 800}),
        Span("sampler.metropolis", 4.1, 4.2, 0, {"proposed": 5, "accepted": 0}),
        Span("run_stage", 5.0, 9.0, 0, {"stage": "fpdqmc", "clamps": 2}),
        Span("sampler.metropolis", 5.0, 6.0, 4, {"proposed": 10, "accepted": 7}),
        Span("guiding.evaluate", 5.2, 5.8, 5, {"configs": 10}),
        Span("dqmc.branch", 6.0, 6.5, 4, {"population": 9}),
    ]
    m = layer_metrics(spans, absent=["x.y"])
    assert set(m) == set(PER_LAYER) - {"pipeline.walker_steps_per_s", "trace.overhead_frac"}
    assert m["kernels.build_s"] == 4.0
    assert m["kernels.tables"] == 8 and m["kernels.quad_points"] == 800
    assert m["pipeline.fpdqmc_s"] == 4.0 and m["pipeline.vqmc_s"] == 0.0
    assert m["dqmc.weight_clamps"] == 2
    # the move outside a stage is timed but not counted
    assert (m["sampler.proposed"], m["sampler.accepted"]) == (10, 7)
    assert m["sampler.acceptance"] == pytest.approx(0.7)
    assert m["sampler.metropolis_self_s"] == pytest.approx(0.1 + 1.0 - 0.6)
    assert m["guiding.us_per_config"] == pytest.approx(0.6 / 10 * 1e6)
    assert m["dqmc.population_min"] == m["dqmc.population_max"] == 9
    assert m["trace.uncovered_frac"] == pytest.approx(1.0 - (4.0 + 0.1 + 4.0) / 10.0)
    assert m["trace.absent_layers"] == 1


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise ValueError("boom")

    class Box:
        @classmethod
        def make(cls, v):
            return v

        def method(self, v):
            return v

    mod.inner, mod.outer, mod.boom, mod.Box = inner, outer, boom, Box
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_wraps_functions_and_methods_and_survives_drift(fake_module):
    mod = fake_module
    originals = (mod.outer, mod.inner, vars(mod.Box)["make"], vars(mod.Box)["method"])
    t = Tracer()
    t.install([
        Target("fake_layer", "outer", "outer"),
        Target("fake_layer", "inner", "inner", lambda a, k, r: {"n": r}),
        Target("fake_layer", "Box.make", "make"),
        Target("fake_layer", "Box.method", "method", lambda a, k, r: {"n": a[5]}),
        Target("fake_layer", "gone", "gone"),
        Target("fake_layer_missing_module", "f", "f"),
    ])
    assert mod.outer(1) == 4
    assert mod.Box.make(3) == 3
    assert mod.Box().method(5) == 5  # its count function fails: span kept, counts dropped
    assert [s.name for s in t.spans] == ["outer", "inner", "make", "method"]
    assert t.spans[1].parent == 0 and t.spans[1].attrs == {"n": 2}
    assert t.spans[3].attrs == {}
    assert t.absent == ["fake_layer.gone", "fake_layer_missing_module.f",
                        "fake_layer.Box.method (counts)"]
    t.uninstall()
    assert (mod.outer, mod.inner, vars(mod.Box)["make"], vars(mod.Box)["method"]) == originals


def test_tracer_closes_the_span_of_a_raising_call(fake_module):
    t = Tracer()
    t.install([Target("fake_layer", "boom", "boom")])
    with pytest.raises(ValueError):
        fake_module.boom()
    t.uninstall()
    assert t.spans[0].attrs == {"error": 1} and not math.isnan(t.spans[0].end)
    assert t.begin("next") == 1 and t.spans[1].parent == -1


# -- checks fail on perturbed outputs ------------------------------------------


def centers(workload):
    return {stage: c for stage, (c, _) in checks.STAGE_BOUNDS[workload].items()}


def he_out(workload):
    return {"e_hf": checks.HEPLUS_E_HF, "energies": centers(workload)}


def c6_out():
    e = checks.C6_E_HF_24
    return {
        "exit_codes": [0, 0],
        "scf": {
            "24": {"e_total": e, "iterations": 16, "e_recomputed": e},
            "36": {"e_total": e * (1 + 3.5e-8), "iterations": 16, "e_recomputed": e * (1 + 3.5e-8)},
        },
    }


def fe_out():
    return {
        "zero_variance": {"re": [650.0] * 5, "im": [1e-5] * 5},
        "fd": {"code": [[-4125.149, -51.343]] * 4, "ref": [[-4125.144, -51.358]] * 4},
        "energies": centers("fe-walkers"),
    }


def test_stage_bounds_cover_every_sampling_stage():
    for name, wl in WORKLOADS.items():
        stages = {s[0] for s in wl.schedule}
        assert set(checks.STAGE_BOUNDS.get(name, {})) == stages


@pytest.mark.parametrize("workload", ["heplus-cold", "heplus-warm"])
def test_he_check_fails_on_shifted_hf_energy_and_stage_energy(workload):
    assert checks.check_he(workload, he_out(workload)) == []
    out = he_out(workload)
    out["e_hf"] *= 1 + 1e-5
    assert checks.check_he(workload, out)
    for stage, (c, half) in checks.STAGE_BOUNDS[workload].items():
        out = he_out(workload)
        out["energies"][stage] = c + 1.01 * half
        assert checks.check_he(workload, out)
        out["energies"][stage] = float("nan")
        assert checks.check_he(workload, out)


@pytest.mark.parametrize("perturb", [
    lambda o: o["scf"]["24"].update(e_total=o["scf"]["24"]["e_total"] * (1 + 1e-5),
                                    e_recomputed=o["scf"]["24"]["e_total"] * (1 + 1e-5)),
    lambda o: o["scf"]["36"].update(e_total=checks.C6_E_HF_24 * (1 + 2e-6),
                                    e_recomputed=checks.C6_E_HF_24 * (1 + 2e-6)),
    lambda o: o["scf"]["36"].update(e_recomputed=o["scf"]["36"]["e_total"] * (1 + 1e-9)),
    lambda o: o.update(exit_codes=[0, 3]),
    lambda o: o["scf"].pop("36"),
])
def test_c6_check_fails_on_perturbed_output(perturb):
    assert checks.check_c6("c6-hf", c6_out()) == []
    out = c6_out()
    perturb(out)
    assert checks.check_c6("c6-hf", out)


@pytest.mark.parametrize("perturb", [
    lambda o: o["zero_variance"]["re"].__setitem__(2, 650.0 * (1 + 1e-5)),
    lambda o: o["zero_variance"]["im"].__setitem__(0, 2e-3),
    lambda o: o["fd"]["ref"].__setitem__(0, [-4125.144 * (1 + 2e-3), -51.358]),
    lambda o: o["fd"].update(code=o["fd"]["code"][:3], ref=o["fd"]["ref"][:3]),
    lambda o: o["energies"].update(vqmc=float("inf")),
])
def test_fe_check_fails_on_perturbed_output(perturb):
    assert checks.check_fe("fe-walkers", fe_out()) == []
    out = fe_out()
    perturb(out)
    assert checks.check_fe("fe-walkers", out)


def test_same_run_check_compares_rows_and_energies():
    a = {"rows": ["vqmc,0,1.0"], "energies": {"vqmc": 1.0}}
    assert checks.check_same_run(a, json.loads(json.dumps(a))) == []
    assert checks.check_same_run(a, {"rows": ["vqmc,0,1.0000000000000002"],
                                     "energies": {"vqmc": 1.0}})
    assert checks.check_same_run(a, {"rows": a["rows"], "energies": {"vqmc": 1.1}})


def test_finite_difference_local_energy_matches_the_code():
    from magqmc.guiding import GuidingFunction, Hamiltonian
    from magqmc.jastrow import JastrowParams
    from magqmc.oracles import HarmonicLongitudinal

    gamma, n = 40.0, 3
    g = GuidingFunction(HarmonicLongitudinal(range(n), gamma, 4.0),
                        Hamiltonian(gamma=gamma, nuclear_charge=3.0),
                        JastrowParams(gamma / 2, 3.0, n))
    rng = np.random.default_rng(5)
    r = rng.normal(size=(4, n, 3)) * np.array([0.3, 0.3, 0.6])
    code = g.evaluate(r).e_loc
    ref = checks.fd_local_energy(g.evaluate, r, gamma, 3.0)
    assert np.max(np.abs(code - ref) / np.abs(ref)) < checks.FE_FD_RTOL
    # dropping the L_z term (-gamma M / 2 = -3 gamma / 2 here) is caught
    assert np.max(np.abs(code + 1.5 * gamma - ref) / np.abs(ref)) > checks.FE_FD_RTOL


def test_fd_probe_skips_walkers_next_to_a_node():
    drift = np.full((6, 26, 3), 100.0)
    phase_grad = np.zeros((6, 26, 3))
    phase_grad[1, 7, 0] = 6.4e3  # the persistent walker of fe-walkers seed 105
    assert checks.fd_probe_walkers(drift, phase_grad).tolist() == [0, 2, 3, 4]


# -- smoke run and the benchmark definition ------------------------------------


def test_tiny_smoke_run_emits_every_metric(tmp_path, monkeypatch):
    tiny = Workload("fe-walkers", "fe", None, (("vqmc", 2, 2, 1),))
    monkeypatch.setitem(child.WORKLOADS, "fe-walkers", tiny)
    monkeypatch.setattr(checks, "STAGE_BOUNDS", {})
    reps = []
    for traced in run.TRACED_PLAN:
        out = tmp_path / f"rep{len(reps)}.json"
        child.main(["--workload", "fe-walkers", "--seed", "3", "--trace", str(traced),
                    "--workdir", str(tmp_path), "--out", str(out)])
        reps.append((traced, json.loads(out.read_text()), None))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, messages = run.report(tiny, trace, reps)
        assert messages == [] and result["correct"]
        assert (result["attempted"], result["failed"]) == (3, 0)
        assert list(result["metrics"]) == [m["name"] for m in spec[section]]
        for name, m in result["metrics"].items():
            assert math.isfinite(m["value"]), name
    assert result["metrics"]["pipeline.walker_steps_per_s"]["value"] > 0
    assert result["metrics"]["sampler.proposed"]["value"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * spec["run_seconds"] < 3420


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heplus-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

import logging
import math

import numpy as np
import pytest

from magqmc import dqmc
from magqmc.config import StageSpec, parse_config_text
from magqmc.dqmc import (
    PopulationControl,
    PopulationControlError,
    branch,
    fp_step,
    run_stage,
)
from magqmc.guiding import GuidingFunction
from magqmc.hf import scf
from magqmc.kernels import build_kernel_table
from magqmc.oracles import separable_test_hamiltonian
from magqmc.pipeline import guiding_for, kernel_grid_for
from magqmc.sampler import BlockStats, WalkerPopulation, init_walkers, metropolis_step


@pytest.fixture
def exact_case():
    return separable_test_hamiltonian(gamma=8.0, omega=2.0, n_electrons=1)


@pytest.fixture
def exact_guiding(exact_case):
    return GuidingFunction(exact_case.orbitals, exact_case.hamiltonian())


def make_pop(guiding, n, seed=3):
    return init_walkers(guiding, n, seed)


def with_weights(pop, w):
    return WalkerPopulation(pop.r, np.asarray(w, dtype=float), pop.phase, pop.age, pop.ev)


def test_branch_identity_for_unit_weights(exact_guiding):
    pop = make_pop(exact_guiding, 40)
    out = branch(pop, np.random.default_rng(0), target=40)
    assert out.size == 40
    assert np.array_equal(out.r, pop.r)
    assert np.all(out.weight == 1.0)


def test_branch_copy_distribution(exact_guiding):
    # a weight-2.5 walker must yield 2 or 3 copies with equal probability
    pop = make_pop(exact_guiding, 1)
    rng = np.random.default_rng(2)
    sizes = [branch(with_weights(pop, [2.5]), rng, target=10).size for _ in range(100_000)]
    assert set(sizes) == {2, 3}
    assert sizes.count(2) / len(sizes) == pytest.approx(0.5, abs=0.01)


def test_branch_preserves_expected_population(exact_guiding):
    pop = make_pop(exact_guiding, 200)
    rng = np.random.default_rng(3)
    w = rng.uniform(0.3, 1.9, size=200)
    target_weight = w.sum()
    sizes = [branch(with_weights(pop, w), rng, target=400).size for _ in range(400)]
    sem = np.std(sizes, ddof=1) / math.sqrt(len(sizes))
    assert abs(np.mean(sizes) - target_weight) < 3 * sem + 1e-9


def test_branch_keeps_heaviest_survivor(exact_guiding):
    pop = make_pop(exact_guiding, 3)
    out = branch(with_weights(pop, [1e-9, 1e-9, 1e-7]), np.random.default_rng(4), target=3)
    assert out.size == 1
    assert np.array_equal(out.r[0], pop.r[2])


def test_population_explosion_aborts(exact_guiding):
    pop = make_pop(exact_guiding, 50)
    with pytest.raises(PopulationControlError):
        branch(with_weights(pop, np.full(50, 20.0)), np.random.default_rng(5), target=10)


def test_update_offset_formula():
    ctrl = PopulationControl(e_trial=0.0, target=100, tau_block=0.02, gain=0.1)
    assert ctrl.update(-3.0, 100) == pytest.approx(-3.0)
    ctrl2 = PopulationControl(e_trial=0.0, target=100, tau_block=0.02, gain=0.1)
    got = ctrl2.update(-3.0, 200)
    assert got == pytest.approx(-3.0 - 0.1 * math.log(2.0) / 0.02)


def test_update_offset_clamps_to_recent_history():
    ctrl = PopulationControl(e_trial=0.0, target=100, tau_block=1e-4, gain=0.1)
    for e in (-1.0, -1.01, -0.99):
        ctrl.update(e, 100)
    # a population crash would send E_T far away; the clamp holds it near history
    got = ctrl.update(-1.0, 100_000)
    recent = ctrl.history
    sig = float(np.std(recent[-20:]))
    assert got >= min(recent) - 10 * sig - 1e-12
    assert math.isfinite(got)


def test_fp_step_exact_guiding_uniform_weights(exact_case, exact_guiding):
    rng = np.random.default_rng(6)
    pop = make_pop(exact_guiding, 60)
    e_t = exact_case.exact_energy - 0.7
    stepped, _, _ = fp_step(pop, exact_guiding, 1e-3, e_t, rng)
    expect = math.exp(-1e-3 * 0.7)
    assert np.allclose(stepped.weight, expect, rtol=1e-12)


def test_fp_weight_neutral_at_mean_energy(exact_case, exact_guiding):
    rng = np.random.default_rng(7)
    pop = make_pop(exact_guiding, 60)
    stepped, _, _ = fp_step(pop, exact_guiding, 1e-3, exact_case.exact_energy, rng)
    assert np.allclose(stepped.weight, 1.0, rtol=1e-12)


def test_released_equals_fixed_for_real_guiding(exact_guiding):
    # real guiding: Im E_L = 0, phases never move, estimators coincide exactly
    spec_fp = StageSpec("fpdqmc", 6, 20, 2)
    spec_rp = StageSpec("rpdqmc", 6, 20, 2)

    def run(spec):
        rng = np.random.default_rng(11)
        pop = init_walkers(exact_guiding, 50, rng)
        ctrl = PopulationControl(e_trial=1.0, target=50, tau_block=20 * 1e-3)
        _, res = run_stage(pop, exact_guiding, spec, 1e-3, rng, control=ctrl)
        return res

    fp = run(spec_fp)
    rp = run(spec_rp)
    assert [s.e_block for s in rp.stats] == [s.e_block for s in fp.stats]
    assert all(s.rp_signal == pytest.approx(1.0, abs=1e-15) for s in rp.stats)


def test_released_stage_resumes_after_prior_rows(exact_guiding):
    # a fresh released stage zeroes the walker phases; a resumed one starts
    # at block len(prior_stats) and keeps them (a real guiding function
    # never moves a phase, so the start value shows in the result)
    spec = StageSpec("rpdqmc", 3, 5, 1)
    prior = [BlockStats("rpdqmc", 0, 1.0, math.nan, math.nan, 0.5, 20, 1.0, 1.0, True)]

    def run(prior_stats):
        rng = np.random.default_rng(11)
        pop = init_walkers(exact_guiding, 20, rng)
        pop = WalkerPopulation(pop.r, pop.weight, np.full(20, 0.5), pop.age, pop.ev)
        ctrl = PopulationControl(e_trial=1.0, target=20, tau_block=5 * 1e-3)
        return run_stage(pop, exact_guiding, spec, 1e-3, rng, control=ctrl,
                         prior_stats=prior_stats)

    pop, res = run(None)
    assert [s.index for s in res.stats] == [0, 1, 2]
    assert np.all(pop.phase == 0.0)
    pop, res = run(prior)
    assert [s.index for s in res.stats] == [0, 1, 2]
    assert res.stats[0] is prior[0]
    assert np.all(pop.phase == 0.5)


def test_diffusion_stage_needs_population_control(exact_guiding):
    rng = np.random.default_rng(11)
    pop = init_walkers(exact_guiding, 10, rng)
    with pytest.raises(ValueError, match="PopulationControl"):
        run_stage(pop, exact_guiding, StageSpec("fpdqmc", 2, 5, 1), 1e-3, rng)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weight_clamp_diagnostics(exact_case, exact_guiding):
    rng = np.random.default_rng(12)
    pop = make_pop(exact_guiding, 20)
    # absurd offset forces every weight over the clamp in one step
    stepped, _, clamped = fp_step(pop, exact_guiding, 1.0, exact_case.exact_energy + 1e4, rng)
    assert clamped == 20
    assert np.all(stepped.weight == 1e12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stage_weight_clamps_sum_fp_step_counts(exact_case, exact_guiding, monkeypatch):
    # an offset far below the energy drives every weight under the clamp
    counts = []

    def counted(*args, **kwargs):
        out = fp_step(*args, **kwargs)
        counts.append(out[2])
        return out

    monkeypatch.setattr(dqmc, "fp_step", counted)
    rng = np.random.default_rng(12)
    pop = make_pop(exact_guiding, 20)
    ctrl = PopulationControl(e_trial=exact_case.exact_energy - 1e4, target=20, tau_block=3.0)
    _, res = run_stage(pop, exact_guiding, StageSpec("fpdqmc", 1, 3, 0), 1.0, rng, control=ctrl)
    assert len(counts) == 3 and counts[0] == 20
    assert res.weight_clamps == sum(counts)


def test_vqmc_stage_matches_metropolis_steps():
    # the block energy sum w Re E_L / sum w at w = 1 is the plain sample mean
    case = separable_test_hamiltonian(gamma=8.0, omega=2.0, n_electrons=1,
                                      amplitude_jitter=0.02)
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    spec = StageSpec("vqmc", 4, 7, 1)
    rng = np.random.default_rng(21)
    _, res = run_stage(init_walkers(gf, 30, rng), gf, spec, 0.05, rng)

    rng = np.random.default_rng(21)
    pop = init_walkers(gf, 30, rng)
    want = []
    for _ in range(spec.n_blocks):
        e_sum, n_acc = 0.0, 0
        for _ in range(spec.steps_per_block):
            pop, acc = metropolis_step(pop, gf, 0.05, rng)
            n_acc += acc
            e_sum += float(np.sum(np.real(pop.ev.e_loc)))
        n = spec.steps_per_block * pop.size
        want.append((e_sum / n, n_acc / n))
    assert [(s.e_block, s.acceptance) for s in res.stats] == want
    assert len(set(want)) == len(want)


def test_closed_loop_population_control():
    case = separable_test_hamiltonian(gamma=8.0, omega=2.0, n_electrons=1,
                                      amplitude_jitter=0.02)
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    rng = np.random.default_rng(13)
    pop = init_walkers(gf, 100, rng)
    ctrl = PopulationControl(e_trial=case.exact_energy, target=100, tau_block=25 * 5e-3)
    _, res = run_stage(pop, gf, StageSpec("fpdqmc", 120, 25, 20), 5e-3, rng, control=ctrl)
    pops = [s.population for s in res.stats]
    assert min(pops) >= 50 and max(pops) <= 200
    # projection leaves the energy at the exact eigenvalue within noise
    assert res.energy == pytest.approx(case.exact_energy, abs=5 * res.sem + 1e-4)


def test_stage_running_average_recomputable(exact_guiding):
    rng = np.random.default_rng(14)
    pop = init_walkers(exact_guiding, 40, rng)
    case_jitter = separable_test_hamiltonian(gamma=8.0, omega=2.0, n_electrons=1,
                                             amplitude_jitter=0.02)
    gf = GuidingFunction(case_jitter.orbitals, case_jitter.hamiltonian())
    pop = init_walkers(gf, 40, rng)
    _, res = run_stage(pop, gf, StageSpec("vqmc", 12, 10, 3), 0.05, rng)
    kept = []
    for s in res.stats:
        if not s.equilibration:
            kept.append(s.e_block)
            assert s.e_avg == pytest.approx(np.mean(kept), abs=1e-14)
        else:
            assert math.isnan(s.e_avg)
    assert res.sigma == pytest.approx(np.std(kept, ddof=1))


@pytest.fixture(scope="module")
def heplus_guiding():
    cfg = parse_config_text("z = 2\nn_electrons = 1\nb_tesla = 1e8\nhf_elements = 12\n")
    kernels = build_kernel_table(cfg.field.beta, cfg.field.gamma, 2.0, [0], kernel_grid_for(cfg))
    return guiding_for(cfg, scf(cfg, kernels))


def _acceptance_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.levelno == logging.WARNING and "acceptance" in r.getMessage()]


def test_diffusion_at_small_dtau_does_not_warn_about_acceptance(heplus_guiding, caplog):
    rng = np.random.default_rng(5)
    pop = init_walkers(heplus_guiding, 40, rng)
    ctrl = PopulationControl(e_trial=-15.3, target=40, tau_block=10 * 1e-4)
    with caplog.at_level(logging.WARNING, logger="magqmc.dqmc"):
        _, res = run_stage(pop, heplus_guiding, StageSpec("fpdqmc", 3, 10, 1), 1e-4, rng,
                           control=ctrl)
    # near-unit acceptance is the regime small-dtau diffusion wants
    assert min(s.acceptance for s in res.stats) > 0.99
    assert _acceptance_warnings(caplog) == []


def test_acceptance_warnings_name_the_step_key(heplus_guiding, caplog):
    rng = np.random.default_rng(6)
    pop = init_walkers(heplus_guiding, 40, rng)
    with caplog.at_level(logging.WARNING, logger="magqmc.dqmc"):
        run_stage(pop, heplus_guiding, StageSpec("vqmc", 2, 10, 1), 1e-9, rng)
    [msg] = _acceptance_warnings(caplog)
    assert msg.startswith("vqmc acceptance") and msg.endswith("increase dtau_metropolis")
    caplog.clear()
    # far too large a diffusion step: almost every move is rejected
    rng = np.random.default_rng(6)
    pop = init_walkers(heplus_guiding, 40, rng)
    ctrl = PopulationControl(e_trial=-15.3, target=40, tau_block=3 * 0.1)
    with caplog.at_level(logging.WARNING, logger="magqmc.dqmc"):
        _, res = run_stage(pop, heplus_guiding, StageSpec("fpdqmc", 1, 3, 0), 0.1, rng,
                           control=ctrl)
    assert res.stats[0].acceptance < 0.01
    [msg] = _acceptance_warnings(caplog)
    assert msg.startswith("fpdqmc acceptance") and msg.endswith("decrease dtau")

import math

import numpy as np
import pytest

from magqmc.config import StageSpec
from magqmc.dqmc import (
    PopulationControl,
    PopulationControlError,
    branch,
    fp_step,
    run_stage,
    update_offset,
)
from magqmc.guiding import GuidingFunction
from magqmc.oracles import separable_test_hamiltonian
from magqmc.sampler import WalkerPopulation, init_walkers


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
    assert update_offset(ctrl, -3.0, 100) == pytest.approx(-3.0)
    ctrl2 = PopulationControl(e_trial=0.0, target=100, tau_block=0.02, gain=0.1)
    got = update_offset(ctrl2, -3.0, 200)
    assert got == pytest.approx(-3.0 - 0.1 * math.log(2.0) / 0.02)


def test_update_offset_clamps_to_recent_history():
    ctrl = PopulationControl(e_trial=0.0, target=100, tau_block=1e-4, gain=0.1)
    for e in (-1.0, -1.01, -0.99):
        update_offset(ctrl, e, 100)
    # a population crash would send E_T far away; the clamp holds it near history
    got = update_offset(ctrl, -1.0, 100_000)
    recent = ctrl.history
    sig = float(np.std(recent[-20:]))
    assert got >= min(recent) - 10 * sig - 1e-12
    assert math.isfinite(got)


def test_fp_step_exact_guiding_uniform_weights(exact_case, exact_guiding):
    rng = np.random.default_rng(6)
    pop = make_pop(exact_guiding, 60)
    e_t = exact_case.exact_energy - 0.7
    stepped = fp_step(pop, exact_guiding, 1e-3, e_t, rng)
    expect = math.exp(-1e-3 * 0.7)
    assert np.allclose(stepped.weight, expect, rtol=1e-12)


def test_fp_weight_neutral_at_mean_energy(exact_case, exact_guiding):
    rng = np.random.default_rng(7)
    pop = make_pop(exact_guiding, 60)
    stepped = fp_step(pop, exact_guiding, 1e-3, exact_case.exact_energy, rng)
    assert np.allclose(stepped.weight, 1.0, rtol=1e-12)


def test_fp_step_without_metropolis(exact_case, exact_guiding):
    rng = np.random.default_rng(8)
    pop = make_pop(exact_guiding, 60)
    stepped = fp_step(pop, exact_guiding, 1e-3, exact_case.exact_energy, rng,
                      use_metropolis=False)
    assert np.allclose(stepped.weight, 1.0, rtol=1e-12)
    assert not np.array_equal(stepped.r, pop.r)  # pure drift-diffusion moved everyone


def test_released_equals_fixed_for_real_guiding(exact_guiding):
    # real guiding: Im E_L = 0, phases never move, estimators coincide exactly
    spec_fp = StageSpec("fpdqmc", 6, 20, 2)
    spec_rp = StageSpec("rpdqmc", 6, 20, 2)

    def run(spec, released):
        rng = np.random.default_rng(11)
        pop = init_walkers(exact_guiding, 50, rng)
        ctrl = PopulationControl(e_trial=1.0, target=50, tau_block=20 * 1e-3)
        _, res = run_stage(pop, exact_guiding, spec, 1e-3, rng,
                           control=ctrl, released=released)
        return res

    fp = run(spec_fp, False)
    rp = run(spec_rp, True)
    assert [s.e_block for s in rp.stats] == [s.e_block for s in fp.stats]
    assert all(s.rp_signal == pytest.approx(1.0, abs=1e-15) for s in rp.stats)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weight_clamp_diagnostics(exact_case, exact_guiding):
    rng = np.random.default_rng(12)
    pop = make_pop(exact_guiding, 20)
    from magqmc.dqmc import StepDiagnostics

    diag = StepDiagnostics()
    # absurd offset forces every weight over the clamp in one step
    stepped = fp_step(pop, exact_guiding, 1.0, exact_case.exact_energy + 1e4, rng, diag=diag)
    assert diag.clamped == 20
    assert np.all(stepped.weight == 1e12)


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

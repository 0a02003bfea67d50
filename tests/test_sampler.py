import numpy as np
import pytest
from scipy import stats

from magqmc.config import StageSpec
from magqmc.dqmc import run_stage
from magqmc.guiding import GuidingFunction
from magqmc.oracles import separable_test_hamiltonian
from magqmc.sampler import init_walkers, metropolis_step


def vqmc_blocks(pop, guiding, n_blocks, steps, dtau, rng, on_block=None):
    """A variational stage of ``n_blocks`` blocks: (population, block rows)."""
    pop, res = run_stage(pop, guiding, StageSpec("vqmc", n_blocks, steps, 0), dtau, rng,
                         on_block=on_block)
    return pop, res.stats


@pytest.fixture
def exact_case():
    return separable_test_hamiltonian(gamma=8.0, omega=2.0, n_electrons=1)


@pytest.fixture
def exact_guiding(exact_case):
    return GuidingFunction(exact_case.orbitals, exact_case.hamiltonian())


def test_init_deterministic_and_node_free(exact_guiding):
    a = init_walkers(exact_guiding, 64, 123)
    b = init_walkers(exact_guiding, 64, 123)
    assert np.array_equal(a.r, b.r)
    assert np.all(a.ev.ok)
    assert np.all(a.weight == 1.0)
    c = init_walkers(exact_guiding, 64, 124)
    assert not np.array_equal(a.r, c.r)


def test_initial_transverse_moments(he_guiding):
    # raw draws (no pre-equilibration): <rho^2> per slot tracks 2(m+1)/gamma
    pop = init_walkers(he_guiding, 100_000, 7, pre_steps=0)
    gamma = he_guiding.orbitals.gamma
    for k, m in enumerate(he_guiding.orbitals.ms):
        rho2 = np.mean(pop.r[:, k, 0] ** 2 + pop.r[:, k, 1] ** 2)
        assert rho2 == pytest.approx(2 * (m + 1) / gamma, rel=0.05)


def test_detailed_balance_against_known_density(exact_case, exact_guiding):
    # 1-electron sampler equilibrium must reproduce |Psi|^2 exactly:
    # z ~ N(0, 1/(2 omega)), rho^2 ~ Exp(mean 2/gamma)
    rng = np.random.default_rng(99)
    pop = init_walkers(exact_guiding, 400, rng)
    zs, r2s = [], []
    for i in range(400):
        pop, _ = metropolis_step(pop, exact_guiding, 0.08, rng)
        # samples 8 steps apart are close enough to independent for the
        # chi-square (at a stride of 4, 20% of seeds 0-59 gave p_z < 0.05)
        if i % 8 == 0 and i > 80:
            zs.append(pop.r[:, 0, 2].copy())
            r2s.append(pop.r[:, 0, 0] ** 2 + pop.r[:, 0, 1] ** 2)
    z = np.concatenate(zs)
    r2 = np.concatenate(r2s)

    # 12 equal-probability bins over the 2-98% quantiles plus the two tails,
    # so observed and expected counts have the same sum
    probs = np.r_[0.02, np.full(12, 0.08), 0.02]
    quantiles = np.linspace(0.02, 0.98, 13)

    sigma_z = 1.0 / np.sqrt(2 * exact_case.omega)
    edges = np.r_[-np.inf, stats.norm.ppf(quantiles, scale=sigma_z), np.inf]
    counts, _ = np.histogram(z, bins=edges)
    p_z = stats.chisquare(counts, len(z) * probs).pvalue

    scale = 2.0 / exact_case.gamma
    edges = np.r_[0.0, stats.expon.ppf(quantiles, scale=scale), np.inf]
    counts, _ = np.histogram(r2, bins=edges)
    p_r = stats.chisquare(counts, len(r2) * probs).pvalue
    assert p_z > 0.01
    assert p_r > 0.01


def test_stationarity_no_drift_in_summary_statistics():
    case = separable_test_hamiltonian(gamma=8.0, omega=2.0, n_electrons=1,
                                      amplitude_jitter=0.01)
    gf = GuidingFunction(case.orbitals, case.hamiltonian())
    rng = np.random.default_rng(5)
    pop = init_walkers(gf, 300, rng, pre_steps=400)
    blocks = {"rho2": [], "z2": [], "e": []}

    def record(pop, row, _):
        blocks["rho2"].append(np.mean(pop.r[:, :, 0] ** 2 + pop.r[:, :, 1] ** 2))
        blocks["z2"].append(np.mean(pop.r[:, :, 2] ** 2))
        blocks["e"].append(row.e_block)

    vqmc_blocks(pop, gf, 100, 10, 0.08, rng, on_block=record)
    x = np.arange(100.0)
    for name, series in blocks.items():
        res = stats.linregress(x, np.asarray(series))
        assert abs(res.slope) < 3 * res.stderr, name


def test_zero_variance_blocks(exact_case, exact_guiding):
    rng = np.random.default_rng(6)
    pop = init_walkers(exact_guiding, 80, rng)
    _, rows = vqmc_blocks(pop, exact_guiding, 4, 25, 0.05, rng)
    energies = [row.e_block for row in rows]
    for row in rows:
        assert 0 < row.acceptance <= 1
    assert np.var(energies) < 1e-12
    assert np.max(np.abs(np.asarray(energies) - exact_case.exact_energy)) < 1e-8


def test_reproducible_block_stream(exact_guiding):
    def stream(seed):
        rng = np.random.default_rng(seed)
        pop = init_walkers(exact_guiding, 50, rng)
        _, rows = vqmc_blocks(pop, exact_guiding, 5, 10, 0.05, rng)
        return [(row.e_block, row.acceptance) for row in rows]

    assert stream(42) == stream(42)
    assert stream(42) != stream(43)


def test_weights_remain_unity_in_variational_blocks(exact_guiding):
    rng = np.random.default_rng(8)
    pop = init_walkers(exact_guiding, 30, rng)
    pop, _ = vqmc_blocks(pop, exact_guiding, 1, 20, 0.05, rng)
    assert np.all(pop.weight == 1.0)
    assert np.all(pop.age >= 0)

import numpy as np
import pytest

from magqmc.kernels import (
    GridSpec,
    KernelAccuracyError,
    KernelTable,
    build_kernel_table,
    direct_kernel,
    exchange_kernel,
    graded_grid,
    nuclear_kernel,
)
from magqmc.config import parse_config_text
from magqmc.oracles import (
    mc_integral_kernel,
    nuclear_kernel_m0_closed,
    nuclear_kernel_origin,
)
from magqmc.pipeline import ensure_kernels, kernel_grid_for

GAMMA = 2 * 212.7207


@pytest.fixture(scope="module")
def small_table():
    return build_kernel_table(GAMMA / 2, GAMMA, 2.0, [0, 1], GridSpec(span=12.0, n_points=500))


def test_nuclear_m0_matches_closed_form():
    z = np.array([0.0, 0.003, 0.05, 0.4, 2.0, 5.0])
    got = nuclear_kernel(GAMMA, 0, 2.0, z)
    want = nuclear_kernel_m0_closed(GAMMA, 2.0, z)
    assert np.allclose(got, want, rtol=1e-8)


def test_nuclear_origin_value():
    # -Z sqrt(pi g / 2) at z=0; g=2 gives -sqrt(pi)
    assert nuclear_kernel(2.0, 0, 1.0, 0.0) == pytest.approx(-np.sqrt(np.pi), rel=1e-9)


@pytest.mark.parametrize("m", [0, 3, 10, 25])
def test_nuclear_origin_matches_closed_form_for_every_m(m):
    # the q cutoff grows with the degree of L_m; a fixed cutoff missed 1.9e-6 at m=10
    got = nuclear_kernel(GAMMA, m, 2.0, 0.0)
    assert got == pytest.approx(nuclear_kernel_origin(GAMMA, m, 2.0), rel=1e-10)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_nuclear_far_field(m):
    z = 100.0 / np.sqrt(GAMMA)
    v = nuclear_kernel(GAMMA, m, 3.0, z)
    assert v * z / (-3.0) == pytest.approx(1.0, abs=1e-3)


def test_direct_far_field_and_symmetry():
    z = 100.0 / np.sqrt(GAMMA)
    assert direct_kernel(GAMMA, 0, 0, z) * z == pytest.approx(1.0, abs=1e-3)
    assert direct_kernel(GAMMA, 2, 1, z) * z == pytest.approx(1.0, abs=1e-3)
    zeta = np.array([0.0, 0.02, 0.3, 1.5])
    assert np.array_equal(direct_kernel(GAMMA, 0, 1, zeta), direct_kernel(GAMMA, 1, 0, zeta))


def test_exchange_far_field_orthogonality():
    z = 150.0 / np.sqrt(GAMMA)
    assert exchange_kernel(GAMMA, 1, 1, z) * z == pytest.approx(1.0, abs=1e-3)
    # mixed densities integrate to zero: the tail decays faster than 1/z
    assert abs(exchange_kernel(GAMMA, 1, 0, z)) * z < 0.02


def test_kernels_finite_and_signed_at_origin():
    assert np.isfinite(nuclear_kernel(GAMMA, 0, 2.0, 0.0))
    assert nuclear_kernel(GAMMA, 1, 2.0, 0.0) < 0
    assert direct_kernel(GAMMA, 0, 1, 0.0) > 0
    assert exchange_kernel(GAMMA, 0, 1, 0.0) > 0


def test_direct_zero_separation_closed_value():
    # int_0^inf exp(-q^2/gamma) dq = sqrt(pi gamma)/2; frozen for gamma=1
    assert direct_kernel(1.0, 0, 0, 0.0) == pytest.approx(0.8862269254527580, rel=1e-9)


def test_direct_kernel_against_mc_oracle():
    rng = np.random.default_rng(42)
    for m1, m2 in [(0, 0), (0, 1), (1, 1)]:
        for zeta in rng.uniform(0.0, 0.3, size=3):
            est, sem = mc_integral_kernel(GAMMA, m1, m2, float(zeta), n_samples=200_000, seed=7)
            assert abs(direct_kernel(GAMMA, m1, m2, float(zeta)) - est) < 3.5 * sem


def test_graded_grid_shape():
    g = graded_grid(10.0, 100, 1e-3)
    assert g[0] == 0.0 and g[-1] == pytest.approx(10.0)
    assert np.all(np.diff(g) > 0)
    assert g[1] == pytest.approx(1e-3, rel=0.15)
    with pytest.raises(ValueError):
        graded_grid(1.0, 8, 0.5)


def test_table_interpolation_on_held_out_points(small_table):
    rng = np.random.default_rng(1)
    zeta = rng.uniform(1e-4, 11.0, size=8)
    for m in (0, 1):
        exact = nuclear_kernel(GAMMA, m, 2.0, zeta)
        assert np.allclose(small_table.nuclear(m, zeta), exact, rtol=1e-7)
    exact = direct_kernel(GAMMA, 0, 1, zeta)
    assert np.allclose(small_table.direct(0, 1, zeta), exact, rtol=1e-7)
    exact = exchange_kernel(GAMMA, 0, 1, zeta)
    assert np.allclose(small_table.exchange(0, 1, zeta), exact, rtol=2e-7, atol=1e-10)


def test_table_even_and_tail(small_table):
    zeta = np.array([0.3, 2.0])
    assert np.array_equal(small_table.direct(0, 0, zeta), small_table.direct(0, 0, -zeta))
    assert np.array_equal(small_table.nuclear(0, zeta), small_table.nuclear(0, -zeta))
    # beyond the tabulated span the point-charge asymptote takes over
    far = 40.0
    assert small_table.direct(0, 0, far) == pytest.approx(1 / far, rel=1e-4)
    assert small_table.nuclear(0, far) == pytest.approx(-2.0 / far, rel=1e-4)
    assert small_table.exchange(0, 1, far) == 0.0


def test_too_coarse_grid_reported():
    with pytest.raises(KernelAccuracyError, match="refine"):
        build_kernel_table(GAMMA / 2, GAMMA, 2.0, [0], GridSpec(span=12.0, n_points=24))


def test_table_save_load_round_trip(small_table, tmp_path):
    path = tmp_path / "kern.npz"
    small_table.save(path)
    loaded = KernelTable.load(path)
    assert loaded.cache_key() == small_table.cache_key()
    zeta = np.array([0.0, 0.01, 1.0])
    assert np.array_equal(loaded.direct(0, 1, zeta), small_table.direct(0, 1, zeta))
    assert np.array_equal(loaded.nuclear(1, zeta), small_table.nuclear(1, zeta))


def test_corrupted_table_detected(small_table, tmp_path):
    path = tmp_path / "kern.npz"
    small_table.save(path)
    import json
    import numpy as _np

    with _np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays.pop("meta")))
    arrays["v_0"] = arrays["v_0"] + 1e-5  # silent corruption
    with open(path, "wb") as fh:
        _np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
    with pytest.raises((KernelAccuracyError, ValueError)):
        KernelTable.load(path)


def test_interrupted_save_keeps_previous_table(small_table, tmp_path, monkeypatch):
    path = tmp_path / "kern.npz"
    small_table.save(path)
    before = path.read_bytes()

    def dies_midway(fh, **arrays):
        fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", dies_midway)
    with pytest.raises(KeyboardInterrupt):
        small_table.save(path)
    assert path.read_bytes() == before


def test_truncated_cache_is_rebuilt(tmp_path, monkeypatch):
    monkeypatch.setenv("MAGQMC_CACHE_DIR", str(tmp_path / "cache"))
    cfg = parse_config_text("z = 1\nbeta = 50\nhf_elements = 12\n")
    table, path, hit = ensure_kernels(cfg)
    assert not hit
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    rebuilt, path2, hit = ensure_kernels(cfg)
    assert not hit and path2 == path
    assert rebuilt.checksum() == table.checksum()
    assert KernelTable.load(path).checksum() == table.checksum()
    assert list(path.parent.iterdir()) == [path]


# ---------------------------------------------------------------------------
# heavy atom: Fe (Z=26) at 5e8 T, every channel m = 0..25


@pytest.fixture(scope="module")
def fe_table():
    cfg = parse_config_text("z = 26\nn_electrons = 26\nb_tesla = 5e8\n")
    # build_kernel_table runs its two-part accuracy gate on all 728 tables
    return build_kernel_table(cfg.field.beta, cfg.field.gamma, 26.0, range(26),
                              kernel_grid_for(cfg))


def test_fe_table_nuclear_origin_every_m(fe_table):
    for m in range(26):
        want = nuclear_kernel_origin(fe_table.gamma, m, 26.0)
        assert fe_table.nuclear(m, 0.0) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("kind, m1, m2", [
    ("V", 25, 25), ("D", 0, 25), ("X", 3, 25), ("X", 25, 25),
])
def test_fe_table_against_adaptive_quadrature(fe_table, kind, m1, m2):
    g = fe_table.gamma
    rng = np.random.default_rng(26)
    zeta = np.concatenate([rng.uniform(0.0, 0.05, 3), rng.uniform(0.05, fe_table.span, 3)])
    if kind == "V":
        got, want = fe_table.nuclear(m1, zeta), nuclear_kernel(g, m1, 26.0, zeta)
    elif kind == "D":
        got, want = fe_table.direct(m1, m2, zeta), direct_kernel(g, m1, m2, zeta)
    else:
        got, want = fe_table.exchange(m1, m2, zeta), exchange_kernel(g, m1, m2, zeta)
    # relative, with the build gate's floor 1e-3 sqrt(gamma): X_3,25 falls to 1e-72
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-3 * np.sqrt(g))
    assert np.max(err) < 1e-7

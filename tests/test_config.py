import dataclasses

import pytest

from magqmc.config import (
    ConfigError,
    Occupation,
    RunConfig,
    config_hash,
    default_ground_occupations,
    parse_config_text,
    physics_hash,
    render_config,
    with_overrides,
)

HE_TEXT = """
# helium at the table field
z = 2
n_electrons = 2
b_tesla = 1.0e8
n_walkers = 500
dtau = 1e-4
seed = 11
"""


def test_default_ground_occupations():
    assert default_ground_occupations(1) == [Occupation(0, 0)]
    assert default_ground_occupations(2) == [Occupation(0, 0), Occupation(1, 0)]


@pytest.mark.parametrize("n", [1, 2, 5, 13, 26])
def test_ground_occupations_distinct_and_compact(n):
    occ = default_ground_occupations(n)
    assert len(set(occ)) == n
    assert max(o.m for o in occ) == n - 1
    assert all(o.nu_z == 0 for o in occ)


def test_default_list_is_overridable_for_excited_configurations():
    # tightly packed atoms may need one electron promoted to nu_z = 1;
    # that is caller input, not the default
    occ = default_ground_occupations(13)
    assert Occupation(12, 0) in occ
    promoted = occ[:-1] + [Occupation(12, 1)]
    assert len(set(promoted)) == 13


def test_parse_valid_helium_config():
    cfg = parse_config_text(HE_TEXT)
    assert cfg.z == 2 and cfg.n_electrons == 2
    assert cfg.field.beta == pytest.approx(212.7207, rel=1e-6)
    assert cfg.n_walkers == 500 and cfg.dtau == 1e-4
    assert cfg.occupations == (Occupation(0, 0), Occupation(1, 0))
    assert [s.stage for s in cfg.schedule] == ["vqmc", "fpdqmc", "rpdqmc"]


def test_pauli_violation_rejected():
    with pytest.raises(ConfigError, match="Pauli"):
        parse_config_text(HE_TEXT + "occupations = 0:0 0:0\n")


def test_zero_time_step_rejected():
    with pytest.raises(ConfigError, match="dtau"):
        parse_config_text(HE_TEXT + "dtau = 0\n")


def test_anion_requires_flag():
    text = "z = 1\nn_electrons = 2\nbeta = 100\noccupations = 0:0 1:0\n"
    with pytest.raises(ConfigError, match="anion"):
        parse_config_text(text)
    cfg = parse_config_text(text + "allow_anion = true\n")
    assert cfg.n_electrons == 2


def test_field_must_be_given_exactly_once():
    with pytest.raises(ConfigError, match="beta or b_tesla"):
        parse_config_text("z = 2\n")
    with pytest.raises(ConfigError, match="not both"):
        parse_config_text("z = 2\nbeta = 1\nb_tesla = 4.701e5\n")


def test_unknown_keys_reported():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config_text(HE_TEXT + "walkers = 10\n")


def test_bad_schedule_token():
    with pytest.raises(ConfigError, match="schedule"):
        parse_config_text(HE_TEXT + "schedule = vqmc-100-200\n")


def test_repeated_stage_rejected():
    # trace rows, summary keys and --stages name a stage by its name
    with pytest.raises(ConfigError, match="repeats stage fpdqmc"):
        parse_config_text(HE_TEXT + "schedule = vqmc:2x10:1 fpdqmc:3x10:1 fpdqmc:3x10:1\n")


@pytest.mark.parametrize("order", [3, 4])
def test_spline_order_below_five_rejected(order):
    # below degree 4 a spline has no second derivative across the triple
    # knot at z = 0, and the local energy takes one
    with pytest.raises(ConfigError, match="hf_order must be >= 5.*lacks at the triple knot"):
        parse_config_text(HE_TEXT + f"hf_order = {order}\n")
    assert parse_config_text(HE_TEXT + "hf_order = 5\n").hf_order == 5


def test_equilibration_must_be_less_than_blocks():
    with pytest.raises(ConfigError, match="equilibration"):
        parse_config_text(HE_TEXT + "schedule = vqmc:10x5:10\n")


def test_iron_figure_schedule_arithmetic():
    cfg = parse_config_text(
        "z = 26\nb_tesla = 5e8\ndtau = 5e-6\n"
        "schedule = vqmc:100x200 fpdqmc:300x200 rpdqmc:300x200\n"
    )
    assert cfg.field.beta == pytest.approx(1063.603, rel=1e-6)
    fp = cfg.schedule[1]
    assert fp.stage == "fpdqmc"
    assert fp.imaginary_time * cfg.dtau == pytest.approx(0.3)
    assert sum(s.n_blocks for s in cfg.schedule) == 700
    # default equilibration: 20% of each stage
    assert [s.equilibration_blocks for s in cfg.schedule] == [20, 60, 60]


ALL_KEYS_TEXT = """
z = 3
n_electrons = 3
beta = 123.25
occupations = 0:0 1:1 2:0
n_walkers = 77
dtau = 3e-05
dtau_metropolis = 0.02
schedule = vqmc:5x7:1 fpdqmc:6x8:2
seed = 9
spin_zeeman = false
allow_anion = true
outdir = some/where
checkpoint_every = 0
hf_elements = 16
hf_order = 5
hf_zmax = 17.5
"""


def test_render_parse_round_trip():
    cfg = parse_config_text(HE_TEXT + "occupations = 0:0 1:1\nhf_zmax = 12.5\n")
    again = parse_config_text(render_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    # every key away from its default: the rendered text is the canonical
    # form, which config_hash hashes and every artifact records
    every = parse_config_text(ALL_KEYS_TEXT)
    assert render_config(every) == ALL_KEYS_TEXT.lstrip()
    assert parse_config_text(render_config(every)) == every
    assert (config_hash(every), physics_hash(every)) == ("9798294be3d344da", "4596417e71703e51")


def test_parsed_defaults_are_the_field_defaults():
    cfg = parse_config_text("z = 2\nbeta = 10\n")
    for f in dataclasses.fields(RunConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(cfg, f.name) == f.default, f.name
    assert parse_config_text("z = 2\nbeta = 10\noutdir =\n").outdir == ""
    assert parse_config_text("z = 2\nbeta = 10\nn_walkers =\n").n_walkers == 500


@pytest.mark.parametrize("line, message", [
    ("n_walkers = 1.5", "n_walkers: invalid literal for int() with base 10: '1.5'"),
    ("dtau = x", "dtau: could not convert string to float: 'x'"),
    ("hf_zmax = z", "hf_zmax: could not convert string to float: 'z'"),
    ("spin_zeeman = maybe", "spin_zeeman: expected boolean, got 'maybe'"),
    ("occupations = 0:a", "occupations: bad occupation token '0:a' (want m:nu_z)"),
    ("schedule = vqmc:ax2", "schedule: bad schedule token 'vqmc:ax2'"),
    ("b_tesla = q", "b_tesla: could not convert string to float: 'q'"),
    ("b_tesla = -5", "magnetic field must be positive, got -5.0 T"),
    ("beta = -1", "field strength must be positive, got beta=-1.0"),
])
def test_bad_value_message(line, message):
    field = "" if line.startswith(("beta", "b_tesla")) else "b_tesla = 1.0e8\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text("z = 2\n" + field + line + "\n")
    assert str(err.value) == f"invalid configuration:\n  - {message}"


def test_field_and_filling_errors_are_reported_before_the_rest():
    # z, n_electrons, the field, occupations and schedule are read first;
    # their errors stop the parse before the other keys are read
    with pytest.raises(ConfigError) as err:
        parse_config_text("z = x\nbeta = q\noccupations = 0:b\nschedule = s\nn_walkers = w\n")
    assert err.value.violations == [
        "z: invalid literal for int() with base 10: 'x'",
        "beta: could not convert string to float: 'q'",
        "occupations: bad occupation token '0:b' (want m:nu_z)",
        "schedule: bad schedule token 's' (want stage:BLOCKSxSTEPS[:EQ])",
    ]
    with pytest.raises(ConfigError) as err:
        parse_config_text("z = 2\nbeta = 1\nseed = s\nn_walkers = w\n")
    assert err.value.violations == [
        "n_walkers: invalid literal for int() with base 10: 'w'",
        "seed: invalid literal for int() with base 10: 's'",
    ]


def test_hashes_distinguish_and_share():
    cfg = parse_config_text(HE_TEXT)
    other_seed = with_overrides(cfg, seed=99)
    assert config_hash(other_seed) != config_hash(cfg)
    # physics hash ignores sampling-only fields
    assert physics_hash(other_seed) == physics_hash(cfg)
    other_field = parse_config_text(HE_TEXT.replace("1.0e8", "2.0e8"))
    assert physics_hash(other_field) != physics_hash(cfg)


def test_config_hash_ignores_output_location_and_cadence():
    # where and how often a run writes does not change its numbers, so a
    # checkpoint can seed a run in another directory
    cfg = parse_config_text(HE_TEXT)
    moved = with_overrides(cfg, outdir="elsewhere/run", checkpoint_every=0)
    assert render_config(moved) != render_config(cfg)
    assert config_hash(moved) == config_hash(cfg)
    assert config_hash(with_overrides(moved, seed=12)) != config_hash(cfg)

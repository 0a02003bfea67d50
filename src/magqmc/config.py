"""Validated run configuration and the key-value config file format.

A config file is plain text, one ``key = value`` per line, ``#`` comments.
Exactly one of ``b_tesla`` / ``beta`` sets the field. Occupations are
``m:nu_z`` pairs; the schedule is ``stage:blocks x steps[:equilibration]``
entries, each stage at most once. The keys, their defaults and their
checks are defined by ``parse_config_text`` (through ``config_from_mapping``
and ``RunConfig.validate``); ``render_config`` writes a configuration back
in this format, and its output parses to the same configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import InputError
from .units import FieldStrength, beta_from_tesla

STAGES = ("vqmc", "fpdqmc", "rpdqmc")

#: Fraction of a stage's blocks treated as equilibration when unspecified.
DEFAULT_EQUILIBRATION_FRACTION = 0.2


class ConfigError(InputError):
    """Invalid configuration; ``violations`` lists every human-readable problem,
    and the message lists them one per line."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = [f"  - {v}" for v in self.violations]
        super().__init__("\n".join(["invalid configuration:", *lines]))


class Occupation(NamedTuple):
    """Single-particle label: magnetic quantum number and longitudinal excitation."""

    m: int
    nu_z: int


def default_ground_occupations(n_electrons: int) -> list[Occupation]:
    """Lowest transverse level, distinct m = 0..N-1, nodeless longitudinal states.

    This is the default filling for a fully spin-polarized atom; tightly
    bound configurations at moderate Z can instead require one or more
    electrons in an excited (nu_z > 0) longitudinal state, which callers
    supply explicitly.
    """
    if n_electrons < 1:
        raise ConfigError([f"n_electrons must be >= 1, got {n_electrons}"])
    return [Occupation(m, 0) for m in range(n_electrons)]


@dataclass(frozen=True)
class StageSpec:
    stage: str
    n_blocks: int
    steps_per_block: int
    equilibration_blocks: int

    def validate(self) -> list[str]:
        out = []
        if self.stage not in STAGES:
            out.append(f"unknown stage '{self.stage}' (expected one of {STAGES})")
        if self.n_blocks < 1:
            out.append(f"{self.stage}: n_blocks must be >= 1")
        if self.steps_per_block < 1:
            out.append(f"{self.stage}: steps_per_block must be >= 1")
        if not 0 <= self.equilibration_blocks < max(self.n_blocks, 1):
            out.append(
                f"{self.stage}: equilibration_blocks must satisfy "
                f"0 <= eq < n_blocks, got {self.equilibration_blocks}"
            )
        return out

    def __str__(self) -> str:
        """The schedule token ``stage:BLOCKSxSTEPS:EQ``."""
        return f"{self.stage}:{self.n_blocks}x{self.steps_per_block}:{self.equilibration_blocks}"

    @property
    def imaginary_time(self) -> float:
        """Total imaginary time covered by the stage per unit dtau."""
        return float(self.n_blocks * self.steps_per_block)


def default_schedule() -> list[StageSpec]:
    return [
        StageSpec("vqmc", 100, 200, 20),
        StageSpec("fpdqmc", 300, 200, 60),
        StageSpec("rpdqmc", 300, 200, 60),
    ]


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one pipeline run. Immutable once built."""

    z: int
    n_electrons: int
    field: FieldStrength
    occupations: tuple[Occupation, ...]
    n_walkers: int = 500
    dtau: float = 1e-4
    dtau_metropolis: float | None = None  # VQMC proposal step; defaults to dtau
    schedule: tuple[StageSpec, ...] = ()
    seed: int = 1
    spin_zeeman_included: bool = True
    allow_anion: bool = False
    outdir: str = "runs/out"
    checkpoint_every: int = 25  # blocks; 0 disables
    # HF discretization knobs (defaults are production resolution)
    hf_elements: int = 24  # elements per half-domain
    hf_order: int = 6  # spline order (degree + 1)
    hf_zmax: float | None = None  # half-domain extent; None -> 60/sqrt(beta)+30/Z

    @property
    def vqmc_step(self) -> float:
        return self.dtau if self.dtau_metropolis is None else self.dtau_metropolis

    @property
    def hf_domain(self) -> float:
        if self.hf_zmax is not None:
            return self.hf_zmax
        return 60.0 / self.field.beta**0.5 + 30.0 / self.z

    def validate(self) -> "RunConfig":
        v = []
        if self.z < 1:
            v.append(f"z must be a positive integer, got {self.z}")
        if not 1 <= self.n_electrons:
            v.append(f"n_electrons must be >= 1, got {self.n_electrons}")
        if self.n_electrons > self.z and not self.allow_anion:
            v.append(
                f"n_electrons={self.n_electrons} > z={self.z}: anions need allow_anion=true"
            )
        if len(self.occupations) != self.n_electrons:
            v.append(
                f"occupations has {len(self.occupations)} entries for "
                f"{self.n_electrons} electrons"
            )
        if len(set(self.occupations)) != len(self.occupations):
            v.append("Pauli violation: duplicate (m, nu_z) occupation pairs")
        for occ in self.occupations:
            if occ.m < 0 or occ.nu_z < 0:
                v.append(f"occupation {occ} has negative quantum numbers")
        if not self.dtau > 0:
            v.append(f"dtau must be positive, got {self.dtau}")
        if self.dtau_metropolis is not None and not self.dtau_metropolis > 0:
            v.append(f"dtau_metropolis must be positive, got {self.dtau_metropolis}")
        if self.n_walkers < 1:
            v.append(f"n_walkers must be >= 1, got {self.n_walkers}")
        if not self.schedule:
            v.append("schedule must contain at least one stage")
        for spec in self.schedule:
            v.extend(spec.validate())
        names = [spec.stage for spec in self.schedule]
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            v.append(f"schedule repeats stage {', '.join(repeated)}: each stage may appear once")
        if self.hf_order < 5:
            v.append(f"hf_order must be >= 5, got {self.hf_order}: the local energy needs "
                     "the orbitals' second derivative, which a spline of degree < 4 lacks "
                     "at the triple knot at z = 0")
        if self.hf_elements < 4:
            v.append(f"hf_elements must be >= 4, got {self.hf_elements}")
        if v:
            raise ConfigError(v)
        return self


# ---------------------------------------------------------------------------
# config file parsing / rendering

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_KEYS = (
    "z n_electrons b_tesla beta occupations n_walkers dtau dtau_metropolis "
    "schedule seed spin_zeeman allow_anion outdir checkpoint_every "
    "hf_elements hf_order hf_zmax"
).split()


def _parse_occupations(text: str) -> tuple[Occupation, ...]:
    out = []
    for tok in text.replace(",", " ").split():
        m_s, _, nu_s = tok.partition(":")
        try:
            out.append(Occupation(int(m_s), int(nu_s) if nu_s else 0))
        except ValueError:
            raise ValueError(f"bad occupation token '{tok}' (want m:nu_z)")
    return tuple(out)


def _parse_schedule(text: str) -> tuple[StageSpec, ...]:
    out = []
    for tok in text.replace(",", " ").split():
        parts = tok.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad schedule token '{tok}' (want stage:BLOCKSxSTEPS[:EQ])")
        stage = parts[0].lower()
        try:
            blocks_s, _, steps_s = parts[1].partition("x")
            n_blocks, steps = int(blocks_s), int(steps_s)
            eq = int(parts[2]) if len(parts) == 3 else max(
                1, round(DEFAULT_EQUILIBRATION_FRACTION * n_blocks)
            )
        except ValueError:
            raise ValueError(f"bad schedule token '{tok}'")
        out.append(StageSpec(stage, n_blocks, steps, eq))
    return tuple(out)


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse key-value config text (plus overrides) into a validated RunConfig."""
    kv: dict[str, str] = {}
    violations = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            violations.append(f"line {lineno}: expected 'key = value', got '{raw.strip()}'")
            continue
        kv[key.strip().lower()] = val.strip()
    if overrides:
        for k, val in overrides.items():
            kv[k.strip().lower()] = str(val)
    unknown = sorted(set(kv) - set(_KEYS))
    if unknown:
        violations.append(f"unknown keys: {', '.join(unknown)}")
    if violations:
        raise ConfigError(violations)
    return config_from_mapping(kv)


def config_from_mapping(kv: dict[str, str]) -> RunConfig:
    violations = []

    def want(key, conv, default=None):
        if key not in kv or kv[key] == "":
            return default
        try:
            return conv(kv[key])
        except ValueError as exc:
            violations.append(f"{key}: {exc}")
            return default

    def as_bool(s):
        try:
            return _BOOL[s.strip().lower()]
        except KeyError:
            raise ValueError(f"expected boolean, got '{s}'")

    z = want("z", int, 0)
    n_el = want("n_electrons", int, z)
    if "beta" in kv and "b_tesla" in kv:
        violations.append("give exactly one of beta / b_tesla, not both")
    fld = None
    if "beta" in kv:
        b = want("beta", float)
        if b is not None:
            try:
                fld = FieldStrength(beta=b)
            except ValueError as exc:
                violations.append(str(exc))
    elif "b_tesla" in kv:
        b = want("b_tesla", float)
        if b is not None:
            try:
                fld = beta_from_tesla(b)
            except ValueError as exc:
                violations.append(str(exc))
    else:
        violations.append("config must set beta or b_tesla")

    occ = want("occupations", _parse_occupations)
    if occ is None and n_el:
        occ = tuple(default_ground_occupations(n_el))
    sched = want("schedule", _parse_schedule)
    if sched is None:
        sched = tuple(default_schedule())

    if violations:
        raise ConfigError(violations)

    cfg = RunConfig(
        z=z,
        n_electrons=n_el,
        field=fld,
        occupations=occ or (),
        n_walkers=want("n_walkers", int, 500),
        dtau=want("dtau", float, 1e-4),
        dtau_metropolis=want("dtau_metropolis", float, None),
        schedule=sched,
        seed=want("seed", int, 1),
        spin_zeeman_included=want("spin_zeeman", as_bool, True),
        allow_anion=want("allow_anion", as_bool, False),
        outdir=kv.get("outdir", "runs/out"),
        checkpoint_every=want("checkpoint_every", int, 25),
        hf_elements=want("hf_elements", int, 24),
        hf_order=want("hf_order", int, 6),
        hf_zmax=want("hf_zmax", float, None),
    )
    if violations:
        raise ConfigError(violations)
    return cfg.validate()


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces the config exactly."""
    occ = " ".join(f"{o.m}:{o.nu_z}" for o in cfg.occupations)
    sched = " ".join(map(str, cfg.schedule))
    lines = [
        f"z = {cfg.z}",
        f"n_electrons = {cfg.n_electrons}",
        f"beta = {cfg.field.beta!r}",
        f"occupations = {occ}",
        f"n_walkers = {cfg.n_walkers}",
        f"dtau = {cfg.dtau!r}",
    ]
    if cfg.dtau_metropolis is not None:
        lines.append(f"dtau_metropolis = {cfg.dtau_metropolis!r}")
    lines += [
        f"schedule = {sched}",
        f"seed = {cfg.seed}",
        f"spin_zeeman = {'true' if cfg.spin_zeeman_included else 'false'}",
        f"allow_anion = {'true' if cfg.allow_anion else 'false'}",
        f"outdir = {cfg.outdir}",
        f"checkpoint_every = {cfg.checkpoint_every}",
        f"hf_elements = {cfg.hf_elements}",
        f"hf_order = {cfg.hf_order}",
    ]
    if cfg.hf_zmax is not None:
        lines.append(f"hf_zmax = {cfg.hf_zmax!r}")
    return "\n".join(lines) + "\n"


#: Fields that say where and how often a run writes, not what it computes.
_UNHASHED_KEYS = ("outdir", "checkpoint_every")


def config_hash(cfg: RunConfig) -> str:
    """Short digest of the canonical config fields that change the numbers;
    stamped into every artifact.

    ``outdir`` and ``checkpoint_every`` are left out, so a checkpoint written
    in one directory can seed a run in another.
    """
    lines = [
        line for line in render_config(cfg).splitlines(keepends=True)
        if line.partition("=")[0].strip() not in _UNHASHED_KEYS
    ]
    return hashlib.sha256("".join(lines).encode()).hexdigest()[:16]


def physics_hash(cfg: RunConfig) -> str:
    """Digest of only the fields that determine orbitals/kernels, so caches
    survive schedule or walker-count changes."""
    payload = (
        f"z={cfg.z};n={cfg.n_electrons};beta={cfg.field.beta!r};"
        f"occ={tuple(cfg.occupations)};spin={cfg.spin_zeeman_included};"
        f"el={cfg.hf_elements};ord={cfg.hf_order};zmax={cfg.hf_domain!r}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def with_overrides(cfg: RunConfig, **kwargs) -> RunConfig:
    """Functional update preserving validation."""
    return replace(cfg, **kwargs).validate()

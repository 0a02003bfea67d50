"""Validated run configuration and the key-value config file format.

A config file is plain text, one ``key = value`` per line, ``#`` comments.
Exactly one of ``b_tesla`` / ``beta`` sets the field. Occupations are
``m:nu_z`` pairs; the schedule is ``stage:blocks x steps[:equilibration]``
entries, each stage at most once. The fields of ``RunConfig`` are the one
list of keys and defaults: ``parse_config_text`` reads and
``render_config`` writes each field by the rule of its type, and
``RunConfig.validate`` checks the values. A rendered config parses back
to the same configuration.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class RunConfig:
    """Fully validated inputs for one pipeline run. Immutable once built.

    The fields are the one list of config keys and defaults, in rendered
    order; a field's type picks its parse and render rule (``_CODECS``) and
    ``metadata["key"]`` renames its key. ``b_tesla`` can set ``field`` in
    place of ``beta``; ``n_electrons`` defaults to ``z``, ``occupations`` to
    the ground filling. ``None`` values are not rendered.
    """

    z: int
    n_electrons: int
    field: FieldStrength = dataclasses.field(metadata={"key": "beta"})
    occupations: tuple[Occupation, ...]
    n_walkers: int = 500
    dtau: float = 1e-4
    dtau_metropolis: float | None = None  # VQMC proposal step; defaults to dtau
    schedule: tuple[StageSpec, ...] = (
        StageSpec("vqmc", 100, 200, 20),
        StageSpec("fpdqmc", 300, 200, 60),
        StageSpec("rpdqmc", 300, 200, 60),
    )
    seed: int = 1
    spin_zeeman_included: bool = dataclasses.field(default=True, metadata={"key": "spin_zeeman"})
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

def _parse_bool(text: str) -> bool:
    try:
        return {"true": True, "false": False, "1": True, "0": False,
                "yes": True, "no": False}[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected boolean, got '{text}'")


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


#: RunConfig field annotation -> (parse, render) of its config value.
_CODECS = {
    "int": (int, str),
    "float": (float, repr),
    "float | None": (float, repr),
    "bool": (_parse_bool, lambda b: "true" if b else "false"),
    "str": (str, str),
    "tuple[Occupation, ...]": (_parse_occupations, lambda occ: " ".join(f"{m}:{nu}" for m, nu in occ)),
    "tuple[StageSpec, ...]": (_parse_schedule, lambda sched: " ".join(map(str, sched))),
    "FieldStrength": (float, lambda fld: repr(fld.beta)),
}


def _key(f: dataclasses.Field) -> str:
    return f.metadata.get("key", f.name)


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
    for k, val in (overrides or {}).items():
        kv[k.strip().lower()] = str(val)
    unknown = sorted(set(kv) - {_key(f) for f in dataclasses.fields(RunConfig)} - {"b_tesla"})
    if unknown:
        violations.append(f"unknown keys: {', '.join(unknown)}")
    if violations:
        raise ConfigError(violations)
    return config_from_mapping(kv)


def config_from_mapping(kv: dict[str, str]) -> RunConfig:
    """RunConfig from key -> value text; a missing or empty value means the
    default, but an empty ``str`` value (``outdir =``) stays empty."""
    violations = []

    def want(key, parse, default=None):
        if key not in kv or (kv[key] == "" and parse is not str):
            return default
        try:
            return parse(kv[key])
        except ValueError as exc:
            violations.append(f"{key}: {exc}")
            return default

    # keys that set another field or whose default depends on other keys
    z = want("z", int, 0)
    n_el = want("n_electrons", int, z)
    if "beta" in kv and "b_tesla" in kv:
        violations.append("give exactly one of beta / b_tesla, not both")
    fld, key = None, next((k for k in ("beta", "b_tesla") if k in kv), None)
    if key is None:
        violations.append("config must set beta or b_tesla")
    elif (b := want(key, float)) is not None:
        try:
            fld = FieldStrength(beta=b) if key == "beta" else beta_from_tesla(b)
        except ValueError as exc:
            violations.append(str(exc))
    occ = want("occupations", _parse_occupations)
    if occ is None and n_el:
        occ = tuple(default_ground_occupations(n_el))
    values = dict(z=z, n_electrons=n_el, field=fld, occupations=occ or (),
                  schedule=want("schedule", _parse_schedule, RunConfig.schedule))
    if violations:
        raise ConfigError(violations)

    for f in dataclasses.fields(RunConfig):
        if f.name not in values:
            values[f.name] = want(_key(f), _CODECS[f.type][0], f.default)
    if violations:
        raise ConfigError(violations)
    return RunConfig(**values).validate()


def render_config(cfg: RunConfig) -> str:
    """Canonical text form; parsing it back reproduces the config exactly."""
    return "".join(f"{_key(f)} = {_CODECS[f.type][1](value)}\n" for f in dataclasses.fields(cfg)
                   if (value := getattr(cfg, f.name)) is not None)


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

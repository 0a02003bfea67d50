"""Ground-state energies of atoms and ions in neutron-star magnetic fields.

A numpy library implementing the full pipeline: analytic transverse
orbitals and effective 1D interaction kernels, a B-spline self-consistent
field solver for the longitudinal orbitals, a Slater-Jastrow guiding
function, and variational, fixed-phase and released-phase diffusion Monte
Carlo with walker population control.
"""

from .config import (
    ConfigError,
    Occupation,
    RunConfig,
    StageSpec,
    default_ground_occupations,
    parse_config_text,
    render_config,
)
from .dqmc import PopulationControl, StageResult, branch, fp_step, run_stage
from .errors import MagqmcError
from .guiding import GuidingEval, GuidingFunction, Hamiltonian
from .hf import OrbitalSet, hf_total_energy, load_orbitals, save_orbitals, scf
from .jastrow import JastrowParams, jastrow_u
from .kernels import (
    GridSpec,
    KernelTable,
    build_kernel_table,
    direct_kernel,
    exchange_kernel,
    nuclear_kernel,
)
from .landau import LandauOrbital, eval_transverse
from .pipeline import PipelineResult, ensure_kernels, ensure_orbitals, run_pipeline
from .sampler import WalkerPopulation, init_walkers, metropolis_step, vqmc_block
from .slater import slater_eval
from .units import B0_TESLA, EnergyValue, FieldStrength, beta_from_tesla, hartree_to_kev, kev_to_hartree

__version__ = "0.1.0"

__all__ = [
    "B0_TESLA",
    "ConfigError",
    "EnergyValue",
    "FieldStrength",
    "GridSpec",
    "GuidingEval",
    "GuidingFunction",
    "Hamiltonian",
    "JastrowParams",
    "KernelTable",
    "LandauOrbital",
    "MagqmcError",
    "Occupation",
    "OrbitalSet",
    "PipelineResult",
    "PopulationControl",
    "RunConfig",
    "StageResult",
    "StageSpec",
    "WalkerPopulation",
    "beta_from_tesla",
    "branch",
    "build_kernel_table",
    "default_ground_occupations",
    "direct_kernel",
    "ensure_kernels",
    "ensure_orbitals",
    "eval_transverse",
    "exchange_kernel",
    "fp_step",
    "hartree_to_kev",
    "hf_total_energy",
    "init_walkers",
    "jastrow_u",
    "kev_to_hartree",
    "load_orbitals",
    "metropolis_step",
    "nuclear_kernel",
    "parse_config_text",
    "render_config",
    "run_pipeline",
    "run_stage",
    "save_orbitals",
    "scf",
    "slater_eval",
    "vqmc_block",
]

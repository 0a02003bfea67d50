"""The benchmark's four workloads: inputs, schedules and references.

Nothing here imports magqmc, so run.py can read the definitions without
loading the code under test.

- ``heplus-cold``: first run at a new field. The full three-stage
  pipeline for He+ (Z=2, N=1, B=1e8 T, W=500, dtau=1e-4) against an empty
  kernel cache, so tabulating its nuclear, direct and exchange kernels is
  most of the time. Kernel changes show here; sampling barely does.
- ``heplus-warm``: the same physics rerun against a kernel cache and an
  orbital file prebuilt untimed with the code under test, with a longer
  schedule so sampling dominates. Sampler, branching, trace and
  checkpoint changes show here; kernel changes should not, except
  through the cache load.
- ``c6-hf``: SCF of the N=6 ground configuration (Z=6, B=5e8 T, m=0..5) at
  24 and 36 elements against a prefilled kernel cache. The only workload
  where the HF layer does most of the work, and where its nq x nq pair
  matrices set the peak memory.
- ``fe-walkers``: VQMC for N=26 (Z=26, B=5e8 T, dtau=5e-6, W=100) with
  the real Coulomb Hamiltonian and Jastrow but analytic harmonic
  longitudinal orbitals (omega=50), since a real Fe kernel table takes
  about 19 minutes at this version. Kernels and HF are bypassed; the
  heavy-atom walker kernel shows here.

Why the sampling workloads are He+ rather than He, and N=26 runs VQMC
only: ``init_walkers`` draws each electron independently and redraws a
walker only on an exact node, so some walkers start next to a node of the
determinant, where |drift| reaches ~1e3 and every later move is rejected.
At N=2 such a walker holds E_L near -1e3 Ha for the whole run, and
branching multiplies it: He (N=2, W=500, dtau=1e-4) gives a DQMC energy
of -1300 Ha on seed 1710329185 and misses the stage bounds on 3 of seeds
5000-5054 with a 1200-step schedule. Fixed-phase DQMC at N=26 aborts the
same way (seed 105). A one-electron atom has no determinant node, so He+
carries the pipeline, sampling and branching layers until that is fixed
(drift limiting, Umrigar, Nightingale & Runge 1993, or a node-aware
initial draw). He+ still tabulates all three kernel kinds (V_0, D_00,
X_00).
"""

from __future__ import annotations

from dataclasses import dataclass

HEPLUS_PHYSICS = {
    "z": 2,
    "n_electrons": 1,
    "b_tesla": 1.0e8,
    "n_walkers": 500,
    "dtau": 1e-4,
}
C6_PHYSICS = {"z": 6, "n_electrons": 6, "b_tesla": 5.0e8}
C6_ELEMENTS = (24, 36)

FE_Z = 26
FE_B_TESLA = 5.0e8
FE_OMEGA = 50.0
FE_WALKERS = 100
FE_DTAU = 5e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "he", "c6" or "fe": which runner in child.py
    prep: str | None         # artifacts built untimed before the first rep
    schedule: tuple = ()     # (stage, n_blocks, steps_per_block, equilibration)

    @property
    def schedule_text(self) -> str:
        return " ".join(f"{s}:{b}x{n}:{e}" for s, b, n, e in self.schedule)

    @property
    def steps(self) -> int:
        return sum(b * n for _, b, n, _ in self.schedule)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("heplus-cold", "he", None,
                 (("vqmc", 10, 20, 2), ("fpdqmc", 10, 20, 2), ("rpdqmc", 10, 20, 2))),
        Workload("heplus-warm", "he", "he",
                 (("vqmc", 20, 20, 4), ("fpdqmc", 20, 20, 4), ("rpdqmc", 20, 20, 4))),
        Workload("c6-hf", "c6", "c6"),
        Workload("fe-walkers", "fe", None, (("vqmc", 10, 20, 2),)),
    )
}


def config_text(physics: dict, **extra) -> str:
    """magqmc key-value config text for the given fields."""
    return "".join(f"{k} = {v}\n" for k, v in {**physics, **extra}.items())

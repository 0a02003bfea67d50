"""Unit system and magnetic-field-strength conversions.

Everything internal runs in hartree atomic units (hartree, bohr); tesla
and keV exist only at the I/O boundary. The dimensionless field strength
is ``beta = B / B0`` with B0 = 4.701e5 T. The quantity that actually
parametrizes the Hamiltonian and the transverse orbitals is the field in
atomic units hbar/(e*a0^2) = 2.3505e5 T, i.e. ``gamma = 2*beta``; see
:class:`FieldStrength`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

#: Reference field (tesla) for the dimensionless strength beta = B/B0.
B0_TESLA = 4.701e5

#: Energy conversion, fixed in this one place: 1 hartree = 27.211386 eV.
HARTREE_EV = 27.211386
HARTREE_KEV = HARTREE_EV * 1e-3


class UnitsError(InputError):
    """Raised for out-of-domain unit conversions."""


@dataclass(frozen=True)
class FieldStrength:
    """Magnetic field strength, stored as the dimensionless ``beta``.

    ``b_tesla`` is always derived from ``beta`` (never stored), so the two
    cannot disagree. ``gamma = 2*beta`` is the field in atomic units
    hbar/(e*a0^2); it is the Gaussian confinement parameter of the
    lowest-level transverse orbitals and the coefficient set of the
    one-body magnetic terms.
    """

    beta: float

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise UnitsError(f"field strength must be positive, got beta={self.beta}")

    @property
    def b_tesla(self) -> float:
        return self.beta * B0_TESLA

    @property
    def gamma(self) -> float:
        return 2.0 * self.beta

    @property
    def larmor_radius(self) -> float:
        """Transverse extent scale 1/sqrt(gamma), in bohr."""
        return 1.0 / self.gamma**0.5


def beta_from_tesla(b_tesla: float) -> FieldStrength:
    """Field strength from a value in tesla; rejects non-positive input."""
    if not b_tesla > 0:
        raise UnitsError(f"magnetic field must be positive, got {b_tesla} T")
    return FieldStrength(beta=b_tesla / B0_TESLA)


def hartree_to_kev(e_hartree):
    return e_hartree * HARTREE_KEV


def kev_to_hartree(e_kev):
    return e_kev / HARTREE_KEV


@dataclass(frozen=True)
class EnergyValue:
    """An energy carried in atomic units, with its keV rendering."""

    hartree: float

    @property
    def kev(self) -> float:
        return hartree_to_kev(self.hartree)

    def __str__(self) -> str:
        return f"{self.hartree:.6f} hartree ({self.kev:.5f} keV)"

"""Unit systems, physical constants, and the diatomic-molecule registry.

Two presets cover everything the tables need: exact atomic units
(hbar = mu = 1, lengths in bohr, energies in hartree) and an eV/pm system
for diatomic molecules. The eV/pm system uses c = 1 bookkeeping: the
``hbar`` field stores hbar*c in eV*pm and ``mu`` stores mu*c^2 in eV, so
hbar^2/(2 mu b^2) is an energy in eV for b in pm without any further
conversion factors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigurationError, DomainError, UnknownMoleculeError

# hbar*c = 1973.29 eV*Angstrom expressed in eV*pm
HBAR_C_EV_PM = 197329.0
# 1 amu * c^2 in eV
AMU_IN_EV = 931.494e6
# electron mass * c^2 in eV
ELECTRON_MASS_EV = 510998.95
# fine-structure constant; e^2 = alpha * hbar * c in eV*pm systems
FINE_STRUCTURE = 7.2973525693e-3


@dataclass(frozen=True)
class UnitSystem:
    """A (hbar, reduced mass) pair fixing energy and length units.

    ``e2`` is the squared elementary charge in energy*length units; it only
    enters Coulomb-limit calculations. ``hbar_c`` is set in energy*length
    presets and None in atomic units.
    """

    hbar: float
    mu: float
    e2: float = 1.0
    hbar_c: float | None = None
    label: str = "custom"

    def __post_init__(self):
        if not (self.hbar > 0):
            raise DomainError(f"hbar must be positive, got {self.hbar}")
        if not (self.mu > 0):
            raise DomainError(f"reduced mass must be positive, got {self.mu}")


@dataclass(frozen=True)
class Molecule:
    """A diatomic molecule identified by its reduced mass."""

    name: str
    reduced_mass_amu: float

    def __post_init__(self):
        if not (self.reduced_mass_amu > 0):
            raise DomainError(
                f"reduced mass of {self.name!r} must be positive, "
                f"got {self.reduced_mass_amu}"
            )


def atomic_units() -> UnitSystem:
    """hbar = mu = 1; energies in hartree, lengths in bohr."""
    return UnitSystem(hbar=1.0, mu=1.0, e2=1.0, hbar_c=None, label="atomic")


def ev_pm_units(mu_ev: float, label: str = "eV-pm") -> UnitSystem:
    """Energies in eV, lengths in pm; ``mu_ev`` is the reduced mass as mu*c^2."""
    return UnitSystem(
        hbar=HBAR_C_EV_PM,
        mu=mu_ev,
        e2=FINE_STRUCTURE * HBAR_C_EV_PM,
        hbar_c=HBAR_C_EV_PM,
        label=label,
    )


def molecular_units(mol: Molecule | str, registry: list[Molecule] | None = None) -> UnitSystem:
    """eV/pm system for a molecule (by object or registry name)."""
    if isinstance(mol, str):
        mol = get_molecule(mol, registry)
    return ev_pm_units(mol.reduced_mass_amu * AMU_IN_EV, label=f"eV-pm[{mol.name}]")


def electron_units() -> UnitSystem:
    """eV/pm system with the electron as the reduced mass (hydrogen-like problems)."""
    return ev_pm_units(ELECTRON_MASS_EV, label="eV-pm[electron]")


def energy_scale(u: UnitSystem, b: float) -> float:
    """The spectral prefactor hbar^2/(2 mu b^2) for screening length b."""
    if not (b > 0):
        raise DomainError(f"screening length must be positive, got {b}")
    denominator = 2.0 * u.mu * b * b
    scale = u.hbar * u.hbar / denominator if denominator > 0 else math.inf
    if not math.isfinite(scale):
        raise DomainError(f"energy scale hbar^2/(2 mu b^2) is not finite for b={b!r}")
    return scale


_DEFAULT_MOLECULES = (
    Molecule("HCl", 0.9801045),
    Molecule("CH", 0.929931),
    Molecule("LiH", 0.8801221),
    Molecule("CO", 6.8606719),
)

REGISTRY_ENV_VAR = "MRSPEC_REGISTRY"


def parse_registry_file(path: str) -> list[Molecule]:
    """Parse a flat ``name = mass_amu`` registry file.

    ``#`` starts a comment; blank lines are skipped. Duplicate names within
    one file are a configuration error.
    """
    molecules: list[Molecule] = []
    seen: set[str] = set()
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read registry file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not name or not value:
            raise ConfigurationError(
                f"{path}:{lineno}: expected 'name = mass_amu', got {raw.rstrip()!r}"
            )
        try:
            mass = float(value)
        except ValueError as exc:
            raise ConfigurationError(
                f"{path}:{lineno}: reduced mass {value!r} is not a number"
            ) from exc
        if name in seen:
            raise ConfigurationError(f"{path}:{lineno}: duplicate molecule {name!r}")
        seen.add(name)
        if not (mass > 0):
            raise ConfigurationError(
                f"{path}:{lineno}: reduced mass of {name!r} must be positive"
            )
        molecules.append(Molecule(name, mass))
    return molecules


def molecule_registry(path: str | None = None) -> list[Molecule]:
    """Built-in molecules, extended/overridden by an optional registry file.

    ``path`` defaults to the MRSPEC_REGISTRY environment variable. File
    entries override same-named built-ins and append new names in file order.
    """
    if path is None:
        path = os.environ.get(REGISTRY_ENV_VAR) or None
    merged: dict[str, Molecule] = {m.name: m for m in _DEFAULT_MOLECULES}
    if path is not None:
        for mol in parse_registry_file(path):
            merged[mol.name] = mol
    return list(merged.values())


def get_molecule(name: str, registry: list[Molecule] | None = None) -> Molecule:
    """Look up one molecule by exact name."""
    if registry is None:
        registry = molecule_registry()
    for mol in registry:
        if mol.name == name:
            return mol
    known = ", ".join(m.name for m in registry)
    raise UnknownMoleculeError(f"unknown molecule {name!r} (registry has: {known})")

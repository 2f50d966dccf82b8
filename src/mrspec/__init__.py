"""Closed-form Manning-Rosen bound states with a finite-difference cross-check.

The analytic layer follows the Nikiforov-Uvarov treatment of the radial
equation under the Greene-Aldrich centrifugal approximation; the numerical
layer solves the same radial problem on a grid so every analytic energy can
be validated independently.
"""

from .errors import (
    ConfigurationError,
    DomainError,
    MrspecError,
    NoBoundStateError,
    NumericalInstabilityError,
    UnknownMoleculeError,
)
from .oracle import (
    Level,
    NumericalSpectrum,
    RadialProblem,
    build_effective_potential,
    default_problem,
    levels,
    solve,
)
from .potential import (
    EXACT,
    GREENE_ALDRICH,
    SHIFTED,
    CentrifugalScheme,
    PotentialParams,
    centrifugal_term,
    force_constant,
    minimum,
    mr_value,
)
from .spectrum import (
    QuantumState,
    coulomb_energy,
    critical_coupling,
    energy,
    enumerate_bound_states,
    epsilon_of,
    hulthen_energy,
    is_bound,
    nu_parameters,
)
from .units import (
    Molecule,
    UnitSystem,
    atomic_units,
    ev_pm_units,
    get_molecule,
    molecular_units,
    molecule_registry,
    parse_registry_file,
)
from .wavefunction import (
    RadialWavefunction,
    build_radial_wavefunction,
    hulthen_wavefunction,
    hyp_integral,
    jacobi,
    normalization_constant,
    radial_value,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DomainError", "MrspecError",
    "NoBoundStateError", "NumericalInstabilityError", "UnknownMoleculeError",
    "Level", "NumericalSpectrum", "RadialProblem",
    "build_effective_potential", "default_problem", "levels", "solve",
    "EXACT", "GREENE_ALDRICH", "SHIFTED", "CentrifugalScheme",
    "PotentialParams", "centrifugal_term", "force_constant", "minimum", "mr_value",
    "QuantumState", "coulomb_energy", "critical_coupling",
    "energy", "enumerate_bound_states", "epsilon_of", "hulthen_energy",
    "is_bound", "nu_parameters",
    "Molecule", "UnitSystem", "atomic_units", "ev_pm_units",
    "get_molecule", "molecular_units", "molecule_registry", "parse_registry_file",
    "RadialWavefunction", "build_radial_wavefunction", "hulthen_wavefunction",
    "hyp_integral", "jacobi", "normalization_constant", "radial_value",
    "__version__",
]

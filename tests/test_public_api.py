import importlib
import importlib.util
import re
from pathlib import Path

import mrspec

REPO = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = sorted([
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
])


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(mrspec.__all__) == sorted(PUBLIC_NAMES + ["__version__"])


def test_readme_module_table_names_only_public_names():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `(\w+)`\s*\|(.*)\|$", text, flags=re.MULTILINE)
    modules = [module for module, _ in rows]
    assert modules == ["units", "potential", "spectrum", "wavefunction", "oracle", "cli"]
    # the cli row names the console script, which is not a package export
    listed = [name for module, contents in rows if module != "cli"
              for name in re.findall(r"`(\w+)`", contents)]
    assert listed
    assert [name for name in listed if name not in mrspec.__all__] == []


def test_every_benchmark_trace_target_is_a_package_callable():
    # the tracer skips a missing target silently, so a renamed or deleted
    # function would zero its per-layer metric without failing anything
    spec = importlib.util.spec_from_file_location("bench_spans", REPO / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, *_ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)

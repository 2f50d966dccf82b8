import math

import pytest

from mrspec import (
    ConfigurationError,
    DomainError,
    Molecule,
    UnitSystem,
    UnknownMoleculeError,
    atomic_units,
    ev_pm_units,
    get_molecule,
    molecular_units,
    molecule_registry,
    parse_registry_file,
)
from mrspec.units import AMU_IN_EV, FINE_STRUCTURE, HBAR_C_EV_PM, REGISTRY_ENV_VAR


def test_atomic_units_are_unity():
    u = atomic_units()
    assert u.hbar == 1.0
    assert u.mu == 1.0
    assert u.e2 == 1.0


def test_kinetic_atomic_units():
    # hbar^2/(2 mu) = 1/2, so hbar^2/(2 mu b^2) = 1/3200 hartree at b = 40 bohr
    u = atomic_units()
    assert u.kinetic == 0.5
    assert u.kinetic / (40.0 * 40.0) == pytest.approx(1.0 / 3200.0, rel=1e-15)


def test_unit_system_rejects_non_finite_kinetic():
    # hbar^2 overflows, or underflows to 0, or 2 mu overflows
    for hbar, mu in ((1e200, 1.0), (1e-200, 1.0), (1.0, 1e308)):
        with pytest.raises(DomainError):
            UnitSystem(hbar=hbar, mu=mu)
    assert math.isfinite(UnitSystem(hbar=1e150, mu=1.0).kinetic)


def test_molecular_energy_scales_frozen():
    # independently derived from hbar*c = 197329.0 eV pm and 931.494e6 eV/amu
    scale_hcl = molecular_units("HCl").kinetic / (40.0 * 40.0)
    scale_co = molecular_units("CO").kinetic / (40.0 * 40.0)
    assert scale_hcl == pytest.approx(0.013328442621602736, rel=1e-14)
    assert scale_co == pytest.approx(0.0019040797726276105, rel=1e-14)
    # same numbers straight from the defining constants
    direct = HBAR_C_EV_PM**2 / (2.0 * 0.9801045 * AMU_IN_EV * 40.0**2)
    assert scale_hcl == pytest.approx(direct, rel=1e-15)


def test_ev_pm_units_bookkeeping():
    # the c=1 convention stores hbar*c in hbar and mu*c^2 in mu
    u = ev_pm_units(1.0e6)
    assert u.hbar == HBAR_C_EV_PM
    assert u.mu == 1.0e6
    assert u.e2 == pytest.approx(FINE_STRUCTURE * HBAR_C_EV_PM, rel=1e-15)


def test_electron_units_rydberg():
    # Coulomb ground state in eV-pm units with the electron mass must come
    # out at the hydrogen binding energy; alpha^2 m_e c^2 / 2, independent of
    # the hbar*c value
    from mrspec import QuantumState, coulomb_energy

    e = coulomb_energy(1.0, ev_pm_units(510998.95), QuantumState.from_label("1s"))
    expected = -(FINE_STRUCTURE**2) * 510998.95 / 2.0
    assert e == pytest.approx(expected, rel=1e-12)
    assert e == pytest.approx(-13.6057, abs=5e-5)


def test_unit_system_validation():
    with pytest.raises(DomainError):
        UnitSystem(hbar=0.0, mu=1.0)
    with pytest.raises(DomainError):
        UnitSystem(hbar=1.0, mu=-2.0)


def test_molecule_validation():
    with pytest.raises(DomainError):
        Molecule(name="X", reduced_mass_amu=0.0)


def test_default_registry_masses():
    reg = molecule_registry()
    masses = {m.name: m.reduced_mass_amu for m in reg}
    assert masses == {
        "HCl": 0.9801045,
        "CH": 0.929931,
        "LiH": 0.8801221,
        "CO": 6.8606719,
    }


def test_get_molecule_unknown():
    with pytest.raises(UnknownMoleculeError) as err:
        get_molecule("XYZ")
    # readable message, not the repr-quoted KeyError form
    assert str(err.value).startswith("unknown molecule 'XYZ'")


def test_molecular_units_label_and_mass():
    u = molecular_units("CO")  # looked up by its registry label
    assert u.mu == pytest.approx(6.8606719 * AMU_IN_EV, rel=1e-15)


def test_parse_registry_file(tmp_path):
    f = tmp_path / "reg.txt"
    f.write_text("# comment line\nDCl = 1.904413\n\nTest2 = 2.5 # inline comment\n")
    reg = parse_registry_file(str(f))
    assert [(m.name, m.reduced_mass_amu) for m in reg] == [
        ("DCl", 1.904413),
        ("Test2", 2.5),
    ]


def test_parse_registry_rejects_duplicates(tmp_path):
    f = tmp_path / "reg.txt"
    f.write_text("A = 1.0\nA = 2.0\n")
    with pytest.raises(ConfigurationError) as err:
        parse_registry_file(str(f))
    assert "duplicate" in str(err.value)


def test_parse_registry_rejects_malformed(tmp_path):
    f = tmp_path / "reg.txt"
    f.write_text("no equals sign here\n")
    with pytest.raises(ConfigurationError):
        parse_registry_file(str(f))
    f.write_text("A = not_a_number\n")
    with pytest.raises(ConfigurationError):
        parse_registry_file(str(f))
    f.write_text("A = -1.0\n")
    with pytest.raises(ConfigurationError):
        parse_registry_file(str(f))


def test_parse_registry_missing_file():
    with pytest.raises(ConfigurationError):
        parse_registry_file("/nonexistent/registry.txt")


def test_registry_env_extends_and_overrides(tmp_path, monkeypatch):
    f = tmp_path / "reg.txt"
    f.write_text("DCl = 1.904413\nHCl = 1.0\n")
    monkeypatch.setenv(REGISTRY_ENV_VAR, str(f))
    reg = molecule_registry()
    masses = {m.name: m.reduced_mass_amu for m in reg}
    assert masses["DCl"] == 1.904413  # new entry
    assert masses["HCl"] == 1.0       # default overridden
    assert masses["CO"] == 6.8606719  # defaults kept
    assert get_molecule("DCl", reg).reduced_mass_amu == 1.904413


def test_registry_env_ignored_when_path_given(tmp_path, monkeypatch):
    f1 = tmp_path / "a.txt"
    f1.write_text("A = 1.0\n")
    f2 = tmp_path / "b.txt"
    f2.write_text("B = 2.0\n")
    monkeypatch.setenv(REGISTRY_ENV_VAR, str(f1))
    masses = {m.name for m in molecule_registry(str(f2))}
    assert "B" in masses and "A" not in masses


def test_kinetic_ratio_is_inverse_mass_ratio():
    # the eV/pm systems share hbar, so hbar^2/(2 mu) scales as 1/mu
    ratio = molecular_units("HCl").kinetic / molecular_units("CO").kinetic
    assert ratio == pytest.approx(6.8606719 / 0.9801045, rel=1e-15)

import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrspec
import mrspec.cli
from mrspec import (
    EXACT,
    GREENE_ALDRICH,
    PotentialParams,
    QuantumState,
    atomic_units,
    energy,
    levels,
    molecular_units,
)

HUGE_PRINCIPAL = "1" + "0" * 200  # within the float range; its A_c overflows


def run_cli(*args: str, env_extra: dict | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("MRSPEC_REGISTRY", None)
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "mrspec", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "Manning-Rosen" in cp.stdout
    cp = subprocess.run([sys.executable, "-m", "mrspec.cli", "--help"],
                        capture_output=True, text=True)
    assert cp.returncode == 0, cp.stderr


def test_no_subcommand_is_usage_error():
    cp = run_cli()
    assert cp.returncode == 1
    assert "error" in cp.stderr


def test_bad_table_name_is_usage_error():
    cp = run_cli("table", "table9")
    assert cp.returncode == 1


def test_table1_shape():
    cp = run_cli("table", "table1")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == ["state", "1/b", "alpha=0.75", "alpha=1.5"]
    assert len(rows) == 28
    assert rows[0][:2] == ["2p", "0.025"]
    # every published row is a bound state in both columns
    for row in rows:
        assert float(row[2]) < 0
        assert float(row[3]) < 0


def test_table2_shape():
    cp = run_cli("table", "table2")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == ["state", "1/b",
                      "HCl alpha=0,1", "HCl alpha=0.75", "HCl alpha=1.5",
                      "CH alpha=0,1", "CH alpha=0.75", "CH alpha=1.5"]
    assert len(rows) == 29  # the molecular tables include (3d, 0.100)
    assert ["3d", "0.100"] in [row[:2] for row in rows]


def test_table_output_is_deterministic():
    first = run_cli("table", "table3")
    second = run_cli("table", "table3")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_table_filters():
    cp = run_cli("table", "table1", "--states", "2p")
    _, rows = parse_csv(cp.stdout)
    assert [row[0] for row in rows] == ["2p"] * 4
    cp = run_cli("table", "table1", "--inv-b", "0.025")
    _, rows = parse_csv(cp.stdout)
    assert len(rows) == 14
    assert all(row[1] == "0.025" for row in rows)


def test_spectrum_round_trips_library_value():
    cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025",
                 "--state", "2p", "--precision", "12")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == ["state", "n", "l", "energy"]
    assert rows[0][:3] == ["2p", "0", "1"]
    params = PotentialParams(A=80.0, alpha=0.75, b=40.0)
    exact = energy(params, atomic_units(), QuantumState.from_label("2p"))
    assert abs(float(rows[0][3]) - exact) <= 0.5e-12


def test_spectrum_molecule_round_trips_library_value():
    cp = run_cli("spectrum", "--molecule", "HCl", "--alpha", "1.5",
                 "--inv-b", "0.05", "--state", "3p", "--precision", "10")
    assert cp.returncode == 0, cp.stderr
    _, rows = parse_csv(cp.stdout)
    params = PotentialParams(A=40.0, alpha=1.5, b=20.0)
    exact = energy(params, molecular_units("HCl"), QuantumState.from_label("3p"))
    assert abs(float(rows[0][3]) - exact) <= 0.5e-10


def test_spectrum_repeatable_state_flag():
    cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025",
                 "--state", "2p,3p", "--state", "3d")
    _, rows = parse_csv(cp.stdout)
    assert [row[0] for row in rows] == ["2p", "3p", "3d"]


def test_spectrum_keeps_the_binding_threshold_at_large_alpha():
    # A_c(2p) = alpha + 2, so epsilon = (A - A_c)/(2(1 + Lambda)) = 1 and
    # E = -epsilon^2/(2 b^2) = -0.0003125 hartree at 1/b = 0.025
    cp = run_cli("spectrum", "--alpha", "1e16", "--inv-b", "0.025", "--A", "3e16",
                 "--state", "2p")
    assert cp.returncode == 0, cp.stderr
    _, rows = parse_csv(cp.stdout)
    assert rows == [["2p", "0", "1", "-0.0003125"]]


def test_spectrum_unbound_state_is_a_row_not_an_error():
    for label in ("5g", HUGE_PRINCIPAL + "p"):
        cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.1", "--state", label)
        assert cp.returncode == 0, cp.stderr
        _, rows = parse_csv(cp.stdout)
        assert rows[0][3] == "unbound"


def test_tsv_format():
    cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025",
                 "--state", "2p", "--format", "tsv")
    assert cp.returncode == 0
    assert "\t" in cp.stdout.splitlines()[0]
    assert "," not in cp.stdout.splitlines()[0]


def test_precision_is_range_checked():
    base = ("spectrum", "--alpha", "0.75", "--inv-b", "0.025", "--state", "2p")
    assert run_cli(*base, "--precision", "5").returncode == 1
    assert run_cli(*base, "--precision", "13").returncode == 1
    assert run_cli(*base, "--precision", "6").returncode == 0
    assert run_cli(*base, "--precision", "12").returncode == 0


def test_malformed_label_is_usage_error():
    # a principal number above the float range is refused, not a traceback
    for label in ("1p", "0s", "2x", "p", "1" + "0" * 400 + "p"):
        cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025", "--state", label)
        assert cp.returncode == 1, label
        assert "error: argument --state" in cp.stderr, label


def test_missing_and_conflicting_arguments():
    cp = run_cli("spectrum", "--inv-b", "0.025", "--state", "2p")  # no alpha
    assert cp.returncode == 1
    cp = run_cli("spectrum", "--alpha", "0.75", "--state", "2p")  # no b
    assert cp.returncode == 1
    cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025", "--b", "40",
                 "--state", "2p")
    assert cp.returncode == 1
    # R(r) depends on A, alpha and b only, so wavefunction takes no unit system
    cp = run_cli("wavefunction", "--alpha", "0.75", "--inv-b", "0.025", "--state", "2p",
                 "--molecule", "HCl")
    assert cp.returncode == 1
    assert "--molecule" in cp.stderr


def test_unknown_molecule_is_compute_error():
    cp = run_cli("spectrum", "--molecule", "XY", "--alpha", "0.75",
                 "--inv-b", "0.025", "--state", "2p")
    assert cp.returncode == 2
    assert cp.stderr.startswith("mrspec: error:")
    assert "unknown molecule" in cp.stderr


def test_unbound_wavefunction_is_compute_error():
    cp = run_cli("wavefunction", "--alpha", "0.75", "--inv-b", "0.1", "--state", "5g")
    assert cp.returncode == 2
    assert cp.stderr.startswith("mrspec: error:")


def test_registry_file_extends_and_overrides(tmp_path: Path):
    registry = tmp_path / "extra.registry"
    registry.write_text("# local additions\nXY = 1.25\nCO = 6.0\n")
    env = {"MRSPEC_REGISTRY": str(registry)}
    base = ("spectrum", "--alpha", "0.75", "--inv-b", "0.025", "--state", "2p")

    cp = run_cli(*base, "--molecule", "XY", env_extra=env)
    assert cp.returncode == 0, cp.stderr

    with_override = run_cli(*base, "--molecule", "CO", env_extra=env)
    without = run_cli(*base, "--molecule", "CO")
    assert with_override.returncode == without.returncode == 0
    _, rows_a = parse_csv(with_override.stdout)
    _, rows_b = parse_csv(without.stdout)
    assert rows_a[0][3] != rows_b[0][3]  # the override changed the reduced mass


def test_registry_duplicate_is_compute_error(tmp_path: Path):
    registry = tmp_path / "bad.registry"
    registry.write_text("HCl = 1.0\nHCl = 2.0\n")
    cp = run_cli("spectrum", "--molecule", "HCl", "--alpha", "0.75",
                 "--inv-b", "0.025", "--state", "2p",
                 env_extra={"MRSPEC_REGISTRY": str(registry)})
    assert cp.returncode == 2
    assert "duplicate molecule" in cp.stderr


def test_compare_strict_exit_code():
    base = ("compare", "--alpha", "0.75", "--inv-b", "0.025", "--states", "2p",
            "--scheme", "exact", "--grid-points", "2000", "--tol-exact", "1e-12")
    cp = run_cli(*base, "--strict")
    assert cp.returncode == 3, cp.stderr
    _, rows = parse_csv(cp.stdout)
    assert rows[0][-1] == "no"
    assert "exact:2p" in cp.stderr  # the failing row is named
    cp = run_cli(*base)  # same failure, but informational without --strict
    assert cp.returncode == 0


def test_compare_greene_aldrich_passes_tolerance():
    cp = run_cli("compare", "--alpha", "0.75", "--inv-b", "0.025", "--states", "2p,3p",
                 "--scheme", "greene_aldrich", "--grid-points", "10000",
                 "--tol-ga", "1e-6", "--strict")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header[:4] == ["scheme", "state", "n", "l"]
    for row in rows:
        assert row[0] == "greene_aldrich"
        assert float(row[6]) <= 1e-6
        assert row[8] == "yes"
        assert row[9] == "yes"


def test_compare_flags_a_near_zero_level_unconverged():
    # at 1/b = 1e-20 the default box misses the well and 2p comes out near
    # -7e-20 hartree with an error estimate of 0.2 of its value: no absolute
    # floor may let that pass as converged
    cp = run_cli("compare", "--alpha", "0.75", "--inv-b", "1e-20", "--states", "2p",
                 "--scheme", "greene_aldrich")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert rows[0][header.index("converged")] == "no"


def test_figure2_columns_and_bound():
    # high precision so the shifted-minus-ga difference survives the rounding
    cp = run_cli("figure-data", "fig2", "--points", "50", "--precision", "12")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == ["r", "1/r^2", "greene_aldrich", "shifted"]
    for row in rows:
        exact, ga, sh = float(row[1]), float(row[2]), float(row[3])
        assert ga <= exact
        # shifted = greene_aldrich + c0 / b^2 with b = 1/0.1
        assert sh - ga == pytest.approx((1.0 / 12.0) * 0.1**2, rel=1e-6)


def test_figure1_header_is_quoted():
    cp = run_cli("figure-data", "fig1", "--points", "5")
    assert cp.returncode == 0, cp.stderr
    first = cp.stdout.splitlines()[0]
    assert '"V(alpha=0.75,1/b=0.025)"' in first  # comma in cell forces quoting


def test_output_file_has_lf_line_endings(tmp_path: Path):
    out = tmp_path / "t1.csv"
    cp = run_cli("table", "table1", "--output", str(out))
    assert cp.returncode == 0, cp.stderr
    data = out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert len(data.splitlines()) == 29


def test_wavefunction_samples():
    cp = run_cli("wavefunction", "--alpha", "0.75", "--inv-b", "0.025",
                 "--state", "2p", "--points", "200")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == ["r", "R", "R^2"]
    assert len(rows) == 200
    assert float(rows[0][0]) == 0.0
    assert float(rows[0][1]) == 0.0
    for row in rows:
        R, R2 = float(row[1]), float(row[2])
        if abs(R) > 1e-6:
            assert R2 == pytest.approx(R * R, rel=1e-6)


def test_table_with_oracle_columns():
    cp = run_cli("table", "table1", "--states", "2p", "--inv-b", "0.025", "--with-oracle")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert "oracle_greene_aldrich alpha=0.75" in header
    assert "oracle_exact alpha=1.5" in header
    row = rows[0]
    analytic = float(row[header.index("alpha=0.75")])
    ga = float(row[header.index("oracle_greene_aldrich alpha=0.75")])
    assert ga == pytest.approx(analytic, abs=1e-5)

    # molecular columns at the default grid, within the bench's 1e-6 eV
    cp = run_cli("table", "table3", "--states", "2p", "--inv-b", "0.025", "--with-oracle")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert header == [
        "state", "1/b",
        "LiH alpha=0,1", "LiH alpha=0.75", "LiH alpha=1.5",
        "CO alpha=0,1", "CO alpha=0.75", "CO alpha=1.5",
        "LiH oracle_greene_aldrich alpha=0,1", "LiH oracle_greene_aldrich alpha=0.75",
        "LiH oracle_greene_aldrich alpha=1.5",
        "LiH oracle_exact alpha=0,1", "LiH oracle_exact alpha=0.75", "LiH oracle_exact alpha=1.5",
        "CO oracle_greene_aldrich alpha=0,1", "CO oracle_greene_aldrich alpha=0.75",
        "CO oracle_greene_aldrich alpha=1.5",
        "CO oracle_exact alpha=0,1", "CO oracle_exact alpha=0.75", "CO oracle_exact alpha=1.5",
    ]
    (row,) = rows
    alphas = ("alpha=0,1", "alpha=0.75", "alpha=1.5")
    for mol in ("LiH", "CO"):
        for a in alphas:
            analytic = float(row[header.index(f"{mol} {a}")])
            ga = float(row[header.index(f"{mol} oracle_greene_aldrich {a}")])
            assert ga == pytest.approx(analytic, abs=1e-6), (mol, a)


def test_table_with_oracle_solves_each_problem_once_for_both_molecules(monkeypatch):
    # HCl and CH share every problem but its units: 3 alphas x 2 schemes, one channel
    sizes = []
    real = mrspec.oracle.build_effective_potential

    def recording(rp, r):
        sizes.append(len(r))
        return real(rp, r)

    monkeypatch.setattr(mrspec.oracle, "build_effective_potential", recording)
    argv = ["table", "table2", "--with-oracle", "--states", "3p", "--inv-b", "0.025"]
    assert mrspec.cli.main(argv) == 0
    assert len(sizes) == 6


def test_table_with_oracle_marks_unconverged_cells():
    # a coarse grid leaves most oracle levels unconverged; none prints as a number
    cp = run_cli("table", "table1", "--states", "2p,3d", "--inv-b", "0.025,0.05",
                 "--with-oracle", "--grid-points", "1000")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    converged = []
    for row in rows:
        s = QuantumState.from_label(row[0])
        b = 1.0 / float(row[1])
        for scheme in (GREENE_ALDRICH, EXACT):
            for alpha in (0.75, 1.5):
                params = PotentialParams(A=2.0 * b, alpha=alpha, b=b)
                level = levels(params, atomic_units(), [s], scheme, 1000)[s]
                cell = row[header.index(f"oracle_{scheme.kind} alpha={alpha:g}")]
                if level.converged:
                    assert float(cell) == pytest.approx(level.energy, abs=1e-7), (row[:2], cell)
                else:
                    assert cell == "unconverged", (row[:2], cell)
                converged.append(level.converged)
    assert any(converged) and not all(converged)


def test_non_finite_screening_length_is_rejected():
    base = ("spectrum", "--alpha", "0.75", "--A", "5", "--state", "1s")
    cp = run_cli(*base, "--b", "inf")
    assert cp.returncode == 1, cp.stdout
    assert cp.stdout == ""
    cp = run_cli(*base, "--inv-b", "1e-320")  # 1/b overflows to inf
    assert cp.returncode == 2, cp.stdout
    assert cp.stdout == ""
    assert "finite" in cp.stderr


# Finite arguments whose potential or centrifugal values leave the float range
NON_FINITE_FIGURES = (
    ("figure-data", "fig1", "--A", "1e308", "--r-min", "1e-10", "--points", "3"),  # A/(b r)
    ("figure-data", "fig2", "--delta", "1e300", "--points", "3"),  # c0/b^2 overflows
)


def test_extreme_parameters_with_finite_values_print_them():
    # hbar^2/(2 mu b^2) leaves the float range here, but no printed value does
    for args, first_row in (
        (("spectrum", "--alpha", "0.75", "--inv-b", "1e-200", "--state", "2p"),
         ["2p", "0", "1", "-0.1333817"]),  # as at --inv-b 1e-100
        (("figure-data", "fig1", "--inv-b", "1e-300", "--points", "3"),
         ["5.0000000e-02", "-5.7500000e+01", "1.3000000e+02"]),  # (a/r^2 - 2/r)/2
        (("figure-data", "fig2", "--delta", "1e-300", "--points", "3"),
         ["1.0000000e-01"] + ["1.0000000e+02"] * 3),  # every column is 1/r^2
        (("figure-data", "fig1", "--A", "1e308", "--points", "3"), None),
    ):
        cp = run_cli(*args)
        assert cp.returncode == 0, (args, cp.stderr)
        _, rows = parse_csv(cp.stdout)
        assert rows and all(math.isfinite(float(v)) for row in rows for v in row[1:]), args
        if first_row is not None:
            assert rows[0] == first_row, args


def test_overflowing_potentials_are_compute_errors():
    tiny_b = ("--alpha", "0.75", "--b", "1e-200", "--A", "5")  # epsilon/b squared overflows
    huge_a = ("--alpha", "0.75", "--inv-b", "0.025", "--A", "1e300")  # epsilon^2 overflows
    huge_b = ("--alpha", "0.75", "--inv-b", "1e-200")  # the oracle's hbar^2/(2 mu h^2) is 0
    huge_b_compare = ("compare", *huge_b, "--states", "2p")
    for args in (("spectrum", *tiny_b, "--state", "2p"),
                 ("compare", *tiny_b, "--states", "2p"),
                 huge_b_compare,
                 ("spectrum", *huge_a, "--state", "2p"),
                 ("wavefunction", *huge_a, "--state", "2p")):
        cp = run_cli(*args)
        assert cp.returncode == 2, (args, cp.stderr)
        assert cp.stdout == "", args
        assert cp.stderr.startswith("mrspec: error:"), (args, cp.stderr)
        if args == huge_b_compare:
            # the coarse grid's coupling is checked first, so its step is named
            assert cp.stderr == ("mrspec: error: kinetic coupling hbar^2/(2 mu h^2) is 0.0 "
                                 "at h=1.9999e+197\n")


def test_figure1_inverse_b_list_is_range_checked():
    for values in ("0", "1e-400", "0.025,-1", "inf"):
        cp = run_cli("figure-data", "fig1", "--points", "5", "--inv-b", values)
        assert cp.returncode == 1, values
        assert cp.stdout == "", values
        assert "--inv-b" in cp.stderr


def test_failure_after_parsing_writes_no_partial_table(tmp_path: Path):
    for args in (("compare", "--alpha", "0.75", "--inv-b", "0.05", "--grid-points", "10"),
                 ("figure-data", "fig1", "--alphas", "nan"),
                 ("figure-data", "fig2", "--shift-c0", "nan"),
                 ("figure-data", "fig2", "--delta", "1e-320"),  # b = 1/delta overflows
                 ("figure-data", "fig1", "--alphas", "1e200"),  # alpha(alpha-1) overflows
                 *NON_FINITE_FIGURES):
        cp = run_cli(*args)
        assert cp.returncode == 2, args
        assert cp.stdout == "", args
        assert cp.stderr.startswith("mrspec: error:"), args
        out = tmp_path / "partial.csv"
        cp = run_cli(*args, "--output", str(out))
        assert cp.returncode == 2, args
        assert not out.exists(), args


def test_numerical_failure_prints_only_the_error_line():
    # numpy floating-point warnings must not reach stderr ahead of the error;
    # at b from about 1e-80 down LAPACK's bisection fails on the grid Hamiltonian
    tiny_b = [("compare", "--alpha", "0.75", "--b", b, "--A", "5", "--states", "2p")
              for b in ("1e-80", "1e-100", "1e-151", "1e-153")]
    for args in (*tiny_b, *NON_FINITE_FIGURES):
        cp = run_cli(*args)
        assert cp.returncode == 2, args
        assert cp.stdout == "", args
        lines = cp.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mrspec: error:"), (args, cp.stderr)


# Runs in a fresh interpreter: pytest's own process has numpy and scipy
# loaded already. Every module must still load at `import mrspec.cli`, so
# only the functions that build arrays import numpy.
IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, sys
import mrspec
import mrspec.cli
from mrspec import solve

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

def assert_not_loaded(*packages):
    found = [m for package in packages for m in loaded(package)]
    assert not found, found

assert_not_loaded("numpy", "scipy")
assert mrspec.oracle.solve is solve
for name in mrspec.__all__:
    getattr(mrspec, name)
assert_not_loaded("numpy", "scipy")

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mrspec.cli.main(list(argv))
    assert code == 0 and out.getvalue(), (argv, code)

potential = ("--alpha", "0.75", "--inv-b", "0.025")
run("spectrum", *potential, "--state", "2p,3d")
run("spectrum", *potential, "--state", "2p,3d", "--molecule", "CO")
for table in ("table1", "table2", "table3"):
    run("table", table)
assert_not_loaded("numpy", "scipy")

run("figure-data", "fig1", "--points", "5")
run("figure-data", "fig2", "--points", "5")
run("wavefunction", *potential, "--state", "2p", "--points", "5")
assert "numpy" in sys.modules
assert_not_loaded("scipy")

run("table", "table1", "--with-oracle", "--states", "2p", "--inv-b", "0.025")
assert "scipy.linalg" in sys.modules
"""


def test_closed_form_paths_never_import_scipy():
    package_root = Path(mrspec.__file__).resolve().parents[1]
    pythonpath = [str(package_root), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    env.pop("MRSPEC_REGISTRY", None)
    cp = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT],
                        capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrspec
from mrspec import PotentialParams, QuantumState, atomic_units, energy, molecular_units


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


def test_spectrum_unbound_state_is_a_row_not_an_error():
    cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.1", "--state", "5g")
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
    for label in ("1p", "0s", "2x", "p"):
        cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025", "--state", label)
        assert cp.returncode == 1, label
        assert "error" in cp.stderr


def test_missing_and_conflicting_arguments():
    cp = run_cli("spectrum", "--inv-b", "0.025", "--state", "2p")  # no alpha
    assert cp.returncode == 1
    cp = run_cli("spectrum", "--alpha", "0.75", "--state", "2p")  # no b
    assert cp.returncode == 1
    cp = run_cli("spectrum", "--alpha", "0.75", "--inv-b", "0.025", "--b", "40",
                 "--state", "2p")
    assert cp.returncode == 1


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
    cp = run_cli("table", "table1", "--states", "2p", "--inv-b", "0.025",
                 "--with-oracle", "--grid-points", "5000")
    assert cp.returncode == 0, cp.stderr
    header, rows = parse_csv(cp.stdout)
    assert "oracle_greene_aldrich alpha=0.75" in header
    assert "oracle_exact alpha=1.5" in header
    row = rows[0]
    analytic = float(row[header.index("alpha=0.75")])
    ga = float(row[header.index("oracle_greene_aldrich alpha=0.75")])
    assert ga == pytest.approx(analytic, abs=1e-5)


def test_non_finite_screening_length_is_rejected():
    base = ("spectrum", "--alpha", "0.75", "--A", "5", "--state", "1s")
    cp = run_cli(*base, "--b", "inf")
    assert cp.returncode == 1, cp.stdout
    assert cp.stdout == ""
    cp = run_cli(*base, "--inv-b", "1e-320")  # 1/b overflows to inf
    assert cp.returncode == 2, cp.stdout
    assert cp.stdout == ""
    assert "finite" in cp.stderr


def test_overflowing_potentials_are_compute_errors():
    tiny_b = ("--alpha", "0.75", "--b", "1e-200", "--A", "5")  # 2 mu b^2 underflows
    huge_a = ("--alpha", "0.75", "--inv-b", "0.025", "--A", "1e300")  # epsilon^2 overflows
    for args in (("spectrum", *tiny_b, "--state", "2p"),
                 ("compare", *tiny_b, "--states", "2p"),
                 ("spectrum", *huge_a, "--state", "2p"),
                 ("wavefunction", *huge_a, "--state", "2p")):
        cp = run_cli(*args)
        assert cp.returncode == 2, (args, cp.stderr)
        assert cp.stdout == "", args
        assert cp.stderr.startswith("mrspec: error:"), (args, cp.stderr)


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
                 ("figure-data", "fig1", "--alphas", "1e200")):  # alpha(alpha-1) overflows
        cp = run_cli(*args)
        assert cp.returncode == 2, args
        assert cp.stdout == "", args
        assert cp.stderr.startswith("mrspec: error:"), args
        out = tmp_path / "partial.csv"
        cp = run_cli(*args, "--output", str(out))
        assert cp.returncode == 2, args
        assert not out.exists(), args


# Runs in a fresh interpreter: pytest's own process has scipy loaded already.
IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, sys
import mrspec
import mrspec.cli
from mrspec import solve

assert mrspec.oracle.solve is solve
for name in mrspec.__all__:
    getattr(mrspec, name)

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mrspec.cli.main(list(argv))
    assert code == 0 and out.getvalue(), (argv, code)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

potential = ("--alpha", "0.75", "--inv-b", "0.025")
run("spectrum", *potential, "--state", "2p,3d")
for table in ("table1", "table2", "table3"):
    run("table", table)
run("figure-data", "fig1", "--points", "5")
run("figure-data", "fig2", "--points", "5")
run("wavefunction", *potential, "--state", "2p", "--points", "5")
assert not scipy_modules(), scipy_modules()

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

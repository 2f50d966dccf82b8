"""Tests of the benchmark itself: seeded inputs repeat, and every checker
flags a deliberately wrong output while passing the program's real one.

Run from the root of the repository: python -m pytest bench/tests -q
"""

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_jacobi

import checks
import inputs
import mrspec
import mrspec.cli
import reference
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent.parent


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("probe", [False, True])
@pytest.mark.parametrize("workload", sorted(inputs.PREGENERATE))
def test_same_seed_same_inputs(workload, probe):
    a, b, c = (inputs.stream(workload, seed, probe) for seed in (7, 7, 8))
    first = [a[i] for i in range(40)]
    assert first == [b[i] for i in range(40)]
    assert first != [c[i] for i in range(40)]
    assert first != [inputs.stream(workload, 7, not probe)[i] for i in range(40)]


def test_closed_form_inputs_cover_the_stated_ranges():
    s = inputs.stream("closed_form", 3)
    inv_b, alpha = zip(*(s[i] for i in range(inputs.CLOSED_FORM_BLOCK)))
    assert 0.03 <= min(inv_b) and max(inv_b) <= 0.1 and 0.0 <= min(alpha) and max(alpha) <= 2.0
    # the probe: one draw per log-width stratum, so the weakest screening is always drawn
    k = inputs.PROBE_COUNT["closed_form"]
    probe = inputs.stream("closed_form", 3, probe=True)
    inv_b = [probe[i][0] for i in range(k)]
    assert 0.0025 <= min(inv_b) and max(inv_b) <= 0.03
    assert sum(x < 0.01 for x in inv_b) == pytest.approx(k * math.log(4) / math.log(12), abs=1)


def test_oracle_channels_stay_in_their_domain_and_never_share_a_reduced_problem():
    s = inputs.stream("oracle_sweep", 3)
    chans = [s[i] for i in range(300)]
    keys = {(2 / c["inv_b"], c["alpha"] * (c["alpha"] - 1), c["l"], c["scheme"], c["n_max"]) for c in chans}
    assert len(keys) == len(chans)
    assert all(c["l"] >= 1 and reference.epsilon(2 / c["inv_b"], c["alpha"], c["n_max"], c["l"])
               >= inputs.ORACLE_MIN_EPS for c in chans)
    assert {(c["l"], c["n_max"], c["scheme"]) for c in chans} >= {(1, 3, "exact"), (4, 0, "greene_aldrich")}
    probe = inputs.stream("oracle_sweep", 3, probe=True)
    chans = [probe[i] for i in range(60)]
    assert all(not inputs.in_oracle_domain(2 / c["inv_b"], c["alpha"], c["l"], c["n_max"])
               and reference.epsilon(2 / c["inv_b"], c["alpha"], c["n_max"], c["l"]) > 0 for c in chans)
    assert {c["l"] for c in chans} == set(range(5))


def test_compare_invocations_request_only_levels_in_the_oracle_domain():
    lo, hi = inputs.COMPARE_INV_B
    for i in range(41):
        for j in range(41):
            A, alpha = 2.0 / (lo + (hi - lo) * i / 40), 2.0 * j / 40
            for label in inputs.STATE_ORDER:
                n, l = reference.parse_label(label)
                eps = reference.epsilon(A, alpha, n, l)
                assert eps <= 0.0 or inputs.in_oracle_domain(A, alpha, l, n)
    timed, probe = inputs.stream("cli_session", 3), inputs.stream("cli_session", 3, probe=True)
    compares = [timed[i]["argv"] for i in range(96) if timed[i]["kind"] == "compare"]
    assert compares and all(lo <= float(argv[4]) <= hi for argv in compares)
    assert all(probe[i]["kind"] == "compare" and float(probe[i]["argv"][4]) >= inputs.PROBE_COMPARE_INV_B[0]
               for i in range(inputs.PROBE_COUNT["cli_session"]))


def test_timed_in_process_inputs_pass_their_checks_today():
    for wl, count in ((workloads.ClosedForm(seed=11), 64), (workloads.OracleSweep(seed=11), 6)):
        wl.prepare(BENCH.parent, {})
        assert [wl.check(i, wl.op(i)) for i in range(count)] == [(True, True)] * count


def test_table_rows_match_the_published_row_sets():
    assert inputs.TABLE1_ROWS == mrspec.cli.TABLE1_ROWS
    assert inputs.TABLE23_ROWS == mrspec.cli.TABLE23_ROWS
    assert inputs.TABLE_MOLECULES["table2"] == mrspec.cli.TABLE_MOLECULES["table2"]
    assert inputs.TABLE_MOLECULES["table3"] == mrspec.cli.TABLE_MOLECULES["table3"]


# -- the reference checks themselves -------------------------------------------

@pytest.mark.parametrize("inv_b, alpha, n, l", [
    (0.025, 0.75, 0, 1), (0.05, 1.5, 3, 2), (0.1, 0.3, 1, 0), (0.0025, 0.75, 6, 1), (0.004, 1.9, 10, 3),
])
def test_gauss_jacobi_norm_matches_adaptive_quadrature(inv_b, alpha, n, l):
    b = 1.0 / inv_b
    A = 2.0 * b
    eps, lam = reference.epsilon(A, alpha, n, l), reference.lam(alpha, l)
    norm = 1.0 / math.sqrt(checks.norm_integral(n, eps, lam, b, 1.0))
    r_tail = 80.0 * b / eps + 40.0 * b
    breaks = sorted({b * x for x in (0.5, 1, 2, 5, 10, 20)} | {b / eps * x for x in (1, 3, 10, 30)})
    val, _ = quad(lambda r: checks.radial_reference(n, eps, lam, b, norm, r) ** 2, 0.0, r_tail,
                  points=[x for x in breaks if x < r_tail], limit=1000, epsabs=1e-14, epsrel=1e-13)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_reference_jacobi_matches_the_program_recurrence():
    x = np.linspace(-1, 1, 101)
    for n, rho, nu in [(0, 3.0, 1.5), (4, 12.5, 3.2), (10, 39.0, 7.0)]:
        want = eval_jacobi(n, rho, nu, x)
        np.testing.assert_allclose(mrspec.jacobi(n, rho, nu, x), want,
                                   rtol=1e-10, atol=1e-10 * np.max(np.abs(want)))


# -- closed_form checker -------------------------------------------------------

@pytest.fixture(scope="module")
def closed_form():
    wl = workloads.ClosedForm(seed=5)
    wl.prepare(BENCH.parent, {})
    # the first potential at moderate screening whose wavefunctions all normalize
    for i in range(200):
        if wl.inputs[i][0] > 0.05:
            out = wl.op(i)
            if wl.check(i, out) == (True, True):
                return wl, i, out
    pytest.fail("no clean closed_form operation in the first 200")


def test_closed_form_passes_a_correct_output(closed_form):
    wl, i, out = closed_form
    assert wl.check(i, out) == (True, True)


def test_closed_form_flags_a_perturbed_energy(closed_form):
    wl, i, (levels, wfs) = closed_form
    bad = [(levels[0][0], levels[0][1] * (1 + 1e-6))] + levels[1:]
    assert wl.check(i, (bad, wfs))[1] is False


def test_closed_form_flags_a_missing_level(closed_form):
    wl, i, (levels, wfs) = closed_form
    assert wl.check(i, (levels[:-1], wfs))[1] is False


def test_closed_form_flags_a_misnormalized_wavefunction(closed_form):
    wl, i, (levels, wfs) = closed_form
    s, w, r, values = wfs[0]
    wrong = dataclasses.replace(w, norm=w.norm * (1 + 1e-6))
    passed, well_formed = wl.check(i, (levels, [(s, wrong, r, values * (1 + 1e-6))] + wfs[1:]))
    assert passed is False and well_formed is True


def test_closed_form_flags_wrong_samples(closed_form):
    wl, i, (levels, wfs) = closed_form
    s, w, r, values = wfs[0]
    bent = values.copy()
    bent[np.argmax(np.abs(bent))] *= 1.001
    assert wl.check(i, (levels, [(s, w, r, bent)] + wfs[1:]))[1] is False


def test_closed_form_counts_a_raised_normalization_as_failed(closed_form):
    wl, i, (levels, wfs) = closed_form
    s = wfs[0][0]
    assert wl.check(i, (levels, [(s, mrspec.NumericalInstabilityError("x"), None, None)] + wfs[1:])) == (False, True)


# -- oracle_sweep checker ------------------------------------------------------

@pytest.fixture(scope="module")
def oracle():
    wl = workloads.OracleSweep(seed=5)
    wl.prepare(BENCH.parent, {})
    for i in range(100):
        ch = wl.inputs[i]
        if ch["scheme"] == "greene_aldrich" and ch["l"] >= 1 and ch["n_max"] >= 1:
            out = wl.op(i)
            if wl.check(i, out) == (True, True):
                return wl, i, out
    pytest.fail("no clean greene_aldrich channel in the first 100")


def test_oracle_passes_a_correct_output(oracle):
    wl, i, out = oracle
    assert wl.check(i, out) == (True, True)


def test_oracle_flags_a_perturbed_level(oracle):
    wl, i, out = oracle
    ev = list(out.eigenvalues)
    ev[-1] += 1e-5
    assert wl.check(i, dataclasses.replace(out, eigenvalues=tuple(ev)))[0] is False


def test_oracle_flags_an_unconverged_or_missing_level(oracle):
    wl, i, out = oracle
    conv = (False,) + out.converged[1:]
    assert wl.check(i, dataclasses.replace(out, converged=conv))[0] is False
    short = dataclasses.replace(out, eigenvalues=out.eigenvalues[:-1], converged=out.converged[:-1])
    assert wl.check(i, short)[0] is False


def test_oracle_flags_unsorted_levels(oracle):
    wl, i, out = oracle
    assert wl.check(i, dataclasses.replace(out, eigenvalues=out.eigenvalues[::-1]))[1] is False


# -- cli_session checker -------------------------------------------------------

def run_cli_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mrspec.cli.main(list(argv))
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def cli():
    wl = workloads.CliSession(seed=5)
    wl.prepare(BENCH.parent, {})
    return wl


def first_of(wl, kind, start=0):
    return next(i for i in range(start, 200) if wl.inputs[i]["kind"] == kind)


def replace_cell(stdout, row, col, value):
    lines = stdout.splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("kind", ["spectrum", "table1", "table2", "table3", "fig1", "fig2", "wavefunction"])
def test_cli_passes_correct_and_flags_perturbed_closed_form_output(cli, kind):
    i = first_of(cli, kind)
    code, out = run_cli_in_process(cli.inputs[i]["argv"])
    assert cli.check(i, (code, out)) == (True, True)
    row = max(1, len(out.splitlines()) // 2)
    last = len(out.splitlines()[row].split(",")) - 1
    cell = out.splitlines()[row].split(",")[last]
    bumped = f"{float(cell) * 1.01:.7e}" if cell != "unbound" else "-1.0"
    assert cli.check(i, (code, replace_cell(out, row, last, bumped)))[1] is False
    assert cli.check(i, (code, "\n".join(out.splitlines()[:-1]) + "\n")) != (True, True)
    assert cli.check(i, (1, out))[1] is False


def test_cli_flags_a_wrong_greene_aldrich_oracle_cell(cli):
    i = first_of(cli, "oracle_table")
    code, out = run_cli_in_process(cli.inputs[i]["argv"])
    passed, well_formed = cli.check(i, (code, out))
    assert well_formed
    header = next(csv.reader([out.splitlines()[0]]))  # quoted names hold commas; data rows do not
    col = next(j for j, h in enumerate(header) if "oracle_greene_aldrich" in h)
    row = out.splitlines()[1].split(",")
    if passed and row[col] != "unbound":
        shifted = replace_cell(out, 1, col, f"{float(row[col]) + 1e-5:.7f}")
        assert cli.check(i, (code, shifted)) == (False, True)


def test_cli_compare_exit_status_must_match_its_rows(cli):
    i = first_of(cli, "compare")
    code, out = run_cli_in_process(cli.inputs[i]["argv"])
    passed, well_formed = cli.check(i, (code, out))
    assert well_formed and passed == (code == 0)
    # the same rows with the other exit status contradict themselves
    assert cli.check(i, (3 - code if code in (0, 3) else code, out))[1] is False


def test_cli_oracle_requests_repeat_across_molecules(cli):
    i = first_of(cli, "oracle_table")
    req = cli.oracle_requests(i)
    assert len(req) == 12 and len(set(req)) == 6


# -- spans ---------------------------------------------------------------------

def test_tracer_records_nested_spans_and_restores_the_modules():
    original = mrspec.spectrum.energy
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mrspec.spectrum.energy is not original and mrspec.energy is mrspec.spectrum.energy
        p = mrspec.PotentialParams(A=40.0, alpha=0.75, b=20.0)
        levels = mrspec.enumerate_bound_states(p, l_max=1)
    finally:
        tracer.uninstall()
    assert mrspec.spectrum.energy is original and mrspec.energy is original
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "spectrum.enumerate_bound_states"
    assert names.count("spectrum.energy") == len(levels)
    assert all(s[spans.PARENT] == 0 for s in tracer.spans[1:])
    m = spans.layer_metrics(tracer.spans)
    assert m["spectrum.energy.calls"] == len(levels)
    own = spans.self_times(tracer.spans)
    total = tracer.spans[0][spans.END] - tracer.spans[0][spans.START]
    assert sum(own.values()) == pytest.approx(total)


# -- the runner ----------------------------------------------------------------

def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "closed_form", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_latency_tail_keeps_ten_samples_and_one_percent_beyond_it():
    for n, beyond in ((11, 10), (500, 10), (1000, 10), (5000, 50)):
        _, tail_ms, pct = run.latency_summary([float(i) for i in range(n)])
        assert tail_ms == (n - beyond - 1) * 1e3 and pct == pytest.approx(100.0 * (n - beyond) / n)


def test_benchmark_json_names_every_metric_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    reported = dict(spans.LAYER_METRICS + run.TRACE_METRICS + run.PROBE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

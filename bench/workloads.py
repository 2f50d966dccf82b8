"""The three workloads: what one operation runs, how its output is checked,
and the input shares that later optimisations depend on.

Each workload runs either its timed input stream or, with ``probe=True``,
the stream of its known-defect probe (see ``inputs``). Each operation
returns its output; ``check`` judges it outside the timed region and
returns (passed, well_formed). An operation that fails a check
of accuracy is counted as failed. An output that is malformed, or a
closed-form value that differs from the reference formula, also marks the
whole run incorrect: the program's results cannot be trusted at all.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import inputs
import reference

GRID_POINTS = 1000   # radial_value samples per wavefunction in closed_form
N_MAX_WF = 10        # closed_form builds wavefunctions for levels n <= N_MAX_WF
L_MAX = 3            # closed_form enumerates levels up to this l


def _share(hits: int, base: int) -> dict:
    return {"hits": hits, "base": base, "value": hits / base if base else None}


class ClosedForm:
    """One random potential: levels, wavefunctions with n <= 10, samples."""

    name = "closed_form"
    calibration = "python"  # the run.py loop whose speed tracks these operations
    in_process = True
    trace_batch = 200

    def __init__(self, seed: int, probe: bool = False):
        self.inputs = inputs.stream("closed_form", seed, probe)

    def prepare(self, root: Path, env: dict):
        import mrspec
        self.mr = mrspec

    def op(self, i: int):
        mr = self.mr
        inv_b, alpha = self.inputs[i]
        b = 1.0 / inv_b
        p = mr.PotentialParams(A=2.0 * b, alpha=alpha, b=b)
        levels = mr.enumerate_bound_states(p, l_max=L_MAX)
        wavefunctions = []
        for s, _ in levels:
            if s.n > N_MAX_WF:
                continue
            try:
                w = mr.build_radial_wavefunction(p, s)
            except mr.MrspecError as exc:
                wavefunctions.append((s, exc, None, None))
                continue
            r = np.linspace(0.0, 60.0 * b / w.epsilon, GRID_POINTS)
            wavefunctions.append((s, w, r, mr.radial_value(w, r)))
        return levels, wavefunctions

    def check(self, i: int, out) -> tuple[bool, bool]:
        inv_b, alpha = self.inputs[i]
        b = 1.0 / inv_b
        A = 2.0 * b
        levels, wavefunctions = out
        want = {(n, l) for n, l, _ in reference.bound_levels(A, alpha, L_MAX)}
        energies = [e for _, e in levels]
        well_formed = ({(s.n, s.l) for s, _ in levels} == want and len(levels) == len(want)
                       and energies == sorted(energies)
                       and all(checks.rel_close(e, reference.energy(A, alpha, b, 1.0, 1.0, s.n, s.l),
                                                checks.ENERGY_REL_TOL) for s, e in levels))
        passed = True
        for s, w, r, values in wavefunctions:
            if r is None:  # the program raised
                passed = False
                continue
            normalized, consistent = checks.wavefunction_verdict(
                s.n, s.l, A, alpha, b, w.epsilon, w.Lambda, w.norm, r, values)
            passed &= normalized
            well_formed &= consistent
        return passed, well_formed

    def shares(self, count: int) -> dict:
        deep = total = 0
        for i in range(count):
            inv_b, alpha = self.inputs[i]
            for n, _, _ in reference.bound_levels(2.0 / inv_b, alpha, L_MAX):
                if n <= N_MAX_WF:
                    total += 1
                    deep += n >= 6 and inv_b < 0.01
        return {"oracle.reduced_repeat_frac": _share(0, 0),
                "oracle_channels_shallowest_eps_lt_1": _share(0, 0),
                "wavefunctions_n_ge_6_at_inv_b_lt_0.01": _share(deep, total)}


class OracleSweep:
    """One l-channel of the finite-difference oracle, never repeated."""

    name = "oracle_sweep"
    calibration = "stebz"
    in_process = True
    trace_batch = 40

    def __init__(self, seed: int, probe: bool = False):
        self.inputs = inputs.stream("oracle_sweep", seed, probe)

    def prepare(self, root: Path, env: dict):
        import mrspec
        self.mr = mrspec

    def op(self, i: int):
        mr = self.mr
        ch = self.inputs[i]
        b = 1.0 / ch["inv_b"]
        p = mr.PotentialParams(A=2.0 * b, alpha=ch["alpha"], b=b)
        scheme = mr.GREENE_ALDRICH if ch["scheme"] == "greene_aldrich" else mr.EXACT
        try:
            rp = mr.default_problem(p, mr.atomic_units(), ch["l"], scheme, n_max=ch["n_max"])
            return mr.solve(rp, ch["n_max"] + 1)
        except mr.MrspecError as exc:
            return exc

    def check(self, i: int, out) -> tuple[bool, bool]:
        if isinstance(out, Exception):
            return False, True
        ch = self.inputs[i]
        b = 1.0 / ch["inv_b"]
        k = ch["n_max"] + 1
        _, all_useful, well_formed = checks.oracle_levels_verdict(
            2.0 * b, ch["alpha"], b, 1.0, 1.0, ch["l"], ch["scheme"], k,
            out.eigenvalues, out.converged)
        return all_useful, well_formed and out.requested == k

    def skipped(self, count: int) -> int:
        """Candidates outside the stream's domain skipped before the first `count` operations."""
        return self.inputs[count - 1]["candidate"] + 1 - count if count else 0

    def shares(self, count: int) -> dict:
        keys, repeats, shallow = set(), 0, 0
        for i in range(count):
            ch = self.inputs[i]
            A = 2.0 / ch["inv_b"]
            key = (A, ch["alpha"] * (ch["alpha"] - 1.0), ch["l"], ch["scheme"], ch["n_max"])
            repeats += key in keys
            keys.add(key)
            shallow += reference.epsilon(A, ch["alpha"], ch["n_max"], ch["l"]) < 1.0
        return {"oracle.reduced_repeat_frac": _share(repeats, count),
                "oracle_channels_shallowest_eps_lt_1": _share(shallow, count),
                "wavefunctions_n_ge_6_at_inv_b_lt_0.01": _share(0, 0)}


class CliSession:
    """One ``python -m mrspec ...`` invocation from a seeded session script."""

    name = "cli_session"
    calibration = "startup"
    in_process = False
    trace_batch = 2 * len(inputs.CLI_ROUND)  # two rounds: one table --with-oracle, one compare

    def __init__(self, seed: int, probe: bool = False):
        self.inputs = inputs.stream("cli_session", seed, probe)

    def prepare(self, root: Path, env: dict):
        """root: where to run the CLI; env: an environment that imports mrspec from there."""
        # the checks compare against mrspec's public functions in this process
        import mrspec
        self.mr = mrspec
        self.root, self.env = root, env

    def op(self, i: int, spans_out: Path | None = None):
        argv = self.inputs[i]["argv"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "mrspec", *argv]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("launch.py")), str(spans_out), *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout.decode("utf-8", "replace")

    def check(self, i: int, out) -> tuple[bool, bool]:
        inv = self.inputs[i]
        code, stdout = out
        rows = list(csv.reader(stdout.splitlines()))
        kind = inv["kind"]
        if kind == "compare":
            return self._check_compare(inv["argv"], code, rows)
        if code == 2:  # the program reported a computation error
            return False, True
        if code != 0 or not rows:
            return False, False
        if kind == "spectrum":
            return True, self._check_spectrum(inv["argv"], rows)
        if kind in ("table1", "table2", "table3", "oracle_table"):
            return self._check_table(inv["argv"], rows)
        if kind in ("fig1", "fig2"):
            return True, self._check_figure(inv["argv"], rows)
        return self._check_wavefunction(inv["argv"], rows)

    # -- helpers -------------------------------------------------------------

    @staticmethod
    def _opt(argv, flag, default=None):
        return argv[argv.index(flag) + 1] if flag in argv else default

    def _units(self, molecule):
        return self.mr.molecular_units(molecule) if molecule else self.mr.atomic_units()

    def _cell(self, params, u, s, precision):
        mr = self.mr
        return f"{mr.energy(params, u, s):.{precision}f}" if mr.is_bound(params, s) else "unbound"

    def _check_spectrum(self, argv, rows) -> bool:
        mr = self.mr
        alpha, inv_b = float(self._opt(argv, "--alpha")), float(self._opt(argv, "--inv-b"))
        b = 1.0 / inv_b
        params = mr.PotentialParams(A=2.0 * b, alpha=alpha, b=b)
        u = self._units(self._opt(argv, "--molecule"))
        labels = self._opt(argv, "--state").split(",")
        want = [["state", "n", "l", "energy"]]
        for label in labels:
            s = mr.QuantumState.from_label(label)
            want.append([label, str(s.n), str(s.l), self._cell(params, u, s, 7)])
        return rows == want

    def _check_table(self, argv, rows) -> tuple[bool, bool]:
        mr = self.mr
        which = argv[1]
        precision = int(self._opt(argv, "--precision", "7"))
        with_oracle = "--with-oracle" in argv
        table_rows = inputs.TABLE1_ROWS if which == "table1" else inputs.TABLE23_ROWS
        if with_oracle:
            keep = (self._opt(argv, "--states"), float(self._opt(argv, "--inv-b")))
            table_rows = tuple(rw for rw in table_rows if rw == keep)
        molecules = inputs.TABLE_MOLECULES[which] or ("",)
        alphas = (("0.75", 0.75), ("1.5", 1.5)) if which == "table1" else \
            (("0,1", 0.0), ("0.75", 0.75), ("1.5", 1.5))
        header = ["state", "1/b"]
        header += [f"{m + ' ' if m else ''}alpha={a}" for m in molecules for a, _ in alphas]
        if with_oracle:
            header += [f"{m + ' ' if m else ''}oracle_{sc} alpha={a}" for m in molecules
                       for sc in ("greene_aldrich", "exact") for a, _ in alphas]
        if rows[0] != header or len(rows) != len(table_rows) + 1:
            return False, False
        passed = well_formed = True
        for (label, inv_b), row in zip(table_rows, rows[1:]):
            s = mr.QuantumState.from_label(label)
            b = 1.0 / inv_b
            closed = []
            for m in molecules:
                u = self._units(m)
                for _, alpha in alphas:
                    params = mr.PotentialParams(A=2.0 * b, alpha=alpha, b=b)
                    closed.append((params, u))
            want = [label, f"{inv_b:.3f}"] + [self._cell(p, u, s, precision) for p, u in closed]
            well_formed &= row[:len(want)] == want
            if not with_oracle:
                continue
            oracle_cells = row[len(want):]
            per_molecule = 2 * len(alphas)
            for j, (params, u) in enumerate(closed):
                mol, a = divmod(j, len(alphas))
                ga = oracle_cells[mol * per_molecule + a]
                exact = oracle_cells[mol * per_molecule + len(alphas) + a]
                for cell in (ga, exact):
                    if cell != "unbound":
                        try:
                            float(cell)
                        except ValueError:
                            well_formed = False
                if mr.is_bound(params, s):
                    passed &= ga != "unbound" and abs(float(ga) - mr.energy(params, u, s)) <= checks.GA_TOL
                else:
                    passed &= ga == "unbound"
        return passed, well_formed

    def _check_figure(self, argv, rows) -> bool:
        mr = self.mr
        if argv[1] == "fig1":
            alphas = [float(x) for x in self._opt(argv, "--alphas").split(",")]
            inv_bs = [float(x) for x in self._opt(argv, "--inv-b").split(",")]
            r = np.linspace(0.05, 60.0, 1200)
            header = ["r"] + [f"V(alpha={a:g},1/b={ib:g})" for a in alphas for ib in inv_bs]
            cols = [mr.mr_value(mr.PotentialParams(A=2.0 / ib, alpha=a, b=1.0 / ib), mr.atomic_units(), r)
                    for a in alphas for ib in inv_bs]
        else:
            b = 1.0 / float(self._opt(argv, "--delta"))
            r = np.linspace(0.1, 30.0, 600)
            header = ["r", "1/r^2", "greene_aldrich", "shifted"]
            cols = [mr.centrifugal_term(sc, b, r) for sc in
                    (mr.EXACT, mr.GREENE_ALDRICH, mr.CentrifugalScheme("shifted", shift_c0=1.0 / 12.0))]
        want = [header] + [[f"{x:.7e}" for x in vals] for vals in zip(r, *cols)]
        return rows == want

    def _check_wavefunction(self, argv, rows) -> tuple[bool, bool]:
        mr = self.mr
        alpha, inv_b = float(self._opt(argv, "--alpha")), float(self._opt(argv, "--inv-b"))
        b = 1.0 / inv_b
        s = mr.QuantumState.from_label(self._opt(argv, "--state"))
        w = mr.build_radial_wavefunction(mr.PotentialParams(A=2.0 * b, alpha=alpha, b=b), s)
        r = np.linspace(0.0, 60.0 * b / w.epsilon, 1000)
        values = mr.radial_value(w, r)
        want = [["r", "R", "R^2"]] + [[f"{ri:.7e}", f"{v:.7e}", f"{v * v:.7e}"] for ri, v in zip(r, values)]
        normalized, consistent = checks.wavefunction_verdict(
            s.n, s.l, 2.0 * b, alpha, b, w.epsilon, w.Lambda, w.norm, r, values)
        return normalized, consistent and rows == want

    def _check_compare(self, argv, code, rows) -> tuple[bool, bool]:
        mr = self.mr
        if code not in (0, 3) or not rows:
            return False, False
        alpha, inv_b = float(self._opt(argv, "--alpha")), float(self._opt(argv, "--inv-b"))
        b = 1.0 / inv_b
        params = mr.PotentialParams(A=2.0 * b, alpha=alpha, b=b)
        u = mr.atomic_units()
        states = [s for s in map(mr.QuantumState.from_label, inputs.STATE_ORDER) if mr.is_bound(params, s)]
        schemes = ["greene_aldrich", "exact"] if self._opt(argv, "--scheme") == "both" else ["greene_aldrich"]
        header = ["scheme", "state", "n", "l", "analytic", "numeric",
                  "abs_dev", "rel_dev", "converged", "pass"]
        expected = [(sc, s) for sc in schemes for s in states]
        if rows[0] != header or len(rows) != len(expected) + 1:
            return False, False
        well_formed, any_bad = True, False
        for (scheme, s), row in zip(expected, rows[1:]):
            well_formed &= row[:5] == [scheme, s.label, str(s.n), str(s.l), f"{mr.energy(params, u, s):.7e}"]
            if row[5] == "missing" or row[8] != "yes":
                any_bad = True
            elif scheme == "greene_aldrich":
                any_bad |= abs(float(row[5]) - mr.energy(params, u, s)) > checks.GA_TOL
        # --strict must exit 3 exactly when some row failed
        return code == 0, well_formed and (code == 3) == any_bad

    def oracle_requests(self, i: int) -> list[tuple]:
        """The (A, alpha(alpha-1), l, scheme, n_max) solves invocation i asks for."""
        inv = self.inputs[i]
        argv = inv["argv"]
        if inv["kind"] == "oracle_table":
            label, inv_b = self._opt(argv, "--states"), float(self._opt(argv, "--inv-b"))
            n, l = reference.parse_label(label)
            return [(2.0 / inv_b, a * (a - 1.0), l, sc, n)
                    for _ in inputs.TABLE_MOLECULES[argv[1]] for a in (0.0, 0.75, 1.5)
                    for sc in ("greene_aldrich", "exact")]
        if inv["kind"] == "compare":
            alpha, inv_b = float(self._opt(argv, "--alpha")), float(self._opt(argv, "--inv-b"))
            A = 2.0 / inv_b
            n_max: dict[int, int] = {}
            for label in inputs.STATE_ORDER:
                n, l = reference.parse_label(label)
                if reference.epsilon(A, alpha, n, l) > 0.0:
                    n_max[l] = max(n_max.get(l, -1), n)
            schemes = ("greene_aldrich", "exact") if self._opt(argv, "--scheme") == "both" else ("greene_aldrich",)
            return [(A, alpha * (alpha - 1.0), l, sc, n_max[l]) for sc in schemes for l in sorted(n_max)]
        return []

    def shares(self, count: int) -> dict:
        repeats = solves = shallow = 0
        for i in range(count):
            seen = set()
            for A, aa, l, sc, n in self.oracle_requests(i):
                # alpha from alpha(alpha-1); either root gives the same spectrum
                alpha = 0.5 + (0.25 + aa) ** 0.5
                solves += 1
                repeats += (A, aa, l, sc, n) in seen
                seen.add((A, aa, l, sc, n))
                shallow += reference.epsilon(A, alpha, n, l) < 1.0
        wavefunctions = sum(self.inputs[i]["kind"] == "wavefunction" for i in range(count))
        return {"oracle.reduced_repeat_frac": _share(repeats, solves),
                "oracle_channels_shallowest_eps_lt_1": _share(shallow, solves),
                "wavefunctions_n_ge_6_at_inv_b_lt_0.01": _share(0, wavefunctions)}

    def read_spans(self, path: Path, request: int) -> list:
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        path.unlink()
        for s in spans:
            s[0] = request
        return spans


WORKLOADS = {w.name: w for w in (ClosedForm, OracleSweep, CliSession)}

"""Command-line front end: tables, figure data, comparison runs, wavefunctions.

Exit codes: 0 success, 1 usage error, 2 computation/configuration error,
3 comparison failure under --strict. Output is CSV (RFC-4180 quoting, LF
line endings, '.' decimal separator) or TSV; energy tables use fixed-point
notation at the configured precision, figure/wavefunction samples use
scientific notation. spectrum and table load neither numpy nor scipy;
figure-data and wavefunction load numpy; an oracle solve (table
--with-oracle, compare) loads numpy and scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys

from . import oracle
from .errors import MrspecError
from .potential import (
    EXACT,
    GREENE_ALDRICH,
    CentrifugalScheme,
    PotentialParams,
    centrifugal_term,
    mr_value,
)
from .spectrum import QuantumState, energy, is_bound
from .units import UnitSystem, atomic_units, molecular_units

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_STRICT = 3

# Published row sets. The atomic-units table lacks the (3d, 0.100) row that
# the molecular tables include.
_FULL_STATE_ORDER = ("2p", "3p", "3d", "4p", "4d", "4f",
                     "5p", "5d", "5f", "5g", "6p", "6d", "6f", "6g")
_INV_B_BY_STATE_T1 = {
    "2p": (0.025, 0.050, 0.075, 0.100),
    "3p": (0.025, 0.050, 0.075, 0.100),
    "3d": (0.025, 0.050, 0.075),
    "4p": (0.025, 0.050, 0.075),
    "4d": (0.025, 0.050, 0.075),
    "4f": (0.025, 0.050, 0.075),
    "5p": (0.025,), "5d": (0.025,), "5f": (0.025,), "5g": (0.025,),
    "6p": (0.025,), "6d": (0.025,), "6f": (0.025,), "6g": (0.025,),
}
_INV_B_BY_STATE_T23 = dict(_INV_B_BY_STATE_T1, **{"3d": (0.025, 0.050, 0.075, 0.100)})
TABLE1_ROWS = tuple(
    (label, inv_b) for label in _FULL_STATE_ORDER for inv_b in _INV_B_BY_STATE_T1[label]
)
TABLE23_ROWS = tuple(
    (label, inv_b) for label in _FULL_STATE_ORDER for inv_b in _INV_B_BY_STATE_T23[label]
)
TABLE_MOLECULES = {"table2": ("HCl", "CH"), "table3": ("LiH", "CO")}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad arguments; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _state_label(text: str) -> QuantumState:
    try:
        return QuantumState.from_label(text)
    except MrspecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _positive_float(text: str) -> float:
    value = _float(text)
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text}")
    return value


def _comma_list(item):
    """An argparse type for comma-separated items, each parsed by item; '' gives []."""
    def parse(text: str) -> list:
        return [item(tok) for tok in text.split(",")] if text.strip() else []
    return parse


def _strength(text: str):
    """--A accepts a literal number or the token '2b' (all tables fix A = 2b)."""
    if text.strip().lower() == "2b":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or '2b', got {text!r}"
        ) from None


def _resolve_A(a_value, b: float) -> float:
    return 2.0 * b if a_value is None else a_value


def _units(args) -> UnitSystem:
    """The eV/pm system of --molecule, or atomic units without it."""
    return molecular_units(args.molecule) if args.molecule else atomic_units()


def _potential(args) -> PotentialParams:
    """The potential named by --inv-b/--b, --A and --alpha."""
    b = 1.0 / args.inv_b if args.b is None else args.b
    return PotentialParams(A=_resolve_A(args.A, b), alpha=args.alpha, b=b)


def _table_params(inv_b: float, alpha: float) -> PotentialParams:
    """The published tables' potential: A = 2b at the tabulated 1/b."""
    b = 1.0 / inv_b
    return PotentialParams(A=2.0 * b, alpha=alpha, b=b)


def _open_output(path: str | None):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _write_table(args, header, rows) -> None:
    """Write the header and rows to args.output in args.format.

    Callers finish every computation that can fail before they call this, so
    an error never leaves a partial table behind; rows may be a generator
    that only formats values already computed.
    """
    delim = "\t" if args.format == "tsv" else ","
    with _open_output(args.output) as fh:
        w = csv.writer(fh, delimiter=delim, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _fixed(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _sci(value: float, precision: int) -> str:
    return f"{value:.{precision}e}"


def _closed_form_cell(params: PotentialParams, u: UnitSystem, s: QuantumState,
                      precision: int) -> str:
    return _fixed(energy(params, u, s), precision) if is_bound(params, s) else "unbound"


def _add_common_output(p: argparse.ArgumentParser):
    p.add_argument("--output", "-o", default="-", help="output file, '-' for stdout")
    p.add_argument("--format", choices=("csv", "tsv"), default="csv")
    p.add_argument("--precision", type=int, choices=range(6, 13), default=7,
                   metavar="{6..12}", help="decimal digits (default 7)")


def _add_potential_args(p: argparse.ArgumentParser, require_alpha=True):
    p.add_argument("--alpha", type=float, required=require_alpha)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--inv-b", type=_positive_float, dest="inv_b",
                       help="1/b in the active inverse length unit (as tabulated)")
    group.add_argument("--b", type=_positive_float, help="screening length b directly")
    p.add_argument("--A", type=_strength, default=None, metavar="A|2b",
                   help="potential strength; the token '2b' resolves against b (default)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mrspec",
                     description="Manning-Rosen bound-state solver and table generator")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_spec = sub.add_parser("spectrum", help="closed-form level energies")
    _add_potential_args(p_spec)
    p_spec.add_argument("--state", action="append", required=True, type=_comma_list(_state_label),
                        metavar="LABELS", help="spectroscopic labels, comma separated; repeatable")
    p_spec.add_argument("--molecule", help="use the eV/pm system of this registry molecule")
    _add_common_output(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_table = sub.add_parser("table", help="reproduce a published energy table")
    p_table.add_argument("which", choices=("table1", "table2", "table3"))
    p_table.add_argument("--states", type=_comma_list(_state_label), default=None, metavar="LABELS",
                         help="restrict to these spectroscopic labels")
    p_table.add_argument("--inv-b", type=_comma_list(_float), default=None, dest="inv_b_values",
                         metavar="VALUES", help="restrict to these 1/b values")
    p_table.add_argument("--with-oracle", action="store_true",
                         help="add finite-difference eigenvalue columns (both schemes)")
    p_table.add_argument("--grid-points", type=int, default=20000)
    _add_common_output(p_table)
    p_table.set_defaults(func=cmd_table)

    p_fig = sub.add_parser("figure-data", help="emit figure curves as CSV")
    p_fig.add_argument("which", choices=("fig1", "fig2"))
    p_fig.add_argument("--r-min", type=_positive_float, default=None)
    p_fig.add_argument("--r-max", type=_positive_float, default=None)
    p_fig.add_argument("--points", type=int, default=None)
    p_fig.add_argument("--alphas", type=_comma_list(_float), default=[0.75, 1.5],
                       metavar="VALUES", help="fig1 only (default 0.75,1.5)")
    p_fig.add_argument("--inv-b", type=_comma_list(_positive_float), default=[0.025, 0.050, 0.100],
                       dest="inv_b_values", metavar="VALUES", help="fig1 only")
    p_fig.add_argument("--A", type=_strength, default=None, metavar="A|2b",
                       help="fig1 only (default 2b)")
    p_fig.add_argument("--delta", type=_positive_float, default=0.1,
                       help="fig2 only: screening parameter 1/b (default 0.1)")
    p_fig.add_argument("--shift-c0", type=float, default=1.0 / 12.0,
                       help="fig2 only: shifting constant (default 1/12)")
    _add_common_output(p_fig)
    p_fig.set_defaults(func=cmd_figure_data)

    p_cmp = sub.add_parser("compare", help="analytic spectrum vs finite-difference solver")
    _add_potential_args(p_cmp)
    p_cmp.add_argument("--states", type=_comma_list(_state_label), default=None, metavar="LABELS",
                       help="comma-separated labels (default: the standard table states; "
                            "empty string for an empty report)")
    p_cmp.add_argument("--scheme", choices=("greene_aldrich", "exact", "both"), default="both")
    p_cmp.add_argument("--grid-points", type=int, default=20000)
    p_cmp.add_argument("--tol-ga", type=_positive_float, default=1e-6,
                       help="pass threshold for the greene_aldrich scheme (default 1e-6)")
    p_cmp.add_argument("--tol-exact", type=_positive_float, default=None,
                       help="pass threshold for the exact scheme (default: informational)")
    p_cmp.add_argument("--strict", action="store_true",
                       help="exit 3 when any row fails or fails to converge")
    p_cmp.add_argument("--molecule", help="use the eV/pm system of this registry molecule")
    _add_common_output(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_wf = sub.add_parser("wavefunction", help="sample a normalized radial wavefunction")
    _add_potential_args(p_wf)
    p_wf.add_argument("--state", type=_state_label, required=True, metavar="LABEL")
    p_wf.add_argument("--r-max", type=_positive_float, default=None,
                      help="default: 60 b / epsilon")
    p_wf.add_argument("--points", type=int, default=1000)
    _add_common_output(p_wf)
    p_wf.set_defaults(func=cmd_wavefunction)

    return parser


def cmd_spectrum(args) -> int:
    u, params = _units(args), _potential(args)
    states = [s for chunk in args.state for s in chunk]
    rows = [[s.label, s.n, s.l, _closed_form_cell(params, u, s, args.precision)] for s in states]
    _write_table(args, ["state", "n", "l", "energy"], rows)
    return EXIT_OK


def cmd_table(args) -> int:
    rows = TABLE1_ROWS if args.which == "table1" else TABLE23_ROWS
    if args.states is not None:
        keep = {s.label for s in args.states}
        rows = tuple(rw for rw in rows if rw[0] in keep)
    if args.inv_b_values is not None:
        keep_b = set(args.inv_b_values)
        rows = tuple(rw for rw in rows if rw[1] in keep_b)

    if args.which == "table1":
        systems = [("", atomic_units())]
        alphas = [("0.75", 0.75), ("1.5", 1.5)]
    else:
        systems = [(f"{name} ", molecular_units(name)) for name in TABLE_MOLECULES[args.which]]
        # alpha = 0 and alpha = 1 give the same (Hulthen) column
        alphas = [("0,1", 0.0), ("0.75", 0.75), ("1.5", 1.5)]
    # (header, units, alpha, scheme); scheme None marks a closed-form column
    columns = [(f"{prefix}alpha={name}", u, alpha, None)
               for prefix, u in systems for name, alpha in alphas]
    if args.with_oracle:
        columns += [(f"{prefix}oracle_{scheme.kind} alpha={name}", u, alpha, scheme)
                    for prefix, u in systems for scheme in (GREENE_ALDRICH, EXACT)
                    for name, alpha in alphas]

    states_by_inv_b: dict[float, list[QuantumState]] = {}
    for label, inv_b in rows:
        states_by_inv_b.setdefault(inv_b, []).append(QuantumState.from_label(label))
    found = {(inv_b, i): oracle.levels(_table_params(inv_b, alpha), u, states, scheme,
                                       args.grid_points)
             for inv_b, states in states_by_inv_b.items()
             for i, (_, u, alpha, scheme) in enumerate(columns) if scheme is not None}

    lines = []
    for label, inv_b in rows:
        s = QuantumState.from_label(label)
        cells = [label, f"{inv_b:.3f}"]
        for i, (_, u, alpha, scheme) in enumerate(columns):
            if scheme is None:
                cells.append(_closed_form_cell(_table_params(inv_b, alpha), u, s, args.precision))
            else:
                level = found[inv_b, i].get(s)
                cells.append("unbound" if level is None
                             else "unconverged" if not level.converged
                             else _fixed(level.energy, args.precision))
        lines.append(cells)
    _write_table(args, ["state", "1/b"] + [column[0] for column in columns], lines)
    return EXIT_OK


# Default (r_min, r_max, points) of each figure's grid
_FIGURE_GRIDS = {"fig1": (0.05, 60.0, 1200), "fig2": (0.1, 30.0, 600)}


def cmd_figure_data(args) -> int:
    import numpy as np

    default_min, default_max, default_points = _FIGURE_GRIDS[args.which]
    r_min = default_min if args.r_min is None else args.r_min
    r_max = default_max if args.r_max is None else args.r_max
    points = default_points if args.points is None else args.points
    if points < 2 or r_min >= r_max:
        raise MrspecError("figure grid must be increasing with at least 2 points")
    r = np.linspace(r_min, r_max, points)
    if args.which == "fig1":
        u = atomic_units()
        combos = [(alpha, inv_b) for alpha in args.alphas for inv_b in args.inv_b_values]
        header = ["r"] + [f"V(alpha={a:g},1/b={ib:g})" for a, ib in combos]
        columns = [r]
        for alpha, inv_b in combos:
            b = 1.0 / inv_b
            params = PotentialParams(A=_resolve_A(args.A, b), alpha=alpha, b=b)
            columns.append(mr_value(params, u, r))
    else:
        b = 1.0 / args.delta
        shifted = CentrifugalScheme("shifted", shift_c0=args.shift_c0)
        header = ["r", "1/r^2", "greene_aldrich", "shifted"]
        columns = [r] + [centrifugal_term(scheme, b, r)
                         for scheme in (EXACT, GREENE_ALDRICH, shifted)]
    _write_table(args, header, ([_sci(c[i], args.precision) for c in columns]
                                for i in range(len(r))))
    return EXIT_OK


def cmd_compare(args) -> int:
    u, params = _units(args), _potential(args)
    if args.states is None:
        states = [QuantumState.from_label(lab) for lab in _FULL_STATE_ORDER]
        states = [s for s in states if is_bound(params, s)]
    else:
        states = args.states
        for s in states:
            if not is_bound(params, s):
                raise MrspecError(f"state {s.label} is unbound for these parameters")
    schemes = {"greene_aldrich": [GREENE_ALDRICH], "exact": [EXACT],
               "both": [GREENE_ALDRICH, EXACT]}[args.scheme]

    failing: list[str] = []
    lines = []
    for scheme in schemes:
        tol = args.tol_ga if scheme.kind == "greene_aldrich" else args.tol_exact
        found = oracle.levels(params, u, states, scheme, args.grid_points)
        for s in states:
            analytic = energy(params, u, s)
            level = found.get(s)
            if level is None:
                lines.append([scheme.kind, s.label, s.n, s.l, _sci(analytic, args.precision),
                              "missing", "", "", "no", "no"])
                failing.append(f"{scheme.kind}:{s.label}")
                continue
            dev = abs(analytic - level.energy)
            rel = dev / abs(analytic) if analytic else (math.inf if dev else 0.0)
            ok = "" if tol is None else ("yes" if dev <= tol else "no")
            if ok == "no" or not level.converged:
                failing.append(f"{scheme.kind}:{s.label}")
            lines.append([scheme.kind, s.label, s.n, s.l, _sci(analytic, args.precision),
                          _sci(level.energy, args.precision), _sci(dev, args.precision),
                          _sci(rel, args.precision), "yes" if level.converged else "no", ok])
    _write_table(args, ["scheme", "state", "n", "l", "analytic", "numeric",
                        "abs_dev", "rel_dev", "converged", "pass"], lines)
    if args.strict and failing:
        sys.stderr.write(f"mrspec: compare failed: {', '.join(failing)}\n")
        return EXIT_STRICT
    return EXIT_OK


def cmd_wavefunction(args) -> int:
    import numpy as np

    from .wavefunction import build_radial_wavefunction, radial_value

    params = _potential(args)
    wf = build_radial_wavefunction(params, args.state)  # raises when unbound
    r_max = 60.0 * params.b / wf.epsilon if args.r_max is None else args.r_max
    if args.points < 2:
        raise MrspecError("need at least 2 sample points")
    r = np.linspace(0.0, r_max, args.points)
    values = radial_value(wf, r)
    _write_table(args, ["r", "R", "R^2"],
                 ([_sci(ri, args.precision), _sci(vi, args.precision),
                   _sci(vi * vi, args.precision)] for ri, vi in zip(r, values)))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.error("a subcommand is required")
    try:
        return args.func(args)
    except MrspecError as exc:
        sys.stderr.write(f"mrspec: error: {exc}\n")
        return EXIT_COMPUTE
    except MemoryError as exc:
        # numpy raises it, before touching memory, for an array that cannot be
        # mapped at all (--points 10**14 asks for 728 TiB)
        sys.stderr.write(f"mrspec: error: out of memory: {exc}\n")
        return EXIT_COMPUTE
    except BrokenPipeError:
        return EXIT_OK

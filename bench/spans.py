"""Spans around mrspec's public functions, recorded from outside the package.

``Tracer.install`` rebinds, in every loaded ``mrspec`` module, each
attribute that refers to a traced function, so calls between modules (and
``from .x import f`` aliases) go through the wrapper too. Spans stay in
memory as plain lists and are written out when the run ends.

A span is [request, id, parent, name, start, end, raised, payload]; the
request is the operation that caused it, so spans of one operation share
it. A layer's self time is its duration minus that of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

REQUEST, ID, PARENT, NAME, START, END, RAISED, PAYLOAD = range(8)


def _solve_payload(bound, result):
    rp, k = bound["rp"], bound["k"]
    return {"A": rp.params.A, "alpha": rp.params.alpha, "b": rp.params.b,
            "hbar": rp.units.hbar, "mu": rp.units.mu, "l": rp.l, "scheme": rp.scheme.kind,
            "k": k, "grid": rp.grid_points,
            "eigenvalues": list(result.eigenvalues), "converged": list(result.converged)}


def _points_payload(bound, result):
    return {"points": int(getattr(result, "size", 1))}


def _build_payload(bound, result):
    p, s = bound["p"], bound["s"]
    return {"n": s.n, "l": s.l, "A": p.A, "alpha": p.alpha, "b": p.b,
            "eps": result.epsilon, "lam": result.Lambda, "norm": result.norm}


# (module, attribute, span name, payload from (bound arguments, result))
TARGETS = (
    ("mrspec.cli", "main", "cli.main", None),
    ("mrspec.spectrum", "energy", "spectrum.energy", None),
    ("mrspec.spectrum", "enumerate_bound_states", "spectrum.enumerate_bound_states", None),
    ("mrspec.wavefunction", "normalization_constant", "wavefunction.normalization_constant", None),
    ("mrspec.wavefunction", "build_radial_wavefunction", "wavefunction.build", _build_payload),
    ("mrspec.wavefunction", "radial_value", "wavefunction.radial_value", _points_payload),
    ("mrspec.oracle", "solve", "oracle.solve", _solve_payload),
    ("mrspec.oracle", "build_effective_potential", "oracle.potential_build", _points_payload),
    ("mrspec.potential", "mr_value", "potential.mr_value", None),
    ("mrspec.potential", "centrifugal_term", "potential.centrifugal_term", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, payload=None):
        sig = inspect.signature(fn) if payload else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [self.request, len(spans), stack[-1] if stack else -1, name, 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[RAISED] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if payload:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[PAYLOAD] = payload(bound.arguments, result)
            return result

        return traced

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mrspec" or mod_name.startswith("mrspec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every traced function that the loaded mrspec modules define."""
        targets = list(TARGETS)
        cli = sys.modules.get("mrspec.cli")
        if cli is not None:
            targets += [("mrspec.cli", attr, f"cli.{attr}", None)
                        for attr in sorted(vars(cli)) if attr.startswith("cmd_")]
            if hasattr(cli, "build_parser"):
                self._rebind(cli.build_parser, self._traced_build_parser(cli.build_parser))
        for mod_name, attr, name, payload in targets:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if callable(fn):
                self._rebind(fn, self.wrap(name, fn, payload))

    def _traced_build_parser(self, build_parser):
        traced_build = self.wrap("cli.build_parser", build_parser)

        def build():
            parser = traced_build()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        return build

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> dict[tuple[int, int], float]:
    """(request, span id) -> duration minus the durations of its direct children (seconds)."""
    own = {(s[REQUEST], s[ID]): s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] >= 0:
            own[(s[REQUEST], s[PARENT])] -= s[END] - s[START]
    return own


LAYER_METRICS = (
    ("cli.invocations", "count"), ("cli.parse_ms", "ms"), ("cli.cmd_self_ms", "ms"),
    ("cli.rows_written", "count"),
    ("spectrum.energy.calls", "count"), ("spectrum.energy.self_ms", "ms"),
    ("spectrum.enumerate_bound_states.calls", "count"),
    ("spectrum.enumerate_bound_states.self_ms", "ms"),
    ("wavefunction.normalization_constant.calls", "count"),
    ("wavefunction.normalization_constant.self_ms", "ms"),
    ("wavefunction.build.self_ms", "ms"),
    ("wavefunction.radial_value.points", "count"), ("wavefunction.radial_value.self_ms", "ms"),
    ("wavefunction.norm_raised", "count"), ("wavefunction.norm_wrong", "count"),
    ("oracle.solve.calls", "count"),
    ("oracle.potential_build.calls", "count"), ("oracle.potential_build.ms", "ms"),
    ("oracle.potential_build.points", "count"),
    ("oracle.eigensolve.ms", "ms"), ("oracle.eigensolve.rows", "count"),
    ("oracle.levels.requested", "count"), ("oracle.levels.returned", "count"),
    ("oracle.levels.converged", "count"), ("oracle.levels.useful_ratio", "ratio"),
    ("oracle.reduced_repeat_frac", "ratio"),
    ("potential.mr_value.calls", "count"), ("potential.centrifugal_term.calls", "count"),
)


def layer_metrics(spans, rows_written: int = 0, process_per_request: bool = False) -> dict[str, float]:
    """Per-layer counts and times (ms) of one traced batch.

    reduced_repeat_frac counts a solve as repeated when its key
    (A, alpha(alpha-1), l, scheme, n_max) already occurred in the same
    process: the whole batch for in-process workloads, the request when each
    request is a process of its own.
    """
    import checks  # numpy and scipy: kept out of the traced CLI launcher

    own = self_times(spans)
    m = defaultdict(float)
    m["cli.rows_written"] = rows_written
    seen: set[tuple] = set()
    useful = 0
    for s in spans:
        name, dur, self_ms = s[NAME], s[END] - s[START], own[(s[REQUEST], s[ID])] * 1e3
        p = s[PAYLOAD]
        if name == "cli.main":
            m["cli.invocations"] += 1
        elif name in ("cli.build_parser", "cli.parse_args"):
            m["cli.parse_ms"] += dur * 1e3
        elif name.startswith("cli.cmd_"):
            m["cli.cmd_self_ms"] += self_ms
        elif name in ("spectrum.energy", "spectrum.enumerate_bound_states",
                      "wavefunction.normalization_constant"):
            m[f"{name}.calls"] += 1
            m[f"{name}.self_ms"] += self_ms
            if name == "wavefunction.normalization_constant" and s[RAISED] == "NumericalInstabilityError":
                m["wavefunction.norm_raised"] += 1
        elif name == "wavefunction.build":
            m["wavefunction.build.self_ms"] += self_ms
            if p is not None:
                norm = checks.norm_integral(p["n"], p["eps"], p["lam"], p["b"], p["norm"])
                m["wavefunction.norm_wrong"] += abs(norm - 1.0) > checks.NORM_TOL
        elif name == "wavefunction.radial_value":
            m["wavefunction.radial_value.self_ms"] += self_ms
            if p is not None:
                m["wavefunction.radial_value.points"] += p["points"]
        elif name == "oracle.potential_build":
            m["oracle.potential_build.calls"] += 1
            m["oracle.potential_build.ms"] += dur * 1e3
            if p is not None:
                m["oracle.potential_build.points"] += p["points"]
        elif name == "oracle.solve":
            m["oracle.solve.calls"] += 1
            m["oracle.eigensolve.ms"] += self_ms
            if p is None:
                continue
            m["oracle.eigensolve.rows"] += 3 * p["grid"] + 1  # grids of M and 2M+1 points
            m["oracle.levels.requested"] += p["k"]
            m["oracle.levels.returned"] += len(p["eigenvalues"])
            m["oracle.levels.converged"] += sum(p["converged"])
            useful += checks.oracle_levels_verdict(
                p["A"], p["alpha"], p["b"], p["hbar"], p["mu"], p["l"], p["scheme"], p["k"],
                p["eigenvalues"], p["converged"])[0]
            key = (s[REQUEST] if process_per_request else 0,
                   p["A"], p["alpha"] * (p["alpha"] - 1.0), p["l"], p["scheme"], p["k"] - 1)
            m["oracle.reduced_repeat_frac"] += key in seen
            seen.add(key)
        elif name in ("potential.mr_value", "potential.centrifugal_term"):
            m[f"{name}.calls"] += 1
    solves = m["oracle.solve.calls"]
    m["oracle.reduced_repeat_frac"] = m["oracle.reduced_repeat_frac"] / solves if solves else 0.0
    requested = m["oracle.levels.requested"]
    m["oracle.levels.useful_ratio"] = useful / requested if requested else 0.0
    return {name: float(m[name]) for name, _ in LAYER_METRICS}

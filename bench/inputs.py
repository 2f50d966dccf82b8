"""Seeded, deterministic inputs for the three workloads.

Pure Python (only ``random`` and ``math``): the set-up time of the CLI
workload is input generation alone, so generating inputs must not import
numpy or mrspec. The same seed always yields the same sequence, however
many items a run consumes.

Continuous parameters are Latin-hypercube stratified inside fixed-size
blocks, and discrete ones cycle through every combination once per block,
so the share of each region does not depend on the luck of one seed and
runs with different seeds stay comparable.

Each workload has two streams. The timed stream covers the region where
every output of the program passes its check, so a run's failure count is 0
whatever the seed and the run length, and any failure is a regression. The
probe stream covers the known-defect regions the timed stream leaves out:
weak screening (1/b < 0.03) for the normalization sum, and l = 0 or
near-threshold channels (epsilon < ORACLE_MIN_EPS) for the oracle. A fixed
number of probe items is run and checked after the timed phase, and their
failures are reported apart, so the defects stay visible.
"""

from __future__ import annotations

import itertools
import math
import random

from reference import STATE_LETTERS, bound_levels, epsilon

CLOSED_FORM_BLOCK = 64
CLOSED_FORM_LOG_INV_B = (math.log(0.03), math.log(0.1))
PROBE_LOG_INV_B = (math.log(0.0025), math.log(0.03))  # where the normalization sum fails
ALPHA_RANGE = (0.0, 2.0)

ORACLE_INV_B = (0.025, 0.1)
ORACLE_MIN_EPS = 1.5  # shallowest requested level of a timed oracle channel
ORACLE_N_MAX = range(4)
ORACLE_SCHEMES = ("greene_aldrich", "exact")
ORACLE_COMBOS = tuple(itertools.product(range(1, 5), ORACLE_N_MAX, ORACLE_SCHEMES))
PROBE_COMBOS = tuple(itertools.product(range(5), ORACLE_N_MAX, ORACLE_SCHEMES))

# compare --strict (alpha, 1/b): every bound table state has epsilon >= ORACLE_MIN_EPS
# for 1/b <= COMPARE_INV_B[1]; the probe draws from PROBE_COMPARE_INV_B, where about half
# of the compares have a near-threshold row that fails
COMPARE_INV_B = (0.025, 0.032)
PROBE_COMPARE_INV_B = (0.045, 0.1)

# The published row sets (state, 1/b) of table1 and of table2/table3.
STATE_ORDER = ("2p", "3p", "3d", "4p", "4d", "4f",
               "5p", "5d", "5f", "5g", "6p", "6d", "6f", "6g")
_INV_B_T1 = {
    "2p": (0.025, 0.050, 0.075, 0.100), "3p": (0.025, 0.050, 0.075, 0.100),
    "3d": (0.025, 0.050, 0.075), "4p": (0.025, 0.050, 0.075),
    "4d": (0.025, 0.050, 0.075), "4f": (0.025, 0.050, 0.075),
}
_INV_B_T23 = dict(_INV_B_T1, **{"3d": (0.025, 0.050, 0.075, 0.100)})
TABLE1_ROWS = tuple((s, ib) for s in STATE_ORDER for ib in _INV_B_T1.get(s, (0.025,)))
TABLE23_ROWS = tuple((s, ib) for s in STATE_ORDER for ib in _INV_B_T23.get(s, (0.025,)))
TABLE_MOLECULES = {"table1": (), "table2": ("HCl", "CH"), "table3": ("LiH", "CO")}
MOLECULES = ("HCl", "CH", "LiH", "CO")

# One round of the CLI session. One invocation in twelve runs the oracle
# (alternately a --with-oracle table and a compare), and takes two to four
# times as long as the others. At ~50 invocations a run that is about four
# oracle invocations, so the latency tail (ten samples beyond it) falls
# inside the closed-form group rather than on the edge of the oracle group.
CLI_ROUND = ("spectrum", "table1", "fig1", "wavefunction", "table2", "spectrum",
             "oracle", "fig2", "table3", "wavefunction", "spectrum", "fig1")
COMPARE_BLOCK = 8


def _strata(rng: random.Random, k: int) -> list[float]:
    """k uniforms in [0, 1), one in each stratum of width 1/k, shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


class Stream:
    """An infinite seeded sequence, materialised on demand and indexable."""

    def __init__(self, items):
        self._it = iter(items)
        self._buf = []

    def __getitem__(self, i: int):
        while len(self._buf) <= i:
            self._buf.append(next(self._it))
        return self._buf[i]


def _rng(workload: str, seed: int, probe: bool) -> random.Random:
    return random.Random(f"{workload}{'-probe' if probe else ''}:{seed}")


def closed_form_potentials(seed: int, probe: bool = False):
    """(inv_b, alpha) with 1/b log-uniform in [0.03, 0.1] (probe: [0.0025, 0.03]),
    alpha in [0, 2]; A = 2b."""
    rng = _rng("closed_form", seed, probe)
    lo, hi = PROBE_LOG_INV_B if probe else CLOSED_FORM_LOG_INV_B
    block = PROBE_COUNT["closed_form"] if probe else CLOSED_FORM_BLOCK
    while True:
        for x, y in zip(_strata(rng, block), _strata(rng, block)):
            yield math.exp(lo + x * (hi - lo)), ALPHA_RANGE[0] + y * (ALPHA_RANGE[1] - ALPHA_RANGE[0])


def oracle_candidates(seed: int, probe: bool = False):
    """(inv_b, alpha, l, n_max, scheme) channels, bound or not, A = 2b.

    Every block holds each (l, n_max, scheme) combination once: l in 1..4,
    or 0..4 for the probe. Keys are continuous draws, so no two candidates
    share a reduced problem.
    """
    rng = _rng("oracle_sweep", seed, probe)
    all_combos = PROBE_COMBOS if probe else ORACLE_COMBOS
    k = len(all_combos)
    lo, hi = ORACLE_INV_B
    while True:
        combos = list(all_combos)
        rng.shuffle(combos)
        for (l, n_max, scheme), x, y in zip(combos, _strata(rng, k), _strata(rng, k)):
            yield lo + x * (hi - lo), ALPHA_RANGE[0] + y * (ALPHA_RANGE[1] - ALPHA_RANGE[0]), l, n_max, scheme


def in_oracle_domain(A: float, alpha: float, l: int, n_max: int) -> bool:
    """Whether a channel is one the oracle solves correctly today: l >= 1 and
    its shallowest requested level far enough from threshold."""
    return l >= 1 and epsilon(A, alpha, n_max, l) >= ORACLE_MIN_EPS


def oracle_channels(seed: int, probe: bool = False):
    """The candidates in the timed domain (probe: bound and outside it), each
    with the index of its candidate.

    Other candidates are skipped; the gap between candidate indices counts
    the skips.
    """
    for index, (inv_b, alpha, l, n_max, scheme) in enumerate(oracle_candidates(seed, probe)):
        A = 2.0 / inv_b
        if epsilon(A, alpha, n_max, l) > 0.0 and in_oracle_domain(A, alpha, l, n_max) != probe:
            yield {"candidate": index, "inv_b": inv_b, "alpha": alpha, "l": l,
                   "n_max": n_max, "scheme": scheme}


def stream(workload: str, seed: int, probe: bool = False) -> Stream:
    """The input sequence of a workload for this seed (or of its known-defect probe)."""
    make = {"closed_form": closed_form_potentials, "oracle_sweep": oracle_channels,
            "cli_session": cli_invocations}[workload]
    return Stream(make(seed, probe))


# Items generated during set-up: more than one run consumes, so the timed
# phase only reads already generated inputs.
PREGENERATE = {"closed_form": 16384, "oracle_sweep": 1024, "cli_session": 96}
# Probe items run and checked after the timed phase, each run.
PROBE_COUNT = {"closed_form": 32, "oracle_sweep": 12, "cli_session": 2}


def _num(x: float, digits: int = 4) -> str:
    return f"{x:.{digits}f}"


def _label(n: int, l: int) -> str:
    return f"{n + l + 1}{STATE_LETTERS[l]}"


def _shuffled_forever(rng: random.Random, items):
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def _stratified_points(rng: random.Random, k: int):
    while True:
        yield from zip(_strata(rng, k), _strata(rng, k))


def _compare_argv(u: float, v: float, scheme: str, inv_b_range: tuple[float, float]) -> list[str]:
    lo, hi = inv_b_range
    return ["compare", "--alpha", _num(ALPHA_RANGE[1] * u), "--inv-b", _num(lo + (hi - lo) * v),
            "--scheme", scheme, "--strict"]


def cli_invocations(seed: int, probe: bool = False):
    """Argument lists for ``python -m mrspec``, with their kind.

    The oracle invocations take every published (state, 1/b) row once
    before any repeats, alternate table2/table3 and both/greene_aldrich, and
    stratify the compare (alpha, 1/b), so each run sees a similar oracle mix.
    The probe is compare invocations alone, at 1/b beyond COMPARE_INV_B.
    """
    rng = _rng("cli_session", seed, probe)
    rows = _shuffled_forever(rng, TABLE23_ROWS)
    points = _stratified_points(rng, COMPARE_BLOCK)
    oracles = itertools.cycle(("oracle_table", "compare"))
    tables = itertools.cycle(("table2", "table3"))
    schemes = itertools.cycle(("both", "greene_aldrich"))
    while probe:
        yield {"kind": "compare", "argv": _compare_argv(*next(points), next(schemes), PROBE_COMPARE_INV_B)}
    while True:
        for kind in CLI_ROUND:
            if kind == "oracle":
                kind = next(oracles)
            if kind == "oracle_table":
                label, inv_b = next(rows)
                argv = ["table", next(tables), "--with-oracle", "--states", label, "--inv-b", repr(inv_b)]
            elif kind == "compare":
                argv = _compare_argv(*next(points), next(schemes), COMPARE_INV_B)
            else:
                argv = _closed_form_argv(rng, kind)
            yield {"kind": kind, "argv": argv}


def _alpha_inv_b(rng: random.Random) -> tuple[str, str]:
    return _num(rng.uniform(*ALPHA_RANGE)), _num(rng.uniform(0.025, 0.1))


def _closed_form_argv(rng: random.Random, kind: str) -> list[str]:
    if kind == "spectrum":
        alpha, inv_b = _alpha_inv_b(rng)
        argv = ["spectrum", "--alpha", alpha, "--inv-b", inv_b,
                "--state", ",".join(rng.sample(STATE_ORDER, 3))]
        if rng.random() < 0.5:
            argv += ["--molecule", rng.choice(MOLECULES)]
    elif kind in ("table1", "table2", "table3"):
        argv = ["table", kind, "--precision", str(rng.randint(6, 12))]
    elif kind == "fig1":
        alphas = ",".join(_num(rng.uniform(*ALPHA_RANGE)) for _ in range(2))
        inv_bs = ",".join(_num(rng.uniform(0.025, 0.1)) for _ in range(3))
        argv = ["figure-data", "fig1", "--alphas", alphas, "--inv-b", inv_bs]
    elif kind == "fig2":
        argv = ["figure-data", "fig2", "--delta", _num(rng.uniform(0.025, 0.1))]
    elif kind == "wavefunction":
        alpha, inv_b = _alpha_inv_b(rng)
        A = 2.0 / float(inv_b)
        levels = [(n, l) for n, l, _ in bound_levels(A, float(alpha), 3) if n <= 3]
        n, l = rng.choice(levels)
        argv = ["wavefunction", "--alpha", alpha, "--inv-b", inv_b, "--state", _label(n, l)]
    else:
        raise ValueError(f"unknown invocation kind {kind!r}")
    return argv

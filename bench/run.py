"""Benchmark of mrspec on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {closed_form,oracle_sweep,cli_session} \
        --seed N --seconds S --trace {0,1}

The program is driven from outside, through the public functions of its
modules (closed_form, oracle_sweep) or the ``mrspec`` CLI (cli_session),
in one process with a single client in a closed loop: the next operation
starts when the previous one ended. Every output is checked outside the
timed region. Human-readable lines come first; the last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Timings are reported at a reference machine speed. On a shared 2-vCPU
virtual machine, other tenants change how much CPU a process gets by up to
a factor of two within minutes. So each run times a fixed calibration loop
between operations; every time is divided, and every rate multiplied, by
the slowdown, the mean loop time over the loop's reference time. The loop
does the kind of work the workload's operations do, because contention
slows kinds of work unequally: a pure-Python float loop for closed_form, a
LAPACK stebz bisection for oracle_sweep, and for cli_session (and for every
set-up time) a fresh interpreter importing numpy and scipy.linalg. None of
them runs mrspec code. The raw values and the slowdown are printed on the lines before
the result.

The timed inputs lie where the program passes every check today, so
"failed" is 0 unless the program regresses. After the timed phase, each run
also runs and checks a fixed number of items from the workload's
known-defect probe (weak screening, l = 0 and near-threshold oracle
channels). Its failures are printed apart and reported as the per-layer
metric probe.failed; they are not in "attempted" or "failed". A malformed
probe output still makes the run incorrect.

--trace 0 measures the end-to-end metrics for S seconds. --trace 1 runs
S/2 seconds untraced, then the workload's fixed first batch of operations
with spans around mrspec's public functions, and reports per-layer counts
and times for that batch together with the tracing overhead. The spans are
written to .bench_build/mrspec-bench/ in the checkout.

Exits 2 without a result when the checkout has no src/mrspec.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "mrspec-bench"

SETUP_PROBES = 7     # fresh interpreters per run; setup_s is their median
IMPORT_PROBES = 3    # fresh interpreters under -X importtime per traced run
MIN_OPS = 11         # the latency tail needs ten samples beyond it
TAIL_BEYOND = 10
# With thousands of operations, the tenth-largest latency is set by the few
# operations that a millisecond stall of the shared machine happened to hit;
# one percent beyond keeps the tail on the heaviest inputs.
TAIL_SHARE = 0.01

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))
TRACE_METRICS = (("import.mrspec_ms", "ms"), ("import.scipy_linalg_ms", "ms"),
                 ("import.numpy_ms", "ms"), ("trace.ops_per_s", "1/s"),
                 ("trace.untraced_ops_per_s", "1/s"), ("trace.overhead_pct", "%"))
PROBE_METRICS = (("probe.failed", "count"),)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(inputs.PREGENERATE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([extra] if extra else [])))


def setup_probe(args) -> int:
    """Set-up as a fresh interpreter pays it; prints 'ready' when done."""
    if args.workload != "cli_session":
        import mrspec  # noqa: F401  (users of the in-process API pay this once)
    stream = inputs.stream(args.workload, args.seed)
    stream[inputs.PREGENERATE[args.workload] - 1]
    print("ready", flush=True)
    return 0


def python_loop() -> float:
    """Seconds taken by a fixed pure-Python float loop: how fast this process runs now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i)
    return time.perf_counter() - t0


_TRIDIAGONAL = []


def stebz_loop() -> float:
    """Seconds taken by a fixed LAPACK stebz bisection, the oracle's kernel."""
    from scipy.linalg import eigvalsh_tridiagonal
    if not _TRIDIAGONAL:
        import numpy as np
        m = 2000
        _TRIDIAGONAL[:] = [2.0 + 1e-3 * np.sin(np.arange(m)), np.full(m - 1, -1.0)]
    t0 = time.perf_counter()
    eigvalsh_tridiagonal(*_TRIDIAGONAL, select="i", select_range=(0, 1), tol=1e-13, lapack_driver="stebz")
    return time.perf_counter() - t0


def startup_loop() -> float:
    """Seconds taken by a fresh interpreter importing numpy and scipy.linalg: the
    cold start of a CLI invocation or of set-up, without mrspec."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], cwd=ROOT,
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - t0


# name: (loop, its time in seconds at the reference speed, seconds of
# operations between two loops). The python loop's reference is its time on
# an idle 2-vCPU x86-64 VM (Python 3.11); the others' are their medians on
# the same VM under its usual load (numpy 2.4.6, scipy 1.17.1).
CALIBRATIONS = {"python": (python_loop, 1.2e-3, 0.1), "stebz": (stebz_loop, 1.9e-3, 0.1),
                "startup": (startup_loop, 0.58, 2.5)}


def calibrate(kind: str) -> float:
    """One calibration loop's time over its reference time."""
    loop, reference, _ = CALIBRATIONS[kind]
    return loop() / reference


def slowdown(loops: list[float]) -> float:
    return statistics.fmean(loops)


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters (seconds, raw), and the slowdown of
    a startup calibration loop run right after each."""
    times, loops = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        times.append(t1 - t0)
        loops.append(calibrate("startup"))
    return times, loops


def import_times() -> dict[str, float]:
    """Cumulative import times (ms) under -X importtime, median of fresh interpreters,
    each divided by the startup slowdown measured after it."""
    runs = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mrspec"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        f = calibrate("startup")
        runs.append({mod: ms / f for mod, ms in cumulative.items()})
    return {f"import.{mod.replace('.', '_')}_ms": statistics.median(r.get(mod, 0.0) for r in runs)
            for mod in ("mrspec", "scipy.linalg", "numpy")}


@dataclass
class Phase:
    first: int
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    correct: bool = True
    rows_written: int = 0
    spans: list = field(default_factory=list)
    loops: list[float] = field(default_factory=list)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Operations per second at the reference machine speed."""
        return self.raw_ops_per_s * slowdown(self.loops)


def run_phase(wl, first: int, seconds: float | None = None, count: int | None = None,
              tracer=None) -> Phase:
    """Operations first, first+1, ...: for `seconds` of wall time, or exactly `count` of them."""
    phase = Phase(first)
    deadline = time.perf_counter() + (seconds or 0.0)
    every = CALIBRATIONS[wl.calibration][2]
    phase.loops.append(calibrate(wl.calibration))
    last_loop = time.perf_counter()
    i = first
    while True:
        spans_out = WORK / f"{wl.name}-{os.getpid()}-op{i}.json" if tracer is not None and not wl.in_process else None
        if tracer is not None and wl.in_process:
            tracer.request = i
        out = None
        t0 = time.perf_counter()
        try:
            out = wl.op(i, spans_out) if spans_out else wl.op(i)
            phase.latencies.append(time.perf_counter() - t0)
            passed, well_formed = wl.check(i, out)
        except Exception:  # the run goes on; an operation or output that breaks the harness fails
            if len(phase.latencies) == i - first:
                phase.latencies.append(time.perf_counter() - t0)
            passed = well_formed = False
            traceback.print_exc(file=sys.stderr)
        phase.failed += not (passed and well_formed)
        phase.correct &= well_formed
        if spans_out and spans_out.exists():
            phase.rows_written += out[1].count("\n") if out else 0
            phase.spans += wl.read_spans(spans_out, i)
        since = time.perf_counter() - last_loop
        if since >= every:
            # one loop per `every` seconds elapsed, so long operations get as many
            phase.loops += [calibrate(wl.calibration) for _ in range(min(10, int(since / every)))]
            last_loop = time.perf_counter()
        i += 1
        if count is not None:
            if i - first >= count:
                return phase
        elif time.perf_counter() >= deadline and len(phase.latencies) >= MIN_OPS:
            return phase


def tail_beyond(n: int) -> int:
    """Samples beyond the latency tail: TAIL_BEYOND, or TAIL_SHARE of n if more."""
    return max(TAIL_BEYOND, math.ceil(TAIL_SHARE * n))


def latency_summary(latencies: list[float]) -> tuple[float, float, float]:
    """(p50 ms, tail ms, tail percentile): the tail is the highest percentile
    that still has tail_beyond(n) samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    k = tail_beyond(n)
    return statistics.median(s) * 1e3, s[n - k - 1] * 1e3, 100.0 * (n - k) / n


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mrspec" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no mrspec sources at {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    setup = ([], []) if args.trace else measure_setup(args)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.inputs[inputs.PREGENERATE[args.workload] - 1]
    wl.prepare(ROOT, child_env())
    WORK.mkdir(parents=True, exist_ok=True)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    if args.trace:
        phases, metrics = traced_run(wl, args)
    else:
        phases = [run_phase(wl, 0, seconds=args.seconds)]
        metrics = end_to_end(wl, phases[0], setup)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"  attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.4f} "
          f"({failed}/{attempted})")
    count = max(p.first + len(p.latencies) for p in phases)
    print_inputs(wl, count)

    probe = workloads.WORKLOADS[args.workload](args.seed, probe=True)
    probe.prepare(ROOT, child_env())
    checked = run_phase(probe, 0, count=inputs.PROBE_COUNT[args.workload])
    print(f"  known-defect probe: failed {checked.failed} of {inputs.PROBE_COUNT[args.workload]} "
          "(after the timed phase; not in attempted or failed)")
    print_inputs(probe, inputs.PROBE_COUNT[args.workload], "probe ")
    if args.trace:
        metrics["probe.failed"] = {"value": float(checked.failed), "unit": "count"}
        print(f"  probe.failed {checked.failed:.4f} count")
    result = {"correct": all(p.correct for p in phases) and checked.correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def print_inputs(wl, count: int, prefix: str = "") -> None:
    """The input shares of the first `count` items (and the oracle skips)."""
    if hasattr(wl, "skipped"):
        print(f"  {prefix}skipped channels outside the domain {wl.skipped(count)} (not attempted)")
    for name, share in wl.shares(count).items():
        value = "n/a" if share["value"] is None else f"{share['value']:.4f}"
        print(f"  {prefix}share {name} {value} ({share['hits']}/{share['base']})")


def end_to_end(wl, phase: Phase, setup: tuple[list[float], list[float]]) -> dict:
    raw_p50, raw_tail, pct = latency_summary(phase.latencies)
    n = len(phase.latencies)
    f = slowdown(phase.loops)
    times, loops = setup
    values = {"setup_s": statistics.median(t / g for t, g in zip(times, loops)), "ops_per_s": phase.ops_per_s,
              "op_p50_ms": raw_p50 / f, "op_tail_ms": raw_tail / f, "peak_rss_mb": peak_rss_mb(wl.in_process)}
    print(f"  slowdown {f:.4f}  (mean of {len(phase.loops)} {wl.calibration} calibration loops over "
          f"{CALIBRATIONS[wl.calibration][1] * 1e3:g} ms)")
    print(f"  setup_s {values['setup_s']:.4f} s  (median of {len(times)} fresh interpreters, each over the "
          "startup slowdown measured after it; raw " + ", ".join(f"{t:.3f}" for t in times)
          + "; slowdowns " + ", ".join(f"{g:.3f}" for g in loops) + ")")
    print(f"  ops_per_s {values['ops_per_s']:.4f} 1/s  ({n} ops in {sum(phase.latencies):.3f} s of operations; "
          f"raw {phase.raw_ops_per_s:.4f})")
    print(f"  op_p50_ms {values['op_p50_ms']:.4f} ms  (n={n}; raw {raw_p50:.4f})")
    print(f"  op_tail_ms {values['op_tail_ms']:.4f} ms  at p{pct:.1f} (n={n}, {tail_beyond(n)} samples beyond; "
          f"raw {raw_tail:.4f})")
    print(f"  peak_rss_mb {values['peak_rss_mb']:.2f} MB  "
          + ("(this process)" if wl.in_process else "(largest child process)"))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(wl, args) -> tuple[list[Phase], dict]:
    import spans as spanlib

    # untraced ops come after the traced batch, so no input repeats between the two
    untraced = run_phase(wl, wl.trace_batch, seconds=args.seconds / 2)
    tracer = spanlib.Tracer()
    if wl.in_process:
        tracer.install()
    try:
        traced = run_phase(wl, 0, count=wl.trace_batch, tracer=tracer)
    finally:
        tracer.uninstall()
    recorded = traced.spans if not wl.in_process else tracer.spans
    units = dict(spanlib.LAYER_METRICS + TRACE_METRICS)
    with open(WORK / f"{wl.name}-seed{args.seed}-spans.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh)
    values = spanlib.layer_metrics(recorded, traced.rows_written, process_per_request=not wl.in_process)
    f = slowdown(traced.loops)
    values = {name: value / f if units[name] == "ms" else value for name, value in values.items()}
    values.update(import_times())
    values["trace.ops_per_s"] = traced.ops_per_s
    values["trace.untraced_ops_per_s"] = untraced.ops_per_s
    values["trace.overhead_pct"] = (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0
    print(f"  traced batch: first {wl.trace_batch} operations, {len(recorded)} spans, "
          f"slowdown {f:.4f} (times below are at the reference speed)")
    for name, value in values.items():
        print(f"  {name} {value:.4f} {units[name]}")
    return [untraced, traced], {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())

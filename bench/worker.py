"""One workload in one process: set up, measure, check, report one JSON line.

Run by ``bench/run.py``; not meant to be called by hand.  With ``--probe``
the process stops after set-up and reports only the import and set-up times,
so that the caller can take the median over several fresh processes.

Host-speed normalisation.  On the shared 2-core host this benchmark was built
on, the speed of a vCPU swings between two states up to 2x apart for seconds
to minutes at a time (other tenants on the same physical cores); a 25-second
median lands in whichever state dominated the run.  Every op is
therefore bracketed by a fixed pure-Python kernel (``calibration_s``), run
on the same pinned CPU right before and right after it, and each latency is
scaled by ``CAL_REF_S / (kernel before + kernel after)``: the figures are
what the op would take on that host in its uncontended state.  In 12-second
windows of forced-trials ops, raw medians ranged 122-163 ms while the scaled
ones stayed within +-2%.  Raw figures go to standard error; the per-layer
figures of a traced run are raw.

A cli-runs op is a child process that spends most of its time starting the
interpreter and loading extension modules, which the contended host slows by
other amounts than the pure-Python kernel.  Its ops are bracketed by a child
that only imports numpy (``spawn_s``) and scaled by ``SPAWN_REF_S``; the
kernel after one op is also the kernel before the next, since it costs a
third of an op.  Over 140 cli-runs ops the median deviation of a scaled
latency from its subcommand's median was 6.2% with the pure-Python kernel,
5.2% with a bare ``python -c pass`` and 2.9% with the numpy import.
Set-up is mostly ``import fracdamp.cli``, so it is scaled by the same child,
run at process start and after set-up: over twelve fresh forced-trials
processes the interquartile range of set-up time was 0.27 of the median with
the pure-Python kernel and 0.17 with the numpy import.
"""

from __future__ import annotations

import subprocess
import sys
import time

CAL_ITERATIONS = 20000
CAL_REF_S = 0.020  # two kernels, uncontended state of the 2-core Xeon host
SPAWN_REF_S = 0.300  # two numpy-importing children, fast state of the same host


def calibration_s() -> float:
    """Wall time of a fixed interpreter-bound kernel: calls, complex and float
    arithmetic, list indexing, like the pure-Python numerics of fracdamp."""
    t0 = time.perf_counter()
    acc = 0.0j
    xs = [0.5] * 8
    for i in range(CAL_ITERATIONS):
        z = complex(i % 13, 1.0)
        acc += z * 0.25 / (1.0 + abs(z))
        xs[i % 8] += acc.real * 1e-9
    return time.perf_counter() - t0


def spawn_s(code: str = "import numpy") -> float:
    """Wall time of a child ``python -c <code>``: start-up, the code, exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
    return time.perf_counter() - t0


_SPAWN_START = spawn_s()
_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

INTERPRETER_PROBES = 5


def build_workload(name: str, seed: int, out_dir: str):
    if name == "forced-trials":
        from forced import ForcedTrials

        return ForcedTrials(seed)
    if name == "spectral-scans":
        from spectral import SpectralScans

        return SpectralScans(seed)
    if name == "cli-runs":
        from clirun import CliRuns

        return CliRuns(seed, out_dir)
    raise SystemExit(f"unknown workload {name!r}")


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample; below eleven samples no percentile
    has ten beyond it and the median stands in.
    """
    n = len(values)
    if n < 11:
        return statistics.median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


class Run:
    """Latencies of one measured phase: raw and host-speed scaled, in seconds."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.failed = 0
        self.wrong = 0


def measure(wl, seconds: float, log) -> Run:
    """Closed loop, one caller: whole rounds until the raw op time reaches ``seconds``."""
    run = Run()
    kernel, ref_s = (spawn_s, SPAWN_REF_S) if wl.spawns_children else (calibration_s, CAL_REF_S)
    after = None
    busy = 0.0
    while busy < seconds:
        for inp in wl.rounds():
            before = after if wl.spawns_children and after is not None else kernel()
            t0 = time.perf_counter()
            try:
                out = wl.op(inp)
            except Exception:
                out = None
                log(f"op {len(run.raw) + 1} raised:\n{traceback.format_exc()}")
            dt = time.perf_counter() - t0
            after = kernel()
            run.raw.append(dt)
            run.scaled.append(dt * ref_s / (before + after))
            busy += dt
            if out is None:
                run.failed += 1
                continue
            errors = wl.check(inp, out)
            if errors:
                run.failed += 1
                run.wrong += 1
                log(f"op {len(run.raw)} wrong: " + "; ".join(errors[:3]))
    return run


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import fracdamp.cli  # noqa: F401  (the set-up every user of the package pays)

    import_ms = (time.perf_counter() - t_import) * 1e3
    wl = build_workload(args.workload, args.seed, args.out)
    setup_s = time.perf_counter() - _T_START
    scale = SPAWN_REF_S / (_SPAWN_START + spawn_s())
    if args.probe:
        print(json.dumps({"setup_s": setup_s * scale, "import_ms": import_ms}))
        return 0

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr)

    log(f"set-up {setup_s:.3f} s raw, {setup_s * scale:.3f} s scaled")
    if not args.trace:
        run = measure(wl, args.seconds, log)
        metrics = latency_metrics(run, log)
        metrics["setup_s"] = setup_s * scale
        metrics["peak_rss_mb"] = wl.peak_rss_kb() / 1024.0
        result = {"correct": run.wrong == 0, "attempted": len(run.raw), "failed": run.failed, "metrics": metrics}
    else:
        result = traced(wl, args.seconds, log)
        result["metrics"]["cli.import_ms"] = import_ms
    print(json.dumps(result))
    return 0


def latency_metrics(run: Run, log) -> dict:
    tail_s, q = tail(run.scaled)
    raw_tail, _ = tail(run.raw)
    log(f"{len(run.raw)} ops, tail = p{q:.1f}; raw p50 {statistics.median(run.raw) * 1e3:.1f} ms, "
        f"raw tail {raw_tail * 1e3:.1f} ms, raw ops/s {len(run.raw) / sum(run.raw):.3f}")
    return {
        "ops_per_s": len(run.scaled) / sum(run.scaled),
        "op_p50_ms": statistics.median(run.scaled) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }


def interpreter_s() -> float:
    """Median wall time of a bare ``python -c pass``: the floor under every CLI op."""
    return statistics.median(spawn_s("pass") for _ in range(INTERPRETER_PROBES))


def traced(wl, seconds, log) -> dict:
    """Half the run untraced, half traced: per-layer numbers plus their overhead.

    Coverage is the share of traced op time spent inside wrapped fracdamp
    functions (plus, for child processes, interpreter start-up and exit and
    the import).
    """
    from tracer import Tracer

    interp = interpreter_s()
    plain = measure(wl, seconds / 2.0, log)
    tracer = Tracer()
    wl.start_trace(tracer)
    try:
        traced_run = measure(wl, seconds / 2.0, log)
    finally:
        wl.stop_trace(tracer)
    n = len(traced_run.raw)
    outside = wl.outside_spans_s()
    covered = tracer.total_self_s() + sum(outside.values())
    metrics = layer_metrics(tracer, n)
    metrics["cli.interpreter_ms"] = interp * 1e3
    metrics["trace.overhead_pct"] = (
        statistics.median(traced_run.scaled) / statistics.median(plain.scaled) - 1.0
    ) * 100.0
    metrics["trace.coverage_pct"] = covered / sum(traced_run.raw) * 100.0
    log(layer_table(tracer, outside, sum(traced_run.raw)))
    return {
        "correct": plain.wrong + traced_run.wrong == 0,
        "attempted": len(plain.raw) + n,
        "failed": plain.failed + traced_run.failed,
        "metrics": metrics,
    }


# Self times are reported per module for modules that every workload enters,
# and per function for the functions that dominate the numeric stack; a layer
# that some workload never enters would read 0 ms on every run of it.
SELF_MS_FUNCTIONS = (
    "charpoly.roots",
    "forcing.poly_compose_affine",
    "expconv.exp_poly_moments",
    "expconv.convolve_pieces",
    "propagator.homogeneous_mode",
)
SELF_MS_MODULES = ("expconv", "propagator", "duhamel", "probe")
CALL_COUNTS = (
    "charpoly.roots",
    "forcing.poly_compose_affine",
    "expconv.exp_poly_moments",
    "expconv.convolve_pieces",
    "expconv.periodic_convolve",
    "propagator.homogeneous_mode",
    "propagator.gap_scan",
    "propagator.homogeneous_solve",
    "duhamel.duhamel_quadrature",
    "duhamel.forced_mode_at",
    "duhamel.constant_forcing_mode",
    "duhamel.line_bounded_mode",
    "spectrum.weighted_square_sum",
    "probe.energy_check",
    "probe.fit_growth",
    "probe.membership_diagnosis",
    "counterexamples.window_shift_force",
    "counterexamples.statement4_sequence",
    "config.load_config",
    "harness.write_csv",
    "harness.write_manifest",
)
COUNTERS = (
    "expconv.exp_poly_moments.series_calls",
    "expconv.convolve_pieces.pieces_visited",
    "expconv.convolve_pieces.pieces_hit",
    "counterexamples.window_shift_force.skips",
    "counterexamples.window_shift_force.retries",
    "harness.write_csv.bytes",
)


def layer_metrics(tracer, n_ops: int) -> dict:
    """Per-op counts and self times of the layers named in BENCHMARK.json."""
    out = {}
    for name in SELF_MS_FUNCTIONS:
        out[f"{name}.self_ms"] = tracer.self_s.get(name, 0.0) * 1e3 / n_ops
    for mod in SELF_MS_MODULES:
        total = sum(v for k, v in tracer.self_s.items() if k.split(".")[0] == mod)
        out[f"{mod}.self_ms"] = total * 1e3 / n_ops
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / n_ops
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0) / n_ops
    visited = tracer.counters.get("expconv.convolve_pieces.pieces_visited", 0)
    hit = tracer.counters.get("expconv.convolve_pieces.pieces_hit", 0)
    out["expconv.convolve_pieces.piece_hit_ratio"] = hit / visited if visited else 0.0
    return out


def layer_table(tracer, outside, op_s: float) -> str:
    """Self time and share of traced op time per layer, largest first."""
    rows = [(name, tracer.calls[name], s) for name, s in tracer.self_s.items() if s > 0.0]
    rows += [(label, 0, s) for label, s in outside.items()]
    lines = [f"{'layer':48s} {'calls':>10s} {'self_ms':>10s} {'share':>7s}"]
    for name, calls, s in sorted(rows, key=lambda r: -r[2]):
        lines.append(f"{name:48s} {calls:10d} {s * 1e3:10.1f} {s / op_s * 100:6.1f}%")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload per call, one JSON line as the result.

    python3 bench/run.py --workload forced-trials --seed 1 --seconds 25 --trace 0

Run from the root of a fracdamp checkout; the package is imported from
``src/`` there, never from an installed copy.  Workloads: forced-trials,
spectral-scans, cli-runs, or ``all`` to run the three in turn (one result
line each).  See bench/README.md for what each measures.

With ``--trace 0`` the last line holds the end-to-end metrics; set-up time is
the median over three fresh processes (two set-up probes plus the measuring
worker), because a single import sample varies by tens of percent.  With
``--trace 1`` it holds the per-layer metrics of a traced run instead.  The
metric names and units are those of ``BENCHMARK.json`` at the checkout root;
each is printed as ``{"value": ..., "unit": ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("forced-trials", "spectral-scans", "cli-runs")
SETUP_PROBES = 2
OUT_DIR = ".bench_out"
CHILD_TIMEOUT_S = 170.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # one caller on one core: idle BLAS worker threads spin and steal the
    # second core from the interpreter on a small host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd, env, deadline) -> str:
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:3])} exited with {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def declared_metrics(root: str, trace: int) -> list:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    return manifest["per_layer" if trace else "end_to_end"]


def with_units(metrics: dict, declared: list) -> dict:
    """The declared metrics, each as ``{"value", "unit"}``; a missing one is an error."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: worker reported no value for {', '.join(missing)}")
    return {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in declared}


def run_workload(name, args, root, env, deadline) -> dict:
    out = os.path.join(root, OUT_DIR, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", out]
    probes = [json.loads(run_child(base + ["--probe"], env, deadline)) for _ in range(SETUP_PROBES)]
    result = json.loads(run_child(base + ["--trace", str(args.trace)], env, deadline))
    metrics = result["metrics"]
    if args.trace:
        metrics["cli.import_ms"] = statistics.median([p["import_ms"] for p in probes] + [metrics["cli.import_ms"]])
    else:
        metrics["setup_s"] = statistics.median([p["setup_s"] for p in probes] + [metrics["setup_s"]])
    shutil.rmtree(out, ignore_errors=True)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracdamp", "__init__.py")):
        print("bench: no fracdamp sources under ./src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # op and calibration kernel must share one vCPU (see worker.py); children
    # inherit the affinity
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + CHILD_TIMEOUT_S * (3 if args.workload == "all" else 1)
    declared = declared_metrics(root, args.trace)
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args, root, env, deadline)
        result["metrics"] = with_units(result["metrics"], declared)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

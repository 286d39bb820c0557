"""cli-runs: one ``python -m fracdamp.cli`` child process per op.

The ops cycle through seven subcommands whose own work is small next to
interpreter start-up and ``import fracdamp.cli``, so their latencies form one
cluster: roots, simulate --homogeneous (sized so that writing modes.csv and
norms.csv dominates its numerics), a small simulate --forced, gap-scan,
diagram, counterexample --statement 4, and recipes --run of the sub-second
AC9 recipe.  The seed draws the parameters written into the configs; every
round runs the same seven invocations, so round r must reproduce round r-1
byte for byte.

With tracing on, each child is ``bench/launcher.py`` instead, which times
the import, installs the tracer and hands its layer numbers back in a file.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 60.0
RESIDUAL_TOL = 1e-12
DOUBLE_ROOT_RESIDUAL_TOL = 1e-8  # the program's double-root band is |D| <= 1e-9 max(1, lam)


def _values(xs) -> str:
    return "values: " + " ".join(repr(float(x)) for x in xs)


class CliRuns:
    spawns_children = True

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng([seed, 30])
        self.out_dir = out_dir
        self.cfg_dir = os.path.join(out_dir, "configs")
        os.makedirs(self.cfg_dir, exist_ok=True)
        self.tracer = None
        self.outside_s = {"child start-up and exit": 0.0, "import fracdamp.cli": 0.0}
        self._span = (0.0, 0.0)
        self.previous = {}
        self.ops = []
        self._add("roots", ["roots", "--sigma", repr(rng.uniform(0.1, 2.5)),
                            "--delta", repr(rng.uniform(0.5, 2.0)), "--modes", "24"])
        self._add("simulate-homogeneous", ["simulate", "--homogeneous"], f"""
[damping]
sigma = {rng.uniform(0.25, 2.0)!r}
[spectrum]
modes = 32
[initial]
u0 = {_values(rng.uniform(-1.0, 1.0, 32))}
u1 = {_values(rng.uniform(-1.0, 1.0, 32))}
[grids]
t_stop = 2.0
t_points = 200
alpha_grid = 0.0 0.5 1.0
""")
        self._add("simulate-forced", ["simulate", "--forced", "--seed", str(int(rng.integers(2**31)))], f"""
[damping]
sigma = {rng.uniform(0.25, 2.0)!r}
[spectrum]
modes = 4
[forcing]
kind = random
[grids]
t_stop = 2.0
t_points = 33
""")
        self._add("gap-scan", ["gap-scan"], f"""
[damping]
sigma = {rng.uniform(0.25, 2.0)!r}
[spectrum]
modes = 16
[grids]
t_start = 1e-06
t_stop = 10.0
t_points = 20
t_scale = log
gaps = {rng.uniform(-0.5, 0.5)!r} {rng.uniform(0.5, 1.5)!r}
""")
        self._add("diagram", ["diagram"], f"""
[damping]
sigmas = {rng.uniform(0.25, 1.0)!r} {rng.uniform(1.5, 2.5)!r}
[spectrum]
modes = 16
[forcing]
amplitude = {rng.uniform(0.5, 2.0)!r}
[grids]
t_start = 1.0
t_stop = 10000.0
t_points = 13
t_scale = log
alpha_grid = 0.5 1.5
""")
        self._add("counterexample", ["counterexample", "--statement", "4"], """
[damping]
sigma = 2.0
[spectrum]
modes = 160
[counterexample]
n_max = 3
""")
        self._add("recipe", ["recipes", "--run", "AC9-counterexample-certificates"])

    def _add(self, name, args, config=None):
        out = os.path.join(self.out_dir, name)
        argv = list(args)
        if config is not None:
            path = os.path.join(self.cfg_dir, f"{name}.cfg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(config.lstrip())
            argv += ["--config", path]
        argv += ["--out", out]
        # recipes write under <out>/<recipe name>
        art = os.path.join(out, args[2]) if args[0] == "recipes" else out
        self.ops.append((name, argv, out, art))

    def rounds(self):
        return self.ops

    def op(self, inp):
        name, argv, out, _ = inp
        if self.tracer is None:
            cmd = [sys.executable, "-m", "fracdamp.cli"] + argv
        else:
            stats = os.path.join(self.out_dir, "trace.json")
            cmd = [sys.executable, os.path.join(HERE, "launcher.py"), stats] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, text=True)
        self._span = (t0, time.perf_counter())
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.returncode

    # -- checks (outside the timed region) -----------------------------------

    def check(self, inp, code) -> list[str]:
        name, argv, out, art = inp
        if self.tracer is not None:
            with open(os.path.join(self.out_dir, "trace.json"), encoding="ascii") as fh:
                snap = json.load(fh)
            # interpreter start-up before the launcher's first line and exit
            # after its last, plus the import: the child's time outside spans
            t0, t1 = self._span
            self.outside_s["child start-up and exit"] += (snap.pop("t_start") - t0) + (t1 - snap.pop("t_end"))
            self.outside_s["import fracdamp.cli"] += snap.pop("import_s")
            self.tracer.merge(snap)
        errors = []
        files = _manifest_check(art, errors)
        if name == "roots":
            errors += _roots_check(os.path.join(art, "roots.csv"), argv)
        if name in self.previous and files != self.previous[name]:
            errors.append(f"{name}: artifacts differ from the previous invocation with the same config")
        self.previous[name] = files
        shutil.rmtree(out, ignore_errors=True)
        return errors

    # -- tracing and resources -------------------------------------------------

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def start_trace(self, tracer) -> None:
        self.tracer = tracer

    def stop_trace(self, tracer) -> None:
        self.tracer = None

    def outside_spans_s(self) -> dict:
        """Interpreter start-up and exit and ``import fracdamp.cli`` of the traced children."""
        return self.outside_s


def _manifest_check(art, errors) -> dict:
    """{file: sha256} of the artifacts, after matching every manifest line."""
    files = {}
    with open(os.path.join(art, "manifest.txt"), encoding="ascii") as fh:
        lines = fh.read().splitlines()
    listed = set()
    for line in lines:
        digest, fname = line.split("  ", 1)
        with open(os.path.join(art, fname), "rb") as fh:
            got = hashlib.sha256(fh.read()).hexdigest()
        if got != digest:
            errors.append(f"{art}: manifest hash of {fname} does not match its bytes")
        listed.add(fname)
        files[fname] = got
    present = set(os.listdir(art)) - {"manifest.txt"}
    if present != listed:
        errors.append(f"{art}: manifest lists {sorted(listed)}, directory holds {sorted(present)}")
    with open(os.path.join(art, "manifest.txt"), "rb") as fh:
        files["manifest.txt"] = hashlib.sha256(fh.read()).hexdigest()
    return files


def _roots_check(path, argv) -> list[str]:
    """Backward-error residual of every row against x^2 + 2 delta lam^sigma x + lam."""
    import mpmath

    sigma = mpmath.mpf(argv[argv.index("--sigma") + 1])
    delta = mpmath.mpf(argv[argv.index("--delta") + 1])
    errors = []
    with open(path, encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "lambda,regime,x1,x2":
            return [f"roots.csv header {header!r}"]
        with mpmath.workdps(50):
            for line in fh:
                lam_s, regime, x1_s, x2_s = line.strip().split(",")
                lam, x1, x2 = (mpmath.mpf(v) for v in (lam_s, x1_s, x2_s))
                c = 2 * delta * lam**sigma
                if regime == "oscillatory_pair":
                    roots = [mpmath.mpc(-x1, x2)]
                else:
                    roots = [-x1, -x2]
                tol = DOUBLE_ROOT_RESIDUAL_TOL if regime == "double_root" else RESIDUAL_TOL
                for z in roots:
                    res = abs(z * z + c * z + lam) / (abs(z) ** 2 + c * abs(z) + lam)
                    if not res <= tol:
                        errors.append(f"roots.csv lambda={lam_s} {regime}: residual {float(res):.2e}")
    return errors

"""forced-trials: AC10-style forced trials through the Duhamel stepper.

One op runs one trial at each of sigma = 0.25 (oscillatory modes), 1 and 2
(real pairs): ``forced_solve`` on a seeded piecewise-linear forcing, then
``probe.energy_check`` on the trajectory.  The six lower modes carry AC10's
9-node interpolant and the two upper ones a 65-node one, so the
O(grid x pieces) cost of walking every piece at every step is part of every
op.  The dense forcings sit on the upper modes, whose amplitudes 2^(-k/2) are
small: ``energy_check`` refuses a trajectory whose Simpson error estimate
exceeds 1% of the source integral, and a 65-node forcing has a kink at every
grid point of the 65-point grid.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from fracdamp import duhamel, probe
from fracdamp.charpoly import DampingParams
from fracdamp.forcing import ForcingSpec, PiecewiseSamples
from fracdamp.spectrum import geometric_spectrum
from workload import InProcessWorkload

SIGMAS = (0.25, 1.0, 2.0)
DELTA = 1.0
K = 8
GRID_POINTS = 65
T_END = 2.0
NODES = (9, 9, 9, 9, 9, 9, 65, 65)  # per mode
POOL = 4  # distinct op inputs per run; every round runs each once

# The energy inequality source - energy - dissipation >= 0 is a theorem; the
# benchmark's dissipation integral is a trapezoid sum on the output grid, so
# the margin may dip below zero by that quadrature error only.
ENERGY_TOL = 1e-3
MODE_TOL = 1e-8


class ForcedTrials(InProcessWorkload):
    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 10])
        self.m = geometric_spectrum(K, 2.0)
        self.grid = np.linspace(0.0, T_END, GRID_POINTS)
        self.inputs = [tuple(self._forcing(rng) for _ in SIGMAS) for _ in range(POOL)]
        self.sample_rng = np.random.default_rng([seed, 11])

    def _forcing(self, rng):
        modes = []
        for k in range(K):
            n = NODES[k]
            times = tuple(np.linspace(0.0, T_END, n))
            vals = tuple(2.0 ** (-0.5 * k) * rng.uniform(-1.0, 1.0, n))
            modes.append(PiecewiseSamples(times, vals))
        return ForcingSpec(tuple(modes))

    def rounds(self):
        return self.inputs

    def op(self, inp):
        out = []
        for sig, spec in zip(SIGMAS, inp):
            p = DampingParams(sig, DELTA)
            traj = duhamel.forced_solve(self.m, p, spec, self.grid)
            ledger = probe.energy_check(traj, spec, p, self.m)
            out.append((traj, ledger))
        return out

    # -- checks (outside the timed region) -----------------------------------

    def check(self, inp, out) -> list[str]:
        errors = []
        lam = np.asarray(self.m.eigenvalues, dtype=float)
        for sig, spec, (traj, _) in zip(SIGMAS, inp, out):
            margin, scale = _energy_margin(traj.times, traj.u, traj.uprime, spec, lam, sig, DELTA)
            if margin < -ENERGY_TOL * scale:
                errors.append(f"sigma={sig}: energy margin {margin:.3e} below -{ENERGY_TOL}*{scale:.3e}")
        j = int(self.sample_rng.integers(len(SIGMAS)))
        k = int(self.sample_rng.integers(K))
        traj = out[j][0]
        mode = inp[j].mode(k)
        u_ref, up_ref = exact_linear_forced(lam[k], SIGMAS[j], DELTA, mode.times, mode.values, self.grid)
        for name, got, ref in (("u", traj.u[:, k], u_ref), ("u'", traj.uprime[:, k], up_ref)):
            err = float(np.max(np.abs(got - ref)))
            size = float(np.max(np.abs(ref)))
            if not err <= MODE_TOL * size:
                errors.append(f"sigma={SIGMAS[j]} mode {k}: max |{name} - exact| {err:.3e} > {MODE_TOL}*{size:.3e}")
        return errors


def _energy_margin(t, u, up, spec, lam, sig, delta):
    """min over the grid of source - energy - dissipation, and the final source."""
    energy = (lam**sig * up**2 + lam ** (sig + 1.0) * u**2).sum(axis=1)
    dens = (lam ** (2.0 * sig) * up**2).sum(axis=1)
    diss = 3.0 * delta * np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(t))])
    source = np.zeros_like(t)
    for mode in spec.modes:
        source += _cumulative_square_integral(np.asarray(mode.times), np.asarray(mode.values), t)
    source /= delta
    return float(np.min(source - energy - diss)), float(source[-1])


def _cumulative_square_integral(nodes, vals, t):
    """int_0^t f^2 for the linear interpolant f of (nodes, vals), exact.

    On a segment starting at node n with value a and slope s,
    int_n^{n+x} f^2 = a^2 x + a s x^2 + s^2 x^3 / 3.
    """
    slopes = np.diff(vals) / np.diff(nodes)

    def partial(j, x):
        a, s = vals[j], slopes[j]
        return a * a * x + a * s * x * x + s * s * x**3 / 3.0

    full = partial(np.arange(slopes.size), np.diff(nodes))
    at_nodes = np.concatenate([[0.0], np.cumsum(full)])
    j = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, slopes.size - 1)
    return at_nodes[j] + partial(j, np.minimum(t, nodes[-1]) - nodes[j])


def exact_linear_forced(lam, sigma, delta, nodes, vals, grid):
    """(u, u') of v'' + 2 delta lam^sigma v' + lam v = f, v(0) = v'(0) = 0.

    f is the linear interpolant of (nodes, vals).  The state (v, v', f, f')
    solves a linear system with constant matrix between nodes, so each grid
    step is one matrix exponential; f' is reset to the next slope at every
    node.  The grid must contain every node.
    """
    c = 2.0 * delta * lam**sigma
    B = np.array([[0.0, 1.0, 0.0, 0.0], [-lam, -c, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    nodes = np.asarray(nodes, dtype=float)
    vals = np.asarray(vals, dtype=float)
    slopes = np.diff(vals) / np.diff(nodes)
    u = np.empty(grid.size)
    up = np.empty(grid.size)
    y = np.array([0.0, 0.0, vals[0], slopes[0]])
    u[0], up[0] = y[0], y[1]
    cache = {}
    for i in range(1, grid.size):
        a, b = grid[i - 1], grid[i]
        seg = min(int(np.searchsorted(nodes, a, side="right")) - 1, slopes.size - 1)
        y[2] = vals[seg] + slopes[seg] * (a - nodes[seg])
        y[3] = slopes[seg]
        h = round(b - a, 15)
        if h not in cache:
            cache[h] = scipy.linalg.expm(h * B)
        y = cache[h] @ y
        u[i], up[i] = y[0], y[1]
    return u, up

"""Forced per-mode responses with null initial data.

The Duhamel solution of v'' + 2*delta*lam^sigma*v' + lam*v = f with
v(0) = v'(0) = 0 is the convolution of f with the fundamental solution g, and
v' is the convolution with g'.  Piecewise polynomial-times-sinusoid forcings
are integrated in closed form (see _expconv); structured special cases carry
their own formulas:

* constant forcing   v(t) = (1/lam)*(x1*(1-e^{-x2 t}) - x2*(1-e^{-x1 t}))/(x1-x2)
                     in the distinct-real case (evaluated with expm1, never by
                     subtracting exponentials from 1), with the matching double
                     and oscillatory forms; v' = g(t) in every regime.
* resonant forcing   f(t) = cos(b*(T-t) - pi/4) against an oscillatory mode,
                     evaluated through the antiderivatives of
                     e^{-a x} sin^2(b x), cos^2(b x), sin(b x)cos(b x).
* periodic forcing   the unique bounded-on-R solution via the geometric-series
                     closure of the half-line convolution tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._expconv import (
    convolve_callable,
    convolve_pieces,
    kernel_components,
    periodic_convolve,
    window_increments,
)
from .charpoly import CharRoots, DampingParams, Regime, roots
from .errors import RegimeMismatchError, ValidationError
from .forcing import ForcingSpec
from .propagator import ModeIC, homogeneous_mode

_EXPM1_SERIES_CUT = 1e-3
_UNIT_POSITION = ModeIC(1.0, 0.0)
_UNIT_VELOCITY = ModeIC(0.0, 1.0)


@dataclass(frozen=True)
class ModeTrajectory:
    """(u, u') samples of one mode on a time grid, exact or quadrature-based."""

    times: np.ndarray
    u: np.ndarray
    uprime: np.ndarray
    error_estimate: float = 0.0


def constant_forcing_mode(p: DampingParams, lam: float, t: float, level: float = 1.0) -> tuple[float, float]:
    """(u(t), u'(t)) for constant forcing `level` from null data; exact."""
    if t < 0.0:
        raise ValidationError("t must be >= 0")
    r = roots(p, lam)
    if r.regime is Regime.REAL_PAIR:
        x1, x2, gap = r.x1, r.x2, r.x1 - r.x2
        e1m = -math.expm1(-x1 * t)  # 1 - exp(-x1 t), cancellation-free
        e2m = -math.expm1(-x2 * t)
        u = (x1 * e2m - x2 * e1m) / (lam * gap)
        up = (math.exp(-x2 * t) - math.exp(-x1 * t)) / gap
        return level * u, level * up
    if r.regime is Regime.DOUBLE_ROOT:
        rr = r.x1
        x = rr * t
        if x < _EXPM1_SERIES_CUT:
            # 1 - (1+x)e^{-x} = x^2/2 - x^3/3 + x^4/8 - ...
            core = x * x * (0.5 - x / 3.0 + x * x / 8.0 - x**3 / 30.0)
        else:
            core = -math.expm1(-x) - x * math.exp(-x)
        return level * core / lam, level * t * math.exp(-rr * t)
    a, b = r.x1, r.x2
    e = math.exp(-a * t)
    u = (1.0 - e * (math.cos(b * t) + a / b * math.sin(b * t))) / lam
    up = e * math.sin(b * t) / b
    return level * u, level * up


def exp_trig_integrals(c: float, omega: float, W: float) -> tuple[float, float, float]:
    """(S, C, M) = int_0^W e^{-c x} (sin^2, cos^2, sin*cos)(omega x) dx, closed form."""
    if c <= 0.0:
        raise ValidationError("decay rate must be positive")
    base = -math.expm1(-c * W) / c  # int e^{-cx} dx
    den = c * c + 4.0 * omega * omega
    ew = math.exp(-c * W)
    cos2 = (c - ew * (c * math.cos(2.0 * omega * W) - 2.0 * omega * math.sin(2.0 * omega * W))) / den
    sin2 = (2.0 * omega - ew * (c * math.sin(2.0 * omega * W) + 2.0 * omega * math.cos(2.0 * omega * W))) / den
    S = 0.5 * (base - cos2)
    C = 0.5 * (base + cos2)
    M = 0.5 * sin2
    return S, C, M


def resonant_mode_response(p: DampingParams, lam: float, T: float) -> tuple[float, float]:
    """(u(T), u'(T)) for the mode-tuned forcing cos(b*(T-t) - pi/4).

    Valid in the oscillatory regime, where the forcing frequency matches the
    mode frequency b; the closed form uses the trigonometric antiderivatives
    above, with no quadrature.  For sigma = 0 the rapidly oscillating factors
    average out as lam grows, and both lam^(1/2)*u(T) and u'(T) approach
    (sqrt(2)/4)*(1/delta)*(1 - e^{-delta T}).
    """
    if T < 0.0:
        raise ValidationError("T must be >= 0")
    r = roots(p, lam)
    if r.regime is not Regime.OSCILLATORY_PAIR:
        raise RegimeMismatchError(Regime.OSCILLATORY_PAIR, r.regime, "resonant response")
    a, b = r.x1, r.x2
    S, C, M = exp_trig_integrals(a, b, T)
    half_sqrt2 = 0.5 * math.sqrt(2.0)
    u = half_sqrt2 / b * (S + M)
    up = -a * u + half_sqrt2 * (C + M)
    return u, up


def forced_mode_at(r: CharRoots, mode_forcing, t: float, scale: float = 1.0) -> tuple[float, float]:
    """(u(t), u'(t)) with null data for one mode's piecewise forcing; exact."""
    pieces = mode_forcing.pieces()
    if pieces is None:
        raise ValidationError("callable forcings need duhamel_quadrature")
    g, gp = kernel_components(r)
    u = convolve_pieces(g, pieces, t)
    up = convolve_pieces(gp, pieces, t)
    return scale * u, scale * up


def duhamel_quadrature(
    r: CharRoots,
    mode_forcing,
    t_grid,
    tol: float = 1e-10,
) -> ModeTrajectory:
    """Null-data forced trajectory of one mode on a time grid.

    The one-mode case of the batched stepper behind forced_solve: the cost
    is O(grid + pieces).  Piecewise-analytic forcings integrate exactly
    (polynomial-times-exponential closed forms); callable forcings go
    through node quadrature with per-step refinement against ``tol``.
    """
    u, up, err = _step_modes([r], [mode_forcing], t_grid, tol)
    return ModeTrajectory(np.asarray(t_grid, dtype=float), u[:, 0], up[:, 0], error_estimate=float(err[0]))


def forced_solve(
    m,
    p: DampingParams,
    spec: ForcingSpec,
    t_grid,
    tol: float = 1e-10,
):
    """Null-data forced trajectories of every mode of a ForcingSpec on a grid."""
    from .propagator import Trajectory

    if spec.K != m.K:
        raise ValidationError(f"forcing has {spec.K} modes but spectrum has {m.K}")
    rs = [roots(p, float(lam)) for lam in m.eigenvalues]
    u, up, _ = _step_modes(rs, spec.modes, t_grid, tol)
    return Trajectory(np.asarray(t_grid, dtype=float), spec.scale * u, spec.scale * up)


def _step_modes(rs, mode_forcings, t_grid, tol: float):
    """(u, u', per-mode error estimate) with null data, all modes at once.

    Advances step by step: the state at t_{i-1} propagates homogeneously
    across [t_{i-1}, t_i] and picks up the local Duhamel increment of that
    window, so earlier forcing history is never re-integrated.  The
    increments of every step come first (one array pass for piecewise
    forcings, node quadrature mode by mode for callables); then one loop over
    the grid advances all modes with the exact 2x2 propagator of each
    distinct step length.  Shapes are (grid, K).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValidationError("t_grid must be a nonempty 1-D array")
    if t_grid[0] < 0.0 or np.any(np.diff(t_grid) <= 0.0):
        raise ValidationError("t_grid must be nonnegative and strictly increasing")
    K = len(rs)
    # window 0 reaches the first grid point from t = 0
    edges = np.concatenate(([0.0], t_grid))
    kernels = [kernel_components(r) for r in rs]
    pieces = [f.pieces() for f in mode_forcings]
    # state[i, k] = (u, u') of mode k at t_i, first holding the increments
    state = np.zeros((t_grid.size, K, 2))
    exact = [k for k in range(K) if pieces[k] is not None]
    if exact:
        state[:, exact, 0], state[:, exact, 1] = window_increments(
            [kernels[k] for k in exact], [pieces[k] for k in exact], edges
        )
    err = np.zeros(K)
    for k, f in enumerate(mode_forcings):
        if pieces[k] is not None:
            continue
        (g, gp), brk = kernels[k], f.breakpoints()
        for i in range(t_grid.size):
            a, b = float(edges[i]), float(edges[i + 1])
            state[i, k, 0], e0 = convolve_callable(g, f, brk, b, t0=a, tol=tol)
            state[i, k, 1], e1 = convolve_callable(gp, f, brk, b, t0=a, tol=tol)
            err[k] += e0 + e1

    lengths, which = np.unique(np.diff(t_grid), return_inverse=True)
    prop = np.empty((lengths.size, K, 2, 2))
    for j, h in enumerate(lengths):
        for k, r in enumerate(rs):
            prop[j, k, :, 0] = homogeneous_mode(r, _UNIT_POSITION, float(h))
            prop[j, k, :, 1] = homogeneous_mode(r, _UNIT_VELOCITY, float(h))
    for i in range(1, t_grid.size):
        state[i] += (prop[which[i - 1]] @ state[i - 1, :, :, None])[..., 0]
    return state[..., 0], state[..., 1], err


def line_bounded_mode(r: CharRoots, mode_forcing, period: float, t: float) -> tuple[float, float]:
    """The unique bounded-on-R solution of one periodically forced mode.

    The half-line convolution tail closes into a geometric series, so the
    value is exact and manifestly period-periodic in t.  Only periodic
    forcings are supported here; for merely bounded forcings truncate the
    history window instead (the tail decays like exp(-slow_rate * W)).
    """
    if not period > 0.0:
        raise ValidationError("period must be positive")
    pieces = mode_forcing.pieces()
    if pieces is None:
        raise ValidationError("line_bounded_mode needs a piecewise-analytic periodic forcing")
    for pc in pieces:
        if pc.stop > period + 1e-12 or pc.start < -1e-12:
            raise ValidationError("periodic forcing pieces must describe one period [0, T0)")
    g, gp = kernel_components(r)
    u = periodic_convolve(g, pieces, period, t)
    up = periodic_convolve(gp, pieces, period, t)
    return u, up


def line_bounded_windowed(
    r: CharRoots,
    mode_forcing,
    t: float,
    tol: float = 1e-12,
) -> tuple[float, float]:
    """Windowed approximation of the bounded solution for non-periodic forcing.

    Only the periodic case has a finite closed form; for a merely bounded
    forcing on the line the history integral is truncated at t - W with W
    chosen so exp(-slow_rate * W) <= tol, which bounds the dropped tail by
    tol * sup|f| / slow_rate.  The forcing's pieces must cover [t - W, t].
    """
    pieces = mode_forcing.pieces()
    if pieces is None:
        raise ValidationError("windowed evaluation needs piecewise-analytic forcing")
    rate = r.slow_rate
    W = math.log(1.0 / tol) / rate
    g, gp = kernel_components(r)
    u = convolve_pieces(g, pieces, t, t0=t - W)
    up = convolve_pieces(gp, pieces, t, t0=t - W)
    return u, up


@dataclass(frozen=True)
class AttractionReport:
    fitted_rate: float
    expected_rate: float
    times: np.ndarray
    log_gap: np.ndarray

    @property
    def relative_error(self) -> float:
        return abs(self.fitted_rate - self.expected_rate) / self.expected_rate


def asymptotic_attraction_check(
    r: CharRoots,
    mode_forcing,
    period: float,
    ic: ModeIC,
    horizon: float | None = None,
    n_samples: int = 24,
) -> AttractionReport:
    """Fit the decay rate of |u_ic - u_line| and compare with the slow root.

    The difference of any solution from the bounded one is homogeneous, so it
    decays like exp(-slow_rate * t) for generic data.  The fit window starts
    after the fast component has decayed by e^-9 and spans 0.6/slow_rate, so
    the gap stays far above roundoff.  For oscillatory modes the fit uses the
    exact modulation envelope sqrt(u^2 + ((u' + a u)/b)^2) = C e^{-a t}
    instead of |u|, which crosses zero twice per period.
    """
    rate = r.slow_rate
    oscillatory = r.regime is Regime.OSCILLATORY_PAIR
    double = r.regime is Regime.DOUBLE_ROOT
    t_start = max(0.02 / rate, 0.0 if oscillatory else 9.0 / r.x1)
    if horizon is None:
        horizon = t_start + 0.6 / rate
    u0, up0 = line_bounded_mode(r, mode_forcing, period, 0.0)
    diff_ic = ModeIC(ic.u0 - u0, ic.u1 - up0)
    ts = np.linspace(t_start, horizon, n_samples)
    gaps = np.empty(ts.size)
    for i, t in enumerate(ts):
        du, dup = homogeneous_mode(r, diff_ic, float(t))
        if oscillatory:
            a, b = r.x1, r.x2
            gaps[i] = math.hypot(du, (dup + a * du) / b)
        elif double:
            # the gap decays like (c + d t) e^{-r t}; divide the dominant
            # linear factor out so the log fit sees the pure exponential
            gaps[i] = abs(du) / t
        else:
            gaps[i] = abs(du)
    if np.any(gaps <= 0.0):
        return AttractionReport(math.inf, rate, ts, np.full(ts.size, -math.inf))
    logg = np.log(gaps)
    A = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(A, logg, rcond=None)
    return AttractionReport(-float(coef[0]), rate, ts, logg)


# ---------------------------------------------------------------------------
# Generic exponential-kernel machinery (prefactor y, decay eta, oscillation psi)


@dataclass(frozen=True)
class KernelParams:
    """Kernel y * e^{-eta tau} * psi(tau) with a bounded oscillation psi."""

    y: float
    eta: float
    psi_kind: str = "one"  # "one" | "sin" | "cos"
    psi_freq: float = 0.0

    def __post_init__(self):
        if not self.eta > 0.0:
            raise ValidationError("eta must be positive")
        if self.psi_kind not in ("one", "sin", "cos"):
            raise ValidationError(f"unknown psi_kind {self.psi_kind!r}")
        if self.psi_kind != "one" and self.psi_freq == 0.0:
            raise ValidationError("oscillating psi needs a nonzero frequency")

    def components(self):
        if self.psi_kind == "one":
            return ((complex(self.y), complex(-self.eta), 0),)
        z = complex(-self.eta, self.psi_freq)
        if self.psi_kind == "sin":
            w = complex(0.0, -0.5) * self.y
        else:
            w = complex(0.5, 0.0) * self.y
        return ((w, z, 0), (w.conjugate(), z.conjugate(), 0))


def kernel_convolve(kp: KernelParams, mode_forcing, t: float) -> float:
    """z(t) = y * int_0^t e^{-eta (t-s)} psi(t-s) f(s) ds, exact for pieces."""
    pieces = mode_forcing.pieces()
    if pieces is None:
        val, _ = convolve_callable(kp.components(), mode_forcing, mode_forcing.breakpoints(), t)
        return val
    return convolve_pieces(kp.components(), pieces, t)


def kernel_peak_constant(b: float, c: float) -> float:
    """max over x >= 0 of e^{-x} max(x^b, x^c).

    e^{-x} x^q peaks at x = q with value (q/e)^q (value 1 at q = 0), so the
    max over the pair is attained at one of the two peaks.
    """
    if b < 0.0 or c < 0.0:
        raise ValidationError("exponents must be >= 0")

    def peak(q: float) -> float:
        return 1.0 if q == 0.0 else math.exp(q * (math.log(q) - 1.0))

    return max(peak(b), peak(c))


def min_kernel_integral(b: float, c: float, t: float) -> float:
    """int_0^t min(s^-b, s^-c) ds; requires min(b, c) < 1 for convergence."""
    lo, hi = min(b, c), max(b, c)
    if lo >= 1.0:
        raise ValidationError("min(b, c) must be < 1 for an integrable kernel")
    # below s = 1 the smaller exponent wins, above it the larger one does
    head = min(t, 1.0) ** (1.0 - lo) / (1.0 - lo)
    if t <= 1.0:
        return head
    if hi == 1.0:
        return head + math.log(t)
    return head + (t ** (1.0 - hi) - 1.0) / (1.0 - hi)

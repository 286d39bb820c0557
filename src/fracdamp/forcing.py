"""Structured forcing terms and their per-mode piecewise-analytic form.

Every built-in forcing lowers, mode by mode, to a list of pieces

    f(t) = p(t - start) * cos(omega*(t - start) + phase)   on [start, stop)

with p a low-degree polynomial (constant levels, mollifier ramps, linear
sample interpolants).  Products of such pieces with the exponential mode
kernels integrate in closed form, which is what keeps the Duhamel layer exact
and fast.  Polynomials and carrier phases live in piece-local time so that
pieces far from the origin lose no precision when shifted or repeated
periodically.

Arbitrary callables are supported too (with declared breakpoints and sup
norm), but those go through the node-based quadrature path instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def _poly_eval(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_compose_affine(coeffs, a: float, b: float) -> tuple[float, ...]:
    """Coefficients of p(a + b*x) given those of p (ascending order)."""
    out = [0.0]
    for c in reversed(coeffs):
        # out := out * (a + b x) + c
        new = [0.0] * (len(out) + 1)
        for i, o in enumerate(out):
            new[i] += o * a
            new[i + 1] += o * b
        new[0] += c
        out = new[: len(coeffs)]
    return tuple(out)


def poly_compose_affine_rows(coeffs, a, b) -> np.ndarray:
    """Row-wise poly_compose_affine: row r holds the coefficients of p_r(a_r + b_r*x).

    ``coeffs`` has shape (R, n), ascending and zero-padded to a common length;
    ``a`` and ``b`` broadcast against the R rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    a = np.asarray(a, dtype=float).reshape(-1, 1)
    b = np.asarray(b, dtype=float).reshape(-1, 1)
    out = np.zeros_like(coeffs)
    for i in range(coeffs.shape[1] - 1, -1, -1):
        # out := out * (a + b x) + c, truncated to n coefficients
        new = out * a
        new[:, 1:] += out[:, :-1] * b
        new[:, 0] += coeffs[:, i]
        out = new
    return out


@dataclass(frozen=True)
class Piece:
    """One analytic piece: p(t-start)*cos(omega*(t-start)+phase) on [start, stop)."""

    start: float
    stop: float
    coeffs: tuple[float, ...]
    omega: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not self.stop > self.start:
            raise ValidationError(f"piece interval [{self.start}, {self.stop}) is empty")

    def shifted(self, dt: float) -> "Piece":
        return Piece(self.start + dt, self.stop + dt, self.coeffs, self.omega, self.phase)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        local = t - self.start
        val = _poly_eval(self.coeffs, local)
        if self.omega != 0.0 or self.phase != 0.0:
            val = val * np.cos(self.omega * local + self.phase)
        inside = (t >= self.start) & (t < self.stop)
        return np.where(inside, val, 0.0)


def eval_pieces(pieces, t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for pc in pieces:
        out = out + pc(t)
    return out


# ---------------------------------------------------------------------------
# Per-mode forcing variants


@dataclass(frozen=True)
class ZeroForcing:
    def pieces(self):
        return ()

    def sup(self):
        return 0.0

    def breakpoints(self):
        return ()

    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class ConstantForcing:
    """f(t) = level for all t >= 0."""

    level: float

    def pieces(self):
        return (Piece(0.0, math.inf, (self.level,)),)

    def sup(self):
        return abs(self.level)

    def breakpoints(self):
        return ()

    def __call__(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.level)


@dataclass(frozen=True)
class WindowedSinusoid:
    """amplitude * cos(omega*(t-start)+phase) on [start, stop), optional ramps.

    ``ramp > 0`` multiplies the carrier by piecewise-linear edge ramps of that
    width (0 at the window edge, 1 inside), making the forcing continuous.
    With omega == 0 and phase == 0 this doubles as a windowed constant, which
    is how the mode-switch schedules are mollified.
    """

    amplitude: float
    omega: float
    phase: float
    start: float
    stop: float
    ramp: float = 0.0

    def __post_init__(self):
        if not self.stop > self.start:
            raise ValidationError("window is empty")
        if self.ramp < 0.0 or 2.0 * self.ramp > (self.stop - self.start) + 1e-300:
            raise ValidationError("ramp must be >= 0 and fit twice into the window")

    def pieces(self):
        a, w = self.amplitude, self.ramp
        if a == 0.0:
            return ()
        if w == 0.0:
            return (Piece(self.start, self.stop, (a,), self.omega, self.phase),)
        out = []
        # rising ramp: (t-start)/w
        out.append(Piece(self.start, self.start + w, (0.0, a / w), self.omega, self.phase))
        mid_lo, mid_hi = self.start + w, self.stop - w
        if mid_hi > mid_lo:
            # carrier phase re-anchored at the piece start
            ph = self.omega * w + self.phase
            out.append(Piece(mid_lo, mid_hi, (a,), self.omega, math.remainder(ph, 2.0 * math.pi)))
        off = self.stop - w
        ph = self.omega * (off - self.start) + self.phase
        out.append(
            Piece(off, self.stop, (a, -a / w), self.omega, math.remainder(ph, 2.0 * math.pi))
        )
        return tuple(out)

    def sup(self):
        return abs(self.amplitude)

    def breakpoints(self):
        if self.ramp == 0.0:
            return (self.start, self.stop)
        return (self.start, self.start + self.ramp, self.stop - self.ramp, self.stop)

    def __call__(self, t):
        return eval_pieces(self.pieces(), t)


@dataclass(frozen=True)
class PiecewiseSamples:
    """Linear interpolant of declared samples; zero outside the sample range.

    The sup norm is taken as max |value| over the declared samples, not
    inferred from anything finer.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) != len(values) or len(times) < 2:
            raise ValidationError("need at least two samples with matching lengths")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("sample times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def pieces(self):
        out = []
        for t0, t1, v0, v1 in zip(self.times, self.times[1:], self.values, self.values[1:]):
            slope = (v1 - v0) / (t1 - t0)
            out.append(Piece(t0, t1, (v0, slope)))
        return tuple(out)

    def sup(self):
        return max(abs(v) for v in self.values)

    def breakpoints(self):
        return self.times

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.times[0]) & (t < self.times[-1])
        return np.where(inside, np.interp(t, self.times, self.values), 0.0)


@dataclass(frozen=True)
class CallableForcing:
    """Arbitrary smooth-by-pieces forcing; integrated by node quadrature."""

    fn: object
    breaks: tuple[float, ...] = ()
    sup_bound: float = 1.0

    def pieces(self):
        return None

    def sup(self):
        return self.sup_bound

    def breakpoints(self):
        return self.breaks

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.asarray(self.fn(t), dtype=float)


# ---------------------------------------------------------------------------
# Whole-space forcing


@dataclass(frozen=True)
class ForcingSpec:
    """Per-mode forcing variants plus a global scale.

    ``declared_sup`` is the declared bound on the H-norm |f(t)| (before
    scaling); by default the l2 combination of per-mode sups, which is exact
    for simultaneously active orthogonal modes and an upper bound otherwise.
    ``period`` marks the whole spec as periodic (pieces describe one period).
    """

    modes: tuple
    scale: float = 1.0
    declared_sup: float | None = None
    period: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if self.period is not None and not self.period > 0.0:
            raise ValidationError("period must be positive")

    @property
    def K(self) -> int:
        return len(self.modes)

    def mode(self, k: int):
        return self.modes[k]

    def sup_norm(self) -> float:
        if self.declared_sup is not None:
            return self.scale * self.declared_sup
        return self.scale * math.sqrt(sum(v.sup() ** 2 for v in self.modes))

    def norm_at(self, t) -> np.ndarray:
        """H-norm |f(t)| sampled at times t."""
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for v in self.modes:
            vals = np.asarray(v(t), dtype=float)
            acc += vals * vals
        return self.scale * np.sqrt(acc)

    @classmethod
    def zero(cls, K: int) -> "ForcingSpec":
        return cls(tuple(ZeroForcing() for _ in range(K)))

    @classmethod
    def constant(cls, levels, scale: float = 1.0) -> "ForcingSpec":
        return cls(tuple(ConstantForcing(float(c)) for c in levels), scale=scale)


@dataclass(frozen=True)
class SwitchInterval:
    start: float
    stop: float
    mode: int
    amplitude: float


def mode_switch_forcing(
    schedule: list[SwitchInterval], K: int, ramp: float = 0.0, scale: float = 1.0
) -> ForcingSpec:
    """One mode active per interval, mollified by linear edge ramps.

    Windows on distinct modes may touch; at any time at most the scheduled
    amplitude is active per mode, so the declared H-norm bound is the max
    amplitude over the schedule (supports are disjoint in time).
    """
    per_mode: list[list[WindowedSinusoid]] = [[] for _ in range(K)]
    for iv in schedule:
        if not 0 <= iv.mode < K:
            raise ValidationError(f"schedule interval names mode {iv.mode} outside 0..{K - 1}")
        width = iv.stop - iv.start
        r = min(ramp, width / 2.0) if ramp > 0.0 else 0.0
        per_mode[iv.mode].append(
            WindowedSinusoid(iv.amplitude, 0.0, 0.0, iv.start, iv.stop, ramp=r)
        )
    modes = tuple(CompositeMode(tuple(ws)) if ws else ZeroForcing() for ws in per_mode)
    declared = max((abs(iv.amplitude) for iv in schedule), default=0.0)
    return ForcingSpec(modes, scale=scale, declared_sup=declared)


@dataclass(frozen=True)
class CompositeMode:
    """Union of non-overlapping windowed parts on a single mode."""

    parts: tuple

    def pieces(self):
        out = []
        for p in self.parts:
            out.extend(p.pieces())
        return tuple(sorted(out, key=lambda pc: pc.start))

    def sup(self):
        return max((p.sup() for p in self.parts), default=0.0)

    def breakpoints(self):
        bs: list[float] = []
        for p in self.parts:
            bs.extend(p.breakpoints())
        return tuple(sorted(bs))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for p in self.parts:
            out = out + p(t)
        return out

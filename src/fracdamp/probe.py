"""Regularity and boundedness diagnostics on the truncated spectrum.

Membership u(t) in D(A^alpha) has no literal meaning on a finite spectrum, so
it is operationalised as the behaviour of the weighted partial sums
S_K = sum_{k<K} lam_k^(2 alpha) u_k^2 across geometrically spaced truncation
levels: geometric decay of the increments means the full series converges
(Converged), non-decreasing late increments mean it diverges (Diverging),
anything else is reported Inconclusive rather than silently classified.

Long-time behaviour of norms is classified by regression: power law on
(log t, log n), logarithmic on (log(1+t), n), bounded by a max/median test,
again with an explicit Inconclusive escape.  All thresholds are declared
constants carried by ProbeConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import cumulative_simpson, simpson

from .charpoly import DampingParams
from .errors import PreconditionError, ValidationError
from .spectrum import SpectrumModel, weighted_square_sum


@dataclass(frozen=True)
class ProbeConfig:
    """Declared classification thresholds (see module docstring)."""

    converged_ratio: float = 0.9     # sustained increment decay ratio
    diverge_slack: float = 0.98      # d_{i+1} >= slack * d_i counts as non-decreasing
    sustain_fraction: float = 0.5    # window for the convergence ratio test
    diverge_fraction: float = 0.25   # last-quarter window for the divergence test
    fit_r2_min: float = 0.99
    fit_min_exponent: float = 0.05
    bounded_max_over_median: float = 1.2
    fit_burn_in_decades: float = 1.0  # early-time transient dropped before fitting

    def __post_init__(self):
        for name in ("converged_ratio", "sustain_fraction", "diverge_fraction", "fit_r2_min"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must lie in (0, 1), got {v}")
        if not 0.0 < self.diverge_slack <= 1.0:
            raise ValidationError(f"diverge_slack must lie in (0, 1], got {self.diverge_slack}")


class Verdict(str, Enum):
    CONVERGED = "Converged"
    DIVERGING = "Diverging"
    BOUNDED = "Bounded"
    POWER_LAW = "PowerLaw"
    LOGARITHMIC = "Logarithmic"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class MembershipVerdict:
    verdict: Verdict
    rate: float | None = None  # log-increment slope per level when diverging
    detail: str = ""


def membership_diagnosis(partial_sums, cfg: ProbeConfig = ProbeConfig()) -> MembershipVerdict:
    """Classify weighted partial sums over geometric truncation levels."""
    s = np.asarray(partial_sums, dtype=float)
    if s.ndim != 1 or s.size < 8:
        raise ValidationError("need at least 8 truncation levels, geometrically spaced")
    if np.any(s < 0.0) or np.any(np.diff(s) < -1e-12 * np.max(np.abs(s), initial=1.0)):
        raise ValidationError("partial sums of squares must be nonnegative and nondecreasing")
    inc = np.diff(s)
    if np.all(s == 0.0):
        return MembershipVerdict(Verdict.CONVERGED, detail="identically zero")
    if np.max(inc) <= 0.0:
        return MembershipVerdict(Verdict.CONVERGED, detail="partial sums already constant")
    n = inc.size
    tail = inc[int(math.floor(n * (1.0 - cfg.sustain_fraction))):]
    # convergence: sustained geometric decay of increments
    if np.all(tail[1:] <= cfg.converged_ratio * tail[:-1]):
        return MembershipVerdict(Verdict.CONVERGED, detail="geometric increment decay")
    quarter = inc[int(math.floor(n * (1.0 - cfg.diverge_fraction))):]
    if quarter.size >= 2 and np.all(quarter[1:] >= cfg.diverge_slack * quarter[:-1]) and quarter[-1] > 0:
        pos = inc[inc > 0.0]
        rate = None
        if pos.size >= 2:
            x = np.arange(pos.size, dtype=float)
            rate = float(np.polyfit(x, np.log(pos), 1)[0])
        return MembershipVerdict(Verdict.DIVERGING, rate=rate, detail="non-decreasing late increments")
    return MembershipVerdict(Verdict.INCONCLUSIVE, detail="no sustained pattern")


def truncation_levels(K: int, n_levels: int = 9, smallest: int = 4) -> list[int]:
    """Geometrically spaced truncation levels ending at K (>= 8 of them)."""
    if K < smallest + n_levels:
        raise ValidationError(f"spectrum too small for {n_levels} levels")
    ratio = (K / smallest) ** (1.0 / (n_levels - 1))
    levels = sorted({min(K, max(smallest, round(smallest * ratio**j))) for j in range(n_levels)})
    while len(levels) < n_levels:
        cand = [j for j in range(smallest, K + 1) if j not in levels]
        levels = sorted(levels + [cand[len(cand) // 2]])
    return levels


def weighted_partial_sums(lams, coeffs, alpha: float, levels) -> np.ndarray:
    """S_L = sum_{k<L} lam_k^(2 alpha) c_k^2 at each truncation level."""
    lams = np.asarray(lams, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    return np.array([weighted_square_sum(lams[:L], coeffs[:L], alpha) for L in levels])


@dataclass(frozen=True)
class GrowthFit:
    verdict: Verdict
    exponent: float | None = None
    r2_power: float | None = None
    r2_log: float | None = None


def _lstsq_r2(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float((y - y.mean()) @ (y - y.mean()))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), r2


def fit_growth(times, norms, cfg: ProbeConfig = ProbeConfig()) -> GrowthFit:
    """PowerLaw(p) / Logarithmic / Bounded classification of a norm history."""
    t = np.asarray(times, dtype=float)
    n = np.asarray(norms, dtype=float)
    if t.size != n.size or t.size < 4:
        raise ValidationError("need matching time/norm arrays with >= 4 points")
    if np.any(n <= 0.0):
        raise ValidationError("norms must be positive for growth fitting")
    if t.max() / t.min() < 0.999e3:
        raise ValidationError("times must span at least 3 decades")
    slope, r2p = _lstsq_r2(np.log(t), np.log(n))
    if r2p >= cfg.fit_r2_min and slope >= cfg.fit_min_exponent:
        return GrowthFit(Verdict.POWER_LAW, exponent=slope, r2_power=r2p)
    x_log = np.log1p(t)
    logslope, r2l = _lstsq_r2(x_log, n)
    grows = logslope * (x_log.max() - x_log.min()) > 0.1 * float(np.median(n))
    if r2l >= cfg.fit_r2_min and grows:
        return GrowthFit(Verdict.LOGARITHMIC, r2_power=r2p, r2_log=r2l)
    flat = float(np.max(n) / np.median(n)) <= cfg.bounded_max_over_median
    # a decaying history is bounded even when it spans more than the
    # max/median band, e.g. norms ~ t^-eps just inside the admissible region
    decaying = slope <= 0.0 and n[-1] <= 1.05 * n[0]
    if flat or decaying:
        return GrowthFit(Verdict.BOUNDED, r2_power=r2p, r2_log=r2l)
    return GrowthFit(Verdict.INCONCLUSIVE, r2_power=r2p, r2_log=r2l)


@dataclass(frozen=True)
class ProbeReport:
    """Norm matrix over (time, alpha) with per-alpha verdicts."""

    alpha_grid: np.ndarray
    times: np.ndarray
    norms: np.ndarray  # shape (times, alphas)
    divergence_flags: tuple
    fitted_growth: tuple

    def __post_init__(self):
        if self.norms.shape != (self.times.size, self.alpha_grid.size):
            raise ValidationError("norm matrix shape does not match the grids")


def probe_report(
    times,
    alpha_grid,
    norms,
    partial_sums_by_alpha,
    cfg: ProbeConfig = ProbeConfig(),
) -> ProbeReport:
    """Assemble the full diagnostic report for one trajectory.

    ``norms[i, j]`` is |A^alpha_j u(t_i)|; ``partial_sums_by_alpha[j]`` holds
    the weighted partial sums over truncation levels at a representative
    probe time, feeding the per-alpha membership flag.
    """
    times = np.asarray(times, dtype=float)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if norms.shape != (times.size, alpha_grid.size) or len(partial_sums_by_alpha) != alpha_grid.size:
        raise ValidationError("norm matrix shape does not match the grids")
    flags = tuple(membership_diagnosis(s, cfg) for s in partial_sums_by_alpha)
    fits = []
    for j in range(alpha_grid.size):
        col = norms[:, j]
        if np.all(col > 0.0) and times.max() / times.min() >= 0.999e3:
            fits.append(fit_growth(times, col, cfg))
        else:
            fits.append(GrowthFit(Verdict.INCONCLUSIVE))
    return ProbeReport(alpha_grid, times, norms, flags, tuple(fits))


# ---------------------------------------------------------------------------
# Energy inequality


@dataclass(frozen=True)
class EnergyLedger:
    times: np.ndarray
    energy: np.ndarray                 # |A^(sigma/2) u'|^2 + |A^((sigma+1)/2) u|^2
    dissipation_integral: np.ndarray   # 3 delta int |A^sigma u'|^2
    source_integral: np.ndarray        # (1/delta) int |f|^2
    quadrature_error: float

    @property
    def margins(self) -> np.ndarray:
        return self.source_integral - self.energy - self.dissipation_integral

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins))


def energy_check(
    trajectory,
    spec,
    p: DampingParams,
    m: SpectrumModel,
) -> EnergyLedger:
    """Margin of the dissipation inequality along a null-data trajectory.

    source - energy - dissipation must stay nonnegative (it is a theorem);
    a negative margin beyond quadrature error indicates an implementation
    bug.  Time integrals use composite Simpson with a Richardson error
    estimate, which must stay below 1% of the source integral.
    """
    t = trajectory.times
    if t.size < 5:
        raise ValidationError("trajectory grid too coarse for Simpson quadrature")
    lam = m.eigenvalues
    sig = p.sigma
    energy = (lam**sig * trajectory.uprime**2 + lam ** (sig + 1.0) * trajectory.u**2).sum(axis=1)
    diss_density = (lam ** (2.0 * sig) * trajectory.uprime**2).sum(axis=1)
    f_density = spec.norm_at(t) ** 2
    diss = 3.0 * p.delta * _cumsimp(diss_density, t)
    source = (1.0 / p.delta) * _cumsimp(f_density, t)
    # Richardson-style estimate: Simpson on the full vs halved grid
    est = 0.0
    for density, scale in ((diss_density, 3.0 * p.delta), (f_density, 1.0 / p.delta)):
        full = simpson(density, x=t)
        half = simpson(density[::2], x=t[::2])
        est += scale * abs(full - half) / 15.0
    src_total = float(source[-1])
    if src_total > 0.0 and est > 0.01 * src_total:
        raise ValidationError(
            f"quadrature error estimate {est:.3e} exceeds 1% of the source integral {src_total:.3e}"
        )
    return EnergyLedger(t, energy, diss, source, quadrature_error=est)


def _cumsimp(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = cumulative_simpson(y, x=t, initial=0.0)
    return np.maximum.accumulate(np.maximum(out, 0.0))


# ---------------------------------------------------------------------------
# L2-in-time regularity under truncation refinement


@dataclass(frozen=True)
class L2StabilityReport:
    Ks: tuple
    uprime_integrals: tuple
    u_integrals: tuple | None
    alpha_uprime: float
    alpha_u: float | None

    def stable_within(self, rel: float = 0.01) -> bool:
        def ok(vals):
            return all(
                abs(b - a) <= rel * max(abs(b), 1e-300) for a, b in zip(vals, vals[1:])
            )

        if not ok(self.uprime_integrals):
            return False
        return self.u_integrals is None or ok(self.u_integrals)


def l2_regularity_check(
    runs,
    p: DampingParams,
    include_u: bool = True,
    u_alpha_override: float | None = None,
) -> L2StabilityReport:
    """Ratio test of int ||u'||^2_{D(A^sigma)} and int ||u||^2 across truncations.

    ``runs`` is a list of (SpectrumModel, Trajectory) pairs with doubling K;
    the u-component exponent is min(sigma + 1/2, 1), defined only for
    sigma <= 1.  For sigma > 1 requesting the u check raises, matching the
    theorem's case split; pass ``u_alpha_override`` to probe an explicit
    exponent empirically instead.
    """
    if len(runs) < 2:
        raise ValidationError("need at least two truncation levels")
    sig = p.sigma
    alpha_u = None
    if include_u:
        if u_alpha_override is not None:
            alpha_u = float(u_alpha_override)
        elif sig > 1.0:
            raise PreconditionError(
                "the u-component L2 statement only covers sigma in [0, 1]; "
                "pass u_alpha_override to probe an exponent empirically"
            )
        else:
            alpha_u = min(sig + 0.5, 1.0)
    up_ints = []
    u_ints = []
    for m, traj in runs:
        lam = m.eigenvalues
        t = traj.times
        up_density = (lam ** (2.0 * sig) * traj.uprime**2).sum(axis=1)
        up_ints.append(float(simpson(up_density, x=t)))
        if alpha_u is not None:
            u_density = (lam ** (2.0 * alpha_u) * traj.u**2).sum(axis=1)
            u_ints.append(float(simpson(u_density, x=t)))
    return L2StabilityReport(
        Ks=tuple(m.K for m, _ in runs),
        uprime_integrals=tuple(up_ints),
        u_integrals=tuple(u_ints) if alpha_u is not None else None,
        alpha_uprime=sig,
        alpha_u=alpha_u,
    )


# ---------------------------------------------------------------------------
# Boundedness scan over an alpha grid


@dataclass(frozen=True)
class BoundednessRow:
    alpha: float
    component: str  # "u" | "uprime"
    fit: GrowthFit


def boundedness_scan(
    norms_fn,
    alpha_grid,
    horizon,
    components=("u", "uprime"),
    cfg: ProbeConfig = ProbeConfig(),
) -> list[BoundednessRow]:
    """Classify sup-over-time behaviour of |A^alpha u| and |A^alpha u'|.

    ``norms_fn(t_array, alpha, component)`` returns the norm history; the
    horizon must span >= 3 decades after the declared burn-in is dropped.
    """
    t = np.asarray(horizon, dtype=float)
    if t.max() / t.min() < 0.999e3:
        raise ValidationError("horizon must span at least 3 decades")
    keep = t >= t.min() * 10**cfg.fit_burn_in_decades
    t_fit = t[keep] if t[keep].size >= 4 and t[keep].max() / t[keep].min() >= 0.999e3 else t
    rows = []
    for comp in components:
        for alpha in np.asarray(alpha_grid, dtype=float):
            norms = np.asarray(norms_fn(t_fit, float(alpha), comp), dtype=float)
            if np.max(norms) == 0.0:
                rows.append(BoundednessRow(float(alpha), comp, GrowthFit(Verdict.BOUNDED)))
                continue
            if np.any(norms <= 0.0):
                # exponentially decayed tails underflow to exact zero; floor
                # them so the fit sees the (clearly bounded) decay
                floor = float(np.min(norms[norms > 0.0])) * 1e-3
                norms = np.maximum(norms, floor)
            rows.append(BoundednessRow(float(alpha), comp, fit_growth(t_fit, norms, cfg)))
    return rows

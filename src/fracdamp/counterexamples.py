"""Constructive forcing families that exhibit sharpness of the regularity
and boundedness classifications.

All constructions follow the same two-step pattern: first a single-time loss
of regularity driven by one family of modes (resonant tuning, constant
forcing, or short backward-shifted pulses sized by a blow-up triple), then a
disjoint assembly across orthogonal mode parts so that the loss happens at
every target time while the total forcing stays uniformly small.

A blow-up triple (sigma, sigma0, sigma1) records times tau_lam -> 0 and unit
forcings f_lam with lam^sigma0 |u(tau_lam)| -> c0 > 0 and
lam^sigma1 |u'(tau_lam)| -> c1 > 0; the constants per regime are frozen here
and double-checked numerically by the test suite.

Finite truncation changes only the bookkeeping: divergence claims become
eventual-increase certificates on weighted partial sums across geometric
truncation levels (see probe.membership_diagnosis).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .charpoly import DampingParams, Regime, classify, roots
from .duhamel import exp_trig_integrals, forced_mode_at
from .errors import CapacityError, ConstructionError, PreconditionError, ValidationError
from .forcing import ForcingSpec, WindowedSinusoid, ZeroForcing
from .spectrum import SpectrumModel

log = logging.getLogger(__name__)

E_INV = math.exp(-1.0)
#: the schedule certificate constant (1/e)(1 - 1/e)
SCHEDULE_BOUND = E_INV * (1.0 - E_INV)


# ---------------------------------------------------------------------------
# Weight sequences


@dataclass(frozen=True)
class DivergentWeights:
    """Amplitudes with sum a_k^2 = eta^2 whose lam^(2 eps)-weighted squares
    eventually increase against a geometric spectrum."""

    indices: tuple
    amplitudes: tuple
    budget: float

    def sum_sq(self) -> float:
        return float(np.sum(np.asarray(self.amplitudes) ** 2))

    def eventual_increase_start(self, lams, eps: float) -> int | None:
        """First index from which lam^(2 eps) a^2 is nondecreasing, or None."""
        a = np.asarray(self.amplitudes)
        lams = np.asarray(lams, dtype=float)[: a.size]
        terms = lams ** (2.0 * eps) * a * a
        good = terms[1:] >= terms[:-1]
        for start in range(a.size - 1):
            if np.all(good[start:]):
                return start
        return None


def divergent_weights(eta: float, K: int) -> DivergentWeights:
    """a_k = (eta/c) / (k+1) with c normalising sum a_k^2 to eta^2.

    Against a geometric spectrum lam_k = scale * base^k the weighted terms
    lam_k^(2 eps) a_k^2 grow like base^(2 eps k)/(k+1)^2, hence eventually
    increase for every eps > 0 while sum a_k^2 stays finite.
    """
    if not eta > 0.0 or K < 1:
        raise ValidationError("need eta > 0 and K >= 1")
    raw = 1.0 / (np.arange(K, dtype=float) + 1.0)
    c = math.sqrt(float(np.sum(raw * raw)))
    return DivergentWeights(tuple(range(K)), tuple(eta * raw / c), eta)


# ---------------------------------------------------------------------------
# Statement-style constructions: constant forcing (strong damping)


def statement3_constant_force(p: DampingParams, weights: DivergentWeights, m: SpectrumModel) -> ForcingSpec:
    """Constant-in-time forcing sum a_k e_k for sigma >= 1.

    The solution picks up lam^sigma u_lam(t) -> finite nonzero limits for
    every t > 0, so the a_k-weighted series at exponent sigma + eps inherits
    the divergence of the weight sequence while staying summable at sigma.
    """
    if p.sigma < 1.0:
        raise PreconditionError("constant-forcing regularity loss needs sigma >= 1")
    if len(weights.amplitudes) != m.K:
        raise ValidationError("weights and spectrum sizes differ")
    return ForcingSpec.constant(weights.amplitudes, scale=1.0)


# ---------------------------------------------------------------------------
# Resonant construction (sigma = 0)


def statement1_resonant_force(
    T: float,
    eta: float,
    part_indices,
    m: SpectrumModel,
    p: DampingParams,
) -> tuple[ForcingSpec, np.ndarray]:
    """Mode-tuned windowed cosines a_j cos(b_k (T - t) - pi/4) on [0, T].

    Returns the spec plus the array of part indices actually used (modes that
    are not oscillatory at the bottom of the spectrum are skipped).  Since
    distinct modes are orthogonal and each carries sup a_j, the forcing obeys
    |f(t)| <= sqrt(sum a_j^2) = eta for all t.
    """
    if p.sigma != 0.0:
        raise PreconditionError("the resonant construction is the sigma = 0 case")
    if not T > 0.0:
        raise ValidationError("T must be positive")
    part_indices = np.asarray(part_indices, dtype=int)
    usable = []
    for k in part_indices:
        if classify(p, float(m.eigenvalues[k])) is Regime.OSCILLATORY_PAIR:
            usable.append(int(k))
        else:
            log.debug("statement1: skipping non-oscillatory mode k=%d", k)
    if len(usable) < 2:
        raise CapacityError("not enough oscillatory modes in the part")
    w = divergent_weights(eta, len(usable))
    modes: list = [ZeroForcing()] * m.K
    for j, k in enumerate(usable):
        b = roots(p, float(m.eigenvalues[k])).b
        phase = math.remainder(math.pi / 4.0 - b * T, 2.0 * math.pi)
        modes[k] = WindowedSinusoid(w.amplitudes[j], b, phase, 0.0, T)
    return ForcingSpec(tuple(modes), declared_sup=eta), np.asarray(usable, dtype=int)


# ---------------------------------------------------------------------------
# Blow-up triples


@dataclass(frozen=True)
class BlowupTriple:
    """(sigma, sigma0, sigma1) with per-lam pulse shapes and limit constants."""

    sigma: float
    sigma0: float
    sigma1: float
    delta: float
    c0: float
    c1: float
    kind: str  # "constant" | "oscillating"
    W: float = 1.0
    psi: float = math.pi / 4.0

    def tau(self, lam: float) -> float:
        p = DampingParams(self.sigma, self.delta)
        r = roots(p, lam)
        if self.kind == "constant":
            if r.regime is Regime.DOUBLE_ROOT:
                return 1.0 / r.x1
            if r.regime is not Regime.REAL_PAIR:
                raise PreconditionError("constant blow-up pulses need nonoscillatory roots")
            return 1.0 / r.x2
        if r.regime is not Regime.OSCILLATORY_PAIR:
            raise PreconditionError("oscillating blow-up pulses need oscillatory roots")
        return self.W / r.a

    def window_forcing(self, lam: float, t_hi: float, ramp: float = 0.0):
        """Unit pulse supported on [t_hi - tau, t_hi] driving the blow-up.

        This is the time-shifted copy f_lam(t - (t_hi - tau)); with
        t_hi = tau it reproduces the defining family itself.
        """
        tau = self.tau(lam)
        start = t_hi - tau
        shrink = ramp  # support shrinks to (start + ramp, t_hi - ramp) edges via ramps
        if self.kind == "constant":
            return WindowedSinusoid(1.0, 0.0, 0.0, start + shrink, t_hi - shrink, ramp=ramp)
        b = roots(DampingParams(self.sigma, self.delta), lam).b
        # f_lam(s) = sin(b*(tau - s) + psi) anchored at s = 0  <=>  t = start
        phase0 = math.remainder(math.pi / 2.0 - self.psi - b * tau, 2.0 * math.pi)
        phase = math.remainder(phase0 + b * shrink, 2.0 * math.pi)
        return WindowedSinusoid(1.0, b, phase, start + shrink, t_hi - shrink, ramp=ramp)


def blowup_triple(p: DampingParams) -> BlowupTriple:
    """The triple (sigma, min(sigma + 1/2, 1), sigma) for 0 < sigma < 1.

    Constants per regime (all frozen closed forms):

    * sigma > 1/2 (or sigma = 1/2, delta > 1): constant pulses, tau = 1/x2;
      c0 = 1 - 1/e and c1 = e^-1/(2 delta), or the D-dependent forms at
      sigma = 1/2 with D = (delta + sqrt(delta^2 - 1))^2.
    * sigma = 1/2, delta = 1: constant pulses, tau = lam^-1/2;
      c0 = 1 - 2/e, c1 = 1/e (lam-independent, exact).
    * sigma < 1/2: oscillating pulses sin(b(tau - t) + psi), tau = W/a;
      rapid oscillation averages the trigonometric factors, leaving
      c0 = (1/(2 delta)) (1 - e^-W) cos(psi) and the sine analogue for c1
      (W = 1, psi = pi/4 here).
    * sigma = 1/2, delta < 1: no averaging (b/a is constant); psi = pi/2 and
      a small window W give lam-independent positive constants through the
      exact exponential-trigonometric integrals.
    """
    sig, dl = p.sigma, p.delta
    if not 0.0 < sig < 1.0:
        raise PreconditionError("blow-up triples cover 0 < sigma < 1 only")
    sigma0 = min(sig + 0.5, 1.0)
    if sig > 0.5 or (sig == 0.5 and dl > 1.0):
        if sig > 0.5:
            c0 = 1.0 - E_INV
            c1 = E_INV / (2.0 * dl)
        else:
            D = (dl + math.sqrt(dl * dl - 1.0)) ** 2
            c0 = 1.0 + (math.exp(-D) - D * E_INV) / (D - 1.0)
            c1 = (E_INV - math.exp(-D)) / (2.0 * math.sqrt(dl * dl - 1.0))
        return BlowupTriple(sig, sigma0, sig, dl, c0, c1, "constant")
    if sig == 0.5 and dl == 1.0:
        return BlowupTriple(sig, sigma0, sig, dl, 1.0 - 2.0 * E_INV, E_INV, "constant")
    if sig == 0.5:  # delta < 1: no homogenization, tune psi = pi/2 and shrink W
        Dfreq = math.sqrt(1.0 - dl * dl) / dl
        W = 0.5
        for _ in range(8):
            S, C, M = exp_trig_integrals(1.0, Dfreq, W)
            c0 = M / (dl * math.sqrt(1.0 - dl * dl))
            c1 = C / dl - M / math.sqrt(1.0 - dl * dl)
            if c0 > 0.0 and c1 > 0.0:
                return BlowupTriple(sig, sigma0, sig, dl, c0, c1, "oscillating", W=W, psi=math.pi / 2.0)
            W *= 0.5
        raise ConstructionError("could not find a window with positive limit constants")
    W, psi = 1.0, math.pi / 4.0
    c = (1.0 - math.exp(-W)) / (2.0 * dl)
    return BlowupTriple(sig, sigma0, sig, dl, c * math.cos(psi), c * math.sin(psi), "oscillating", W=W, psi=psi)


def blowup_values(p: DampingParams, triple: BlowupTriple, lam: float) -> tuple[float, float]:
    """(lam^sigma0 |u(tau)|, lam^sigma1 |u'(tau)|) for the defining pulse."""
    tau = triple.tau(lam)
    r = roots(p, lam)
    u, up = forced_mode_at(r, triple.window_forcing(lam, tau), tau)
    return lam**triple.sigma0 * abs(u), lam**triple.sigma1 * abs(up)


def window_shift_force(
    p: DampingParams,
    triple: BlowupTriple,
    A_lower: float,
    T: float,
    lam: float,
    max_halvings: int = 12,
):
    """Mollified pulse in (A_lower, B) with half-constant growth kept at T.

    Shifts the blow-up pulse so it ends just before T, then shrinks the
    mollifier width epsilon by halving until the certified inequalities
    lam^sigma0 |u(T)| >= c0/2 and lam^sigma1 |u'(T)| >= c1/2 hold.  Returns
    (forcing, B) with the forcing supported inside (A_lower, B), B < T.
    """
    tau = triple.tau(lam)
    if tau > T - A_lower:
        raise PreconditionError(
            f"pulse length tau = {tau:.3e} does not fit between A = {A_lower} and T = {T}"
        )
    v0, v1 = blowup_values(p, triple, lam)
    if abs(v0 - triple.c0) > 0.25 * triple.c0 or abs(v1 - triple.c1) > 0.25 * triple.c1:
        raise PreconditionError(
            f"lam = {lam:.3e} below the regime threshold: pulse values ({v0:.4f}, {v1:.4f}) "
            f"deviate more than 25% from ({triple.c0:.4f}, {triple.c1:.4f})"
        )
    r = roots(p, lam)
    # start with the widest legal mollifier: the gap T - B left behind is
    # exactly eps, and the next pulse in a disjoint chain must fit inside it,
    # so a generous first ramp stretches the chain much further down the
    # spectrum (halving recovers the certificate whenever the wide ramp
    # blunts the pulse too much)
    eps = tau / 4.5
    best = 0.0
    for _ in range(max_halvings):
        try:
            g = triple.window_forcing(lam, T, ramp=eps)
            u, up = forced_mode_at(r, g, T)
        except ValidationError as exc:
            # the window and ramp ends are rounded at the magnitude of T, so
            # a pulse near that time resolution cannot hold its ramps
            raise PreconditionError(
                f"pulse length tau = {tau:.3e} is below the time resolution at T = {T}: {exc}"
            ) from exc
        f0 = lam**triple.sigma0 * abs(u)
        f1 = lam**triple.sigma1 * abs(up)
        best = max(best, min(f0 / (0.5 * triple.c0), f1 / (0.5 * triple.c1)))
        if f0 >= 0.5 * triple.c0 and f1 >= 0.5 * triple.c1:
            return g, T - eps
        eps *= 0.5
    raise ConstructionError(
        f"mollifier bisection failed after {max_halvings} halvings; "
        f"achieved fraction {best:.3f} of the half-constant targets"
    )


# ---------------------------------------------------------------------------
# Disjoint assembly across spectrum parts


@dataclass(frozen=True)
class AssemblySchedule:
    """Per-target bookkeeping of a disjoint-support assembly."""

    targets: tuple
    budgets: tuple
    parts: tuple            # tuple of index arrays
    window_bounds: tuple    # per target: tuple of B_j bounds (empty for resonant)
    modes_used: tuple       # per target: tuple of global mode indices


def assemble_disjoint(
    p: DampingParams,
    m: SpectrumModel,
    targets,
    parts,
    eta0: float = 1.0,
    modes_per_target: int = 16,
) -> tuple[ForcingSpec, AssemblySchedule]:
    """Orthogonal sub-forcings with per-target regularity loss.

    Target n receives budget eta0 * 2^-n on its own spectrum part, so the
    total forcing is bounded by the l2 combination of the budgets.  For
    sigma = 0 the sub-forcing is the resonant family; for 0 < sigma < 1 it
    is a chain of shifted blow-up pulses with disjoint windows accumulating
    just below the target time.
    """
    targets = tuple(float(t) for t in targets)
    if len(targets) > len(parts):
        raise ValidationError("need at least one spectrum part per target")
    budgets = tuple(eta0 * 2.0**-n for n in range(len(targets)))
    modes_list = []
    bounds_list = []
    all_modes: list = [ZeroForcing()] * m.K
    for n, (T, part) in enumerate(zip(targets, parts)):
        if p.sigma == 0.0:
            spec_n, used = statement1_resonant_force(T, budgets[n], part, m, p)
            for k in used:
                all_modes[k] = spec_n.mode(int(k))
            modes_list.append(tuple(int(k) for k in used))
            bounds_list.append(())
            continue
        triple = blowup_triple(p)
        used = []
        bounds = []
        B_prev = 0.0
        for k in np.asarray(part, dtype=int):
            if len(used) >= modes_per_target:
                break
            lam = float(m.eigenvalues[k])
            try:
                g, B = window_shift_force(p, triple, B_prev, T, lam)
            except (PreconditionError, ConstructionError) as exc:
                log.debug("assembly target %d skips mode %d: %s", n, k, exc)
                continue
            scaled = WindowedSinusoid(
                budgets[n] * g.amplitude, g.omega, g.phase, g.start, g.stop, ramp=g.ramp
            )
            all_modes[int(k)] = scaled
            used.append(int(k))
            bounds.append(B)
            B_prev = B
        if len(used) < 11:
            raise CapacityError(
                f"target {T}: only {len(used)} usable modes in the part; need >= 11 "
                "for at least 8 geometric truncation levels"
            )
        modes_list.append(tuple(used))
        bounds_list.append(tuple(bounds))
    declared = math.sqrt(sum(b * b for b in budgets))
    spec = ForcingSpec(tuple(all_modes), declared_sup=declared)
    sched = AssemblySchedule(targets, budgets, tuple(np.asarray(q) for q in parts),
                            tuple(bounds_list), tuple(modes_list))
    return spec, sched


# ---------------------------------------------------------------------------
# Unbounded |Au| schedule (sigma > 1)


def unbounded_schedule(alphas, min_length: int = 1) -> tuple[list[int], list[float]]:
    """Greedy index/time schedule with unit exponential mass per slot.

    Picks k_1 = first index, then each next k so that 1/alpha_k >= T_prev,
    with T_n = sum of selected 1/alpha.  Then alpha_k T_{n-1} <= 1 and
    alpha_k (T_n - T_{n-1}) = 1, hence

        alpha_k int_{T_{n-1}}^{T_n} e^{-alpha_k x} dx >= (1/e)(1 - 1/e)

    for every slot.  Raises when the list cannot reach ``min_length`` slots,
    which happens exactly when the alphas stop tending to zero soon enough.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0.0 for a in alphas):
        raise ValidationError("alphas must be positive")
    ks: list[int] = []
    Ts: list[float] = []
    total = 0.0
    i = 0
    while i < len(alphas):
        if not ks or 1.0 / alphas[i] >= total:
            ks.append(i)
            total += 1.0 / alphas[i]
            Ts.append(total)
        i += 1
    if len(ks) < min_length:
        raise CapacityError(
            f"schedule incomplete: got {len(ks)} slots, need {min_length}; "
            "the alphas do not tend to zero fast enough within the list",
            max_achievable=len(ks),
        )
    return ks, Ts


def schedule_certificates(alphas, ks, Ts) -> list[float]:
    """The certified masses alpha int e^{-alpha x} dx per slot (all >= 0.2325...)."""
    out = []
    prev = 0.0
    for k, T in zip(ks, Ts):
        a = alphas[k]
        out.append(math.exp(-a * prev) - math.exp(-a * T))
        prev = T
    return out


@dataclass(frozen=True)
class BackwardSwitchForcing:
    """g(t) = eta * psi(T - t): one mode per backward-time slot, ramped edges.

    The slot times T_n double along the schedule, so the early slots sit
    within relative 2^-52 of the final time T and are not representable as
    forward-time floats once the schedule is long; all evaluation therefore
    happens in backward time y = T - t, where the slot boundaries are exact
    prefix sums.  ``slots`` holds (mode, y0, y1, ramp) with the trapezoid
    envelope 0->1 over [y0, y0+ramp], 1, then 1->0 over [y1-ramp, y1].
    """

    T: float
    eta: float
    slots: tuple

    def envelope(self, mode: int, y) -> np.ndarray:
        """psi-component of `mode` at backward times y."""
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for k, y0, y1, w in self.slots:
            if k != mode:
                continue
            rising = np.clip((y - y0) / w, 0.0, 1.0) if w > 0 else (y >= y0).astype(float)
            falling = np.clip((y1 - y) / w, 0.0, 1.0) if w > 0 else (y < y1).astype(float)
            out = np.where((y >= y0) & (y < y1), np.minimum(rising, falling), out)
        return out

    def sup(self) -> float:
        return self.eta


def _exp_env_integral(x: float, y0: float, y1: float, w: float) -> float:
    """int_{y0}^{y1} envelope(y) e^{-x y} dy for the trapezoid envelope."""
    from ._expconv import exp_poly_moments

    if x * y0 > 745.0:
        return 0.0
    if w <= 0.0:
        mom = exp_poly_moments(complex(-x * (y1 - y0)), 0)
        return math.exp(-x * y0) * (y1 - y0) * mom[0].real
    mom_w = exp_poly_moments(complex(-x * w), 1)
    up = math.exp(-x * y0) * w * mom_w[1].real
    mid_len = (y1 - y0) - 2.0 * w
    mid = 0.0
    if mid_len > 0.0 and x * (y0 + w) <= 745.0:
        mom_mid = exp_poly_moments(complex(-x * mid_len), 0)
        mid = math.exp(-x * (y0 + w)) * mid_len * mom_mid[0].real
    down = 0.0
    if x * (y1 - w) <= 745.0:
        down = math.exp(-x * (y1 - w)) * w * (mom_w[0] - mom_w[1]).real
    return up + mid + down


@dataclass(frozen=True)
class Statement4Certificate:
    """One threshold-passing construction: |Au(T)|^2 >= target."""

    target: float
    eta: float
    T: float
    au_sq: float
    av_norm: float
    aw_norm: float
    mode_indices: tuple
    switch_times: tuple
    forcing: BackwardSwitchForcing


def statement4_force(
    p: DampingParams,
    m: SpectrumModel,
    part_indices,
    M_target: float,
    eta: float,
    safety: float = 1.1,
    max_halvings: int = 12,
) -> Statement4Certificate:
    """Reversed-time mode-switching pulse train with |Au(T)|^2 >= M_target.

    Along the slow-root schedule each selected mode owns one switching slot
    [T_{n-1}, T_n) in backward time y = T - t and captures exponential mass
    at least (1/e)(1-1/e) there, so the slow parts w_n contribute
    |Aw(T)|^2 ~ eta^2 * (number of slots) while the fast parts stay below
    |Av(T)| <= eta.  Slots are added until the simulated |Aw(T)| clears
    sqrt(M_target) + eta with a safety factor: a fixed worst-case slot count
    prescribed up front would be far too conservative to fit any spectrum
    representable in double precision, since the schedule doubles its time
    horizon (hence its eigenvalue span) at every slot.  Ramp widths then
    shrink by halving until the exact mollified evaluation certifies
    |Au(T)|^2 >= M_target.
    """
    if p.sigma <= 1.0:
        raise PreconditionError("the unbounded-|Au| construction needs sigma > 1")
    if not eta > 0.0:
        raise ValidationError("eta must be positive")
    part_indices = np.asarray(part_indices, dtype=int)
    accepted = []
    for k in part_indices:
        lam = float(m.eigenvalues[k])
        if classify(p, lam) is not Regime.REAL_PAIR:
            log.debug("statement4: mode %d skipped (not a real pair)", k)
            continue
        r = roots(p, lam)
        gap = r.x1 - r.x2
        if lam / gap > 1.0 or r.x1 < 1.0 or lam / (gap * r.x2) < 0.5:
            log.debug("statement4: mode %d skipped (threshold predicate)", k)
            continue
        accepted.append((int(k), r))
    if len(accepted) < 2:
        raise CapacityError("no usable modes for the switching schedule", max_achievable=0.0)
    alphas = [r.x2 for _, r in accepted]
    ks, Ts = unbounded_schedule(alphas, min_length=1)

    # accumulate slots until the slow-part mass clears the target
    need = (math.sqrt(M_target) + eta) ** 2 * safety
    masses = schedule_certificates(alphas, ks, Ts)
    acc = 0.0
    n_used = 0
    for i, (slot, mass) in enumerate(zip(ks, masses)):
        _, r = accepted[slot]
        nu_w = (r.x1 / (r.x1 - r.x2)) * mass  # nu * w_n(T), schedule mass rescaled
        acc += (eta * nu_w) ** 2
        n_used = i + 1
        if acc >= need:
            break
    if acc < need:
        achievable = max(0.0, (math.sqrt(acc / safety) - eta)) ** 2
        raise CapacityError(
            f"spectrum exhausted after {n_used} slots: |Aw(T)|^2 ~ {acc:.3f} < {need:.3f}; "
            f"max achievable target ~ {achievable:.3f}",
            max_achievable=achievable,
        )
    sel = [accepted[slot] for slot in ks[:n_used]]
    T_total = Ts[n_used - 1]
    bounds = [0.0] + Ts[:n_used]

    frac = 1.0 / 16.0
    au_sq = 0.0
    for _ in range(max_halvings):
        slots = []
        for n, (k, _) in enumerate(sel):
            width = bounds[n + 1] - bounds[n]
            slots.append((k, bounds[n], bounds[n + 1], frac * width))
        au_sq = 0.0
        av_sq = 0.0
        aw_sq = 0.0
        for (k, r), (_, y0, y1, w) in zip(sel, slots):
            lam = float(m.eigenvalues[k])
            gap = r.x1 - r.x2
            iv = _exp_env_integral(r.x1, y0, y1, w)
            iw = _exp_env_integral(r.x2, y0, y1, w)
            v = -eta * iv / gap
            wpart = eta * iw / gap
            av_sq += (lam * v) ** 2
            aw_sq += (lam * wpart) ** 2
            au_sq += (lam * (v + wpart)) ** 2
        if au_sq >= M_target:
            return Statement4Certificate(
                target=M_target,
                eta=eta,
                T=T_total,
                au_sq=au_sq,
                av_norm=math.sqrt(av_sq),
                aw_norm=math.sqrt(aw_sq),
                mode_indices=tuple(k for k, _ in sel),
                switch_times=tuple(Ts[:n_used]),
                forcing=BackwardSwitchForcing(T_total, eta, tuple(slots)),
            )
        frac *= 0.5
    raise ConstructionError(
        f"mollifier halving failed: |Au(T)|^2 = {au_sq:.3f} < {M_target}"
    )


@dataclass(frozen=True)
class Statement4Assembly:
    """Orthogonal sum of per-part switching constructions."""

    certificates: tuple
    declared_sup: float

    @property
    def times(self) -> tuple:
        return tuple(c.T for c in self.certificates)


def statement4_growth_series(
    p: DampingParams,
    m: SpectrumModel,
    part_indices,
    eta: float = 0.9,
    n_points: int = 12,
    slots_per_point: int = 4,
    ramp_frac: float = 1.0 / 16.0,
    burn_in_slots: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """(t_j, |Au(t_j)|^2) along growing prefixes of one switching schedule.

    Prefix j is the threshold construction truncated after
    burn_in + j*slots_per_point slots, anchored at its own final time; slot
    integrals live in backward time and do not depend on the anchor, so the
    squared norms are cumulative sums.  Each slot adds the same mass once the
    schedule settles, while the prefix times grow geometrically: the squared
    norm grows like log t, realising the logarithmic growth rate at the
    alpha = 1 boundary.  The first ``burn_in_slots`` slots carry surplus mass
    (nothing has decayed yet) and are excluded from the measured series.
    """
    if p.sigma <= 1.0:
        raise PreconditionError("the unbounded-|Au| construction needs sigma > 1")
    part_indices = np.asarray(part_indices, dtype=int)
    accepted = []
    for k in part_indices:
        lam = float(m.eigenvalues[k])
        if classify(p, lam) is not Regime.REAL_PAIR:
            continue
        r = roots(p, lam)
        gap = r.x1 - r.x2
        if lam / gap > 1.0 or r.x1 < 1.0 or lam / (gap * r.x2) < 0.5:
            continue
        accepted.append((int(k), r))
    need = burn_in_slots + n_points * slots_per_point
    if len(accepted) < need:
        raise CapacityError(
            f"part supplies {len(accepted)} usable modes, need {need}",
            max_achievable=len(accepted),
        )
    alphas = [r.x2 for _, r in accepted]
    ks, Ts = unbounded_schedule(alphas, min_length=need)
    bounds = [0.0] + Ts
    acc = 0.0
    cum = []
    for n, slot in enumerate(ks[:need]):
        _, r = accepted[slot]
        lam = float(m.eigenvalues[accepted[slot][0]])
        y0, y1 = bounds[n], bounds[n + 1]
        w = ramp_frac * (y1 - y0)
        gap = r.x1 - r.x2
        u = eta * (_exp_env_integral(r.x2, y0, y1, w) - _exp_env_integral(r.x1, y0, y1, w)) / gap
        acc += (lam * u) ** 2
        cum.append(acc)
    times = []
    values = []
    for j in range(1, n_points + 1):
        s = burn_in_slots + j * slots_per_point
        times.append(Ts[s - 1])
        values.append(cum[s - 1])
    return np.asarray(times), np.asarray(values)


def statement4_sequence(
    p: DampingParams,
    m: SpectrumModel,
    n_max: int,
    budgets=None,
    stride: int | None = None,
) -> Statement4Assembly:
    """Certificates |Au(t_n)|^2 >= n on fresh parts, t_n growing geometrically.

    The n-th certificate runs on its own interleaved spectrum part.  Budgets
    default to a constant 0.9: per-slot squared gains scale with eta_n^2, so
    shrinking budgets geometrically would demand exponentially many slots and
    with them an eigenvalue span far beyond double precision (the slow-root
    schedule doubles T at every slot).  Constant budgets keep
    |f| <= sqrt(sum eta_n^2) = 0.9 sqrt(n_max) and every certificate cheap.
    """
    from .spectrum import partition_interleave

    if stride is None:
        stride = max(n_max, 2)
    if stride < n_max:
        raise ValidationError(
            f"stride {stride} would reuse parts across the {n_max} certificates; "
            "each threshold construction needs fresh modes"
        )
    parts = partition_interleave(m, stride)
    if budgets is None:
        budgets = [0.9] * n_max
    if len(budgets) < n_max:
        raise ValidationError("need one budget per certificate")
    certs: list[Statement4Certificate] = []
    for n in range(1, n_max + 1):
        cert = statement4_force(p, m, parts[n - 1], float(n), float(budgets[n - 1]))
        certs.append(cert)
    declared = math.sqrt(sum(b * b for b in budgets[:n_max]))
    return Statement4Assembly(tuple(certs), declared)

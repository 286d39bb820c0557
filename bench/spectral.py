"""spectral-scans: the homogeneous and certificate side of the paper.

One op is one sweep over sigma = 0, 0.25, 0.5, 0.75, 1, 2 (oscillatory,
critical and real-pair regimes, with delta = 1) that runs, per sigma:

* ``charpoly.roots`` over the spectrum;
* ``gap_scan`` at one gap inside [1-gamma, gamma] and one outside;
* the derivative-gap probe, and the forward-smoothing probe for sigma >= 1;
* ``homogeneous_solve``;
* constant-forcing norm histories through ``boundedness_scan``;
* statement-3 partial sums with ``membership_diagnosis`` for sigma >= 1;
* ``statement4_sequence`` for sigma > 1, ``assemble_disjoint`` for sigma < 1;
* ``line_bounded_mode`` for a periodic square wave, at t and t + T0.

The Duhamel stepper is not used: ``_expconv`` serves a few long windows
(pulse certificates, periodic closure) instead of many short steps.  The
seed draws initial data, times, gaps, amplitudes and budgets; the sizes and
the sequence of calls are the same for every seed.
"""

from __future__ import annotations

import math

import numpy as np

from fracdamp import acceptance, charpoly, counterexamples, duhamel, probe, propagator
from fracdamp.charpoly import DampingParams, Regime
from fracdamp.probe import Verdict
from fracdamp.spectrum import SpectralVector, geometric_spectrum, partition_interleave
from workload import InProcessWorkload

SIGMAS = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0)
DELTA = 1.0
POOL = 4
PERIOD = 2.0
PERIODIC_LAMBDAS = (4.0, 64.0)
DIAGRAM_ALPHAS = (0.5, 1.5)
STATEMENT4_N = 3
GAP_TIMES = np.concatenate([[0.0], np.logspace(-7.0, 1.0, 16)])
HORIZON = np.logspace(0.0, 4.0, 17)

ROOT_TOL = 1e-12
HOMOGENEOUS_TOL = 1e-9
PERIODIC_TOL = 1e-12
STATEMENT4_TOL = 1e-9


def gamma(sig: float) -> float:
    return max(0.5, sig)


class SpectralScans(InProcessWorkload):
    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 20])
        self.m_gap = geometric_spectrum(41, 2.0)
        self.m_hom = geometric_spectrum(24, 2.0)
        self.m_diag = geometric_spectrum(32, 2.0)
        self.m_s3 = geometric_spectrum(64, 2.0)
        self.m_s4 = geometric_spectrum(160, 2.0)
        self.m_res = geometric_spectrum(64, 2.0, scale=2.0)
        self.m_pulse = geometric_spectrum(96, 4.0, scale=16.0)
        self.inputs = [self._draw(rng) for _ in range(POOL)]
        self.sample_rng = np.random.default_rng([seed, 21])

    def _draw(self, rng) -> dict:
        per_sigma = {}
        for sig in SIGMAS:
            g = gamma(sig)
            inside = 0.5 if g == 0.5 else rng.uniform(1.0 - g + 0.1, g - 0.1)
            if rng.uniform() < 0.5:
                outside = rng.uniform(g + 0.25, g + 0.5)
            else:
                outside = rng.uniform(1.0 - g - 0.5, 1.0 - g - 0.25)
            per_sigma[sig] = {
                "gaps": (inside, outside),
                "t_deriv": rng.uniform(0.0, 1.0),
                "t_smooth": rng.uniform(0.25, 1.0),
                "amp": rng.uniform(0.5, 2.0) / math.sqrt(self.m_diag.K),
                "t_s3": rng.uniform(0.5, 2.0),
                "eta_s3": rng.uniform(0.5, 2.0),
                "eta_asm": rng.uniform(0.5, 1.5),
                "amp_periodic": rng.uniform(0.5, 2.0),
                "t_periodic": rng.uniform(0.0, PERIOD),
            }
        return {
            "u0": rng.uniform(-1.0, 1.0, self.m_hom.K),
            "u1": rng.uniform(-1.0, 1.0, self.m_hom.K),
            "t_hom": np.sort(rng.uniform(0.0, 2.0, 12)),
            "sigma": per_sigma,
        }

    def rounds(self):
        return self.inputs

    # -- the op ---------------------------------------------------------------

    def op(self, inp):
        out = {}
        U0, U1 = SpectralVector(inp["u0"]), SpectralVector(inp["u1"])
        for sig in SIGMAS:
            x = inp["sigma"][sig]
            p = DampingParams(sig, DELTA)
            g = gamma(sig)
            res = {"roots": [charpoly.roots(p, float(lam)) for lam in self.m_gap.eigenvalues]}
            res["gap"] = []
            for gap in x["gaps"]:
                a0, a1 = (gap, 0.0) if gap >= 0.0 else (0.0, -gap)
                cfg = propagator.GapScanConfig(a0, a1, GAP_TIMES, self.m_gap.eigenvalues)
                res["gap"].append(propagator.gap_scan(self.m_gap, p, cfg))
            res["deriv"] = propagator.derivative_gap_probe(self.m_gap, p, g, 2, x["t_deriv"])
            if sig >= 1.0:
                res["smooth"] = propagator.forward_smoothing_probe(self.m_gap, p, 2, x["t_smooth"])
            res["hom"] = propagator.homogeneous_solve(self.m_hom, p, U0, U1, inp["t_hom"])
            norms = acceptance.constant_forcing_norms(p, self.m_diag, x["amp"])
            res["diagram"] = probe.boundedness_scan(norms, DIAGRAM_ALPHAS, HORIZON)
            if sig >= 1.0:
                res["s3"] = self._statement3(p, x["t_s3"], x["eta_s3"])
            if sig > 1.0:
                res["s4"] = counterexamples.statement4_sequence(p, self.m_s4, STATEMENT4_N)
            if sig < 1.0:
                res["assembly"] = self._assembly(p, x["eta_asm"])
            res["periodic"] = self._periodic(p, x["amp_periodic"], x["t_periodic"])
            out[sig] = res
        return out

    def _statement3(self, p, t, eta):
        w = counterexamples.divergent_weights(eta, self.m_s3.K)
        u = np.array([duhamel.constant_forcing_mode(p, float(lam), t)[0] for lam in self.m_s3.eigenvalues])
        coeffs = np.asarray(w.amplitudes) * u
        levels = probe.truncation_levels(self.m_s3.K)
        verdicts = {}
        for alpha in (p.sigma + 0.1, p.sigma):
            sums = probe.weighted_partial_sums(self.m_s3.eigenvalues, coeffs, alpha, levels)
            verdicts[alpha] = probe.membership_diagnosis(sums).verdict
        return verdicts

    def _assembly(self, p, eta0):
        if p.sigma == 0.0:
            m, extra = self.m_res, {}
        else:
            m, extra = self.m_pulse, {"modes_per_target": 12}
        return counterexamples.assemble_disjoint(p, m, (0.5, 1.0), partition_interleave(m, 2), eta0=eta0, **extra)

    def _periodic(self, p, amp, t):
        f = acceptance.smoothed_square_wave(amp, PERIOD, 0.1)
        vals = []
        for lam in PERIODIC_LAMBDAS:
            r = charpoly.roots(p, lam)
            vals.append((duhamel.line_bounded_mode(r, f, PERIOD, t)[0],
                         duhamel.line_bounded_mode(r, f, PERIOD, t + PERIOD)[0]))
        return vals

    # -- checks (outside the timed region) -----------------------------------

    def check(self, inp, out) -> list[str]:
        import mpmath

        errors = []
        rng = self.sample_rng
        hom_sampled = set(rng.choice(SIGMAS, 2, replace=False).tolist())
        for sig in SIGMAS:
            res, x = out[sig], inp["sigma"][sig]
            p = DampingParams(sig, DELTA)
            k = int(rng.integers(self.m_gap.K))
            errors += _check_root(res["roots"][k], p, mpmath)
            if sig in hom_sampled:
                i, k = int(rng.integers(inp["t_hom"].size)), int(rng.integers(self.m_hom.K))
                errors += _check_homogeneous(res["hom"], i, k, self.m_hom, p, inp, mpmath)
            for gap, scan in zip(x["gaps"], res["gap"]):
                errors += _check_gap(sig, gap, scan)
            for row in res["diagram"]:
                want = _diagram_expectation(sig, row.alpha, row.component)
                if row.fit.verdict is not want:
                    errors.append(f"sigma={sig} alpha={row.alpha} {row.component}: {row.fit.verdict} != {want}")
            if "s3" in res:
                for alpha, verdict in res["s3"].items():
                    want = Verdict.DIVERGING if alpha > sig else Verdict.CONVERGED
                    if verdict is not want:
                        errors.append(f"statement 3 sigma={sig} alpha={alpha}: {verdict} != {want}")
            if "s4" in res:
                errors += _check_statement4(res["s4"], self.m_s4, p)
            if "assembly" in res:
                errors += _check_assembly(res["assembly"], sig)
            for lam, (u1, u2) in zip(PERIODIC_LAMBDAS, res["periodic"]):
                if not abs(u1 - u2) <= PERIODIC_TOL * max(1.0, abs(u1)):
                    errors.append(f"sigma={sig} lam={lam}: u(t) {u1!r} != u(t+T0) {u2!r}")
        return errors


def _check_root(r, p, mpmath) -> list[str]:
    """Roots against the roots of x^2 + 2 delta lam^sigma x + lam in 80-digit mpmath."""
    with mpmath.workdps(80):
        lam = mpmath.mpf(r.lam)
        c = p.delta * lam ** mpmath.mpf(p.sigma)
        disc = mpmath.sqrt(mpmath.mpc(c * c - lam))
        ref = sorted((complex(-c + disc), complex(-c - disc)), key=lambda z: (abs(z), z.imag))
    if r.regime is Regime.OSCILLATORY_PAIR:
        got = [complex(-r.x1, -r.x2), complex(-r.x1, r.x2)]
    else:
        got = [complex(-r.x2), complex(-r.x1)]
    tol = 1e-8 if r.regime is Regime.DOUBLE_ROOT else ROOT_TOL
    errors = []
    for g, z in zip(got, ref):
        if not abs(g - z) <= tol * abs(z):
            errors.append(f"lam={r.lam} sigma={p.sigma}: root {g} vs mpmath {z}")
    return errors


def _check_homogeneous(traj, i, k, m, p, inp, mpmath) -> list[str]:
    """(u, u') at one (t, mode) against expm of the companion matrix, in mpmath.

    The error is measured in the energy norm sqrt(lam u^2 + u'^2) of the
    initial data, which the damped flow never increases.
    """
    lam, t = float(m.eigenvalues[k]), float(inp["t_hom"][i])
    u0, u1 = float(inp["u0"][k]), float(inp["u1"][k])
    with mpmath.workdps(60):
        c = 2 * p.delta * mpmath.mpf(lam) ** mpmath.mpf(p.sigma)
        E = mpmath.expm(mpmath.matrix([[0, 1], [-lam, -c]]) * t)
        u_ref = float(E[0, 0] * u0 + E[0, 1] * u1)
        up_ref = float(E[1, 0] * u0 + E[1, 1] * u1)
    scale = math.sqrt(lam * u0 * u0 + u1 * u1)
    err = math.sqrt(lam * (traj.u[i, k] - u_ref) ** 2 + (traj.uprime[i, k] - up_ref) ** 2)
    if not err <= HOMOGENEOUS_TOL * scale:
        return [f"homogeneous sigma={p.sigma} lam={lam} t={t}: energy-norm error {err:.3e} > {HOMOGENEOUS_TOL}*{scale:.3e}"]
    return []


def _check_gap(sig, gap, scan) -> list[str]:
    """Bounded exactly when 1 - gamma <= gap <= gamma."""
    amp = scan.amplification
    bounded = float(np.max(amp) / np.min(amp)) <= 5.0
    diverging = float(np.max(amp) / amp[0]) > 10.0
    g = gamma(sig)
    want_bounded = 1.0 - g <= gap <= g
    if bounded == diverging or bounded != want_bounded:
        return [f"gap scan sigma={sig} gap={gap:.3f}: bounded={bounded} diverging={diverging}, "
                f"theory bounded={want_bounded}"]
    return []


def _diagram_expectation(sig, alpha, component):
    """Verdict for uniform constant forcing, on cells away from alpha = 1 and alpha = sigma.

    Each mode settles at the slow rate x2 ~ lam^(1-sigma)/(2 delta).  For
    sigma <= 1 every mode has settled well inside the horizon, so every norm
    is bounded.  For sigma > 1 the modes with x2 t < 1 are still loading:
    |A^alpha u| grows like t^((alpha-1)/(sigma-1)) for 1 < alpha < sigma and
    stays bounded for alpha < 1, and |A^alpha u'| decays for alpha < sigma.
    """
    if sig > 1.0 and component == "u" and alpha > 1.0:
        return Verdict.POWER_LAW
    return Verdict.BOUNDED


def _check_statement4(asm, m, p) -> list[str]:
    """|Au(T_n)|^2 >= n, with u(T) recomputed by Gauss-Legendre quadrature.

    In backward time y = T - t, u_k(T) = eta int psi_k(y) g_k(y) dy with
    g_k(y) = (e^{-x2 y} - e^{-x1 y}) / (x1 - x2) and psi_k the trapezoid
    envelope of the slot.  Each exponential is integrated in s = x*y on unit
    panels (40 e-folds suffice far below double precision).
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)
    errors = []
    for n, cert in enumerate(asm.certificates, start=1):
        au_sq = 0.0
        for k, y0, y1, w in cert.forcing.slots:
            lam = float(m.eigenvalues[k])
            r = _real_roots_reference(lam, p)
            val = 0.0
            for rate, sign in ((r[1], 1.0), (r[0], -1.0)):
                val += sign * _envelope_exp_integral(rate, y0, y1, w, nodes, weights)
            u = cert.eta * val / (r[0] - r[1])
            au_sq += (lam * u) ** 2
        if not au_sq >= n:
            errors.append(f"statement 4 certificate {n}: recomputed |Au(T)|^2 {au_sq:.4f} < {n}")
        if not abs(au_sq - cert.au_sq) <= STATEMENT4_TOL * au_sq:
            errors.append(f"statement 4 certificate {n}: |Au(T)|^2 {cert.au_sq!r} vs quadrature {au_sq!r}")
    return errors


def _real_roots_reference(lam, p):
    """(x1, x2) magnitudes of the real roots, from the quadratic formula in
    extended precision (the product form keeps x2 accurate)."""
    import mpmath

    with mpmath.workdps(40):
        c = p.delta * mpmath.mpf(lam) ** mpmath.mpf(p.sigma)
        x1 = c + mpmath.sqrt(c * c - lam)
        return float(x1), float(lam / x1)


def _envelope_exp_integral(rate, y0, y1, w, nodes, weights):
    """int_{y0}^{y1} env(y) e^{-rate y} dy, env the trapezoid 0->1->1->0 of ramp w."""
    total = 0.0
    for a, b, kind in ((y0, y0 + w, "up"), (y0 + w, y1 - w, "flat"), (y1 - w, y1, "down")):
        if b <= a:
            continue
        sa, sb = rate * a, min(rate * b, rate * a + 40.0)
        if sa > 745.0 or not sb > sa:
            continue
        edges = np.arange(sa, sb, 1.0)
        edges = np.append(edges, sb) if edges[-1] < sb else edges
        for lo, hi in zip(edges[:-1], edges[1:]):
            s = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            y = s / rate
            if kind == "up":
                env = (y - y0) / w
            elif kind == "down":
                env = (y1 - y) / w
            else:
                env = np.ones_like(y)
            total += 0.5 * (hi - lo) * float(np.dot(weights, env * np.exp(-s))) / rate
    return total


def _check_assembly(asm, sig) -> list[str]:
    """Every target's windows end by the target; pulse windows (sigma > 0) are disjoint."""
    spec, sched = asm
    errors = []
    for T, used in zip(sched.targets, sched.modes_used):
        windows = sorted((spec.mode(int(k)).start, spec.mode(int(k)).stop) for k in used)
        overlap = sig > 0.0 and any(b[0] < a[1] for a, b in zip(windows, windows[1:]))
        if overlap or windows[-1][1] > T:
            errors.append(f"assembly target {T}: windows overlap or pass the target")
    return errors

"""Exact convolution of exponential mode kernels with piecewise forcings.

Everything reduces to scaled moments

    m_k(w) = int_0^1 theta^k exp(w*theta) d(theta),     Re(w) <= 0,

computed by Taylor series for |w| <= 8 (no cancellation blow-up in that
range) and by the upward recurrence m_k = (e^w - k*m_{k-1})/w otherwise,
which is stable there because each step divides the propagated error by |w|.
The recurrence is only trusted up to k = MAX_RECURRENCE_K; the high-degree
node-quadrature path keeps |w| <= 8 by substepping instead.

Kernels are lists of genuine complex-exponential terms (weight, rate, power)
meaning weight * tau^power * exp(rate*tau); oscillatory kernels appear as
conjugate pairs so that sums come out real up to roundoff.

convolve_pieces evaluates one window at a time and serves point
evaluations; window_increments evaluates the same closed forms for every
(window, piece) pair of a whole grid and many modes in one array pass, which
is what the Duhamel grid stepper uses.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .charpoly import CharRoots, Regime
from .errors import AccuracyWarning
from .forcing import Piece, poly_compose_affine, poly_compose_affine_rows

_SERIES_RADIUS = 8.0
MAX_RECURRENCE_K = 6
_LOG_FLOOR = -745.0


def exp_poly_moments(w: complex, kmax: int) -> list:
    """m_k(w) = int_0^1 theta^k e^{w theta} dtheta for k = 0..kmax."""
    if abs(w) <= _SERIES_RADIUS:
        return _moments_series(w, kmax)
    if kmax > MAX_RECURRENCE_K:
        raise ValueError(
            f"moment recurrence limited to k <= {MAX_RECURRENCE_K}; substep to reach |w| <= 8"
        )
    return _moments_recurrence(w, kmax)


def _moments_series(w: complex, kmax: int) -> list:
    out = [0.0j] * (kmax + 1)
    term = 1.0 + 0.0j  # w^j / j!
    j = 0
    while True:
        for k in range(kmax + 1):
            out[k] += term / (k + j + 1.0)
        j += 1
        term *= w / j
        if (abs(term) < 1e-18 and j > 2) or j > 80:
            break
    return out


def _moments_recurrence(w: complex, kmax: int) -> list:
    w = complex(w)
    ew = cmath.exp(w)
    out = [0.0j] * (kmax + 1)
    out[0] = (ew - 1.0) / w
    for k in range(1, kmax + 1):
        out[k] = (ew - k * out[k - 1]) / w
    return out


def exp_poly_moments_array(w, kmax: int) -> np.ndarray:
    """exp_poly_moments for every entry of the array w: shape (w.size, kmax + 1).

    Each entry takes the branch the scalar routine would take, chosen by the
    mask |w| <= 8.
    """
    w = np.asarray(w, dtype=complex).ravel()
    out = np.empty((w.size, kmax + 1), dtype=complex)
    near = np.abs(w) <= _SERIES_RADIUS
    out[near] = _moments_series_array(w[near], kmax)
    far = ~near
    if far.any():
        if kmax > MAX_RECURRENCE_K:
            raise ValueError(
                f"moment recurrence limited to k <= {MAX_RECURRENCE_K}; substep to reach |w| <= 8"
            )
        w_far = w[far]
        ew = np.exp(w_far)
        mom = (ew - 1.0) / w_far
        out[far, 0] = mom
        for k in range(1, kmax + 1):
            mom = (ew - k * mom) / w_far
            out[far, k] = mom
    return out


def _moments_series_array(w: np.ndarray, kmax: int) -> np.ndarray:
    # the scalar series, summed over as many terms as the largest |w| needs;
    # for smaller |w| the extra terms lie below the 1e-18 cut-off
    r = float(np.max(np.abs(w), initial=0.0))
    n, term = 1, r  # n terms w^0/0! .. w^(n-1)/(n-1)!; term = r^n/n!
    while n <= 80 and (n < 3 or term >= 1e-18):
        n += 1
        term *= r / n
    terms = np.empty((n, w.size), dtype=complex)  # w^j / j!
    terms[0] = 1.0
    for j in range(1, n):
        terms[j] = terms[j - 1] * (w / j)
    return terms.T @ (1.0 / (np.arange(n)[:, None] + np.arange(kmax + 1) + 1.0))


def kernel_components(r: CharRoots) -> tuple[tuple, tuple]:
    """(g terms, g' terms) for the fundamental solution of one mode.

    g solves the homogeneous mode equation with g(0) = 0, g'(0) = 1, and the
    Duhamel solution with null data is u(t) = int_0^t g(t-s) f(s) ds with
    u'(t) = int_0^t g'(t-s) f(s) ds.
    """
    if r.regime is Regime.REAL_PAIR:
        x1, x2, gap = r.x1, r.x2, r.x1 - r.x2
        g = ((1.0 / gap, -x2, 0), (-1.0 / gap, -x1, 0))
        gp = ((-x2 / gap, -x2, 0), (x1 / gap, -x1, 0))
        return g, gp
    if r.regime is Regime.DOUBLE_ROOT:
        rr = r.x1
        g = ((1.0, -rr, 1),)
        gp = ((1.0, -rr, 0), (-rr, -rr, 1))
        return g, gp
    a, b = r.x1, r.x2
    z = complex(-a, b)
    zc = z.conjugate()
    g = ((-0.5j / b, z, 0), (0.5j / b, zc, 0))
    wgt = 0.5 * complex(1.0, a / b)
    gp = ((wgt, z, 0), (wgt.conjugate(), zc, 0))
    return g, gp


def _carrier_terms(amplitude: float, psi: float, omega: float):
    """cos(psi - omega*x) as genuine exponentials c*exp(zeta*x)."""
    if omega == 0.0:
        return ((amplitude * math.cos(psi), 0.0j),)
    half = 0.5 * amplitude * cmath.exp(1j * psi)
    return ((half, complex(0.0, -omega)), (half.conjugate(), complex(0.0, omega)))


def _piece_component_integral(wgt, z, pw, piece: Piece, T: float, lo: float, hi: float) -> complex:
    """int over s in [lo, hi] of wgt*(T-s)^pw*exp(z*(T-s))*piece(s) ds.

    Written in tau = T - s with local offset x = tau - tau_a; all polynomial
    and carrier data is re-anchored at the interval end so that only
    piece-local magnitudes enter.
    """
    tau_a = T - hi
    tau_b = T - lo
    L = tau_b - tau_a
    if L <= 0.0:
        return 0.0j
    zr = z.real if isinstance(z, complex) else z
    if zr * tau_a < _LOG_FLOOR:
        return 0.0j
    pref = cmath.exp(complex(z) * tau_a)
    c = hi - piece.start  # local coordinate of s = hi in the piece
    # forcing polynomial in x: p(c - x)
    qcoef = poly_compose_affine(piece.coeffs, c, -1.0)
    # tau^pw factor: (tau_a + x)^pw, pw in {0, 1}
    if pw == 1:
        shifted = [tau_a * qcoef[0]]
        for i in range(1, len(qcoef)):
            shifted.append(tau_a * qcoef[i] + qcoef[i - 1])
        shifted.append(qcoef[-1])
        qcoef = tuple(shifted)
    elif pw != 0:
        raise ValueError("kernel powers above 1 are not used")
    psi = piece.omega * c + piece.phase
    total = 0.0j
    for camp, zeta in _carrier_terms(1.0, psi, piece.omega):
        w = (complex(z) + zeta) * L
        mom = exp_poly_moments(w, len(qcoef) - 1)
        acc = 0.0j
        scale = 1.0
        for k, qk in enumerate(qcoef):
            acc += qk * scale * mom[k]
            scale *= L
        total += camp * acc
    return wgt * pref * L * total


def convolve_pieces(components, pieces, T: float, t0: float = 0.0) -> float:
    """Re sum over kernel terms and pieces of the exact convolution on [t0, T]."""
    total = 0.0j
    for piece in pieces:
        lo = max(piece.start, t0)
        hi = min(piece.stop, T)
        if hi <= lo:
            continue
        for wgt, z, pw in components:
            total += _piece_component_integral(wgt, z, pw, piece, T, lo, hi)
    return total.real


# ---------------------------------------------------------------------------
# Batched window increments of many modes on one grid

_BLOCK_ROWS = 1 << 15


def _basis_terms(g, gp):
    """Distinct (rate, power) pairs of a mode's kernels with their g and g' weights.

    g and g' share their exponential rates in every regime, so each
    integral tau^pw e^{z tau} is evaluated once and feeds both u and u'.
    """
    index: dict = {}
    for target, comps in enumerate((g, gp)):
        for wgt, z, pw in comps:
            index.setdefault((complex(z), pw), [0.0j, 0.0j])[target] += wgt
    return [(z, pw, wu, wp) for (z, pw), (wu, wp) in index.items()]


def window_increments(kernels, piece_lists, edges) -> tuple[np.ndarray, np.ndarray]:
    """Exact Duhamel increments of K modes over consecutive windows.

    ``kernels[k]`` is the (g, g') pair of mode k from kernel_components,
    ``piece_lists[k]`` its forcing pieces, and window i is
    [edges[i], edges[i+1]].  Returns (du, dup) of shape (len(edges) - 1, K):

        du[i, k] = int_{edges[i]}^{edges[i+1]} g_k(edges[i+1] - s) f_k(s) ds

    and likewise dup with g'.  Each piece overlaps a contiguous run of
    windows, found by binary search, so the work is O(grid + pieces) per mode
    rather than grid x pieces.  Every overlapping (window, piece, carrier,
    kernel term) row is then integrated in one array pass with the formula
    of convolve_pieces, and the rows are summed per (window, mode).
    """
    edges = np.asarray(edges, dtype=float)
    n_win, K = edges.size - 1, len(kernels)
    du = np.zeros(n_win * K)
    dup = np.zeros(n_win * K)
    # flat carrier rows: one per piece with omega = 0, two (e^{-i omega x}
    # and its conjugate) otherwise
    rows = [
        (k, pc, sign)
        for k, pieces in enumerate(piece_lists)
        for pc in pieces
        for sign in ((0.0,) if pc.omega == 0.0 else (-1.0, 1.0))
    ]
    if not rows:
        return du.reshape(n_win, K), dup.reshape(n_win, K)
    mode = np.array([k for k, _, _ in rows])
    sign = np.array([sg for _, _, sg in rows])
    start, stop, omega, phase = (
        np.array([getattr(pc, name) for _, pc, _ in rows], dtype=float)
        for name in ("start", "stop", "omega", "phase")
    )
    n_coef = max(len(pc.coeffs) for _, pc, _ in rows)
    coeffs = np.zeros((len(rows), n_coef))
    for j, (_, pc, _) in enumerate(rows):
        coeffs[j, : len(pc.coeffs)] = pc.coeffs

    # kernel terms, padded to a common count with zero weights
    basis = [_basis_terms(g, gp) for g, gp in kernels]
    n_terms = max(len(b) for b in basis)
    z_k = np.zeros((K, n_terms), dtype=complex)
    pw_k = np.zeros((K, n_terms), dtype=int)
    wu_k = np.zeros((K, n_terms), dtype=complex)
    wp_k = np.zeros((K, n_terms), dtype=complex)
    for k, terms in enumerate(basis):
        for j, (z, pw, wu, wp) in enumerate(terms):
            z_k[k, j], pw_k[k, j], wu_k[k, j], wp_k[k, j] = z, pw, wu, wp
    kmax = n_coef - 1 + int(pw_k.max())

    # windows overlapping each carrier row: first i with edges[i+1] > start,
    # up to the last i with edges[i] < stop
    first = np.searchsorted(edges[1:], start, side="right")
    count = np.maximum(np.searchsorted(edges[:-1], stop, side="left") - first, 0)
    row = np.repeat(np.arange(len(rows)), count)
    win = first[row] + np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)

    for s in range(0, row.size, _BLOCK_ROWS):
        r, i = row[s : s + _BLOCK_ROWS], win[s : s + _BLOCK_ROWS]
        k = mode[r]
        T = edges[i + 1]
        lo = np.maximum(start[r], edges[i])
        hi = np.minimum(stop[r], T)
        tau_a = T - hi
        L = (T - lo) - tau_a
        c = hi - start[r]  # local coordinate of s = hi in the piece
        # forcing polynomial in x = tau - tau_a: p(c - x), then times
        # (tau_a + x) for the power-1 terms
        q = poly_compose_affine_rows(coeffs[r], c, -1.0)
        if kmax == n_coef - 1:  # no power-1 kernel terms
            qk = q[:, None, :]
        else:
            q0 = np.concatenate([q, np.zeros((r.size, 1))], axis=1)
            q1 = tau_a[:, None] * q0
            q1[:, 1:] += q
            qk = np.where(pw_k[k][:, :, None] == 1, q1[:, None, :], q0[:, None, :])
        # carrier cos(psi - omega x) = sum of camp * exp(zeta x) over its rows
        psi = omega[r] * c + phase[r]
        camp = np.where(sign[r] == 0.0, np.cos(psi), 0.5 * np.exp(-1j * sign[r] * psi))
        zeta = 1j * sign[r] * omega[r]
        z = z_k[k]
        w = (z + zeta[:, None]) * L[:, None]
        mom = exp_poly_moments_array(w, kmax).reshape(w.shape + (kmax + 1,))
        acc = np.zeros(w.shape, dtype=complex)
        scale = np.ones(r.size)
        for j in range(kmax + 1):
            acc += (qk[:, :, j] * scale[:, None]) * mom[:, :, j]
            scale = scale * L
        # Re z <= 0 and tau_a >= 0: exp underflows to 0 where convolve_pieces
        # skips the row
        pref = np.exp(z * tau_a[:, None]) * L[:, None]
        val = camp[:, None] * acc
        slot = i * K + k
        du += np.bincount(slot, ((wu_k[k] * pref) * val).real.sum(axis=1), n_win * K)
        dup += np.bincount(slot, ((wp_k[k] * pref) * val).real.sum(axis=1), n_win * K)
    return du.reshape(n_win, K), dup.reshape(n_win, K)


def periodic_convolve(components, base_pieces, T0: float, t: float) -> float:
    """Whole-line response sum_comp wgt * int_0^inf tau^pw e^{z tau} f(t-tau) dtau.

    For a T0-periodic forcing the tail integral closes into a geometric
    series: with q = exp(z*T0) and J_k = int_0^{T0} tau^k e^{z tau} f(t-tau)
    dtau, the power-0 terms contribute J_0/(1-q) and the power-1 terms
    J_1/(1-q) + T0*q*J_0/(1-q)^2.
    """
    window_pieces = _periodic_window_pieces(base_pieces, T0, t)
    total = 0.0j
    for wgt, z, pw in components:
        z = complex(z)
        q = cmath.exp(z * T0)
        if z.imag == 0.0:
            # expm1 keeps the geometric factor accurate when the slow decay
            # rate makes q = e^{z T0} indistinguishable from 1 - tiny
            one_minus_q = -math.expm1(z.real * T0)
        else:
            one_minus_q = 1.0 - q
        j0 = _raw_power_integral(z, 0, window_pieces, t, t - T0)
        if pw == 0:
            total += wgt * j0 / one_minus_q
        else:
            j1 = _raw_power_integral(z, 1, window_pieces, t, t - T0)
            total += wgt * (j1 / one_minus_q + T0 * q * j0 / one_minus_q**2)
    return total.real


def _raw_power_integral(z, pw, pieces, T, t0) -> complex:
    acc = 0.0j
    for piece in pieces:
        lo = max(piece.start, t0)
        hi = min(piece.stop, T)
        if hi <= lo:
            continue
        acc += _piece_component_integral(1.0, z, pw, piece, T, lo, hi)
    return acc


def _periodic_window_pieces(base_pieces, T0: float, t: float):
    """Images of the base-period pieces covering the window [t - T0, t]."""
    n_lo = math.floor((t - T0) / T0) - 1
    n_hi = math.floor(t / T0) + 1
    out = []
    for n in range(n_lo, n_hi + 1):
        for piece in base_pieces:
            img = piece.shifted(n * T0)
            if img.stop > t - T0 and img.start < t:
                out.append(img)
    return out


# ---------------------------------------------------------------------------
# Node-based quadrature for callable forcings

_CHEB_DEGREE = 12


def _cheb_nodes(n: int) -> np.ndarray:
    # Chebyshev points mapped to [0, 1]
    return 0.5 * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))


def _fit_integral(z, pw, fvals_fn, tau_a: float, L: float, degree: int) -> complex:
    """int_{tau_a}^{tau_a+L} tau^pw e^{z tau} f~(tau) dtau by polynomial fit.

    f~ is sampled at Chebyshev nodes in theta = (tau - tau_a)/L; exactness
    holds for any forcing that is polynomial of degree <= `degree` on the
    interval times the exponential kernel.
    """
    zr = complex(z).real
    if zr * tau_a < _LOG_FLOOR:
        return 0.0j
    w = complex(z) * L
    if abs(w) > _SERIES_RADIUS:
        # substep cap was hit: fall back to the recurrence-safe degree; the
        # refinement estimate will surface whatever accuracy this costs
        degree = min(degree, MAX_RECURRENCE_K)
    theta = _cheb_nodes(degree)
    taus = tau_a + L * theta
    vals = fvals_fn(taus)
    if pw == 1:
        vals = vals * taus
    coef = np.polynomial.polynomial.polyfit(theta, vals, degree)
    mom = exp_poly_moments(w, degree)
    total = np.dot(coef, mom[: coef.size])
    return cmath.exp(complex(z) * tau_a) * L * total


def convolve_callable(
    components,
    fn,
    breakpoints,
    T: float,
    t0: float = 0.0,
    tol: float = 1e-10,
    degree: int = _CHEB_DEGREE,
    max_substeps: int = 4096,
) -> tuple[float, float]:
    """(value, error estimate) of int_{t0}^{T} kernel(T-s) f(s) ds.

    Substeps keep |z*L| <= 8 so the series moments stay accurate; each
    substep is checked against its two-half refinement, and if the summed
    estimate exceeds ``tol`` an AccuracyWarning carrying the achieved bound
    is emitted (the value is still returned).
    """
    cuts = sorted({t0, T, *[b for b in breakpoints if t0 < b < T]})
    total = 0.0
    err = 0.0

    def ftau(taus):
        return np.asarray(fn(T - taus), dtype=float)

    for lo, hi in zip(cuts, cuts[1:]):
        tau_a0 = T - hi
        tau_b0 = T - lo
        for wgt, z, pw in components:
            zmag = abs(complex(z))
            span = tau_b0 - tau_a0
            nsub = max(1, min(max_substeps, math.ceil(span * zmag / _SERIES_RADIUS)))
            width = span / nsub
            acc = 0.0j
            est = 0.0
            for i in range(nsub):
                a = tau_a0 + i * width
                coarse = _fit_integral(z, pw, ftau, a, width, degree)
                fine = _fit_integral(z, pw, ftau, a, 0.5 * width, degree) + _fit_integral(
                    z, pw, ftau, a + 0.5 * width, 0.5 * width, degree
                )
                acc += fine
                est += abs(fine - coarse)
                if complex(z).real * (a + width) < _LOG_FLOOR:
                    break
            total += (wgt * acc).real
            err += abs(wgt) * est
    if err > tol:
        warnings.warn(
            AccuracyWarning(
                f"convolution quadrature achieved {err:.3e} > tol {tol:.3e}", achieved=err
            ),
            stacklevel=2,
        )
    return total, err

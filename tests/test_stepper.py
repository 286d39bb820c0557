"""The batched Duhamel stepper against point evaluation and extended precision."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from fracdamp._expconv import exp_poly_moments, exp_poly_moments_array
from fracdamp.charpoly import DampingParams, Regime, roots
from fracdamp.duhamel import duhamel_quadrature, forced_mode_at, forced_solve
from fracdamp.errors import AccuracyWarning, ValidationError
from fracdamp.forcing import (
    CallableForcing,
    CompositeMode,
    ConstantForcing,
    ForcingSpec,
    PiecewiseSamples,
    WindowedSinusoid,
    ZeroForcing,
    poly_compose_affine,
    poly_compose_affine_rows,
)
from fracdamp.spectrum import SpectrumModel

_rng = np.random.default_rng(17)

FORCINGS = {
    "samples-2": PiecewiseSamples((0.1, 1.3), (0.4, -0.7)),
    "samples-9": PiecewiseSamples(tuple(np.linspace(0.0, 2.0, 9)), tuple(_rng.uniform(-1, 1, 9))),
    "samples-65": PiecewiseSamples(tuple(np.linspace(0.0, 2.0, 65)), tuple(_rng.uniform(-1, 1, 65))),
    "windowed-ramped": WindowedSinusoid(0.8, 5.0, 0.3, 0.1, 2.7, ramp=0.2),
    "windowed-sharp": WindowedSinusoid(1.1, 17.0, -0.4, 0.35, 1.9),
    "composite": CompositeMode(
        (WindowedSinusoid(0.5, 0.0, 0.0, 0.0, 1.0, ramp=0.1),
         WindowedSinusoid(-0.5, 3.0, 0.2, 1.0, 2.0, ramp=0.1))
    ),
    "constant": ConstantForcing(0.9),
    "zero": ZeroForcing(),
}

GRIDS = {
    "uniform": np.linspace(0.0, 2.0, 65),
    "nonuniform": np.sort(_rng.uniform(0.0, 3.0, 40)),
    "log": np.logspace(-3.0, 1.0, 50),
    "offset": np.linspace(0.7, 2.5, 33),
}

# (sigma, delta, eigenvalues): sigma = 1 puts lambda < 1, = 1 and > 1 in the
# oscillatory, double-root and real-pair regimes, so one solve mixes all three
SPECTRA = {
    "mixed": (1.0, 1.0, (0.25, 1.0, 4.0, 1e4)),
    "oscillatory": (0.0, 0.5, (3.0, 400.0)),
    "stiff": (0.75, 0.3, (50.0, 1e6)),
}


def _spectrum(lams):
    return SpectrumModel(np.asarray(lams, dtype=float))


def _peaks(r, f, t_end):
    """max |u| and max |u'| of the point values on a uniform grid over [0, t_end].

    Errors are measured against these or the reference's maxima on the test
    grid, whichever is larger: a grid that starts late can sample only the
    decayed tail, whose values sit below the roundoff of the terms that
    built them.
    """
    vals = np.abs([forced_mode_at(r, f, float(t)) for t in np.linspace(0.0, t_end, 17)])
    return vals[:, 0].max(), vals[:, 1].max()


@pytest.mark.parametrize("grid", list(GRIDS))
@pytest.mark.parametrize("forcing", list(FORCINGS))
@pytest.mark.parametrize("spectrum", list(SPECTRA))
def test_stepper_matches_point_evaluation(spectrum, forcing, grid):
    # forced_mode_at integrates [0, t] in one window, where |w| runs up to the
    # series radius and the moments lose digits: against extended precision
    # it is off by up to 7e-12 of max|u| on these inputs (stiff, constant,
    # offset), the stepper by 2e-13.  Accuracy proper is checked against
    # mpmath below; this matrix checks the batching across regimes,
    # forcings and grids.
    sig, dl, lams = SPECTRA[spectrum]
    p = DampingParams(sig, dl)
    f = FORCINGS[forcing]
    tg = GRIDS[grid]
    m = _spectrum(lams)
    traj = forced_solve(m, p, ForcingSpec((f,) * m.K), tg)
    regimes = set()
    for k, lam in enumerate(lams):
        r = roots(p, lam)
        regimes.add(r.regime)
        ref = np.array([forced_mode_at(r, f, float(t)) for t in tg])
        peaks = _peaks(r, f, tg[-1])
        for got, want, peak in ((traj.u[:, k], ref[:, 0], peaks[0]), (traj.uprime[:, k], ref[:, 1], peaks[1])):
            assert np.max(np.abs(got - want)) <= 1e-11 * max(peak, np.max(np.abs(want)))
    if spectrum == "mixed":
        assert regimes == set(Regime)


def test_mixed_forcings_in_one_solve():
    p = DampingParams(1.0, 1.0)
    m = _spectrum((0.25, 1.0, 4.0, 9.0, 1e4))
    modes = (FORCINGS["samples-65"], FORCINGS["zero"], FORCINGS["composite"],
             FORCINGS["windowed-ramped"], FORCINGS["constant"])
    spec = ForcingSpec(modes, scale=0.5)
    tg = GRIDS["uniform"]
    traj = forced_solve(m, p, spec, tg)
    assert not traj.u[:, 1].any() and not traj.uprime[:, 1].any()
    for k, f in enumerate(modes):
        single = duhamel_quadrature(roots(p, float(m.eigenvalues[k])), f, tg)
        assert np.max(np.abs(traj.u[:, k] - 0.5 * single.u)) <= 1e-15 * max(np.max(np.abs(single.u)), 1e-300)
        assert np.max(np.abs(traj.uprime[:, k] - 0.5 * single.uprime)) <= 1e-15 * max(
            np.max(np.abs(single.uprime)), 1e-300
        )


# ---------------------------------------------------------------------------
# extended-precision reference on the program's own roots


def _mp_kernels(r):
    x1, x2 = mp.mpf(r.x1), mp.mpf(r.x2)
    if r.regime is Regime.REAL_PAIR:
        gap = x1 - x2
        return (lambda s: (mp.exp(-x2 * s) - mp.exp(-x1 * s)) / gap,
                lambda s: (-x2 * mp.exp(-x2 * s) + x1 * mp.exp(-x1 * s)) / gap)
    if r.regime is Regime.DOUBLE_ROOT:
        return (lambda s: s * mp.exp(-x1 * s), lambda s: (1 - x1 * s) * mp.exp(-x1 * s))
    return (lambda s: mp.exp(-x1 * s) * mp.sin(x2 * s) / x2,
            lambda s: mp.exp(-x1 * s) * (mp.cos(x2 * s) - x1 * mp.sin(x2 * s) / x2))


def _mp_response(r, f, t):
    g, gp = _mp_kernels(r)
    u = up = mp.mpf(0)
    t = mp.mpf(t)
    for pc in f.pieces():
        lo, hi = max(pc.start, 0.0), min(pc.stop, float(t))
        if hi <= lo:
            continue

        def force(s, pc=pc):
            x = s - mp.mpf(pc.start)
            poly = sum(mp.mpf(c) * x**i for i, c in enumerate(pc.coeffs))
            return poly * mp.cos(mp.mpf(pc.omega) * x + mp.mpf(pc.phase))

        u += mp.quad(lambda s: g(t - s) * force(s), [lo, hi])
        up += mp.quad(lambda s: gp(t - s) * force(s), [lo, hi])
    return float(u), float(up)


def _mp_relative_error(r, f, tg, every=1):
    """Stepper error against mpmath at every ``every``-th grid time."""
    traj = duhamel_quadrature(r, f, tg)
    with mp.workdps(30):
        ref = np.array([_mp_response(r, f, float(t)) for t in tg[::every]])
    peaks = _peaks(r, f, tg[-1])
    return max(
        np.max(np.abs(got - want)) / max(peak, np.max(np.abs(want)))
        for got, want, peak in ((traj.u[::every], ref[:, 0], peaks[0]), (traj.uprime[::every], ref[:, 1], peaks[1]))
    )


@pytest.mark.parametrize(
    "sig,dl,lam,forcing,grid",
    [
        (0.25, 1.0, 50.0, "samples-2", np.linspace(0.0, 2.0, 9)),
        (1.0, 1.0, 1.0, "windowed-ramped", np.linspace(0.7, 2.5, 7)),
        (1.0, 1.0, 4.0, "constant", np.logspace(-2.0, 1.0, 7)),
        (2.0, 1.0, 1e4, "composite", np.array([0.05, 0.3, 0.31, 1.2, 1.9])),
        (0.5, 1.001, 4.0, "windowed-sharp", np.linspace(0.0, 2.0, 65)),
        (0.75, 0.3, 50.0, "constant", np.linspace(0.7, 2.5, 33)),
    ],
)
def test_stepper_matches_extended_precision(sig, dl, lam, forcing, grid):
    # the moment series loses up to ~4e-12 as |w| = |rate * step| nears 8,
    # so the bound holds for grids that keep |w| well inside that radius
    r = roots(DampingParams(sig, dl), lam)
    assert _mp_relative_error(r, FORCINGS[forcing], grid, every=max(1, grid.size // 8)) <= 1e-13


@pytest.mark.parametrize("offset", [-1e-9, -5e-10, -1e-10, 0.0, 1e-10, 5e-10, 1e-9])
def test_double_root_band(offset):
    # within 1e-9 of delta = 1 at sigma = 1/2 the kernels carry 1/gap (or
    # 1/b) cancellation, which costs up to ~1e-11 here
    r = roots(DampingParams(0.5, 1.0 + offset), 4.0)
    grid = np.linspace(0.0, 2.0, 5)
    for f in (WindowedSinusoid(1.0, 3.0, 0.2, 0.1, 1.6, ramp=0.2), ConstantForcing(1.0)):
        assert _mp_relative_error(r, f, grid) <= 1e-10


# ---------------------------------------------------------------------------
# callable forcings and argument checks


def test_callable_forcing_shares_the_stepper():
    p = DampingParams(0.0, 1.0)
    m = _spectrum((4.0, 9.0))
    fn = CallableForcing(lambda t: np.sin(3.0 * np.asarray(t)) ** 2, breaks=(), sup_bound=1.0)
    analytic = CompositeMode(
        (WindowedSinusoid(0.5, 0.0, 0.0, 0.0, 50.0), WindowedSinusoid(-0.5, 6.0, 0.0, 0.0, 50.0))
    )
    tg = np.linspace(0.2, 2.0, 5)
    traj = forced_solve(m, p, ForcingSpec((analytic, fn)), tg, tol=1e-9)
    for k in range(2):
        r = roots(p, float(m.eigenvalues[k]))
        ref = np.array([forced_mode_at(r, analytic, float(t)) for t in tg])
        assert np.max(np.abs(traj.u[:, k] - ref[:, 0])) <= 1e-9
        assert np.max(np.abs(traj.uprime[:, k] - ref[:, 1])) <= 1e-8
    single = duhamel_quadrature(roots(p, 9.0), fn, tg, tol=1e-9)
    assert 0.0 < single.error_estimate <= 1e-9 * 2 * tg.size
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        forced_solve(m, p, ForcingSpec((analytic, fn)), np.array([1.0]), tol=1e-18)
    hits = [w.message for w in caught if isinstance(w.message, AccuracyWarning)]
    assert hits and all(w.achieved > 1e-18 for w in hits)


@pytest.mark.parametrize("grid", [np.array([]), np.array([-0.1, 1.0]), np.array([0.0, 1.0, 1.0]),
                                  np.zeros((2, 2))])
def test_grid_validation(grid):
    with pytest.raises(ValidationError):
        duhamel_quadrature(roots(DampingParams(1.0, 1.0), 4.0), ConstantForcing(1.0), grid)


# ---------------------------------------------------------------------------
# array kernels against their scalar versions


def test_moment_array_matches_scalar_in_both_branches():
    rng = np.random.default_rng(3)
    w = np.concatenate([
        rng.uniform(-12.0, 0.0, 300) + 1j * rng.uniform(-12.0, 12.0, 300),
        [0.0, 1e-12, -8.0, 8j, -8.0001, -300.0 + 40j],
    ])
    got = exp_poly_moments_array(w, 3)
    assert got.shape == (w.size, 4)
    for row, x in zip(got, w):
        ref = np.asarray(exp_poly_moments(complex(x), 3))
        # both branches lose a few digits to cancellation as |w| nears 8
        assert np.all(np.abs(row - ref) <= 1e-11 * np.abs(ref))


def test_moment_array_keeps_the_recurrence_limit():
    with pytest.raises(ValueError):
        exp_poly_moments_array(np.array([-20.0]), 7)
    assert exp_poly_moments_array(np.array([-2.0]), 9).shape == (1, 10)


def test_compose_rows_matches_scalar():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(20, 4))
    a = rng.normal(size=20)
    got = poly_compose_affine_rows(coeffs, a, -1.0)
    for row, c, shift in zip(got, coeffs, a):
        assert tuple(row) == poly_compose_affine(tuple(c), float(shift), -1.0)
    assert math.isclose(poly_compose_affine_rows([[1.0, 2.0, 3.0]], 0.5, 2.0)[0, 2], 12.0)

import math

import numpy as np
import pytest

from fracdamp import counterexamples as ce
from fracdamp.charpoly import DampingParams, roots
from fracdamp.duhamel import forced_mode_at
from fracdamp.errors import CapacityError, PreconditionError
from fracdamp.forcing import ZeroForcing
from fracdamp.probe import Verdict, membership_diagnosis, truncation_levels, weighted_partial_sums
from fracdamp.spectrum import geometric_spectrum, partition_interleave


class TestDivergentWeights:
    def test_four_term_example(self):
        w = ce.divergent_weights(1.0, 4)
        c = math.sqrt(1.0 + 0.25 + 1.0 / 9.0 + 1.0 / 16.0)
        assert w.amplitudes == pytest.approx(tuple(1.0 / (c * (k + 1)) for k in range(4)))

    def test_budget_exact(self):
        for eta in (0.5, 1.0, 2.0):
            w = ce.divergent_weights(eta, 32)
            assert w.sum_sq() == pytest.approx(eta * eta, rel=1e-12)

    def test_eventual_increase_threshold(self):
        # 2^(2 eps) ((k+1)/(k+2))^2 > 1 from k = 13 on at eps = 0.1 (solve
        # (k+2)/(k+1) < 2^(eps) for integer k against a base-2 spectrum)
        w = ce.divergent_weights(1.0, 40)
        lams = 2.0 ** np.arange(40)
        start = w.eventual_increase_start(lams, 0.1)
        assert start == 13
        for eps in (0.05, 0.1, 0.5):
            assert w.eventual_increase_start(lams, eps) is not None


class TestStatement3:
    def test_precondition(self):
        m = geometric_spectrum(8, 2.0)
        with pytest.raises(PreconditionError):
            ce.statement3_constant_force(DampingParams(0.5, 1.0), ce.divergent_weights(1.0, 8), m)

    def test_null_at_zero_everywhere_converged(self):
        # at t = 0 all partial sums vanish: converged at every exponent
        m = geometric_spectrum(64, 2.0)
        sums = weighted_partial_sums(m.eigenvalues, np.zeros(64), 2.1, truncation_levels(64))
        assert membership_diagnosis(sums).verdict is Verdict.CONVERGED

    def test_sup_norm_of_constant_spec(self):
        m = geometric_spectrum(16, 2.0)
        w = ce.divergent_weights(0.7, 16)
        spec = ce.statement3_constant_force(DampingParams(2.0, 1.0), w, m)
        ts = np.linspace(0.0, 5.0, 64)
        assert float(np.max(spec.norm_at(ts))) <= 0.7 * (1.0 + 1e-12)


class TestBlowupTriples:
    def test_precondition_range(self):
        for sig in (0.0, 1.0, 1.5):
            with pytest.raises(PreconditionError):
                ce.blowup_triple(DampingParams(sig, 1.0))

    def test_exponents(self):
        tr = ce.blowup_triple(DampingParams(0.75, 1.0))
        assert (tr.sigma0, tr.sigma1) == (1.0, 0.75)
        tr = ce.blowup_triple(DampingParams(0.25, 1.0))
        assert (tr.sigma0, tr.sigma1) == (0.75, 0.25)

    def test_constants_match_values_at_large_lam(self):
        for sig, dl, tol in ((0.75, 1.0, 0.02), (0.5, 1.0, 1e-10), (0.25, 1.0, 0.02),
                             (0.5, 2.0, 1e-10), (0.5, 0.5, 1e-10), (0.6, 1.3, 0.02)):
            p = DampingParams(sig, dl)
            tr = ce.blowup_triple(p)
            assert tr.c0 > 0.0 and tr.c1 > 0.0
            v0, v1 = ce.blowup_values(p, tr, 1e8)
            assert abs(v0 - tr.c0) <= tol * tr.c0
            assert abs(v1 - tr.c1) <= tol * tr.c1

    def test_tau_shrinks(self):
        tr = ce.blowup_triple(DampingParams(0.75, 1.0))
        taus = [tr.tau(10.0**j) for j in range(2, 9)]
        assert all(b < a for a, b in zip(taus, taus[1:]))
        assert taus[-1] < 0.05  # tau ~ 2 lam^(sigma-1) at sigma = 3/4


class TestWindowShift:
    def test_support_and_bounds(self):
        p = DampingParams(0.75, 1.0)
        tr = ce.blowup_triple(p)
        g, B = ce.window_shift_force(p, tr, 0.0, 1.0, 1e8)
        assert 0.0 < g.start and g.stop == B < 1.0
        assert abs(g.amplitude) <= 1.0
        ts = np.linspace(0.0, 1.0, 10001)
        vals = np.asarray(g(ts))
        assert float(np.max(np.abs(vals))) <= 1.0 + 1e-12
        outside = (ts <= g.start) | (ts >= g.stop)
        assert np.max(np.abs(vals[outside])) == 0.0

    def test_half_constant_certificates(self):
        p = DampingParams(0.25, 1.0)
        tr = ce.blowup_triple(p)
        lam = 1e8
        g, _ = ce.window_shift_force(p, tr, 0.2, 1.0, lam)
        r = roots(p, lam)
        u, up = forced_mode_at(r, g, 1.0)
        assert lam**tr.sigma0 * abs(u) >= 0.5 * tr.c0
        assert lam**tr.sigma1 * abs(up) >= 0.5 * tr.c1

    def test_pulse_must_fit(self):
        p = DampingParams(0.75, 1.0)
        tr = ce.blowup_triple(p)
        with pytest.raises(PreconditionError):
            ce.window_shift_force(p, tr, 0.999, 1.0, 100.0)

    def test_threshold_guard(self):
        p = DampingParams(0.75, 1.0)
        tr = ce.blowup_triple(p)
        with pytest.raises(PreconditionError):
            ce.window_shift_force(p, tr, 0.0, 100.0, 2.0)  # lam far below the regime


class TestAssembly:
    def test_two_target_resonant_assembly(self):
        p = DampingParams(0.0, 1.0)
        m = geometric_spectrum(64, 2.0, scale=2.0)
        parts = partition_interleave(m, 2)
        spec, sched = ce.assemble_disjoint(p, m, (0.5, 1.0), parts)
        assert spec.sup_norm() <= math.sqrt(1.0 + 0.25) + 1e-12
        ts = np.linspace(0.0, 1.0, 10001)
        assert float(np.max(spec.norm_at(ts))) <= spec.sup_norm() + 1e-9
        assert sched.budgets == (1.0, 0.5)

    def test_blowup_chain_windows_disjoint(self):
        # pulse lengths shrink like lam^(sigma-1): each disjoint window must
        # fit inside the previous mollifier gap, so the chain eats eigenvalue
        # range quickly and wants a fast-growing spectrum
        p = DampingParams(0.75, 1.0)
        m = geometric_spectrum(96, 4.0, scale=16.0)
        parts = partition_interleave(m, 2)
        spec, sched = ce.assemble_disjoint(p, m, (0.6, 1.1), parts, modes_per_target=12)
        for n, used in enumerate(sched.modes_used):
            assert len(used) >= 11
            windows = []
            for k in used:
                v = spec.mode(int(k))
                windows.append((v.start, v.stop))
            windows.sort()
            for (a0, b0), (a1, b1) in zip(windows, windows[1:]):
                assert b0 <= a1 + 1e-12  # disjoint, accumulating toward the target
            assert windows[-1][1] < sched.targets[n]

    def test_ablation_leaves_other_parts_untouched(self):
        # per-mode forcings are independent objects: deleting part 1 changes
        # nothing about part 0's trajectories, exactly
        p = DampingParams(0.0, 1.0)
        m = geometric_spectrum(64, 2.0, scale=2.0)
        parts = partition_interleave(m, 2)
        spec, sched = ce.assemble_disjoint(p, m, (0.5, 1.0), parts)
        keep = sched.modes_used[0]
        vals_before = {}
        for k in keep:
            r = roots(p, float(m.eigenvalues[k]))
            vals_before[k] = forced_mode_at(r, spec.mode(int(k)), 0.5)
        ablated = list(spec.modes)
        for k in sched.modes_used[1]:
            ablated[int(k)] = ZeroForcing()
        for k in keep:
            r = roots(p, float(m.eigenvalues[k]))
            assert forced_mode_at(r, ablated[int(k)], 0.5) == vals_before[k]

    def test_capacity_guard(self):
        p = DampingParams(0.75, 1.0)
        m = geometric_spectrum(12, 2.0)
        with pytest.raises(CapacityError):
            ce.assemble_disjoint(p, m, (0.5,), [np.arange(12)], modes_per_target=16)

    def test_pulses_below_time_resolution_are_skipped(self):
        # at lam ~ 4e31 the pulse length (~1.6e-16) is below the spacing of
        # doubles near T = 0.5, so its window cannot hold the ramps; such
        # modes are skipped like any other unusable mode
        p = DampingParams(0.5, 1.0)
        m = geometric_spectrum(128, 2.0, scale=2.0)
        parts = partition_interleave(m, 2)
        triple = ce.blowup_triple(p)
        with pytest.raises(PreconditionError):
            ce.window_shift_force(p, triple, 0.5 - 2e-16, 0.5, 4.056481920730334e31)
        try:
            spec, sched = ce.assemble_disjoint(p, m, (0.5, 1.0), parts)
        except CapacityError:
            return
        assert all(len(used) >= 11 for used in sched.modes_used)


class TestSchedule:
    def test_doubling_indices(self):
        alphas = [2.0**-k for k in range(12)]
        ks, Ts = ce.unbounded_schedule(alphas)
        assert ks == list(range(12))
        assert Ts == pytest.approx([2.0 ** (n + 1) - 1.0 for n in range(12)])

    def test_certified_bound(self):
        alphas = [2.0**-k for k in range(12)]
        ks, Ts = ce.unbounded_schedule(alphas)
        masses = ce.schedule_certificates(alphas, ks, Ts)
        assert all(mass >= ce.SCHEDULE_BOUND for mass in masses)

    def test_single_entry(self):
        ks, Ts = ce.unbounded_schedule([0.5])
        assert ks == [0] and Ts == [2.0]

    def test_incomplete_schedule_error(self):
        with pytest.raises(CapacityError):
            ce.unbounded_schedule([1.0, 1.0, 1.0], min_length=3)


class TestStatement4:
    def setup_method(self):
        self.p = DampingParams(2.0, 1.0)
        self.m = geometric_spectrum(160, 2.0)
        self.parts = partition_interleave(self.m, 4)

    def test_certificate_holds(self):
        cert = ce.statement4_force(self.p, self.m, self.parts[0], 3.0, 1.0)
        assert cert.au_sq >= 3.0
        assert cert.av_norm <= cert.eta
        assert all(b > a for a, b in zip(cert.switch_times, cert.switch_times[1:]))

    def test_forcing_envelope_bounded_and_disjoint(self):
        cert = ce.statement4_force(self.p, self.m, self.parts[0], 2.0, 0.9)
        ys = np.linspace(0.0, cert.T, 10000)
        total = np.zeros_like(ys)
        for k in set(s[0] for s in cert.forcing.slots):
            env = cert.forcing.envelope(k, ys)
            assert float(np.max(env)) <= 1.0
            total += env**2
        assert float(np.max(np.sqrt(total))) <= 1.0 + 1e-12

    def test_precondition_and_capacity(self):
        with pytest.raises(PreconditionError):
            ce.statement4_force(DampingParams(1.0, 1.0), self.m, self.parts[0], 1.0, 1.0)
        small = geometric_spectrum(12, 2.0)
        with pytest.raises(CapacityError) as exc:
            ce.statement4_force(self.p, small, np.arange(12), 50.0, 0.5)
        assert exc.value.max_achievable is not None

    def test_sequence_targets_and_growth(self):
        asm = ce.statement4_sequence(self.p, self.m, 4)
        for n, c in enumerate(asm.certificates, start=1):
            assert c.au_sq >= n
        ts = list(asm.times)
        assert all(b / a > 4.0 for a, b in zip(ts, ts[1:]))
        au = np.array([c.au_sq for c in asm.certificates])
        slope = np.polyfit(np.arange(1, 5), au, 1)[0]
        assert slope >= 0.9

    def test_growth_series_is_log_linear(self):
        ts, au = ce.statement4_growth_series(self.p, self.m, np.arange(64), n_points=10)
        x = np.log1p(ts)
        r = np.corrcoef(x, au)[0, 1]
        assert r**2 >= 0.99

    def test_sequence_rejects_part_reuse(self):
        with pytest.raises(Exception) as exc:
            ce.statement4_sequence(self.p, self.m, 4, stride=2)
        assert "fresh" in str(exc.value)

from dataclasses import replace
import math
import os
from pathlib import Path
import subprocess
import sys

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

import alignor.dynamics
from alignor.dynamics import (
    RAISED_COS_10_90,
    CouplingParams,
    SweepProtocol,
    UnreachableThresholdError,
    _segments,
    default_tau_flip,
    effective_field_from_transient,
    latch_scan,
    predict_flip_field,
    sweep_profile,
)
from alignor.instrument import run_sweep
from alignor.spincore import EnsembleParams

P = EnsembleParams(gamma_over_2pi=3.5, relax_rate=60.0, m0=1.0, a0=1.0)
FS = 50.0      # Hz, the sample rate of the sweeps below unless they name one
SRC = Path(__file__).resolve().parent.parent / "src"


def triangle(b=15.0, rate=1.0, **kw):
    return SweepProtocol(bx_start=-b, bx_end=b, rate=rate, **kw)


class TestPredictFlipField:
    def test_no_threshold_no_hysteresis(self):
        assert predict_flip_field(P, CouplingParams(kappa=5.0, my0=0.0)) == 0.0

    def test_scaling(self):
        c = CouplingParams(kappa=5.0, my0=0.1)
        b0 = predict_flip_field(P, c)
        assert b0 == pytest.approx(60.0 * 0.1 / (2 * math.pi * 3.5))
        p2 = EnsembleParams(gamma_over_2pi=3.5, relax_rate=120.0)
        assert predict_flip_field(p2, c) == pytest.approx(2 * b0)
        assert predict_flip_field(replace(P, m0=2.0), c) == pytest.approx(b0 / 2)

    def test_hyperbolic_chi_trend(self):
        # Gamma(chi) linear, m0 = sin(2 chi): B_x0(chi) follows ~ a + b/chi
        from alignor.fitkit import fit_trend

        chi = np.linspace(0.1, 1.0, 15)
        gamma_nt = 5.0 + 4.0 * chi            # width in nT
        c = CouplingParams(kappa=5.0, my0=0.002)
        b0 = np.array([
            predict_flip_field(
                EnsembleParams(gamma_over_2pi=3.5,
                               relax_rate=g * 2 * math.pi * 3.5,
                               m0=math.sin(math.radians(2 * x))), c)
            for g, x in zip(gamma_nt, chi)])
        res = fit_trend(chi, b0, "hyperbola")
        resid = b0 - (res.params[0] + res.params[1] / chi)
        assert np.sqrt(np.mean(resid**2)) < 0.05 * (b0.max() - b0.min())

    def test_nonpositive_m0_is_value_error(self):
        with pytest.raises(ValueError, match="m0 must be > 0"):
            predict_flip_field(replace(P, m0=0.0), CouplingParams(kappa=5.0, my0=0.0))

    def test_unreachable_threshold(self):
        with pytest.raises(UnreachableThresholdError):
            predict_flip_field(replace(P, m0=0.05), CouplingParams(kappa=5.0, my0=0.1))


class TestEffectiveFieldFromTransient:
    def test_weak_pump_preset_value(self):
        p = EnsembleParams(gamma_over_2pi=1.27)
        assert effective_field_from_transient(0.716, p) == pytest.approx(1.10, abs=0.005)

    def test_strong_pump_value(self):
        assert effective_field_from_transient(0.716, P) == pytest.approx(0.399, abs=0.001)

    def test_limits_and_errors(self):
        assert effective_field_from_transient(1e12, P) == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(ValueError):
            effective_field_from_transient(0.0, P)


def per_sample_profile(proto, sample_rate):
    """sweep_profile's per-sample form: the oracle for its fill by segment."""
    segs = _segments(proto)
    durations = np.array([s[0] for s in segs])
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    dt = 1.0 / sample_rate
    n = int(math.floor(edges[-1] / dt)) + 1
    t = np.arange(n) * dt
    k = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, len(segs) - 1)
    b0 = np.array([s[1] for s in segs])[k]
    slope = np.array([s[2] for s in segs])[k]
    bx = b0 + slope * (t - edges[k])
    return t, bx, np.sign(slope)


def assert_profile_matches_oracle(proto, sample_rate):
    for got, want in zip(sweep_profile(proto, sample_rate),
                         per_sample_profile(proto, sample_rate)):
        assert got.tobytes() == want.tobytes()


class TestSweepProfile:
    @pytest.mark.parametrize("pattern", ["up", "down", "triangle"])
    @pytest.mark.parametrize("hold_time", [None, 0.0, 2.3, 7.5])
    @pytest.mark.parametrize("sample_rate", [128.0, 333.0])
    def test_fill_by_segment_matches_per_sample_oracle(self, pattern, hold_time,
                                                       sample_rate):
        hold = {} if hold_time is None else {"hold_on_zero": True, "hold_time": hold_time}
        assert_profile_matches_oracle(SweepProtocol(
            bx_start=-6.3, bx_end=4.1, rate=1.7, direction_pattern=pattern,
            **hold), sample_rate)

    @settings(max_examples=60, deadline=None)
    @given(pattern=st.sampled_from(["up", "down", "triangle"]),
           start=st.floats(-12.0, 3.0), end=st.floats(-3.0, 12.0),
           rate=st.floats(0.2, 5.0), hold=st.booleans(), hold_time=st.floats(0.0, 5.0),
           sample_rate=st.floats(5.0, 1000.0))
    def test_fill_by_segment_matches_oracle_anywhere(self, pattern, start, end, rate,
                                                     hold, hold_time, sample_rate):
        assume(start != end)
        assert_profile_matches_oracle(SweepProtocol(
            bx_start=start, bx_end=end, rate=rate, direction_pattern=pattern,
            hold_on_zero=hold, hold_time=hold_time), sample_rate)

    def test_triangle_shape(self):
        t, bx, d = sweep_profile(triangle(b=10.0, rate=2.0), FS)
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert np.allclose(np.diff(t), np.diff(t)[0])
        assert bx[0] == pytest.approx(-10.0)
        assert bx.max() == pytest.approx(10.0, abs=0.1)
        assert bx[-1] == pytest.approx(-10.0, abs=0.1)
        assert set(np.unique(d)) <= {-1.0, 0.0, 1.0}

    def test_oversized_scan_rejected_before_allocating(self):
        # +-1e6 nT at the preset 0.8 nT/s and 500 Hz: 2.5e9 samples, 20 GB of t
        proto = triangle(b=1e6, rate=0.8)
        with pytest.raises(ValueError, match=r"2\.5e\+09 samples"):
            sweep_profile(proto, 500.0)

    @pytest.mark.parametrize("sample_rate", [0.0, -50.0, math.nan])
    def test_sample_rate_must_be_positive(self, sample_rate):
        with pytest.raises(ValueError, match="sample_rate must be > 0"):
            sweep_profile(triangle(), sample_rate)

    def test_protocol_has_no_sample_rate(self):
        # a scan has one sampling rate, its caller's: the protocol holds none
        with pytest.raises(TypeError):
            triangle(sample_rate=FS)

    def test_hold_on_zero_inserts_dwell(self):
        proto = SweepProtocol(bx_start=5.0, bx_end=-5.0, rate=1.0,
                              direction_pattern="up", hold_on_zero=True,
                              hold_time=20.0)
        t, bx, d = sweep_profile(proto, 20.0)
        dwell = np.sum(np.abs(bx) < 1e-9) / 20.0
        assert dwell == pytest.approx(20.0, abs=0.2)
        assert t[-1] == pytest.approx(30.0, abs=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepProtocol(bx_start=0.0, bx_end=0.0, rate=1.0)
        with pytest.raises(ValueError):
            SweepProtocol(bx_start=0.0, bx_end=1.0, rate=-1.0)
        with pytest.raises(ValueError):
            SweepProtocol(bx_start=0.0, bx_end=1.0, rate=1.0, ellipticity_deg=50.0)
        with pytest.raises(ValueError):
            SweepProtocol(bx_start=0.0, bx_end=1.0, rate=1.0,
                          direction_pattern="sideways")


class TestTimeBaseMemo:
    def test_same_shape_returns_the_same_read_only_arrays(self):
        proto = triangle(b=4.0, rate=2.0)
        first = sweep_profile(proto, FS)
        # static fields and the ellipticity do not enter the time base
        again = sweep_profile(replace(proto, static_by=0.3, ellipticity_deg=1.0), FS)
        assert all(a is b for a, b in zip(first, again))
        for a in first:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0
        assert_profile_matches_oracle(proto, FS)

    def test_holds_the_two_most_recently_used_shapes(self):
        memo = alignor.dynamics._TIME_BASES
        shapes = [triangle(b=b, rate=2.0) for b in (3.0, 5.0, 7.0)]
        profiles = [sweep_profile(proto, FS) for proto in shapes]
        assert alignor.dynamics.TIME_BASES_KEPT == len(memo) == 2
        # the first shape was evicted, so it is laid out anew
        assert sweep_profile(shapes[0], FS)[0] is not profiles[0][0]
        assert sweep_profile(shapes[2], FS)[0] is profiles[2][0]
        assert len(memo) == 2

    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_are_different_shapes(self, zeros):
        # a down ramp from bx_end = -0.0 starts at -0.0, from 0.0 at 0.0
        for zero in zeros:
            assert_profile_matches_oracle(SweepProtocol(
                bx_start=-3.0, bx_end=zero, rate=1.0, direction_pattern="down"), 10.0)

    def test_shared_arrays_store_nothing_for_another_t(self):
        t = sweep_profile(triangle(b=2.0), FS)[0]
        calls = []

        def make():
            calls.append(1)
            return (2.0 * t,)

        held = alignor.dynamics.shared_arrays(t, "test", (2.0,), make)
        assert alignor.dynamics.shared_arrays(t, "test", (2.0,), make) is held
        assert not held[0].flags.writeable and len(calls) == 1
        alignor.dynamics.shared_arrays(t, "test", (-2.0,), make)
        own = alignor.dynamics.shared_arrays(t.copy(), "test", (2.0,), make)
        assert own[0].flags.writeable and len(calls) == 3

    def test_import_lays_out_nothing(self):
        code = ("import alignor.cli, alignor.dynamics; "
                "print(len(alignor.dynamics._TIME_BASES))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "0"


class TestLatchScan:
    def test_basic_flip_and_raised_cosine(self):
        t = np.linspace(0.0, 10.0, 2001)
        my = np.linspace(-0.5, 0.5, t.size)
        d = np.ones(t.size)
        tau = 0.2
        ell, flips = latch_scan(t, my, d, 0.2, tau)
        assert len(flips) == 1
        i = flips[0]
        assert my[i] == pytest.approx(0.2, abs=1e-3)
        assert ell[i - 1] == -1.0
        assert ell[-1] == 1.0
        # halfway through the ramp the latch variable crosses zero
        j = np.searchsorted(t, t[i] + math.pi * tau / 2)
        assert abs(ell[j]) < 0.02
        # monotone during the flip
        ramp = ell[i:np.searchsorted(t, t[i] + math.pi * tau) + 1]
        assert np.all(np.diff(ramp) >= -1e-12)

    def test_no_flip_without_threshold_crossing(self):
        t = np.linspace(0.0, 5.0, 500)
        my = np.full(t.size, 0.1)
        ell, flips = latch_scan(t, my, np.ones(t.size), 0.5, 0.1, s0=-1)
        assert flips == []
        assert np.all(ell == -1.0)

    @pytest.mark.parametrize("s0", [0, 2, 0.5, -0.5, math.nan])
    def test_start_state_other_than_plus_minus_one_is_value_error(self, s0):
        # the latch holds -1 or +1: any other start would run it outside
        # [-1, 1] or, at 0, never let it flip
        t = np.linspace(0.0, 5.0, 500)
        my = np.linspace(-0.5, 0.5, t.size)
        with pytest.raises(ValueError, match="s0 must be None, -1 or \\+1"):
            latch_scan(t, my, np.ones(t.size), 0.2, 0.1, s0=s0)


class TestRunSweepLatch:
    C = CouplingParams(kappa=11.0, my0=0.1)

    def test_hysteresis_matches_prediction(self):
        traj = run_sweep(triangle(rate=0.5), P, self.C, FS)
        ups = [f for f in traj.flips if f.direction > 0]
        downs = [f for f in traj.flips if f.direction < 0]
        assert len(ups) == 1 and len(downs) == 1
        b0 = predict_flip_field(P, self.C)
        h = ups[0].bx - downs[0].bx
        assert h == pytest.approx(2 * b0, rel=0.05)

    def test_flip_fields_antisymmetric(self):
        traj = run_sweep(triangle(rate=0.5), P, self.C, FS)
        up = [f.bx for f in traj.flips if f.direction > 0][0]
        down = [f.bx for f in traj.flips if f.direction < 0][0]
        assert up + down == pytest.approx(0.0, abs=1e-6)

    def test_rate_independence(self):
        f1 = run_sweep(triangle(rate=0.5), P, self.C, FS).flips
        f2 = run_sweep(triangle(rate=0.25), P, self.C, FS).flips
        for a, b in zip(f1, f2):
            assert b.bx == pytest.approx(a.bx, rel=0.02, abs=1e-3)

    def test_no_threshold_no_hysteresis(self):
        c0 = CouplingParams(kappa=11.0, my0=0.0)
        traj = run_sweep(triangle(rate=0.5), P, c0, FS)
        ups = [f.bx for f in traj.flips if f.direction > 0]
        downs = [f.bx for f in traj.flips if f.direction < 0]
        assert ups and downs
        assert abs(ups[0] - downs[0]) < 0.05

    def test_no_orientation_no_flips(self):
        traj = run_sweep(triangle(rate=0.5, ellipticity_deg=0.0), P, self.C, FS,
                         initial_sign=1)
        assert traj.flips == ()
        # with the latch never tripping, both passes see the same constant
        # effective field: no branch dependence in the coherence
        from alignor.spincore import alignment_steady_state_grid

        by_eff = np.full_like(traj.bx, self.C.latched_field)
        ref = alignment_steady_state_grid(traj.bx, by_eff, np.zeros_like(traj.bx),
                                          replace(P, m0=0.0))
        assert np.max(np.abs(traj.m2 - ref)) < 1e-9

    def test_latch_effective_field_bookkeeping(self):
        proto = triangle(rate=0.5, static_by=0.3)
        traj = run_sweep(proto, P, self.C, FS)
        expect = 0.3 + self.C.kappa * self.C.my0 * traj.latch
        assert np.max(np.abs(traj.by_eff - expect)) < 1e-12

    def test_kappa_zero_matches_uncoupled_alignment(self):
        c0 = CouplingParams(kappa=0.0, my0=0.1)
        proto = triangle(rate=1.0, static_by=0.4)
        traj = run_sweep(proto, P, c0, FS)
        from alignor.spincore import alignment_steady_state_grid

        ref = alignment_steady_state_grid(traj.bx, np.full_like(traj.bx, 0.4),
                                          np.zeros_like(traj.bx), P)
        assert np.max(np.abs(traj.m2 - ref)) < 1e-9

    def test_hold_at_zero_preserves_latch(self):
        proto = SweepProtocol(bx_start=15.0, bx_end=-15.0, rate=1.0,
                              direction_pattern="up", hold_on_zero=True,
                              hold_time=300.0)
        traj = run_sweep(proto, P, self.C, sample_rate=20.0, initial_sign=1)
        dwell = np.abs(traj.bx) < 1e-9
        assert dwell.sum() / 20.0 >= 299.0
        assert np.all(traj.latch[dwell] == traj.latch[dwell][0])

    def test_moment_norms_bounded(self):
        traj = run_sweep(triangle(rate=0.5, static_by=0.2, static_bz=0.1), P, self.C, FS)
        assert np.max(np.linalg.norm(traj.m1, axis=1)) <= P.m0 + 1e-9
        assert np.max(np.linalg.norm(traj.m2, axis=1)) <= P.a0 + 1e-9

    def test_transition_duration_matches_default_tau(self):
        tau = default_tau_flip(P, self.C)
        traj = run_sweep(triangle(rate=0.5), P, self.C, FS)
        # 10-90% duration of the latch ramp
        i = np.argmax(traj.latch > -0.8)
        j = np.argmax(traj.latch > 0.8)
        dt = traj.t[j] - traj.t[i]
        expected = RAISED_COS_10_90 * math.pi * tau
        assert dt == pytest.approx(expected, rel=0.05)
        # and that duration inverts back to the latched field
        assert effective_field_from_transient(dt, P) == pytest.approx(
            self.C.latched_field, rel=0.05)


class TestCouplingParams:
    def test_latched_field(self):
        assert CouplingParams(kappa=11.0, my0=0.1).latched_field == pytest.approx(1.1)

    def test_default_tau_flip_is_the_set_tau_flip(self):
        c = CouplingParams(kappa=11.0, my0=0.1, tau_flip=0.2)
        assert default_tau_flip(P, c) == 0.2

    def test_default_tau_flip_ties_duration_to_field(self):
        c = CouplingParams(kappa=11.0, my0=0.1)
        tau = default_tau_flip(P, c)
        dt_10_90 = RAISED_COS_10_90 * math.pi * tau
        assert 1.0 / (dt_10_90 * P.gamma_over_2pi) == pytest.approx(1.1, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingParams(kappa=math.inf, my0=0.1)
        with pytest.raises(ValueError):
            CouplingParams(kappa=1.0, my0=-0.1)
        with pytest.raises(ValueError):
            CouplingParams(kappa=1.0, my0=0.1, tau_flip=0.0)

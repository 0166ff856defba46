from dataclasses import fields, replace
import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy import signal as sig

import alignor.dynamics
import alignor.instrument
from alignor.dynamics import (
    CouplingParams,
    SweepProtocol,
    default_tau_flip,
    effective_params,
    latch_scan,
    sweep_profile,
)
from alignor.instrument import (
    LOWPASS_PAD,
    SYNTH_BLOCK,
    DemodRecord,
    ScanConfig,
    ScanRecord,
    config_from_meta,
    lockin_demodulate,
    lowpass_design,
    lowpass_filter,
    run_sweep,
    synthesize_from_meta,
    synthesize_record,
)
from alignor.spincore import (
    TWO_PI,
    EnsembleParams,
    SignalMix,
    alignment_steady_state_grid,
    orientation_steady_state_grid,
    signals_from_state,
)
from oracles import ALIGNMENT_SIGNAL_CALIBRATION, alignment_signal_shape

P = EnsembleParams(gamma_over_2pi=3.5, relax_rate=60.0)
C = CouplingParams(kappa=11.0, my0=0.1)


def tone_record(amp=0.4, f=5.0, fs=1000.0, dur=20.0, phase=0.0, extra=None):
    t = np.arange(0.0, dur, 1.0 / fs)
    sb = amp * np.sin(2 * math.pi * f * t + math.radians(phase))
    if extra is not None:
        sb = sb + extra(t)
    return ScanRecord(t=t, bx_ramp=np.linspace(-1, 1, t.size), st_raw=np.zeros(t.size),
                      sb_raw=sb, direction=np.ones(t.size),
                      meta={"mod_freq": f, "sample_rate": fs})


class TestScanConfig:
    def test_validation(self):
        ramp = SweepProtocol(bx_start=-5.0, bx_end=5.0, rate=1.0)
        with pytest.raises(ValueError):
            ScanConfig(ramp=ramp, sample_rate=50.0, mod_freq=5.0)
        with pytest.raises(ValueError):
            ScanConfig(ramp=ramp, mod_amplitude=-1.0)
        with pytest.raises(ValueError):
            ScanConfig(ramp=ramp, noise_rms=-0.1)

    def test_seed_must_be_an_integer(self):
        ramp = SweepProtocol(bx_start=-5.0, bx_end=5.0, rate=1.0)
        assert ScanConfig(ramp=ramp, seed=np.uint32(7)).seed == 7
        for bad in (3.7, 3.0, True, None):
            with pytest.raises(ValueError, match="^seed must be an integer"):
                ScanConfig(ramp=ramp, seed=bad)
        with pytest.raises(ValueError, match="^seed must be >= 0"):
            ScanConfig(ramp=ramp, seed=-1)


RAMP = SweepProtocol(bx_start=-5.0, bx_end=5.0, rate=1.0)
# one valid instance of each settings object a scan is synthesized from
SETTINGS = {SweepProtocol: RAMP, ScanConfig: ScanConfig(ramp=RAMP),
            EnsembleParams: EnsembleParams(),
            CouplingParams: CouplingParams(kappa=1.0, my0=0.1, tau_flip=0.2),
            SignalMix: SignalMix()}


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls, obj in SETTINGS.items() for f in fields(cls)
    if isinstance(getattr(obj, f.name), float)], ids=lambda v: getattr(v, "__name__", v))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_setting_rejected(cls, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        replace(SETTINGS[cls], **{name: bad})


class TestSynthesizeRecord:
    def test_quasistatic_matches_closed_form(self):
        ramp = SweepProtocol(bx_start=-10.0, bx_end=10.0, rate=1.0,
                             direction_pattern="up", static_by=0.8,
                             ellipticity_deg=0.0)
        cfg = ScanConfig(ramp=ramp, mod_amplitude=0.0, sample_rate=200.0)
        c0 = CouplingParams(kappa=0.0, my0=0.0)
        mix = SignalMix(c_al=1.0, c_or=0.5, c_t=1.0)
        rec = synthesize_record(cfg, P, c0, mix)
        f = P.gamma_rad / P.relax_rate
        expected = alignment_signal_shape(rec.bx_ramp * f, 0.8 * f, 0.0) \
            / ALIGNMENT_SIGNAL_CALIBRATION
        assert np.max(np.abs(rec.sb_raw - expected)) < 0.01 * np.max(np.abs(expected))

    def test_determinism(self):
        ramp = SweepProtocol(bx_start=-5.0, bx_end=5.0, rate=1.0)
        cfg = ScanConfig(ramp=ramp, noise_rms=0.02, drift_rate=0.005, seed=42)
        a = synthesize_record(cfg, P, C)
        b = synthesize_record(cfg, P, C)
        assert a.sb_raw.tobytes() == b.sb_raw.tobytes()
        assert a.st_raw.tobytes() == b.st_raw.tobytes()

    def test_meta_regenerates_record(self):
        ramp = SweepProtocol(bx_start=-5.0, bx_end=5.0, rate=1.0,
                             ellipticity_deg=0.25)
        cfg = ScanConfig(ramp=ramp, noise_rms=0.01, seed=7)
        rec = synthesize_record(cfg, P, C)
        rec2 = synthesize_from_meta(rec.meta)
        assert rec.sb_raw.tobytes() == rec2.sb_raw.tobytes()
        cfg2, p2, c2, mix2 = config_from_meta(rec.meta)
        assert cfg2 == cfg
        assert p2 == P
        assert c2 == C
        assert mix2 == SignalMix()
        assert "mode" not in rec.meta

    def test_reference_preset_hysteresis_phenomenology(self):
        from alignor.fitkit import extract_transition

        ramp = SweepProtocol(bx_start=-15.0, bx_end=15.0, rate=0.5,
                             ellipticity_deg=0.25)
        p = EnsembleParams(gamma_over_2pi=3.5, relax_rate=60.0, m0=1.0)
        # latched field kappa*my0 = 1.1 nT; flip threshold inside m0*sin(2*chi)
        c = CouplingParams(kappa=275.0, my0=0.004)
        cfg = ScanConfig(ramp=ramp, sample_rate=500.0)
        rec = synthesize_record(cfg, p, c)
        dem = lockin_demodulate(rec)
        res = extract_transition(dem)
        assert not res.monostable
        assert res.bx_up > 0 > res.bx_down


def straight_line_synthesis(cfg, p, c, mix):
    """synthesize_record's chain as one full-length pass: the oracle for its
    block-wise evaluation.  Returns (t, bx_ramp, st_raw, sb_raw, direction, flips)."""
    proto = cfg.ramp
    t, bx_ramp, dirs = sweep_profile(proto, cfg.sample_rate)
    pe = effective_params(p, proto)
    drift = cfg.drift_rate * t
    bx_slow = bx_ramp + drift
    bx_mod = bx_slow + cfg.mod_amplitude * np.sin(TWO_PI * cfg.mod_freq * t)
    by = np.full_like(bx_mod, proto.static_by)
    bz = np.full_like(bx_mod, proto.static_bz)

    my_slow = orientation_steady_state_grid(bx_slow, by, bz, pe)[:, 1]
    tau = c.tau_flip if c.tau_flip is not None else default_tau_flip(pe, c)
    ell, flips = latch_scan(t, my_slow, dirs, c.my0, tau)
    by_eff = by + c.kappa * c.my0 * ell

    m1 = orientation_steady_state_grid(bx_mod, by, bz, pe)
    m2 = alignment_steady_state_grid(bx_mod, by_eff, bz, pe)
    st_raw, sb_raw = signals_from_state(m2[:, 0], m2[:, 4], m1[:, 2], mix)
    rng = np.random.default_rng(cfg.seed)
    if cfg.noise_rms > 0:
        st_raw = st_raw + cfg.noise_rms * rng.standard_normal(t.size)
        sb_raw = sb_raw + cfg.noise_rms * rng.standard_normal(t.size)
    return t, bx_ramp, st_raw, sb_raw, dirs, flips


# 128 Hz makes the sample spacing exact, so an up or down ramp over
# +-(n - 1)/256 nT at 1 nT/s has exactly n samples
FS_EXACT = 128.0
MIX = SignalMix(c_al=1.0, c_or=0.3, c_t=1.0, baseline_t=6.5, baseline_b=0.1)


def exact_scan(n, pattern="up", **cfg_kw):
    half = (n - 1) / 256.0
    ramp = SweepProtocol(bx_start=-half, bx_end=half, rate=1.0,
                         direction_pattern=pattern, static_by=0.3, static_bz=-0.2,
                         ellipticity_deg=0.25)
    return ScanConfig(ramp=ramp, sample_rate=FS_EXACT, **cfg_kw)


def assert_matches_oracle(cfg, p, c, mix=MIX):
    rec = synthesize_record(cfg, p, c, mix)
    want = straight_line_synthesis(cfg, p, c, mix)
    for got, w in zip((rec.t, rec.bx_ramp, rec.st_raw, rec.sb_raw, rec.direction), want):
        assert got.tobytes() == w.tobytes()
    return rec, want[-1]


class TestBlockedSynthesis:
    """synthesize_record evaluates its grids in SYNTH_BLOCK-sample blocks;
    every step is elementwise, so it must equal one full-length pass bit for
    bit."""

    @pytest.mark.parametrize("n", [2, 1001, SYNTH_BLOCK - 1, SYNTH_BLOCK,
                                   SYNTH_BLOCK + 1, 2 * SYNTH_BLOCK,
                                   3 * SYNTH_BLOCK + 99])
    def test_block_boundaries(self, n):
        cfg = exact_scan(n)
        rec, _ = assert_matches_oracle(cfg, P, C)
        assert rec.t.size == n

    @pytest.mark.parametrize("cfg_kw", [
        {"noise_rms": 0.05, "seed": 11},
        {"drift_rate": 0.03},
        {"noise_rms": 0.02, "drift_rate": -0.01, "mod_amplitude": 0.7, "seed": 5},
    ], ids=["noise", "drift", "noise-drift"])
    def test_noise_and_drift(self, cfg_kw):
        assert_matches_oracle(exact_scan(2 * SYNTH_BLOCK + 57, "triangle", **cfg_kw), P, C)

    def test_live_latch(self):
        c = CouplingParams(kappa=150.0, my0=0.004)
        _, flips = assert_matches_oracle(exact_scan(3 * SYNTH_BLOCK + 5, "triangle"), P, c)
        assert len(flips) >= 2

    def test_hold_on_zero(self):
        cfg = exact_scan(SYNTH_BLOCK + 300, "triangle", noise_rms=0.01)
        cfg = replace(cfg, ramp=replace(cfg.ramp, hold_on_zero=True, hold_time=7.5))
        rec, _ = assert_matches_oracle(cfg, P, CouplingParams(kappa=60.0, my0=0.01))
        assert np.count_nonzero(rec.direction == 0) > SYNTH_BLOCK // 8

    def test_grid_calls_are_block_sized(self, monkeypatch):
        sizes = {"orientation": [], "alignment": []}

        def recording(name, fn):
            def grid(bx, by, bz, p, **kw):
                out = fn(bx, by, bz, p, **kw)
                sizes[name].append(out.shape[0])
                return out
            return grid

        for name in sizes:
            attr = f"{name}_steady_state_grid"
            monkeypatch.setattr(alignor.instrument, attr,
                                recording(name, getattr(alignor.instrument, attr)))
        rec = synthesize_record(exact_scan(3 * SYNTH_BLOCK + 99, "triangle"), P, C)
        n = rec.t.size
        # the latch's M_y comes first, in one full-length call; every call
        # of the synthesis loop is block-sized
        latch, *synth = sizes["orientation"]
        assert latch == n
        assert max(synth + sizes["alignment"]) <= SYNTH_BLOCK
        assert sum(sizes["orientation"]) == 2 * n
        assert sum(sizes["alignment"]) == n


@pytest.mark.parametrize("proto", [
    SweepProtocol(bx_start=-15.0, bx_end=15.0, rate=0.5, static_by=0.2, static_bz=0.1),
    SweepProtocol(bx_start=-15.0, bx_end=15.0, rate=1.0, hold_on_zero=True, hold_time=20.0),
], ids=["triangle", "hold_on_zero"])
def test_run_sweep_is_the_unmodulated_synthesized_scan(proto):
    # both run the one latch chain: without modulation, drift or noise the
    # synthesized S_B is the sweep's alignment m2s and S_T its m0c, bit for bit
    fs = 128.0
    traj = run_sweep(proto, P, C, fs)
    rec = synthesize_record(ScanConfig(ramp=proto, mod_amplitude=0.0, sample_rate=fs), P, C,
                            SignalMix(c_al=1.0, c_or=0.0, c_t=1.0))
    assert len(traj.flips) == 2 and traj.t.size > 2 * SYNTH_BLOCK
    assert np.array_equal(rec.t, traj.t)
    assert np.array_equal(rec.sb_raw, traj.m2[:, 4])
    assert np.array_equal(rec.st_raw, traj.m2[:, 0])


@st.composite
def scan_setups(draw):
    pattern = draw(st.sampled_from(["up", "down", "triangle"]))
    half = draw(st.floats(0.5, 12.0))
    hold = draw(st.booleans())
    ramp = SweepProtocol(bx_start=-half + draw(st.floats(-0.4, 0.4)), bx_end=half,
                         rate=draw(st.floats(0.5, 4.0)), direction_pattern=pattern,
                         hold_on_zero=hold, hold_time=draw(st.floats(0.0, 5.0)),
                         static_by=draw(st.floats(-1.0, 1.0)),
                         static_bz=draw(st.floats(-1.0, 1.0)),
                         ellipticity_deg=draw(st.one_of(st.none(), st.floats(-45.0, 45.0))))
    mod_freq = draw(st.floats(1.0, 10.0))
    cfg = ScanConfig(ramp=ramp, mod_amplitude=draw(st.floats(0.0, 3.0)), mod_freq=mod_freq,
                     sample_rate=draw(st.floats(20.0 * mod_freq, 1000.0)),
                     noise_rms=draw(st.sampled_from([0.0, 0.01, 0.3])),
                     drift_rate=draw(st.floats(-0.1, 0.1)), seed=draw(st.integers(0, 2**32)))
    p = EnsembleParams(gamma_over_2pi=draw(st.floats(1.0, 5.0)),
                       relax_rate=draw(st.floats(10.0, 200.0)))
    c = CouplingParams(kappa=draw(st.floats(0.0, 200.0)), my0=draw(st.floats(0.0, 0.2)),
                       tau_flip=draw(st.one_of(st.none(), st.floats(0.01, 1.0))))
    return cfg, p, c


@settings(max_examples=40, deadline=None)
@given(scan_setups())
def test_blocked_synthesis_equals_straight_line_chain(setup):
    assert_matches_oracle(*setup)


def _columns(rec):
    """Every array field of a record as bytes, and its meta."""
    return [getattr(rec, f.name).tobytes() for f in fields(rec) if f.name != "meta"], rec.meta


class TestSharedTimeBase:
    CFG = ScanConfig(ramp=SweepProtocol(bx_start=-4.0, bx_end=4.0, rate=2.0),
                     sample_rate=200.0, noise_rms=0.01, drift_rate=0.01, seed=3)

    @pytest.mark.parametrize("kwargs", [{}, {"phase_deg": 30.0, "lpf_cutoff": 1.0}])
    def test_lockin_equals_the_uncached_path(self, kwargs):
        # a copy of t is not a time base sweep_profile holds: its carrier is
        # computed and not stored
        rec = synthesize_record(self.CFG, P, C)
        own = replace(rec, t=rec.t.copy())
        assert _columns(lockin_demodulate(rec, **kwargs)) == \
            _columns(lockin_demodulate(own, **kwargs))

    def test_modulation_and_reference_are_one_carrier(self):
        rec = synthesize_record(self.CFG, P, C)
        ref = alignor.instrument.carrier(rec.t, self.CFG.mod_freq)
        assert alignor.instrument.carrier(rec.t, self.CFG.mod_freq, 0.0) is ref
        assert not ref.flags.writeable
        assert ref.tobytes() == np.sin(TWO_PI * self.CFG.mod_freq * rec.t).tobytes()

    def test_scan_and_trajectory_time_bases_are_read_only(self):
        rec = synthesize_record(self.CFG, P, C)
        traj = run_sweep(self.CFG.ramp, P, C, self.CFG.sample_rate)
        assert traj.t is rec.t and traj.bx is rec.bx_ramp and traj.direction is rec.direction
        for a in (rec.t, rec.bx_ramp, rec.direction):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_cold_and_warm_study_write_the_same_files(self, tmp_path):
        from alignor.study import DEFAULT_GRIDS, StudyConfig, run_study

        cfg = StudyConfig(kind="chi_grid", grid=DEFAULT_GRIDS["chi_grid"], seed=3)
        alignor.dynamics._TIME_BASES.clear()
        run_study(cfg, tmp_path / "cold")
        run_study(cfg, tmp_path / "warm")
        cold = sorted(p.relative_to(tmp_path / "cold") for p in (tmp_path / "cold").rglob("*"))
        assert cold == sorted(p.relative_to(tmp_path / "warm")
                              for p in (tmp_path / "warm").rglob("*"))
        for name in cold:
            assert (tmp_path / "cold" / name).read_bytes() == \
                (tmp_path / "warm" / name).read_bytes(), name


class TestLockin:
    # tone_record and the ramps below sweep up only: every demod row is on
    # the up branch
    def test_pure_tone_with_gain_two(self):
        rec = tone_record(amp=0.4)
        dem = lockin_demodulate(rec, gain=2.0)
        mid = slice(dem.s.size // 4, 3 * dem.s.size // 4)
        assert np.max(np.abs(dem.s[mid] - 0.4)) < 0.001 * 0.4

    def test_quadrature_rejection(self):
        rec = tone_record(amp=0.4, phase=90.0)
        dem = lockin_demodulate(rec, gain=2.0)
        mid = slice(dem.s.size // 4, 3 * dem.s.size // 4)
        assert np.max(np.abs(dem.s[mid])) < 0.001 * 0.4

    def test_linearity(self):
        r1 = tone_record(amp=0.3)
        r2 = tone_record(amp=0.0, extra=lambda t: 0.2 * np.sin(2 * math.pi * 5 * t)**3)
        both = tone_record(amp=0.3, extra=lambda t: 0.2 * np.sin(2 * math.pi * 5 * t)**3)
        d1 = lockin_demodulate(r1).s
        d2 = lockin_demodulate(r2).s
        d12 = lockin_demodulate(both).s
        assert np.max(np.abs(d12 - (d1 + d2))) < 1e-10

    @pytest.mark.parametrize("kwargs", [{"phase_deg": math.nan}, {"phase_deg": math.inf},
                                        {"gain": math.inf}, {"gain": -math.inf},
                                        {"gain": math.nan}])
    def test_nonfinite_phase_or_gain_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            lockin_demodulate(tone_record(), **kwargs)

    def test_cutoff_too_high(self):
        with pytest.raises(ValueError):
            lockin_demodulate(tone_record(), lpf_cutoff=3.0)

    def derivative_error(self, mod_amplitude):
        ramp = SweepProtocol(bx_start=-8.0, bx_end=8.0, rate=0.2,
                             direction_pattern="up", static_by=0.6)
        cfg = ScanConfig(ramp=ramp, mod_amplitude=mod_amplitude, sample_rate=1000.0)
        c0 = CouplingParams(kappa=0.0, my0=0.0)
        p = EnsembleParams(gamma_over_2pi=3.5, relax_rate=60.0, m0=0.0)
        mix = SignalMix(c_al=1.0, c_or=0.0)
        rec = synthesize_record(cfg, p, c0, mix)
        dem = lockin_demodulate(rec)
        f = p.gamma_rad / p.relax_rate

        def curve(bx):
            return alignment_signal_shape(bx * f, 0.6 * f, 0.0) / ALIGNMENT_SIGNAL_CALIBRATION

        h = 1e-4
        deriv = (curve(dem.bx + h) - curve(dem.bx - h)) / (2 * h)
        expected = mod_amplitude / 2.0 * deriv
        mid = slice(dem.bx.size // 8, -dem.bx.size // 8)
        return np.max(np.abs(dem.s[mid] - expected[mid])) / np.max(np.abs(expected))

    def test_small_modulation_derivative(self):
        # mod amplitude below 0.1 * resonance width (2.73 nT)
        assert self.derivative_error(0.2) < 0.02

    def test_derivative_error_monotone_in_amplitude(self):
        errs = [self.derivative_error(a) for a in (2.0, 1.0, 0.2)]
        assert errs[0] > errs[1] > errs[2]

    def test_noise_scaling_linear(self):
        ramp = SweepProtocol(bx_start=-5.0, bx_end=5.0, rate=1.0,
                             direction_pattern="up")
        rms = []
        for noise in (0.01, 0.02):
            cfg = ScanConfig(ramp=ramp, noise_rms=noise, seed=11)
            rec = synthesize_record(cfg, EnsembleParams(m0=0.0, a0=0.0),
                                    CouplingParams(kappa=0.0, my0=0.0))
            dem = lockin_demodulate(rec)
            mid = slice(dem.s.size // 4, 3 * dem.s.size // 4)
            rms.append(float(np.std(dem.s[mid])))
        assert rms[1] / rms[0] == pytest.approx(2.0, rel=0.1)


class TestLowpass:
    FS = 1000.0

    def test_dc_gain(self):
        x = np.full(4000, 1.234)
        y = lowpass_filter(x, 2.0, self.FS)
        assert np.max(np.abs(y - 1.234)) < 1e-6

    def test_cutoff_response(self):
        fc = 2.0
        t = np.arange(0, 30.0, 1 / self.FS)
        x = np.sin(2 * math.pi * fc * t)
        y = lowpass_filter(x, fc, self.FS)
        mid = slice(t.size // 4, 3 * t.size // 4)
        amp = (y[mid].max() - y[mid].min()) / 2.0
        assert amp == pytest.approx(math.sqrt(0.5), rel=0.05)
        # zero-phase: peak positions coincide
        xi = np.argmax(x[mid])
        window = y[mid][max(xi - 10, 0):xi + 10]
        assert np.argmax(window) == pytest.approx(min(xi, 10), abs=2)

    def test_stopband_attenuation(self):
        fc = 1.0
        t = np.arange(0, 20.0, 1 / self.FS)
        x = np.sin(2 * math.pi * 10 * fc * t)
        y = lowpass_filter(x, fc, self.FS)
        mid = slice(t.size // 4, 3 * t.size // 4)
        att = 20 * math.log10(np.max(np.abs(y[mid])))
        assert att <= -30.0

    # the prewarped pole 2 fs tan(w0 / 2 fs), w0 = 2.2989 * 2 pi fc, is
    # finite below fc = fs / 4.5978; past it the biquad has a pole outside
    # the unit circle
    POLE_LIMIT = 1.0 / (2.0 * 2.2989)

    def test_cutoff_validation(self):
        for cutoff in (0.0, 600.0, self.POLE_LIMIT * 1.0001 * self.FS, 300.0, 490.0):
            with pytest.raises(ValueError):
                lowpass_filter(np.zeros(100), cutoff, self.FS)

    @staticmethod
    def biquad(cutoff, fs):
        c, p = lowpass_design(cutoff, fs)
        return c * c * np.array([1.0, 2.0, 1.0]), np.array([1.0, -2.0 * p, p * p])

    @staticmethod
    def bilinear_oracle(cutoff, fs):
        w0 = 2.2989 * 2.0 * math.pi * cutoff
        warped = 2.0 * fs * math.tan(w0 / (2.0 * fs))
        return sig.bilinear([warped**2], [1.0, 2.0 * warped, warped**2], fs)

    @pytest.mark.parametrize("cutoff, fs", [(1.0, 500.0), (2.0, 500.0),
                                            (0.5, 500.0), (0.25, 500.0)])
    def test_biquad_matches_bilinear_at_study_cutoffs(self, cutoff, fs):
        for got, want in zip(self.biquad(cutoff, fs),
                             self.bilinear_oracle(cutoff, fs)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("fs", [1.0, 500.0, 1000.0, 44100.0])
    def test_biquad_matches_bilinear_up_to_pole_limit(self, fs):
        # from 0.1 Hz (at 500 Hz) to just below the pole limit, relative to
        # the largest coefficient: a1 = 2 (w^2 - K^2) / (K + w)^2 passes
        # through 0 near fc = 0.11 fs, where no formula keeps it relative
        for cutoff in np.geomspace(fs / 5000.0, 0.9999 * self.POLE_LIMIT * fs, 300):
            for got, want in zip(self.biquad(cutoff, fs),
                                 self.bilinear_oracle(cutoff, fs)):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @staticmethod
    def scan_like(fs, seconds, seed=0):
        """A DC level of 6 under a slow tone and white noise."""
        t = np.arange(0.0, seconds, 1.0 / fs)
        rng = np.random.default_rng(seed)
        return 6.0 + np.sin(2.0 * math.pi * 1.3 * t) + 0.3 * rng.standard_normal(t.size)

    @staticmethod
    def longdouble_reference(x, cutoff, fs):
        """filtfilt's odd extension by 9 samples and steady-state starts, with
        the biquad's direct form run in long double on the prewarped pole."""
        ld = np.longdouble
        k = ld(2.0 * fs)
        w = ld(2.0 * fs * math.tan(2.2989 * 2.0 * math.pi * cutoff / (2.0 * fs)))
        g, p = (w / (k + w)) ** 2, (k - w) / (k + w)
        x = np.asarray(x, ld)
        ext = np.concatenate((2 * x[0] - x[9:0:-1], x, 2 * x[-1] - x[-2:-11:-1]))

        def causal(s):
            y = np.empty_like(s)
            x1 = x2 = y1 = y2 = s[0]
            for i, xi in enumerate(s):
                y[i] = g * (xi + 2 * x1 + x2) + 2 * p * y1 - p * p * y2
                x2, x1, y2, y1 = x1, xi, y1, y[i]
            return y

        return causal(causal(ext)[::-1])[::-1][9:-9]

    @pytest.mark.parametrize("cutoff", [2.0, 1.0, 0.5, 0.25])
    def test_matches_scipy_filtfilt_at_study_cutoffs(self, cutoff):
        x = self.scan_like(500.0, 40.0)
        want = sig.filtfilt(*self.bilinear_oracle(cutoff, 500.0), x)
        assert np.max(np.abs(lowpass_filter(x, cutoff, 500.0) - want)) <= 1e-9

    @pytest.mark.parametrize("cutoff, fs, seconds", [
        (2.0, 500.0, 20.0), (1.0, 500.0, 20.0), (0.5, 500.0, 20.0),
        (0.25, 500.0, 20.0), (0.5, 44100.0, 1.0),
        (0.9999 * POLE_LIMIT * 500.0, 500.0, 20.0),   # pole near -1
        (75.0, 500.0, 20.0),                          # pole near -0.31
    ])
    def test_no_less_accurate_than_scipy(self, cutoff, fs, seconds):
        x = self.scan_like(fs, seconds)
        want = self.longdouble_reference(x, cutoff, fs)
        scipy_err = np.max(np.abs(sig.filtfilt(*self.bilinear_oracle(cutoff, fs), x) - want))
        assert np.max(np.abs(lowpass_filter(x, cutoff, fs) - want)) <= scipy_err

    def test_input_no_longer_than_pad_rejected(self):
        with pytest.raises(ValueError):
            lowpass_filter(np.ones(LOWPASS_PAD), 1.0, self.FS)
        x = self.scan_like(self.FS, (LOWPASS_PAD + 1) / self.FS)
        np.testing.assert_allclose(lowpass_filter(x, 1.0, self.FS),
                                   sig.filtfilt(*self.bilinear_oracle(1.0, self.FS), x),
                                   rtol=1e-10)

    @pytest.mark.parametrize("cutoff", [0.25, 2.0, 54.0, 0.9999 * POLE_LIMIT * 500.0])
    def test_large_inputs_stay_finite(self, cutoff):
        # the blocked prefix sums weight by |pole|^-j; linearity must hold
        # up to inputs of 1e280 without overflow
        x = self.scan_like(500.0, 10.0)
        np.testing.assert_allclose(lowpass_filter(1e280 * x, cutoff, 500.0) / 1e280,
                                   lowpass_filter(x, cutoff, 500.0), rtol=1e-12)

    def test_nan_propagates(self):
        x = self.scan_like(self.FS, 4.0)
        x[1500] = np.nan
        assert np.isnan(lowpass_filter(x, 1.0, self.FS)).all()


class TestDemodRecord:
    def test_branch_split_and_monotone(self):
        ramp = SweepProtocol(bx_start=-6.0, bx_end=6.0, rate=1.0)
        cfg = ScanConfig(ramp=ramp)
        rec = synthesize_record(cfg, P, C)
        dem = lockin_demodulate(rec)
        n_up = int(np.sum(dem.branch == 1.0))
        assert 0 < n_up < dem.branch.size
        # the up rows first, then the down rows, and no other branch value
        assert np.all(dem.branch[:n_up] == 1.0) and np.all(dem.branch[n_up:] == -1.0)
        assert np.all(np.diff(dem.bx[:n_up]) > 0)
        assert np.all(np.diff(dem.bx[n_up:]) < 0)
        assert np.all(np.diff(dem.t[:n_up]) > 0) and np.all(np.diff(dem.t[n_up:]) > 0)
        assert dem.bx.size == dem.s.size == dem.st.size == dem.t.size == dem.branch.size

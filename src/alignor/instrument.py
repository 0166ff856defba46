"""Measurement-chain synthesis: modulation, noise, lock-in, filtering.

synthesize_record produces a raw time-domain scan (ramp + sinusoidal B_x
modulation, photodetector-like S_T/S_B signals, seeded noise, linear drift);
lockin_demodulate turns it into the per-branch demodulated contour that the
fitting layer consumes.
"""

from dataclasses import asdict, dataclass, fields, replace
import math

import numpy as np
from scipy import signal as sig

from .dynamics import (
    CouplingParams,
    SweepProtocol,
    default_tau_flip,
    effective_params,
    latch_scan,
    sweep_profile,
)
from .spincore import (
    TWO_PI,
    EnsembleParams,
    SignalMix,
    alignment_steady_state_grid,
    orientation_steady_state_grid,
    signals_from_state,
)


@dataclass(frozen=True)
class ScanConfig:
    """Acquisition settings for one field-scan record."""

    ramp: SweepProtocol
    mod_amplitude: float = 2.5     # nT
    mod_freq: float = 5.0          # Hz
    sample_rate: float = 1000.0    # Hz
    noise_rms: float = 0.0         # signal units
    drift_rate: float = 0.0        # nT/s
    seed: int = 0

    def __post_init__(self):
        if self.mod_amplitude < 0:
            raise ValueError("mod_amplitude must be >= 0")
        if self.mod_freq <= 0:
            raise ValueError("mod_freq must be > 0")
        if self.sample_rate < 20.0 * self.mod_freq:
            raise ValueError("sample_rate must be >= 20 * mod_freq")
        if self.noise_rms < 0:
            raise ValueError("noise_rms must be >= 0")


@dataclass(frozen=True)
class ScanRecord:
    """Raw sampled scan: time, ramp field and the two photodetector signals."""

    t: np.ndarray
    bx_ramp: np.ndarray
    st_raw: np.ndarray
    sb_raw: np.ndarray
    direction: np.ndarray
    meta: dict


@dataclass(frozen=True)
class DemodRecord:
    """Lock-in output resampled onto the ramp, split into sweep branches."""

    bx_up: np.ndarray
    s_up: np.ndarray
    st_up: np.ndarray
    t_up: np.ndarray
    bx_down: np.ndarray
    s_down: np.ndarray
    st_down: np.ndarray
    t_down: np.ndarray
    meta: dict


def record_meta(cfg: ScanConfig, p: EnsembleParams, c: CouplingParams,
                mix: SignalMix) -> dict:
    """Flat metadata dict sufficient to regenerate the record bit-for-bit."""
    r = cfg.ramp
    return {
        "mod_amplitude": cfg.mod_amplitude, "mod_freq": cfg.mod_freq,
        "sample_rate": cfg.sample_rate, "noise_rms": cfg.noise_rms,
        "drift_rate": cfg.drift_rate, "seed": cfg.seed,
        "bx_start": r.bx_start, "bx_end": r.bx_end, "rate": r.rate,
        "direction_pattern": r.direction_pattern,
        "hold_on_zero": r.hold_on_zero, "hold_time": r.hold_time,
        "static_by": r.static_by, "static_bz": r.static_bz,
        "ellipticity_deg": r.ellipticity_deg,
        "gamma_over_2pi": p.gamma_over_2pi, "relax_rate": p.relax_rate,
        "m0": p.m0, "a0": p.a0,
        "relax_ratio_alignment": p.relax_ratio_alignment,
        "kappa": c.kappa, "my0": c.my0, "tau_flip": c.tau_flip,
        **asdict(mix), "mode": "latch",
    }


def config_from_meta(meta: dict):
    """Inverse of record_meta: rebuild the config/parameter objects."""
    ramp = SweepProtocol(
        bx_start=meta["bx_start"], bx_end=meta["bx_end"], rate=meta["rate"],
        direction_pattern=meta["direction_pattern"],
        hold_on_zero=bool(meta["hold_on_zero"]), hold_time=meta["hold_time"],
        static_by=meta["static_by"], static_bz=meta["static_bz"],
        ellipticity_deg=meta["ellipticity_deg"])
    cfg = ScanConfig(ramp=ramp, mod_amplitude=meta["mod_amplitude"],
                     mod_freq=meta["mod_freq"], sample_rate=meta["sample_rate"],
                     noise_rms=meta["noise_rms"], drift_rate=meta["drift_rate"],
                     seed=int(meta["seed"]))
    p = EnsembleParams(gamma_over_2pi=meta["gamma_over_2pi"],
                       relax_rate=meta["relax_rate"], m0=meta["m0"], a0=meta["a0"],
                       relax_ratio_alignment=meta.get("relax_ratio_alignment", 1.0))
    c = CouplingParams(kappa=meta["kappa"], my0=meta["my0"], tau_flip=meta["tau_flip"])
    mix = SignalMix(**{f.name: meta[f.name] for f in fields(SignalMix)})
    return cfg, p, c, mix


# Samples per block of the steady-state -> signal chain in synthesize_record.
# Full-length (50k-sample) grid calls spent much of their time in minor page
# faults: their (n, 5)/(n, 3) outputs and dozens of 400 KB temporaries were
# mapped, first-touched and released again on every call, about 36k faults
# per study_chi pass; in blocks the grids fault about 2k times.  Of
# 2,048-16,384 samples, 4,096 gave the lowest median study time (CHANGES.md).
SYNTH_BLOCK = 4096


def synthesize_record(cfg: ScanConfig, p: EnsembleParams, c: CouplingParams,
                      mix: SignalMix | None = None) -> ScanRecord:
    """Simulate one scan through the full measurement chain (latch mode).

    B_x(t) = ramp + mod_amplitude*sin(2 pi mod_freq t) + drift_rate*t.  The
    latch watches the slow (unmodulated) orientation moment, since the flip
    dynamics are slower than a modulation period; both moments otherwise
    follow the instantaneous field quasi-statically.

    The steady-state grids and the signal mix run over SYNTH_BLOCK-sample
    blocks written into full-length arrays, so their temporaries stay small
    enough to be reused instead of page-faulted in on every call.  Every
    blocked step is elementwise, so the record is bit-identical to one
    full-length pass; the latch, the ramp and the noise draws stay full-length.
    """
    if mix is None:
        mix = SignalMix()
    proto = replace(cfg.ramp, sample_rate=cfg.sample_rate)
    t, bx_ramp, dirs = sweep_profile(proto)
    pe = effective_params(p, proto)
    drift = cfg.drift_rate * t
    bx_slow = bx_ramp + drift
    bx_mod = bx_slow + cfg.mod_amplitude * np.sin(TWO_PI * cfg.mod_freq * t)
    by = np.full_like(bx_mod, proto.static_by)
    bz = np.full_like(bx_mod, proto.static_bz)
    blocks = [slice(i, i + SYNTH_BLOCK) for i in range(0, t.size, SYNTH_BLOCK)]

    my_slow = np.empty(t.size)
    for b in blocks:
        my_slow[b] = orientation_steady_state_grid(bx_slow[b], by[b], bz[b], pe)[:, 1]
    tau = c.tau_flip if c.tau_flip is not None else default_tau_flip(pe, c)
    ell, _ = latch_scan(t, my_slow, dirs, c.my0, tau)
    by_eff = by + c.kappa * c.my0 * ell

    st, sb = np.empty(t.size), np.empty(t.size)
    for b in blocks:
        m1 = orientation_steady_state_grid(bx_mod[b], by[b], bz[b], pe)
        m2 = alignment_steady_state_grid(bx_mod[b], by_eff[b], bz[b], pe)
        st[b], sb[b] = signals_from_state(m1, m2, mix)
    rng = np.random.default_rng(cfg.seed)
    if cfg.noise_rms > 0:
        st = st + cfg.noise_rms * rng.standard_normal(t.size)
        sb = sb + cfg.noise_rms * rng.standard_normal(t.size)
    return ScanRecord(t=t, bx_ramp=bx_ramp, st_raw=st, sb_raw=sb, direction=dirs,
                      meta=record_meta(cfg, p, c, mix))


def synthesize_from_meta(meta: dict) -> ScanRecord:
    """Regenerate a record from its own metadata (deterministic replay)."""
    return synthesize_record(*config_from_meta(meta))


# 10-90% step-response time of lowpass_filter, in units of 1/cutoff
# (measured once on a dense step; the filter shape is scale-invariant)
LOWPASS_RISE_10_90 = 0.3319


def lowpass_rise_time(cutoff: float) -> float:
    """10-90% step-response time of :func:`lowpass_filter` at this cutoff."""
    return LOWPASS_RISE_10_90 / cutoff


def lowpass_filter(series, cutoff: float, sample_rate: float):
    """Zero-phase critically damped second-order low-pass.

    The analog prototype w^2 / (s + w)^2 has a double pole at -w0 with
    w0 = 2.2989*wc, so the forward-backward squared magnitude is -3 dB at the
    cutoff.  Its bilinear transform (s = K (z - 1)/(z + 1), K = 2 fs, with w
    the pole prewarped to 2 fs tan(w0 / 2 fs)) is written out in closed form:
    b = w^2 (1, 2, 1) / (K + w)^2, a = (1, 2 (w^2 - K^2), (K - w)^2) / (K + w)^2.
    The prewarped pole is finite only for w0 < pi fs, so the cutoff must lie
    below fs / (2 * 2.2989); past that the digital filter would be unstable.
    """
    w0 = 2.2989 * TWO_PI * cutoff
    k = 2.0 * sample_rate
    if not 0.0 < w0 < 0.5 * math.pi * k:
        raise ValueError("cutoff must lie in (0, sample_rate / 4.5978)")
    # prewarp so the bilinear transform lands the pole where intended
    w = k * math.tan(w0 / k)
    norm = (k + w) ** 2
    b = np.array([1.0, 2.0, 1.0]) * (w * w / norm)
    a = np.array([1.0, 2.0 * (w * w - k * k) / norm, (k - w) ** 2 / norm])
    return sig.filtfilt(b, a, np.asarray(series, dtype=float))


def calibrate_phase(rec: ScanRecord, lpf_cutoff: float = 0.5) -> float:
    """Reference phase (degrees) maximizing the in-phase lock-in energy."""
    f = rec.meta["mod_freq"]
    fs = rec.meta["sample_rate"]
    x = rec.sb_raw - np.mean(rec.sb_raw)
    i = lowpass_filter(x * np.sin(TWO_PI * f * rec.t), lpf_cutoff, fs)
    q = lowpass_filter(x * np.cos(TWO_PI * f * rec.t), lpf_cutoff, fs)
    return math.degrees(0.5 * math.atan2(2.0 * float(i @ q),
                                         float(i @ i - q @ q)))


def lockin_demodulate(rec: ScanRecord, phase_deg: float = 0.0,
                      lpf_cutoff: float = 0.5, gain: float = 1.0) -> DemodRecord:
    """First-harmonic lock-in of S_B plus low-passed S_T, resampled per branch.

    Output = gain * LPF(sb * sin(2 pi f t + phase)); with the default gain the
    small-modulation limit equals (mod_amplitude/2) * dS_B/dB_x.  gain=2
    recovers the in-phase amplitude of a pure tone.  The input is AC-coupled
    (baseband below lpf_cutoff/2 removed) before mixing, since the second-
    order output filter alone leaves ~-20 dB of carrier feedthrough from the
    unmodulated signal level.  The result is decimated to about
    8 * lpf_cutoff samples per second (the exact rate goes into
    meta["output_rate"]) and split into up/down branches by ramp slope;
    dwell samples (zero slope) are dropped.
    """
    f = rec.meta["mod_freq"]
    fs = rec.meta["sample_rate"]
    if lpf_cutoff >= f / 2.0:
        raise ValueError("lpf_cutoff must be below mod_freq/2")
    if not (math.isfinite(phase_deg) and math.isfinite(gain)):
        raise ValueError("phase_deg and gain must be finite")
    ref = np.sin(TWO_PI * f * rec.t + math.radians(phase_deg))
    sb_ac = rec.sb_raw - lowpass_filter(rec.sb_raw, lpf_cutoff / 2.0, fs)
    demod = gain * lowpass_filter(sb_ac * ref, lpf_cutoff, fs)
    st = lowpass_filter(rec.st_raw, lpf_cutoff, fs)
    dec = max(1, int(round(fs / (8.0 * lpf_cutoff))))
    idx = np.arange(0, rec.t.size, dec)
    up = idx[rec.direction[idx] > 0]
    down = idx[rec.direction[idx] < 0]
    return DemodRecord(
        bx_up=rec.bx_ramp[up], s_up=demod[up], st_up=st[up], t_up=rec.t[up],
        bx_down=rec.bx_ramp[down], s_down=demod[down], st_down=st[down],
        t_down=rec.t[down],
        meta={**rec.meta, "phase_deg": phase_deg, "lpf_cutoff": lpf_cutoff,
              "gain": gain, "output_rate": fs / dec,
              "response_time": lowpass_rise_time(lpf_cutoff)})

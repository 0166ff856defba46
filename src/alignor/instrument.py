"""Scan simulation and the measurement chain: latch, noise, lock-in.

_latch_chain feeds the orientation's M_y into the latch and returns the
transverse field the alignment sees.  run_sweep runs it on the plain ramp;
synthesize_record on the slow field of a raw scan (ramp + sinusoidal B_x
modulation, S_T/S_B signals, seeded noise, linear drift), which
lockin_demodulate turns into the contour of both sweep branches.
"""

from dataclasses import dataclass
import math

import numpy as np

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
    reject_nonfinite,
    reject_nonint,
    settings_fields,
    signals_from_state,
)


def _check_sampling(mod_freq, sample_rate):
    """The sampling rule of a modulated scan, 0 < 20 * mod_freq <= sample_rate;
    NaN and inf fail it too."""
    if not 0.0 < 20.0 * mod_freq <= sample_rate:
        raise ValueError(f"mod_freq must be > 0 and at most sample_rate / 20, got "
                         f"mod_freq={mod_freq!r}, sample_rate={sample_rate!r}")


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
        reject_nonfinite(self)
        reject_nonint(self, "seed")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.mod_amplitude < 0:
            raise ValueError("mod_amplitude must be >= 0")
        _check_sampling(self.mod_freq, self.sample_rate)
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
    """Lock-in output resampled onto the ramp, one array per record-file
    column in file order: ramp field, low-passed S_T, demodulated S_B,
    time and the branch sign, +1.0 on the up rows, which come first, and
    -1.0 on the down rows."""

    bx: np.ndarray
    st: np.ndarray
    s: np.ndarray
    t: np.ndarray
    branch: np.ndarray
    meta: dict


def record_meta(cfg: ScanConfig, p: EnsembleParams, c: CouplingParams,
                mix: SignalMix) -> dict:
    """Flat metadata dict sufficient to regenerate the record bit-for-bit:
    every field of the five settings objects, by name."""
    meta = {}
    for obj in (cfg, cfg.ramp, p, c, mix):
        meta.update((name, getattr(obj, name)) for name in settings_fields(obj))
    return meta


def config_from_meta(meta: dict):
    """Inverse of record_meta: rebuild the config/parameter objects.

    Records older than ``relax_ratio_alignment`` replay with its default;
    keys of no current field (an old ``back_action`` or ``mode``) are not
    read."""
    meta = {"relax_ratio_alignment": 1.0, **meta}

    def build(cls, **given):
        return cls(**{name: meta[name] for name in settings_fields(cls)}, **given)

    cfg = build(ScanConfig, ramp=build(SweepProtocol))
    return cfg, build(EnsembleParams), build(CouplingParams), build(SignalMix)


# Samples per block of the grids and the signal mix in synthesize_record.
# Full-length (50k-sample) grid calls spent much of their time in minor page
# faults: their full-length outputs and dozens of 400 KB temporaries were
# mapped, first-touched and released again on every call, about 36k faults
# per study_chi pass; in blocks the grids fault about 2k times.  Of
# 2,048-16,384 samples, 4,096 gave the lowest median study time (CHANGES.md).
# _latch_chain's M_y, one component of one grid, runs full-length: in
# blocks it was no faster.
SYNTH_BLOCK = 4096


def _latch_chain(t, bx_slow, direction, by, bz, pe: EnsembleParams,
                 c: CouplingParams, s0: int | None = None):
    """The orientation -> latch -> field step: (M_y, latch, flip starts,
    by_eff).  M_y is the orientation steady state at (bx_slow, by, bz), by
    and bz scalars; the latch starts in state s0, and by_eff = by +
    kappa*my0*latch is the field the alignment sees."""
    my = orientation_steady_state_grid(bx_slow, by, bz, pe, components=(1,))[:, 0]
    ell, flips = latch_scan(t, my, direction, c.my0, default_tau_flip(pe, c), s0=s0)
    return my, ell, flips, by + c.kappa * c.my0 * ell


def synthesize_record(cfg: ScanConfig, p: EnsembleParams, c: CouplingParams,
                      mix: SignalMix | None = None) -> ScanRecord:
    """Simulate one scan through the full measurement chain.

    The scan is sampled at cfg.sample_rate, its one sampling rate, and
    B_x(t) = ramp + mod_amplitude*sin(2 pi mod_freq t) + drift_rate*t.  The
    latch watches the slow (unmodulated) orientation moment, since the flip
    dynamics are slower than a modulation period; both moments otherwise
    follow the instantaneous field quasi-statically.

    The signal's steady-state grids and the signal mix run over
    SYNTH_BLOCK-sample blocks written into full-length arrays, so their
    temporaries stay small enough to be reused instead of page-faulted in
    on every call.  The grids evaluate only the components read
    downstream: M_y for the latch, and the m0c, m2s and mz of the signal
    mix.  Every blocked step is elementwise and each component is computed
    by the same operations as in a full grid, so the record is
    bit-identical to one full-length pass of the full grids; the latch's
    M_y, the latch, the ramp and the noise draws stay full-length.
    """
    if mix is None:
        mix = SignalMix()
    t, bx_ramp, dirs = sweep_profile(cfg.ramp, cfg.sample_rate)
    pe = effective_params(p, cfg.ramp)
    drift = cfg.drift_rate * t
    bx_slow = bx_ramp + drift
    bx_mod = bx_slow + cfg.mod_amplitude * np.sin(TWO_PI * cfg.mod_freq * t)
    by, bz = cfg.ramp.static_by, cfg.ramp.static_bz
    *_, by_eff = _latch_chain(t, bx_slow, dirs, by, bz, pe, c)

    st, sb = np.empty(t.size), np.empty(t.size)
    for b in (slice(i, i + SYNTH_BLOCK) for i in range(0, t.size, SYNTH_BLOCK)):
        mz = orientation_steady_state_grid(bx_mod[b], by, bz, pe, components=(2,))[:, 0]
        m0c, m2s = alignment_steady_state_grid(bx_mod[b], by_eff[b], bz, pe,
                                               components=(0, 4)).T
        st[b], sb[b] = signals_from_state(m0c, m2s, mz, mix)
    rng = np.random.default_rng(cfg.seed)
    if cfg.noise_rms > 0:
        st = st + cfg.noise_rms * rng.standard_normal(t.size)
        sb = sb + cfg.noise_rms * rng.standard_normal(t.size)
    return ScanRecord(t=t, bx_ramp=bx_ramp, st_raw=st, sb_raw=sb, direction=dirs,
                      meta=record_meta(cfg, p, c, mix))


def synthesize_from_meta(meta: dict) -> ScanRecord:
    """Regenerate a record from its own metadata (deterministic replay)."""
    return synthesize_record(*config_from_meta(meta))


@dataclass(frozen=True)
class FlipEvent:
    """A threshold crossing of the latch."""

    t: float
    bx: float
    direction: int        # +1 for - -> +, -1 for + -> -


@dataclass(frozen=True)
class Trajectory:
    """Uniformly sampled sweep output: the ramp bx, the transverse field
    by_eff the alignment evolved under and the latch variable in [-1, 1]."""

    t: np.ndarray              # (N,)
    bx: np.ndarray             # (N,)
    by_eff: np.ndarray         # (N,)
    m1: np.ndarray             # (N, 3)
    m2: np.ndarray             # (N, 5)
    latch: np.ndarray          # (N,)
    direction: np.ndarray      # (N,) ramp slope sign
    flips: tuple = ()


def _flip_events(t, bx, my, flips, my0, ell):
    """The threshold crossing before each flip start, interpolated between
    it and the sample before."""
    events = []
    for i in flips:
        d = 1 if ell[i] < 0 else -1     # the trigger sample holds the old state
        k = max(i - 1, 0)
        frac = 0.0
        if my[i] != my[k]:
            frac = min(max((my0 * d - my[k]) / (my[i] - my[k]), 0.0), 1.0)
        events.append(FlipEvent(t=float(t[k] + frac * (t[i] - t[k])),
                                bx=float(bx[k] + frac * (bx[i] - bx[k])), direction=d))
    return tuple(events)


def run_sweep(proto: SweepProtocol, p: EnsembleParams, c: CouplingParams,
              sample_rate: float, initial_sign: int | None = None) -> Trajectory:
    """Run a field scan sampled at sample_rate (Hz) and return the trajectory.

    Both moments follow their quasi-static steady states at the plain ramp;
    the alignment sees static_by plus the latched field kappa*my0*latch(t).
    """
    t, bx, direction = sweep_profile(proto, sample_rate)
    pe = effective_params(p, proto)
    by, bz = proto.static_by, proto.static_bz
    my, ell, flip_idx, by_eff = _latch_chain(t, bx, direction, by, bz, pe, c,
                                             s0=initial_sign)
    return Trajectory(t=t, bx=bx, by_eff=by_eff,
                      m1=orientation_steady_state_grid(bx, by, bz, pe),
                      m2=alignment_steady_state_grid(bx, by_eff, bz, pe),
                      latch=ell, direction=direction,
                      flips=_flip_events(t, bx, my, flip_idx, c.my0, ell))


# 10-90% step-response time of lowpass_filter, in units of 1/cutoff
# (measured once on a dense step; the filter shape is scale-invariant)
LOWPASS_RISE_10_90 = 0.3319


def lowpass_rise_time(cutoff: float) -> float:
    """10-90% step-response time of :func:`lowpass_filter` at this cutoff."""
    return LOWPASS_RISE_10_90 / cutoff


# Samples of odd extension at each end of lowpass_filter's input: scipy's
# filtfilt default for a biquad, three times the length of b or a.
LOWPASS_PAD = 9

# Bound on the weights of the blocked prefix sums in lowpass_filter: a block of
# L samples weights its input by |pole|^-j <= 2^64 for j < L, so the sums stay
# finite for inputs below about 1e289 in magnitude.
SCAN_RANGE = 64.0 * math.log(2.0)


def lowpass_design(cutoff: float, sample_rate: float) -> tuple[float, float]:
    """Section gain c and pole p of the biquad [c (1 + z^-1) / (1 - p z^-1)]^2.

    The analog prototype w^2 / (s + w)^2 has a double pole at -w0 with
    w0 = 2.2989*wc, so the forward-backward squared magnitude is -3 dB at the
    cutoff.  Its bilinear transform (s = K (z - 1)/(z + 1), K = 2 fs, with w
    the pole prewarped to 2 fs tan(w0 / 2 fs)) is written out in closed form:
    c = w / (K + w) and p = (K - w) / (K + w), i.e. b = c^2 (1, 2, 1) and
    a = (1, -2p, p^2); the DC gain is 1.  The prewarped pole is finite only for
    w0 < pi fs, so the cutoff must lie below fs / (2 * 2.2989); past that the
    digital filter would be unstable.  p <= 0 from fs / 9.1956 on.
    """
    w0 = 2.2989 * TWO_PI * cutoff
    k = 2.0 * sample_rate
    if not math.isfinite(k):  # the prewarp would be inf * tan(0) = NaN
        raise ValueError(f"sample_rate {sample_rate!r} is too large: 2 * sample_rate "
                         "must be finite")
    if not 0.0 < w0 < 0.5 * math.pi * k:
        raise ValueError("cutoff must lie in (0, sample_rate / 4.5978)")
    # prewarp so the bilinear transform lands the pole where intended
    w = k * math.tan(w0 / k)
    return w / (k + w), (k - w) / (k + w)


def _scan_blocks(pole: float, n: int) -> tuple[int, int]:
    """(blocks, length) of the prefix-sum layout of an n-sample pass."""
    decay = -math.log(abs(pole)) if pole else math.inf
    longest = n if decay * n <= SCAN_RANGE else max(1, int(SCAN_RANGE / decay))
    blocks = -(-n // longest)
    return blocks, -(-n // blocks)


def _causal_pass(data, spare, n, p, up, down):
    """Zero-state response of [c (1 + z^-1) / (1 - p z^-1)]^2 to data[:n], in place.

    spare is a work buffer of data's size, both laid out as blocks of up.size
    samples.  Each section applies the FIR 1 + z^-1, then
    v[i] = c u[i] + p v[i-1] block-wise: within a block,
    v[j] = p^j (p v_prev + c sum_{i<=j} p^-i u[i]), one cumsum of the input
    weighted by up = c p^-j, scaled by down = p^j, with v_prev, the end of
    the previous block, carried in.  Samples past n are zero input, so they
    do not reach data[:n].
    """
    length = up.size
    blocks = data.size // length
    for src, dst in ((data, spare), (spare, data)):
        dst[0] = src[0]
        np.add(src[1:n], src[:n - 1], out=dst[1:n])
        dst[n:] = 0.0
        w = dst.reshape(blocks, length)
        w *= up
        if blocks > 1:
            # block ends of the zero-state sums, then the carries between blocks
            tail, step = p ** (length - 1), p ** length
            carry, carries = 0.0, []
            for end in w[:-1].sum(axis=1).tolist():
                carry = tail * end + step * carry
                carries.append(carry)
            w[1:, 0] += p * np.array(carries)
        np.cumsum(w, axis=1, out=w)
        w *= down


def lowpass_filter(series, cutoff: float, sample_rate: float):
    """Zero-phase critically damped second-order low-pass.

    The biquad of :func:`lowpass_design` runs forward, then backward, over
    the series extended at each end by LOWPASS_PAD samples of odd extension,
    each pass started from the steady state of its first sample: scipy's
    filtfilt default edge handling, on numpy alone.  Since the DC gain is 1,
    each pass filters the deviation from its first sample from zero state, as
    two first-order sections evaluated by blocked prefix sums (see
    _causal_pass) rather than a per-sample recursion; the level the passes
    start from is added back once, at the end.

    The series must be 1-D, longer than LOWPASS_PAD samples and below about
    1e289 in magnitude; NaN anywhere makes the whole output NaN.  Against a
    long-double evaluation of the same biquad, at 500 Hz with cutoffs of
    0.25-2 Hz on a DC level of 6 its largest error is 2e-15 to 1e-14 of the
    unit AC scale (scipy's filtfilt: 4e-13 to 3e-11), and it is no less
    accurate than filtfilt over the whole cutoff range, poles near -1
    included.  On 75k samples a call takes 1.1-1.4x as long as filtfilt.
    """
    c, p = lowpass_design(cutoff, sample_rate)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size <= LOWPASS_PAD:
        raise ValueError(f"series must be 1-D and longer than {LOWPASS_PAD} samples")
    pad = LOWPASS_PAD
    n = x.size + 2 * pad
    blocks, length = _scan_blocks(p, n)
    j = np.arange(length, dtype=float)
    up, down = c * np.power(p, -j), np.power(p, j)
    data, spare = np.empty(blocks * length), np.empty(blocks * length)
    # the odd extension 2 x[0] - x[pad:0:-1], x, 2 x[-1] - x[-2:-pad-2:-1],
    # less its first sample e0
    e0 = 2.0 * x[0] - x[pad]
    data[:pad] = x[pad] - x[pad:0:-1]
    np.subtract(x, e0, out=data[pad:n - pad])
    data[n - pad:n] = (2.0 * x[-1] - e0) - x[-2:-pad - 2:-1]
    _causal_pass(data, spare, n, p, up, down)
    # the backward pass starts from the forward output's last sample, r0
    r0 = data[n - 1]
    np.subtract(data[n - 1::-1], r0, out=spare[:n])
    _causal_pass(spare, data, n, p, up, down)
    return spare[n - 1 - pad:pad - 1:-1] + (e0 + r0)


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
    meta["output_rate"]) and laid out by ramp slope: the up rows, then the
    down rows, with branch +1.0 and -1.0; dwell samples (zero slope) are
    dropped.
    """
    f = rec.meta["mod_freq"]
    fs = rec.meta["sample_rate"]
    _check_sampling(f, fs)
    if lpf_cutoff >= f / 2.0:
        raise ValueError("lpf_cutoff must be below mod_freq/2")
    if not (math.isfinite(phase_deg) and math.isfinite(gain)):
        raise ValueError("phase_deg and gain must be finite")
    ref = np.sin(TWO_PI * f * rec.t + math.radians(phase_deg))
    sb_ac = rec.sb_raw - lowpass_filter(rec.sb_raw, lpf_cutoff / 2.0, fs)
    demod = gain * lowpass_filter(sb_ac * ref, lpf_cutoff, fs)
    st = lowpass_filter(rec.st_raw, lpf_cutoff, fs)
    # fs >= 20 f and 0 < lpf_cutoff < f / 2 put fs / (8 * lpf_cutoff) above
    # 5; a cutoff so small that the step passes the record's length keeps
    # only its first sample
    dec = int(round(min(fs / (8.0 * lpf_cutoff), rec.t.size)))
    idx = np.arange(0, rec.t.size, dec)
    up = idx[rec.direction[idx] > 0]
    down = idx[rec.direction[idx] < 0]
    rows = np.concatenate([up, down])
    return DemodRecord(
        bx=rec.bx_ramp[rows], st=st[rows], s=demod[rows], t=rec.t[rows],
        branch=np.repeat([1.0, -1.0], [up.size, down.size]),
        meta={**rec.meta, "phase_deg": phase_deg, "lpf_cutoff": lpf_cutoff,
              "gain": gain, "output_rate": fs / dec,
              "response_time": lowpass_rise_time(lpf_cutoff)})

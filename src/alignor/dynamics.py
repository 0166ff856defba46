"""Sweep protocols and the hysteresis latch rule.

The latch implements the threshold hypothesis directly: the sign of the
alignment-driving effective transverse field is a latched variable that
flips only when the orientation's M_y crosses +/-my0, ramping through zero
as a raised cosine of duration pi*tau_flip.  The chain that feeds it the
steady-state M_y, and the sweeps built on it, live in ``instrument``.
"""

import bisect
from dataclasses import dataclass, replace
import math

import numpy as np

from .estimators import MAX_ELLIPTICITY_DEG, circular_power
from .spincore import EnsembleParams, reject_nonfinite

# 10-90% fraction of the half-period of a raised-cosine step
RAISED_COS_10_90 = (math.acos(-0.8) - math.acos(0.8)) / math.pi

# The most samples sweep_profile lays out for one scan: 80 MB per float64
# column, and synthesize_record holds about a dozen columns of that length.
MAX_SCAN_SAMPLES = 10**7


class UnreachableThresholdError(ValueError):
    """Flip threshold exceeds the available orientation moment."""


@dataclass(frozen=True)
class CouplingParams:
    """Orientation-to-alignment coupling and the latch threshold.

    kappa maps the latched orientation moment onto an effective transverse
    field (nT per unit M1); my0 is the flip threshold on M1_y; tau_flip is
    the flip time constant (None picks the default that ties the 10-90%
    transition duration to 1/((gamma/2pi)*B_latch)).
    """

    kappa: float
    my0: float
    tau_flip: float | None = None

    def __post_init__(self):
        reject_nonfinite(self)
        if self.my0 < 0:
            raise ValueError("my0 must be >= 0")
        if self.tau_flip is not None and self.tau_flip <= 0:
            raise ValueError("tau_flip must be > 0")

    @property
    def latched_field(self) -> float:
        """Effective transverse field magnitude held by the latch, nT."""
        return abs(self.kappa * self.my0)


def default_tau_flip(p: EnsembleParams, c: CouplingParams) -> float:
    """The flip time constant: c.tau_flip when set, else the one making the
    10-90% duration equal 1/((gamma/2pi)*B).

    The raised-cosine ramp spends RAISED_COS_10_90 of its half period between
    the 10% and 90% levels, so tau = 1/(frac*pi*(gamma/2pi)*B_latch).
    """
    if c.tau_flip is not None:
        return c.tau_flip
    b = c.latched_field
    if b == 0.0:
        return 0.01
    return 1.0 / (RAISED_COS_10_90 * math.pi * p.gamma_over_2pi * b)


@dataclass(frozen=True)
class SweepProtocol:
    """A linear field-scan protocol along B_x with optional zero-field dwell."""

    bx_start: float
    bx_end: float
    rate: float                       # nT/s
    direction_pattern: str = "triangle"   # up | down | triangle
    hold_on_zero: bool = False
    hold_time: float = 300.0          # s, dwell at B_x = 0
    static_by: float = 0.0
    static_bz: float = 0.0
    ellipticity_deg: float | None = None

    def __post_init__(self):
        reject_nonfinite(self)
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.bx_start == self.bx_end:
            raise ValueError("bx_start and bx_end must differ")
        if self.direction_pattern not in ("up", "down", "triangle"):
            raise ValueError("direction_pattern must be up, down or triangle")
        if self.ellipticity_deg is not None and abs(self.ellipticity_deg) > MAX_ELLIPTICITY_DEG:
            raise ValueError(f"|ellipticity_deg| must be <= {MAX_ELLIPTICITY_DEG:g}")
        if self.hold_time < 0:
            raise ValueError("hold_time must be >= 0")


def predict_flip_field(p: EnsembleParams, c: CouplingParams) -> float:
    """First-order flip field B_x0 = Gamma*my0/(gamma*m0); hysteresis is 2*B_x0."""
    if p.m0 <= 0:
        raise ValueError("m0 must be > 0")
    if c.my0 > p.m0:
        raise UnreachableThresholdError(
            f"threshold my0={c.my0} exceeds available moment m0={p.m0}: no flip occurs")
    return p.relax_rate * c.my0 / (p.gamma_rad * p.m0)


def effective_field_from_transient(dt_transition: float, p: EnsembleParams) -> float:
    """Effective transverse field from a flip duration: 1/(dt*(gamma/2pi)), nT."""
    if dt_transition <= 0:
        raise ValueError("dt_transition must be > 0")
    return 1.0 / (dt_transition * p.gamma_over_2pi)


# ---------------------------------------------------------------------------
# sweep profile construction


def _segments(proto: SweepProtocol):
    if proto.direction_pattern == "up":
        legs = [(proto.bx_start, proto.bx_end)]
    elif proto.direction_pattern == "down":
        legs = [(proto.bx_end, proto.bx_start)]
    else:
        legs = [(proto.bx_start, proto.bx_end), (proto.bx_end, proto.bx_start)]
    segs = []          # (duration, bx at segment start, slope)
    for b0, b1 in legs:
        slope = math.copysign(proto.rate, b1 - b0)
        if proto.hold_on_zero and min(b0, b1) < 0.0 < max(b0, b1):
            segs.append(((0.0 - b0) / slope, b0, slope))
            segs.append((proto.hold_time, 0.0, 0.0))
            segs.append((b1 / slope, 0.0, slope))
        else:
            segs.append(((b1 - b0) / slope, b0, slope))
    return segs


def sweep_profile(proto: SweepProtocol, sample_rate: float):
    """Sample the scan at sample_rate Hz into (t, bx, direction).

    Raises ValueError for a sample_rate that is not > 0 and, before
    allocating, for a scan of more than MAX_SCAN_SAMPLES samples or of a
    non-finite length.
    """
    if not sample_rate > 0:
        raise ValueError(f"sample_rate must be > 0, got {sample_rate}")
    segs = _segments(proto)
    durations = np.array([s[0] for s in segs])
    edges = np.concatenate([[0.0], np.cumsum(durations)])
    dt = 1.0 / sample_rate
    steps = edges[-1] / dt
    if not math.isfinite(steps) or steps >= MAX_SCAN_SAMPLES:
        raise ValueError(f"the scan takes {steps + 1:.3g} samples, more than "
                         f"the {MAX_SCAN_SAMPLES:.0e} a scan may take")
    n = int(math.floor(steps)) + 1
    t = np.arange(n) * dt
    # segment k covers edges[k] <= t < edges[k + 1]; the last one runs to the end
    starts = np.searchsorted(t, edges[:-1]).tolist() + [n]
    bx, direction = np.empty(n), np.empty(n)
    for (_, b0, slope), edge, lo, hi in zip(segs, edges.tolist(), starts, starts[1:]):
        bx[lo:hi] = b0 + slope * (t[lo:hi] - edge)
        direction[lo:hi] = np.sign(slope)
    return t, bx, direction


# ---------------------------------------------------------------------------
# the latch


def latch_scan(t, my, direction, my0: float, tau_flip: float, s0: int | None = None):
    """Scan the latch over a sampled trajectory of the slow M_y.

    Returns the continuous latch variable (raised-cosine ramps between -1 and
    +1) and the list of flip start indices.

    A flip starts at the first sample at or after the current one where the
    held state s < 0 meets M_y >= my0 on an up sweep (s > 0: M_y <= -my0 on a
    down sweep); the rule holds for every my0 >= 0, zero included, so a
    dwell sample (direction 0) never starts a flip.  The trigger sample
    keeps the old state; the following samples ramp as
    s_old + (s - s_old)(1 - cos phase)/2 with phase = (t - t0)/tau_flip, up to
    the first sample with phase >= pi, which takes s; the trigger checks
    resume after it.  The scan loops once per flip, so its Python work is
    linear in the number of flips; the tests hold it bit for bit to a
    per-sample reference loop.  Precondition: t is non-decreasing, so the
    phase is too.  The starting state s0 is -1 or +1, or None to start on
    the sign of my[0] (+1 at zero); any other value raises ValueError.
    """
    if s0 not in (None, -1, 1):
        raise ValueError(f"s0 must be None, -1 or +1, got {s0!r}")
    t = np.asarray(t, float)
    my = np.asarray(my, float)
    direction = np.asarray(direction)
    n = t.size
    up = (direction > 0) & (my >= my0)
    down = (direction < 0) & (my <= -my0)
    rising, falling = np.flatnonzero(up), np.flatnonzero(down)
    ell = np.empty(n)
    flips = []
    if s0 is None:
        s0 = -1 if my[0] < 0 else 1
    s = float(s0)
    i = 0
    while i < n:
        idx = rising if s < 0 else falling
        k = np.searchsorted(idx, i)
        if k == idx.size:
            ell[i:] = s
            break
        j = int(idx[k])
        ell[i:j + 1] = s          # the trigger sample still holds the old state
        flips.append(j)
        s_old, s = s, (1.0 if s < 0 else -1.0)
        t0 = t[j]
        end = j + 1 + bisect.bisect_left(
            range(j + 1, n), True, key=lambda m: (t[m] - t0) / tau_flip >= math.pi)
        phase = (t[j + 1:end] - t0) / tau_flip
        ell[j + 1:end] = s_old + (s - s_old) * 0.5 * (1.0 - np.cos(phase))
        if end < n:
            ell[end] = s
        i = end + 1
    return ell, flips


def effective_params(p: EnsembleParams, proto: SweepProtocol) -> EnsembleParams:
    """p, its m0 scaled by circular_power's sin|2*chi| if proto sets an ellipticity."""
    if proto.ellipticity_deg is None:
        return p
    return replace(p, m0=circular_power(p.m0, proto.ellipticity_deg))

"""Multipole algebra and steady states for coexisting orientation and alignment.

The vapor carries two moments: a rank-1 orientation (a Bloch vector pumped by
the circular light component along the light axis z) and a rank-2 alignment
(pumped by the linear component, polarization axis x).  Both precess about
the applied magnetic field and relax at a common rate.  Moments are plain
numpy arrays: the orientation as (..., 3) = (mx, my, mz), the alignment as
(..., 5) in the real z-quantized basis (m0c, m1c, m1s, m2c, m2s), with
m0c = rho_0, m_qc = sqrt(2)*Re rho_q and m_qs = -sqrt(2)*Im rho_q for q > 0.
This module holds the validated ensemble constants (EnsembleParams), the
closed-form grid solvers (the orientation inverse and the adjugate of the
5x5 alignment system), and the one signal mix that turns moments into
photodetector signals.  A grid's keyword-only ``components`` names the
components it evaluates, so a caller that reads only M_y, or only the m0c,
m2s and mz the signal mix reads, pays for no others.  Their slow references
(LAPACK solves, the spin-2 generators, the m2s lineshape) live in the test
suite's ``tests/oracles.py``.
"""

from dataclasses import dataclass, fields, is_dataclass
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Gyromagnetic slopes of the zero-field resonance, Hz/nT.
WEAK_PUMP_GAMMA_HZ_PER_NT = 1.27
STRONG_PUMP_GAMMA_HZ_PER_NT = 3.5


def reject_nonfinite(obj):
    """Raise ValueError naming the first float field of dataclass ``obj``
    that is NaN or infinite."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, (float, np.floating)) and not math.isfinite(v):
            raise ValueError(f"{f.name} must be finite, got {v!r}")


def settings_fields(cls):
    """The flat fields of a settings dataclass or instance: all but nested dataclasses."""
    return [f.name for f in fields(cls) if not is_dataclass(f.type)]


def reject_nonint(obj, name: str):
    """Raise ValueError unless field ``name`` of ``obj`` is an int, not a bool."""
    v = getattr(obj, name)
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class EnsembleParams:
    """Ensemble constants: gyromagnetic slope, relaxation, pump equilibria.

    ``relax_rate`` is the half-width at half-maximum of the zero-field
    resonance in angular units (s^-1), so that the dimensionless field is
    b_i = gamma * B_i / relax_rate with gamma = 2*pi*gamma_over_2pi.  The
    orientation is pumped along the light axis z, toward m0 * z.
    """

    gamma_over_2pi: float = WEAK_PUMP_GAMMA_HZ_PER_NT  # Hz/nT
    relax_rate: float = 60.0                           # s^-1, HWHM convention
    m0: float = 1.0        # equilibrium orientation magnitude
    a0: float = 1.0        # equilibrium alignment magnitude
    # rank-2 coherences usually relax faster than the rank-1 moment; the
    # alignment relaxation rate is relax_ratio_alignment * relax_rate
    relax_ratio_alignment: float = 1.0

    def __post_init__(self):
        reject_nonfinite(self)
        if self.relax_rate <= 0:
            raise ValueError("relax_rate must be > 0")
        if self.relax_ratio_alignment <= 0:
            raise ValueError("relax_ratio_alignment must be > 0")
        if self.gamma_over_2pi <= 0:
            raise ValueError("gamma_over_2pi must be > 0")

    @property
    def gamma_rad(self) -> float:
        """Angular gyromagnetic ratio, rad/s per nT."""
        return TWO_PI * self.gamma_over_2pi

    @property
    def width_nt(self) -> float:
        """Resonance half-width in field units, relax_rate / gamma."""
        return self.relax_rate / self.gamma_rad

    @property
    def alignment_relax_rate(self) -> float:
        """Relaxation rate of the rank-2 moment, s^-1."""
        return self.relax_ratio_alignment * self.relax_rate


def _check_components(components, n):
    """Raise ValueError unless ``components`` holds distinct indices in range(n)."""
    if not components or len(set(components)) != len(components) or \
            not all(k in range(n) for k in components):
        raise ValueError(f"components must be distinct indices in 0..{n - 1}, "
                         f"got {components!r}")


def orientation_steady_state_grid(bx, by, bz, p: EnsembleParams, *,
                                  components=(0, 1, 2)) -> np.ndarray:
    """Vectorized orientation steady state; returns shape (..., len(components)).

    Column j holds component ``components[j]`` of (mx, my, mz); the default
    is all three.  Uses the closed inverse of (Gamma I + [w]_x), w = gamma B,
    on the pump direction z: M = m0 (wz wx - Gamma wy, Gamma wx + wz wy,
    Gamma^2 + wz^2) / (Gamma^2 + |w|^2).  The shared denominator is formed
    once and only the components asked for are evaluated, each by the same
    operations whichever others are asked for.  Matches the LAPACK solve of
    ``tests/oracles.py`` to 1e-12 relative for field components within
    +-100 nT and Gamma in [10, 500] s^-1.
    """
    _check_components(components, 3)
    g = p.gamma_rad
    wx, wy, wz = (g * np.asarray(b, float) for b in (bx, by, bz))
    gam = p.relax_rate
    den = gam**2 + (wx * wx + wy * wy + wz * wz)
    formulas = (lambda: p.m0 * (wz * wx - gam * wy) / den,
                lambda: p.m0 * (gam * wx + wz * wy) / den,
                lambda: p.m0 * (gam**2 + wz * wz) / den)
    out = np.empty(den.shape + (len(components),))
    for j, k in enumerate(components):
        out[..., j] = formulas[k]()
    return out


def alignment_steady_state_grid(bx, by, bz, p: EnsembleParams, *,
                                components=(0, 1, 2, 3, 4)) -> np.ndarray:
    """Vectorized alignment steady state; returns shape (..., len(components)).

    Column j holds component ``components[j]`` of (m0c, m1c, m1s, m2c, m2s);
    the default is all five.  The shared subexpressions are formed once and
    only the components asked for are evaluated, each by the same operations
    whichever others are asked for.

    Adjugate (Cramer) solution of (1 + b.G) m = a0 p_x with the dimensionless
    field b = (x, y, z) = gamma B / Gamma2, Gamma2 the alignment relaxation
    rate, G the spin-2 generators and p_x = (-1/2, 0, 0, sqrt3/2, 0) the unit
    rank-2 pump tensor of linear polarization along x.  The determinant is
    D = (1 + r^2)(1 + 4 r^2), r^2 = x^2 + y^2 + z^2, and

        m0c D / a0        = -2x^4 - x^2y^2 + 5x^2z^2 - 5x^2/2 + 9xyz + y^4
                            - y^2z^2 + y^2/2 - 2z^4 - 5z^2/2 - 1/2
        m1c D / (sqrt3 a0) = xz(2y^2 + 2z^2 - 4x^2 - 1) - y(4x^2 + y^2 + z^2 + 1)
        m1s D / (sqrt3 a0) = yz(2y^2 + 2z^2 - 4x^2 + 2) - 3x(y^2 - z^2)
        m2c D / (sqrt3 a0) = 2x^4 - 3x^2y^2 - x^2z^2 + 5x^2/2 + 3xyz + y^4
                            + y^2z^2 + 3y^2/2 + z^2/2 + 1/2
        m2s D / (sqrt3 a0) = xy(4x^2 - 2y^2 - 2z^2 + 1) - z(4x^2 + y^2 + z^2 + 1)

    (the m2s numerator is that of the lineshape ``alignment_signal_shape``
    in ``tests/oracles.py``).  It is regular everywhere and equals a0 p_x at
    B = 0.  Matches the LAPACK solve of ``tests/oracles.py`` to 1e-12
    relative for field components within +-100 nT, gamma/2pi in
    [1, 5] Hz/nT and Gamma in [5, 1500] s^-1 (up to ~10^3 resonance widths),
    also at the magic angle to the pump axis, where m is only O(1/r).
    """
    _check_components(components, 5)
    s = p.gamma_rad / p.alignment_relax_rate
    x, y, z = (s * np.asarray(b, float) for b in (bx, by, bz))
    x2, y2, z2 = x * x, y * y, z * z
    xyz = x * y * z
    r2 = x2 + y2 + z2
    q = 4.0 * x2 + y2 + z2 + 1.0
    w = 2.0 * (y2 + z2) - 4.0 * x2
    c = p.a0 / ((1.0 + r2) * (1.0 + 4.0 * r2))
    r3c = math.sqrt(3.0) * c
    formulas = (lambda: c * (x2 * (5.0 * z2 - 2.0 * x2 - y2 - 2.5) + 9.0 * xyz
                             + y2 * (y2 - z2 + 0.5) - z2 * (2.0 * z2 + 2.5) - 0.5),
                lambda: r3c * (x * z * (w - 1.0) - y * q),
                lambda: r3c * (y * z * (w + 2.0) - 3.0 * x * (y2 - z2)),
                lambda: r3c * (x2 * (2.0 * x2 - 3.0 * y2 - z2 + 2.5) + 3.0 * xyz
                               + y2 * (y2 + z2 + 1.5) + 0.5 * z2 + 0.5),
                lambda: r3c * (x * y * (1.0 - w) - z * q))
    out = np.empty(c.shape + (len(components),))
    for j, k in enumerate(components):
        out[..., j] = formulas[k]()
    return out


@dataclass(frozen=True)
class SignalMix:
    """Mixing coefficients turning moments into photodetector-like signals."""

    c_al: float = 1.0        # alignment coherence -> S_B
    c_or: float = 0.0        # orientation M_z -> S_B (circular birefringence)
    c_t: float = 1.0         # alignment m0c -> S_T (absorption)
    baseline_t: float = 0.0
    baseline_b: float = 0.0

    def __post_init__(self):
        reject_nonfinite(self)


def signals_from_state(m0c, m2s, mz, mix: SignalMix):
    """Photocurrent-like (S_T, S_B) from the three moment components they read.

    S_T reads the alignment m0c (absorption); S_B the polarimeter-visible
    alignment coherence m2s plus the orientation mz (circular birefringence).
    """
    st = mix.baseline_t + mix.c_t * m0c
    sb = mix.baseline_b + mix.c_al * m2s + mix.c_or * mz
    return st, sb

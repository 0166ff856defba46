"""Slow reference implementations the tests hold the package to; nothing
under ``src/`` imports them.

* ``orientation_steady_state``/``alignment_steady_state``: LAPACK solves of
  the steady-state systems, the references of the closed-form grids;
* ``SPIN2_GENERATORS``: the real spin-2 generators built from the complex
  j=2 ladder matrices, checked against the spin algebra, and their field
  contraction ``spin2_contract``;
* ``alignment_signal_shape``: the closed-form m2s lineshape, the reference
  of the grid's m2s and the source of ``StudyPreset.signal_mix``'s c_al;
* ``fit_record_all_starts``: the composite-contour multistart run to the end
  from every start, the reference of ``fit_record``'s basin merge.
"""

from dataclasses import replace
import math

import numpy as np

from alignor.fitkit import (
    COMPOSITE_PARAM_NAMES,
    CompositeContourModel,
    _branch_rows,
    _check_branch,
    _composite_fn,
    _composite_jac,
    _initial_guess,
    levenberg_marquardt,
)


def angular_momentum_j2():
    """Complex j=2 matrices (jx, jy, jz) on rho_q, q = -2..2, from the
    ladder coefficients sqrt(6 - q(q+1))."""
    q = np.arange(-2, 3)
    jp = np.zeros((5, 5), dtype=complex)
    for i in range(4):
        jp[i + 1, i] = math.sqrt(6.0 - q[i] * (q[i] + 1))
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, np.diag(q).astype(complex)


def build_spin2_generators() -> np.ndarray:
    """Read-only (3, 5, 5) stack (gx, gy, gz) of spin-2 generators in the
    (m0c, m1c, m1s, m2c, m2s) basis.

    The complex j=2 matrices transformed to the real basis; the results
    satisfy cyclic commutators [gx, gy] = gz and Casimir gx^2+gy^2+gz^2 = -6 I.
    """
    # rows: real components; columns: rho_q ordered q = -2..2
    s = 1.0 / math.sqrt(2.0)
    u = np.zeros((5, 5), dtype=complex)
    u[0, 2] = 1.0
    u[1, 3], u[1, 1] = s, -s            # m1c = (rho_1 - rho_-1)/sqrt2
    u[2, 3], u[2, 1] = 1j * s, 1j * s   # m1s = i(rho_1 + rho_-1)/sqrt2
    u[3, 4], u[3, 0] = s, s             # m2c
    u[4, 4], u[4, 0] = 1j * s, -1j * s  # m2s

    def to_real(j):
        g = u @ (-1j * j) @ u.conj().T
        if np.abs(g.imag).max() > 1e-12:
            raise AssertionError("generator not real in this basis")
        return g.real

    gens = np.stack([to_real(j) for j in angular_momentum_j2()])
    gens.flags.writeable = False
    return gens


SPIN2_GENERATORS = build_spin2_generators()


def spin2_contract(bx, by, bz) -> np.ndarray:
    """B.G of shape (..., 5, 5) for scalar or broadcastable field components.

    Every entry of B.G has at most one non-zero generator term, so this
    elementwise sum is exact.
    """
    g = SPIN2_GENERATORS
    return (np.asarray(bx, float)[..., None, None] * g[0]
            + np.asarray(by, float)[..., None, None] * g[1]
            + np.asarray(bz, float)[..., None, None] * g[2])


# Rank-2 pump tensor for linear polarization along x: the q=0 tensor rotated
# from z to x (Wigner d: d200 = -1/2, d2(+-2)0 = sqrt(3/8), times the sqrt(2)
# basis normalization on the cosine components).  Unit Euclidean norm.
ALIGNMENT_PUMP_X = np.array([-0.5, 0.0, 0.0, math.sqrt(3.0) / 2.0, 0.0])
ALIGNMENT_PUMP_X.flags.writeable = False


def alignment_signal_shape(bx, by, bz):
    """Closed-form alignment coherence lineshape on dimensionless fields.

    Array-friendly: accepts scalars or broadcastable arrays.  This is the
    exact steady-state m2s observable of the rank-2 linear model, up to the
    single calibration scalar below.
    """
    bx = np.asarray(bx, dtype=float)
    by = np.asarray(by, dtype=float)
    bz = np.asarray(bz, dtype=float)
    bx2 = bx * bx
    byz2 = by * by + bz * bz
    num = bz * (1.0 + 4.0 * bx2 + byz2) - bx * by * (1.0 + 4.0 * bx2 - 2.0 * byz2)
    den = (4.0 * bx2 + 4.0 * byz2 + 1.0) * (bx2 + byz2 + 1.0)
    return num / den


# Scalar c with c * m2s == alignment_signal_shape for the conventions above
# (a0 = 1): the single calibration scalar of the equivalence test.
ALIGNMENT_SIGNAL_CALIBRATION = -1.0 / math.sqrt(3.0)


def orientation_steady_state(bx, by, bz, p) -> np.ndarray:
    """Steady state of dM/dt = gamma M x B - Gamma (M - m0 z) at a scalar
    field (nT), as the LAPACK solve of (Gamma I + gamma [B]_x) M = Gamma m0 z,
    with [B]_x the cross-product matrix of B.  Returns (mx, my, mz)."""
    wx, wy, wz = (p.gamma_rad * float(b) for b in (bx, by, bz))
    a = p.relax_rate * np.eye(3) + np.array([
        [0.0, -wz, wy],
        [wz, 0.0, -wx],
        [-wy, wx, 0.0],
    ])
    return np.linalg.solve(a, np.array([0.0, 0.0, p.relax_rate * p.m0]))


def alignment_steady_state(bx, by, bz, p) -> np.ndarray:
    """Rank-2 steady state, shape (..., 5), for scalar or broadcastable field
    components (nT): the batched LAPACK solve of (gamma B.G + Gamma2 I) m =
    Gamma2 a0 p_x, Gamma2 the alignment relaxation rate.  The sign of the
    precession term is frozen by the closed-form equivalence test."""
    bx, by, bz = np.broadcast_arrays(np.asarray(bx, float), np.asarray(by, float),
                                     np.asarray(bz, float))
    gal = p.alignment_relax_rate
    a = p.gamma_rad * spin2_contract(bx, by, bz) + gal * np.eye(5)
    rhs = np.broadcast_to(gal * p.a0 * ALIGNMENT_PUMP_X, bx.shape + (5,))
    return np.linalg.solve(a, rhs[..., None])[..., 0]


def fit_record_all_starts(rec, init=None):
    """``fit_record`` as four full Levenberg-Marquardt runs, one from each
    start, with no merging of starts that reach a known minimum: the oracle
    of its basin merge.  The body below is the fit before the merge,
    verbatim but for three changes ``fit_record`` also made: it fits the
    single-branch rows once, it takes the record's columns as the joint
    (bx, sigma, y) as they are, and it checks and fits whichever branches
    the record holds.

    Joint up/down-branch fit of the composite contour to a demodulated scan.

    ``rec`` must expose the demod columns bx, branch and s: the fit's
    (bx, sigma, y), sigma = +1 on the up rows and -1 on the down rows.
    All parameters are shared between branches except the fixed branch signs.
    A record of one branch, up or down, is fitted as that branch alone, with
    hysteresis pinned at zero and a warning flag.  A branch with fewer than
    2 rows raises ValueError.
    """
    bx = np.asarray(rec.bx, dtype=float)
    y = np.asarray(rec.s, dtype=float)
    sigma, branches = _branch_rows(rec.branch)
    for name, rows in branches.items():
        _check_branch(name, bx[rows])
    single = len(branches) == 1
    p0 = np.array(init, dtype=float) if init is not None \
        else _initial_guess(bx, sigma, y)
    if single:
        p0[5] = 0.0

    def jc(x, p):
        j = _composite_jac(x, p)
        if single:
            # a zero column leaves hysteresis_h at its starting value of 0
            j[:, 5] = 0.0
        return j

    span = float(bx.max() - bx.min())

    def sane(r):
        return (r.converged and abs(r.params[1]) < 0.5 * span
                and abs(r.params[3]) < 0.5 * span and abs(r.params[5]) < 0.5 * span)

    # multi-start: the branch-difference init can land in a degenerate basin
    # when the symmetric part is weak, so retry from coarser starting points
    starts = [p0]
    for w_fac, h0 in ((0.8, 0.0), (0.4, p0[5]), (1.5, 0.0)):
        alt = p0.copy()
        alt[3] = max(abs(p0[1]) * w_fac, 1e-3)
        alt[5] = h0
        starts.append(alt)
    res = None
    for start in starts:
        cand = levenberg_marquardt(_composite_fn, jc, (bx, sigma), y, start,
                                   param_names=COMPOSITE_PARAM_NAMES)
        if res is None or (sane(cand) and not sane(res)) \
                or (sane(cand) == sane(res) and cand.residual_rms < res.residual_rms):
            res = cand
    p = res.params.copy()
    if p[1] < 0:
        # D is odd, so (a_anti, w_anti) and (-a_anti, -w_anti) are the same
        p[0], p[1] = -p[0], -p[1]
    p[3] = abs(p[3])
    p[5] = abs(p[5]) if not single else 0.0
    warnings = res.warnings
    if single:
        warnings = warnings + ("single branch: hysteresis fixed at 0",)
    model = CompositeContourModel(a_anti=p[0], w_anti=p[1], a_sym=p[2],
                                  w_sym=p[3], center=p[4], hysteresis_h=p[5],
                                  offset=p[6])
    return replace(res, params=p, warnings=warnings, model=model)

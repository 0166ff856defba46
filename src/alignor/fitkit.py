"""Nonlinear least-squares fitting and the contour/trend model zoo.

The central object is the composite scan-contour model: an antisymmetric
(dispersion-like) part from the orientation moment plus a branch-dependent
symmetric peak from the alignment coherence, offset by half the hysteresis
width per sweep direction.  A small hand-rolled Levenberg-Marquardt driver
with analytic Jacobians fits it; the TRENDS table's models (linear, cubic
polynomial, hyperbola, arctangent, Lorentzian) cover the parameter-vs-knob
analyses.

The composite fit starts Levenberg-Marquardt from four points and keeps the
best result.  On study data the starts nearly always end in one minimum, so
a start that comes within LM_MERGE_TOL of a minimum an earlier start already
converged to stops there (the clustering rule of multi-level single
linkage: no local search inside the basin of a known minimum); one start is
polished to the end instead of four, and the covariance is formed once.
"""

from dataclasses import astuple, dataclass, fields, replace
import math

import numpy as np


# ---------------------------------------------------------------------------
# composite contour model


@dataclass(frozen=True)
class CompositeContourModel:
    """Antisymmetric + branch-signed symmetric contour with hysteresis.

    Evaluates a_anti*D(u) + s*a_sym*L(v) + offset with D(u) = u/(1+u^2)^2,
    L(v) = 1/(1+v^2)^2, u = (bx-center)/w_anti,
    v = (bx - center -/+ hysteresis_h/2)/w_sym and s = +/-1, the upper sign
    on the up branch.
    """

    a_anti: float
    w_anti: float
    a_sym: float
    w_sym: float
    center: float = 0.0
    hysteresis_h: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.w_anti <= 0 or self.w_sym <= 0:
            raise ValueError("contour widths must be > 0")
        if self.hysteresis_h < 0:
            raise ValueError("hysteresis_h must be >= 0")

    def free_params(self):
        return np.array(astuple(self))


COMPOSITE_PARAM_NAMES = tuple(f.name for f in fields(CompositeContourModel))


def _lorentz_sq(v):
    return 1.0 / (1.0 + v * v) ** 2


def _disp_sq(u):
    return u / (1.0 + u * u) ** 2


def composite_eval(m: CompositeContourModel, bx, branch):
    """Evaluate the composite contour at bx on the branch of sign +1 (up)
    or -1 (down): one sign, or one per bx, as a demod record's branch
    column holds them; any other value raises ValueError."""
    bx = np.asarray(bx, dtype=float)
    sigma = np.broadcast_to(_branch_rows(branch)[0], bx.shape)
    return _composite_fn((bx, sigma), m.free_params())


def _composite_fn(x, p):
    """Joint-branch model; x = (bx, sigma) with sigma = +1 up / -1 down,
    which is also the branch sign of the symmetric part."""
    bx, sigma = x
    a_a, w_a, a_s, w_s, c, h, off = p
    d = bx - c
    u = d / w_a
    v = (d - sigma * h / 2.0) / w_s
    return a_a * _disp_sq(u) + sigma * a_s * _lorentz_sq(v) + off


def _composite_jac(x, p):
    """Jacobian of _composite_fn, shape (N, 7) in C order.

    Each shared subexpression is formed once, in the operation order of the
    column-by-column formulas, so every column is bit-identical to them.  The
    layout matters: building (7, N) and returning .T changes the bits of
    J^T J in the LM normal equations, and with them the fits.
    """
    bx, sigma = x
    a_a, w_a, a_s, w_s, c, h, off = p
    d = bx - c
    u = d / w_a
    v = (d - sigma * h / 2.0) / w_s
    u1 = 1.0 + u * u
    v1 = 1.0 + v * v
    ad = a_a * ((1.0 - 3.0 * u * u) / u1 ** 3)          # a_anti D'(u)
    sl = sigma * a_s * (-4.0 * v / v1 ** 3)             # sigma a_sym L'(v)
    j = np.empty((bx.size, 7))
    j[:, 0] = u / u1 ** 2
    j[:, 1] = ad * (-u / w_a)
    j[:, 2] = sigma * (1.0 / v1 ** 2)
    j[:, 3] = sl * (-v / w_s)
    j[:, 4] = -ad / w_a - sl / w_s
    j[:, 5] = sl * (-sigma / (2.0 * w_s))
    j[:, 6] = 1.0
    return j


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


@dataclass(frozen=True)
class FitResult:
    params: np.ndarray
    param_names: tuple
    covariance: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    cost_history: tuple = ()
    warnings: tuple = ()
    unidentifiable: tuple = ()
    model: object = None


# Levenberg-Marquardt settings: iteration cap, starting and largest damping,
# relative cost-drop and step tolerances
LM_MAX_ITER = 200
LM_LAMBDA0 = 1e-3
LM_LAMBDA_MAX = 1e12
LM_COST_TOL = 1e-10
LM_STEP_TOL = 1e-9
# fit_record stops a start at its first accepted iterate within this
# distance, max|p - p*| / (1 + |p*|) after the sign fold, of a minimum p*
# that an earlier start converged to.  LM converges about linearly here:
# on study fits the distance to the minimum shrinks about x0.5 per
# iteration, and a start is within 1e-2 after 5-9 of its 25-30
# iterations.  On the seed-3 chi_grid study all 21 later starts merge and
# the 7 fits take 338 LM iterations instead of 668; 1e-3 merges as often
# but later (379 iterations).  Over 1,000 noiseless contours drawn from the
# region where the multistart misses some (CHANGES.md), the merge failed
# none that four full runs recover.
LM_MERGE_TOL = 1e-2


def levenberg_marquardt(fn, jac, x, y, init, *, param_names=None):
    """Damped Gauss-Newton with multiplicative damping (x10 reject, /10 accept).

    fn(x, p) evaluates the model, jac(x, p) its (N, P) Jacobian; x is passed
    through opaquely.  The iteration has three exits.  It converges by the
    relative rule, when an accepted step both drops the cost by less than
    LM_COST_TOL of the cost and moves every parameter by less than
    LM_STEP_TOL of 1 + |p|, or when no damped step lowers the cost (a
    stationary point, such as a zero Jacobian); it stops unconverged at
    LM_MAX_ITER.  No exit compares a cost or gradient in the units of y, so
    scaling y scales the fitted amplitudes and leaves the other parameters;
    the 1 + |p| is a floor of 1 in each parameter's own units.  Covariance
    is sigma^2 (J^T J)^+ at the optimum.
    """
    res = _lm_descend(fn, jac, x, y, init, param_names)
    return _lm_covariance(res, jac, x, np.size(y), ())


def _lm_descend(fn, jac, x, y, init, param_names, stop=None):
    """The iteration of ``levenberg_marquardt``, its FitResult without the
    covariance, with a fourth exit, the merge stop: None once ``stop(p)``
    holds at an accepted iterate p that has not converged.  A cost or
    Jacobian not finite at ``init`` (overflowing data or starting values)
    raises ValueError before any LAPACK call sees it.  A singular damped
    system only raises the damping: every package model has a constant
    Jacobian column (its offset), so J^T J + lam diag(scale) is positive
    definite for every lam > 0."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(init, dtype=float).copy()
    if not np.all(np.isfinite(y)):
        raise ValueError("data must be finite")
    if y.size < 2 * p.size:
        raise ValueError("need at least 2x as many points as parameters")
    names = tuple(param_names) if param_names else tuple(f"p{i}" for i in range(p.size))

    r = y - fn(x, p)
    j = jac(x, p)
    cost = float(r @ r)
    if not (math.isfinite(cost) and np.all(np.isfinite(j))):
        raise ValueError("cost or Jacobian not finite at the starting parameters")
    lam = LM_LAMBDA0
    history = [cost]
    converged = False
    warnings = []
    for _ in range(LM_MAX_ITER):
        jtj = j.T @ j
        jtr = j.T @ r
        scale = np.diag(jtj)
        scale = np.maximum(scale, 1e-12 * scale.max())
        while lam <= LM_LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(scale), jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            r_try = y - fn(x, p_try)
            cost_try = float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try < cost:
                rel_drop = (cost - cost_try) / cost
                rel_step = np.max(np.abs(step) / (1.0 + np.abs(p)))
                p, r, cost = p_try, r_try, cost_try
                history.append(cost)
                lam = max(lam / 10.0, 1e-15)
                if rel_drop < LM_COST_TOL and rel_step < LM_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        else:
            converged = True  # no damped step can lower the cost any further
        if converged:
            break
        if stop is not None and stop(p):
            return None
        j = jac(x, p)
    else:
        warnings.append("max iterations reached without convergence")
    return FitResult(params=p, param_names=names, covariance=None,
                     residual_rms=math.sqrt(cost / y.size),
                     iterations=len(history) - 1, converged=converged,
                     cost_history=tuple(history), warnings=tuple(warnings))


def _lm_covariance(res, jac, x, n_points, pinned):
    """``res`` with the covariance sigma^2 (J^T J)^+ at its parameters, and
    the parameters of the negligible J^T J eigenvectors flagged
    unidentifiable, except the ``pinned`` ones whose Jacobian column the
    caller zeroed to hold them fixed."""
    p, names = res.params, res.param_names
    j = jac(x, p)
    jtj = j.T @ j
    dof = max(n_points - p.size, 1)
    sigma2 = res.cost_history[-1] / dof
    eigval, eigvec = np.linalg.eigh(jtj)
    tiny = eigval < 1e-10 * max(eigval.max(), 1e-300)
    unident = tuple(sorted({names[int(np.argmax(np.abs(eigvec[:, k])))]
                            for k in np.nonzero(tiny)[0]} - set(pinned)))
    warnings = res.warnings
    if unident:
        warnings = warnings + ("unidentifiable parameters: " + ", ".join(unident),)
    cov = sigma2 * np.linalg.pinv(jtj, rcond=1e-12)
    cov = 0.5 * (cov + cov.T)
    return replace(res, covariance=cov, warnings=warnings, unidentifiable=unident)


# ---------------------------------------------------------------------------
# record-level fitting


def _branch_rows(branch):
    """The branch column as floats and, by name, the row masks of the
    branches it holds: up (+1) before down (-1), and the empty up branch
    when it holds no row.  Any other value raises ValueError."""
    sigma = np.asarray(branch, dtype=float)
    up, down = sigma == 1.0, sigma == -1.0
    if not np.all(up | down):
        raise ValueError("branch must be +1.0 (up) or -1.0 (down) on every row")
    held = {name: rows for name, rows in (("up", up), ("down", down)) if rows.any()}
    return sigma, held or {"up": up}


def _check_branch(name, bx, **columns):
    """Reject a branch too short for a slope (np.gradient needs 2 rows) or
    with a non-finite bx or other named column."""
    if len(bx) < 2:
        raise ValueError(f"{name} branch has {len(bx)} row(s); need at least 2")
    for col, values in {"bx": bx, **columns}.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} branch has a non-finite {col}")


def _smooth(y, n):
    if n < 2:
        return y
    k = np.ones(n) / n
    return np.convolve(y, k, mode="same")


def _half_max_run(y, i):
    """(lo, hi), the run of samples around i where |y| stays above half of
    |y[i]|."""
    half = 0.5 * abs(y[i])
    lo = i
    while lo > 0 and abs(y[lo - 1]) > half:
        lo -= 1
    hi = i
    while hi < len(y) - 1 and abs(y[hi + 1]) > half:
        hi += 1
    return lo, hi


def _initial_guess(bx, sigma, y):
    """Starting composite parameters from the branch sum and difference of
    the joint (bx, sigma, y); a record of one branch, up or down, reads its
    rows as both branches."""
    up, down = sigma > 0, sigma < 0
    if not (up.any() and down.any()):
        up = down = up | down
    # work on a common ascending grid, the up rows ordered by bx, so branch
    # sum/difference separate the shared antisymmetric part from the
    # sign-flipping symmetric part
    ref = np.argsort(bx[up], kind="stable")
    xu, yu, xd, yd = bx[up][ref], y[up][ref], bx[down], y[down]
    order = np.argsort(xd)
    yd_i = np.interp(xu, xd[order], yd[order])
    n = max(xu.size // 50, 1)
    avg = _smooth(0.5 * (yu + yd_i), n)
    diff = _smooth(yu - yd_i, n)
    offset = float(np.median(avg))

    b_up, b_dn = (float(x[np.argmax(np.abs(np.gradient(v, x)))])
                  for x, v in ((xu, yu), (xd, yd)))
    h = abs(b_up - b_dn)

    # symmetric part: up - down = 2*a_sym*L near the shared center
    j = int(np.argmax(np.abs(diff)))
    center = float(xu[j]) if abs(diff[j]) > 0 else 0.5 * (b_up + b_dn)
    a_sym = 0.5 * float(diff[j])
    lo, hi = _half_max_run(diff, j)
    w_sym = max(0.5 * abs(xu[hi] - xu[lo]), 1e-3)

    # antisymmetric part: the odd component of the branch average about the
    # center is a_anti*D with extrema +-3*sqrt(3)/16 at u = +-1/sqrt(3)
    mirrored = np.interp(2.0 * center - xu, xu, avg)
    odd = 0.5 * (avg - mirrored)
    k = int(np.argmax(np.abs(odd)))
    d_ext = 3.0 * math.sqrt(3.0) / 16.0
    a_anti = float(odd[k]) / d_ext * math.copysign(1.0, xu[k] - center)
    w_anti = max(abs(float(xu[k]) - center) * math.sqrt(3.0), 1e-3)

    if a_sym == 0.0:
        a_sym = 0.1 * max(np.max(np.abs(avg - offset)), 1e-6)
        w_sym = w_anti
    return np.array([a_anti, w_anti, a_sym, w_sym, center, h, offset])


def _fold_signs(p):
    """Composite parameters with w_anti and w_sym made positive: D is odd and
    L even, so (a_anti, w_anti) -> (-a_anti, -w_anti) and w_sym -> -w_sym
    leave the model unchanged."""
    p = p.copy()
    if p[1] < 0:
        p[0], p[1] = -p[0], -p[1]
    p[3] = abs(p[3])
    return p


def fit_record(rec, init=None):
    """Joint up/down-branch fit of the composite contour to a demodulated scan.

    ``rec`` must expose the demod columns bx, branch and s (a DemodRecord
    does): the fit's (bx, sigma, y), with sigma = +1 on the up rows and -1
    on the down rows.  All parameters are shared between branches except
    the fixed branch signs.  A record of one branch, up or down, is fitted
    as that branch alone, with hysteresis pinned at zero and a warning flag.
    A branch with fewer than 2 rows (a record of no rows has an empty up
    branch), or a branch value other than +-1, raises ValueError.
    hysteresis_h is reported as |h|, with a warning when the winner's
    h < 0: that model does not reproduce the fit.

    Levenberg-Marquardt runs from the initial guess (or ``init``) and three
    variants of it with other w_sym and hysteresis.  Each converged start's
    parameters, with the signs of w_anti and w_sym folded, become a known
    minimum; a later start stops at its first accepted iterate within
    LM_MERGE_TOL of one, since all it would do from there is polish a
    minimum the fit already has.  Of the starts that ran to the end, a sane
    converged one (widths and hysteresis under half the scan span) beats
    the rest and then the lowest cost wins, the earlier start on a tie;
    only the winner gets its covariance.
    """
    bx = np.asarray(rec.bx, dtype=float)
    y = np.asarray(rec.s, dtype=float)
    sigma, branches = _branch_rows(rec.branch)
    for name, rows in branches.items():
        _check_branch(name, bx[rows])
    single = len(branches) == 1
    p0 = np.array(init, dtype=float) if init is not None else _initial_guess(bx, sigma, y)
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
    minima = []

    def known(p):
        q = _fold_signs(p)
        return any(np.max(np.abs(q - m) / (1.0 + np.abs(m))) < LM_MERGE_TOL
                   for m in minima)

    finished = []
    for start in starts:
        cand = _lm_descend(_composite_fn, jc, (bx, sigma), y, start,
                           COMPOSITE_PARAM_NAMES, stop=known)
        if cand is None:
            continue
        if cand.converged:
            minima.append(_fold_signs(cand.params))
        finished.append(cand)
    res = min(finished, key=lambda r: (not sane(r), r.residual_rms))
    res = _lm_covariance(res, jc, (bx, sigma), y.size, ("hysteresis_h",) if single else ())
    p = _fold_signs(res.params)
    warnings = res.warnings
    if single:
        warnings = warnings + ("single branch: hysteresis fixed at 0",)
    elif p[5] < 0:
        warnings = warnings + (f"hysteresis_h = {p[5]:.6g} folded to |h|: the model "
                               "does not reproduce the fit (branch labels swapped?)",)
    p[5] = abs(p[5])
    model = CompositeContourModel(*p)
    return replace(res, params=p, warnings=warnings, model=model)


@dataclass(frozen=True)
class TransitionResult:
    """Located branch transitions of a hysteretic scan record."""

    bx_up: float
    bx_down: float
    dt: float
    max_slope: float
    monostable: bool = False

    @property
    def hysteresis(self):
        return self.bx_up - self.bx_down


# a branch transition counts when its peak |ds/dbx| exceeds this many times
# the robust (MAD) slope noise
TRANSITION_SLOPE_FACTOR = 5.0


def _side_level(t, s, lo, hi, t_eval, fallback):
    """Linear-trend level of s over samples [lo, hi) evaluated at t_eval."""
    lo, hi = max(lo, 0), min(hi, len(s))
    if hi - lo < 2:
        return fallback
    coef = np.polyfit(t[lo:hi], s[lo:hi], 1)
    return float(np.polyval(coef, t_eval))


def _branch_transition(t, bx, s):
    slope = np.gradient(s, bx)
    # ignore the filter's edge transients when locating the jump
    edge = max(3, len(s) // 100)
    if len(s) <= 2 * edge + 1:
        edge = 0
    interior = slice(edge, len(s) - edge)
    i = int(np.argmax(np.abs(slope[interior]))) + edge
    noise = 1.4826 * np.median(np.abs(slope - np.median(slope)))
    peak = abs(slope[i])
    if peak < TRANSITION_SLOPE_FACTOR * max(noise, 1e-300):
        return None
    # local extent of the jump: samples where |slope| stays above half peak
    left, right = _half_max_run(slope, i)
    n = max(right - left + 1, 1)
    # baseline levels from side windows a few rise-widths out, extrapolated
    # back to the transition so a sloped background does not skew the step
    pre = _side_level(t, s, left - 6 * n, left - n, t[i],
                      float(np.median(s[: max(i // 2, 1)])))
    post = _side_level(t, s, right + n + 1, right + 6 * n + 1, t[i],
                       float(np.median(s[min(i + (len(s) - i) // 2, len(s) - 1):])))
    delta = post - pre
    if delta == 0.0:
        return None
    lvl10 = pre + 0.1 * delta
    lvl90 = pre + 0.9 * delta

    def cross(level, start, step):
        k = start
        while 0 < k < len(s) - 1:
            a, b = s[k], s[k + step]
            if (a - level) * (b - level) <= 0 and a != b:
                return t[k] + (level - a) / (b - a) * (t[k + step] - t[k])
            k += step
        return t[start]

    t10 = cross(lvl10, i, -1)
    t90 = cross(lvl90, i, +1)
    return float(bx[i]), abs(float(t90 - t10)), float(peak)


def extract_transition(rec) -> TransitionResult:
    """Locate the branch flips of a demodulated record and time their width.

    The transition on each branch sits at the maximum of |ds/dbx|; it counts
    only if that slope exceeds TRANSITION_SLOPE_FACTOR times the robust
    baseline slope noise.  The duration is the 10-90% rise time of the level
    change on the record's own time base, deconvolved (in quadrature) from
    the instrument response ``meta["response_time"]`` when the record has
    one.  ``rec`` must expose the demod columns bx, branch, s and t; a
    record of one branch, up or down, has only that branch's transition,
    and the other field is NaN.  A record without transitions yields a
    monostable result rather than an error; a branch with fewer than 2
    rows, a non-finite bx, t or s, or a branch value other than +-1 raises
    ValueError (the side-level polyfit would hand a non-finite value to
    LAPACK).
    """
    meta = getattr(rec, "meta", None)
    response_time = meta.get("response_time") if isinstance(meta, dict) else None
    response_time = 0.0 if response_time is None else float(response_time)
    bx, t, s = (np.asarray(col, float) for col in (rec.bx, rec.t, rec.s))
    found = {}
    for name, rows in _branch_rows(rec.branch)[1].items():
        _check_branch(name, bx[rows], t=t[rows], s=s[rows])
        found[name] = _branch_transition(t[rows], bx[rows], s[rows])
    hits = [f for f in found.values() if f is not None]
    if not hits:
        return TransitionResult(math.nan, math.nan, math.nan, math.nan, monostable=True)
    dt = float(np.mean([d for _, d, _ in hits]))
    dt = math.sqrt(max(dt * dt - response_time * response_time, 0.0))
    b_up, b_dn = ((found.get(name) or (math.nan,))[0] for name in ("up", "down"))
    return TransitionResult(bx_up=b_up, bx_down=b_dn, dt=dt,
                            max_slope=max(sl for *_, sl in hits))


# ---------------------------------------------------------------------------
# trend models


def _linear_lstsq(design, y, names):
    """Closed-form least squares; the design is the Jacobian of the
    covariance and of the unidentifiable check."""
    p, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ p
    cost = float(r @ r)
    res = FitResult(params=p, param_names=names, covariance=None,
                    residual_rms=math.sqrt(cost / y.size), iterations=1,
                    converged=True, cost_history=(cost,))
    return _lm_covariance(res, lambda x, p: design, None, y.size, ())


def _arctan_fn(x, p):
    a, c, d = p
    return a * np.arctan(x / c) + d


def _arctan_jac(x, p):
    a, c, d = p
    j = np.empty((x.size, 3))
    j[:, 0] = np.arctan(x / c)
    j[:, 1] = -a * x / (c * c + x * x)
    j[:, 2] = 1.0
    return j


def _arctan_start(x, y):
    a0 = (y.max() - y.min()) / math.pi or 1.0
    return a0, float(np.std(x)) or 1.0, float(np.mean(y))


def _lorentz_fn(x, p):
    amp, w, d = p
    return amp / (1.0 + (x / w) ** 2) + d


def _lorentz_jac(x, p):
    amp, w, d = p
    u = x / w
    den = 1.0 + u * u
    j = np.empty((x.size, 3))
    j[:, 0] = 1.0 / den
    j[:, 1] = amp * 2.0 * u * u / (w * den * den)
    j[:, 2] = 1.0
    return j


def _lorentz_start(x, y):
    d0 = float(np.median(np.concatenate([y[:2], y[-2:]])))
    i = int(np.argmax(np.abs(y - d0)))
    a0 = float(y[i] - d0) or 1.0
    half = np.abs(y - d0) > abs(a0) / 2.0
    w0 = 0.5 * (x[half].max() - x[half].min()) if half.sum() > 1 else float(np.std(x)) or 1.0
    return a0, abs(w0) or 1.0, d0


def _unit_design(fn, n, x):
    """Design of a model fn(x, p) linear in its n parameters: column k is
    fn(x, e_k) at the k-th unit vector e_k, non-finite where fn is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.column_stack([fn(x, e) for e in np.eye(n)])


# trend kind -> (parameter names, model f(x, p), Jacobian, start heuristic);
# a kind with no Jacobian is linear in its parameters
TRENDS = {
    "linear": (("slope", "intercept"), lambda x, p: p[0] * x + p[1], None, None),
    "polynomial": (("c0", "c1", "c2", "c3"),
                   lambda x, p: sum(c * x ** k for k, c in enumerate(p)), None, None),
    "hyperbola": (("a", "b"), lambda x, p: p[0] + p[1] / x, None, None),
    "arctan": (("a", "c", "d"), _arctan_fn, _arctan_jac, _arctan_start),
    "lorentzian": (("amplitude", "width", "offset"), _lorentz_fn, _lorentz_jac,
                   _lorentz_start),
}


def fit_trend(x, y, kind: str) -> FitResult:
    """Fit the TRENDS model ``kind`` to (x, y) points.

    A kind linear in its parameters (linear, the cubic polynomial, the
    hyperbola a + b/x) is closed-form least squares on its design, whose
    column k is the model at the k-th unit vector; arctan a*atan(x/c)+d and
    lorentzian A/(1+(x/w)^2)+d go through Levenberg-Marquardt from their
    start heuristics with analytic Jacobians.  A non-finite x or y raises
    ValueError for every kind.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be matching 1-d arrays")
    if kind not in TRENDS:
        raise ValueError(f"unknown trend kind {kind!r}; expected one of {tuple(TRENDS)}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("data must be finite")
    names, fn, jac, start = TRENDS[kind]
    if jac is None:
        if x.size < len(names):
            raise ValueError(f"{kind} fit needs at least {len(names)} points")
        design = _unit_design(fn, len(names), x)
        bad = ~np.isfinite(design).all(axis=1)
        if bad.any():
            raise ValueError(f"{kind} fit undefined at x = {float(x[bad][0])!r}")
        return _linear_lstsq(design, y, names)
    res = levenberg_marquardt(fn, jac, x, y, start(x, y), param_names=names)
    if kind == "lorentzian":
        p = res.params.copy()
        p[1] = abs(p[1])
        res = replace(res, params=p)
    return res

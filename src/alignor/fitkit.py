"""Nonlinear least-squares fitting and the contour/trend model zoo.

The central object is the composite scan-contour model: an antisymmetric
(dispersion-like) part from the orientation moment plus a branch-dependent
symmetric peak from the alignment coherence, offset by half the hysteresis
width per sweep direction.  A small hand-rolled Levenberg-Marquardt driver
with analytic Jacobians does all the fitting; trend models (linear, cubic
polynomial, hyperbola, arctangent, Lorentzian) cover the parameter-vs-knob
analyses.

The composite fit starts Levenberg-Marquardt from four points and keeps the
best result.  On study data the starts nearly always end in one minimum, so
a start that comes within LM_MERGE_TOL of a minimum an earlier start already
converged to stops there (the clustering rule of multi-level single
linkage: no local search inside the basin of a known minimum); one start is
polished to the end instead of four, and the covariance is formed once.
"""

from dataclasses import dataclass, replace
import math

import numpy as np


class DegenerateFitError(ValueError):
    """Normal equations stayed singular at maximum damping."""


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
        return np.array([self.a_anti, self.w_anti, self.a_sym, self.w_sym,
                         self.center, self.hysteresis_h, self.offset])


COMPOSITE_PARAM_NAMES = ("a_anti", "w_anti", "a_sym", "w_sym",
                         "center", "hysteresis_h", "offset")


def _lorentz_sq(v):
    return 1.0 / (1.0 + v * v) ** 2


def _disp_sq(u):
    return u / (1.0 + u * u) ** 2


def composite_eval(m: CompositeContourModel, bx, branch: str = "up"):
    """Evaluate the composite contour on one sweep branch."""
    if branch not in ("up", "down"):
        raise ValueError("branch must be 'up' or 'down'")
    bx = np.asarray(bx, dtype=float)
    sigma = np.full(bx.shape, 1.0 if branch == "up" else -1.0)
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
# relative cost-drop and step tolerances, gradient infinity-norm tolerance
LM_MAX_ITER = 200
LM_LAMBDA0 = 1e-3
LM_LAMBDA_MAX = 1e12
LM_COST_TOL = 1e-10
LM_STEP_TOL = 1e-9
LM_GRAD_TOL = 1e-12
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
    through opaquely.  Converges when an accepted step both drops the cost by
    less than LM_COST_TOL (relative) and moves the parameters by less than
    LM_STEP_TOL (relative), or when the gradient infinity-norm falls below
    LM_GRAD_TOL, or when no damped step can lower the cost at all.
    Covariance is sigma^2 (J^T J)^+ at the optimum.
    """
    res = _lm_descend(fn, jac, x, y, init, param_names)
    return _lm_covariance(res, jac, x, np.size(y))


def _lm_descend(fn, jac, x, y, init, param_names, stop=None):
    """The iteration of ``levenberg_marquardt``: its FitResult without the
    covariance, or None once ``stop(p)`` holds at an accepted iterate p that
    has not converged.  A cost or Jacobian that is not finite at ``init``
    (overflowing data or starting values) raises ValueError before any
    LAPACK call sees it."""
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
    for it in range(1, LM_MAX_ITER + 1):
        jtj = j.T @ j
        jtr = j.T @ r
        if np.max(np.abs(jtr)) < LM_GRAD_TOL:
            converged = True
            break
        scale = np.diag(jtj).copy()
        scale[scale < 1e-12 * max(scale.max(), 1.0)] = 1e-12 * max(scale.max(), 1.0)
        accepted = False
        solvable = False
        while lam <= LM_LAMBDA_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(scale), jtr)
                solvable = True
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            r_try = y - fn(x, p_try)
            cost_try = float(r_try @ r_try)
            if np.isfinite(cost_try) and cost_try < cost:
                rel_drop = (cost - cost_try) / max(cost, 1e-300)
                rel_step = np.max(np.abs(step) / (1.0 + np.abs(p)))
                p, r, cost = p_try, r_try, cost_try
                history.append(cost)
                lam = max(lam / 10.0, 1e-15)
                accepted = True
                if rel_drop < LM_COST_TOL and rel_step < LM_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
        else:
            if not solvable:
                raise DegenerateFitError(
                    f"degenerate fit: normal equations singular at "
                    f"lambda={lam:.1e} after {it} iterations (cost {cost:.3e})")
            converged = True  # no damped step can lower the cost any further
        if converged:
            break
        if not accepted:
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


def _lm_covariance(res, jac, x, n_points):
    """``res`` with the covariance sigma^2 (J^T J)^+ at its parameters, and
    the parameters of the negligible J^T J eigenvectors flagged
    unidentifiable."""
    p, names = res.params, res.param_names
    j = jac(x, p)
    jtj = j.T @ j
    dof = max(n_points - p.size, 1)
    sigma2 = res.cost_history[-1] / dof
    eigval, eigvec = np.linalg.eigh(jtj)
    tiny = eigval < 1e-10 * max(eigval.max(), 1e-300)
    warnings = list(res.warnings)
    unident = []
    if np.any(tiny):
        for k in np.nonzero(tiny)[0]:
            unident.append(names[int(np.argmax(np.abs(eigvec[:, k])))])
        warnings.append("unidentifiable parameters: " + ", ".join(sorted(set(unident))))
    cov = sigma2 * np.linalg.pinv(jtj, rcond=1e-12)
    cov = 0.5 * (cov + cov.T)
    return replace(res, covariance=cov, warnings=tuple(warnings),
                   unidentifiable=tuple(sorted(set(unident))))


# ---------------------------------------------------------------------------
# record-level fitting


def _check_branch(name, bx, **columns):
    """Reject a branch too short for a slope (np.gradient needs 2 rows) or
    with a non-finite bx or other named column."""
    if len(bx) < 2:
        raise ValueError(f"{name} branch has {len(bx)} row(s); need at least 2")
    for col, values in {"bx": bx, **columns}.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} branch has a non-finite {col}")


def _transition_index(bx, s):
    """Index of maximum |ds/dbx| and the slope array (NaN-safe gradient)."""
    slope = np.gradient(s, bx)
    return int(np.argmax(np.abs(slope))), slope


def _smooth(y, n):
    if n < 2:
        return y
    k = np.ones(n) / n
    return np.convolve(y, k, mode="same")


def _half_width(x, y, i_peak):
    """Half width at half maximum of |y| around sample i_peak."""
    half = 0.5 * abs(y[i_peak])
    lo = i_peak
    while lo > 0 and abs(y[lo - 1]) > half:
        lo -= 1
    hi = i_peak
    while hi < len(y) - 1 and abs(y[hi + 1]) > half:
        hi += 1
    return 0.5 * abs(x[hi] - x[lo])


def _initial_guess(bx_up, s_up, bx_down, s_down):
    # work on a common ascending grid so branch sum/difference separate the
    # shared antisymmetric part from the sign-flipping symmetric part
    order = np.argsort(bx_down)
    s_dn_i = np.interp(bx_up, bx_down[order], s_down[order])
    n = max(bx_up.size // 50, 1)
    avg = _smooth(0.5 * (s_up + s_dn_i), n)
    diff = _smooth(s_up - s_dn_i, n)
    offset = float(np.median(avg))

    i_up, _ = _transition_index(bx_up, s_up)
    i_dn, _ = _transition_index(bx_down, s_down)
    b_up, b_dn = float(bx_up[i_up]), float(bx_down[i_dn])
    h = abs(b_up - b_dn)

    # symmetric part: up - down = 2*a_sym*L near the shared center
    j = int(np.argmax(np.abs(diff)))
    center = float(bx_up[j]) if abs(diff[j]) > 0 else 0.5 * (b_up + b_dn)
    a_sym = 0.5 * float(diff[j])
    w_sym = max(_half_width(bx_up, diff, j), 1e-3)

    # antisymmetric part: the odd component of the branch average about the
    # center is a_anti*D with extrema +-3*sqrt(3)/16 at u = +-1/sqrt(3)
    mirrored = np.interp(2.0 * center - bx_up, bx_up, avg)
    odd = 0.5 * (avg - mirrored)
    k = int(np.argmax(np.abs(odd)))
    d_ext = 3.0 * math.sqrt(3.0) / 16.0
    a_anti = float(odd[k]) / d_ext * math.copysign(1.0, bx_up[k] - center)
    w_anti = max(abs(float(bx_up[k]) - center) * math.sqrt(3.0), 1e-3)

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

    ``rec`` must expose bx_up, s_up and (optionally) bx_down, s_down arrays.
    All parameters are shared between branches except the fixed branch signs.
    A single-branch record is fitted as the up branch alone, with
    hysteresis pinned at zero and a warning flag.  A branch with fewer than
    2 rows raises ValueError.  hysteresis_h is reported as |h|, with a
    warning when the winner's h < 0: that model does not reproduce the fit.

    Levenberg-Marquardt runs from the initial guess (or ``init``) and three
    variants of it with other w_sym and hysteresis.  Each converged start's
    parameters, with the signs of w_anti and w_sym folded, become a known
    minimum; a later start stops at its first accepted iterate within
    LM_MERGE_TOL of one, since all it would do from there is polish a
    minimum the fit already has.  Of the starts that ran to the end, a sane
    converged one (widths and hysteresis under half the scan span) beats
    the rest and then the lowest cost wins; only the winner gets its
    covariance.
    """
    bx_up = np.asarray(rec.bx_up, dtype=float)
    s_up = np.asarray(rec.s_up, dtype=float)
    _check_branch("up", bx_up)
    bx_down = getattr(rec, "bx_down", None)
    single = bx_down is None or len(bx_down) == 0
    if single:
        # the up rows alone; the initial guess reads them as both branches
        bx_down, s_down = bx_up, s_up
        bx, sigma, y = bx_up, np.ones(bx_up.size), s_up
    else:
        _check_branch("down", bx_down)
        bx_down = np.asarray(bx_down, dtype=float)
        s_down = np.asarray(rec.s_down, dtype=float)
        bx = np.concatenate([bx_up, bx_down])
        sigma = np.concatenate([np.ones(bx_up.size), -np.ones(bx_down.size)])
        y = np.concatenate([s_up, s_down])
    p0 = np.array(init, dtype=float) if init is not None \
        else _initial_guess(bx_up, s_up, bx_down, s_down)
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

    res = None
    for start in starts:
        cand = _lm_descend(_composite_fn, jc, (bx, sigma), y, start,
                           COMPOSITE_PARAM_NAMES, stop=known)
        if cand is None:
            continue
        if cand.converged:
            minima.append(_fold_signs(cand.params))
        if res is None or (sane(cand) and not sane(res)) \
                or (sane(cand) == sane(res) and cand.residual_rms < res.residual_rms):
            res = cand
    res = _lm_covariance(res, jc, (bx, sigma), y.size)
    p = _fold_signs(res.params)
    warnings = res.warnings
    if single:
        warnings = warnings + ("single branch: hysteresis fixed at 0",)
    elif p[5] < 0:
        warnings = warnings + (f"hysteresis_h = {p[5]:.6g} folded to |h|: the model "
                               "does not reproduce the fit (branch labels swapped?)",)
    p[5] = abs(p[5]) if not single else 0.0
    model = CompositeContourModel(a_anti=p[0], w_anti=p[1], a_sym=p[2],
                                  w_sym=p[3], center=p[4], hysteresis_h=p[5],
                                  offset=p[6])
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
    _, slope = _transition_index(bx, s)
    # ignore the filter's edge transients when locating the jump
    edge = max(3, len(s) // 100)
    if len(s) <= 2 * edge + 1:
        edge = 0
    interior = slice(edge, len(s) - edge if edge else len(s))
    i = int(np.argmax(np.abs(slope[interior]))) + edge
    noise = 1.4826 * np.median(np.abs(slope - np.median(slope)))
    peak = abs(slope[i])
    if peak < TRANSITION_SLOPE_FACTOR * max(noise, 1e-300) or noise == 0.0 and peak == 0.0:
        return None
    # local extent of the jump: samples where |slope| stays above half peak
    left = i
    while left > 0 and abs(slope[left - 1]) > 0.5 * peak:
        left -= 1
    right = i
    while right < len(s) - 1 and abs(slope[right + 1]) > 0.5 * peak:
        right += 1
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
    one.  A record without transitions yields a monostable result rather
    than an error; a branch with fewer than 2 rows or a non-finite bx, t or
    s raises ValueError (the side-level polyfit would hand it to LAPACK).
    """
    meta = getattr(rec, "meta", None)
    response_time = meta.get("response_time") if isinstance(meta, dict) else None
    response_time = 0.0 if response_time is None else float(response_time)
    _check_branch("up", rec.bx_up, t=rec.t_up, s=rec.s_up)
    up = _branch_transition(np.asarray(rec.t_up, float), np.asarray(rec.bx_up, float),
                            np.asarray(rec.s_up, float))
    down = None
    if getattr(rec, "bx_down", None) is not None and len(rec.bx_down):
        _check_branch("down", rec.bx_down, t=rec.t_down, s=rec.s_down)
        down = _branch_transition(np.asarray(rec.t_down, float),
                                  np.asarray(rec.bx_down, float),
                                  np.asarray(rec.s_down, float))
    if up is None and down is None:
        return TransitionResult(math.nan, math.nan, math.nan, math.nan, monostable=True)
    b_up, dt_up, sl_up = up if up else (math.nan, math.nan, 0.0)
    b_dn, dt_dn, sl_dn = down if down else (math.nan, math.nan, 0.0)
    dts = [d for d in (dt_up, dt_dn) if not math.isnan(d)]
    dt = float(np.mean(dts))
    dt = math.sqrt(max(dt * dt - response_time * response_time, 0.0))
    return TransitionResult(bx_up=b_up, bx_down=b_dn, dt=dt,
                            max_slope=max(sl_up, sl_dn))


# ---------------------------------------------------------------------------
# trend models

TREND_KINDS = ("linear", "polynomial", "hyperbola", "arctan", "lorentzian")

TREND_PARAM_NAMES = {
    "linear": ("slope", "intercept"),
    "polynomial": ("c0", "c1", "c2", "c3"),
    "hyperbola": ("a", "b"),
    "arctan": ("a", "c", "d"),
    "lorentzian": ("amplitude", "width", "offset"),
}


def _linear_lstsq(design, y, names):
    p, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ p
    cost = float(r @ r)
    dof = max(y.size - p.size, 1)
    cov = cost / dof * np.linalg.pinv(design.T @ design, rcond=1e-12)
    return FitResult(params=p, param_names=names, covariance=0.5 * (cov + cov.T),
                     residual_rms=math.sqrt(cost / y.size), iterations=1,
                     converged=True, cost_history=(cost,))


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


# trend kind -> model f(x, params), the curve each fit_trend kind fits
TREND_EVAL = {
    "linear": lambda x, p: p[0] * x + p[1],
    "polynomial": lambda x, p: np.polyval(list(p)[::-1], x),
    "hyperbola": lambda x, p: p[0] + p[1] / x,
    "arctan": _arctan_fn,
    "lorentzian": _lorentz_fn,
}


def fit_trend(x, y, kind: str) -> FitResult:
    """Fit a named trend model to (x, y) points.

    linear and the cubic polynomial are closed-form least squares; hyperbola
    a + b/x is linear in its parameters; arctan a*atan(x/c)+d and lorentzian
    A/(1+(x/w)^2)+d go through Levenberg-Marquardt with analytic Jacobians.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be matching 1-d arrays")
    if kind == "linear":
        if x.size < 2:
            raise ValueError("linear fit needs at least 2 points")
        return _linear_lstsq(np.column_stack([x, np.ones_like(x)]), y,
                             TREND_PARAM_NAMES["linear"])
    if kind == "polynomial":
        if x.size < 4:
            raise ValueError("underdetermined polynomial fit")
        design = np.column_stack([x ** k for k in range(4)])
        return _linear_lstsq(design, y, TREND_PARAM_NAMES["polynomial"])
    if kind == "hyperbola":
        if np.any(x == 0.0):
            raise ValueError("hyperbola fit undefined at x = 0")
        if x.size < 2:
            raise ValueError("hyperbola fit needs at least 2 points")
        return _linear_lstsq(np.column_stack([np.ones_like(x), 1.0 / x]), y,
                             TREND_PARAM_NAMES["hyperbola"])
    if kind == "arctan":
        d0 = float(np.mean(y))
        a0 = (y.max() - y.min()) / math.pi or 1.0
        c0 = float(np.std(x)) or 1.0
        return levenberg_marquardt(_arctan_fn, _arctan_jac, x, y, (a0, c0, d0),
                                   param_names=TREND_PARAM_NAMES["arctan"])
    if kind == "lorentzian":
        d0 = float(np.median(np.concatenate([y[:2], y[-2:]])))
        i = int(np.argmax(np.abs(y - d0)))
        a0 = float(y[i] - d0) or 1.0
        half = np.abs(y - d0) > abs(a0) / 2.0
        w0 = 0.5 * (x[half].max() - x[half].min()) if half.sum() > 1 else float(np.std(x)) or 1.0
        init = (a0, abs(w0) or 1.0, d0)
        res = levenberg_marquardt(_lorentz_fn, _lorentz_jac, x, y, init,
                                  param_names=TREND_PARAM_NAMES["lorentzian"])
        p = res.params.copy()
        p[1] = abs(p[1])
        return replace(res, params=p)
    raise ValueError(f"unknown trend kind {kind!r}; expected one of {TREND_KINDS}")

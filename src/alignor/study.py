"""Parameter-sweep studies over the simulated hysteresis pipeline.

A study point, ``measure_point``, runs the full measurement chain three
times at one setting and returns the reduced ``StudyPoint`` together with
its three demod records (``env_plus``, ``env_minus``, ``loop``):

* two prepared-state envelope scans with the latch pinned in each state
  (the bistability curves), jointly fitted with the composite contour to
  get the antisymmetric/symmetric amplitudes and widths;
* one triangle loop scan with the latch live, from which the transition
  fields, the loop hysteresis, the flip duration and the recovered
  effective transverse field are extracted.

A study kind is one row of ``KINDS``: the ``measure_point`` setting its
grid value takes, its x label and the trends fitted against it.
``run_study`` sweeps a grid (pump ellipticity, pump-axis field, or
transverse offset), measures every point, then writes into an output
directory: the points table
``points.txt``, per point three demod records (binary body, format v2),
the trend table ``trends.txt`` and SVG plots (no data sidecars).
``trends.txt`` is a ``write_table`` table in long format, one row per
fitted parameter with the columns ``quantity kind name value stderr
n_points residual_rms converged``; ``stderr`` is the square root of the
covariance diagonal, so a coefficient with ``|value| < 2 stderr`` is zero
within two standard errors.  ``report`` rebuilds the trend table and
plots from a saved points table without re-simulation.
"""

from dataclasses import asdict, dataclass, field, fields, replace
import math
from pathlib import Path
import re
from types import SimpleNamespace

import numpy as np

from .dynamics import CouplingParams, SweepProtocol, effective_field_from_transient
from .estimators import circular_power
from .fitkit import TRENDS, extract_transition, fit_record, fit_trend
from .instrument import ScanConfig, lockin_demodulate, synthesize_record
from .plotsvg import Series, emit_plot
from .recordio import config_section, read_table, write_record, write_table
from .spincore import (STRONG_PUMP_GAMMA_HZ_PER_NT, TWO_PI, EnsembleParams, SignalMix,
                       reject_nonint)

# study kind -> (the measure_point setting its grid value takes, x label,
# (quantity, trend kinds) pairs fitted against the grid value)
KINDS = {
    "chi_grid": ("chi_deg", "ellipticity (deg)", (
        ("w_anti", ("linear",)),
        ("w_sym", ("linear",)),
        ("a_anti", ("linear", "lorentzian")),
        ("a_sym", ("linear", "lorentzian")),
        ("loop_hysteresis", ("hyperbola",)),
        ("max_slope", ("arctan",)),
    )),
    "bz_grid": ("bz_pump", "pump-axis field (nT)", (
        ("loop_hysteresis", ("lorentzian",)),
        ("b_yeff", ("lorentzian",)),
    )),
    "by_grid": ("static_by", "transverse offset (nT)", (
        ("a_anti", ("polynomial",)),
        ("a_sym", ("polynomial",)),
    )),
    "single": ("chi_deg", "x", ()),
}
STUDY_KINDS = tuple(KINDS)


@dataclass(frozen=True)
class StudyPreset:
    """Frozen instrument/physics operating point for studies.

    The latch threshold is a fixed fraction of the orientation moment that
    is available at the smallest ellipticity of interest, so every grid
    point stays bistable while the loop width shrinks hyperbolically with
    ellipticity.  ``residual_by_nt``/``residual_bz_nt`` model imperfect
    compensation of the static transverse and pump-axis fields.
    """

    gamma_over_2pi: float = STRONG_PUMP_GAMMA_HZ_PER_NT  # Hz/nT
    base_width_nt: float = 8.0           # zero-ellipticity resonance HWHM
    broadening_nt_per_deg: float = 4.0   # simulated width growth with chi
    relax_ratio_alignment: float = 2.2   # rank-2 vs rank-1 relaxation
    latch_threshold: float = 0.49 * circular_power(1.0, 0.1)
    latch_field_nt: float = 1.1          # kappa * my0
    residual_by_nt: float = 0.4
    residual_bz_nt: float = 0.5
    serf_width_nt: float = 28.0          # latch-threshold survival vs B_z
    chi_deg: float = 0.25                # reference ellipticity
    bx_span_nt: float = 30.0
    ramp_rate: float = 0.8               # nT/s
    sample_rate: float = 500.0
    mod_amplitude: float = 2.5
    mod_freq: float = 5.0
    noise_rms: float = 0.002
    lpf_cutoff: float = 2.0

    def __post_init__(self):
        # kappa and coupling divide by these two
        for name in ("latch_threshold", "serf_width_nt"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")

    @property
    def kappa(self) -> float:
        return self.latch_field_nt / self.latch_threshold

    def ensemble(self, chi_deg: float) -> EnsembleParams:
        width = self.base_width_nt + self.broadening_nt_per_deg * chi_deg
        return EnsembleParams(
            gamma_over_2pi=self.gamma_over_2pi,
            relax_rate=width * TWO_PI * self.gamma_over_2pi,
            relax_ratio_alignment=self.relax_ratio_alignment)

    def coupling(self, bz_pump_nt: float = 0.0) -> CouplingParams:
        """Latch coupling; a pump-axis field suppresses the threshold."""
        survive = 1.0 / (1.0 + (bz_pump_nt / self.serf_width_nt) ** 2)
        return CouplingParams(kappa=self.kappa, my0=self.latch_threshold * survive)

    def signal_mix(self) -> SignalMix:
        """Signal mixing at the experiment's scale (microamp units).

        c_al = 0.3 / max |m2s| over the 4,001-point bx grid on +-5 at
        normalized b_y = 0.1 (a0 = 1), so the alignment S_B swing is 0.3 uA;
        the tests recompute it from the m2s lineshape.  baseline_t puts S_T
        at 6 uA on the m0c equilibrium -a0/2.
        """
        return SignalMix(c_al=3.5223690368109644, c_or=0.3, c_t=1.0, baseline_t=6.5)

    def loop_ramp(self, chi_deg: float, static_by: float) -> SweepProtocol:
        """Triangle B_x loop over +-bx_span_nt at ramp_rate."""
        return SweepProtocol(bx_start=-self.bx_span_nt, bx_end=self.bx_span_nt,
                             rate=self.ramp_rate, ellipticity_deg=chi_deg,
                             static_by=static_by, static_bz=self.residual_bz_nt)

    def scan_config(self, ramp: SweepProtocol, seed: int) -> ScanConfig:
        return ScanConfig(ramp=ramp, mod_amplitude=self.mod_amplitude,
                          mod_freq=self.mod_freq, sample_rate=self.sample_rate,
                          noise_rms=self.noise_rms, seed=seed)


@dataclass(frozen=True)
class StudyConfig:
    """One study: which variable is swept and over which grid."""

    kind: str
    grid: tuple
    seed: int = 0
    preset: StudyPreset = field(default_factory=StudyPreset)

    def __post_init__(self):
        reject_nonint(self, "seed")
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"kind must be one of {STUDY_KINDS}, got {self.kind!r}")
        grid = tuple(float(g) for g in self.grid)
        if not grid:
            raise ValueError("grid must not be empty")
        if self.kind == "single" and len(grid) != 1:
            raise ValueError("a 'single' study takes exactly one grid value")
        if len(set(grid)) != len(grid):
            raise ValueError("grid values must be unique")
        if not all(math.isfinite(g) for g in grid):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "grid", grid)


def study_config_from_dict(flat: dict) -> StudyConfig:
    """Build a StudyConfig from flat ``study.*`` / ``preset.*`` config keys.

    Without ``study.grid`` the grid is the kind's DEFAULT_GRIDS entry, or
    the preset's reference ellipticity for a single point."""
    kind = flat.get("study.kind", "single")
    preset = config_section(flat, "preset", StudyPreset())
    if not isinstance(grid := flat.get("study.grid", ()), (list, tuple)):
        flat = {**flat, "study.grid": (grid,)}
    base = StudyConfig(kind, DEFAULT_GRIDS.get(kind, (preset.chi_deg,)), preset=preset)
    return config_section(flat, "study", base)


# ---------------------------------------------------------------------------
# one study point

@dataclass(frozen=True)
class StudyPoint:
    """Measured quantities at one grid setting."""

    x: float
    chi_deg: float
    static_by: float
    bz_pump: float
    a_anti: float
    w_anti: float
    a_sym: float
    w_sym: float
    center: float
    hysteresis_h: float
    offset: float
    bx_up: float
    bx_down: float
    loop_hysteresis: float
    dt: float
    max_slope: float
    b_yeff: float
    fit_converged: bool

    def row(self):
        return tuple(float(getattr(self, c)) for c in POINT_COLUMNS)


POINT_COLUMNS = tuple(f.name for f in fields(StudyPoint))


def measure_point(preset: StudyPreset, chi_deg: float, static_by: float,
                  bz_pump: float, seed: int, x: float | None = None) -> tuple:
    """Run envelope-pair and loop scans at one setting and reduce them.

    Returns the StudyPoint and its demod records by name: ``env_plus``,
    ``env_minus`` and ``loop``."""
    p = preset.ensemble(chi_deg)
    c = preset.coupling(bz_pump)
    mix = preset.signal_mix()

    def scan(ramp, k, coupling):
        """Synthesize and demodulate the scan with noise seed ``seed + k``."""
        rec = synthesize_record(preset.scan_config(ramp, seed + k), p, coupling, mix)
        return lockin_demodulate(rec, lpf_cutoff=preset.lpf_cutoff)

    # prepared-state envelopes: latch pinned, so the transverse offset is
    # the static residual plus the latched field of each state
    plus, minus = (scan(replace(preset.loop_ramp(chi_deg, static_by + sign * c.latched_field),
                                direction_pattern="up"),
                        i, CouplingParams(kappa=0.0, my0=0.0))
                   for i, sign in enumerate((+1, -1)))
    # the pair: the + envelope's rows as the up branch, then the - envelope's
    # with their branch negated as the down branch
    fit = fit_record(SimpleNamespace(bx=np.concatenate([plus.bx, minus.bx]),
                                     branch=np.concatenate([plus.branch, -minus.branch]),
                                     s=np.concatenate([plus.s, minus.s])))

    # live-latch triangle loop for transitions and flip timing
    loop = scan(preset.loop_ramp(chi_deg, static_by), 2, c)
    tr = extract_transition(loop)
    b_yeff = effective_field_from_transient(tr.dt, p) if tr.dt > 0 else math.nan

    point = StudyPoint(
        x=float(x if x is not None else chi_deg), chi_deg=chi_deg,
        static_by=static_by, bz_pump=bz_pump, **asdict(fit.model),
        bx_up=tr.bx_up, bx_down=tr.bx_down, loop_hysteresis=tr.hysteresis,
        dt=tr.dt, max_slope=tr.max_slope, b_yeff=b_yeff,
        fit_converged=fit.converged)
    return point, {"env_plus": plus, "env_minus": minus, "loop": loop}


# ---------------------------------------------------------------------------
# trend fits

@dataclass(frozen=True)
class TrendFit:
    quantity: str
    kind: str
    params: tuple
    stderr: tuple      # sqrt of the covariance diagonal, one per parameter
    param_names: tuple
    residual_rms: float
    converged: bool
    n_points: int


@dataclass(frozen=True)
class StudyResult:
    config: StudyConfig
    points: tuple
    trends: tuple
    out_dir: Path


def _trend_data(points, quantity: str):
    """Finite (grid value, quantity) pairs; amplitudes enter as |y|."""
    x = np.array([pt.x for pt in points])
    y = np.array([getattr(pt, quantity) for pt in points])
    if quantity in ("a_anti", "a_sym"):
        y = np.abs(y)
    ok = np.isfinite(x) & np.isfinite(y)
    return x[ok], y[ok]


def _fit_trends(kind: str, points) -> tuple:
    trends = []
    for quantity, trend_kinds in KINDS[kind][2]:
        x, y = _trend_data(points, quantity)
        for tk in trend_kinds:
            try:
                res = fit_trend(x, y, tk)
            except ValueError:  # too few points, or a degenerate fit
                continue
            trends.append(TrendFit(
                quantity=quantity, kind=tk,
                params=tuple(float(v) for v in res.params),
                stderr=tuple(float(v) for v in np.sqrt(np.diag(res.covariance))),
                param_names=res.param_names, residual_rms=float(res.residual_rms),
                converged=bool(res.converged), n_points=x.size))
    return tuple(trends)


# ---------------------------------------------------------------------------
# tables and figures

_POINTS_SIGNATURE = "# alignor-study points"
_TRENDS_SIGNATURE = "# alignor-study trends"
TREND_COLUMNS = ("quantity", "kind", "name", "value", "stderr", "n_points",
                 "residual_rms", "converged")


def _write_points_table(cfg: StudyConfig, points, path: Path):
    rows = np.array([pt.row() for pt in points]).reshape(-1, len(POINT_COLUMNS))
    write_table(path, [_POINTS_SIGNATURE, f"# kind: {cfg.kind}", f"# seed: {cfg.seed}"],
                POINT_COLUMNS, rows.T)


def _parse_points_header(path, lines):
    """Check a points-table header: the signature, exactly one ``# kind:``
    line, at most one ``# seed: <int>`` line, nothing else."""
    if lines[:1] != [_POINTS_SIGNATURE]:
        raise ValueError(f"{path}:1: not a study points table: missing signature line")
    info = {}
    for n, ln in enumerate(lines[1:], start=2):
        m = re.fullmatch(r"# (kind|seed): (.*)", ln)
        if m is None:
            raise ValueError(f"{path}:{n}: expected '# kind: <kind>' or '# seed: <int>', "
                             f"got {ln!r}")
        if m[1] in info:
            raise ValueError(f"{path}:{n}: a second '# {m[1]}:' line")
        if m[1] == "kind" and m[2] not in STUDY_KINDS:
            raise ValueError(f"{path}:{n}: unknown study kind {m[2]!r}")
        if m[1] == "seed" and not re.fullmatch(r"0|-?[1-9][0-9]*", m[2]):
            raise ValueError(f"{path}:{n}: expected '# seed: <int>', got {ln!r}")
        info[m[1]] = m[2]
    if "kind" not in info:
        raise ValueError(f"{path}:2: missing '# kind:' line")
    return ((info["kind"], int(info.get("seed", 0))), POINT_COLUMNS,
            {POINT_COLUMNS.index("fit_converged"): _converged_cell}, False)


def _converged_cell(text: str) -> float:
    """A ``fit_converged`` cell, 0.0 or 1.0; any other value raises ValueError."""
    if (v := float(text)) not in (0.0, 1.0):
        raise ValueError(f"fit_converged {text!r} is neither 0.0 nor 1.0")
    return v


def read_points_table(path) -> tuple:
    """Read a saved points table back into (kind, seed, StudyPoint tuples)."""
    (kind, seed), rows = read_table(path, _parse_points_header)
    rows = [dict(zip(POINT_COLUMNS, row)) for row in rows.tolist()]
    return kind, seed, tuple(StudyPoint(**{**r, "fit_converged": bool(r["fit_converged"])})
                             for r in rows)


def _write_trends(kind: str, trends, path: Path):
    """Write the trend table: one row per fitted parameter."""
    rows = [(tr.quantity, tr.kind, name, value, se, tr.n_points, tr.residual_rms,
             tr.converged)
            for tr in trends for name, value, se in zip(tr.param_names, tr.params, tr.stderr)]
    columns = list(zip(*rows)) if rows else [()] * len(TREND_COLUMNS)
    write_table(path, [_TRENDS_SIGNATURE, f"# kind: {kind}"], TREND_COLUMNS, columns)


def _trend_outputs(kind: str, points, out: Path) -> tuple:
    """Fit the trends of a study kind; write trends.txt and one SVG per
    trend, the measured points and the fitted curve."""
    trends = _fit_trends(kind, points)
    _write_trends(kind, trends, out / "trends.txt")
    xlabel = KINDS[kind][1]
    for tr in trends:
        x, y = _trend_data(points, tr.quantity)
        xs = np.linspace(x.min(), x.max(), 200)
        if tr.kind == "hyperbola":
            xs = xs[np.abs(xs) > 1e-12]
        fitted = TRENDS[tr.kind][1](xs, np.array(tr.params))
        emit_plot([Series("measured", x, y, markers=True),
                   Series(f"{tr.kind} fit", xs, fitted, dashed=True)],
                  out / f"trend_{tr.quantity}_{tr.kind}.svg",
                  title=f"{tr.quantity} vs {xlabel}", xlabel=xlabel, ylabel=tr.quantity)
    return trends


def run_study(cfg: StudyConfig, out_dir) -> StudyResult:
    """Run every grid point, then write tables, records, and figures.

    Every point is measured before ``out_dir`` is created, so a point that
    raises leaves no directory behind."""
    preset, setting = cfg.preset, KINDS[cfg.kind][0]
    base = {"chi_deg": preset.chi_deg, "static_by": preset.residual_by_nt, "bz_pump": 0.0}
    points, records = zip(*(measure_point(preset, **{**base, setting: value},
                                          seed=cfg.seed + 10 * i, x=value)
                            for i, value in enumerate(cfg.grid)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, recs in enumerate(records):
        for name, rec in recs.items():
            write_record(rec, out / f"point_{i:02d}_{name}.txt")
    _write_points_table(cfg, points, out / "points.txt")
    trends = _trend_outputs(cfg.kind, points, out)
    _plot_points_overview(cfg, records, out)
    return StudyResult(config=cfg, points=points, trends=trends, out_dir=out)


def _plot_points_overview(cfg: StudyConfig, records, out: Path):
    """Overlay the loop contours of the first and last grid point (one
    loop for a one-point study)."""
    series = []
    for i in sorted({0, len(cfg.grid) - 1}):
        rec = records[i]["loop"]
        label = f"{cfg.grid[i]:g}"
        up, down = rec.branch > 0, rec.branch < 0
        series.append(Series(f"up {label}", rec.bx[up], rec.s[up]))
        series.append(Series(f"down {label}", rec.bx[down], rec.s[down], dashed=True))
    emit_plot(series, out / "loops.svg", title="hysteresis loops",
              xlabel="B_x (nT)", ylabel="demodulated signal")


def report(study_dir) -> StudyResult:
    """Regenerate trends and figures from a saved points table.

    No simulation is re-run; the table written by ``run_study`` is the sole
    input, so a report is cheap and reproducible.
    """
    out = Path(study_dir)
    kind, seed, points = read_points_table(out / "points.txt")
    # validate the table as a study (non-empty, unique finite x) before writing
    cfg = StudyConfig(kind=kind, grid=tuple(pt.x for pt in points), seed=seed)
    trends = _trend_outputs(kind, points, out)
    return StudyResult(config=cfg, points=points, trends=trends, out_dir=out)


DEFAULT_GRIDS = {
    "chi_grid": (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0),
    "bz_grid": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0),
    "by_grid": (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5),
}

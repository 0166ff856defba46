"""Property tests: record, scalar record meta, points-table, trends-table
and config round trips, replay of a scan from the meta of its file,
scalar oracles vs grids, each grid's selected components vs the columns
of its full result, latch invariants, the closed-form grid solver, the
per-flip latch and the unit-vector trend designs against their slow or
hand-written oracles (the batched LAPACK solve, the per-sample loop, the
explicit design matrices), composite-contour recovery by fit_record, and
fits that do not depend on the units of the signal."""

from dataclasses import fields, replace
from itertools import permutations
import math
from pathlib import Path
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from alignor.dynamics import CouplingParams, SweepProtocol, latch_scan
from alignor.fitkit import (
    TRENDS,
    CompositeContourModel,
    _unit_design,
    composite_eval,
    fit_record,
    fit_trend,
)
from alignor.instrument import (
    DemodRecord,
    ScanConfig,
    ScanRecord,
    record_meta,
    synthesize_from_meta,
    synthesize_record,
)
from alignor.recordio import (
    SCAN_COLUMNS,
    parse_config,
    read_record,
    read_table,
    write_record,
)
from alignor.spincore import (
    EnsembleParams,
    SignalMix,
    alignment_steady_state_grid,
    orientation_steady_state_grid,
)
from alignor.study import (
    POINT_COLUMNS,
    STUDY_KINDS,
    TREND_COLUMNS,
    StudyConfig,
    StudyPoint,
    TrendFit,
    _write_points_table,
    _write_trends,
    read_points_table,
)
from oracles import (
    ALIGNMENT_SIGNAL_CALIBRATION,
    alignment_signal_shape,
    alignment_steady_state,
    fit_record_all_starts,
    orientation_steady_state,
)
from records import branch_record

SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats())
# record bodies are binary, so every bit must survive: NaN payloads and
# signs, -0.0, the infinities and subnormals
RECORD_FLOATS = st.one_of(FLOATS, st.sampled_from([5e-324, -2.5e-310, 2.2250738585072e-308]),
                        st.binary(min_size=8, max_size=8).map(
                            lambda b: np.frombuffer(b, "<f8")[0]))
SCALARS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(),
                    st.text(), st.text(alphabet=",'\" ab"))
KEYS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?",
                     fullmatch=True)


def _float_reprs(a):
    """Bit-level view that treats every NaN alike and tells -0.0 from 0.0."""
    return [repr(float(v)) for v in a]


def _same_dict(a, b):
    return repr(sorted(a.items())) == repr(sorted(b.items()))


@st.composite
def scan_records(draw):
    n = draw(st.integers(0, 12))
    cols = [draw(arrays(np.float64, n, elements=RECORD_FLOATS)) for _ in range(5)]
    meta = draw(st.dictionaries(KEYS, SCALARS, max_size=6))
    return ScanRecord(*cols, meta=meta)


@st.composite
def demod_records(draw):
    n_up, n_down = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    cols = [draw(arrays(np.float64, n_up + n_down, elements=RECORD_FLOATS))
            for _ in range(4)]
    return DemodRecord(*cols, branch=np.repeat([1.0, -1.0], [n_up, n_down]),
                       meta=draw(st.dictionaries(KEYS, SCALARS, max_size=6)))


def _round_trip(rec):
    """Write, read and rewrite ``rec``; return the copy read back and the
    first line of the file."""
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        write_record(rec, f1)
        back = read_record(f1)
        write_record(back, f2)
        assert f1.read_bytes() == f2.read_bytes()
        signature = f1.read_bytes().split(b"\n", 1)[0]
    assert type(back) is type(rec)
    assert _same_dict(back.meta, rec.meta)
    return back, signature


@settings(max_examples=60, deadline=None)
@given(scan_records())
def test_scan_record_round_trip(rec):
    back, signature = _round_trip(rec)
    assert signature == b"# alignor-record v2"
    for name in ("t", "bx_ramp", "st_raw", "sb_raw", "direction"):
        assert getattr(back, name).tobytes() == getattr(rec, name).tobytes()


@settings(max_examples=60, deadline=None)
@given(demod_records())
def test_demod_record_round_trip(rec):
    back, signature = _round_trip(rec)
    assert signature == b"# alignor-record v2"
    for name in ("bx", "st", "s", "t", "branch"):
        assert getattr(back, name).tobytes() == getattr(rec, name).tobytes()


# meta keys are UTF-8 text with no whitespace and no '='; meta values are
# every scalar a record holds, Python's and numpy's, with the floats a repr
# must keep apart
META_KEYS = st.text(st.characters(codec="utf-8", exclude_characters="="), min_size=1).filter(
    lambda k: not any(c.isspace() for c in k))
META_FLOATS = RECORD_FLOATS.map(float)
META_VALUES = st.one_of(
    META_FLOATS, st.integers(), st.booleans(), st.none(),
    st.text(), st.text(alphabet="'\"\\\n\r\t ,=é€😀\x00\u2028"),
    st.floats(width=32).map(np.float32), META_FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(META_KEYS, META_VALUES, max_size=6))
def test_scalar_meta_round_trip(meta):
    rec = ScanRecord(*np.zeros((5, 2)), meta=meta)
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        write_record(rec, f1)
        back = read_record(f1).meta
        write_record(replace(rec, meta=back), f2)
        assert f1.read_bytes() == f2.read_bytes()
    assert back.keys() == meta.keys()
    for key, value in meta.items():
        value = value.item() if isinstance(value, np.generic) else value
        # repr tells -0.0 from 0.0 and matches NaN with NaN
        assert type(back[key]) is type(value) and repr(back[key]) == repr(value)


@st.composite
def study_points(draw):
    return tuple(StudyPoint(*draw(st.lists(FLOATS, min_size=17, max_size=17)),
                            fit_converged=draw(st.booleans()))
                 for _ in range(draw(st.integers(0, 6))))


@settings(max_examples=60, deadline=None)
@given(study_points(), st.sampled_from(STUDY_KINDS), st.integers(0, 2**31))
def test_points_table_round_trip(points, kind, seed):
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        _write_points_table(StudyConfig(kind, (0.25,), seed=seed), points, f1)
        back_kind, back_seed, back = read_points_table(f1)
        _write_points_table(StudyConfig(back_kind, (0.25,), seed=back_seed), back, f2)
        assert f1.read_bytes() == f2.read_bytes()
    assert (back_kind, back_seed) == (kind, seed)
    assert [_float_reprs(pt.row()) for pt in back] == \
        [_float_reprs(pt.row()) for pt in points]
    assert [pt.fit_converged for pt in back] == [pt.fit_converged for pt in points]


# the words of the trend table's three text columns; the test's header
# parser reads each one as its index here
TREND_WORDS = sorted({*POINT_COLUMNS, *TRENDS,
                      *(n for names, *_ in TRENDS.values() for n in names)})


@st.composite
def trend_fits(draw):
    fits = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(tuple(TRENDS)))
        names = TRENDS[kind][0]
        n = len(names)
        fits.append(TrendFit(
            quantity=draw(st.sampled_from(POINT_COLUMNS)), kind=kind,
            params=tuple(draw(st.lists(FLOATS, min_size=n, max_size=n))),
            stderr=tuple(draw(st.lists(FLOATS, min_size=n, max_size=n))),
            param_names=names, residual_rms=draw(FLOATS),
            converged=draw(st.booleans()), n_points=draw(st.integers(0, 10**6))))
    return tuple(fits)


def _parse_trends_header(path, lines):
    assert len(lines) == 2 and lines[0] == "# alignor-study trends"
    kind = lines[1].removeprefix("# kind: ")
    assert kind in STUDY_KINDS
    return kind, TREND_COLUMNS, {i: TREND_WORDS.index for i in range(3)}, False


def _trends_from_rows(rows):
    """TrendFits from trend-table rows, one block of rows per fit."""
    fits, i = [], 0
    while i < len(rows):
        kind = TREND_WORDS[int(rows[i][1])]
        block = rows[i:i + len(TRENDS[kind][0])]
        i += len(block)
        quantity, _, _, _, _, n_points, rms, converged = block[0]
        fits.append(TrendFit(
            quantity=TREND_WORDS[int(quantity)], kind=kind,
            params=tuple(r[3] for r in block), stderr=tuple(r[4] for r in block),
            param_names=tuple(TREND_WORDS[int(r[2])] for r in block),
            residual_rms=rms, converged=bool(converged), n_points=int(n_points)))
    return tuple(fits)


@settings(max_examples=60, deadline=None)
@given(trend_fits(), st.sampled_from(STUDY_KINDS))
def test_trends_table_round_trip(trends, kind):
    with tempfile.TemporaryDirectory() as tmp:
        f1, f2 = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        _write_trends(kind, trends, f1)
        back_kind, rows = read_table(f1, _parse_trends_header)
        back = _trends_from_rows(rows.tolist())
        _write_trends(back_kind, back, f2)
        assert f1.read_bytes() == f2.read_bytes()
    assert back_kind == kind
    assert [(t.quantity, t.kind, t.param_names, t.n_points, t.converged) for t in back] == \
        [(t.quantity, t.kind, t.param_names, t.n_points, t.converged) for t in trends]
    assert [_float_reprs((*t.params, *t.stderr, t.residual_rms)) for t in back] == \
        [_float_reprs((*t.params, *t.stderr, t.residual_rms)) for t in trends]


# finite, nonzero x whose cube neither overflows nor underflows
NONZERO_X = arrays(float, st.integers(1, 40), elements=st.one_of(
    st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)))


@given(NONZERO_X)
def test_unit_vector_design_is_the_hand_written_design(x):
    # fit_trend's design of a kind linear in its parameters is its model at
    # the unit vectors; it must be the explicit design matrix bit for bit
    oracles = {"linear": np.column_stack([x, np.ones_like(x)]),
               "polynomial": np.column_stack([x ** k for k in range(4)]),
               "hyperbola": np.column_stack([np.ones_like(x), 1.0 / x])}
    assert sorted(oracles) == sorted(k for k, (*_, jac, _) in TRENDS.items() if jac is None)
    for kind, design in oracles.items():
        names, fn, *_ = TRENDS[kind]
        assert _unit_design(fn, len(names), x).tobytes() == design.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(KEYS, st.one_of(SCALARS, st.lists(SCALARS, max_size=4)),
                       max_size=8))
def test_config_dump_parse_identity(cfg):
    # a flat config written as repr literals, lists in brackets
    text = "".join(f"{k} = [{', '.join(map(repr, v))}]\n" if isinstance(v, list)
                   else f"{k} = {v!r}\n" for k, v in sorted(cfg.items()))
    assert _same_dict(parse_config(text), cfg)


# The settings a scan is synthesized from.  The meta of its record holds
# each of their fields under the field's name, but for the scan config's
# ramp, which it holds field by field.
SETTINGS = (SweepProtocol, ScanConfig, EnsembleParams, CouplingParams, SignalMix)


def test_record_meta_holds_every_setting():
    names = [f.name for cls in SETTINGS for f in fields(cls)
             if (cls, f.name) != (ScanConfig, "ramp")]
    assert len(names) == len(set(names))
    meta = record_meta(ScanConfig(ramp=SweepProtocol(bx_start=-1.0, bx_end=1.0, rate=1.0)),
                       EnsembleParams(), CouplingParams(kappa=1.0, my0=0.1), SignalMix())
    assert sorted(meta) == sorted(names)


@st.composite
def scan_settings(draw):
    """Short scans in which every setting differs from its default and
    shapes the record: the ramp crosses zero and the flip fields, so the
    latch flips and the zero-field dwell happens, and the noise is on."""
    f = st.floats
    p = EnsembleParams(gamma_over_2pi=draw(f(1.0, 5.0)), relax_rate=draw(f(20.0, 200.0)),
                       m0=draw(f(0.5, 2.0)), a0=draw(f(0.5, 2.0)),
                       relax_ratio_alignment=draw(f(0.5, 3.0)))
    width = p.width_nt
    chi = draw(st.one_of(st.none(), f(5.0, 45.0)))
    m_eff = p.m0 * (1.0 if chi is None else math.sin(math.radians(2.0 * chi)))
    lo, hi = (draw(f(2.0, 4.0)) * width for _ in range(2))
    ramp = SweepProtocol(
        bx_start=-lo, bx_end=hi, rate=(lo + hi) / draw(f(1.0, 3.0)),
        direction_pattern=draw(st.sampled_from(["up", "down", "triangle"])),
        hold_on_zero=draw(st.booleans()), hold_time=draw(f(0.1, 1.0)),
        static_by=draw(f(-0.3, 0.3)) * width, static_bz=draw(f(-0.3, 0.3)) * width,
        ellipticity_deg=chi)
    mod_freq = draw(f(2.0, 10.0))
    cfg = ScanConfig(ramp=ramp, mod_amplitude=draw(f(0.1, 1.0)) * width, mod_freq=mod_freq,
                     sample_rate=draw(f(20.0, 40.0)) * mod_freq,
                     noise_rms=draw(f(1e-4, 1e-2)), drift_rate=draw(f(-0.5, 0.5)) * width,
                     seed=draw(st.integers(1, 2**31)))
    c = CouplingParams(kappa=draw(f(1.0, 20.0)), my0=draw(f(0.05, 0.3)) * m_eff,
                       tau_flip=draw(st.one_of(st.none(), f(0.01, 0.5))))
    mix = SignalMix(*(draw(f(-2.0, 2.0)) for _ in fields(SignalMix)))
    return cfg, p, c, mix


@settings(max_examples=40, deadline=None)
@given(scan_settings())
def test_scan_replays_from_its_file(setup):
    rec = synthesize_record(*setup)
    with tempfile.TemporaryDirectory() as tmp:
        meta = read_record(write_record(rec, Path(tmp) / "scan.txt")).meta
    replay = synthesize_from_meta(meta)
    for name in SCAN_COLUMNS:
        assert getattr(replay, name).tobytes() == getattr(rec, name).tobytes()
    assert _same_dict(replay.meta, rec.meta)


@st.composite
def ensembles(draw):
    return EnsembleParams(gamma_over_2pi=draw(st.floats(1.0, 5.0)),
                          relax_rate=draw(st.floats(10.0, 500.0)),
                          m0=draw(st.floats(0.1, 2.0)),
                          a0=draw(st.floats(0.1, 2.0)),
                          relax_ratio_alignment=draw(st.floats(0.5, 3.0)))


FIELDS = st.lists(st.tuples(*[st.floats(-100.0, 100.0)] * 3), min_size=1,
                  max_size=8)


@settings(max_examples=100, deadline=None)
@given(ensembles(), FIELDS)
def test_scalar_oracles_match_grids(p, fields):
    b = np.array(fields)
    m1 = orientation_steady_state_grid(b[:, 0], b[:, 1], b[:, 2], p)
    m2 = alignment_steady_state_grid(b[:, 0], b[:, 1], b[:, 2], p)
    for i, row in enumerate(b):
        o = orientation_steady_state(*row, p)
        a = alignment_steady_state(*row, p)
        assert np.max(np.abs(m1[i] - o)) <= 1e-12 * np.linalg.norm(o)
        assert np.max(np.abs(m2[i] - a)) <= 1e-12 * np.linalg.norm(a)


@settings(max_examples=100, deadline=None)
@given(ensembles(), FIELDS)
def test_alignment_grid_matches_lapack_oracle(p, fields):
    b = np.array(fields)
    m2 = alignment_steady_state_grid(b[:, 0], b[:, 1], b[:, 2], p)
    ref = alignment_steady_state(b[:, 0], b[:, 1], b[:, 2], p)
    scale = np.linalg.norm(ref, axis=-1, keepdims=True)
    assert np.all(np.abs(m2 - ref) <= 1e-12 * scale)


@settings(max_examples=100, deadline=None)
@given(ensembles(), st.lists(st.tuples(*[st.floats(-20.0, 20.0)] * 3),
                             min_size=1, max_size=8))
def test_closed_form_matches_alignment_grid(p, fields):
    # dimensionless b = gamma*B / alignment relax rate
    b = np.array(fields)
    B = b * (p.alignment_relax_rate / p.gamma_rad)
    m2s = alignment_steady_state_grid(B[:, 0], B[:, 1], B[:, 2], p)[:, 4]
    shape = alignment_signal_shape(b[:, 0], b[:, 1], b[:, 2])
    assert ALIGNMENT_SIGNAL_CALIBRATION * m2s / p.a0 == pytest.approx(
        shape, rel=1e-12, abs=1e-12)


GRIDS = ((orientation_steady_state_grid, 3), (alignment_steady_state_grid, 5))


@settings(max_examples=50, deadline=None)
@given(ensembles(), FIELDS, st.booleans())
def test_grid_components_are_columns_of_the_full_grid(p, fields, scalar_transverse):
    # every non-empty ordered subset of a grid's components, bit for bit,
    # also with scalar by and bz broadcast against an array bx
    b = np.array(fields)
    bx, by, bz = b[:, 0], b[:, 1], b[:, 2]
    if scalar_transverse:
        by, bz = float(by[0]), float(bz[0])
    for grid, n in GRIDS:
        full = grid(bx, by, bz, p)
        for k in range(1, n + 1):
            for comps in permutations(range(n), k):
                got, want = grid(bx, by, bz, p, components=comps), full[:, comps]
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 8), max_size=7))
def test_grid_components_are_distinct_indices(comps):
    for grid, n in GRIDS:
        if comps and len(set(comps)) == len(comps) and all(0 <= k < n for k in comps):
            assert grid(1.0, 0.2, -0.3, EnsembleParams(),
                        components=tuple(comps)).shape == (len(comps),)
        else:
            with pytest.raises(ValueError, match="components"):
                grid(1.0, 0.2, -0.3, EnsembleParams(), components=tuple(comps))


@st.composite
def identifiable_contours(draw):
    """Composite contours that fit_record recovers from its own starts: the
    symmetric amplitude at least the antisymmetric one, widths of 2-3.5 nT
    within a factor 1.25 of each other, hysteresis 0.2-0.6 of w_sym, center
    and offset within +-0.5, on a +-12 nT window.  Outside this region (an
    antisymmetric part stronger than the symmetric one, width ratios past
    ~1.5, hysteresis near w_sym or 0) the multistart can settle in a wrong
    basin even on noiseless data."""
    w_sym = draw(st.floats(2.0, 3.5))
    return CompositeContourModel(
        a_anti=draw(st.floats(0.05, 0.15)),
        w_anti=w_sym * draw(st.floats(0.8, 1.25)),
        a_sym=draw(st.floats(0.15, 0.3)),
        w_sym=w_sym,
        center=draw(st.floats(-0.5, 0.5)),
        hysteresis_h=w_sym * draw(st.floats(0.2, 0.6)),
        offset=draw(st.floats(-0.5, 0.5)))


@st.composite
def recoverable_contours(draw):
    """A region strictly wider than identifiable_contours' that fit_record
    recovers from noiseless data: a_anti 0.03-0.3, a_sym 0.1-0.3, w_sym
    1.5-4 nT, w_anti within 0.67-1.5 of w_sym, hysteresis 0.1-0.8 of w_sym,
    center +-1 and offset +-5."""
    f = st.floats
    w_sym = draw(f(1.5, 4.0))
    return CompositeContourModel(
        a_anti=draw(f(0.03, 0.3)), w_anti=w_sym * draw(f(0.67, 1.5)),
        a_sym=draw(f(0.1, 0.3)), w_sym=w_sym, center=draw(f(-1.0, 1.0)),
        hysteresis_h=w_sym * draw(f(0.1, 0.8)), offset=draw(f(-5.0, 5.0)))


@settings(max_examples=100, deadline=None)
@given(recoverable_contours())
@example(CompositeContourModel(0.11, 2.5, 0.1, 2.0, 0.0, 0.75, -2.0))
def test_fit_record_recovers_noiseless_contour(model):
    res = fit_record(_noiseless_record(model))
    assert res.converged
    true = model.free_params()
    # amplitudes and widths to 1e-6 relative; center, hysteresis and
    # offset (nT and signal units of order 1) to 1e-6 absolute
    scale = np.array([true[0], true[1], true[2], true[3], 1.0, 1.0, 1.0])
    assert np.all(np.abs(res.params - true) <= 1e-6 * scale)


def _noiseless_record(model):
    bx = np.linspace(-12.0, 12.0, 241)
    return branch_record((bx, composite_eval(model, bx, 1.0)),
                         (bx[::-1], composite_eval(model, bx[::-1], -1.0)))


@st.composite
def multistart_contours(draw, signed):
    """Composite contours over the region where the multistart is known to
    miss some noiseless contours (a_anti 0.03-0.3, widths 1-4 nT, a_sym
    0.05-0.3, center +-1, hysteresis 0-3, offset +-1); ``signed`` gives the
    amplitudes either sign and the offset +-10."""
    f = st.floats

    def amplitude(lo, hi):
        a = draw(f(lo, hi))
        return -a if signed and draw(st.booleans()) else a

    bound = 10.0 if signed else 1.0
    return CompositeContourModel(
        a_anti=amplitude(0.03, 0.3), w_anti=draw(f(1.0, 4.0)),
        a_sym=amplitude(0.05, 0.3), w_sym=draw(f(1.0, 4.0)),
        center=draw(f(-1.0, 1.0)), hysteresis_h=draw(f(0.0, 3.0)),
        offset=draw(f(-bound, bound)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(multistart_contours(signed=False), multistart_contours(signed=True)))
def test_fit_record_merge_keeps_the_best_minimum(model):
    # a start that reaches a minimum an earlier start already found stops
    # there; the fit must still end where running every start to the end
    # ends.  Noiseless residuals are rounding noise (1e-17 to 1e-13 of the
    # signal), and which copy of one minimum wins moves them within that,
    # so the slack is 1e-6 relative plus 1e-9 of the largest signal value,
    # far below the residual of any other minimum
    rec = _noiseless_record(model)
    res = fit_record(rec)
    ref = fit_record_all_starts(rec)
    assert res.converged == ref.converged
    floor = 1e-9 * np.max(np.abs(rec.s))
    assert res.residual_rms <= ref.residual_rms * (1.0 + 1e-6) + floor



def _unit_gap(got, want, floor):
    """Largest |got - want| relative to max(|want|, floor), elementwise."""
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


# the signal units: k = 1e-6 turns the study's uA into A, and a lock-in gain
# is another such factor
unit_factors = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)


@settings(max_examples=20, deadline=None)
@given(identifiable_contours(), st.floats(1e-3, 2e-2), st.integers(0, 2 ** 32 - 1),
       unit_factors)
@example(CompositeContourModel(0.125, 2.53125, 0.25, 2.25, 0.375, 0.4921875, 0.0),
         0.015625, 375, 10.0)
@example(CompositeContourModel(0.05, 2.2994384765625, 0.150390625, 2.830078125,
                               -0.203125, 0.566015625, -0.173828125),
         0.015609587132432948, 1, 10.0)
@example(CompositeContourModel(0.0625, 1.6015625, 0.15234375, 2.0, 0.0, 0.40625, 0.0),
         0.015625, 433, 10.0)
def test_fit_record_does_not_depend_on_signal_units(model, noise, seed, k):
    # k * s fits to the widths, center and hysteresis of s, with a_anti,
    # a_sym and offset scaled by k; center and offset can sit near zero, so
    # each parameter is compared relative to its own size or, if larger,
    # the fit's width or amplitude scale
    rng = np.random.default_rng(seed)
    rec = _noiseless_record(model)
    rec = replace(rec, s=rec.s + noise * rng.standard_normal(rec.s.size))
    res = fit_record(rec)
    assume(res.converged)
    scaled = fit_record(replace(rec, s=k * rec.s))
    assert scaled.converged
    want = res.params * np.array([k, 1.0, k, 1.0, 1.0, 1.0, k])
    amp = k * max(abs(res.params[0]), abs(res.params[2]))
    width = max(res.params[1], res.params[3])
    floor = np.array([amp, width, amp, width, width, width, amp])
    assert _unit_gap(scaled.params, want, floor) <= 1e-6


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["arctan", "lorentzian"]), st.floats(1.0, 3.0), st.floats(0.2, 0.8),
       st.floats(-1.0, 1.0), st.integers(0, 2 ** 32 - 1), unit_factors)
def test_fit_trend_does_not_depend_on_signal_units(kind, amplitude, width, offset, seed, k):
    # a trend over the 7-point ellipticity grid: k * y fits to the width of
    # y, with the amplitude and the offset scaled by k
    x = np.linspace(0.1, 1.0, 7)
    rng = np.random.default_rng(seed)
    y = TRENDS[kind][1](x, np.array([amplitude, width, offset])) \
        + 0.02 * rng.standard_normal(x.size)
    res = fit_trend(x, y, kind)
    assume(res.converged)
    scaled = fit_trend(x, k * y, kind)
    assert scaled.converged
    want = res.params * np.array([k, 1.0, k])
    floor = np.array([abs(want[0]), abs(want[1]), abs(want[0])])
    assert _unit_gap(scaled.params, want, floor) <= 1e-6


@st.composite
def latch_inputs(draw):
    n = draw(st.integers(2, 300))
    my = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    direction = draw(arrays(np.float64, n, elements=st.sampled_from([-1.0, 0.0, 1.0])))
    my0 = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    dt = draw(st.floats(1e-3, 0.1))
    tau = draw(st.floats(1e-3, 1.0))
    s0 = draw(st.sampled_from([None, -1, 1]))
    return np.arange(n) * dt, my, direction, my0, tau, s0


@settings(max_examples=300, deadline=None)
@given(latch_inputs())
def test_latch_invariants(args):
    t, my, direction, my0, tau, s0 = args
    ell, flips = latch_scan(t, my, direction, my0, tau, s0=s0)
    assert np.all(np.abs(ell) <= 1.0)
    # a flip starts from the held state, so its start value is +-1 and
    # consecutive flips leave opposite states
    starts = ell[flips]
    assert np.all(np.abs(starts) == 1.0)
    assert np.all(starts[1:] == -starts[:-1])
    # and only on a threshold crossing in the sweep direction, my0 = 0 too
    assert np.all(direction[flips] != 0.0)
    assert np.all(np.where(starts < 0, my[flips] >= my0, my[flips] <= -my0))
    # outside the raised-cosine ramps the latch holds a state exactly
    in_ramp = np.zeros(t.size, bool)
    for i in flips:
        in_ramp[i + 1:] |= (t[i + 1:] - t[i]) / tau < math.pi
    held = ell[~in_ramp]
    assert np.all(np.abs(held) == 1.0)


def _latch_scan_loop(t, my, direction, my0, tau_flip, s0=None):
    """Per-sample reference scan of the latch, one Python step per sample."""
    t = np.asarray(t, float)
    my = np.asarray(my, float)
    n = t.size
    ell = np.empty(n)
    flips = []
    if s0 is None:
        s0 = -1 if my[0] < 0 else 1
    s, s_old = float(s0), float(s0)
    flipping = False
    t0 = 0.0
    for i in range(n):
        if flipping:
            phase = (t[i] - t0) / tau_flip
            if phase >= math.pi:
                flipping = False
                ell[i] = s
            else:
                ell[i] = s_old + (s - s_old) * 0.5 * (1.0 - math.cos(phase))
            continue
        trig = 0
        if direction[i] > 0 and s < 0 and my[i] >= my0:
            trig = 1
        elif direction[i] < 0 and s > 0 and my[i] <= -my0:
            trig = -1
        if trig:
            flipping = True
            t0 = t[i]
            s_old, s = s, float(trig)
            flips.append(i)
            ell[i] = s_old
        else:
            ell[i] = s
    return ell, flips


def _assert_latch_matches_loop(t, my, direction, my0, tau, s0):
    ell, flips = latch_scan(t, my, direction, my0, tau, s0=s0)
    ref_ell, ref_flips = _latch_scan_loop(t, my, direction, my0, tau, s0=s0)
    assert ell.tobytes() == ref_ell.tobytes()
    assert flips == ref_flips
    return flips


@settings(max_examples=300, deadline=None)
@given(latch_inputs())
def test_latch_matches_per_sample_loop(args):
    _assert_latch_matches_loop(*args)


DT, TAU = 0.01, 0.05   # ramps span ceil(pi*TAU/DT) = 16 samples


@pytest.mark.parametrize("s0", [None, -1, 1])
def test_latch_trigger_at_first_sample(s0):
    my = np.full(40, 0.5 if s0 != 1 else -0.5)
    direction = np.full(40, 1.0 if s0 != 1 else -1.0)
    flips = _assert_latch_matches_loop(np.arange(40) * DT, my, direction, 0.2, TAU, s0)
    assert flips == ([] if s0 is None else [0])


@pytest.mark.parametrize("s0", [None, -1, 1])
def test_latch_ramp_running_at_last_sample(s0):
    # a held +1 flips on a down sweep: mirror the up-sweep crossing for it
    sign = -1.0 if s0 == 1 else 1.0
    my = sign * np.concatenate([np.full(30, -0.5), np.full(8, 0.5)])
    flips = _assert_latch_matches_loop(np.arange(38) * DT, my, np.full(38, sign),
                                       0.2, TAU, s0)
    assert flips == [30]


@pytest.mark.parametrize("s0", [None, -1, 1])
def test_latch_dwell_samples_never_trigger(s0):
    my = np.concatenate([np.full(10, -0.5), np.full(30, 0.5), np.full(30, -0.5)])
    direction = np.concatenate([np.ones(10), np.zeros(20), np.ones(10),
                                np.zeros(20), -np.ones(10)])
    flips = _assert_latch_matches_loop(np.arange(70) * DT, my, direction, 0.2, TAU, s0)
    assert all(direction[i] != 0.0 for i in flips)


@pytest.mark.parametrize("s0", [None, -1, 1])
@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_latch_zero_threshold_either_direction(s0, direction):
    # my0 = 0 follows the sweep-direction rule like any threshold: M_y
    # oscillating through zero on a one-way sweep flips the latch at most
    # once, into the state of that direction (M_y starts at 0, so s0=None
    # holds +1)
    my = np.sin(np.arange(300) * 0.07) * 0.3
    flips = _assert_latch_matches_loop(np.arange(300) * DT, my,
                                       np.full(300, direction), 0.0, TAU, s0)
    start = 1 if s0 is None else s0
    assert len(flips) == (start != direction)


@settings(max_examples=100, deadline=None)
@given(latch_inputs())
def test_latch_zero_threshold_is_the_smallest_threshold(args):
    # my0 = 0 follows the same direction-gated rule as any threshold: the
    # latch at 0 equals the latch at the smallest positive float wherever
    # no sample sits exactly on M_y = 0, the one value the two separate
    t, my, direction, _, tau, s0 = args
    my = np.where(my == 0.0, 0.5, my)
    ell, flips = latch_scan(t, my, direction, 0.0, tau, s0=s0)
    ell_min, flips_min = latch_scan(t, my, direction, 5e-324, tau, s0=s0)
    assert ell.tobytes() == ell_min.tobytes()
    assert flips == flips_min


def test_latch_ramp_ends_at_phase_exactly_pi():
    # sample 4 has phase == pi: it ends the ramp, so sample 5 may trigger
    t = np.array([0.0, 1.0, 2.0, 3.0, math.pi, 3.5, 4.0])
    my = np.array([0.5, 0.5, 0.5, 0.5, 0.5, -0.5, -0.5])
    direction = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    assert _assert_latch_matches_loop(t, my, direction, 0.2, 1.0, -1) == [0, 5]

import math
import os
from pathlib import Path
import re
import resource
import subprocess
import sys
import xml.etree.ElementTree as ET

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from alignor.plotsvg import _COLORS, Series, _fmt, _ticks, emit_plot


def emit_plot_per_sample(series, path, title: str = "", xlabel: str = "",
                         ylabel: str = "") -> Path:
    """emit_plot with a per-sample loop for the points and markers: the
    oracle for its array-wise form."""
    if not series:
        raise ValueError("no series to plot")
    path = Path(path)
    xs = np.concatenate([s.x for s in series])
    ys = np.concatenate([s.y for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not np.any(finite):
        raise ValueError("all series values are non-finite")
    xlo, xhi = float(xs[finite].min()), float(xs[finite].max())
    ylo, yhi = float(ys[finite].min()), float(ys[finite].max())
    if xlo == xhi:
        xlo, xhi = xlo - 1.0, xhi + 1.0
    if ylo == yhi:
        ylo, yhi = ylo - 1.0, yhi + 1.0
    pad_y = 0.06 * (yhi - ylo)
    ylo, yhi = ylo - pad_y, yhi + pad_y
    ml, mr, mt, mb = 64, 16, 28, 46
    width, height = 640, 420
    pw, ph = width - ml - mr, height - mt - mb

    def px(x):
        return ml + (x - xlo) / (xhi - xlo) * pw

    def py(y):
        return mt + (yhi - y) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
           f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
           'stroke="black" stroke-width="1"/>']
    if title:
        out.append(f'<text x="{width / 2}" y="{mt - 10}" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    for tx in _ticks(xlo, xhi):
        out.append(f'<line x1="{px(tx):.1f}" y1="{mt + ph}" x2="{px(tx):.1f}" '
                   f'y2="{mt + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(tx):.1f}" y="{mt + ph + 18}" '
                   f'text-anchor="middle" font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        out.append(f'<line x1="{ml - 5}" y1="{py(ty):.1f}" x2="{ml}" '
                   f'y2="{py(ty):.1f}" stroke="black"/>')
        out.append(f'<text x="{ml - 8}" y="{py(ty) + 4:.1f}" text-anchor="end" '
                   f'font-size="11">{_fmt(ty)}</text>')
    if xlabel:
        out.append(f'<text x="{ml + pw / 2}" y="{height - 8}" '
                   f'text-anchor="middle" font-size="12">{xlabel}</text>')
    if ylabel:
        out.append(f'<text x="14" y="{mt + ph / 2}" text-anchor="middle" '
                   f'font-size="12" transform="rotate(-90 14 {mt + ph / 2})">'
                   f'{ylabel}</text>')
    for i, s in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        ok = np.isfinite(s.x) & np.isfinite(s.y)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(s.x[ok], s.y[ok]))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"{dash}/>')
        if s.markers:
            for a, b in zip(s.x[ok], s.y[ok]):
                out.append(f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="2.5" '
                           f'fill="{color}"/>')
        out.append(f'<text x="{ml + pw - 6}" y="{mt + 16 + 14 * i}" '
                   f'text-anchor="end" font-size="11" fill="{color}">{s.name}</text>')
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n")

    return path


def ticks_accumulated(lo, hi):
    """_ticks as a running value plus the step, with values within 1e-12 of
    the span of zero snapped to 0.0: the oracle of its ticks by index on
    ordinary spans.  The loop is bounded at 8 ticks, because on a span near
    the float spacing of lo the running value stops moving."""
    n = 5
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / n))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n + 1:
            step *= mult
            break
    ticks = []
    v = math.ceil(lo / step) * step
    while v <= hi + 1e-12 * span and len(ticks) < 8:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def nonfinite_series():
    x = np.linspace(-3.0, 3.0, 41)
    y = np.sin(x) / 3.0
    y[[4, 17]] = np.nan
    y[9] = np.inf
    x2 = np.linspace(-2.5, 1.0, 13)
    y2 = -np.cos(x2) * 1e-7
    x2[5] = -np.inf
    return [Series("up", x, y, markers=True), Series("dn", x2, y2, dashed=True),
            Series("pt", np.array([0.25]), np.array([math.nan]), markers=True)]


def random_series(rng):
    out = []
    for i in range(int(rng.integers(1, 5))):
        n = int(rng.integers(1, 60))
        x = np.sort(rng.uniform(-20, 20, n)) * 10.0 ** rng.integers(-3, 4)
        y = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-9, 3)
        bad = rng.random(n) < 0.1
        y[bad] = rng.choice([np.nan, np.inf, -np.inf], int(bad.sum()))
        out.append(Series(f"s{i}", x, y, dashed=bool(rng.integers(2)),
                          markers=bool(rng.integers(2))))
    return out


def assert_same_files(series, tmp_path, **kw):
    got = emit_plot(series, tmp_path / "new.svg", **kw)
    want = emit_plot_per_sample(series, tmp_path / "old.svg", **kw)
    assert got.read_bytes() == want.read_bytes()


class TestEmitPlot:
    def test_minimal_plot_is_valid_svg_and_the_only_file(self, tmp_path):
        s = Series("points", np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 0.5]))
        out = emit_plot([s], tmp_path / "p.svg", title="t", xlabel="x", ylabel="y")
        root = ET.parse(out).getroot()
        assert root.tag.endswith("svg")
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1
        assert list(tmp_path.iterdir()) == [out]

    def test_two_branch_styling(self, tmp_path):
        x = np.linspace(-1, 1, 20)
        # the palette's first two colours, the second series dashed
        up = Series("up", x, np.tanh(3 * x))
        down = Series("down", x[::-1], np.tanh(3 * x[::-1]) - 0.2, dashed=True)
        out = emit_plot([up, down], tmp_path / "b.svg")
        text = out.read_text()
        assert text.count("<polyline") == 2
        assert "#1f77b4" in text and "#d62728" in text
        assert "stroke-dasharray" in text

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Series("bad", np.arange(3.0), np.arange(4.0))

    def test_empty_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "e.svg")
        with pytest.raises(ValueError):
            Series("empty", np.array([]), np.array([]))

    def test_all_nonfinite_values_rejected(self, tmp_path):
        s = Series("nan", np.array([0.0, 1.0]), np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match="all series values are non-finite"):
            emit_plot([s], tmp_path / "n.svg")
        assert not (tmp_path / "n.svg").exists()

    def test_constant_series_does_not_crash(self, tmp_path):
        s = Series("flat", np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        out = emit_plot([s], tmp_path / "f.svg")
        assert out.exists()

    def test_flat_x_axis_draws_the_series_mid_plot(self, tmp_path):
        # every x equal: the axis spans x +- 1, so the points sit at the
        # middle of the 560 px plot area, which starts 64 px in
        s = Series("vertical", np.array([2.0, 2.0, 2.0]), np.array([0.0, 1.0, 3.0]))
        root = ET.parse(emit_plot([s], tmp_path / "v.svg")).getroot()
        line, = root.findall("{http://www.w3.org/2000/svg}polyline")
        assert {p.split(",")[0] for p in line.get("points").split()} == {"344.00"}

    @pytest.mark.parametrize("x, y, axis", [
        ([0.0, 1.0, 2.0], [-1.5e308, 1.5e308, 0.0], "y"),
        ([-1.5e308, 1.5e308], [0.0, 1.0], "x"),
        # a finite span that overflows once padded by 6% at each end
        ([0.0, 1.0], [-1e307, 1.6e308], "y"),
    ])
    def test_axis_span_beyond_the_largest_float_rejected(self, tmp_path, x, y, axis):
        # the tick step is a power of ten of the span, which would be inf
        path = tmp_path / "o.svg"
        label = {"x": "chi", "y": "w_anti"}[axis]
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: the {axis} axis ({label})")):
            emit_plot([Series("s", x, y)], path, xlabel="chi", ylabel="w_anti")
        assert not path.exists()

    def test_markup_characters_in_text_are_escaped(self, tmp_path):
        # written raw, the '&' and '<' made a file no XML parser reads
        s = Series("a<b & c", [0.0, 1.0], [0.0, 1.0])
        out = emit_plot([s], tmp_path / "m.svg", title="S_T & S_B", xlabel="x > 0",
                        ylabel="<y>")
        texts = {e.text for e in ET.parse(out).getroot().iter("{http://www.w3.org/2000/svg}text")}
        assert {"a<b & c", "S_T & S_B", "x > 0", "<y>"} <= texts

    def test_matches_per_sample_oracle_with_nonfinite_values(self, tmp_path):
        assert_same_files(nonfinite_series(), tmp_path, title="t", xlabel="x",
                          ylabel="y")

    def test_matches_per_sample_oracle_on_random_series(self, tmp_path):
        rng = np.random.default_rng(5)
        for _ in range(30):
            series = random_series(rng)
            if not any(np.any(np.isfinite(s.x) & np.isfinite(s.y)) for s in series):
                continue
            assert_same_files(series, tmp_path)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False) | st.integers(1, 8))
def ticks_property(a, b):
    """At most seven strictly increasing ticks, each within 1e-12 of the span
    of [lo, hi].  An integer b stands for a + b ulps of a: a span at the float
    spacing of its ends."""
    lo, hi = sorted((a, a + b * math.ulp(a) if isinstance(b, int) else b))
    span = hi - lo
    assume(lo < hi and math.isfinite(span) and span / 5 >= sys.float_info.min)
    ticks = _ticks(lo, hi)
    assert len(ticks) <= 7
    assert all(u < v for u, v in zip(ticks, ticks[1:]))
    assert all(lo - 1e-12 * span <= v <= hi + 1e-12 * span for v in ticks)


class TestTicks:
    def test_at_most_seven_increasing_ticks_within_the_span(self):
        # in a child process with a 1 GiB address-space cap: on a span near
        # the float spacing of lo, a tick loop that adds its step to a running
        # value never ends, and the cap turns its growing list into a
        # MemoryError instead of filling the machine's memory
        here = Path(__file__).resolve().parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]))}
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-c", "from test_plotsvg import ticks_property; ticks_property()"],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 0, proc.stderr

    def test_labels_match_the_accumulating_oracle_on_ordinary_spans(self):
        # the figures' tick labels and positions: spans from 1e-9 to 1e9,
        # centred up to 1000 spans from zero
        rng = np.random.default_rng(11)
        for _ in range(3000):
            span = 10.0 ** rng.uniform(-9.0, 9.0)
            lo = span * rng.uniform(-1000.0, 1000.0) * rng.choice([1.0, 1e-3])
            hi = lo + span * rng.uniform(0.5, 1.0)
            want, got = ticks_accumulated(lo, hi), _ticks(lo, hi)
            assert [_fmt(v) for v in got] == [_fmt(v) for v in want]
            # emit_plot's px with its 64-pixel margin and 560-pixel plot width
            assert ([f"{64 + (v - lo) / (hi - lo) * 560:.1f}" for v in got]
                    == [f"{64 + (v - lo) / (hi - lo) * 560:.1f}" for v in want])

    @pytest.mark.parametrize("lo, hi, labels", [
        (0.0, 1.0, ["0", "0.2", "0.4", "0.6", "0.8", "1"]),
        # -0.6 + 3 * 0.2 is -1.1e-16 when summed, but the tick at index 0 is 0.0
        (-0.7, 0.3, ["-0.6", "-0.4", "-0.2", "0", "0.2"]),
        (-37.0, 112.0, ["0", "50", "100"]),
    ])
    def test_round_labels_and_an_exact_zero(self, lo, hi, labels):
        ticks = _ticks(lo, hi)
        assert [_fmt(v) for v in ticks] == labels
        assert all(math.copysign(1.0, v) == 1.0 for v in ticks if v == 0.0)

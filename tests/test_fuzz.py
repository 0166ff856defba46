"""Boundary fuzzing: byte mutations of every file the package reads, and
mutated records through the CLI.

The readers (``read_record``, ``read_points_table``, ``load_config``) may
reject a mutated file only with ValueError; ``alignor demod`` and
``alignor fit --transition`` may only exit 0, 2 or 3, exit 0 only with
finite composite parameters (a transition ``dt`` may be NaN when no flip is
found), and reject bad data before a LAPACK routine fails on it.  The
examples are bounded so the module takes a few seconds.
"""

from contextlib import redirect_stderr, redirect_stdout
from functools import cache
import io
import json
import math
from pathlib import Path
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from alignor.cli import main
from alignor.dynamics import CouplingParams, SweepProtocol
from alignor.fitkit import COMPOSITE_PARAM_NAMES
from alignor.instrument import ScanConfig, lockin_demodulate, synthesize_record
from alignor.recordio import load_config, read_record, write_record
from alignor.spincore import EnsembleParams
from alignor.study import (
    POINT_COLUMNS,
    StudyConfig,
    StudyPoint,
    _write_points_table,
    read_points_table,
)

# mutated numbers overflow in numpy and mutated literals draw Python's
# SyntaxWarning; only the exceptions and exit codes are under test
pytestmark = [pytest.mark.filterwarnings("ignore::RuntimeWarning"),
              pytest.mark.filterwarnings("ignore::SyntaxWarning")]

# text a mutation may insert: number syntax, non-finite names, header and
# config punctuation, line breaks and a stray non-UTF-8 byte
TOKENS = (b"0", b"-", b".", b"e", b"1e308", b"-1e308", b"1e-320", b"nan", b"inf",
          b"-inf", b"#", b" ", b"\t", b"\n", b"=", b",", b"'", b"[", b"]", b"None",
          b"up", b"down", b"# kind: demod\n", b"# meta.seed = 1\n",
          b"# columns: bx\n", b"# body: f8-le 3\n", b"\xff", b"\x00")


@cache
def originals() -> dict:
    """The bytes of one file of each kind the package reads."""
    ramp = SweepProtocol(bx_start=-12.0, bx_end=12.0, rate=4.0,
                         ellipticity_deg=0.25, static_by=0.4)
    cfg = ScanConfig(ramp=ramp, sample_rate=200.0, noise_rms=0.001, seed=3)
    scan = synthesize_record(cfg, EnsembleParams(gamma_over_2pi=3.5, relax_rate=200.0),
                             CouplingParams(kappa=100.0, my0=0.001))
    points = [StudyPoint(**{name: float(i + k) for k, name in enumerate(POINT_COLUMNS)})
              for i in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {
            "scan": write_record(scan, tmp / "scan.txt"),
            "demod": write_record(lockin_demodulate(scan), tmp / "demod.txt"),
            "points": tmp / "points.txt",
            "config": tmp / "sim.cfg",
        }
        _write_points_table(StudyConfig(kind="chi_grid", grid=(0.1, 0.2, 0.3), seed=3),
                            points, files["points"])
        files["config"].write_text("ramp.bx_start = -12.0\nramp.rate = 2.0\n"
                                   "instrument.sample_rate = 400.0\n"
                                   "coupling.my0 = 0.004\nmix.c_al = 1.5\n")
        return {kind: path.read_bytes() for kind, path in files.items()}


READERS = {"scan": read_record, "demod": read_record,
           "points": read_points_table, "config": load_config}


@st.composite
def mutations(draw, data: bytes):
    """data with 1-4 byte flips, deletions, token insertions or a truncation."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        i = draw(st.integers(0, max(len(data) - 1, 0)))
        if kind == "flip" and data:
            data[i] = draw(st.integers(0, 255))
        elif kind == "delete":
            del data[i:i + draw(st.integers(1, 16))]
        elif kind == "insert":
            data[i:i] = draw(st.sampled_from(TOKENS))
        else:
            del data[i:]
    return bytes(data)


def _write(tmp, name, data):
    path = Path(tmp) / name
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("kind", list(READERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_readers_raise_only_value_error(kind, data):
    mutated = data.draw(mutations(originals()[kind]))
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, "file.txt", mutated)
        try:
            READERS[kind](path)
        except ValueError:
            pass


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# values a mutated meta line may take: out-of-range, non-finite, huge,
# tiny and wrongly typed literals
META_VALUES = ("0", "0.0", "-1.0", "1e-300", "1e308", "-1e308", "nan", "inf", "-inf",
               "10**3", "1" + "0" * 400, "None", "True", "'x'", "[]", "[1.0, 2.0]",
               "{}", "(1,)", "-5", "1e6")


@st.composite
def meta_mutations(draw):
    """The scan record with meta lines given other values or removed."""
    head, sep, body = originals()["scan"].partition(b"# columns:")
    lines = head.decode().splitlines(keepends=True)
    meta = [i for i, ln in enumerate(lines) if ln.startswith("# meta.")]
    for i in draw(st.lists(st.sampled_from(meta), min_size=1, max_size=3, unique=True)):
        key = lines[i].split(" = ")[0]
        value = draw(st.sampled_from(META_VALUES + ("",)))
        lines[i] = f"{key} = {value}\n" if value else ""
    return "".join(lines).encode() + sep + body


def _fit(path):
    """Run ``fit --transition`` on path and check the exit contract."""
    code, out, err = _cli("fit", str(path), "--transition", "--format", "json")
    assert code in (0, 2, 3)
    # bad data stops before LAPACK: no "Eigenvalues/SVD did not converge"
    assert "did not converge" not in err
    if code == 0:
        fit = json.loads(out)
        assert all(math.isfinite(fit[name]["value"]) for name in COMPOSITE_PARAM_NAMES)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(meta_mutations())
def test_demod_of_mutated_scan_meta_exits_cleanly(mutated):
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _ = _cli("demod", str(_write(tmp, "scan.txt", mutated)), "--out", tmp)
        assert code in (0, 2)
        if code == 0:
            _fit(Path(tmp) / "demod.txt")


# numbers a mutated body field may take: non-finite, overflowing in the
# contour model, zero and subnormal
NUMBERS = ("nan", "inf", "-inf", "1e300", "-1e300", "0.0", "-0.0", "1e-320")


@st.composite
def field_mutations(draw, data: bytes):
    """data, a text record, with 1-3 numeric body fields set to NUMBERS:
    a file the reader accepts, so the fit sees the values."""
    lines = data.decode().splitlines(keepends=True)
    body = [i for i, ln in enumerate(lines) if not ln.startswith("#")]
    for i in draw(st.lists(st.sampled_from(body), min_size=1, max_size=3, unique=True)):
        row = lines[i].split()
        row[draw(st.integers(0, len(row) - 2))] = draw(st.sampled_from(NUMBERS))
        lines[i] = " ".join(row) + "\n"
    return "".join(lines).encode()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_fit_of_mutated_demod_record_exits_cleanly(data):
    demod = originals()["demod"]
    mutated = data.draw(st.one_of(mutations(demod), field_mutations(demod)))
    with tempfile.TemporaryDirectory() as tmp:
        _fit(_write(tmp, "demod.txt", mutated))

import ast
from dataclasses import replace
import math
import re

import numpy as np
import pytest

from alignor.cli import main
from alignor.dynamics import CouplingParams, SweepProtocol
from alignor.instrument import (
    DemodRecord,
    ScanConfig,
    ScanRecord,
    config_from_meta,
    lockin_demodulate,
    synthesize_from_meta,
    synthesize_record,
)
from alignor.recordio import (
    DEMOD_COLUMNS,
    SCAN_COLUMNS,
    _format_value,
    parse_config,
    read_record,
    write_record,
    write_table,
)
from alignor.spincore import EnsembleParams
from alignor.study import StudyConfig, StudyPoint, _write_points_table, read_points_table


@pytest.fixture
def scan_record():
    ramp = SweepProtocol(bx_start=-4.0, bx_end=4.0, rate=2.0)
    cfg = ScanConfig(ramp=ramp, sample_rate=200.0, noise_rms=0.01, seed=3)
    return synthesize_record(cfg, EnsembleParams(), CouplingParams(kappa=5.0, my0=0.05))


class TestRecordFile:
    def test_scan_round_trip_lossless(self, scan_record, tmp_path):
        f1 = tmp_path / "rec.txt"
        f2 = tmp_path / "rec2.txt"
        write_record(scan_record, f1)
        back = read_record(f1)
        write_record(back, f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert back.sb_raw.tobytes() == scan_record.sb_raw.tobytes()
        assert back.meta == scan_record.meta

    def test_demod_round_trip(self, scan_record, tmp_path):
        dem = lockin_demodulate(scan_record)
        f = tmp_path / "dem.txt"
        write_record(dem, f)
        back = read_record(f)
        assert isinstance(back, DemodRecord)
        for name in ("bx", "st", "s", "t", "branch"):
            assert getattr(back, name).tobytes() == getattr(dem, name).tobytes()
        assert back.meta == dem.meta
        f2 = tmp_path / "dem2.txt"
        write_record(back, f2)
        assert f.read_bytes() == f2.read_bytes()

    def test_unknown_version_rejected(self, scan_record, tmp_path):
        f = tmp_path / "rec.txt"
        write_record(scan_record, f)
        f.write_bytes(f.read_bytes().replace(b"v2", b"v9", 1))
        with pytest.raises(ValueError, match="version"):
            read_record(f)

    def test_non_finite_meta_round_trip(self, scan_record, tmp_path):
        rec = replace(scan_record, meta={**scan_record.meta, "a": math.nan,
                                         "b": math.inf, "c": -math.inf})
        f1 = tmp_path / "rec.txt"
        f2 = tmp_path / "rec2.txt"
        write_record(rec, f1)
        back = read_record(f1)
        write_record(back, f2)
        assert f1.read_bytes() == f2.read_bytes()
        assert math.isnan(back.meta["a"])
        assert back.meta["b"] == math.inf and back.meta["c"] == -math.inf

    @pytest.mark.parametrize("signature", [
        "# alignor-recordv1", "# alignor-record-vv1", "# alignor-record v1x",
        "# alignor-record v", "# alignor-record  v1"])
    def test_malformed_signature_rejected(self, scan_record, tmp_path, signature):
        f = tmp_path / "rec.txt"
        write_record(scan_record, f)
        f.write_bytes(f.read_bytes().replace(b"# alignor-record v2", signature.encode(), 1))
        with pytest.raises(ValueError, match="signature"):
            read_record(f)

    def test_not_a_record_file(self, tmp_path):
        f = tmp_path / "junk.txt"
        f.write_text("hello\n1 2 3\n")
        with pytest.raises(ValueError, match="signature"):
            read_record(f)

    def test_unserializable_type(self, tmp_path):
        with pytest.raises(TypeError):
            write_record({"not": "a record"}, tmp_path / "x.txt")

    def test_nested_numpy_meta_round_trip(self, scan_record, tmp_path):
        # numpy scalars inside containers are written as Python literals,
        # not as their numpy 2 repr (np.float64(1.5)), which read rejects
        rec = replace(scan_record, meta={**scan_record.meta, "lst": [np.float64(1.5)],
                                         "tup": (np.int64(2), [np.float32(0.5)]),
                                         "dct": {"on": np.bool_(True)}})
        f1 = write_record(rec, tmp_path / "rec.txt")
        assert b"# meta.lst = [1.5]\n" in f1.read_bytes()
        back = read_record(f1)
        assert back.meta["lst"] == [1.5]
        assert back.meta["tup"] == (2, [0.5]) and back.meta["dct"] == {"on": True}
        f2 = write_record(back, tmp_path / "rec2.txt")
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("value", [np.array([1.0, 2.0]), object()],
                             ids=["ndarray", "object"])
    def test_meta_that_does_not_read_back_is_refused(self, scan_record, tmp_path, value):
        f = tmp_path / "rec.txt"
        with pytest.raises(ValueError, match="meta key 'bad'"):
            write_record(replace(scan_record, meta={**scan_record.meta, "bad": value}), f)
        assert not f.exists()

    def test_record_with_back_action_replays(self, scan_record, tmp_path):
        # records from before CouplingParams.back_action was removed carry
        # it in their meta; latch-mode synthesis never read it
        f = write_record(replace(scan_record, meta={**scan_record.meta,
                                                    "back_action": 0.0}),
                         tmp_path / "rec.txt")
        assert b"# meta.back_action = 0.0\n" in f.read_bytes()
        replay = synthesize_from_meta(read_record(f).meta)
        for name in ("t", "bx_ramp", "st_raw", "sb_raw", "direction"):
            assert getattr(replay, name).tobytes() == getattr(scan_record, name).tobytes()
        assert replay.meta == scan_record.meta

    def test_record_with_mode_replays(self, scan_record, tmp_path):
        # records from before the RK4 sweep was removed carry
        # mode = 'latch' in their meta; nothing reads it
        f = write_record(replace(scan_record, meta={"mode": "latch", **scan_record.meta}),
                         tmp_path / "rec.txt")
        assert b"# meta.mode = 'latch'\n" in f.read_bytes()
        meta = read_record(f).meta
        assert config_from_meta(meta) == config_from_meta(scan_record.meta)
        replay = synthesize_from_meta(meta)
        for name in ("t", "bx_ramp", "st_raw", "sb_raw", "direction"):
            assert getattr(replay, name).tobytes() == getattr(scan_record, name).tobytes()
        assert replay.meta == scan_record.meta


def _line_no(path, prefix):
    """1-based number of the first line of ``path`` that starts with ``prefix``."""
    lines = path.read_bytes().split(b"\n")
    return next(n for n, ln in enumerate(lines, start=1) if ln.startswith(prefix.encode()))


def _v1_header(kind, meta):
    return ["# alignor-record v1", f"# kind: {kind}",
            *(f"# meta.{k} = {_format_value(meta[k])}" for k in sorted(meta))]


def _write_v1_scan(rec, path):
    """Write ``rec`` as format v1 did: the same header under a v1 signature,
    then a text body of repr floats."""
    return write_table(path, _v1_header("scan", rec.meta), SCAN_COLUMNS,
                       [getattr(rec, c) for c in SCAN_COLUMNS])


def _write_v1_demod(rec, path):
    """Write ``rec`` as format v1 did: a text body of repr floats with the
    words ``up`` and ``down`` in the branch column."""
    branch = np.where(rec.branch > 0, "up", "down")
    return write_table(path, _v1_header("demod", rec.meta), DEMOD_COLUMNS,
                       [rec.bx, rec.st, rec.s, rec.t, branch])


@pytest.fixture
def demod_record(scan_record):
    return lockin_demodulate(scan_record)


class TestStrictBody:
    def test_truncated_scan_is_data_error_naming_the_line(self, scan_record,
                                                          tmp_path, capsys):
        f = _write_v1_scan(scan_record, tmp_path / "scan.txt")
        f.write_bytes(f.read_bytes()[:2000])
        lines = f.read_text().splitlines()
        assert len(lines[-1].split()) != 5  # the cut leaves a ragged last row
        assert main(["demod", str(f), "--out", str(tmp_path)]) == 2
        assert f"{f}:{len(lines)}:" in capsys.readouterr().err
        assert not (tmp_path / "demod.txt").exists()

    def test_ragged_body_with_divisible_token_count(self, demod_record, tmp_path):
        # a 3-field row then a 7-field row: 10 tokens, so a reshape to five
        # columns alone would accept the body
        f = _write_v1_demod(demod_record, tmp_path / "dem.txt")
        lines = f.read_text().splitlines()
        n = _line_no(f, "# columns:") + 3
        tokens = (lines[n - 1] + " " + lines[n]).split()
        lines[n - 1:n + 1] = [" ".join(tokens[:3]), " ".join(tokens[3:])]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: bad row {lines[n - 1]!r}")):
            read_record(f)

    def test_body_one_column_short_rejected(self, scan_record, tmp_path):
        # every row has the same four fields, so numpy parses the body
        f = _write_v1_scan(scan_record, tmp_path / "scan.txt")
        lines = f.read_text().splitlines()
        n = _line_no(f, "# columns:") + 1
        lines[n - 1:] = [ln.rsplit(" ", 1)[0] for ln in lines[n - 1:]]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: bad row {lines[n - 1]!r}")):
            read_record(f)

    def test_unknown_branch_rejected(self, demod_record, tmp_path):
        f = _write_v1_demod(demod_record, tmp_path / "dem.txt")
        lines = f.read_text().splitlines()
        n = _line_no(f, "# columns:") + 2
        lines[n - 1] = lines[n - 1].replace(" up", " sideways")
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: bad row {lines[n - 1]!r}")):
            read_record(f)

    def test_swapped_columns_line_rejected(self, scan_record, tmp_path):
        f = write_record(scan_record, tmp_path / "scan.txt")
        n = _line_no(f, "# columns:")
        f.write_bytes(f.read_bytes().replace(b"# columns: t bx_ramp",
                                             b"# columns: bx_ramp t", 1))
        with pytest.raises(ValueError,
                           match=re.escape(f"{f}:{n}: expected '# columns: t bx_ramp")):
            read_record(f)

    def test_points_table_without_signature_is_data_error(self, tmp_path, capsys):
        point = StudyPoint(*[0.25] * 17, fit_converged=True)
        f = tmp_path / "points.txt"
        _write_points_table(StudyConfig("single", (0.25,)), (point,), f)
        assert main(["report", str(tmp_path)]) == 0
        f.write_text(f.read_text().split("\n", 1)[1])
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 2
        assert f"{f}:1: not a study points table" in capsys.readouterr().err

    def test_record_read_as_points_table_names_the_signature(self, scan_record, tmp_path):
        # the header is checked before the columns line and the body
        f = write_record(scan_record, tmp_path / "points.txt")
        with pytest.raises(ValueError, match=re.escape(f"{f}:1: not a study points table")):
            read_points_table(f)

    def test_points_table_bad_seed_names_the_line(self, tmp_path):
        point = StudyPoint(*[0.25] * 17, fit_converged=True)
        f = tmp_path / "points.txt"
        _write_points_table(StudyConfig("single", (0.25,)), (point,), f)
        n = _line_no(f, "# seed:")
        f.write_text(f.read_text().replace("# seed: 0", "# seed: zero"))
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: expected '# seed: <int>'")):
            read_points_table(f)


def _points_table(tmp_path):
    point = StudyPoint(*[0.25] * 17, fit_converged=True)
    f = tmp_path / "points.txt"
    _write_points_table(StudyConfig("single", (0.25,), seed=4), (point,), f)
    return f


class TestStrictPointsHeader:
    @pytest.mark.parametrize("extra", [
        "garbage", "# seed: 5", "# kind: single", "# kind: chi_grid", "#seed: 5",
        "# seed:5", "# note: x"])
    def test_stray_or_repeated_line_is_data_error(self, tmp_path, capsys, extra):
        # a line that is not the one kind line or the one seed line would
        # be dropped on rewrite (or, repeated, win over the first), so it is
        # rejected instead
        f = _points_table(tmp_path)
        assert read_points_table(f)[:2] == ("single", 4)
        n = _line_no(f, "# columns:")
        f.write_text(f.read_text().replace("# columns:", f"{extra}\n# columns:", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}:")):
            read_points_table(f)
        capsys.readouterr()
        assert main(["report", str(tmp_path)]) == 2
        assert f"{f}:{n}:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("# kind: single", "missing '# kind:' line"),
        ("# seed: 4", None)])
    def test_kind_required_seed_optional(self, tmp_path, line, message):
        f = _points_table(tmp_path)
        f.write_text(f.read_text().replace(line + "\n", "", 1))
        if message is None:
            assert read_points_table(f)[:2] == ("single", 0)
        else:
            with pytest.raises(ValueError, match=re.escape(f"{f}:2: {message}")):
                read_points_table(f)

    @pytest.mark.parametrize("seed", ["04", "-0"])
    def test_non_canonical_seed_rejected(self, tmp_path, seed):
        # each would read back as an int that rewrites differently
        f = _points_table(tmp_path)
        n = _line_no(f, "# seed:")
        f.write_text(f.read_text().replace("# seed: 4", f"# seed: {seed}", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: expected '# seed: <int>'")):
            read_points_table(f)

    def test_unknown_kind_names_the_line(self, tmp_path):
        f = _points_table(tmp_path)
        n = _line_no(f, "# kind:")
        f.write_text(f.read_text().replace("# kind: single", "# kind: ring", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: unknown study kind 'ring'")):
            read_points_table(f)


class TestStrictHeader:
    @pytest.mark.parametrize("extra", [
        "garbage line", "# metaX = 1", "#meta.x = 1", "# meta.x =1", "# meta.a0 = 2.0",
        "# kind: scan", "# kind: demod"])
    def test_stray_header_line_is_data_error(self, scan_record, tmp_path, capsys, extra):
        # a line that is not the one kind line or a new meta key would be
        # dropped on rewrite, so it is rejected instead
        f = write_record(scan_record, tmp_path / "scan.txt")
        n = _line_no(f, "# columns:")
        f.write_bytes(f.read_bytes().replace(b"# columns:", extra.encode() + b"\n# columns:", 1))
        assert main(["demod", str(f), "--out", str(tmp_path / "out")]) == 2
        assert f"{f}:{n}:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demod.txt").exists()

    @pytest.mark.parametrize("line", [
        "# meta.a0 = 1.00", "# meta.a0 = +1.0", "# meta.a0 = (1.0)", "# meta.a0 = 1e0",
        "# meta.seed = 0x0", "# meta.seed = 0_0"])
    def test_meta_line_not_written_as_itself_is_data_error(self, scan_record, tmp_path,
                                                           line):
        # each reads as the value written, but a rewrite would change its
        # bytes, so write -> read -> write would not be byte-identical
        rec = replace(scan_record, meta={**scan_record.meta, "seed": 0})
        key, text = line.removeprefix("# meta.").split(" = ")
        assert ast.literal_eval(text) == rec.meta[key]
        f = write_record(rec, tmp_path / "scan.txt")
        n = _line_no(f, f"# meta.{key} =")
        f.write_bytes(f.read_bytes().replace(f"# meta.{key} = {rec.meta[key]!r}\n".encode(),
                                             f"{line}\n".encode(), 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: {line!r}")):
            read_record(f)

    def test_missing_kind_line_rejected(self, scan_record, tmp_path):
        f = write_record(scan_record, tmp_path / "scan.txt")
        f.write_bytes(f.read_bytes().replace(b"# kind: scan\n", b"", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:2: missing '# kind:' line")):
            read_record(f)

    def test_non_utf8_header_names_the_line(self, scan_record, tmp_path):
        f = write_record(scan_record, tmp_path / "scan.txt")
        n = _line_no(f, "# meta.a0 =")
        f.write_bytes(f.read_bytes().replace(b"# meta.a0 =", b"# meta.\xff =", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: not UTF-8")) as err:
            read_record(f)
        assert err.type is ValueError

    def test_v3_demod_signature_rejected(self, demod_record, tmp_path):
        f = write_record(demod_record, tmp_path / "dem.txt")
        assert f.read_bytes().startswith(b"# alignor-record v2\n# kind: demod\n")
        f.write_bytes(f.read_bytes().replace(b"v2", b"v3", 1))
        with pytest.raises(ValueError,
                           match=re.escape(f"{f}:1: unsupported record format version 3")):
            read_record(f)


class TestBinaryBody:
    def test_layout(self, scan_record, tmp_path):
        f = write_record(scan_record, tmp_path / "scan.txt")
        body = np.concatenate([getattr(scan_record, c) for c in SCAN_COLUMNS])
        tail = (f"# columns: {' '.join(SCAN_COLUMNS)}\n"
                f"# body: f8-le {len(scan_record.t)}\n").encode() + body.astype("<f8").tobytes()
        data = f.read_bytes()
        assert data.startswith(b"# alignor-record v2\n# kind: scan\n# meta.")
        assert data.endswith(tail)
        assert data.count(b"\n# body: ") == 1

    def test_columns_writable_and_contiguous(self, scan_record, tmp_path):
        back = read_record(write_record(scan_record, tmp_path / "scan.txt"))
        for name in SCAN_COLUMNS:
            col = getattr(back, name)
            assert col.flags.writeable and col.flags.c_contiguous
            col[0] += 1.0

    @pytest.mark.parametrize("cut", [1, 8, 4000])
    def test_truncated_body_is_data_error_naming_the_offset(self, scan_record, tmp_path,
                                                             capsys, cut):
        f = write_record(scan_record, tmp_path / "scan.txt")
        f.write_bytes(f.read_bytes()[:-cut])
        assert main(["demod", str(f), "--out", str(tmp_path / "out")]) == 2
        assert f"{f}: byte {f.stat().st_size}:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demod.txt").exists()

    @pytest.mark.parametrize("extra", [b"\n", b"\0" * 40])
    def test_over_long_body_is_data_error_naming_the_offset(self, scan_record, tmp_path,
                                                             capsys, extra):
        f = write_record(scan_record, tmp_path / "scan.txt")
        end = f.stat().st_size
        f.write_bytes(f.read_bytes() + extra)
        assert main(["demod", str(f), "--out", str(tmp_path / "out")]) == 2
        assert f"{f}: byte {end}:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demod.txt").exists()

    @pytest.mark.parametrize("rows", ["-1601", "1601.0", "1e3", "0x641", "01601", "", "many"])
    def test_bad_row_count_is_data_error_naming_the_offset(self, scan_record, tmp_path,
                                                           capsys, rows):
        f = write_record(scan_record, tmp_path / "scan.txt")
        data = f.read_bytes()
        at = data.index(b"\n# body: ") + 1
        bad = data.replace(f"# body: f8-le {len(scan_record.t)}\n".encode(),
                           f"# body: f8-le {rows}\n".encode(), 1)
        assert bad != data
        f.write_bytes(bad)
        assert main(["demod", str(f), "--out", str(tmp_path / "out")]) == 2
        assert f"{f}: byte {at}:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "demod.txt").exists()

    def test_v1_signature_on_binary_body_rejected(self, scan_record, tmp_path):
        f = write_record(scan_record, tmp_path / "scan.txt")
        f.write_bytes(f.read_bytes().replace(b"v2", b"v1", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}:")):
            read_record(f)

    def test_v2_signature_on_text_body_rejected(self, scan_record, tmp_path):
        f = _write_v1_scan(scan_record, tmp_path / "scan.txt")
        f.write_bytes(f.read_bytes().replace(b"v1", b"v2", 1))
        with pytest.raises(ValueError, match=re.escape(f"{f}: byte ")):
            read_record(f)

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.5, 2.0, -1.5, math.nan, math.inf])
    def test_bad_branch_is_data_error_naming_the_offset(self, demod_record, tmp_path,
                                                        capsys, value):
        # the branch column is the last len(branch) cells of the file; of
        # two bad cells, an up one and the last (down) one, the first is named
        f = write_record(demod_record, tmp_path / "dem.txt")
        data = bytearray(f.read_bytes())
        rows = len(demod_record.branch)
        at = len(data) - 8 * (rows - 7)
        assert data[at:at + 8] == np.array(1.0, "<f8").tobytes()
        assert data[-8:] == np.array(-1.0, "<f8").tobytes()
        data[at:at + 8] = data[-8:] = np.array(value, "<f8").tobytes()
        f.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=re.escape(f"{f}: byte {at}: branch {value!r}")):
            read_record(f)
        assert main(["fit", str(f)]) == 2
        assert f"{f}: byte {at}:" in capsys.readouterr().err

    def test_v1_demod_reads_and_rewrites_as_v2(self, demod_record, tmp_path):
        f = _write_v1_demod(demod_record, tmp_path / "dem.txt")
        assert f.read_text().startswith("# alignor-record v1\n# kind: demod\n")
        back = read_record(f)
        assert back.meta == demod_record.meta
        for name in ("bx", "st", "s", "t", "branch"):
            assert getattr(back, name).tobytes() == getattr(demod_record, name).tobytes()
        assert write_record(back, tmp_path / "v2.txt").read_bytes() == \
            write_record(demod_record, tmp_path / "ref.txt").read_bytes()

    def test_v1_scan_reads_and_replays(self, scan_record, tmp_path):
        f = _write_v1_scan(scan_record, tmp_path / "scan.txt")
        assert f.read_text().startswith("# alignor-record v1\n# kind: scan\n")
        back = read_record(f)
        assert back.meta == scan_record.meta
        replay = synthesize_from_meta(back.meta)
        for name in SCAN_COLUMNS:
            assert getattr(back, name).tobytes() == getattr(scan_record, name).tobytes()
            assert getattr(replay, name).tobytes() == getattr(scan_record, name).tobytes()
        # rewriting a v1 scan gives the v2 file of the same record
        assert write_record(back, tmp_path / "v2.txt").read_bytes() == \
            write_record(scan_record, tmp_path / "ref.txt").read_bytes()


class TestConfig:
    def test_parse_types(self):
        cfg = parse_config(
            "# comment\n"
            "instrument.mod_freq = 5.0\n"
            "ramp.direction_pattern = 'triangle'\n"
            "study.kind = chi_grid\n"
            "study.grid = 0.05, 0.1, 0.25\n"
            "instrument.seed = 42\n"
            "ramp.hold_on_zero = True\n")
        assert cfg["instrument.mod_freq"] == 5.0
        assert cfg["ramp.direction_pattern"] == "triangle"
        assert cfg["study.kind"] == "chi_grid"
        assert cfg["study.grid"] == [0.05, 0.1, 0.25]
        assert cfg["instrument.seed"] == 42
        assert cfg["ramp.hold_on_zero"] is True

    def test_quoted_commas_stay_in_one_value(self):
        cfg = parse_config('a.b = "x,y"\n'
                           "a.c = 'p,q', bare, 2\n"
                           "a.d = one, two\n")
        assert cfg["a.b"] == "x,y"
        assert cfg["a.c"] == ["p,q", "bare", 2]
        assert cfg["a.d"] == ["one", "two"]

    def test_bad_lines(self):
        with pytest.raises(ValueError):
            parse_config("no equals sign here")
        with pytest.raises(ValueError):
            parse_config("= orphan value")

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
    lockin_demodulate,
    synthesize_from_meta,
    synthesize_record,
)
from alignor.recordio import (
    dump_config,
    load_config,
    parse_config,
    read_record,
    write_record,
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
        assert back.s_up.tobytes() == dem.s_up.tobytes()
        assert back.bx_down.tobytes() == dem.bx_down.tobytes()
        assert back.meta == dem.meta
        f2 = tmp_path / "dem2.txt"
        write_record(back, f2)
        assert f.read_bytes() == f2.read_bytes()

    def test_unknown_version_rejected(self, scan_record, tmp_path):
        f = tmp_path / "rec.txt"
        write_record(scan_record, f)
        text = f.read_text().replace("v1", "v9", 1)
        f.write_text(text)
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
        f.write_text(f.read_text().replace("# alignor-record v1", signature, 1))
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

    def test_record_with_back_action_replays(self, scan_record, tmp_path):
        # records from before CouplingParams.back_action was removed carry
        # it in their meta; latch-mode synthesis never read it
        f = write_record(replace(scan_record, meta={**scan_record.meta,
                                                    "back_action": 0.0}),
                         tmp_path / "rec.txt")
        assert "# meta.back_action = 0.0\n" in f.read_text()
        replay = synthesize_from_meta(read_record(f).meta)
        for name in ("t", "bx_ramp", "st_raw", "sb_raw", "direction"):
            assert getattr(replay, name).tobytes() == getattr(scan_record, name).tobytes()
        assert replay.meta == scan_record.meta


def _line_no(path, prefix):
    """1-based number of the first line of ``path`` that starts with ``prefix``."""
    lines = path.read_text().splitlines()
    return next(n for n, ln in enumerate(lines, start=1) if ln.startswith(prefix))


class TestStrictBody:
    def test_truncated_scan_is_data_error_naming_the_line(self, scan_record,
                                                          tmp_path, capsys):
        f = write_record(scan_record, tmp_path / "scan.txt")
        f.write_bytes(f.read_bytes()[:2000])
        lines = f.read_text().splitlines()
        assert len(lines[-1].split()) != 5  # the cut leaves a ragged last row
        assert main(["demod", str(f), "--out", str(tmp_path)]) == 2
        assert f"{f}:{len(lines)}:" in capsys.readouterr().err
        assert not (tmp_path / "demod.txt").exists()

    def test_ragged_body_with_divisible_token_count(self, scan_record, tmp_path):
        # a 3-field row then a 7-field row: 10 tokens, so a reshape to five
        # columns alone would accept the body
        f = write_record(scan_record, tmp_path / "scan.txt")
        lines = f.read_text().splitlines()
        n = _line_no(f, "# columns:") + 3
        tokens = (lines[n - 1] + " " + lines[n]).split()
        lines[n - 1:n + 1] = [" ".join(tokens[:3]), " ".join(tokens[3:])]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: bad row {lines[n - 1]!r}")):
            read_record(f)

    def test_body_one_column_short_rejected(self, scan_record, tmp_path):
        # every row has the same four fields, so numpy parses the body
        f = write_record(scan_record, tmp_path / "scan.txt")
        lines = f.read_text().splitlines()
        n = _line_no(f, "# columns:") + 1
        lines[n - 1:] = [ln.rsplit(" ", 1)[0] for ln in lines[n - 1:]]
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: bad row {lines[n - 1]!r}")):
            read_record(f)

    def test_unknown_branch_rejected(self, scan_record, tmp_path):
        f = write_record(lockin_demodulate(scan_record), tmp_path / "dem.txt")
        lines = f.read_text().splitlines()
        n = _line_no(f, "# columns:") + 2
        lines[n - 1] = lines[n - 1].replace(" up", " sideways")
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{f}:{n}: bad row {lines[n - 1]!r}")):
            read_record(f)

    def test_swapped_columns_line_rejected(self, scan_record, tmp_path):
        f = write_record(scan_record, tmp_path / "scan.txt")
        n = _line_no(f, "# columns:")
        f.write_text(f.read_text().replace("# columns: t bx_ramp",
                                           "# columns: bx_ramp t"))
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

    def test_round_trip(self, tmp_path):
        cfg = {"a.b": 1.5, "a.c": "text", "d.grid": [1.0, 2.0], "e": None}
        f = dump_config(cfg, tmp_path / "c.cfg")
        assert load_config(f) == cfg

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

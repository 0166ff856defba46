import argparse
import json
import math
import os
from pathlib import Path
import resource
import subprocess
import sys

import numpy as np
import pytest

from alignor.cli import build_parser, main
from alignor.recordio import read_record, write_record, write_table
from alignor.study import POINT_COLUMNS
from records import rows_of, take_rows, with_value

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_CONFIG = """\
ramp.bx_start = -12.0
ramp.bx_end = 12.0
ramp.rate = 2.0
instrument.sample_rate = 400.0
instrument.noise_rms = 0.001
"""


def small_config_with(line):
    """SMALL_CONFIG with ``line`` in place of its own line for that key, if
    it has one: a config key given twice is a data error."""
    key = line.partition("=")[0].strip()
    kept = [ln for ln in SMALL_CONFIG.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json_constant(name):
    """json.loads's parse_constant: NaN and Infinity are not JSON."""
    raise ValueError(f"bare {name} in JSON output")


def csv_values(text):
    rows = [ln.split(",") for ln in text.strip().splitlines()[1:]]
    return {name: value for name, value, _ in rows}


class TestEstimate:
    def test_broadening_reference_budget(self, capsys):
        code, out, _ = run(capsys, "estimate", "broadening", "--p-in", "2")
        assert code == 0
        assert float(csv_values(out)["broadening_rate"]) == pytest.approx(
            3.98, abs=0.02)

    def test_dipole_json(self, capsys):
        code, out, _ = run(capsys, "estimate", "dipole", "--n", "5e11",
                           "--l-mm", "1", "--format", "json")
        assert code == 0
        val = json.loads(out)["dipole_field"]
        assert val["unit"] == "nT"
        assert 0.85 <= val["value"] <= 1.0

    def test_volume_and_density(self, capsys):
        code, out, _ = run(capsys, "estimate", "volume", "--n", "5e11")
        assert code == 0
        vals = csv_values(out)
        assert float(vals["volume"]) == pytest.approx(2.5, abs=0.05)
        assert float(vals["cube_side"]) == pytest.approx(1.36, abs=0.03)
        code, out, _ = run(capsys, "estimate", "density", "--temp-c", "145")
        assert code == 0
        assert float(csv_values(out)["number_density"]) == pytest.approx(
            1.8e14, rel=0.15)

    def test_out_of_range_temperature_is_data_error(self, capsys):
        code, _, err = run(capsys, "estimate", "density", "--temp-c", "300")
        assert code == 2
        assert "error" in err


    def test_nonpositive_atom_count_is_data_error(self, capsys):
        for fmt in ("csv", "json"):
            code, out, err = run(capsys, "estimate", "volume", "--n", "-1",
                                 "--format", fmt)
            assert code == 2
            assert out == ""
            assert "n_atoms" in err

    def test_nonfinite_estimate_is_data_error(self, capsys):
        code, out, err = run(capsys, "estimate", "dipole", "--n", "nan", "--l-mm", "1")
        assert code == 2
        assert out == ""
        assert "estimate produced a non-finite value" in err

    def test_negative_pump_power_is_data_error(self, capsys):
        code, out, err = run(capsys, "estimate", "broadening", "--p-in", "-3")
        assert code == 2
        assert out == ""
        assert "p_in" in err


class TestUsageErrors:
    # the shared options each command takes: only those its handler reads
    COMMON = {"simulate": ["--seed", "--config", "--out"], "demod": ["--out"],
              "fit": ["--format"], "study": ["--seed", "--config", "--out"],
              "report": [], "estimate broadening": ["--format"],
              "estimate dipole": ["--format"], "estimate volume": ["--format"],
              "estimate density": ["--format"]}

    def test_common_options_per_command(self):
        def leaves(parser, name):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs and name:
                yield name, [f for a in parser._actions for f in a.option_strings
                             if f in ("--seed", "--config", "--out", "--format")]
            for a in subs:
                for sub_name, sub in a.choices.items():
                    yield from leaves(sub, f"{name} {sub_name}".strip())

        assert dict(leaves(build_parser(), "")) == self.COMMON

    @pytest.mark.parametrize("argv", [
        ["fit", "demod.txt", "--seed", "1"],
        ["report", "study1", "--out", "x"],
        ["demod", "scan.txt", "--config", "sim.cfg"],
        ["estimate", "--format", "json", "density", "--temp-c", "145"],
    ])
    def test_option_the_command_does_not_read_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage" in err

    def test_missing_required_argument(self, capsys):
        code, _, err = run(capsys, "estimate", "dipole")
        assert code == 1
        assert "usage" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "estimate", "broadening", "--p-in", "abc")
        assert code == 1
        assert "usage" in err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> demod once; several tests reuse the files."""
    out = tmp_path_factory.mktemp("cli_pipeline")
    cfg = out / "sim.cfg"
    cfg.write_text(SMALL_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--seed", "7",
                 "--out", str(out)]) == 0
    assert main(["demod", str(out / "scan.txt"), "--lpf-cutoff", "2.0",
                 "--out", str(out)]) == 0
    return out


class TestPipeline:
    def test_records_written(self, pipeline):
        assert (pipeline / "scan.txt").exists()
        assert (pipeline / "demod.txt").exists()

    def test_simulate_is_seed_deterministic(self, pipeline, tmp_path):
        cfg = pipeline / "sim.cfg"
        assert main(["simulate", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "scan.txt").read_bytes() == \
            (pipeline / "scan.txt").read_bytes()

    def test_fit_outputs_parameters(self, pipeline, capsys):
        code, out, _ = run(capsys, "fit", str(pipeline / "demod.txt"))
        vals = csv_values(out)
        assert {"a_anti", "w_anti", "a_sym", "w_sym", "center",
                "hysteresis_h", "offset", "converged"} <= set(vals)
        if vals["converged"] == "True":
            assert code == 0
            assert float(vals["w_anti"]) > 0
        else:
            assert code == 3  # partial output still printed above

    def test_fit_units(self, pipeline, capsys):
        # the widths, center and hysteresis are fields; amplitudes and the
        # offset are in signal units
        fields = {"w_anti", "w_sym", "center", "hysteresis_h"}
        _, out, _ = run(capsys, "fit", str(pipeline / "demod.txt"), "--format", "json")
        units = {name: v["unit"] for name, v in json.loads(out).items()}
        assert {name for name, unit in units.items() if unit == "nT"} == fields
        assert set(units.values()) == {"", "nT"}
        _, out, _ = run(capsys, "fit", str(pipeline / "demod.txt"))
        assert {row.split(",")[0] for row in out.splitlines()[1:] if row.endswith(",nT")} == fields

    def test_fit_prints_each_warning_to_stderr(self, pipeline, tmp_path, capsys):
        rec = read_record(pipeline / "demod.txt")
        path = write_record(take_rows(rec, rows_of(rec, +1)), tmp_path / "demod.txt")
        code, out, err = run(capsys, "fit", str(path))
        assert "warning: single branch: hysteresis fixed at 0" in err.splitlines()
        assert all(line.startswith("warning: ") for line in err.splitlines())
        assert csv_values(out)["hysteresis_h"] == "0"
        assert code == (0 if csv_values(out)["converged"] == "True" else 3)

    def test_single_branch_fit_warns_once(self, tmp_path, capsys):
        # the seed-3 loop record cut to its up rows: hysteresis_h is fixed,
        # not unidentified, so stderr is the one single-branch warning
        run(capsys, "simulate", "--seed", "3", "--out", str(tmp_path))
        run(capsys, "demod", str(tmp_path / "scan.txt"), "--out", str(tmp_path))
        rec = read_record(tmp_path / "demod.txt")
        path = write_record(take_rows(rec, rows_of(rec, +1)), tmp_path / "up.txt")
        code, out, err = run(capsys, "fit", str(path))
        assert code == 0
        assert err == "warning: single branch: hysteresis fixed at 0\n"
        rows = [ln.split(",") for ln in out.splitlines()]
        expected = [("a_anti", 0.0596501, ""), ("w_anti", 9.49709, "nT"),
                    ("a_sym", 0.0313593, ""), ("w_sym", 3.24375, "nT"),
                    ("center", 3.65792, "nT"), ("hysteresis_h", 0.0, "nT"),
                    ("offset", -0.00152351, ""), ("residual_rms", 0.0024373, "")]
        assert rows[0] == ["quantity", "value", "unit"]
        assert [(n, u) for n, _, u in rows[1:]] == [(n, u) for n, _, u in expected] + [
            ("converged", "")]
        assert [float(v) for _, v, _ in rows[1:-1]] == pytest.approx(
            [v for _, v, _ in expected], rel=1e-5)
        assert rows[-1][1] == "True"

    def test_fit_rejects_scan_record(self, pipeline, capsys):
        code, _, err = run(capsys, "fit", str(pipeline / "scan.txt"))
        assert code == 2
        assert "demodulated" in err

    def test_demod_rejects_demod_record(self, pipeline, capsys):
        code, _, err = run(capsys, "demod", str(pipeline / "demod.txt"))
        assert code == 2

    @pytest.mark.parametrize("bad", ["# meta.a0 = 1 2", "# meta.a0"])
    def test_malformed_meta_line_is_data_error(self, pipeline, tmp_path,
                                               capsys, bad):
        # edit the text header of the scan record; its body is binary
        head, body = (pipeline / "scan.txt").read_bytes().split(b"\n# body: ", 1)
        lines = head.decode().splitlines()
        n = next(i for i, ln in enumerate(lines, start=1)
                 if ln.startswith("# meta.a0 ="))
        lines[n - 1] = bad
        f = tmp_path / "scan.txt"
        f.write_bytes(("\n".join(lines) + "\n# body: ").encode() + body)
        code, _, err = run(capsys, "demod", str(f), "--out", str(tmp_path))
        assert code == 2
        assert f"{f}:{n}:" in err

    def test_integer_too_large_for_a_float_is_data_error(self, pipeline, tmp_path,
                                                          capsys):
        # a 401-digit integer literal is valid config and meta syntax; it
        # overflows where it is first used as a float
        huge = "1" + "0" * 400
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(small_config_with(f"ramp.rate = {huge}"))
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 2
        assert "too large" in err
        assert not (tmp_path / "scan.txt").exists()
        head, body = (pipeline / "scan.txt").read_bytes().split(b"\n# body: ", 1)
        lines = [f"# meta.sample_rate = {huge}" if ln.startswith("# meta.sample_rate =")
                 else ln for ln in head.decode().splitlines()]
        f = tmp_path / "scan.txt"
        f.write_bytes(("\n".join(lines) + "\n# body: ").encode() + body)
        code, _, err = run(capsys, "demod", str(f), "--out", str(tmp_path))
        assert code == 2
        assert "too large" in err
        assert not (tmp_path / "demod.txt").exists()

    @pytest.mark.parametrize("flag, value", [("--phase-deg", "nan"),
                                             ("--phase-deg", "inf"),
                                             ("--gain", "inf"), ("--gain", "nan")])
    def test_demod_rejects_nonfinite_phase_or_gain(self, pipeline, tmp_path,
                                                   capsys, flag, value):
        code, _, err = run(capsys, "demod", str(pipeline / "scan.txt"),
                           flag, value, "--out", str(tmp_path))
        assert code == 2
        assert "finite" in err
        assert not (tmp_path / "demod.txt").exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
    def test_demod_rejects_mod_freq_out_of_range(self, pipeline, tmp_path, capsys, value):
        # each used to demodulate into a record whose s is all NaN, exit 0
        head, body = (pipeline / "scan.txt").read_bytes().split(b"\n# body: ", 1)
        lines = [f"# meta.mod_freq = {float(value)!r}" if ln.startswith("# meta.mod_freq =")
                 else ln for ln in head.decode().splitlines()]
        f = tmp_path / "scan.txt"
        f.write_bytes(("\n".join(lines) + "\n# body: ").encode() + body)
        code, _, err = run(capsys, "demod", str(f), "--out", str(tmp_path))
        assert code == 2
        assert "mod_freq" in err
        assert not (tmp_path / "demod.txt").exists()

    @pytest.mark.parametrize("value", ["1e308", "inf"])
    def test_demod_rejects_sample_rate_overflow(self, pipeline, tmp_path, capsys, value):
        # 2 * sample_rate overflows: the filter's prewarp was inf * tan(0),
        # a NaN that failed as "cannot convert float NaN to integer"
        head, body = (pipeline / "scan.txt").read_bytes().split(b"\n# body: ", 1)
        lines = [f"# meta.sample_rate = {float(value)!r}" if ln.startswith("# meta.sample_rate =")
                 else ln for ln in head.decode().splitlines()]
        f = tmp_path / "scan.txt"
        f.write_bytes(("\n".join(lines) + "\n# body: ").encode() + body)
        code, _, err = run(capsys, "demod", str(f), "--out", str(tmp_path))
        assert code == 2
        assert "sample_rate" in err
        assert not (tmp_path / "demod.txt").exists()

    @pytest.mark.parametrize("transition", [False, True])
    def test_fit_one_row_down_branch_is_data_error(self, pipeline, tmp_path,
                                                   capsys, transition):
        rec = read_record(pipeline / "demod.txt")
        short = take_rows(rec, np.concatenate([rows_of(rec, +1)[:20], rows_of(rec, -1)[:1]]))
        path = write_record(short, tmp_path / "demod.txt")
        argv = ["fit", str(path)] + (["--transition"] if transition else [])
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "down branch has 1 row" in err

    @pytest.mark.parametrize("transition", [False, True])
    def test_fit_nonfinite_bx_is_data_error(self, pipeline, tmp_path, capfd, transition):
        # stopped before LAPACK: no "Eigenvalues did not converge" from eigh
        # and no OpenBLAS "DLASCL" complaint on the process's stderr
        rec = read_record(pipeline / "demod.txt")
        broken = with_value(rec, "bx", rows_of(rec, -1)[5], np.nan)
        path = write_record(broken, tmp_path / "demod.txt")
        argv = ["fit", str(path)] + (["--transition"] if transition else [])
        code = main(argv)
        out, err = capfd.readouterr()
        assert code == 2
        assert out == ""
        assert "down branch has a non-finite bx" in err
        assert "Eigenvalues" not in err and "DLASCL" not in err

    def test_fit_one_row_scan_is_data_error(self, tmp_path, capsys):
        # a ramp narrower than one decimated sample leaves a 1-row up branch
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("ramp.bx_start = -0.01\nramp.bx_end = 0.01\n")
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))[0] == 0
        assert run(capsys, "demod", str(tmp_path / "scan.txt"), "--out", str(tmp_path))[0] == 0
        for extra in ([], ["--transition"]):
            code, out, err = run(capsys, "fit", str(tmp_path / "demod.txt"), *extra)
            assert code == 2
            assert out == ""
            assert "up branch has 1 row" in err

    @pytest.mark.parametrize("cutoff", ["1e-20", "1e-320"])
    def test_demod_tiny_cutoff_keeps_one_row(self, pipeline, tmp_path, capsys, cutoff):
        # the decimation step passed 2**63 (an IndexError from np.arange) or
        # was infinite; clamped to the record, it keeps the first sample
        code, _, err = run(capsys, "demod", str(pipeline / "scan.txt"), "--lpf-cutoff", cutoff,
                           "--out", str(tmp_path))
        assert code == 0, err
        assert read_record(tmp_path / "demod.txt").bx.size == 1
        for extra in ([], ["--transition"]):
            code, out, err = run(capsys, "fit", str(tmp_path / "demod.txt"), *extra)
            assert code == 2
            assert out == ""
            assert "up branch has 1 row" in err

    def test_down_sweep_fits_as_one_branch(self, tmp_path, capsys):
        # a down sweep holds only down rows; it fits as that one branch
        cfg = tmp_path / "down.cfg"
        cfg.write_text("ramp.direction_pattern = 'down'\n")
        assert run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path))[0] == 0
        assert run(capsys, "demod", str(tmp_path / "scan.txt"), "--lpf-cutoff", "2.0",
                   "--out", str(tmp_path))[0] == 0
        assert set(read_record(tmp_path / "demod.txt").branch) == {-1.0}
        code, out, err = run(capsys, "fit", "--transition", "--format", "json",
                             str(tmp_path / "demod.txt"))
        assert code == 0, err
        assert err == "warning: single branch: hysteresis fixed at 0\n"
        # strict JSON: the up branch's missing fields are null, never a bare NaN
        vals = {name: v["value"] for name, v in
                json.loads(out, parse_constant=strict_json_constant).items()}
        assert vals["converged"] is True and vals["hysteresis_h"] == 0.0
        assert vals["bx_up"] is None and vals["loop_hysteresis"] is None
        assert math.isfinite(vals["bx_down"])

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "fit", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_simulate_rejects_ramp_sample_rate(self, tmp_path, capsys):
        # the scan is sampled at instrument.sample_rate; the ramp has no
        # sample rate, so the key names no field
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_CONFIG + "ramp.sample_rate = 50.0\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 2
        assert "unknown ramp field 'sample_rate'" in err
        assert not (tmp_path / "scan.txt").exists()

    @pytest.mark.parametrize("line, field", [
        ("ramp.bx_end = inf", "bx_end"),
        ("ramp.static_by = -inf", "static_by"),
        ("coupling.my0 = nan", "my0"),
        ("coupling.tau_flip = inf", "tau_flip"),
        ("physics.relax_rate = inf", "relax_rate"),
        ("instrument.mod_freq = nan", "mod_freq"),
        ("instrument.noise_rms = nan", "noise_rms"),
        ("mix.c_al = nan", "c_al"),
    ])
    def test_simulate_rejects_nonfinite_setting(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(small_config_with(line))
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert f"{field} must be finite" in err
        assert not (tmp_path / "scan.txt").exists()

    @pytest.mark.parametrize("line, message", [
        ("ramp.hold_time = -1", "hold_time must be >= 0"),
        ("physics.gamma_over_2pi = 0", "gamma_over_2pi must be > 0"),
        ("physics.relax_ratio_alignment = 0", "relax_ratio_alignment must be > 0"),
    ])
    def test_simulate_rejects_out_of_range_setting(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(small_config_with(line))
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert message in err
        assert not (tmp_path / "scan.txt").exists()

    def test_duplicate_config_key_is_data_error(self, tmp_path, capsys):
        # SMALL_CONFIG sets ramp.rate on its line 3
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_CONFIG + "ramp.rate = 50\n")
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert "config line 6: duplicate key 'ramp.rate' (first on line 3)" in err
        assert not (tmp_path / "scan.txt").exists()

    @pytest.mark.parametrize("value, message", [
        ("3.7", "seed must be an integer, got 3.7"),
        ("3.0", "seed must be an integer, got 3.0"),
        ("True", "seed must be an integer, got True"),
        ("-1", "seed must be >= 0"),
    ])
    def test_simulate_rejects_bad_seed(self, tmp_path, capsys, value, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_CONFIG + f"instrument.seed = {value}\n")
        code, out, err = run(capsys, "simulate", "--config", str(cfg),
                             "--out", str(tmp_path / "run"))
        assert code == 2
        assert out == ""
        assert message in err
        assert not (tmp_path / "run").exists()

    def test_simulate_rejects_unbounded_scan(self, tmp_path):
        # a finite but huge ramp: the scan length overflows to inf samples
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("ramp.bx_end = 1e308\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "alignor.cli", "simulate",
                               "--config", str(cfg), "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "inf samples" in proc.stderr
        assert not (tmp_path / "scan.txt").exists()

    @pytest.mark.parametrize("line, message", [
        # the orientation is pumped along the light axis z, a fixed axis
        ("physics.pump_axis = 1.0, 0.0, 0.0", "unknown physics field 'pump_axis'"),
        ("instrument.ramp = 1.0", "unknown instrument field 'ramp'"),
        ("phyiscs.relax_rate = 90.0", "phyiscs.relax_rate"),
        ("study.kind = 'single'", "study.kind"),
    ])
    def test_simulate_rejects_setting_it_would_not_read(self, tmp_path, capsys,
                                                        line, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SMALL_CONFIG + line + "\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 2
        assert message in err
        assert not (tmp_path / "scan.txt").exists()

    def test_env_var_overrides_output_base(self, pipeline, tmp_path,
                                           monkeypatch, capsys):
        monkeypatch.setenv("ALIGNOR_OUT", str(tmp_path))
        cfg = pipeline / "sim.cfg"
        code, out, _ = run(capsys, "simulate", "--config", str(cfg),
                           "--out", "nested")
        assert code == 0
        assert (tmp_path / "nested" / "scan.txt").exists()


class TestStudyAndReport:
    def test_single_study_then_report(self, tmp_path, capsys):
        out = tmp_path / "study"
        code, text, _ = run(capsys, "study", "--kind", "single",
                            "--seed", "2", "--out", str(out))
        assert code == 0
        assert "1 points" in text
        assert (out / "points.txt").exists()
        (out / "trends.txt").unlink(missing_ok=True)
        code, text, _ = run(capsys, "report", str(out))
        assert code == 0
        assert (out / "trends.txt").exists()

    @pytest.mark.parametrize("line, message", [
        ("study.grids = 0.25", "study field 'grids'"),
        ("ramp.rate = 2.0", "ramp.rate"),
        ("preset.pump_axis = 1.0", "unknown preset field 'pump_axis'"),
    ])
    def test_study_rejects_setting_it_would_not_read(self, tmp_path, capsys,
                                                     line, message):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run(capsys, "study", "--config", str(cfg),
                           "--out", str(tmp_path / "study"))
        assert code == 2
        assert message in err
        assert not (tmp_path / "study").exists()

    @pytest.mark.parametrize("value", ["True", "0.1, foo"])
    def test_study_rejects_grid_value_that_is_not_a_number(self, tmp_path, capsys, value):
        # True used to run as x = 1.0; a bare word, a message naming no setting
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"study.grid = {value}\n")
        code, out, err = run(capsys, "study", "--config", str(cfg),
                             "--out", str(tmp_path / "study"))
        assert code == 2
        assert out == ""
        assert "grid values must be finite real numbers" in err
        assert not (tmp_path / "study").exists()

    @pytest.mark.parametrize("value", ["3.7", "True"])
    def test_study_rejects_noninteger_seed(self, tmp_path, capsys, value):
        # a float seed used to be truncated and a bool run as seed 1
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"study.seed = {value}\n")
        code, out, err = run(capsys, "study", "--config", str(cfg),
                             "--out", str(tmp_path / "study"))
        assert code == 2
        assert out == ""
        assert f"seed must be an integer, got {value}" in err
        assert not (tmp_path / "study").exists()

    @pytest.mark.parametrize("key", ["serf_width_nt", "latch_threshold"])
    def test_study_rejects_preset_divisor_of_zero(self, tmp_path, capsys, key):
        # the preset's coupling divides by both, so a zero is a config error
        cfg = tmp_path / "study.cfg"
        cfg.write_text(f"preset.{key} = 0.0\n")
        code, out, err = run(capsys, "study", "--kind", "single", "--config", str(cfg),
                             "--out", str(tmp_path / "study"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"{key} must be > 0, got 0.0" in err
        assert not (tmp_path / "study").exists()

    def test_study_data_error_leaves_no_directory(self, tmp_path, capsys):
        # the scan length is refused while measuring the first point, before
        # anything is written
        cfg = tmp_path / "study.cfg"
        cfg.write_text("study.kind = 'chi_grid'\npreset.sample_rate = 1e12\n")
        code, _, err = run(capsys, "study", "--config", str(cfg),
                           "--out", str(tmp_path / "study"))
        assert code == 2
        assert "samples" in err
        assert not (tmp_path / "study").exists()

    @pytest.mark.parametrize("kind, xs", [
        ("single", []),
        ("chi_grid", [0.25, 0.25]),
        ("chi_grid", [0.25, float("nan")]),
    ])
    def test_report_rejects_invalid_table_before_writing(self, tmp_path, capsys,
                                                         kind, xs):
        columns = np.ones((len(POINT_COLUMNS), len(xs)))
        columns[0] = xs
        write_table(tmp_path / "points.txt",
                    ["# alignor-study points", f"# kind: {kind}", "# seed: 0"],
                    POINT_COLUMNS, columns)
        before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
        code, out, err = run(capsys, "report", str(tmp_path))
        assert code == 2
        assert out == "" and "grid" in err
        assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("cell", [0.5, math.nan, math.inf, 2.0, -1.0])
    def test_report_rejects_fit_converged_other_than_zero_or_one(self, tmp_path, capsys,
                                                                 cell):
        # each used to read as True and be rewritten as 1.0
        columns = np.full((len(POINT_COLUMNS), 1), 0.25)
        columns[POINT_COLUMNS.index("fit_converged")] = cell
        f = write_table(tmp_path / "points.txt",
                        ["# alignor-study points", "# kind: single", "# seed: 0"],
                        POINT_COLUMNS, columns)
        code, out, err = run(capsys, "report", str(tmp_path))
        assert code == 2
        assert out == "" and f"{f}:5: bad row" in err
        assert [p.name for p in tmp_path.iterdir()] == ["points.txt"]

    def test_report_on_flat_trends_ends(self, tmp_path):
        # every quantity 0.25: a flat linear trend's curve spans about 1e-16,
        # and an axis tick loop that adds its step to a running value never
        # passed the end of that span; the address-space cap turns such a
        # loop into a MemoryError instead of filling the machine's memory
        columns = np.full((len(POINT_COLUMNS), 3), 0.25)
        columns[0] = [0.1, 0.25, 0.4]
        columns[POINT_COLUMNS.index("fit_converged")] = 1.0
        write_table(tmp_path / "points.txt",
                    ["# alignor-study points", "# kind: chi_grid", "# seed: 0"],
                    POINT_COLUMNS, columns)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "alignor.cli", "report", str(tmp_path)], env=env,
            capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "trends.txt").exists()

    def test_report_axis_span_overflow_is_data_error(self, tmp_path, capsys):
        # w_anti spans 3e308: the trend figure's y axis has no finite span
        columns = np.full((len(POINT_COLUMNS), 3), 0.25)
        columns[0] = [0.1, 0.25, 0.4]
        columns[POINT_COLUMNS.index("fit_converged")] = 1.0
        columns[POINT_COLUMNS.index("w_anti")] = [-1.5e308, 1.5e308, 0.0]
        write_table(tmp_path / "points.txt",
                    ["# alignor-study points", "# kind: chi_grid", "# seed: 0"],
                    POINT_COLUMNS, columns)
        code, out, err = run(capsys, "report", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'trend_w_anti_linear.svg'}: "
                              "the y axis (w_anti) spans ")

    def test_report_on_empty_dir_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "report", str(tmp_path))
        assert code == 2

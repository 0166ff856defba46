from dataclasses import fields
import math
from pathlib import Path

import numpy as np
import pytest

from alignor.fitkit import composite_eval, fit_record
from alignor.recordio import read_record
from alignor.study import (
    DEFAULT_GRIDS,
    POINT_COLUMNS,
    StudyConfig,
    StudyPoint,
    StudyPreset,
    measure_point,
    read_points_table,
    report,
    run_study,
    study_config_from_dict,
)
from records import branch_record

PRESET = StudyPreset()


@pytest.fixture(scope="module")
def chi_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("chi_study")
    cfg = StudyConfig(kind="chi_grid", grid=DEFAULT_GRIDS["chi_grid"], seed=3)
    return cfg, run_study(cfg, out)


class TestStudyConfig:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="kind"):
            StudyConfig(kind="nope", grid=(1.0,))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="empty"):
            StudyConfig(kind="chi_grid", grid=())
        with pytest.raises(ValueError, match="unique"):
            StudyConfig(kind="chi_grid", grid=(0.1, 0.1))
        with pytest.raises(ValueError, match="finite"):
            StudyConfig(kind="chi_grid", grid=(0.1, math.nan))
        with pytest.raises(ValueError, match="single"):
            StudyConfig(kind="single", grid=(0.1, 0.2))

    def test_seed_must_be_an_integer(self):
        assert StudyConfig(kind="single", grid=(0.25,), seed=np.int64(4)).seed == 4
        for bad in (3.7, 3.0, True, "3", None):
            with pytest.raises(ValueError, match="^seed must be an integer"):
                StudyConfig(kind="single", grid=(0.25,), seed=bad)
            with pytest.raises(ValueError, match="^seed must be an integer"):
                study_config_from_dict({"study.seed": bad})

    def test_from_flat_dict(self):
        cfg = study_config_from_dict({
            "study.kind": "chi_grid",
            "study.grid": [0.1, 0.5],
            "study.seed": 9,
            "preset.noise_rms": 0.001,
        })
        assert cfg.kind == "chi_grid"
        assert cfg.grid == (0.1, 0.5)
        assert cfg.seed == 9
        assert cfg.preset.noise_rms == 0.001

    def test_from_flat_dict_scalar_grid_and_unknown_field(self):
        cfg = study_config_from_dict({"study.kind": "single", "study.grid": 0.25})
        assert cfg.grid == (0.25,)
        with pytest.raises(ValueError, match="preset field"):
            study_config_from_dict({"study.grid": 0.25, "preset.bogus": 1.0})


class TestPreset:
    def test_latched_field_and_kappa(self):
        c = PRESET.coupling()
        assert c.latched_field == pytest.approx(1.1, rel=1e-12)
        assert c.my0 == pytest.approx(0.49 * math.sin(math.radians(0.2)))

    def test_threshold_survival_is_lorentzian(self):
        w = PRESET.serf_width_nt
        assert PRESET.coupling(w).my0 == pytest.approx(PRESET.coupling().my0 / 2)
        bz = np.array([0.0, 10.0, 20.0, 40.0])
        my0 = np.array([PRESET.coupling(b).my0 for b in bz])
        assert np.all(np.diff(my0) < 0)

    def test_ensemble_width_tracks_ellipticity(self):
        w0 = PRESET.ensemble(0.0).width_nt
        w1 = PRESET.ensemble(1.0).width_nt
        assert w0 == pytest.approx(PRESET.base_width_nt)
        assert w1 - w0 == pytest.approx(PRESET.broadening_nt_per_deg)


class TestMeasurePoint:
    def test_reference_point(self):
        pt, records = measure_point(PRESET, PRESET.chi_deg, PRESET.residual_by_nt, 0.0,
                                    seed=3)
        assert sorted(records) == ["env_minus", "env_plus", "loop"]
        assert pt.fit_converged
        assert pt.bx_up > 0 > pt.bx_down
        assert pt.loop_hysteresis == pytest.approx(3.9, abs=0.8)
        assert pt.b_yeff == pytest.approx(PRESET.latch_field_nt, rel=0.10)
        assert pt.w_anti > pt.w_sym > 0
        assert pt.dt > 0


    def test_envelope_pair_hysteresis_sign(self):
        # near the center a live loop's up sweep holds latch state -, so the
        # + envelope fitted as the up branch ends at h < 0 (-8.98 nT): the
        # fit warns that the model with |h| misses the data.  With the
        # labels swapped the same minimum has h > 0 and the model
        # reproduces the fit
        _, records = measure_point(PRESET, PRESET.chi_deg, PRESET.residual_by_nt, 0.0,
                                   seed=3)
        plus, minus = records["env_plus"], records["env_minus"]
        for up, down, folded in ((plus, minus, True), (minus, plus, False)):
            rec = branch_record((up.bx, up.s), (down.bx, down.s))
            res = fit_record(rec)
            assert res.converged
            assert res.model.hysteresis_h == pytest.approx(8.981, abs=1e-3)
            assert any("hysteresis_h = -8.98" in w for w in res.warnings) == folded
            model_rms = math.sqrt(np.mean(
                (composite_eval(res.model, rec.bx, rec.branch) - rec.s) ** 2))
            if folded:
                assert model_rms > 3.0 * res.residual_rms
            else:
                assert model_rms == pytest.approx(res.residual_rms, rel=1e-9)


class TestChiGridStudy:
    def test_width_slopes_in_expected_bracket(self, chi_study):
        _, res = chi_study
        linear = {t.quantity: t for t in res.trends
                  if t.kind == "linear" and t.quantity.startswith("w_")}
        for quantity in ("w_anti", "w_sym"):
            slope, stderr = linear[quantity].params[0], linear[quantity].stderr[0]
            assert 4.0 <= slope <= 6.0
            assert slope > 2.0 * stderr  # the growth is resolved

    def test_hysteresis_shrinks_hyperbolically(self, chi_study):
        _, res = chi_study
        h = [pt.loop_hysteresis for pt in res.points]
        assert all(np.diff(h) < 0)
        hyp = next(t for t in res.trends
                   if t.quantity == "loop_hysteresis" and t.kind == "hyperbola")
        assert hyp.converged
        assert hyp.params[1] > 0  # 1/chi coefficient

    def test_outputs_written_and_readable(self, chi_study):
        _, res = chi_study
        out = res.out_dir
        assert (out / "points.txt").exists()
        assert (out / "trends.txt").exists()
        assert (out / "trend_w_anti_linear.svg").exists()
        assert (out / "loops.svg").exists()
        assert list(out.glob("*.dat")) == []
        rec = read_record(out / "point_00_loop.txt")
        assert np.any(rec.branch == 1.0) and np.any(rec.branch == -1.0)
        env = read_record(out / "point_00_env_plus.txt")
        assert env.bx.size > 0 and np.all(env.branch == 1.0)

    def test_points_table_round_trip(self, chi_study):
        cfg, res = chi_study
        kind, seed, points = read_points_table(res.out_dir / "points.txt")
        assert kind == cfg.kind
        assert seed == cfg.seed
        assert len(points) == len(res.points)
        assert points[0].row() == res.points[0].row()

    def test_deterministic_rerun(self, chi_study, tmp_path):
        cfg, res = chi_study
        rerun = run_study(cfg, tmp_path / "again")
        a = (res.out_dir / "points.txt").read_bytes()
        b = (tmp_path / "again" / "points.txt").read_bytes()
        assert a == b
        assert (res.out_dir / "trends.txt").read_bytes() == \
            (tmp_path / "again" / "trends.txt").read_bytes()

    def test_report_regenerates_without_records(self, chi_study, tmp_path):
        _, res = chi_study
        stash = tmp_path / "report_only"
        stash.mkdir()
        (stash / "points.txt").write_bytes((res.out_dir / "points.txt").read_bytes())
        rep = report(stash)
        assert (stash / "trends.txt").read_bytes() == \
            (res.out_dir / "trends.txt").read_bytes()
        assert len(rep.points) == len(res.points)
        figures = sorted(p.name for p in res.out_dir.glob("trend_*.*"))
        assert figures == sorted(p.name for p in stash.glob("trend_*.*"))
        assert any(name.endswith(".svg") for name in figures)
        for name in figures:
            assert (stash / name).read_bytes() == (res.out_dir / name).read_bytes()


class TestOtherGrids:
    def test_bz_grid_lorentzian_widths(self, tmp_path):
        cfg = StudyConfig(kind="bz_grid", grid=DEFAULT_GRIDS["bz_grid"], seed=3)
        res = run_study(cfg, tmp_path / "bz")
        widths = {t.quantity: t.params[1] for t in res.trends
                  if t.kind == "lorentzian"}
        assert 20.0 <= widths["loop_hysteresis"] <= 40.0
        assert 20.0 <= widths["b_yeff"] <= 40.0
        h = [pt.loop_hysteresis for pt in res.points]
        assert h[0] > h[-1]

    def test_by_grid_polynomial_trends(self, tmp_path):
        cfg = StudyConfig(kind="by_grid", grid=DEFAULT_GRIDS["by_grid"], seed=3)
        res = run_study(cfg, tmp_path / "by")
        assert all(pt.fit_converged for pt in res.points)
        poly = {t.quantity: t for t in res.trends if t.kind == "polynomial"}
        assert set(poly) == {"a_anti", "a_sym"}
        # |a| is even in the offset: the odd coefficients are zero within 2 sigma
        for tr in poly.values():
            for name in ("c1", "c3"):
                k = tr.param_names.index(name)
                assert abs(tr.params[k]) < 2.0 * tr.stderr[k]

    def test_point_records_read_back_bit_identical(self, tmp_path, monkeypatch):
        # every point_XX_*.txt reads back as the record measure_point made
        made = []

        def measure(*args, **kw):
            made.append(measure_point(*args, **kw))
            return made[-1]

        monkeypatch.setattr("alignor.study.measure_point", measure)
        out = run_study(StudyConfig(kind="single", grid=(0.25,), seed=1), tmp_path).out_dir
        assert len(made) == 1
        _, records = made[0]
        assert sorted(records) == ["env_minus", "env_plus", "loop"]
        assert sorted(p.name for p in out.glob("point_*.txt")) == [
            f"point_00_{name}.txt" for name in sorted(records)]
        for name, rec in records.items():
            back = read_record(out / f"point_00_{name}.txt")
            assert back.meta == rec.meta
            for f in fields(rec):
                if f.name != "meta":
                    assert getattr(back, f.name).tobytes() == getattr(rec, f.name).tobytes()

    @pytest.mark.parametrize("kind, setting", [("chi_grid", "chi_deg"), ("bz_grid", "bz_pump"),
                                               ("by_grid", "static_by"), ("single", "chi_deg")])
    def test_grid_value_sets_the_kinds_setting(self, kind, setting, tmp_path, monkeypatch):
        # measure_point stubbed: each grid value lands in its kind's setting
        # and is the point's x; the other settings stay at the preset's
        grid = (0.7,) if kind == "single" else (0.7, 3.0)
        calls = []

        class Measured(Exception):
            pass

        def measure(preset, chi_deg, static_by, bz_pump, seed, x):
            calls.append(({"chi_deg": chi_deg, "static_by": static_by, "bz_pump": bz_pump}, x))
            if len(calls) == len(grid):
                raise Measured
            return None, None

        monkeypatch.setattr("alignor.study.measure_point", measure)
        with pytest.raises(Measured):
            run_study(StudyConfig(kind=kind, grid=grid), tmp_path / "out")
        base = {"chi_deg": PRESET.chi_deg, "static_by": PRESET.residual_by_nt, "bz_pump": 0.0}
        assert calls == [({**base, setting: value}, value) for value in grid]
        assert not (tmp_path / "out").exists()

    def test_single_point_study_plots_its_loop_once(self, tmp_path, monkeypatch):
        # measure_point stubbed with a small loop record: a one-point grid's
        # overview draws its loop once, one up and one down curve
        bx = np.linspace(-3.0, 3.0, 13)
        loop = branch_record((bx, np.tanh(bx - 1.0)), (bx[::-1], np.tanh(bx[::-1] + 1.0)))
        point = StudyPoint(**{name: 0.25 if name == "x" else 1.0 for name in POINT_COLUMNS})

        def measure(preset, chi_deg, static_by, bz_pump, seed, x):
            return point, {"env_plus": loop, "env_minus": loop, "loop": loop}

        monkeypatch.setattr("alignor.study.measure_point", measure)
        out = run_study(StudyConfig(kind="single", grid=(0.25,)), tmp_path).out_dir
        svg = (out / "loops.svg").read_text()
        assert svg.count("<polyline") == 2
        assert svg.count(">up 0.25</text>") == svg.count(">down 0.25</text>") == 1

    def test_single_point_study(self, tmp_path):
        cfg = StudyConfig(kind="single", grid=(0.25,), seed=1)
        res = run_study(cfg, tmp_path / "one")
        assert len(res.points) == 1
        assert res.trends == ()
        assert (tmp_path / "one" / "points.txt").exists()

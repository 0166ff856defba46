from dataclasses import replace
import math

import numpy as np
import pytest

from alignor import fitkit
from alignor.dynamics import RAISED_COS_10_90
from alignor.fitkit import (
    COMPOSITE_PARAM_NAMES,
    TRENDS,
    CompositeContourModel,
    _arctan_fn,
    _arctan_jac,
    _composite_fn,
    _composite_jac,
    _lorentz_fn,
    _lorentz_jac,
    composite_eval,
    extract_transition,
    fit_record,
    fit_trend,
    levenberg_marquardt,
)
from oracles import fit_record_all_starts
from records import branch_record, rows_of, take_rows, with_value

RNG = np.random.default_rng(7)


def make_record(model, bx=None, noise=0.0, seed=0):
    if bx is None:
        bx = np.linspace(-12.0, 12.0, 241)
    rng = np.random.default_rng(seed)
    s_up = composite_eval(model, bx, 1.0) + noise * rng.standard_normal(bx.size)
    s_dn = composite_eval(model, bx, -1.0) + noise * rng.standard_normal(bx.size)
    t = np.arange(bx.size) / 100.0
    return branch_record((bx, s_up, t), (bx[::-1], s_dn[::-1], t))


class TestCompositeEval:
    def test_symmetric_peak_value(self):
        m = CompositeContourModel(a_anti=0.0, w_anti=1.0, a_sym=1.0, w_sym=2.0,
                                  center=0.3)
        assert composite_eval(m, 0.3, 1.0) == pytest.approx(1.0)

    def test_antisymmetric_zero_at_center_and_extremum(self):
        m = CompositeContourModel(a_anti=1.0, w_anti=2.0, a_sym=0.0, w_sym=1.0)
        assert composite_eval(m, 0.0, 1.0) == pytest.approx(0.0)
        bx = np.linspace(-20, 20, 200001)
        vals = composite_eval(m, bx, 1.0)
        assert np.max(np.abs(vals)) == pytest.approx(3 * math.sqrt(3) / 16, abs=1e-6)
        assert bx[np.argmax(vals)] == pytest.approx(2.0 / math.sqrt(3), abs=1e-3)

    def test_branch_difference_is_twice_symmetric(self):
        m = CompositeContourModel(a_anti=0.7, w_anti=1.5, a_sym=0.4, w_sym=2.0,
                                  offset=0.2)
        bx = np.linspace(-8, 8, 101)
        diff = composite_eval(m, bx, 1.0) - composite_eval(m, bx, -1.0)
        v = bx / m.w_sym
        assert diff == pytest.approx(2 * 0.4 / (1 + v**2) ** 2)

    def test_parity_branch_sign_flips_only_symmetric_part(self):
        m = CompositeContourModel(a_anti=0.7, w_anti=1.5, a_sym=0.4, w_sym=2.0)
        bx = np.linspace(-8, 8, 101)
        up = composite_eval(m, bx, 1.0)
        dn = composite_eval(m, bx, -1.0)
        anti = bx / m.w_anti / (1 + (bx / m.w_anti) ** 2) ** 2 * m.a_anti
        assert up + dn == pytest.approx(2 * anti, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CompositeContourModel(1, 0.0, 1, 1)
        with pytest.raises(ValueError):
            CompositeContourModel(1, 1, 1, 1, hysteresis_h=-0.5)
        m = CompositeContourModel(1, 1, 1, 1)
        with pytest.raises(ValueError):
            composite_eval(m, 0.0, 0.5)
        with pytest.raises(ValueError):
            composite_eval(m, [0.0, 1.0], [1.0, 0.0])

    def test_branch_column_evaluates_a_whole_record(self):
        m = CompositeContourModel(a_anti=0.7, w_anti=1.5, a_sym=0.4, w_sym=2.0,
                                  center=0.1, hysteresis_h=1.2, offset=0.2)
        rec = make_record(m)
        up, down = rows_of(rec, 1.0), rows_of(rec, -1.0)
        whole = composite_eval(m, rec.bx, rec.branch)
        assert whole.tobytes() == np.concatenate(
            [composite_eval(m, rec.bx[up], 1.0), composite_eval(m, rec.bx[down], -1.0)]).tobytes()
        assert np.array_equal(whole, rec.s)


class TestJacobians:
    def check(self, fn, jac, x, p, extra=()):
        j = jac(x, p, *extra)
        eps = 1e-6
        for k in range(len(p)):
            dp = np.zeros(len(p))
            dp[k] = eps * max(abs(p[k]), 1.0)
            fd = (fn(x, p + dp, *extra) - fn(x, p - dp, *extra)) / (2 * dp[k])
            scale = max(np.max(np.abs(fd)), 1e-6)
            assert np.max(np.abs(j[:, k] - fd)) / scale < 1e-5

    def test_composite_jacobian_matches_fd(self):
        bx = np.linspace(-10, 10, 37)
        sigma = np.where(np.arange(37) % 2 == 0, 1.0, -1.0)
        for _ in range(100):
            p = np.array([RNG.uniform(-2, 2), RNG.uniform(0.5, 4),
                          RNG.uniform(-2, 2), RNG.uniform(0.5, 4),
                          RNG.uniform(-2, 2), RNG.uniform(0, 3),
                          RNG.uniform(-1, 1)])
            self.check(_composite_fn, _composite_jac, (bx, sigma), p)

    @staticmethod
    def composite_plain(x, p):
        """_composite_fn and _composite_jac written column by column with no
        shared subexpressions: the oracle for the shared forms."""
        bx, sigma = x
        a_a, w_a, a_s, w_s, c, h, off = p
        u = (bx - c) / w_a
        v = (bx - c - sigma * h / 2.0) / w_s
        f = (a_a * (u / (1.0 + u * u) ** 2)
             + sigma * a_s * (1.0 / (1.0 + v * v) ** 2) + off)
        du = (1.0 - 3.0 * u * u) / (1.0 + u * u) ** 3
        lv = -4.0 * v / (1.0 + v * v) ** 3
        j = np.empty((bx.size, 7))
        j[:, 0] = u / (1.0 + u * u) ** 2
        j[:, 1] = a_a * du * (-u / w_a)
        j[:, 2] = sigma * (1.0 / (1.0 + v * v) ** 2)
        j[:, 3] = sigma * a_s * lv * (-v / w_s)
        j[:, 4] = -a_a * du / w_a - sigma * a_s * lv / w_s
        j[:, 5] = sigma * a_s * lv * (-sigma / (2.0 * w_s))
        j[:, 6] = 1.0
        return f, j

    def test_composite_shared_forms_bit_identical(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            bx = rng.uniform(-15, 15, n)
            sigma = rng.choice([1.0, -1.0], n)
            p = np.array([rng.uniform(-2, 2), rng.uniform(0.2, 5), rng.uniform(-2, 2),
                          rng.uniform(0.2, 5), rng.uniform(-3, 3), rng.uniform(0, 4),
                          rng.uniform(-1, 1)])
            f, j = self.composite_plain((bx, sigma), p)
            got = _composite_jac((bx, sigma), p)
            assert np.array_equal(_composite_fn((bx, sigma), p), f)
            assert np.array_equal(got, j)
            assert got.shape == (n, 7) and got.flags.c_contiguous

    def test_arctan_jacobian_matches_fd(self):
        x = np.linspace(-5, 5, 23)
        for _ in range(100):
            p = np.array([RNG.uniform(-3, 3), RNG.uniform(0.3, 4), RNG.uniform(-2, 2)])
            self.check(_arctan_fn, _arctan_jac, x, p)

    def test_lorentz_jacobian_matches_fd(self):
        x = np.linspace(-5, 5, 23)
        for _ in range(100):
            p = np.array([RNG.uniform(-3, 3), RNG.uniform(0.3, 4), RNG.uniform(-2, 2)])
            self.check(_lorentz_fn, _lorentz_jac, x, p)


class TestLevenbergMarquardt:
    TRUE = CompositeContourModel(a_anti=0.12, w_anti=3.0, a_sym=0.15, w_sym=2.2,
                                 center=0.4, hysteresis_h=1.6, offset=0.03)

    def joint_data(self, noise=0.0, seed=0):
        bx = np.linspace(-12, 12, 961)
        rng = np.random.default_rng(seed)
        up = composite_eval(self.TRUE, bx, 1.0)
        dn = composite_eval(self.TRUE, bx, -1.0)
        x = (np.concatenate([bx, bx]),
             np.concatenate([np.ones(bx.size), -np.ones(bx.size)]))
        y = np.concatenate([up, dn]) + noise * rng.standard_normal(2 * bx.size)
        return x, y

    def test_noiseless_recovery(self):
        x, y = self.joint_data()
        p_true = self.TRUE.free_params()
        init = p_true * (1 + 0.2 * np.array([1, -1, 1, -1, 1, 1, -1]))
        res = levenberg_marquardt(_composite_fn, _composite_jac,
                                  x, y, init, param_names=COMPOSITE_PARAM_NAMES)
        assert res.converged
        assert np.max(np.abs(res.params - p_true) / np.maximum(np.abs(p_true), 1e-3)) < 1e-6

    def test_monte_carlo_snr100(self):
        p_true = self.TRUE.free_params()
        amp = self.TRUE.a_sym
        errs = []
        for seed in range(50):
            x, y = self.joint_data(noise=amp / 100.0, seed=seed)
            init = p_true * (1 + 0.1 * np.array([1, -1, 1, -1, 0.5, 1, -1]))
            res = levenberg_marquardt(
                _composite_fn, _composite_jac,
                x, y, init, param_names=COMPOSITE_PARAM_NAMES)
            errs.append(res.params - p_true)
        rms = np.sqrt(np.mean(np.square(errs), axis=0))
        # amplitudes and widths within 1% RMS, hysteresis within 2%
        for k in (0, 1, 2, 3):
            assert rms[k] / abs(p_true[k]) < 0.01
        assert rms[5] / p_true[5] < 0.02

    def test_cost_monotone_on_accepted_steps(self):
        x, y = self.joint_data(noise=0.003, seed=3)
        init = self.TRUE.free_params() * 1.15
        res = levenberg_marquardt(_composite_fn, _composite_jac,
                                  x, y, init)
        hist = res.cost_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_covariance_symmetric_psd(self):
        x, y = self.joint_data(noise=0.002, seed=5)
        res = levenberg_marquardt(_composite_fn, _composite_jac,
                                  x, y, self.TRUE.free_params() * 1.1)
        c = res.covariance
        assert np.max(np.abs(c - c.T)) < 1e-10
        assert np.linalg.eigvalsh(c).min() >= -1e-12 * np.trace(c)

    def test_idempotence(self):
        x, y = self.joint_data(noise=0.002, seed=6)
        res = levenberg_marquardt(_composite_fn, _composite_jac,
                                  x, y, self.TRUE.free_params() * 1.1)
        res2 = levenberg_marquardt(_composite_fn, _composite_jac,
                                   x, y, res.params)
        assert np.max(np.abs(res2.params - res.params)) < 1e-10

    def test_linear_model_one_iteration(self):
        x = np.linspace(0, 10, 20)
        y = 2.0 * x + 1.0

        def fn(x, p):
            return p[0] * x + p[1]

        def jc(x, p):
            return np.column_stack([x, np.ones_like(x)])

        res = levenberg_marquardt(fn, jc, x, y, [0.0, 0.0])
        assert res.params == pytest.approx([2.0, 1.0], abs=1e-8)
        assert res.converged
        # damping makes the first step 99.9% of the exact Gauss-Newton one;
        # a handful of polish steps reach machine precision
        assert res.iterations <= 8

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            levenberg_marquardt(_lorentz_fn, _lorentz_jac,
                                np.array([1.0, 2.0]), np.array([1.0, 2.0]),
                                [1.0, 1.0, 0.0])

    def test_nonfinite_data(self):
        x = np.linspace(-3, 3, 20)
        y = _lorentz_fn(x, [1.0, 1.0, 0.0])
        y[3] = np.nan
        with pytest.raises(ValueError):
            levenberg_marquardt(_lorentz_fn, _lorentz_jac, x, y, [1.0, 1.0, 0.0])

    def test_nonfinite_start_is_value_error(self):
        # a cost or Jacobian that is not finite at the start never reaches
        # the LAPACK calls of the descent or the covariance
        x = np.linspace(-3, 3, 20)
        y = _lorentz_fn(x, [1.0, 1.0, 0.0])
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            levenberg_marquardt(_lorentz_fn, _lorentz_jac, x, y, [1.0, 0.0, 0.0])

    def test_zero_jacobian_ends_at_the_stationary_start(self):
        # every damped system J^T J + lam diag(scale) is zero, so no step
        # lowers the cost: the start is stationary, and its parameters are
        # unidentifiable
        x = np.linspace(0.0, 1.0, 10)
        res = levenberg_marquardt(lambda x, p: np.zeros(x.size),
                                  lambda x, p: np.zeros((x.size, 2)), x, x, [1.0, 2.0])
        assert res.converged and res.iterations == 0
        assert res.params.tolist() == [1.0, 2.0]
        assert res.unidentifiable == ("p0", "p1")

    def test_every_package_model_has_a_constant_jacobian_column(self):
        # the offset column keeps J^T J + lam diag(scale) positive definite,
        # so a singular damped system only raises the damping; a single
        # branch zeroes the hysteresis column, not this one
        x = np.linspace(-3.0, 3.0, 20)
        sigma = np.where(x < 0, 1.0, -1.0)
        for j in (_composite_jac((x, sigma), self.TRUE.free_params()),
                  _arctan_jac(x, [1.2, 0.8, -0.3]), _lorentz_jac(x, [2.0, 1.5, 0.5])):
            assert np.all(j[:, -1] == 1.0)

    def test_overflowing_cost_is_value_error(self):
        # finite data whose squared residual overflows: before the fix the
        # descent accepted steps from an infinite cost and eigh failed on
        # the covariance with "Eigenvalues did not converge"
        x = np.linspace(-3, 3, 20)
        y = _lorentz_fn(x, [1.0, 1.0, 0.0])
        y[3] = 1e300
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="cost or Jacobian not finite"):
            levenberg_marquardt(_lorentz_fn, _lorentz_jac, x, y, [1.0, 1.0, 0.0])


class TestFitRecord:
    TRUE = CompositeContourModel(a_anti=0.1, w_anti=3.2, a_sym=0.15, w_sym=2.5,
                                 center=0.2, hysteresis_h=1.8, offset=6.0)

    def test_recovers_generator_parameters(self):
        rec = make_record(self.TRUE, noise=0.0005, seed=1)
        res = fit_record(rec)
        assert res.converged
        assert res.model.hysteresis_h == pytest.approx(1.8, rel=0.05)
        assert res.model.w_sym == pytest.approx(2.5, rel=0.05)
        assert res.model.a_anti == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("scale, shift", [(1e-3, 0.0), (1e3, 0.0), (1.0, 40.0),
                                              (1.0, -40.0), (10.0, -100.0)])
    def test_fit_does_not_depend_on_field_units_or_origin(self, scale, shift):
        # bx -> scale * bx + shift scales the widths and hysteresis, maps the
        # center, and leaves the amplitudes and offset; the center is
        # compared against the width scale, since it can sit near zero
        rec = make_record(self.TRUE, noise=0.01, seed=2)
        res = fit_record(rec)
        moved = fit_record(replace(rec, bx=scale * rec.bx + shift))
        assert res.converged and moved.converged
        a_a, w_a, a_s, w_s, c, h, off = res.params
        want = np.array([a_a, scale * w_a, a_s, scale * w_s, scale * c + shift,
                         scale * h, off])
        amp, width = max(abs(a_a), abs(a_s)), scale * max(w_a, w_s)
        floor = np.array([amp, width, amp, width, width, width, amp])
        assert np.all(np.abs(moved.params - want) <= 1e-6 * np.maximum(np.abs(want), floor))

    def test_later_starts_merge_and_covariance_formed_once(self, monkeypatch):
        # the second start converges to another minimum (negative w_sym and
        # h), the third comes within LM_MERGE_TOL of the first start's
        # minimum and stops, the fourth runs to the iteration cap.  Run to
        # the end, the third start polishes the same minimum and wins by a
        # rounding-level cost, so the four full runs agree to 1e-7
        descend, covariance = fitkit._lm_descend, fitkit._lm_covariance
        descents, tails = [], []

        def spy_descend(*args, **kwargs):
            descents.append(descend(*args, **kwargs))
            return descents[-1]

        def spy_covariance(res, *args):
            tails.append(res)
            return covariance(res, *args)

        monkeypatch.setattr(fitkit, "_lm_descend", spy_descend)
        monkeypatch.setattr(fitkit, "_lm_covariance", spy_covariance)
        rec = make_record(self.TRUE, noise=0.0005, seed=1)
        res = fit_record(rec)
        assert [d is None for d in descents] == [False, False, True, False]
        assert tails == [descents[0]]
        ref = fit_record_all_starts(rec)
        assert res.converged and ref.converged
        assert res.residual_rms == pytest.approx(ref.residual_rms, rel=1e-9)
        assert np.all(np.abs(res.params - ref.params) <= 1e-7 * np.abs(ref.params))

    def test_no_antisymmetric_part_consistent_with_zero(self):
        m = CompositeContourModel(a_anti=0.0, w_anti=3.0, a_sym=0.15, w_sym=2.5,
                                  hysteresis_h=0.0, offset=6.0)
        rec = make_record(m, noise=0.0005, seed=2)
        res = fit_record(rec)
        i = res.param_names.index("a_anti")
        sigma = math.sqrt(max(res.covariance[i, i], 0.0))
        assert abs(res.params[i]) < 2 * sigma + 1e-3

    def test_no_symmetric_part_flags_unidentifiable_width(self):
        m = CompositeContourModel(a_anti=0.1, w_anti=3.0, a_sym=0.0, w_sym=2.5,
                                  hysteresis_h=0.0, offset=6.0)
        rec = make_record(m, noise=0.0, seed=3)
        res = fit_record(rec, init=np.array([0.1, 3.0, 0.0, 2.5, 0.0, 0.0, 6.0]))
        assert "w_sym" in res.unidentifiable

    # the single-branch tests run on each branch alone: the up rows
    # (ascending bx) and the down rows (descending bx)
    SIGNS = (+1, -1)

    def test_single_branch_fixes_hysteresis(self):
        rec = make_record(self.TRUE, noise=0.0005, seed=4)
        for sign in self.SIGNS:
            res = fit_record(take_rows(rec, rows_of(rec, sign)))
            assert res.model.hysteresis_h == 0.0
            # pinned, so neither unidentifiable nor in that warning
            assert "hysteresis_h" not in res.unidentifiable
            assert [w for w in res.warnings if "hysteresis" in w] == [
                "single branch: hysteresis fixed at 0"]

    def test_single_branch_keeps_other_unidentifiable_parameters(self):
        m = CompositeContourModel(a_anti=0.1, w_anti=3.0, a_sym=0.0, w_sym=2.5,
                                  hysteresis_h=0.0, offset=6.0)
        rec = make_record(m, noise=0.0, seed=3)
        for sign in self.SIGNS:
            one = take_rows(rec, rows_of(rec, sign))
            res = fit_record(one, init=np.array([0.1, 3.0, 0.0, 2.5, 0.0, 0.0, 6.0]))
            assert "w_sym" in res.unidentifiable
            assert "hysteresis_h" not in res.unidentifiable
            assert f"unidentifiable parameters: {', '.join(res.unidentifiable)}" in res.warnings

    @pytest.mark.parametrize("n_up, n_down, message", [(1, 0, "up branch has 1 row"),
                                                       (0, 0, "up branch has 0 row"),
                                                       (20, 1, "down branch has 1 row"),
                                                       (0, 1, "down branch has 1 row")])
    def test_short_branch_is_value_error(self, n_up, n_down, message):
        rec = make_record(self.TRUE)
        short = take_rows(rec, np.concatenate([rows_of(rec, +1)[:n_up],
                                               rows_of(rec, -1)[:n_down]]))
        for fn in (fit_record, extract_transition):
            with pytest.raises(ValueError, match=message):
                fn(short)

    @pytest.mark.parametrize("branch", ["up", "down"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_bx_is_value_error(self, branch, bad):
        rec = make_record(self.TRUE)
        broken = with_value(rec, "bx", rows_of(rec, {"up": +1, "down": -1}[branch])[7], bad)
        for fn in (fit_record, extract_transition):
            with pytest.raises(ValueError, match=f"{branch} branch has a non-finite bx"):
                fn(broken)

    @pytest.mark.parametrize("column", ["t", "s"])
    def test_transition_rejects_nonfinite_column(self, column):
        # a NaN time or signal in a side window reached polyfit's SVD
        rec = make_record(self.TRUE)
        broken = with_value(rec, column, rows_of(rec, -1)[7], math.nan)
        with pytest.raises(ValueError, match=f"down branch has a non-finite {column}"):
            extract_transition(broken)

    @pytest.mark.parametrize("value", [0.0, 0.5, -2.0, math.nan])
    def test_branch_other_than_plus_minus_one_is_value_error(self, value):
        # a sign of 0 or 0.5 would enter the model as a scaled symmetric part
        rec = with_value(make_record(self.TRUE), "branch", 3, value)
        for fn in (fit_record, extract_transition):
            with pytest.raises(ValueError, match="branch must be"):
                fn(rec)

    def test_overflowing_bx_stops_before_lapack(self):
        # finite, but the contour model overflows on it: a ValueError from
        # the start of the descent, not a LinAlgError from eigh
        rec = make_record(self.TRUE)
        huge = with_value(rec, "bx", rows_of(rec, -1)[7], 1e300)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
            fit_record(huge)

    def test_single_branch_recovers_every_parameter(self):
        # the branch's rows are fitted once: a copy of them with the other
        # sign would cancel the symmetric part and pin a_sym at 0
        m = CompositeContourModel(a_anti=0.2, w_anti=2.0, a_sym=0.15, w_sym=1.5,
                                  center=0.3, offset=0.1)
        rec = make_record(m)
        for sign in self.SIGNS:
            one = take_rows(rec, rows_of(rec, sign))
            for res in (fit_record(one), fit_record_all_starts(one)):
                assert res.converged
                assert res.residual_rms < 1e-10
                assert np.allclose(res.params, m.free_params(), rtol=1e-8, atol=1e-10)
                assert "w_sym" not in res.unidentifiable
                assert np.allclose(composite_eval(res.model, one.bx, one.branch), one.s,
                                   rtol=0.0, atol=1e-10)

    def test_negative_hysteresis_is_flagged(self):
        # with the branch labels swapped the best fit has h < 0; the model
        # reported with |h| then misses the data, and the fit says so
        bx = np.linspace(-12.0, 12.0, 241)
        up, down = (composite_eval(self.TRUE, bx, b) for b in (1.0, -1.0))
        for s_up, s_down, folded in ((up, down, False), (down, up, True)):
            rec = branch_record((bx, s_up), (bx, s_down))
            res = fit_record(rec)
            assert res.converged and res.residual_rms < 1e-10
            assert any("folded to |h|" in w for w in res.warnings) == folded
            model_rms = math.sqrt(np.mean(
                (composite_eval(res.model, rec.bx, rec.branch) - rec.s) ** 2))
            assert (model_rms > 1e-3) == folded

    def test_single_branch_start_does_not_depend_on_row_order(self):
        # the reference rows are ordered by bx, as np.interp needs, so a
        # branch's rows start the fit in either order from the same point
        rec = make_record(self.TRUE, noise=0.0005, seed=4)
        for sign in self.SIGNS:
            one = take_rows(rec, rows_of(rec, sign))
            fwd, rev = (fitkit._initial_guess(one.bx[k], one.branch[k], one.s[k])
                        for k in (slice(None), slice(None, None, -1)))
            assert fwd.tobytes() == rev.tobytes()

    def test_single_branch_leaves_init_untouched(self):
        rec = make_record(self.TRUE, noise=0.0005, seed=4)
        for sign in self.SIGNS:
            init = np.array([0.1, 3.2, 0.15, 2.5, 0.2, 1.8, 6.0])
            res = fit_record(take_rows(rec, rows_of(rec, sign)), init=init)
            assert res.model.hysteresis_h == 0.0
            assert init.tolist() == [0.1, 3.2, 0.15, 2.5, 0.2, 1.8, 6.0]


class TestExtractTransition:
    def latch_record(self, tau_flip=0.05, b_flip=1.0, rate=2.0, fs=2000.0):
        # bx ramps up through +b_flip and down through -b_flip; the signal
        # steps between levels following a raised cosine in time.
        t = np.arange(0.0, 2.0, 1.0 / fs)
        bx_up = -2.0 + rate * t
        bx_dn = 2.0 - rate * t

        def ramp(bx, t, b0, lo, hi):
            i0 = np.searchsorted(bx, b0) if bx[0] < bx[-1] else bx.size - np.searchsorted(bx[::-1], b0)
            t0 = t[min(i0, t.size - 1)]
            phase = np.clip((t - t0) / tau_flip, 0.0, math.pi)
            return lo + (hi - lo) * 0.5 * (1 - np.cos(phase))

        s_up = ramp(bx_up, t, +b_flip, -0.1, 0.1)
        s_dn = ramp(bx_dn, t, -b_flip, 0.1, -0.1)
        return branch_record((bx_up, s_up, t), (bx_dn, s_dn, t))

    def test_raised_cosine_duration(self):
        tau = 0.05
        rec = self.latch_record(tau_flip=tau)
        res = extract_transition(rec)
        assert not res.monostable
        assert res.dt == pytest.approx(RAISED_COS_10_90 * math.pi * tau, rel=0.1)

    def test_transition_fields_and_hysteresis(self):
        # max slope sits mid-flip: b_flip plus rate * pi * tau / 2 of ramp travel
        tau, rate = 0.05, 2.0
        rec = self.latch_record(tau_flip=tau, b_flip=1.0, rate=rate)
        res = extract_transition(rec)
        mid = 1.0 + rate * math.pi * tau / 2.0
        assert res.bx_up == pytest.approx(mid, abs=0.05)
        assert res.bx_down == pytest.approx(-mid, abs=0.05)
        assert res.hysteresis == pytest.approx(2 * mid, abs=0.1)

    def test_one_branch_alone_gives_that_branchs_fields(self):
        # each branch is located on its own rows, so a record of one branch
        # gives its field bit for bit as the whole record does
        rec = self.latch_record()
        whole = extract_transition(rec)
        up, down = (extract_transition(take_rows(rec, rows_of(rec, sign))) for sign in (+1, -1))
        assert up.bx_up == whole.bx_up and math.isnan(up.bx_down)
        assert down.bx_down == whole.bx_down and math.isnan(down.bx_up)
        assert not (up.monostable or down.monostable or whole.monostable)
        assert whole.max_slope == max(up.max_slope, down.max_slope)
        assert whole.dt == pytest.approx(0.5 * (up.dt + down.dt), rel=1e-15)

    def test_monostable_record(self):
        bx = np.linspace(-5, 5, 500)
        t = np.arange(bx.size) / 100.0
        rng = np.random.default_rng(0)
        s = 0.02 * bx + 0.001 * rng.standard_normal(bx.size)
        rec = branch_record((bx, s, t), (bx[::-1], s[::-1], t))
        res = extract_transition(rec)
        assert res.monostable
        assert math.isnan(res.bx_up)


class TestFitTrend:
    def test_exact_line(self):
        x = np.linspace(-3, 7, 15)
        res = fit_trend(x, 2.0 * x + 1.0, "linear")
        assert res.params == pytest.approx([2.0, 1.0], abs=1e-10)
        assert res.residual_rms < 1e-12

    def test_linear_covariance_is_the_lm_formula(self):
        # sigma^2 (A^T A)^+ of the design A, symmetrized, bit for bit
        rng = np.random.default_rng(3)
        x = np.linspace(-2.0, 3.0, 9)
        y = 0.7 * x - 0.2 + 0.01 * rng.standard_normal(x.size)
        for kind, design in (("linear", np.column_stack([x, np.ones_like(x)])),
                             ("polynomial", np.column_stack([x ** k for k in range(4)]))):
            res = fit_trend(x, y, kind)
            r = y - design @ res.params
            cov = float(r @ r) / (x.size - design.shape[1]) * np.linalg.pinv(
                design.T @ design, rcond=1e-12)
            assert res.covariance.tobytes() == (0.5 * (cov + cov.T)).tobytes()
            assert res.unidentifiable == ()

    def test_linear_trend_flags_unidentifiable(self):
        # three distinct x values cannot fix four cubic coefficients
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        res = fit_trend(x, x ** 2, "polynomial")
        assert res.unidentifiable != ()
        assert any(w.startswith("unidentifiable parameters") for w in res.warnings)

    def test_broadening_budget_slope(self):
        from alignor.estimators import BroadeningBudget, broadening_rate, circular_power

        b = BroadeningBudget()
        chi = np.linspace(0.05, 1.0, 12)
        width = np.array([10.0 + (b.k_lb + b.k_serf * b.k_ls) * circular_power(b.p_in, c)
                          for c in chi])
        res = fit_trend(chi, width, "linear")
        assert abs(res.params[0] - broadening_rate(b)) / broadening_rate(b) < 0.03
        assert abs(res.params[0] - 4.0) / 4.0 < 0.03

    def test_hyperbola(self):
        x = np.linspace(0.2, 5.0, 30)
        y = 1.5 + 0.8 / x
        res = fit_trend(x, y, "hyperbola")
        assert res.params == pytest.approx([1.5, 0.8], abs=1e-10)
        with pytest.raises(ValueError):
            fit_trend(np.array([0.0, 1.0, 2.0]), np.zeros(3), "hyperbola")

    def test_hyperbola_matches_inverse_field_hysteresis(self):
        # H = 2 Gamma my0 / (gamma m0) with m0 ~ x: pure b/x trend
        x = np.linspace(0.1, 1.0, 25)
        y = 0.3 / x
        rng = np.random.default_rng(1)
        y_noisy = y + 0.002 * rng.standard_normal(x.size)
        res = fit_trend(x, y_noisy, "hyperbola")
        resid = y_noisy - (res.params[0] + res.params[1] / x)
        assert np.sqrt(np.mean(resid**2)) < 0.05 * (y.max() - y.min())

    def test_arctan(self):
        x = np.linspace(-6, 6, 60)
        y = 1.2 * np.arctan(x / 0.8) - 0.3
        res = fit_trend(x, y, "arctan")
        assert res.converged
        assert res.params == pytest.approx([1.2, 0.8, -0.3], rel=1e-6)

    def test_lorentzian(self):
        x = np.linspace(-30, 30, 80)
        y = 2.0 / (1 + (x / 8.0) ** 2) + 0.5
        res = fit_trend(x, y, "lorentzian")
        assert res.converged
        assert res.params == pytest.approx([2.0, 8.0, 0.5], rel=1e-6)

    def test_polynomial(self):
        x = np.linspace(-2, 2, 25)
        y = 0.5 - x + 0.25 * x**3
        res = fit_trend(x, y, "polynomial")
        assert res.params == pytest.approx([0.5, -1.0, 0.0, 0.25], abs=1e-9)
        with pytest.raises(ValueError):
            fit_trend(x[:2], y[:2], "polynomial")

    @pytest.mark.parametrize("kind", tuple(TRENDS))
    def test_trend_eval_is_the_fitted_model(self, kind):
        x = np.linspace(0.25, 5.0, 25)
        truth = {"linear": 2.0 * x + 1.0,
                 "polynomial": 0.5 - x + 0.25 * x**3,
                 "hyperbola": 1.5 + 0.8 / x,
                 "arctan": 1.2 * np.arctan(x / 0.8) - 0.3,
                 "lorentzian": 2.0 / (1 + (x / 1.5) ** 2) + 0.5}[kind]
        y = truth + 0.01 * np.random.default_rng(5).standard_normal(x.size)
        res = fit_trend(x, y, kind)
        resid = y - TRENDS[kind][1](x, res.params)
        assert res.residual_rms > 0.0
        assert math.sqrt(np.mean(resid**2)) == pytest.approx(res.residual_rms,
                                                             rel=1e-9)

    def test_mismatched_lengths_is_value_error(self):
        with pytest.raises(ValueError, match="x and y must be matching 1-d arrays"):
            fit_trend(np.arange(5.0), np.arange(6.0), "linear")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fit_trend(np.arange(5.0), np.arange(5.0), "spline")

    @pytest.mark.parametrize("kind", tuple(TRENDS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_data_is_value_error(self, kind, bad):
        # a linear kind's least squares would return NaN parameters marked
        # converged
        x = np.linspace(0.25, 5.0, 25)
        y = 1.5 + 0.8 / x
        y[7] = bad
        with pytest.raises(ValueError, match="data must be finite"):
            fit_trend(x, y, kind)

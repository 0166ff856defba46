from dataclasses import replace
import math

import numpy as np
import pytest

from alignor.spincore import (
    EnsembleParams,
    SignalMix,
    alignment_steady_state_grid,
    orientation_steady_state_grid,
    signals_from_state,
)
from alignor.study import StudyPreset
from oracles import (
    ALIGNMENT_PUMP_X,
    ALIGNMENT_SIGNAL_CALIBRATION,
    SPIN2_GENERATORS as GEN,
    alignment_signal_shape,
    alignment_steady_state,
    angular_momentum_j2,
    orientation_steady_state,
)

GX, GY, GZ = GEN


class TestGenerators:
    def test_antisymmetric(self):
        for g in GEN:
            assert np.abs(g + g.T).max() < 1e-12

    def test_cyclic_commutators(self):
        def comm(a, b):
            return a @ b - b @ a

        assert np.abs(comm(GX, GY) - GZ).max() < 1e-12
        assert np.abs(comm(GY, GZ) - GX).max() < 1e-12
        assert np.abs(comm(GZ, GX) - GY).max() < 1e-12

    def test_casimir(self):
        c = GX @ GX + GY @ GY + GZ @ GZ
        assert np.abs(c + 6.0 * np.eye(5)).max() < 1e-12

    def test_gz_singular_values(self):
        sv = np.sort(np.linalg.svd(GZ)[1])
        assert np.allclose(sv, [0.0, 1.0, 1.0, 2.0, 2.0], atol=1e-12)

    def test_casimir_against_complex_ladder_oracle(self):
        # independent route: Casimir of the complex j=2 matrices is j(j+1) I
        jx, jy, jz = angular_momentum_j2()
        j2 = jx @ jx + jy @ jy + jz @ jz
        assert np.abs(j2 - 6.0 * np.eye(5)).max() < 1e-12
        # eigenvalue content of the real generators matches -i*J_k
        for g, j in zip(GEN, (jx, jy, jz)):
            ev_real = np.linalg.eigvals(g)
            ev_cplx = np.linalg.eigvals(-1j * j)
            assert np.abs(ev_real.real).max() < 1e-12
            assert np.allclose(np.sort(ev_real.imag), np.sort(ev_cplx.imag),
                               atol=1e-12)


class TestClosedForm:
    def test_zero_field(self):
        assert alignment_signal_shape(0, 0, 0) == 0.0

    def test_pure_bz(self):
        # 0.5*(1+0.25) / ((1+1)*(1.25)) = 0.25, frozen from 40-digit evaluation
        assert alignment_signal_shape(0, 0, 0.5) == pytest.approx(
            0.25, abs=1e-12)

    def test_point_values_frozen(self):
        # mpmath 40-digit oracle values
        assert alignment_signal_shape(1.0, 0.1, 0.0) == pytest.approx(
            -0.04915896706941483, rel=1e-12)
        assert alignment_signal_shape(0.3, -0.2, 0.1) == pytest.approx(
            0.12179487179487179, rel=1e-12)

    def test_odd_in_bx_at_zero_bz(self):
        rng = np.random.default_rng(3)
        bx, by = rng.uniform(-3, 3, (2, 200))
        f = alignment_signal_shape(bx, by, 0.0)
        g = alignment_signal_shape(-bx, by, 0.0)
        assert np.abs(f + g).max() < 1e-12

    def test_even_part_only_from_bz(self):
        rng = np.random.default_rng(4)
        bx, by, bz = rng.uniform(-3, 3, (3, 200))
        even = 0.5 * (alignment_signal_shape(bx, by, bz)
                      + alignment_signal_shape(-bx, by, bz))
        # the even-in-bx part equals the by -> 0 independent bz term
        expect = bz * (1 + 4 * bx**2 + by**2 + bz**2) / (
            (4 * bx**2 + 4 * (by**2 + bz**2) + 1) * (bx**2 + by**2 + bz**2 + 1))
        assert np.abs(even - expect).max() < 1e-12


class TestOrientationSteadyState:
    P = EnsembleParams(relax_rate=50.0, m0=0.8)

    def test_zero_field(self):
        mx, my, mz = orientation_steady_state(0, 0, 0, self.P)
        assert mx == pytest.approx(0.0, abs=1e-15)
        assert my == pytest.approx(0.0, abs=1e-15)
        assert mz == pytest.approx(self.P.m0, rel=1e-14)

    def test_half_width_point(self):
        # gamma*Bx = Gamma: mz = m0/2, |my| = m0/2
        bx = self.P.width_nt
        mx, my, mz = orientation_steady_state(bx, 0, 0, self.P)
        assert mz == pytest.approx(self.P.m0 / 2, rel=1e-12)
        assert abs(my) == pytest.approx(self.P.m0 / 2, rel=1e-12)
        assert my > 0  # frozen sign of the M x B convention
        assert mx == pytest.approx(0.0, abs=1e-15)

    def test_no_x_projection_for_x_field(self):
        for bx in (-30.0, -2.0, 5.0, 100.0):
            mx = orientation_steady_state(bx, 0, 0, self.P)[0]
            assert mx == pytest.approx(0.0, abs=1e-14)

    def test_direct_linear_solve_oracle(self):
        # brute-force oracle: residual of the Bloch equation at the solution
        rng = np.random.default_rng(11)
        for _ in range(50):
            B = rng.uniform(-40, 40, 3)
            m = orientation_steady_state(*B, self.P)
            torque = self.P.gamma_rad * np.cross(m, B)
            relax = self.P.relax_rate * (m - self.P.m0 * np.array([0.0, 0.0, 1.0]))
            assert np.abs(torque - relax).max() < 1e-10

    def test_contraction(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            B = rng.uniform(-100, 100, 3)
            m = orientation_steady_state(*B, self.P)
            assert np.linalg.norm(m) <= self.P.m0 * (1 + 1e-12)

    def test_linear_in_m0(self):
        B = (3.0, -1.0, 2.0)
        m1 = orientation_steady_state(*B, self.P)
        m2 = orientation_steady_state(*B, replace(self.P, m0=2 * self.P.m0))
        assert np.allclose(m2, 2 * m1, rtol=1e-13)

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(13)
        b = rng.uniform(-30, 30, (40, 3))
        grid = orientation_steady_state_grid(b[:, 0], b[:, 1], b[:, 2], self.P)
        for i in range(40):
            m = orientation_steady_state(*b[i], self.P)
            assert np.allclose(grid[i], m, rtol=1e-11, atol=1e-13)


class TestAlignmentSteadyState:
    P = EnsembleParams(relax_rate=40.0, a0=0.7)

    def test_zero_field_equilibrium(self):
        m = alignment_steady_state(0, 0, 0, self.P)
        assert np.allclose(m, self.P.a0 * ALIGNMENT_PUMP_X, atol=1e-14)

    def test_matches_closed_form_on_grid(self):
        # core oracle equivalence: m2s is proportional to the closed form
        ax = np.linspace(-3, 3, 21)
        bx, by, bz = np.meshgrid(ax, ax, ax, indexing="ij")
        f = self.P.width_nt  # nT per unit of b
        m = alignment_steady_state_grid(bx * f, by * f, bz * f, self.P)
        shape = alignment_signal_shape(bx, by, bz)
        obs = m[..., 4]
        mask = np.abs(shape) > 1e-12
        cal = float(np.sum(obs[mask] * shape[mask]) / np.sum(shape[mask] ** 2))
        rel = np.abs(cal * shape[mask] - obs[mask]) / np.abs(obs[mask])
        assert rel.max() < 1e-6
        assert cal == pytest.approx(self.P.a0 / ALIGNMENT_SIGNAL_CALIBRATION, rel=1e-9)

    def test_calibration_constant(self):
        b = (0.7, -0.4, 0.2)
        f = self.P.width_nt
        m = alignment_steady_state(*(v * f for v in b), self.P)
        assert ALIGNMENT_SIGNAL_CALIBRATION * m[4] / self.P.a0 == pytest.approx(
            alignment_signal_shape(*b), rel=1e-12)

    def test_observable_odd_parity(self):
        f = self.P.width_nt
        m_plus = alignment_steady_state(1.3 * f, 0.5 * f, 0, self.P)
        m_minus = alignment_steady_state(-1.3 * f, 0.5 * f, 0, self.P)
        assert m_plus[4] == pytest.approx(-m_minus[4], rel=1e-12)

    @pytest.mark.parametrize("phi", [0.0, 0.7, 1.9, 3.3, 5.1])
    def test_grid_at_magic_angle_far_off_resonance(self, phi):
        # ~10^3 widths at the magic angle to the pump axis x, where the
        # kernel part P0 p vanishes and m2 is only O(width/|B|)
        p = EnsembleParams(relax_rate=10.0, relax_ratio_alignment=0.5,
                           gamma_over_2pi=5.0)
        theta = math.acos(1.0 / math.sqrt(3.0))
        n = np.array([math.cos(theta), math.sin(theta) * math.cos(phi),
                      math.sin(theta) * math.sin(phi)])
        B = 100.0 * math.sqrt(3.0) * n
        grid = alignment_steady_state_grid(*B, p)
        ref = alignment_steady_state(*B, p)
        assert np.max(np.abs(grid - ref)) <= 1e-12 * np.linalg.norm(ref)

    def test_grid_shape_contract(self):
        assert alignment_steady_state_grid(1.0, -2.0, 0.5, self.P).shape == (5,)
        bx = np.linspace(-5.0, 5.0, 12).reshape(3, 4)
        m = alignment_steady_state_grid(bx, 0.3, -bx, self.P)
        assert m.shape == (3, 4, 5)
        assert np.array_equal(m[1, 2], alignment_steady_state_grid(bx[1, 2], 0.3,
                                                                   -bx[1, 2], self.P))
        for zero in (alignment_steady_state_grid(0.0, 0.0, 0.0, self.P),
                     alignment_steady_state_grid(np.zeros((2, 3)), 0.0, 0.0, self.P)[1, 2]):
            assert np.array_equal(zero, self.P.a0 * ALIGNMENT_PUMP_X)

    def test_linear_in_a0(self):
        from dataclasses import replace
        B = (5.0, 2.0, -3.0)
        m1 = alignment_steady_state(*B, self.P)
        m2 = alignment_steady_state(*B, replace(self.P, a0=2 * self.P.a0))
        assert np.allclose(m2, 2 * m1, rtol=1e-13)


class TestEnsembleParams:
    def test_width_normalizes_field(self):
        # b = gamma*B/relax_rate is 1 at B = width_nt
        p = EnsembleParams(gamma_over_2pi=1.27, relax_rate=2 * math.pi * 1.27 * 10.0)
        assert p.width_nt == pytest.approx(10.0, rel=1e-12)
        assert p.gamma_rad * 10.0 / p.relax_rate == pytest.approx(1.0, rel=1e-12)


class TestSignals:
    def test_zero(self):
        st, sb = signals_from_state(np.zeros(3), np.zeros(5),
                                    SignalMix(baseline_t=0, baseline_b=0))
        assert st == 0.0 and sb == 0.0

    def test_tracks_closed_form(self):
        p = EnsembleParams(relax_rate=30.0)
        mix = SignalMix(c_al=2.0, c_or=0.0)
        f = p.width_nt
        b = (0.9, 0.2, -0.1)
        m2 = alignment_steady_state(*(v * f for v in b), p)
        _, sb = signals_from_state(np.zeros(3), m2, mix)
        expect = 2.0 * alignment_signal_shape(*b) / ALIGNMENT_SIGNAL_CALIBRATION
        assert sb == pytest.approx(expect, rel=1e-12)

    def test_experiment_scale_preset(self):
        mix = StudyPreset().signal_mix()
        p = EnsembleParams()
        m2_eq = alignment_steady_state(0, 0, 0, p)
        st, _ = signals_from_state(np.zeros(3), m2_eq, mix)
        assert st == pytest.approx(6.0, rel=1e-6)
        # max alignment swing of S_B across a bx scan at by_eff_norm = 0.1
        bx = np.linspace(-5, 5, 2001) * p.width_nt
        m = alignment_steady_state_grid(bx, 0.1 * p.width_nt, 0.0, p)
        swing = np.max(np.abs(mix.c_al * m[:, 4]))
        assert swing == pytest.approx(0.3, rel=1e-3)

    def test_preset_c_al_is_the_oracle_lineshape_peak(self):
        # the literal c_al: 0.3 over max |m2s| on the 4,001-point bx grid on
        # +-5 at normalized b_y = 0.1
        bx = np.linspace(-5.0, 5.0, 4001)
        peak = np.max(np.abs(alignment_signal_shape(bx, 0.1, 0.0)))
        peak /= abs(ALIGNMENT_SIGNAL_CALIBRATION)
        assert StudyPreset().signal_mix().c_al == 0.3 / peak

    def test_rows_match_batch(self):
        rng = np.random.default_rng(5)
        m1, m2 = rng.normal(size=(40, 3)), rng.normal(size=(40, 5))
        mix = SignalMix(c_al=1.3, c_or=0.4, c_t=0.8, baseline_t=6.5, baseline_b=0.1)
        st, sb = signals_from_state(m1, m2, mix)
        for i in range(40):
            assert (st[i], sb[i]) == signals_from_state(m1[i], m2[i], mix)


class TestValidation:
    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            EnsembleParams(relax_rate=0.0)
        with pytest.raises(TypeError):
            EnsembleParams(pump_axis=(0.0, 0.0, 1.0))  # the pump is along z

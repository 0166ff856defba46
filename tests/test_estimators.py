import math

import pytest
import scipy.constants

from alignor.estimators import (
    ATMOSPHERE,
    BOHR_MAGNETON,
    BOLTZMANN,
    MU_0,
    BroadeningBudget,
    DipoleConfig,
    broadening_rate,
    circular_power,
    cs_number_density,
    cs_vapor_pressure_pa,
    dipole_field,
    ensemble_volume,
    point_dipole_validity,
)


class TestCircularPower:
    def test_linear_pump_gives_zero(self):
        assert circular_power(2.0, 0.0) == 0.0

    def test_quarter_wave_is_fully_circular(self):
        assert circular_power(2.0, 45.0) == pytest.approx(2.0)

    def test_small_angle(self):
        assert circular_power(2.0, 0.25) == pytest.approx(2.0 * math.sin(math.radians(0.5)))
        assert circular_power(2.0, 0.25) == pytest.approx(0.01745, abs=2e-5)

    def test_sign_insensitive(self):
        assert circular_power(2.0, -10.0) == circular_power(2.0, 10.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            circular_power(2.0, 46.0)


class TestBroadeningRate:
    def test_defaults_near_four(self):
        rate = broadening_rate(BroadeningBudget())
        assert rate == pytest.approx((30.0 + 0.3 * 90.0) * 2.0 * 2.0 * math.pi / 180.0)
        assert rate == pytest.approx(3.98, abs=0.01)

    def test_pure_light_broadening(self):
        rate = broadening_rate(BroadeningBudget(k_serf=0.0))
        assert rate == pytest.approx(30.0 * 2.0 * 2.0 * math.pi / 180.0)
        assert rate == pytest.approx(2.09, abs=0.01)

    def test_no_pump_no_broadening(self):
        assert broadening_rate(BroadeningBudget(p_in=0.0)) == 0.0

    def test_matches_finite_difference_of_power_routes(self):
        # small-chi slope of k_lb*P_C + k_serf*k_ls*P_C
        b = BroadeningBudget()
        dchi = 1e-4
        pc = circular_power(b.p_in, dchi)
        slope = (b.k_lb + b.k_serf * b.k_ls) * pc / dchi
        assert broadening_rate(b) == pytest.approx(slope, rel=1e-6)

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            BroadeningBudget(k_lb=-1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="p_in"):
            BroadeningBudget(p_in=-3.0)


class TestDipoleField:
    def test_reference_scale_field(self):
        b = dipole_field(DipoleConfig(n_atoms=5e11, distance_mm=1.0))
        # independent evaluation with mu0/4pi ~ 1e-7 (exact pre-2019, ~1e-10 off now)
        assert b == pytest.approx(1e-7 * 2.0 * 5e11 * BOHR_MAGNETON / 1e-9 * 1e9, rel=1e-9)
        assert 0.85 <= b <= 1.0

    def test_inverse_cube(self):
        near = dipole_field(DipoleConfig(n_atoms=5e11, distance_mm=1.0))
        far = dipole_field(DipoleConfig(n_atoms=5e11, distance_mm=2.0))
        assert far == pytest.approx(near / 8.0)

    def test_equatorial_is_half(self):
        axial = dipole_field(DipoleConfig(n_atoms=5e11, distance_mm=1.0))
        equat = dipole_field(DipoleConfig(n_atoms=5e11, distance_mm=1.0, geometry="equatorial"))
        assert equat == pytest.approx(axial / 2.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DipoleConfig(n_atoms=0, distance_mm=1.0)
        with pytest.raises(ValueError):
            DipoleConfig(n_atoms=1e11, distance_mm=1.0, geometry="sideways")


class TestEnsembleVolume:
    def test_reference_values(self):
        vol, side = ensemble_volume(5e11, 2e14)
        assert vol == pytest.approx(2.5)
        assert side == pytest.approx(1.357, abs=1e-3)

    def test_unit_cube(self):
        vol, side = ensemble_volume(2e14, 2e14)
        assert vol == pytest.approx(1000.0)
        assert side == pytest.approx(10.0)

    def test_validity_ratio_marginal(self):
        _, side = ensemble_volume(5e11, 2e14)
        ratio, verdict = point_dipole_validity(1.0, side)
        assert ratio == pytest.approx(1.47, abs=0.01)
        assert verdict == "marginal"

    def test_validity_extremes(self):
        assert point_dipole_validity(10.0, 1.0)[1] == "good"
        assert point_dipole_validity(0.1, 1.0)[1] == "invalid"

    def test_bad_density(self):
        with pytest.raises(ValueError):
            ensemble_volume(1e11, 0.0)

    @pytest.mark.parametrize("n_atoms", [0.0, -1.0])
    def test_nonpositive_atom_count_rejected(self, n_atoms):
        with pytest.raises(ValueError, match="n_atoms"):
            ensemble_volume(n_atoms, 2e14)


class TestVaporDensity:
    def test_density_anchor_145c(self):
        n = cs_number_density(145.0)
        assert abs(n - 1.8e14) / 1.8e14 < 0.15

    def test_density_anchor_150c(self):
        n = cs_number_density(150.0)
        assert abs(n - 2.2e14) / 2.2e14 < 0.15

    def test_monotonic_in_temperature(self):
        densities = [cs_number_density(t) for t in range(20, 250, 10)]
        assert all(b > a for a, b in zip(densities, densities[1:]))

    def test_pressure_positive_and_small(self):
        p = cs_vapor_pressure_pa(145.0)
        assert 0.0 < p < 101325.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cs_number_density(-10.0)
        with pytest.raises(ValueError):
            cs_number_density(300.0)


def test_codata_literals_equal_scipy_constants():
    # bit for bit: the literals replace scipy.constants at run time
    assert BOLTZMANN == scipy.constants.Boltzmann
    assert ATMOSPHERE == scipy.constants.atmosphere
    assert MU_0 == scipy.constants.mu_0
    assert BOHR_MAGNETON == scipy.constants.physical_constants["Bohr magneton"][0]

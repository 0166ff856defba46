"""Physical back-of-the-envelope calculators for the cesium vapor experiment.

Covers the quantitative estimates used alongside the simulations: circular
pump power, resonance broadening budget, point-dipole field of a polarized
sub-ensemble, the volume that ensemble occupies, and the saturated Cs vapor
density.
"""

from dataclasses import dataclass
import math

# CODATA 2022 values in SI units (the tests hold them to scipy.constants)
BOLTZMANN = 1.380649e-23          # J/K, exact
ATMOSPHERE = 101325.0             # Pa, exact
MU_0 = 1.25663706127e-06          # N/A^2, vacuum magnetic permeability
BOHR_MAGNETON = 9.2740100657e-24  # J/T

DEG = math.pi / 180.0
ZERO_CELSIUS_K = 273.15     # K
MAX_ELLIPTICITY_DEG = 45.0  # |chi| of circular light


@dataclass(frozen=True)
class BroadeningBudget:
    """Coefficients of the resonance broadening budget.

    k_lb: direct broadening by the circular pump component, nT/mW.
    k_serf: broadening per nT of total field (spin-exchange suppression
        degradation), nT/nT.
    k_ls: light-shift field per mW of circular power, nT/mW.
    """

    p_in: float = 2.0        # mW
    k_lb: float = 30.0
    k_serf: float = 0.3
    k_ls: float = 90.0

    def __post_init__(self):
        if self.p_in < 0:
            raise ValueError("p_in must be >= 0")
        if min(self.k_lb, self.k_serf, self.k_ls) < 0:
            raise ValueError("broadening coefficients must be >= 0")


DIPOLE_GEOMETRIES = ("on_axis", "equatorial")


@dataclass(frozen=True)
class DipoleConfig:
    """Point-dipole field estimate inputs."""

    n_atoms: float
    distance_mm: float
    geometry: str = "on_axis"   # one of DIPOLE_GEOMETRIES

    def __post_init__(self):
        if self.n_atoms <= 0 or self.distance_mm <= 0:
            raise ValueError("n_atoms and distance_mm must be > 0")
        if self.geometry not in DIPOLE_GEOMETRIES:
            raise ValueError(f"geometry must be one of {DIPOLE_GEOMETRIES}")


def circular_power(p_in: float, chi_deg: float) -> float:
    """Power of the circular pump component, p_in * sin|2*chi| (mW)."""
    if abs(chi_deg) > MAX_ELLIPTICITY_DEG:
        raise ValueError(f"|chi_deg| must be <= {MAX_ELLIPTICITY_DEG:g}")
    return p_in * math.sin(abs(2.0 * chi_deg) * DEG)


def broadening_rate(b: BroadeningBudget) -> float:
    """Total resonance broadening slope in nT per degree of ellipticity.

    Small-angle limit of d/dchi of the circular-power and light-shift routes:
    (k_lb + k_serf * k_ls) * p_in * 2 * pi/180.
    """
    return (b.k_lb + b.k_serf * b.k_ls) * b.p_in * 2.0 * DEG


def dipole_field(d: DipoleConfig) -> float:
    """Magnetic field of the polarized sub-ensemble treated as a point dipole, nT.

    Each atom carries one Bohr magneton.
    """
    m = d.n_atoms * BOHR_MAGNETON
    l = d.distance_mm * 1e-3
    b = MU_0 / (4.0 * math.pi) * m / l**3
    if d.geometry == "on_axis":
        b *= 2.0
    return b * 1e9


def ensemble_volume(n_atoms: float, density_cm3: float) -> tuple[float, float]:
    """Volume (mm^3) and cube side (mm) occupied by n_atoms at the given density."""
    if n_atoms <= 0:
        raise ValueError("n_atoms must be > 0")
    if density_cm3 <= 0:
        raise ValueError("density must be > 0")
    volume_mm3 = n_atoms / density_cm3 * 1e3
    return volume_mm3, volume_mm3 ** (1.0 / 3.0)


def point_dipole_validity(distance_mm: float, cube_side_mm: float) -> tuple[float, str]:
    """Ratio l/(L/2) and a qualitative verdict on the point-dipole treatment."""
    ratio = distance_mm / (cube_side_mm / 2.0)
    if ratio >= 5.0:
        verdict = "good"
    elif ratio >= 1.0:
        verdict = "marginal"
    else:
        verdict = "invalid"
    return ratio, verdict


def cs_vapor_pressure_pa(t_celsius: float) -> float:
    """Saturated Cs vapor pressure over the liquid phase, Pa.

    Alcock, Itkin and Horrigan correlation for liquid cesium:
    log10 p[atm] = 8.232 - 4062/T - 1.3359 log10 T.
    """
    if not 0.0 <= t_celsius <= 250.0:
        raise ValueError("temperature outside the 0-250 C liquid-phase window")
    t = t_celsius + ZERO_CELSIUS_K
    return ATMOSPHERE * 10.0 ** (8.232 - 4062.0 / t - 1.3359 * math.log10(t))


def cs_number_density(t_celsius: float) -> float:
    """Saturated Cs vapor number density in cm^-3 (ideal gas)."""
    t = t_celsius + ZERO_CELSIUS_K
    return cs_vapor_pressure_pa(t_celsius) / (BOLTZMANN * t) * 1e-6

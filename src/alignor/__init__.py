"""alignor: simulation and analysis of bistable hysteresis scan records.

A numpy-only toolkit modeling coexisting rank-1 (orientation) and rank-2
(alignment) spin moments in an optically pumped vapor, the measurement
chain that observes them (field sweeps, lock-in demodulation, filtering),
the nonlinear fits that reduce the demodulated contours, and the physical
back-of-the-envelope estimators that accompany them.
"""

from .dynamics import (
    CouplingParams,
    SweepProtocol,
    UnreachableThresholdError,
    default_tau_flip,
    effective_field_from_transient,
    effective_params,
    predict_flip_field,
    sweep_profile,
)
from .estimators import (
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
from .fitkit import (
    CompositeContourModel,
    DegenerateFitError,
    FitResult,
    TransitionResult,
    composite_eval,
    extract_transition,
    fit_record,
    fit_trend,
    levenberg_marquardt,
)
from .instrument import (
    DemodRecord,
    FlipEvent,
    ScanConfig,
    ScanRecord,
    Trajectory,
    lockin_demodulate,
    lowpass_filter,
    lowpass_rise_time,
    run_sweep,
    synthesize_record,
)
from .plotsvg import Series, emit_plot
from .recordio import (
    load_config,
    parse_config,
    read_record,
    write_record,
)
from .spincore import (
    EnsembleParams,
    SignalMix,
    alignment_steady_state_grid,
    orientation_steady_state_grid,
    signals_from_state,
)
from .study import (
    StudyConfig,
    StudyPreset,
    StudyResult,
    measure_point,
    report,
    run_study,
    study_config_from_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BroadeningBudget", "CompositeContourModel", "CouplingParams",
    "DegenerateFitError", "DemodRecord", "DipoleConfig", "EnsembleParams",
    "FitResult", "FlipEvent", "ScanConfig", "ScanRecord", "Series",
    "SignalMix", "StudyConfig", "StudyPreset", "StudyResult",
    "SweepProtocol", "Trajectory", "TransitionResult",
    "UnreachableThresholdError", "alignment_steady_state_grid",
    "broadening_rate", "circular_power",
    "composite_eval", "cs_number_density", "cs_vapor_pressure_pa",
    "default_tau_flip", "dipole_field",
    "effective_field_from_transient", "effective_params", "emit_plot",
    "ensemble_volume", "extract_transition", "fit_record", "fit_trend",
    "levenberg_marquardt", "load_config", "lockin_demodulate",
    "lowpass_filter", "lowpass_rise_time", "measure_point",
    "orientation_steady_state_grid", "parse_config",
    "point_dipole_validity", "predict_flip_field", "read_record", "report",
    "run_study", "run_sweep", "signals_from_state",
    "study_config_from_dict", "sweep_profile", "synthesize_record",
    "write_record",
]

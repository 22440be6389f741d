"""Crash mechanisms as phase transitions: simulators, calibration, signals.

The package simulates three routes to a market crash (time-dependent
drift, growing volatility, evolving noise law), calibrates the
log-periodic power-law bubble model, computes rolling early-warning
signals including structure-function scaling exponents, and runs a
pre-crash versus normal-time trend comparison on price panels.
"""

from .errors import (
    ComputationError,
    CsvParseError,
    DegenerateDesignError,
    FitFailureError,
    GenerationError,
    InsufficientDataError,
    PhasecrashError,
    SimulationOverflowError,
)
from .ews import (
    EwsSeries,
    PriceSeries,
    WindowConfig,
    anomalous_dimension,
    conformality_index,
    cross_covariance,
    generalized_hurst,
    rolling_lag1_autocorr,
    rolling_skewness,
    rolling_volatility,
)
from .lppl import (
    HazardParams,
    LpplFit,
    LpplParams,
    SearchConfig,
    fit_lppl,
    hazard_rate,
    lppl_log_price,
    power_law_ssr,
    solve_linear_params,
)
from .noise import (
    HurstSchedule,
    NoisePath,
    Ramp,
    StableSchedule,
    sample_alpha_stable,
    sample_gaussian_increments,
    synth_fbm,
)
from .simulate import (
    CptParams,
    DptParams,
    MultiParams,
    MuSchedule,
    SimPath,
    SptParams,
    simulate_cpt,
    simulate_dpt,
    simulate_multivariate,
    simulate_spt,
)
from .study import (
    CrashEvent,
    StudyConfig,
    TrendReport,
    detect_crashes,
    detect_panel,
    kendall_tau_trend,
    run_study,
    segment_windows,
)

__version__ = "0.21.0"

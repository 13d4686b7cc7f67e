"""Modal analysis and short-horizon forecasting of multivariate time series.

Exact dynamic mode decomposition over snapshot pairs, its Hankel (delay
embedded) extension for forecasting, a stochastic ensemble variant with
uncertainty bands, three evaluation metrics, and a sweep harness.
"""

from .dmd import (
    DmdModel,
    RankPolicy,
    SnapshotPair,
    continuous_eigenvalues,
    fit_exact_dmd,
    forecast,
)
from .errors import (
    DegenerateDataError,
    EnsembleError,
    InstabilityWarning,
    ParseError,
    ValidationError,
)
from .hankel import HdmdConfig, HdmdForecaster, build_hankel_pair, fit_hdmd, predict
from .harness import (
    BoxplotStats,
    SweepPlan,
    SweepResult,
    boxplot_stats,
    compare_filtered_unfiltered,
    random_test_instants,
    run_sweep,
)
from .metrics import MetricsReport, evaluate_all, jsd, nammae, nrmse
from .modal import (
    ModalReport,
    SpectrumPeak,
    WelchSpec,
    group_conjugate_pairs,
    modal_energy_ranking,
    reference_period,
)
from .series import (
    FilterSpec,
    MultivariateSeries,
    ZScoreStats,
    load_csv,
    lowpass_filter,
    resample_uniform,
    write_csv,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from .stochastic import (
    ShdmdConfig,
    StochasticForecast,
    chebyshev_band,
    sample_hyperparams,
    shdmd_forecast,
)
from .synth import GroundTruth, SynthSpec, demo_dataset, generate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MultivariateSeries", "ZScoreStats", "FilterSpec",
    "load_csv", "write_csv", "resample_uniform",
    "zscore_fit", "zscore_apply", "zscore_invert", "lowpass_filter",
    "SnapshotPair", "RankPolicy", "DmdModel",
    "fit_exact_dmd", "continuous_eigenvalues", "forecast",
    "HdmdConfig", "HdmdForecaster", "build_hankel_pair", "fit_hdmd", "predict",
    "ShdmdConfig", "StochasticForecast",
    "sample_hyperparams", "shdmd_forecast", "chebyshev_band",
    "MetricsReport", "nrmse", "nammae", "jsd", "evaluate_all",
    "ModalReport", "SpectrumPeak", "WelchSpec",
    "modal_energy_ranking", "group_conjugate_pairs", "reference_period",
    "SweepPlan", "SweepResult", "BoxplotStats",
    "random_test_instants", "run_sweep", "boxplot_stats", "compare_filtered_unfiltered",
    "SynthSpec", "GroundTruth", "generate", "demo_dataset",
    "ValidationError", "ParseError", "DegenerateDataError", "EnsembleError",
    "InstabilityWarning",
]

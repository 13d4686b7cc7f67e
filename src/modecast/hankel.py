"""Delay embedding and the Hankel-DMD forecaster.

The original state is augmented with time-delayed copies of itself, stacked
so the top block holds the newest samples, and the decomposition is fitted
on the resulting Hankel matrices. Training runs on a z-scored window of the
record; predictions extract the undelayed top block and map it back to
physical units.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dmd import DEFAULT_RANK_POLICY, DmdModel, RankPolicy, SnapshotPair, fit_exact_dmd, forecast
from .errors import ValidationError
from .series import GRID_EPS, MultivariateSeries, ZScoreStats, write_json, zscore_fit

__all__ = [
    "HdmdConfig",
    "HdmdForecaster",
    "n_samples_floor",
    "hankel_shape_error",
    "pool_map",
    "build_hankel_pair",
    "fit_hdmd",
    "predict",
]

# Stds below this are treated as constant channels and bypassed with unit
# scale instead of rejected, so flat channels forecast their own constant.
EPS_STD = 1e-12

# A snapshot pair needs at least this many columns (see SnapshotPair).
MIN_HANKEL_COLS = 2


def n_samples_floor(length_s: float, dt: float) -> int:
    """Duration in seconds to sample count, taking the integer part."""
    if not (dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    return int(math.floor(length_s / dt + GRID_EPS))


def hankel_shape_error(n_tr: int, n_d: int) -> str:
    """Why n_tr samples cannot embed n_d delays, or '' when they can.

    The Hankel pair built from them has n_tr - 1 - n_d columns, and a
    snapshot pair needs at least MIN_HANKEL_COLS.
    """
    if n_d < 0:
        return f"n_d must be >= 0, got {n_d}"
    cols = n_tr - 1 - n_d
    if cols < MIN_HANKEL_COLS:
        return (
            f"{n_tr} samples with n_d={n_d} delays leave {cols} Hankel columns; "
            f"need at least {n_d + 1 + MIN_HANKEL_COLS} samples"
        )
    return ""


def pool_map(fn, items, workers: int | None) -> list:
    """[fn(x) for x in items], on a pool of `workers` threads unless workers
    is at most 1 (None: ThreadPoolExecutor's default size)."""
    if workers is None or workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


@dataclass(frozen=True)
class HdmdConfig:
    """Training-window length and delay depth, in samples.

    n_tr is the number of training samples, n_d the number of delayed
    copies embedded in the augmented state; hankel_shape_error states
    which pairs fit.
    """

    n_tr: int
    n_d: int
    rank_policy: RankPolicy = DEFAULT_RANK_POLICY

    def __post_init__(self):
        reason = hankel_shape_error(self.n_tr, self.n_d)
        if reason:
            raise ValidationError(reason)

    @classmethod
    def from_seconds(
        cls,
        l_tr: float,
        l_d: float,
        dt: float,
        rank_policy: RankPolicy = DEFAULT_RANK_POLICY,
    ) -> "HdmdConfig":
        return cls(n_samples_floor(l_tr, dt), n_samples_floor(l_d, dt), rank_policy)


@dataclass(frozen=True)
class HdmdForecaster:
    """Fitted decomposition over the augmented state plus everything needed
    to turn its forecasts back into physical-unit series."""

    config: HdmdConfig
    model: DmdModel
    stats: ZScoreStats
    channels: tuple[str, ...]
    dt: float
    t_end: float

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def to_dict(self) -> dict:
        doc = self.model.to_dict()
        doc["n_d"] = self.config.n_d
        doc["n_tr"] = self.config.n_tr
        doc["channels"] = list(self.channels)
        return doc

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())


def build_hankel_pair(series: MultivariateSeries, n_d: int) -> SnapshotPair:
    """Arrange a series and n_d delayed copies as a shifted Hankel pair.

    The top block row holds the most recent copy and each block below is
    delayed one more sample; the companion matrix is the same embedding
    shifted one sample forward. Shapes: n_channels * (n_d + 1) rows and
    m - 1 - n_d columns for a series of m samples.
    """
    m = series.n_samples
    reason = hankel_shape_error(m, n_d)
    if reason:
        raise ValidationError(reason)
    n = series.n_channels
    width = m - n_d  # columns of the full embedding; the pair shares m-1-n_d
    emb = np.empty((n * (n_d + 1), width))
    for j in range(n_d + 1):
        emb[j * n : (j + 1) * n] = series.values[:, n_d - j : m - j]
    return SnapshotPair(emb[:, :-1], emb[:, 1:], series.dt)


def fit_hdmd(
    series: MultivariateSeries,
    config: HdmdConfig,
    t_end: float,
) -> HdmdForecaster:
    """Fit on the window of config.n_tr samples ending at t_end.

    The window is z-scored with its own statistics, embedded per the
    config's delay depth, and decomposed; amplitudes are initialized with
    the final augmented snapshot so predictions continue the window.
    """
    i_end = series.sample_index(t_end)
    i_start = i_end - config.n_tr + 1
    if i_start < 0:
        raise ValidationError(
            f"training window of {config.n_tr} samples ending at t={t_end} "
            "starts before the record"
        )
    window = series.window(i_start, i_end + 1)
    stats = zscore_fit(window, eps_std=EPS_STD)
    normalized = (window.values - stats.mean[:, None]) / stats.std[:, None]
    pair = build_hankel_pair(window.with_values(normalized), config.n_d)
    model = fit_exact_dmd(pair, config.rank_policy)
    return HdmdForecaster(
        config=config,
        model=model,
        stats=stats,
        channels=series.channels,
        dt=series.dt,
        t_end=series.t0 + i_end * series.dt,
    )


def predict(forecaster: HdmdForecaster, horizon: float) -> MultivariateSeries:
    """Forecast the undelayed state over the given horizon in seconds.

    The augmented state is propagated by discrete eigenvalue powers; only
    the top (most recent) block is retained and mapped back to physical
    units. The first output sample sits at t_end + dt.
    """
    if horizon < forecaster.dt:
        raise ValidationError(
            f"horizon {horizon} shorter than one sample interval {forecaster.dt}"
        )
    n_steps = n_samples_floor(horizon, forecaster.dt)
    model = forecaster.model
    # Propagating only the top block equals slicing the full augmented
    # forecast: the block rows of Phi act independently on the modal
    # dynamics.
    top = forecast(replace(model, modes=model.modes[: forecaster.n_channels]), n_steps)
    values = top * forecaster.stats.std[:, None] + forecaster.stats.mean[:, None]
    return MultivariateSeries(
        forecaster.channels, forecaster.dt, values, t0=forecaster.t_end + forecaster.dt
    )

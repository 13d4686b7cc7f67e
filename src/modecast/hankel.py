"""Delay embedding and the Hankel-DMD forecaster.

The original state is augmented with time-delayed copies of itself, stacked
so the top block holds the newest samples, and the decomposition is fitted
on the resulting Hankel matrices. Training runs on a z-scored window of the
record; predictions extract the undelayed top block and map it back to
physical units.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dmd import DEFAULT_RANK_POLICY, DmdModel, RankPolicy, SnapshotPair, fit_exact_dmd, forecast
from .errors import ValidationError
from .series import (
    GRID_EPS, MultivariateSeries, ZScoreStats, write_json, zscore_apply, zscore_fit, zscore_invert,
)

__all__ = [
    "HdmdConfig",
    "HdmdForecaster",
    "n_samples_floor",
    "hankel_shape_error",
    "usable_cores",
    "blas_threads",
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


# numpy's bundled OpenBLAS, the BLAS its linalg runs on, and its thread controls.
_OPENBLAS_GLOB = "numpy.libs/libscipy_openblas64_*"
_OPENBLAS_GET = "scipy_openblas_get_num_threads64_"
_OPENBLAS_SET = "scipy_openblas_set_num_threads64_"
_blas_lock = threading.Lock()
_blas_controls = None  # (get, set) once looked up; () when there is no OpenBLAS
_blas_depth = 0  # pool_map calls running on the pinned count
_blas_saved = 0  # the count to restore when the last of them returns


def _openblas():
    """numpy's OpenBLAS (get, set) thread-count functions, or () without one.

    Looked up on first use, under _blas_lock, so importing the package
    loads nothing.
    """
    global _blas_controls
    if _blas_controls is None:
        _blas_controls = ()
        for path in sorted(Path(np.__file__).parent.parent.glob(_OPENBLAS_GLOB)):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            if hasattr(lib, _OPENBLAS_GET) and hasattr(lib, _OPENBLAS_SET):
                get, set_ = getattr(lib, _OPENBLAS_GET), getattr(lib, _OPENBLAS_SET)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                _blas_controls = (get, set_)
                break
    return _blas_controls


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS runs on now; None without OpenBLAS."""
    with _blas_lock:
        controls = _openblas()
    return controls[0]() if controls else None


@contextmanager
def _single_threaded_blas():
    """Pin numpy's OpenBLAS to one thread; the last of overlapping callers
    to leave restores the count the first one found. No-op without OpenBLAS."""
    global _blas_depth, _blas_saved
    with _blas_lock:
        controls = _openblas()
        if controls and _blas_depth == 0:
            _blas_saved = controls[0]()
            controls[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if controls and _blas_depth == 0:
                controls[1](_blas_saved)


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_map(fn, items, workers: int | None) -> list:
    """[fn(x) for x in items], with numpy's OpenBLAS on one thread.

    Runs on a pool of min(workers, len(items)) threads, or serially when
    that is at most 1; workers=None means usable_cores(). BLAS is pinned to
    one thread for the whole call at every pool size, so results are
    bitwise equal whatever workers is, and the pool threads do not each
    start their own BLAS threads. The caller's BLAS thread count is
    restored on return; BLAS calls the caller makes from other threads
    meanwhile run single-threaded too.
    """
    items = list(items)
    n_threads = min(usable_cores() if workers is None else workers, len(items))
    with _single_threaded_blas():
        if n_threads > 1:
            with ThreadPoolExecutor(max_workers=n_threads) as pool:
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
    config's delay depth, and decomposed; forecasts start from the final
    augmented snapshot so predictions continue the window.
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
    pair = build_hankel_pair(zscore_apply(window, stats), config.n_d)
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

    The model's recurrence is propagated (dmd.forecast: the reduced
    recurrence, or eigenvalue powers on the modal route) and read out on
    the top (most recent) block only, which is mapped back to physical
    units. The first output sample sits at t_end + dt.
    """
    if horizon < forecaster.dt:
        raise ValidationError(
            f"horizon {horizon} shorter than one sample interval {forecaster.dt}"
        )
    n_steps = n_samples_floor(horizon, forecaster.dt)
    model = forecaster.model
    # Reading out only the top block equals slicing the full augmented
    # forecast: the readout rows act independently on the recurrence.
    top = forecast(replace(model, readout=model.readout[: forecaster.n_channels]), n_steps)
    series = MultivariateSeries(
        forecaster.channels, forecaster.dt, top, t0=forecaster.t_end + forecaster.dt
    )
    return zscore_invert(series, forecaster.stats)

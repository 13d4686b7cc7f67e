"""Multichannel time-series container and preprocessing.

Ingestion from CSV, linear resampling onto a uniform grid, z-score
normalization, and zero-phase FIR low-pass filtering. Everything here is a
pure function of its inputs; series are immutable after construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "MultivariateSeries",
    "ZScoreStats",
    "FilterSpec",
    "load_csv",
    "write_csv",
    "write_rows",
    "write_json",
    "resample_uniform",
    "zscore_fit",
    "zscore_apply",
    "zscore_invert",
    "lowpass_kernel",
    "lowpass_filter",
]

# Epsilon used when mapping a duration in seconds to a sample count, so that
# durations that are an exact multiple of dt (up to float rounding) are not
# truncated one sample short.
GRID_EPS = 1e-9


@dataclass(frozen=True)
class MultivariateSeries:
    """Uniformly sampled multichannel record.

    values has one row per channel; all channels share the same grid
    t0, t0 + dt, ..., t0 + (n_samples - 1) * dt.
    """

    channels: tuple[str, ...]
    dt: float
    values: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValidationError("values must be a 2-D (n_channels, n_samples) array")
        channels = tuple(str(c) for c in self.channels)
        if len(channels) != values.shape[0]:
            raise ValidationError(
                f"{len(channels)} channel names for {values.shape[0]} value rows"
            )
        if len(set(channels)) != len(channels):
            raise ValidationError("channel names must be unique")
        if values.shape[1] < 1:
            raise ValidationError("series needs at least one sample")
        if not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if not np.all(np.isfinite(values)):
            raise ValidationError("series values must be finite (no gaps, no NaN)")
        values.setflags(write=False)
        object.__setattr__(self, "channels", channels)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", float(self.t0))

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n_samples - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_samples)

    def channel_index(self, name: str) -> int:
        try:
            return self.channels.index(name)
        except ValueError:
            raise ValidationError(f"unknown channel {name!r}") from None

    def with_values(self, values: np.ndarray, t0: float | None = None) -> "MultivariateSeries":
        """New series sharing channel names and dt."""
        return MultivariateSeries(
            self.channels, self.dt, values, self.t0 if t0 is None else t0
        )

    def window(self, start: int, stop: int) -> "MultivariateSeries":
        """Sub-series over sample indices [start, stop)."""
        if not (0 <= start < stop <= self.n_samples):
            raise ValidationError(
                f"window [{start}, {stop}) outside series of {self.n_samples} samples"
            )
        return self.with_values(
            self.values[:, start:stop], t0=self.t0 + start * self.dt
        )

    def sample_index(self, t: float) -> int:
        """Index of the grid point at time t (must lie on the grid)."""
        pos = (t - self.t0) / self.dt
        idx = int(round(pos))
        if abs(pos - idx) > 1e-6 * max(1.0, abs(pos)):
            raise ValidationError(f"t={t} does not lie on the sample grid")
        if not (0 <= idx < self.n_samples):
            raise ValidationError(f"t={t} outside the recorded interval")
        return idx


@dataclass(frozen=True)
class ZScoreStats:
    """Per-channel mean and standard deviation (population convention)."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValidationError("mean and std must be 1-D of equal length")
        if np.any(std <= 0):
            raise ValidationError("standard deviations must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass FIR design: cutoff in Hz and odd kernel length in samples."""

    cutoff_hz: float = 0.5
    taps: int = 101

    def __post_init__(self):
        if not (self.cutoff_hz > 0):
            raise ValidationError(f"cutoff must be positive, got {self.cutoff_hz}")
        if self.taps < 3 or self.taps % 2 == 0:
            raise ValidationError(f"kernel length must be odd and >= 3, got {self.taps}")


def resample_uniform(t: np.ndarray, v: np.ndarray, dt_target: float) -> np.ndarray:
    """Piecewise-linear interpolation onto the grid t[0], t[0]+dt, ...

    The grid ends at the last point <= t[-1]; values beyond the recorded
    interval are never extrapolated.
    """
    t = np.asarray(t, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if t.ndim != 1 or t.shape != v.shape:
        raise ValidationError("t and v must be 1-D arrays of equal length")
    if t.size < 2:
        raise ValidationError("resampling needs at least 2 samples")
    if not (dt_target > 0):
        raise ValidationError(f"dt_target must be positive, got {dt_target}")
    if np.any(np.diff(t) <= 0):
        raise ValidationError("timestamps must be strictly increasing")
    span = t[-1] - t[0]
    n_out = int(np.floor(span / dt_target + GRID_EPS)) + 1
    grid = t[0] + dt_target * np.arange(n_out)
    if grid[-1] > t[-1] + GRID_EPS * max(1.0, abs(t[-1])):
        raise ValidationError("resampling grid would extrapolate past the record")
    return np.interp(grid, t, v)


def load_csv(path, dt_target: float) -> MultivariateSeries:
    """Read a `time,<ch1>,<ch2>,...` CSV and resample to a uniform grid.

    The first column is the timestamp in seconds and must be strictly
    increasing; the body must be fully numeric with no missing cells.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 2:
            raise ParseError("header must be time,<ch1>,... with at least one channel", line=1)
        if header[0].lower() != "time":
            raise ParseError(f"first header column must be 'time', got {header[0]!r}", line=1)
        channels = tuple(header[1:])

        times: list[float] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(row)}", line=lineno
                )
            try:
                parsed = [float(cell) for cell in row]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            times.append(parsed[0])
            rows.append(parsed[1:])

    if len(times) < 2:
        raise ValidationError(f"{path}: need at least 2 data rows, got {len(times)}")
    t = np.asarray(times)
    if np.any(np.diff(t) <= 0):
        bad = int(np.flatnonzero(np.diff(t) <= 0)[0])
        raise ValidationError(
            f"{path}: timestamps not strictly increasing at row {bad + 3} "
            f"(t={t[bad]} followed by t={t[bad + 1]})"
        )
    raw = np.asarray(rows).T
    values = np.vstack([resample_uniform(t, raw[i], dt_target) for i in range(raw.shape[0])])
    return MultivariateSeries(channels, dt_target, values, t0=float(t[0]))


def write_csv(series: MultivariateSeries, path) -> None:
    """Write a series in the same `time,<ch>,...` format load_csv reads."""
    times = series.times()
    write_rows(path, ("time",) + series.channels, (
        [repr(float(times[j]))] + [repr(float(x)) for x in series.values[:, j]]
        for j in range(series.n_samples)
    ))


def write_rows(path, header, rows) -> None:
    """Write a CSV table: the header row, then every row of `rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Placeholder json.dumps writes for each array; its JSON text is split on.
_ARRAY_MARK = "\0modecast.write_json array\0"
_ARRAY_TOKEN = json.dumps(_ARRAY_MARK)

# Floats formatted per write, at most (or one leading-axis row, if larger).
_BLOCK_FLOATS = 8192


def write_json(path, doc) -> None:
    """Write a JSON document with two-space indentation.

    Besides what json.dump serializes, float64 numpy arrays may be leaves of
    the document: each is written exactly as json.dump(..., indent=2)
    would write its tolist(), NaN and infinities included, a block of
    leading-axis rows at a time. Any other array or non-JSON object raises
    TypeError as json.dump does.
    """
    arrays: list[np.ndarray] = []

    def stash(obj):
        if not (isinstance(obj, np.ndarray) and obj.dtype == np.float64):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return _ARRAY_MARK

    parts = json.dumps(doc, indent=2, default=stash).split(_ARRAY_TOKEN)
    if len(parts) != len(arrays) + 1:
        raise ValidationError(f"document text contains the array marker {_ARRAY_MARK!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(parts[0])
        for arr, before, after in zip(arrays, parts, parts[1:]):
            line = before[before.rfind("\n") + 1:]
            _write_array(fh, arr, line[:len(line) - len(line.lstrip(" "))])
            fh.write(after)


def _layout(shape: tuple[int, ...], pad: str) -> str:
    """%s template of json.dump's indent=2 text for a nested list of this
    shape whose closing bracket sits at pad."""
    if not shape:
        return "%s"
    if shape[0] == 0:
        return "[]"
    inner = pad + "  "
    item = _layout(shape[1:], inner)
    return "[\n" + inner + (",\n" + inner).join([item] * shape[0]) + "\n" + pad + "]"


def _write_array(fh, arr: np.ndarray, pad: str) -> None:
    """Write arr.tolist() as json.dump(..., indent=2) lays it out at pad."""
    # float.__repr__ is json's text for every finite float; json.dumps
    # spells NaN and the infinities, at the cost of a call per float.
    fmt = float.__repr__ if np.isfinite(arr).all() else json.dumps
    if arr.size == 0 or arr.ndim == 0:
        fh.write(_layout(arr.shape, pad) % tuple(map(fmt, arr.ravel().tolist())))
        return
    inner = pad + "  "
    sep = ",\n" + inner
    row = _layout(arr.shape[1:], inner)
    per_block = min(arr.shape[0], max(1, _BLOCK_FLOATS // arr[0].size))
    full = sep.join([row] * per_block)
    fh.write("[\n" + inner)
    for start in range(0, arr.shape[0], per_block):
        block = arr[start:start + per_block]
        template = full if block.shape[0] == per_block else sep.join([row] * block.shape[0])
        fh.write((sep if start else "") + template % tuple(map(fmt, block.ravel().tolist())))
    fh.write("\n" + pad + "]")


def zscore_fit(series: MultivariateSeries, eps_std: float | None = None) -> ZScoreStats:
    """Per-channel mean and population standard deviation.

    Constant channels are rejected unless eps_std is given, in which case
    channels whose std falls below it keep their mean but get unit scale
    (their normalized values become ~0 instead of blowing up).
    """
    if series.n_samples < 2:
        raise ValidationError("z-score fit needs at least 2 samples")
    mean = series.values.mean(axis=1)
    std = series.values.std(axis=1)
    if eps_std is None:
        flat = np.flatnonzero(std <= 0)
        if flat.size:
            raise ValidationError(
                f"constant channel {series.channels[flat[0]]!r} cannot be z-scored"
            )
    else:
        std = np.where(std < eps_std, 1.0, std)
    return ZScoreStats(mean=mean, std=std)


def zscore_apply(series: MultivariateSeries, stats: ZScoreStats) -> MultivariateSeries:
    _check_stats(series, stats)
    return series.with_values((series.values - stats.mean[:, None]) / stats.std[:, None])


def zscore_invert(series: MultivariateSeries, stats: ZScoreStats) -> MultivariateSeries:
    _check_stats(series, stats)
    return series.with_values(series.values * stats.std[:, None] + stats.mean[:, None])


def _check_stats(series: MultivariateSeries, stats: ZScoreStats) -> None:
    if stats.mean.shape[0] != series.n_channels:
        raise ValidationError(
            f"stats cover {stats.mean.shape[0]} channels, series has {series.n_channels}"
        )


def lowpass_kernel(spec: FilterSpec, dt: float) -> np.ndarray:
    """Linear-phase windowed-sinc kernel (Hamming window, unit DC gain)."""
    nyquist = 0.5 / dt
    if spec.cutoff_hz >= nyquist:
        raise ValidationError(
            f"cutoff {spec.cutoff_hz} Hz must be below Nyquist {nyquist} Hz"
        )
    half = (spec.taps - 1) // 2
    n = np.arange(spec.taps) - half
    kernel = 2.0 * spec.cutoff_hz * dt * np.sinc(2.0 * spec.cutoff_hz * dt * n)
    kernel *= np.hamming(spec.taps)
    return kernel / kernel.sum()


def lowpass_filter(series: MultivariateSeries, spec: FilterSpec) -> MultivariateSeries:
    """Zero-phase low-pass filtering, applied independently per channel.

    The symmetric kernel introduces no phase distortion; reflected edge
    padding keeps the output length equal to the input length.
    """
    kernel = lowpass_kernel(spec, series.dt)
    half = (spec.taps - 1) // 2
    if series.n_samples <= half:
        raise ValidationError(
            f"series of {series.n_samples} samples too short for a {spec.taps}-tap kernel"
        )
    padded = np.pad(series.values, ((0, 0), (half, half)), mode="reflect")
    out = np.empty_like(series.values)
    for i in range(series.n_channels):
        out[i] = np.convolve(padded[i], kernel, mode="valid")
    return series.with_values(out)

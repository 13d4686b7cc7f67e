"""Forecast evaluation metrics: NRMSE, NAMMAE, and Jensen-Shannon divergence.

Each metric is computed per channel and averaged over channels. NRMSE is
the root mean square error normalized by the truth window's standard
deviation; NAMMAE compares the extrema of prediction and truth; the JSD
compares their value distributions on shared histogram bins and is bounded
by ln 2. Standard deviations use the population convention throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .series import MultivariateSeries, write_json

__all__ = [
    "MetricsReport",
    "nrmse",
    "nammae",
    "jsd",
    "evaluate_all",
    "DEFAULT_BINS",
]

DEFAULT_BINS = 50

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class MetricsReport:
    """Per-channel and channel-averaged metric values for one comparison."""

    channels: tuple[str, ...]
    nrmse: np.ndarray
    nammae: np.ndarray
    jsd: np.ndarray
    avg_nrmse: float
    avg_nammae: float
    avg_jsd: float
    window_samples: int
    bins: int

    def to_dict(self) -> dict:
        return {
            "channels": list(self.channels),
            "per_channel": {
                "nrmse": [float(x) for x in self.nrmse],
                "nammae": [float(x) for x in self.nammae],
                "jsd": [float(x) for x in self.jsd],
            },
            "averaged": {
                "nrmse": self.avg_nrmse,
                "nammae": self.avg_nammae,
                "jsd": self.avg_jsd,
            },
            "window_samples": self.window_samples,
            "bins": self.bins,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())


def _as_matrix(x) -> np.ndarray:
    if isinstance(x, MultivariateSeries):
        return x.values
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValidationError(f"expected 1-D or 2-D data, got shape {arr.shape}")
    return arr


def _aligned(pred, truth) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    p = _as_matrix(pred)
    t = _as_matrix(truth)
    if p.shape != t.shape:
        raise ValidationError(f"shape mismatch: prediction {p.shape} vs truth {t.shape}")
    if isinstance(truth, MultivariateSeries):
        names = truth.channels
    elif isinstance(pred, MultivariateSeries):
        names = pred.channels
    else:
        names = tuple(f"ch{i}" for i in range(t.shape[0]))
    return p, t, names


def _truth_std(t: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    sigma = t.std(axis=1)
    flat = np.flatnonzero(sigma <= 0)
    if flat.size:
        raise ValidationError(
            f"truth channel {names[flat[0]]!r} has zero standard deviation in the window"
        )
    return sigma


def nrmse(pred, truth) -> tuple[np.ndarray, float]:
    """Root mean square error over the window, normalized per channel by
    the truth's standard deviation. Returns (per_channel, average)."""
    p, t, names = _aligned(pred, truth)
    if t.shape[1] < 2:
        raise ValidationError(f"need at least 2 samples, got {t.shape[1]}")
    sigma = _truth_std(t, names)
    per = np.sqrt(np.mean((p - t) ** 2, axis=1)) / sigma
    return per, float(per.mean())


def nammae(pred, truth) -> tuple[np.ndarray, float]:
    """Absolute mismatch of the window extrema, normalized per channel by
    the truth's standard deviation. Returns (per_channel, average)."""
    p, t, names = _aligned(pred, truth)
    sigma = _truth_std(t, names)
    per = (
        np.abs(p.min(axis=1) - t.min(axis=1)) + np.abs(p.max(axis=1) - t.max(axis=1))
    ) / (2.0 * sigma)
    return per, float(per.mean())


def _kl(k: np.ndarray, h: np.ndarray) -> float:
    mask = k > 0
    return float(np.sum(k[mask] * np.log(k[mask] / h[mask])))


def _jsd_channel(p: np.ndarray, t: np.ndarray, bins: int) -> float:
    lo = min(p.min(), t.min())
    hi = max(p.max(), t.max())
    if hi <= lo:
        # Both signals are the same constant: identical one-bin distributions.
        return 0.0
    edges = np.linspace(lo, hi, bins + 1)
    q = np.histogram(p, bins=edges)[0].astype(np.float64)
    r = np.histogram(t, bins=edges)[0].astype(np.float64)
    q /= q.sum()
    r /= r.sum()
    m = 0.5 * (q + r)
    return float(np.clip(0.5 * _kl(q, m) + 0.5 * _kl(r, m), 0.0, LN2))


def jsd(pred, truth, bins: int = DEFAULT_BINS) -> tuple[np.ndarray, float]:
    """Jensen-Shannon divergence between the value distributions of
    prediction and truth, per channel on shared bin edges spanning the
    union of their ranges. Natural log; bounded by ln 2."""
    if bins < 2:
        raise ValidationError(f"bins must be >= 2, got {bins}")
    p, t, _ = _aligned(pred, truth)
    per = np.array([_jsd_channel(p[i], t[i], bins) for i in range(t.shape[0])])
    return per, float(per.mean())


def evaluate_all(pred, truth, bins: int = DEFAULT_BINS) -> MetricsReport:
    """All three metrics for one (prediction, truth) pair."""
    p, t, names = _aligned(pred, truth)
    nr, nr_avg = nrmse(p, t)
    na, na_avg = nammae(p, t)
    js, js_avg = jsd(p, t, bins)
    return MetricsReport(
        channels=names,
        nrmse=nr,
        nammae=na,
        jsd=js,
        avg_nrmse=nr_avg,
        avg_nammae=na_avg,
        avg_jsd=js_avg,
        window_samples=t.shape[1],
        bins=bins,
    )

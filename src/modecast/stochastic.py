"""Stochastic Hankel-DMD: a Monte Carlo ensemble over hyperparameters.

Training length and delay depth are drawn from uniform distributions (the
training length in units of the reference period, the delay as a ratio of
the drawn training length), one forecaster is fitted per realization, and
the ensemble is summarized by its mean, per-sample standard deviation, and
a Chebyshev band mean +/- k * std.

All hyperparameter pairs are drawn sequentially from the seeded generator
before any fitting starts, so results are reproducible regardless of how
the fits are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import DEFAULT_RANK_POLICY, RankPolicy
from .errors import EnsembleError, ValidationError
from .hankel import HdmdConfig, fit_hdmd, hankel_shape_error, n_samples_floor, pool_map, predict
from .series import MultivariateSeries, write_rows

__all__ = [
    "ShdmdConfig",
    "Realization",
    "StochasticForecast",
    "sample_hyperparams",
    "shdmd_forecast",
    "chebyshev_band",
]

MAX_DRAW_RETRIES = 100


@dataclass(frozen=True)
class ShdmdConfig:
    """Ensemble settings.

    ltr_range bounds the training length in units of the reference period;
    ld_ratio_range bounds the delay depth as a fraction of the drawn
    training length. coverage_k scales the uncertainty band.
    """

    n_realizations: int = 100
    ltr_range: tuple[float, float] = (4.0, 16.0)
    ld_ratio_range: tuple[float, float] = (0.125, 1.0)
    coverage_k: float = 2.0
    seed: int = 0
    rank_policy: RankPolicy = DEFAULT_RANK_POLICY

    def __post_init__(self):
        lo, hi = self.ltr_range
        rlo, rhi = self.ld_ratio_range
        if self.n_realizations < 1:
            raise ValidationError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if not (0 < lo <= hi):
            raise ValidationError(f"need 0 < lo <= hi for ltr_range, got {self.ltr_range}")
        if not (0 < rlo <= rhi <= 1):
            raise ValidationError(
                f"need 0 < lo <= hi <= 1 for ld_ratio_range, got {self.ld_ratio_range}"
            )
        if not (self.coverage_k > 0):
            raise ValidationError(f"coverage_k must be positive, got {self.coverage_k}")


@dataclass(frozen=True)
class Realization:
    """Outcome of one ensemble member."""

    n_tr: int
    n_d: int
    ok: bool
    unstable: bool = False
    message: str = ""


@dataclass(frozen=True)
class StochasticForecast:
    """Ensemble summary plus the members it was computed from."""

    mean: MultivariateSeries
    std: MultivariateSeries
    lower: MultivariateSeries
    upper: MultivariateSeries
    realizations: tuple[Realization, ...]
    members: np.ndarray  # (n_ok, n_channels, n_steps), physical units
    coverage_k: float

    @property
    def n_effective(self) -> int:
        return self.members.shape[0]

    def save_csv(self, path) -> None:
        """Columns time, <ch>_mean, <ch>_std, <ch>_lo, <ch>_hi per channel."""
        times = self.mean.times()
        header = ["time"]
        for ch in self.mean.channels:
            header += [f"{ch}_mean", f"{ch}_std", f"{ch}_lo", f"{ch}_hi"]
        parts = (self.mean, self.std, self.lower, self.upper)
        write_rows(path, header, (
            [repr(float(times[j]))]
            + [repr(float(p.values[i, j])) for i in range(self.mean.n_channels) for p in parts]
            for j in range(self.mean.n_samples)
        ))


def sample_hyperparams(
    rng: np.random.Generator,
    config: ShdmdConfig,
    t_ref: float,
    dt: float,
    max_retries: int = MAX_DRAW_RETRIES,
) -> tuple[int, int]:
    """Draw one (n_tr, n_d) pair.

    l_tr is uniform over ltr_range * t_ref; l_d uniform over
    ld_ratio_range * l_tr; both take the integer part of length / dt.
    Draws violating the Hankel shape constraints are redrawn a bounded
    number of times.
    """
    if not (t_ref > 0):
        raise ValidationError(f"t_ref must be positive, got {t_ref}")
    lo, hi = config.ltr_range
    rlo, rhi = config.ld_ratio_range
    for _ in range(max_retries):
        l_tr = rng.uniform(lo, hi) * t_ref
        l_d = rng.uniform(rlo, rhi) * l_tr
        n_tr = n_samples_floor(l_tr, dt)
        n_d = n_samples_floor(l_d, dt)
        if not hankel_shape_error(n_tr, n_d):
            return n_tr, n_d
    raise ValidationError(
        f"no valid (n_tr, n_d) drawn in {max_retries} tries; "
        f"ranges {config.ltr_range} * {t_ref} s at dt={dt} are too tight"
    )


def chebyshev_band(mean: np.ndarray, std: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """Distribution-free band mean +/- k * std (k=2 covers at least 75%)."""
    mean = np.asarray(mean)
    std = np.asarray(std)
    if mean.shape != std.shape:
        raise ValidationError(f"shape mismatch: mean {mean.shape} vs std {std.shape}")
    if not (k > 0):
        raise ValidationError(f"coverage factor must be positive, got {k}")
    return mean - k * std, mean + k * std


def shdmd_forecast(
    series: MultivariateSeries,
    config: ShdmdConfig,
    t_end: float,
    horizon: float,
    t_ref: float,
    workers: int | None = None,
) -> StochasticForecast:
    """Fit and predict an ensemble of Hankel-DMD forecasters.

    Realizations that fail to fit (degenerate windows and the like) are
    recorded and excluded; more than half failing aborts the ensemble.
    Mean and std are elementwise over surviving members, std with the
    population convention.
    """
    rng = np.random.default_rng(config.seed)
    draws = [
        sample_hyperparams(rng, config, t_ref, series.dt)
        for _ in range(config.n_realizations)
    ]

    # Snap to the sample grid once so every member and the summary agree.
    t_end = series.t0 + series.sample_index(t_end) * series.dt
    n_steps = n_samples_floor(horizon, series.dt)
    if n_steps < 1:
        raise ValidationError(f"horizon {horizon} shorter than dt={series.dt}")

    def run_one(draw: tuple[int, int]):
        n_tr, n_d = draw
        try:
            fc = fit_hdmd(
                series,
                HdmdConfig(n_tr=n_tr, n_d=n_d, rank_policy=config.rank_policy),
                t_end,
            )
            pred = predict(fc, horizon)
            info = Realization(n_tr, n_d, ok=True, unstable=fc.model.is_unstable())
            return info, pred.values
        except (ValidationError, np.linalg.LinAlgError, ValueError) as exc:
            return Realization(n_tr, n_d, ok=False, message=str(exc)), None

    outcomes = pool_map(run_one, draws, workers)

    infos = tuple(info for info, _ in outcomes)
    member_values = [values for _, values in outcomes if values is not None]
    if len(member_values) < max(1, config.n_realizations // 2 + config.n_realizations % 2):
        failed = [i for i in infos if not i.ok]
        raise EnsembleError(
            f"{len(failed)}/{config.n_realizations} realizations failed; "
            f"first failure: {failed[0].message if failed else 'n/a'}"
        )

    members = np.stack(member_values)
    mean = members.mean(axis=0)
    std = members.std(axis=0)
    lower, upper = chebyshev_band(mean, std, config.coverage_k)
    t0 = t_end + series.dt

    def wrap(values: np.ndarray) -> MultivariateSeries:
        return MultivariateSeries(series.channels, series.dt, values, t0=t0)

    return StochasticForecast(
        mean=wrap(mean),
        std=wrap(std),
        lower=wrap(lower),
        upper=wrap(upper),
        realizations=infos,
        members=members,
        coverage_k=config.coverage_k,
    )

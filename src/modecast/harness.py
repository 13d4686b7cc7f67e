"""Experiment orchestration: hyperparameter sweeps over random test instants.

A sweep plan fixes grids of training length, delay depth, and evaluation
horizon (all in units of the reference period), draws a shared set of
random test instants, and evaluates every valid grid cell at every instant
with all three metrics. Cells whose Hankel matrices would be empty are
skipped with a reason, individual fit failures are recorded per sample,
and results are keyed by (cell, instant, horizon) so parallel execution
reduces deterministically.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .dmd import DEFAULT_RANK_POLICY, RankPolicy
from .errors import ValidationError
from .hankel import HdmdConfig, fit_hdmd, hankel_shape_error, pool_map, predict
from .metrics import DEFAULT_BINS, MetricsReport, evaluate_all
from .series import FilterSpec, MultivariateSeries, lowpass_filter, write_json, write_rows

__all__ = [
    "SweepPlan",
    "SweepSample",
    "SkippedCell",
    "SweepResult",
    "PairedSweep",
    "BoxplotStats",
    "n_samples_nearest",
    "random_test_instants",
    "run_sweep",
    "boxplot_stats",
    "compare_filtered_unfiltered",
]

METRIC_NAMES = ("nrmse", "nammae", "jsd")


def n_samples_nearest(length_s: float, dt: float) -> int:
    """Duration in seconds to sample count, rounding to the nearest sample.

    Grid levels published as sample counts round rather than truncate, so
    plans reproduce them exactly (e.g. 4 periods of 7.3143 s at 0.1 s is
    292.57 samples, listed as 293).
    """
    if not (dt > 0):
        raise ValidationError(f"dt must be positive, got {dt}")
    return int(math.floor(length_s / dt + 0.5))


@dataclass(frozen=True)
class SweepPlan:
    """Full-factorial design over (l_tr, l_d) with horizons l_te.

    All levels are multiples of the reference period. Cells whose Hankel
    shape is invalid (see hankel_shape_error) are marked skipped rather
    than failing the sweep.
    """

    ltr_levels: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    ld_levels: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    lte_levels: tuple[float, ...] = (1.0, 2.0, 4.0)
    n_test_instants: int = 250
    seed: int = 0
    filter_on: bool = True
    filter_spec: FilterSpec = FilterSpec()
    bins: int = DEFAULT_BINS
    rank_policy: RankPolicy = DEFAULT_RANK_POLICY

    def __post_init__(self):
        for name, levels in (
            ("ltr_levels", self.ltr_levels),
            ("ld_levels", self.ld_levels),
            ("lte_levels", self.lte_levels),
        ):
            if not levels:
                raise ValidationError(f"{name} must not be empty")
            if any(x <= 0 for x in levels):
                raise ValidationError(f"{name} must be positive, got {levels}")
            object.__setattr__(self, name, tuple(float(x) for x in levels))
        if self.n_test_instants < 1:
            raise ValidationError(f"need at least 1 test instant, got {self.n_test_instants}")

    def n_tr_levels(self, t_ref: float, dt: float) -> tuple[int, ...]:
        return tuple(n_samples_nearest(x * t_ref, dt) for x in self.ltr_levels)

    def n_d_levels(self, t_ref: float, dt: float) -> tuple[int, ...]:
        return tuple(n_samples_nearest(x * t_ref, dt) for x in self.ld_levels)

    def n_te_levels(self, t_ref: float, dt: float) -> tuple[int, ...]:
        return tuple(max(1, n_samples_nearest(x * t_ref, dt)) for x in self.lte_levels)

    def to_dict(self) -> dict:
        return {
            "ltr_levels": list(self.ltr_levels),
            "ld_levels": list(self.ld_levels),
            "lte_levels": list(self.lte_levels),
            "n_test_instants": self.n_test_instants,
            "seed": self.seed,
            "filter_on": self.filter_on,
            "filter_cutoff_hz": self.filter_spec.cutoff_hz,
            "filter_taps": self.filter_spec.taps,
            "bins": self.bins,
            "rank_policy": {
                "kind": self.rank_policy.kind,
                "tol": self.rank_policy.tol,
                "r": self.rank_policy.r,
            },
        }


@dataclass(frozen=True)
class BoxplotStats:
    """Quartiles plus whiskers at the farthest points within 1.5 IQR."""

    q1: float
    median: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    n_outliers: int
    n_samples: int


def boxplot_stats(samples) -> BoxplotStats:
    """Quartiles by linear interpolation of order statistics; whiskers at
    the farthest data points within 1.5 IQR of the box, or at the box edge
    itself when no point lies beyond it."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValidationError("boxplot needs at least one sample")
    q1, median, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    above = arr[(arr >= q3) & (arr <= q3 + 1.5 * iqr)]
    below = arr[(arr <= q1) & (arr >= q1 - 1.5 * iqr)]
    whisker_hi = float(above.max()) if above.size else float(q3)
    whisker_lo = float(below.min()) if below.size else float(q1)
    n_outliers = int(np.count_nonzero((arr < whisker_lo) | (arr > whisker_hi)))
    return BoxplotStats(
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        whisker_lo=whisker_lo,
        whisker_hi=whisker_hi,
        n_outliers=n_outliers,
        n_samples=int(arr.size),
    )


@dataclass(frozen=True)
class SweepSample:
    """Metrics for one (cell, instant, horizon), or the failure that
    prevented them."""

    l_tr: float
    l_d: float
    l_te: float
    n_tr: int
    n_d: int
    n_te: int
    instant_index: int
    t_end: float
    report: MetricsReport | None
    error: str = ""


@dataclass(frozen=True)
class SkippedCell:
    l_tr: float
    l_d: float
    n_tr: int
    n_d: int
    reason: str


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    t_ref: float
    dt: float
    instants: np.ndarray
    samples: tuple[SweepSample, ...]
    skipped: tuple[SkippedCell, ...]
    dataset_sha256: str

    def _reports_by_cell(self) -> dict[tuple[float, float, float], list[MetricsReport]]:
        """Successful reports per (l_tr, l_d, l_te), in sample order."""
        groups = {}
        for s in self.samples:
            if s.report is not None:
                groups.setdefault((s.l_tr, s.l_d, s.l_te), []).append(s.report)
        return groups

    def metric_samples(
        self, l_tr: float, l_d: float, l_te: float, metric: str
    ) -> np.ndarray:
        """Channel-averaged values of one metric for one cell and horizon."""
        if metric not in METRIC_NAMES:
            raise ValidationError(f"unknown metric {metric!r}")
        reports = self._reports_by_cell().get((l_tr, l_d, l_te), [])
        return np.asarray([getattr(r, f"avg_{metric}") for r in reports])

    def summaries(self) -> dict[tuple[float, float, float, str], BoxplotStats]:
        """Boxplot stats per (l_tr, l_d, l_te, metric) over test instants."""
        groups = self._reports_by_cell()
        return {
            (*cell, metric): boxplot_stats([getattr(r, f"avg_{metric}") for r in groups[cell]])
            for cell in sorted(groups)
            for metric in METRIC_NAMES
        }

    def median(self, metric: str, l_te: float) -> float:
        """Median of one metric across all cells at one horizon."""
        values = [
            getattr(r, f"avg_{metric}")
            for cell, reports in self._reports_by_cell().items()
            if cell[2] == l_te
            for r in reports
        ]
        if not values:
            raise ValidationError(f"no successful samples at l_te={l_te}")
        return float(np.median(values))

    @property
    def n_failures(self) -> int:
        return sum(1 for s in self.samples if s.report is None)

    def save(self, out_dir) -> dict:
        """Persist manifest, raw samples, boxplot summaries, and a
        plot-ready long-format file. Returns the manifest dict."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        manifest = {
            "plan": self.plan.to_dict(),
            "t_ref": self.t_ref,
            "dt": self.dt,
            "dataset_sha256": self.dataset_sha256,
            "n_samples": len(self.samples),
            "n_failures": self.n_failures,
            "skipped_cells": [
                {"l_tr": c.l_tr, "l_d": c.l_d, "n_tr": c.n_tr, "n_d": c.n_d, "reason": c.reason}
                for c in self.skipped
            ],
        }
        write_json(out / "manifest.json", manifest)
        write_rows(
            out / "samples.csv",
            ["l_tr", "l_d", "l_te", "instant", "nrmse", "nammae", "jsd", "error"],
            (
                [s.l_tr, s.l_d, s.l_te, repr(s.t_end)]
                + (["", "", "", s.error] if s.report is None else
                   [repr(getattr(s.report, f"avg_{m}")) for m in METRIC_NAMES] + [""])
                for s in self.samples
            ),
        )
        write_rows(
            out / "boxplots.csv",
            ["l_tr", "l_d", "l_te", "metric", "q1", "median", "q3",
             "whisker_lo", "whisker_hi", "n_outliers", "n_samples"],
            (
                [l_tr, l_d, l_te, metric, repr(st.q1), repr(st.median), repr(st.q3),
                 repr(st.whisker_lo), repr(st.whisker_hi), st.n_outliers, st.n_samples]
                for (l_tr, l_d, l_te, metric), st in self.summaries().items()
            ),
        )

        # Long-format whitespace table for external plotting tools.
        with open(out / "samples.dat", "w", encoding="utf-8") as fh:
            fh.write("# l_tr l_d l_te instant metric value\n")
            for s in self.samples:
                if s.report is None:
                    continue
                for metric in METRIC_NAMES:
                    fh.write(
                        f"{s.l_tr} {s.l_d} {s.l_te} {s.t_end!r} {metric} "
                        f"{getattr(s.report, f'avg_{metric}')!r}\n"
                    )
        return manifest


@dataclass(frozen=True)
class PairedSweep:
    """Filter-on and filter-off sweeps sharing seed and instants."""

    filtered: SweepResult
    unfiltered: SweepResult


def dataset_hash(series: MultivariateSeries) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(series.values).tobytes())
    digest.update(repr((series.channels, series.dt, series.t0)).encode())
    return digest.hexdigest()


def random_test_instants(
    series: MultivariateSeries, plan: SweepPlan, t_ref: float
) -> np.ndarray:
    """Seeded test instants, uniform over the interval where the longest
    training window fits before and the longest horizon after.

    Instants land on the sample grid, are sorted ascending, and may repeat.
    """
    n_tr_max = max(plan.n_tr_levels(t_ref, series.dt))
    n_te_max = max(plan.n_te_levels(t_ref, series.dt))
    lo = n_tr_max - 1
    hi = series.n_samples - 1 - n_te_max
    if hi < lo:
        need = (n_tr_max + n_te_max) * series.dt
        raise ValidationError(
            f"record of {series.n_samples * series.dt:.1f} s too short for the plan; "
            f"needs at least {need:.1f} s"
        )
    rng = np.random.default_rng(plan.seed)
    idx = np.sort(rng.integers(lo, hi + 1, size=plan.n_test_instants))
    return series.t0 + idx * series.dt


def run_sweep(
    series: MultivariateSeries,
    plan: SweepPlan,
    t_ref: float,
    workers: int | None = None,
) -> SweepResult:
    """Evaluate every valid (l_tr, l_d) cell at every instant and horizon.

    When the plan's filter is on, the record is filtered once up front and
    both training and truth windows come from the filtered signal. Each
    (cell, instant) fits once and serves all horizons by slicing the
    longest forecast. Individual failures become error-carrying samples.
    The (cell, instant) tasks run through hankel.pool_map on `workers`
    threads (None: usable cores), each on single-threaded BLAS; the
    samples do not depend on workers.
    """
    sha = dataset_hash(series)
    instants = random_test_instants(series, plan, t_ref)
    data = lowpass_filter(series, plan.filter_spec) if plan.filter_on else series

    n_tr_levels = plan.n_tr_levels(t_ref, series.dt)
    n_d_levels = plan.n_d_levels(t_ref, series.dt)
    n_te_levels = plan.n_te_levels(t_ref, series.dt)
    n_te_max = max(n_te_levels)

    cells = []
    skipped = []
    for (l_tr, n_tr), (l_d, n_d) in product(
        zip(plan.ltr_levels, n_tr_levels), zip(plan.ld_levels, n_d_levels)
    ):
        reason = hankel_shape_error(n_tr, n_d)
        if reason:
            skipped.append(SkippedCell(l_tr, l_d, n_tr, n_d, reason))
        else:
            cells.append((l_tr, l_d, n_tr, n_d))

    def run_cell_instant(task):
        (l_tr, l_d, n_tr, n_d), inst_idx = task
        t_end = float(instants[inst_idx])
        out = []
        try:
            config = HdmdConfig(n_tr=n_tr, n_d=n_d, rank_policy=plan.rank_policy)
            forecaster = fit_hdmd(data, config, t_end)
            prediction = predict(forecaster, n_te_max * series.dt)
            i_end = data.sample_index(t_end)
            for l_te, n_te in zip(plan.lte_levels, n_te_levels):
                truth = data.window(i_end + 1, i_end + 1 + n_te)
                pred = prediction.window(0, n_te)
                try:
                    report = evaluate_all(pred, truth, bins=plan.bins)
                    out.append(
                        SweepSample(l_tr, l_d, l_te, n_tr, n_d, n_te, inst_idx, t_end, report)
                    )
                except (ValidationError, ValueError) as exc:
                    out.append(
                        SweepSample(
                            l_tr, l_d, l_te, n_tr, n_d, n_te, inst_idx, t_end, None, str(exc)
                        )
                    )
        except (ValidationError, np.linalg.LinAlgError, ValueError) as exc:
            for l_te, n_te in zip(plan.lte_levels, n_te_levels):
                out.append(
                    SweepSample(
                        l_tr, l_d, l_te, n_tr, n_d, n_te, inst_idx, t_end, None, str(exc)
                    )
                )
        return out

    tasks = [(cell, i) for cell in cells for i in range(len(instants))]
    chunks = pool_map(run_cell_instant, tasks, workers)

    samples = tuple(s for chunk in chunks for s in chunk)
    return SweepResult(
        plan=plan,
        t_ref=t_ref,
        dt=series.dt,
        instants=instants,
        samples=samples,
        skipped=tuple(skipped),
        dataset_sha256=sha,
    )


def compare_filtered_unfiltered(
    series: MultivariateSeries,
    plan: SweepPlan,
    t_ref: float,
    workers: int | None = None,
) -> PairedSweep:
    """Run the plan twice, filter on and off, with identical seed and
    therefore identical test instants."""
    filtered = run_sweep(series, replace(plan, filter_on=True), t_ref, workers)
    unfiltered = run_sweep(series, replace(plan, filter_on=False), t_ref, workers)
    return PairedSweep(filtered=filtered, unfiltered=unfiltered)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecast import (
    SweepPlan,
    ValidationError,
    boxplot_stats,
    compare_filtered_unfiltered,
    random_test_instants,
    run_sweep,
)
from modecast.harness import n_samples_nearest
from modecast.synth import SynthSpec, demo_dataset, generate

T_REF_PAPER = 7.3143


@pytest.fixture(scope="module")
def small_noisy():
    series, _ = demo_dataset(duration_s=900.0, dt=0.5, noise_std=0.3, seed=7)
    return series


class TestPlanConversion:
    def test_published_training_counts(self):
        plan = SweepPlan()
        assert plan.n_tr_levels(T_REF_PAPER, 0.1) == (73, 146, 293, 585, 1170)

    def test_published_delay_counts(self):
        plan = SweepPlan()
        assert plan.n_d_levels(T_REF_PAPER, 0.1) == (37, 73, 146, 293, 585, 1170)

    def test_nearest_rounding(self):
        assert n_samples_nearest(4 * T_REF_PAPER, 0.1) == 293
        assert n_samples_nearest(0.5 * T_REF_PAPER, 0.1) == 37
        assert n_samples_nearest(5.625 * T_REF_PAPER, 0.1) == 411


class TestBoxplotStats:
    def test_hand_computed_order_statistics(self):
        st_ = boxplot_stats([1, 2, 3, 4, 5])
        assert (st_.q1, st_.median, st_.q3) == (2.0, 3.0, 4.0)
        assert (st_.whisker_lo, st_.whisker_hi) == (1.0, 5.0)
        assert st_.n_outliers == 0

    def test_degenerate_distribution(self):
        st_ = boxplot_stats([7.0] * 9)
        assert st_.q1 == st_.median == st_.q3 == 7.0
        assert st_.whisker_lo == st_.whisker_hi == 7.0
        assert st_.n_outliers == 0

    def test_outlier_rule(self):
        st_ = boxplot_stats([1, 2, 3, 4, 100])
        assert st_.q3 == 4.0
        assert st_.whisker_hi == 4.0
        assert st_.n_outliers == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            boxplot_stats([])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(deadline=None, max_examples=80)
    def test_whiskers_are_members_and_ordered(self, samples):
        stats = boxplot_stats(samples)
        assert stats.whisker_lo <= stats.q1 <= stats.median <= stats.q3 <= stats.whisker_hi
        # whiskers sit on data points, or on the box edge when nothing lies beyond
        assert any(np.isclose(stats.whisker_lo, samples)) or stats.whisker_lo == stats.q1
        assert any(np.isclose(stats.whisker_hi, samples)) or stats.whisker_hi == stats.q3


class TestRandomTestInstants:
    def test_degenerate_interval(self):
        rng = np.random.default_rng(0)
        # exactly max(l_tr) + max(l_te) samples long
        from modecast import MultivariateSeries

        plan = SweepPlan(
            ltr_levels=(2.0,), ld_levels=(0.5,), lte_levels=(1.0,),
            n_test_instants=5, seed=1,
        )
        dt, t_ref = 0.5, 5.0
        n = plan.n_tr_levels(t_ref, dt)[0] + plan.n_te_levels(t_ref, dt)[0]
        series = MultivariateSeries(("x",), dt, rng.standard_normal((1, n)))
        instants = random_test_instants(series, plan, t_ref)
        assert np.all(instants == instants[0])

    def test_too_short_record(self):
        rng = np.random.default_rng(1)
        from modecast import MultivariateSeries

        series = MultivariateSeries(("x",), 0.5, rng.standard_normal((1, 30)))
        plan = SweepPlan(ltr_levels=(8.0,), lte_levels=(2.0,), n_test_instants=3, seed=0)
        with pytest.raises(ValidationError, match="too short"):
            random_test_instants(series, plan, 5.0)

    def test_seeded_and_sorted(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(2.0, 4.0), ld_levels=(0.5,), lte_levels=(1.0, 2.0),
            n_test_instants=50, seed=9,
        )
        a = random_test_instants(small_noisy, plan, 5.0)
        b = random_test_instants(small_noisy, plan, 5.0)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_window_constraints_satisfied(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(4.0,), ld_levels=(1.0,), lte_levels=(2.0,),
            n_test_instants=100, seed=3,
        )
        t_ref = 5.0
        instants = random_test_instants(small_noisy, plan, t_ref)
        n_tr = plan.n_tr_levels(t_ref, small_noisy.dt)[0]
        n_te = plan.n_te_levels(t_ref, small_noisy.dt)[0]
        for t_end in instants:
            i = small_noisy.sample_index(float(t_end))
            assert i - n_tr + 1 >= 0
            assert i + n_te <= small_noisy.n_samples - 1


class TestRunSweep:
    def test_minimal_plan_one_report_per_horizon(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(4.0,), ld_levels=(1.0,), lte_levels=(1.0, 2.0),
            n_test_instants=1, seed=4,
        )
        result = run_sweep(small_noisy, plan, 5.0, workers=1)
        assert len(result.samples) == 2
        assert all(s.report is not None for s in result.samples)

    def test_skip_rule(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(1.0, 4.0), ld_levels=(2.0,), lte_levels=(1.0,),
            n_test_instants=2, seed=5,
        )
        result = run_sweep(small_noisy, plan, 5.0, workers=1)
        # l_tr = 1 period (10 samples) cannot embed a 2-period delay
        assert len(result.skipped) == 1
        skipped = result.skipped[0]
        assert skipped.l_tr == 1.0 and skipped.l_d == 2.0
        assert skipped.n_tr - 1 - skipped.n_d < 1
        kept = {(s.l_tr, s.l_d) for s in result.samples}
        assert kept == {(4.0, 2.0)}

    def test_single_column_cell_skipped(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(2.0,), ld_levels=(1.8,), lte_levels=(1.0,),
            n_test_instants=2, seed=5,
        )
        result = run_sweep(small_noisy, plan, 5.0, workers=1)
        # 20 samples and 18 delays leave one Hankel column
        assert [(c.n_tr, c.n_d) for c in result.skipped] == [(20, 18)]
        assert result.samples == ()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_flat_truth_becomes_error_sample(self, workers, tmp_path):
        from modecast import MultivariateSeries

        t = 0.5 * np.arange(400)
        series = MultivariateSeries(
            ("osc", "flat"), 0.5, np.vstack([np.sin(2 * np.pi * t / 5.0), np.full(t.size, 3.0)])
        )
        plan = SweepPlan(
            ltr_levels=(4.0,), ld_levels=(1.0,), lte_levels=(1.0, 2.0),
            n_test_instants=3, seed=2, filter_on=False,
        )
        result = run_sweep(series, plan, 5.0, workers=workers)
        assert len(result.samples) == 2 * 3
        assert result.n_failures == len(result.samples)
        assert all("zero standard deviation" in s.error for s in result.samples)
        result.save(tmp_path)
        rows = (tmp_path / "samples.csv").read_text().splitlines()[1:]
        assert len(rows) == 6 and all("zero standard deviation" in r for r in rows)

    def test_skip_iff_shape_rule(self, small_noisy):
        t_ref = 5.0
        plan = SweepPlan(
            ltr_levels=(1.0, 2.0, 4.0), ld_levels=(0.5, 1.0, 2.0, 4.0),
            lte_levels=(1.0,), n_test_instants=1, seed=6,
        )
        result = run_sweep(small_noisy, plan, t_ref, workers=1)
        skipped_cells = {(c.l_tr, c.l_d) for c in result.skipped}
        for l_tr in plan.ltr_levels:
            for l_d in plan.ld_levels:
                n_tr = n_samples_nearest(l_tr * t_ref, small_noisy.dt)
                n_d = n_samples_nearest(l_d * t_ref, small_noisy.dt)
                assert ((l_tr, l_d) in skipped_cells) == (n_tr - 1 - n_d < 2)

    @pytest.mark.parametrize("workers", [1, 2, None])
    def test_deterministic_exports(self, small_noisy, tmp_path, workers):
        plan = SweepPlan(
            ltr_levels=(2.0, 4.0), ld_levels=(1.0,), lte_levels=(1.0,),
            n_test_instants=5, seed=7,
        )
        a = run_sweep(small_noisy, plan, 5.0, workers=1)
        b = run_sweep(small_noisy, plan, 5.0, workers=workers)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        a.save(dir_a)
        b.save(dir_b)
        for name in ("manifest.json", "samples.csv", "boxplots.csv", "samples.dat"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_sample_counts_per_cell(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(2.0, 4.0), ld_levels=(0.5, 1.0), lte_levels=(1.0, 2.0),
            n_test_instants=4, seed=8,
        )
        result = run_sweep(small_noisy, plan, 5.0, workers=1)
        assert len(result.samples) == 2 * 2 * 2 * 4
        values = result.metric_samples(2.0, 1.0, 1.0, "nrmse")
        assert values.size == 4 - sum(
            1 for s in result.samples
            if (s.l_tr, s.l_d, s.l_te) == (2.0, 1.0, 1.0) and s.report is None
        )

    def test_summaries_cover_cells(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(2.0,), ld_levels=(1.0,), lte_levels=(1.0, 2.0),
            n_test_instants=6, seed=9,
        )
        result = run_sweep(small_noisy, plan, 5.0, workers=1)
        summaries = result.summaries()
        assert set(summaries) == {
            (2.0, 1.0, lte, metric)
            for lte in (1.0, 2.0)
            for metric in ("nrmse", "nammae", "jsd")
        }


class TestCompareFilteredUnfiltered:
    def test_shared_instants(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(4.0,), ld_levels=(1.0,), lte_levels=(1.0,),
            n_test_instants=10, seed=10,
        )
        paired = compare_filtered_unfiltered(small_noisy, plan, 5.0, workers=1)
        assert np.array_equal(paired.filtered.instants, paired.unfiltered.instants)
        assert paired.filtered.plan.filter_on
        assert not paired.unfiltered.plan.filter_on

    def test_nearly_transparent_on_band_limited_noiseless(self):
        spec = SynthSpec(
            kind="multi_sine", duration_s=1200.0, dt=0.5,
            freqs_hz=(0.05, 0.12, 0.2), n_channels=3, seed=3,
        )
        series, _ = generate(spec)
        plan = SweepPlan(
            ltr_levels=(8.0,), ld_levels=(2.0,), lte_levels=(1.0,),
            n_test_instants=15, seed=11,
        )
        paired = compare_filtered_unfiltered(series, plan, 5.0, workers=1)
        mf = paired.filtered.median("nrmse", 1.0)
        mu = paired.unfiltered.median("nrmse", 1.0)
        # both pipelines forecast the band-limited signal near machine
        # precision; the filter changes the median by far less than 2% of
        # the metric's natural scale
        assert mf < 1e-6 and mu < 1e-6
        assert abs(mf - mu) < 0.02

    def test_filtering_helps_on_noisy_data(self, small_noisy):
        plan = SweepPlan(
            ltr_levels=(4.0, 8.0), ld_levels=(1.0, 2.0), lte_levels=(1.0,),
            n_test_instants=40, seed=12,
        )
        paired = compare_filtered_unfiltered(small_noisy, plan, 5.0)
        assert paired.filtered.median("nrmse", 1.0) < paired.unfiltered.median("nrmse", 1.0)

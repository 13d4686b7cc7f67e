import numpy as np
import pytest

from modecast import (
    EnsembleError,
    MultivariateSeries,
    ShdmdConfig,
    ValidationError,
    chebyshev_band,
    sample_hyperparams,
    shdmd_forecast,
)


def sine_series(dt=0.1, n=3000, period=10.0):
    t = dt * np.arange(n)
    x = np.sin(2 * np.pi / period * t)
    return MultivariateSeries(("osc",), dt, x[None, :])


class TestSampleHyperparams:
    def test_degenerate_ranges_floor(self):
        config = ShdmdConfig(ltr_range=(8.0, 8.0), ld_ratio_range=(0.5, 0.5), seed=0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            n_tr, n_d = sample_hyperparams(rng, config, t_ref=7.3143, dt=0.1)
            assert (n_tr, n_d) == (585, 292)

    def test_bounds_over_many_draws(self):
        config = ShdmdConfig(seed=1)  # ltr 4..16 periods, delay ratio 1/8..1
        rng = np.random.default_rng(1)
        t_ref, dt = 7.3143, 0.1
        ratios_tr, ratios_d = [], []
        for _ in range(10_000):
            n_tr, n_d = sample_hyperparams(rng, config, t_ref, dt)
            ratios_tr.append(n_tr * dt / t_ref)
            ratios_d.append(n_d / n_tr)
        assert 4.0 - 0.02 <= min(ratios_tr) and max(ratios_tr) <= 16.0
        assert 1 / 8 - 0.02 <= min(ratios_d) and max(ratios_d) <= 1.0

    def test_seed_determinism(self):
        config = ShdmdConfig(seed=2)
        a = [sample_hyperparams(np.random.default_rng(5), config, 5.0, 0.5) for _ in range(1)]
        b = [sample_hyperparams(np.random.default_rng(5), config, 5.0, 0.5) for _ in range(1)]
        assert a == b

    def test_draws_leave_two_hankel_columns(self):
        # Draw 79 of seed 0 at t_ref 5 s, dt 0.5 s is (98, 96) before the
        # redraw: a single Hankel column.
        rng = np.random.default_rng(0)
        for _ in range(100):
            n_tr, n_d = sample_hyperparams(rng, ShdmdConfig(), t_ref=5.0, dt=0.5)
            assert n_tr - 1 - n_d >= 2

    def test_impossible_ranges_error(self):
        config = ShdmdConfig(ltr_range=(0.1, 0.1), ld_ratio_range=(1.0, 1.0), seed=0)
        rng = np.random.default_rng(0)
        # 0.1 periods of 1 s at dt = 1 s: zero-sample windows can never fit
        with pytest.raises(ValidationError, match="tries"):
            sample_hyperparams(rng, config, t_ref=1.0, dt=1.0)


class TestChebyshevBand:
    def test_zero_std_degenerate(self):
        mean = np.array([1.0, -2.0])
        lo, hi = chebyshev_band(mean, np.zeros(2), 2.0)
        assert np.array_equal(lo, mean)
        assert np.array_equal(hi, mean)

    def test_unit_std_factor_two(self):
        lo, hi = chebyshev_band(np.zeros(3), np.ones(3), 2.0)
        assert np.allclose(lo, -2.0)
        assert np.allclose(hi, 2.0)

    def test_nesting_in_coverage_factor(self):
        rng = np.random.default_rng(3)
        mean = rng.standard_normal(20)
        std = np.abs(rng.standard_normal(20)) + 0.1
        lo1, hi1 = chebyshev_band(mean, std, 1.0)
        lo2, hi2 = chebyshev_band(mean, std, 2.0)
        assert np.all(lo2 < lo1)
        assert np.all(hi2 > hi1)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            chebyshev_band(np.zeros(3), np.zeros(4), 2.0)


class TestShdmdForecast:
    def test_singleton_ensemble(self):
        s = sine_series()
        config = ShdmdConfig(n_realizations=1, ltr_range=(8.0, 8.0), ld_ratio_range=(0.25, 0.25), seed=4)
        out = shdmd_forecast(s, config, t_end=200.0, horizon=10.0, t_ref=10.0)
        assert out.n_effective == 1
        assert np.allclose(out.std.values, 0.0)
        assert np.array_equal(out.mean.values, out.members[0])
        assert np.array_equal(out.lower.values, out.mean.values)

    def test_noiseless_sinusoid_tight_ensemble(self):
        s = sine_series(n=4000)
        config = ShdmdConfig(n_realizations=100, seed=5)
        out = shdmd_forecast(s, config, t_end=250.0, horizon=10.0, t_ref=10.0)
        # every realization nails the dynamics, so spread is numerically zero
        assert out.std.values.max() < 1e-3 * np.abs(s.values).max()

    def test_band_is_mean_plus_minus_k_std(self, demo_noisy):
        config = ShdmdConfig(n_realizations=20, seed=6, coverage_k=2.0)
        out = shdmd_forecast(demo_noisy, config, t_end=900.0, horizon=5.0, t_ref=5.0)
        assert np.allclose(out.lower.values, out.mean.values - 2.0 * out.std.values)
        assert np.allclose(out.upper.values, out.mean.values + 2.0 * out.std.values)
        assert np.all(out.std.values >= 0.0)

    def test_empirical_chebyshev_coverage(self, demo_noisy):
        config = ShdmdConfig(n_realizations=40, seed=7)
        out = shdmd_forecast(demo_noisy, config, t_end=1200.0, horizon=10.0, t_ref=5.0)
        inside = np.abs(out.members - out.mean.values) <= 2.0 * out.std.values + 1e-12
        frac_per_channel = inside.mean(axis=(0, 2))
        assert np.all(frac_per_channel >= 0.75)

    def test_seed_determinism_bitwise(self, demo_noisy):
        config = ShdmdConfig(n_realizations=15, seed=8)
        a = shdmd_forecast(demo_noisy, config, t_end=1000.0, horizon=5.0, t_ref=5.0)
        b = shdmd_forecast(demo_noisy, config, t_end=1000.0, horizon=5.0, t_ref=5.0)
        assert np.array_equal(a.mean.values, b.mean.values)
        assert np.array_equal(a.std.values, b.std.values)
        assert a.realizations == b.realizations

    def test_scale_invariance_through_zscore(self):
        s = sine_series(n=2500)
        scaled = s.with_values(1000.0 * s.values)
        config = ShdmdConfig(n_realizations=10, seed=9)
        a = shdmd_forecast(s, config, t_end=200.0, horizon=10.0, t_ref=10.0)
        b = shdmd_forecast(scaled, config, t_end=200.0, horizon=10.0, t_ref=10.0)
        assert np.allclose(1000.0 * a.mean.values, b.mean.values, rtol=1e-9, atol=1e-9)

    def test_metadata_records_draws(self, demo_noisy):
        config = ShdmdConfig(n_realizations=10, seed=10)
        out = shdmd_forecast(demo_noisy, config, t_end=800.0, horizon=5.0, t_ref=5.0)
        assert len(out.realizations) == 10
        for r in out.realizations:
            if r.ok:
                assert r.n_tr >= 2 and r.n_d >= 0
            else:
                assert r.message

    def test_csv_export_columns(self, demo_noisy, tmp_path):
        config = ShdmdConfig(n_realizations=5, seed=11)
        out = shdmd_forecast(demo_noisy, config, t_end=700.0, horizon=5.0, t_ref=5.0)
        path = tmp_path / "sto.csv"
        out.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "time"
        assert "wave_mean" in header and "wave_std" in header
        assert "wave_lo" in header and "wave_hi" in header
        assert len(header) == 1 + 4 * demo_noisy.n_channels


class TestHalfFailRule:
    """Members whose window starts before the record fail; the ensemble
    survives while at least half of them (rounded up) fit."""

    N = 9

    def forecast_with_k_ok(self, k: int, workers: int):
        s = sine_series()
        config = ShdmdConfig(n_realizations=self.N, seed=12)
        rng = np.random.default_rng(config.seed)
        n_trs = sorted(sample_hyperparams(rng, config, 10.0, s.dt)[0] for _ in range(self.N))
        assert len(set(n_trs)) == self.N
        # Windows of at most n_trs[k - 1] samples fit before this instant.
        t_end = (n_trs[k - 1] - 1) * s.dt
        return shdmd_forecast(s, config, t_end=t_end, horizon=5.0, t_ref=10.0, workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_half_ok_survives(self, workers):
        out = self.forecast_with_k_ok(5, workers)
        assert out.n_effective == 5
        failed = [r for r in out.realizations if not r.ok]
        assert len(failed) == 4 and all("before the record" in r.message for r in failed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_under_half_ok_raises(self, workers):
        with pytest.raises(EnsembleError, match="5/9 realizations failed"):
            self.forecast_with_k_ok(4, workers)

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecast import (
    HdmdConfig,
    InstabilityWarning,
    MultivariateSeries,
    SnapshotPair,
    ValidationError,
    build_hankel_pair,
    fit_exact_dmd,
    fit_hdmd,
    nrmse,
    predict,
)
from modecast import ShdmdConfig, SweepPlan, cli, hankel, run_sweep, shdmd_forecast
from modecast.hankel import blas_threads, n_samples_floor, pool_map


def make_series(values, dt=0.1, t0=0.0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = tuple(f"ch{i}" for i in range(values.shape[0]))
    return MultivariateSeries(names, dt, values, t0=t0)


def sine_series(freqs, amps, dt, n, n_channels=1, phase=0.0):
    t = dt * np.arange(n)
    rows = []
    for i in range(n_channels):
        x = np.zeros(n)
        for f, a in zip(freqs, amps):
            x += a * np.sin(2 * np.pi * f * t + phase + 0.9 * i)
        rows.append(x)
    return make_series(rows, dt=dt)


class TestSampleConversion:
    def test_floor_semantics(self):
        assert n_samples_floor(7.3143, 0.1) == 73
        assert n_samples_floor(16 * 7.3143, 0.1) == 1170
        assert n_samples_floor(1.0, 0.1) == 10  # exact multiple survives rounding

    def test_midrange_delay_depth(self):
        # l_tr ten periods, delay 0.5625 of it, at the 7.3143 s period
        config = HdmdConfig.from_seconds(10 * 7.3143, 5.625 * 7.3143, 0.1)
        assert config.n_tr == 731
        assert config.n_d == 411


class TestBuildHankelPair:
    def test_zero_delay_degenerates_to_plain_pair(self):
        rng = np.random.default_rng(0)
        s = make_series(rng.standard_normal((3, 12)))
        pair = build_hankel_pair(s, 0)
        assert np.array_equal(pair.X, s.values[:, :-1])
        assert np.array_equal(pair.Xp, s.values[:, 1:])

    def test_scalar_enumeration(self):
        s = make_series([[1.0, 2.0, 3.0, 4.0, 5.0]])
        pair = build_hankel_pair(s, 1)
        assert np.array_equal(pair.X, [[2, 3, 4], [1, 2, 3]])
        assert np.array_equal(pair.Xp, [[3, 4, 5], [2, 3, 4]])

    def test_published_shape_arithmetic(self):
        rng = np.random.default_rng(1)
        s = make_series(rng.standard_normal((15, 731)))
        pair = build_hankel_pair(s, 411)
        assert pair.X.shape == (6180, 319)
        assert pair.Xp.shape == (6180, 319)

    def test_too_short_reports_minimum(self):
        s = make_series([[1.0, 2.0, 3.0]])
        with pytest.raises(ValidationError, match="at least 6"):
            build_hankel_pair(s, 3)

    @given(
        n=st.integers(1, 4),
        n_d=st.integers(0, 8),
        extra=st.integers(3, 20),
    )
    @settings(deadline=None, max_examples=60)
    def test_shape_law_and_shift(self, n, n_d, extra):
        m = n_d + extra
        rng = np.random.default_rng(42)
        s = make_series(rng.standard_normal((n, m)))
        pair = build_hankel_pair(s, n_d)
        assert pair.X.shape == (n * (n_d + 1), m - 1 - n_d)
        assert np.array_equal(pair.Xp[:, :-1], pair.X[:, 1:])


class TestConfig:
    def test_boundary_rejected(self):
        with pytest.raises(ValidationError, match="Hankel columns"):
            HdmdConfig(n_tr=5, n_d=4)

    def test_minimal_valid(self):
        config = HdmdConfig(n_tr=4, n_d=1)
        assert config.n_tr - 1 - config.n_d == 2

    def test_single_column_rejected(self):
        # One Hankel column is below the snapshot pair's two.
        with pytest.raises(ValidationError, match="Hankel columns"):
            HdmdConfig(n_tr=20, n_d=18)


class TestFitHdmd:
    def test_sinusoids_on_unit_circle(self):
        dt = 0.1
        period = 8.0
        s = sine_series([1 / period], [1.0], dt, 1200, n_channels=2)
        n_tr = int(8 * period / dt)
        fc = fit_hdmd(s, HdmdConfig(n_tr=n_tr, n_d=3), t_end=s.t_end)
        mags = np.abs(fc.model.eigenvalues)
        osc = np.abs(fc.model.eigenvalues.imag) > 1e-9
        assert osc.any()
        assert np.all((mags[osc] > 0.999) & (mags[osc] < 1.001))

    def test_window_out_of_range(self):
        s = sine_series([0.1], [1.0], 0.1, 100)
        with pytest.raises(ValidationError, match="before the record"):
            fit_hdmd(s, HdmdConfig(n_tr=200, n_d=2), t_end=s.t_end)

    def test_latent_frequencies_need_delays(self):
        dt = 0.1
        s = sine_series([0.1, 0.23], [1.0, 0.8], dt, 2000)
        # without delays a scalar observation supports one mode only
        fc0 = fit_hdmd(s, HdmdConfig(n_tr=1000, n_d=0), t_end=s.t_end)
        assert fc0.model.rank <= 1
        # delays expose both latent frequencies; the window spans whole
        # periods of both tones so centering stays unbiased
        fc = fit_hdmd(s, HdmdConfig(n_tr=1000, n_d=3), t_end=s.t_end)
        freqs = np.abs(np.angle(fc.model.eigenvalues)) / (2 * np.pi * dt)
        for f_true in (0.1, 0.23):
            assert np.min(np.abs(freqs - f_true)) < 1e-6


class TestPredict:
    def test_noiseless_sinusoid_recovery(self):
        dt = 0.1
        period = 10.0
        s = sine_series([1 / period], [1.0], dt, 3000)
        t_end = s.t0 + 2500 * dt
        fc = fit_hdmd(s, HdmdConfig(n_tr=800, n_d=4), t_end=t_end)
        pred = predict(fc, period)
        i_end = s.sample_index(t_end)
        truth = s.window(i_end + 1, i_end + 1 + pred.n_samples)
        assert nrmse(pred, truth)[1] < 1e-3
        assert pred.t0 == pytest.approx(t_end + dt)

    def test_constant_channels_forecast_constant(self):
        dt = 0.1
        n = 500
        t = dt * np.arange(n)
        s = MultivariateSeries(
            ("osc", "flat"),
            dt,
            np.vstack([np.sin(2 * np.pi * 0.2 * t), np.full(n, 3.25)]),
        )
        fc = fit_hdmd(s, HdmdConfig(n_tr=300, n_d=4), t_end=s.t_end)
        pred = predict(fc, 5.0)
        assert np.allclose(pred.values[1], 3.25, atol=1e-6)

    def test_latent_two_sine_horizon(self):
        dt = 0.1
        s = sine_series([0.1, 0.23], [1.0, 0.5], dt, 4000)
        amp = np.abs(s.values).max()
        t_end = s.t0 + 3000 * dt
        fc = fit_hdmd(s, HdmdConfig(n_tr=800, n_d=40), t_end=t_end)
        pred = predict(fc, 2 * 10.0)  # two periods of the slow tone
        i_end = s.sample_index(t_end)
        truth = s.window(i_end + 1, i_end + 1 + pred.n_samples)
        assert np.abs(pred.values - truth.values).max() < 1e-3 * amp

    def test_zero_delay_equivalence_with_plain_dmd(self):
        dt = 0.1
        s = sine_series([0.15], [1.0], dt, 900, n_channels=2)
        t_end = s.t_end
        fc = fit_hdmd(s, HdmdConfig(n_tr=400, n_d=0), t_end=t_end)
        hdmd_pred = predict(fc, 3.0)

        # plain pipeline: same z-scored window, plain snapshot pair
        i_end = s.sample_index(t_end)
        window = s.window(i_end - 399, i_end + 1)
        mean = window.values.mean(axis=1, keepdims=True)
        std = window.values.std(axis=1, keepdims=True)
        normalized = (window.values - mean) / std
        model = fit_exact_dmd(SnapshotPair.from_snapshots(normalized, dt))
        from modecast import forecast

        plain = forecast(model, hdmd_pred.n_samples) * std + mean
        assert np.allclose(hdmd_pred.values, plain, atol=1e-10)

    def test_forecast_continuity(self):
        dt = 0.1
        s = sine_series([0.12], [1.0], dt, 1000, n_channels=2)
        t_end = s.t0 + 800 * dt
        fc = fit_hdmd(s, HdmdConfig(n_tr=500, n_d=6), t_end=t_end)
        pred = predict(fc, 2.0)
        i_end = s.sample_index(t_end)
        window = s.values[:, i_end - 499 : i_end + 1]
        increments = np.abs(np.diff(window, axis=1))
        jump = np.abs(pred.values[:, 0] - s.values[:, i_end])
        assert np.all(jump <= np.percentile(increments, 95, axis=1))

    def test_instability_warning_names_the_caller(self):
        dt = 1.0
        t = dt * np.arange(60)
        s = make_series(np.exp(0.1 * t) * np.sin(2 * np.pi * 0.1 * t), dt=dt)
        fc = fit_hdmd(s, HdmdConfig(n_tr=50, n_d=4), t_end=s.t_end)
        assert fc.model.is_unstable()
        with pytest.warns(InstabilityWarning) as record:
            predict(fc, 3.0)
        assert [w.filename for w in record] == [__file__]

    def test_horizon_below_dt_rejected(self):
        s = sine_series([0.1], [1.0], 0.1, 300)
        fc = fit_hdmd(s, HdmdConfig(n_tr=200, n_d=2), t_end=s.t_end)
        with pytest.raises(ValidationError, match="horizon"):
            predict(fc, 0.05)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count the calls into np.linalg.eig and np.linalg.eigvals."""
    calls = {"eig": 0, "eigvals": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestEigenvectorFreeForecasts:
    def test_ensemble_computes_no_eigenvectors(self, demo_noisy, linalg_calls):
        out = shdmd_forecast(
            demo_noisy, ShdmdConfig(n_realizations=12), 900.0, 10.0, 5.0, workers=1
        )
        assert out.n_effective == 12
        assert linalg_calls["eig"] == 0
        # One spectral radius per member, shared by its guard and its flag.
        assert linalg_calls["eigvals"] == 12

    def test_sweep_computes_no_eigenvectors(self, demo_noisy, linalg_calls):
        result = run_sweep(demo_noisy, SweepPlan(n_test_instants=2, seed=0), 5.0, workers=1)
        assert result.samples and result.n_failures == 0
        assert linalg_calls["eig"] == 0
        assert linalg_calls["eigvals"] > 0

    def test_analyze_computes_one_eigendecomposition(self, tmp_path, linalg_calls):
        argv = ["analyze", "--synth", "demo", "--dt", "0.5", "--duration", "600",
                "--noise-std", "0.1", "--ltr", "10T", "--ld", "0.5T", "--workers", "1",
                "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert linalg_calls == {"eig": 1, "eigvals": 0}


class TestForecasterExport:
    def test_dict_includes_embedding_fields(self):
        s = sine_series([0.1], [1.0], 0.1, 400, n_channels=2)
        fc = fit_hdmd(s, HdmdConfig(n_tr=300, n_d=5), t_end=s.t_end)
        doc = fc.to_dict()
        assert doc["n_d"] == 5
        assert doc["n_tr"] == 300
        assert doc["channels"] == ["ch0", "ch1"]
        assert len(doc["modes"]) == 2 * 6


@pytest.fixture
def caller_blas_threads():
    """Run the test with the caller's OpenBLAS on 2 threads, then put back
    the count it had."""
    controls = hankel._openblas()
    if not controls:
        pytest.skip("numpy is not linked against an OpenBLAS with thread controls")
    get, set_ = controls
    before = get()
    set_(2)
    yield 2
    set_(before)


class TestPoolMap:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fits_run_on_one_blas_thread(self, caller_blas_threads, workers):
        assert pool_map(lambda _: blas_threads(), range(4), workers) == [1] * 4
        assert blas_threads() == caller_blas_threads

    def test_count_restored_after_raise(self, caller_blas_threads):
        def boom(_):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            pool_map(boom, range(3), 2)
        assert blas_threads() == caller_blas_threads

    def test_count_restored_after_overlapping_calls(self, caller_blas_threads):
        entered, release = threading.Event(), threading.Event()
        inside = []

        def hold(_):
            entered.set()
            release.wait(10)
            inside.append(blas_threads())

        outer = threading.Thread(target=pool_map, args=(hold, [0], 1))
        outer.start()
        assert entered.wait(10)
        # A second call enters and leaves while the first is still inside.
        assert pool_map(lambda _: blas_threads(), [0], 1) == [1]
        assert blas_threads() == 1
        release.set()
        outer.join(10)
        assert inside == [1]
        assert blas_threads() == caller_blas_threads

    def test_results_in_order(self):
        assert pool_map(lambda x: x * x, range(7), None) == [x * x for x in range(7)]
        assert pool_map(lambda x: x, [], None) == []

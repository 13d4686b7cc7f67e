import json
import warnings

import numpy as np
import pytest

from modecast import (
    DegenerateDataError,
    DmdModel,
    InstabilityWarning,
    RankPolicy,
    SnapshotPair,
    ValidationError,
    continuous_eigenvalues,
    fit_exact_dmd,
    forecast,
)
from modecast.synth import SynthSpec, generate


def rotation_snapshots(theta=0.3, m=100):
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x = np.empty((2, m))
    x[:, 0] = [1.0, 0.0]
    for j in range(1, m):
        x[:, j] = r @ x[:, j - 1]
    return x


def match_eigs(found, expected):
    """Nearest-neighbor assignment error between two eigenvalue sets."""
    found = list(found)
    worst = 0.0
    for e in expected:
        dists = [abs(f - e) for f in found]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        found.pop(k)
    return worst


class TestFit:
    def test_rotation_spectrum(self):
        pair = SnapshotPair.from_snapshots(rotation_snapshots(), dt=0.1)
        model = fit_exact_dmd(pair)
        expected = [np.exp(0.3j), np.exp(-0.3j)]
        assert match_eigs(model.eigenvalues, expected) < 1e-8

    def test_scalar_decay(self):
        x = 0.9 ** np.arange(20.0)
        pair = SnapshotPair.from_snapshots(x, dt=0.1)
        model = fit_exact_dmd(pair)
        assert model.rank == 1
        assert abs(model.eigenvalues[0] - 0.9) < 1e-10
        # amplitudes recover the final sample through the (scalar) mode
        assert abs(model.modes[0, 0] * model.amplitudes[0] - x[-1]) < 1e-12

    def test_constant_data(self):
        pair = SnapshotPair.from_snapshots(np.full(30, 4.2), dt=0.1)
        model = fit_exact_dmd(pair)
        assert model.rank == 1
        assert abs(model.eigenvalues[0] - 1.0) < 1e-10

    def test_zero_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_exact_dmd(SnapshotPair.from_snapshots(np.zeros((2, 10)), dt=0.1))

    def test_rank_policies(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((6, 40))
        pair = SnapshotPair.from_snapshots(data, dt=0.1)
        assert fit_exact_dmd(pair, RankPolicy.full()).rank == 6
        assert fit_exact_dmd(pair, RankPolicy.fixed(3)).rank == 3
        assert fit_exact_dmd(pair, RankPolicy.tolerance(1e-12)).rank == 6

    def test_tolerance_discards_null_directions(self):
        # rank-2 data embedded in 4 dims
        rng = np.random.default_rng(1)
        basis = rng.standard_normal((4, 2))
        coords = rng.standard_normal((2, 50))
        pair = SnapshotPair.from_snapshots(basis @ coords, dt=0.1)
        model = fit_exact_dmd(pair)  # default tolerance policy
        assert model.rank == 2

    def test_invalid_tolerance(self):
        with pytest.raises(ValidationError):
            RankPolicy.tolerance(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            SnapshotPair(np.zeros((2, 5)), np.zeros((2, 6)), 0.1)

    def test_spectrum_recovery_random_lti(self):
        # noiseless diagonalizable systems with distinct eigenvalues
        for seed in range(3):
            spec = SynthSpec(
                kind="linear_lti",
                duration_s=30.0,
                dt=0.1,
                freqs_hz=(0.3, 0.9, 1.7),
                damping=(-0.02, 0.0, -0.05),
                amplitudes=(1.0, 0.7, 1.3),
                n_channels=6,
                seed=seed,
            )
            series, truth = generate(spec)
            pair = SnapshotPair.from_snapshots(series.values, dt=spec.dt)
            model = fit_exact_dmd(pair)
            assert match_eigs(model.eigenvalues, truth.eigenvalues) < 1e-8

    def test_conjugate_closure(self):
        rng = np.random.default_rng(2)
        pair = SnapshotPair.from_snapshots(rng.standard_normal((8, 60)), dt=0.1)
        model = fit_exact_dmd(pair)
        lam = model.eigenvalues
        for z in lam:
            assert np.min(np.abs(lam - np.conj(z))) < 1e-9

    def test_one_step_property_noisy(self):
        rng = np.random.default_rng(3)
        pair = SnapshotPair.from_snapshots(rng.standard_normal((10, 80)), dt=0.1)
        model = fit_exact_dmd(pair)
        coords = np.linalg.lstsq(model.modes, pair.X, rcond=None)[0]
        recon = model.modes @ (model.eigenvalues[:, None] * coords)
        direct = np.linalg.norm(pair.Xp - recon) / np.linalg.norm(pair.Xp)
        assert direct / 10.0 <= model.recon_error <= direct * 10.0

    def test_one_step_property_noiseless(self):
        pair = SnapshotPair.from_snapshots(rotation_snapshots(), dt=0.1)
        model = fit_exact_dmd(pair)
        assert model.recon_error < 1e-10

    def test_energy_normalization_and_order(self):
        rng = np.random.default_rng(4)
        pair = SnapshotPair.from_snapshots(rng.standard_normal((6, 50)), dt=0.1)
        model = fit_exact_dmd(pair)
        assert model.energies.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(model.energies) <= 1e-12)


class TestContinuousEigenvalues:
    def test_steady_mode(self):
        model = _toy_model([1.0], dt=0.1)
        assert continuous_eigenvalues(model)[0] == 0.0

    def test_oscillatory(self):
        model = _toy_model([np.exp(0.3j)], dt=0.1)
        omega = continuous_eigenvalues(model)[0]
        assert omega == pytest.approx(3.0j, abs=1e-12)
        assert omega.imag / (2 * np.pi) == pytest.approx(3.0 / (2 * np.pi))

    def test_real_decay(self):
        model = _toy_model([0.9], dt=0.1)
        omega = continuous_eigenvalues(model)[0]
        assert omega.real == pytest.approx(np.log(0.9) / 0.1, abs=1e-12)
        assert omega == pytest.approx(-1.0536051565782628, abs=1e-9)

    def test_zero_eigenvalue_excluded_with_warning(self):
        model = _toy_model([0.0, 0.5], dt=0.1)
        with pytest.warns(UserWarning, match="zero eigenvalue"):
            omega = continuous_eigenvalues(model)
        assert omega.shape == (1,)


def _toy_model(eigs, dt, amplitudes=None):
    eigs = np.asarray(eigs, dtype=complex)
    r = eigs.size
    return DmdModel.from_modes(
        eigenvalues=eigs,
        modes=np.eye(r, dtype=complex),
        amplitudes=np.ones(r, dtype=complex) if amplitudes is None else amplitudes,
        dt=dt,
        recon_error=0.0,
        energies=np.full(r, 1.0 / r),
    )


class TestForecast:
    def test_geometric_sequence(self):
        model = _toy_model([0.9], dt=0.1)
        out = forecast(model, 3)
        assert np.allclose(out[0], [0.9, 0.81, 0.729], atol=1e-12)

    def test_rotation_closed_form(self):
        pair = SnapshotPair.from_snapshots(rotation_snapshots(), dt=0.1)
        model = fit_exact_dmd(pair)
        out = forecast(model, 5)
        # snapshots run to index 99; steps continue from there
        expected = np.array([[np.cos(0.3 * (99 + s)), np.sin(0.3 * (99 + s))] for s in range(1, 6)]).T
        assert np.allclose(out, expected, atol=1e-6)

    def test_steady_mode_constant(self):
        model = _toy_model([1.0], dt=0.1, amplitudes=np.array([2.5 + 0j]))
        out = forecast(model, 4)
        assert np.allclose(out[0], 2.5)

    def test_imaginary_residue_small(self):
        pair = SnapshotPair.from_snapshots(rotation_snapshots(), dt=0.1)
        model = fit_exact_dmd(pair)
        powers = model.eigenvalues[:, None] ** np.arange(1, 11)
        complex_forecast = model.modes @ (powers * model.amplitudes[:, None])
        scale = np.abs(complex_forecast.real).max()
        assert np.abs(complex_forecast.imag).max() < 1e-8 * max(scale, 1.0)

    def test_growth_guard_warns_but_forecasts(self):
        model = _toy_model([1.2], dt=0.1)
        with pytest.warns(InstabilityWarning):
            out = forecast(model, 2)
        assert np.allclose(out[0], [1.2, 1.44])

    def test_step_one_matches_next_sample(self):
        x = rotation_snapshots(m=80)
        pair = SnapshotPair.from_snapshots(x[:, :-1], dt=0.1)
        model = fit_exact_dmd(pair)
        out = forecast(model, 1)
        assert np.allclose(out[:, 0], x[:, -1], atol=1e-6)

    def test_invalid_steps(self):
        model = _toy_model([0.9], dt=0.1)
        with pytest.raises(ValidationError):
            forecast(model, 0)


class TestExport:
    def test_json_round_trip_fields(self, tmp_path):
        pair = SnapshotPair.from_snapshots(rotation_snapshots(), dt=0.1)
        model = fit_exact_dmd(pair)
        path = tmp_path / "model.json"
        model.save_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dt", "rank", "eigenvalues", "modes", "amplitudes", "recon_error"}
        assert doc["rank"] == model.rank
        eig = [complex(re, im) for re, im in doc["eigenvalues"]]
        assert np.allclose(eig, model.eigenvalues)
        assert len(doc["modes"]) == model.n_states
        assert len(doc["modes"][0]) == model.rank

    def test_arrays_hold_the_complex_pairs(self, demo_noisy):
        # Each complex entry becomes one [re, im] pair, rows of modes kept.
        def pairs(arr):
            return [[float(z.real), float(z.imag)] for z in np.asarray(arr).ravel()]

        x = demo_noisy.values[:, :400]
        model = fit_exact_dmd(SnapshotPair.from_snapshots(np.vstack([x[:, :-3], x[:, 3:]]), dt=0.5))
        doc = model.to_dict()
        assert np.asarray(doc["eigenvalues"]).tolist() == pairs(model.eigenvalues)
        assert np.asarray(doc["modes"]).tolist() == [pairs(row) for row in model.modes]
        assert np.asarray(doc["amplitudes"]).tolist() == pairs(model.amplitudes)


def modal_forecast(model, n_steps):
    """Re(Phi diag(lambda^s) b), built from the model's modal fields."""
    powers = model.eigenvalues[:, None] ** np.arange(1, n_steps + 1)
    return np.real(model.modes @ (powers * model.amplitudes[:, None]))


def growing_snapshots(seed=0, m=60):
    """A rotation growing by 8% a step beside two decaying directions, lightly noisy."""
    rng = np.random.default_rng(seed)
    c, s = np.cos(0.4), np.sin(0.4)
    a = np.diag([1.0, 1.0, 0.7, 0.5])
    a[:2, :2] = 1.08 * np.array([[c, -s], [s, c]])
    x = np.empty((4, m))
    x[:, 0] = rng.standard_normal(4)
    for j in range(1, m):
        x[:, j] = a @ x[:, j - 1]
    return x * (1.0 + 1e-3 * rng.standard_normal(x.shape))


class TestReducedRoute:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forecast_equals_modal_propagation(self, seed):
        rng = np.random.default_rng(seed)
        pair = SnapshotPair.from_snapshots(rng.standard_normal((8, 60)), dt=0.1)
        model = fit_exact_dmd(pair)
        assert model.recurrence.operator.ndim == 2 and not model.min_norm_amplitudes
        out = forecast(model, 12)
        expected = modal_forecast(model, 12)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_growing_forecast_equals_modal_propagation(self):
        pair = SnapshotPair.from_snapshots(growing_snapshots(), dt=0.1)
        model = fit_exact_dmd(pair)
        assert np.max(np.abs(model.eigenvalues)) > 1.05
        assert model.recurrence.operator.ndim == 2 and not model.min_norm_amplitudes
        with pytest.warns(InstabilityWarning):
            out = forecast(model, 20)
        expected = modal_forecast(model, 20)
        assert np.linalg.norm(out - expected) <= 1e-10 * np.linalg.norm(expected)
        assert model.is_unstable()

    def test_rank_deficient_basis_takes_min_norm_modal_route(self):
        # X spans two directions; X' maps them onto nearly parallel columns,
        # so X' V / s is rank deficient while no exact mode falls below the
        # floor.
        rng = np.random.default_rng(5)
        x = np.zeros((4, 30))
        x[:2] = rng.standard_normal((2, 30))
        b = np.zeros((4, 4))
        b[:, :2] = [[0.9, 0.9], [0.0, 0.0], [1e4, 1e4], [0.0, 2e-12]]
        model = fit_exact_dmd(SnapshotPair(x, b @ x, 0.1))
        assert model.min_norm_amplitudes
        assert model.rank == 2
        assert model.recurrence.operator.ndim == 1
        assert np.array_equal(model.recurrence.operator, model.eigenvalues)
        assert np.allclose(forecast(model, 5), modal_forecast(model, 5), rtol=1e-12, atol=0)

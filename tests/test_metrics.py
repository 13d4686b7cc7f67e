import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modecast import MultivariateSeries, ValidationError, evaluate_all, jsd, nammae, nrmse
from modecast.metrics import DEFAULT_BINS
from oracles import oracle_jsd, oracle_nammae, oracle_nrmse

LN2 = math.log(2.0)


def random_pair(rng, n_channels=None, n_samples=None):
    n_channels = n_channels or rng.integers(1, 16)
    n_samples = n_samples or rng.integers(10, 501)
    truth = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), (n_channels, n_samples))
    pred = truth + rng.normal(0, rng.uniform(0.01, 1.0), truth.shape)
    return pred, truth


class TestNrmse:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 50))
        per, avg = nrmse(x, x)
        assert np.allclose(per, 0.0)
        assert avg == 0.0

    def test_hand_evaluated(self):
        per, avg = nrmse(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert per[0] == pytest.approx(2.0, abs=1e-12)
        assert avg == pytest.approx(2.0, abs=1e-12)

    def test_zero_prediction_near_one_on_standardized(self, demo_noisy):
        values = demo_noisy.values
        z = (values - values.mean(axis=1, keepdims=True)) / values.std(axis=1, keepdims=True)
        window = z[:, 1000:1500]
        per, avg = nrmse(np.zeros_like(window), window)
        assert abs(avg - 1.0) < 0.05

    def test_zero_sigma_names_channel(self):
        truth = MultivariateSeries(("a", "flat"), 0.1, np.vstack([np.arange(4.0), np.ones(4)]))
        pred = truth.with_values(truth.values + 0.1)
        with pytest.raises(ValidationError, match="flat"):
            nrmse(pred, truth)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            nrmse(np.zeros((2, 5)), np.zeros((2, 6)))


class TestNammae:
    def test_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 80))
        per, avg = nammae(x, x)
        assert np.allclose(per, 0.0)

    def test_constant_offset(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((1, 200))
        c = 0.7
        per, _ = nammae(truth + c, truth)
        assert per[0] == pytest.approx(c / truth.std(), abs=1e-12)

    def test_time_reversal_invariant(self):
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((4, 100))
        per, avg = nammae(truth[:, ::-1], truth)
        assert np.allclose(per, 0.0)


class TestJsd:
    def test_identity_zero(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 300))
        per, avg = jsd(x, x)
        assert np.all(per < 1e-12)

    def test_disjoint_supports_ln2(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.0, 1.0, (1, 400))
        truth = rng.uniform(2.0, 3.0, (1, 400))
        for bins in (10, 50, 128):
            per, _ = jsd(pred, truth, bins=bins)
            assert per[0] == pytest.approx(LN2, abs=1e-9)

    def test_two_bin_frozen_value(self):
        # Q = (1, 0) against R = (1/2, 1/2): direct evaluation of the
        # divergence gives (3/4) ln(4/3).
        pred = np.array([[0.1, 0.1, 0.1, 0.1]])
        truth = np.array([[0.1, 0.1, 0.9, 0.9]])
        per, _ = jsd(pred, truth, bins=2)
        expected = 0.75 * math.log(4.0 / 3.0)
        assert expected == pytest.approx(0.21576155433883565, abs=1e-15)
        assert per[0] == pytest.approx(expected, abs=1e-12)
        assert per[0] == pytest.approx(oracle_jsd(pred, truth, bins=2)[0][0], abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        pred, truth = random_pair(rng, 5, 200)
        a = jsd(pred, truth)[0]
        b = jsd(truth, pred)[0]
        assert np.allclose(a, b, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        pred, truth = random_pair(rng, 3, 150)
        perm = rng.permutation(150)
        a = jsd(pred, truth)[0]
        b = jsd(pred[:, perm], truth[:, perm])[0]
        assert np.allclose(a, b, atol=1e-12)

    def test_constant_identical_signals(self):
        x = np.full((1, 50), 2.5)
        per, _ = jsd(x, x)
        assert per[0] == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pred, truth = random_pair(rng)
            per, _ = jsd(pred, truth)
            assert np.all(per >= 0.0)
            assert np.all(per <= LN2 + 1e-12)

    def test_bad_bins(self):
        with pytest.raises(ValidationError, match="bins"):
            jsd(np.zeros((1, 4)), np.ones((1, 4)), bins=1)


def assert_jsd_matches_oracle(pred, truth, bins):
    pred, truth = np.asarray(pred, dtype=float), np.asarray(truth, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        per, avg = jsd(pred, truth, bins=bins)
    o_per, o_avg = oracle_jsd(pred.tolist(), truth.tolist(), bins=bins)
    assert np.allclose(per, o_per, rtol=0, atol=1e-12)
    assert avg == pytest.approx(o_avg, abs=1e-12)


class TestJsdOnePass:
    @pytest.mark.parametrize("lo, hi, bins", [(0.0, 1.0, 10), (-1.3, 2.9, 7), (1e3, 1e3 + 0.1, 50)])
    def test_values_on_interior_edges_and_on_hi(self, lo, hi, bins):
        width = (hi - lo) / bins
        on_edges = [lo + i * width for i in range(1, bins)]
        pred = [[lo, *on_edges, hi]]
        truth = [[hi, hi, lo, *on_edges[:-1]]]
        assert_jsd_matches_oracle(pred, truth, bins)

    def test_constant_channel_beside_varying_ones(self):
        rng = np.random.default_rng(15)
        pred, truth = random_pair(rng, 4, 80)
        pred[1] = truth[1] = 2.5
        per, _ = jsd(pred, truth)
        assert per[1] == 0.0
        assert np.all(per[[0, 2, 3]] > 0.0)
        assert_jsd_matches_oracle(pred, truth, DEFAULT_BINS)

    def test_two_bins(self):
        rng = np.random.default_rng(16)
        pred, truth = random_pair(rng, 5, 33)
        assert_jsd_matches_oracle(pred, truth, 2)
        # Half the values exactly on the single interior edge.
        assert_jsd_matches_oracle([[0.0, 0.5, 0.5, 1.0]], [[0.5, 0.5, 0.2, 1.0]], 2)

    @given(
        n_channels=st.integers(1, 6),
        n_samples=st.integers(1, 40),
        bins=st.integers(2, 60),
        data=st.data(),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_oracle(self, n_channels, n_samples, bins, data):
        # Values from a small grid repeat and land on edges; floats fill in.
        value = st.one_of(
            st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]),
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
        )
        row = st.lists(value, min_size=n_samples, max_size=n_samples)
        rows = st.lists(row, min_size=n_channels, max_size=n_channels)
        assert_jsd_matches_oracle(data.draw(rows), data.draw(rows), bins)


class TestEvaluateAll:
    def test_identity_all_zero(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 60))
        report = evaluate_all(x, x)
        assert report.avg_nrmse == 0.0
        assert report.avg_nammae == 0.0
        assert report.avg_jsd < 1e-12

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            pred, truth = random_pair(rng)
            report = evaluate_all(pred, truth)
            o_nr = oracle_nrmse(pred.tolist(), truth.tolist())
            o_na = oracle_nammae(pred.tolist(), truth.tolist())
            o_js = oracle_jsd(pred.tolist(), truth.tolist())
            assert np.allclose(report.nrmse, o_nr[0], atol=1e-12)
            assert np.allclose(report.nammae, o_na[0], atol=1e-12)
            assert np.allclose(report.jsd, o_js[0], atol=1e-12)
            assert report.avg_nrmse == pytest.approx(o_nr[1], abs=1e-12)
            assert report.avg_nammae == pytest.approx(o_na[1], abs=1e-12)
            assert report.avg_jsd == pytest.approx(o_js[1], abs=1e-12)

    def test_averages_are_channel_means(self):
        rng = np.random.default_rng(11)
        pred, truth = random_pair(rng, 6, 120)
        report = evaluate_all(pred, truth)
        assert report.avg_nrmse == pytest.approx(report.nrmse.mean(), abs=1e-15)
        assert report.avg_nammae == pytest.approx(report.nammae.mean(), abs=1e-15)
        assert report.avg_jsd == pytest.approx(report.jsd.mean(), abs=1e-15)

    def test_series_inputs_carry_names(self, demo_noisy):
        window = demo_noisy.window(100, 200)
        report = evaluate_all(window, window)
        assert report.channels == demo_noisy.channels

    def test_json_export_shape(self, tmp_path):
        rng = np.random.default_rng(12)
        pred, truth = random_pair(rng, 2, 40)
        report = evaluate_all(pred, truth, bins=32)
        path = tmp_path / "metrics.json"
        report.save_json(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"channels", "per_channel", "averaged", "window_samples", "bins"}
        assert doc["bins"] == 32
        assert doc["window_samples"] == 40
        assert set(doc["per_channel"]) == {"nrmse", "nammae", "jsd"}


class TestInvariances:
    @given(
        a=st.floats(0.1, 50).flatmap(lambda x: st.sampled_from([x, -x])),
        b=st.floats(-20, 20),
    )
    @settings(deadline=None, max_examples=40)
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(13)
        pred, truth = random_pair(rng, 3, 100)
        base_nr = nrmse(pred, truth)
        base_na = nammae(pred, truth)
        scaled_nr = nrmse(a * pred + b, a * truth + b)
        scaled_na = nammae(a * pred + b, a * truth + b)
        assert np.allclose(base_nr[0], scaled_nr[0], rtol=1e-9, atol=1e-9)
        assert np.allclose(base_na[0], scaled_na[0], rtol=1e-9, atol=1e-9)

    def test_nonnegativity(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            pred, truth = random_pair(rng)
            assert np.all(nrmse(pred, truth)[0] >= 0)
            assert np.all(nammae(pred, truth)[0] >= 0)
            assert np.all(jsd(pred, truth)[0] >= 0)

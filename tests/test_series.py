import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from modecast import (
    FilterSpec,
    MultivariateSeries,
    ParseError,
    ValidationError,
    load_csv,
    lowpass_filter,
    resample_uniform,
    write_csv,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)
from modecast.series import write_json
from oracles import tone_amplitude


def make_series(values, dt=0.1, t0=0.0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = tuple(f"ch{i}" for i in range(values.shape[0]))
    return MultivariateSeries(names, dt, values, t0=t0)


class TestContainer:
    def test_basic_properties(self):
        s = make_series([[1.0, 2.0, 3.0]], dt=0.5, t0=1.0)
        assert s.n_channels == 1
        assert s.n_samples == 3
        assert s.t_end == pytest.approx(2.0)
        assert np.allclose(s.times(), [1.0, 1.5, 2.0])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError, match="unique"):
            MultivariateSeries(("a", "a"), 0.1, np.zeros((2, 4)))

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValidationError, match="dt"):
            make_series([[1.0, 2.0]], dt=0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            make_series([[1.0, np.nan]])

    def test_values_immutable(self):
        s = make_series([[1.0, 2.0]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 9.0

    def test_window_and_sample_index(self):
        s = make_series([np.arange(10.0)], dt=0.1)
        w = s.window(3, 7)
        assert w.n_samples == 4
        assert w.t0 == pytest.approx(0.3)
        assert s.sample_index(0.4) == 4
        with pytest.raises(ValidationError):
            s.sample_index(0.44)


class TestResample:
    def test_linear_segment(self):
        out = resample_uniform(np.array([0.0, 1.0]), np.array([0.0, 10.0]), 0.5)
        assert np.allclose(out, [0.0, 5.0, 10.0])

    def test_identity_on_constant(self):
        out = resample_uniform(np.array([0.0, 0.1, 0.2]), np.array([1.0, 1.0, 1.0]), 0.1)
        assert np.allclose(out, [1.0, 1.0, 1.0])

    def test_hand_computed_grid(self):
        # grid 0, 0.3, ..., 1.8 on the segment v = 2 t
        out = resample_uniform(np.array([0.0, 2.0]), np.array([0.0, 4.0]), 0.3)
        expected = [0.0, 0.6, 1.2, 1.8, 2.4, 3.0, 3.6]
        assert out.shape == (7,)
        assert np.allclose(out, expected, atol=1e-12)

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError, match="increasing"):
            resample_uniform(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]), 0.5)

    @given(
        a=st.floats(-5, 5),
        b=st.floats(-5, 5),
        dt=st.sampled_from([0.05, 0.1, 0.25, 0.3]),
    )
    @settings(deadline=None, max_examples=50)
    def test_exact_on_affine(self, a, b, dt):
        t = np.linspace(0.0, 3.0, 17)
        v = a * t + b
        out = resample_uniform(t, v, dt)
        grid = t[0] + dt * np.arange(out.size)
        assert np.allclose(out, a * grid + b, atol=1e-12 * max(1.0, abs(a), abs(b)))


class TestZScore:
    def test_known_values(self):
        s = make_series([[1.0, 2.0, 3.0]])
        stats = zscore_fit(s)
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)
        z = zscore_apply(s, stats)
        assert np.allclose(z.values[0], [-1.224744871391589, 0.0, 1.224744871391589])

    def test_idempotent_on_standardized(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        x = (x - x.mean()) / x.std()
        s = make_series([x])
        z = zscore_apply(s, zscore_fit(s))
        assert np.allclose(z.values[0], x, atol=1e-12)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        s = make_series(rng.normal(3.0, 2.5, size=(5, 200)))
        stats = zscore_fit(s)
        back = zscore_invert(zscore_apply(s, stats), stats)
        assert np.allclose(back.values, s.values, rtol=1e-12, atol=1e-12)
        fwd = zscore_apply(zscore_invert(s, stats), stats)
        assert np.allclose(fwd.values, s.values, rtol=1e-12, atol=1e-12)

    def test_applied_moments(self):
        rng = np.random.default_rng(2)
        s = make_series(rng.normal(-7.0, 0.3, size=(3, 400)))
        z = zscore_apply(s, zscore_fit(s))
        assert np.all(np.abs(z.values.mean(axis=1)) < 1e-12)
        assert np.allclose(z.values.std(axis=1), 1.0, atol=1e-12)

    def test_constant_channel_named_in_error(self):
        s = MultivariateSeries(("ok", "flat"), 0.1, np.vstack([np.arange(4.0), np.ones(4)]))
        with pytest.raises(ValidationError, match="flat"):
            zscore_fit(s)

    def test_eps_fallback_keeps_constant(self):
        s = MultivariateSeries(("ok", "flat"), 0.1, np.vstack([np.arange(4.0), np.ones(4)]))
        stats = zscore_fit(s, eps_std=1e-12)
        assert stats.std[1] == 1.0
        z = zscore_apply(s, stats)
        assert np.allclose(z.values[1], 0.0)


class TestLowpass:
    def test_dc_preserved(self):
        s = make_series([np.full(400, 3.7)], dt=0.1)
        out = lowpass_filter(s, FilterSpec(0.5, 101))
        assert np.allclose(out.values, 3.7, atol=1e-9)

    def test_passband_tone(self):
        dt = 0.1
        t = dt * np.arange(4000)
        s = make_series([np.sin(2 * np.pi * 0.1 * t)], dt=dt)
        out = lowpass_filter(s, FilterSpec(0.5, 101))
        mid = slice(200, 3800)  # steady region away from the padded edges
        ratio = tone_amplitude(out.values[0][mid], 0.1, dt) / tone_amplitude(
            s.values[0][mid], 0.1, dt
        )
        assert ratio > 0.99

    def test_stopband_tone(self):
        dt = 0.1
        t = dt * np.arange(4000)
        s = make_series([np.sin(2 * np.pi * 2.0 * t)], dt=dt)
        out = lowpass_filter(s, FilterSpec(0.5, 101))
        mid = slice(200, 3800)
        ratio = tone_amplitude(out.values[0][mid], 2.0, dt) / tone_amplitude(
            s.values[0][mid], 2.0, dt
        )
        assert ratio < 0.1

    def test_probe_tones_generic_spec(self):
        # passband probe at a tenth of Nyquist, stopband probe at twice the
        # cutoff, with a cutoff that separates them
        dt = 0.1
        spec = FilterSpec(2.0, 101)
        t = dt * np.arange(4000)
        mid = slice(200, 3800)
        f_pass = 0.1 * (0.5 / dt)
        low = make_series([np.sin(2 * np.pi * f_pass * t)], dt=dt)
        out = lowpass_filter(low, spec)
        assert tone_amplitude(out.values[0][mid], f_pass, dt) > 0.99
        high = make_series([np.sin(2 * np.pi * 2 * spec.cutoff_hz * t)], dt=dt)
        out = lowpass_filter(high, spec)
        # > 20 dB attenuation
        assert tone_amplitude(out.values[0][mid], 2 * spec.cutoff_hz, dt) < 0.1

    def test_output_length_and_zero_phase(self):
        dt = 0.1
        t = dt * np.arange(2000)
        x = np.sin(2 * np.pi * 0.2 * t)
        s = make_series([x], dt=dt)
        out = lowpass_filter(s, FilterSpec(0.5, 101))
        assert out.n_samples == s.n_samples
        # no group delay: in-band signal stays aligned
        mid = slice(300, 1700)
        lag = np.argmax(np.correlate(out.values[0][mid], x[mid], mode="full")) - (
            len(x[mid]) - 1
        )
        assert lag == 0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        spec = FilterSpec(0.5, 51)
        x = make_series([rng.standard_normal(600)], dt=0.1)
        y = make_series([rng.standard_normal(600)], dt=0.1)
        combo = make_series([2.0 * x.values[0] - 0.5 * y.values[0]], dt=0.1)
        lhs = lowpass_filter(combo, spec).values
        rhs = 2.0 * lowpass_filter(x, spec).values - 0.5 * lowpass_filter(y, spec).values
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_commutes_with_zscore(self, demo_clean):
        spec = FilterSpec(0.4, 101)
        a = lowpass_filter(zscore_apply(demo_clean, zscore_fit(demo_clean)), spec)
        filtered = lowpass_filter(demo_clean, spec)
        b = zscore_apply(filtered, zscore_fit(filtered))
        for i in range(a.n_channels):
            corr = np.corrcoef(a.values[i], b.values[i])[0, 1]
            assert corr > 0.999

    def test_cutoff_above_nyquist_rejected(self):
        s = make_series([np.arange(300.0)], dt=0.1)
        with pytest.raises(ValidationError, match="Nyquist"):
            lowpass_filter(s, FilterSpec(5.0, 101))

    def test_even_kernel_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            FilterSpec(0.5, 100)


class TestCsv:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_already_uniform(self, tmp_path):
        rows = ["time,a,b"]
        for k in range(100):
            rows.append(f"{k * 0.1},{float(k)},{float(2 * k)}")
        path = tmp_path / "u.csv"
        self._write(path, rows)
        s = load_csv(path, 0.1)
        assert s.n_samples == 100
        assert s.channels == ("a", "b")
        assert np.allclose(s.values[0], np.arange(100.0), atol=1e-9)

    def test_jittered_resampled_denser(self, tmp_path):
        rng = np.random.default_rng(5)
        t = np.arange(100) * 1.0 + rng.uniform(-0.05, 0.05, 100)
        t[0] = 0.0
        v = 2.0 * t + 1.0
        rows = ["time,x"] + [f"{float(ti)!r},{float(vi)!r}" for ti, vi in zip(t, v)]
        path = tmp_path / "j.csv"
        self._write(path, rows)
        s = load_csv(path, 0.1)
        assert s.n_samples >= 10 * 90
        grid = s.times()
        assert np.allclose(s.values[0], 2.0 * grid + 1.0, atol=1e-9)

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["time,x", "0.0,1.0", "1.0,2.0", "1.0,3.0", "2.0,4.0"])
        with pytest.raises(ValidationError, match="increasing"):
            load_csv(path, 0.1)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        self._write(path, ["time,x", "0.0,1.0", "0.5,oops"])
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, 0.1)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        self._write(path, ["time,x", "0.0,1.0", "0.5"])
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path, 0.1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValidationError, match="empty"):
            load_csv(path, 0.1)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        s = MultivariateSeries(("p", "q"), 0.25, rng.standard_normal((2, 40)), t0=2.0)
        path = tmp_path / "rt.csv"
        write_csv(s, path)
        back = load_csv(path, 0.25)
        assert back.channels == s.channels
        assert np.array_equal(back.values, s.values)
        assert back.t0 == s.t0


def tolisted(doc):
    """The document with every array replaced by its tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: tolisted(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [tolisted(v) for v in doc]
    return doc


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e300, 0.1]
float_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL_FLOATS),
)
keys = st.text(alphabet=st.characters(codec="utf-8"), max_size=4)
documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | float_arrays,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=12,
)


class TestWriteJson:
    @settings(deadline=None, max_examples=100)
    @given(doc=documents)
    @example(doc={"é\u2603": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
                  "l": [np.zeros((2, 0)), np.zeros(0), np.ones((0, 3)), {"m": np.eye(3)[None]}]})
    @example(doc=np.arange(24.0).reshape(2, 3, 4))
    def test_bytes_equal_json_dump_of_tolist(self, doc, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "write_json.json"
        write_json(path, doc)
        assert path.read_bytes() == json.dumps(tolisted(doc), indent=2).encode("ascii")

    def test_long_arrays_span_several_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        doc = {"flat": rng.standard_normal(20001), "rows": rng.standard_normal((3001, 7, 2))}
        doc["rows"][1234, 5, 1] = math.nan
        write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == json.dumps(tolisted(doc), indent=2)

    def test_marker_in_document_raises(self, tmp_path):
        from modecast.series import _ARRAY_MARK

        for doc in ({"a": _ARRAY_MARK, "b": np.zeros(2)}, {_ARRAY_MARK: 1.0}):
            with pytest.raises(ValidationError, match="marker"):
                write_json(tmp_path / "doc.json", doc)

    @pytest.mark.parametrize("arr", [np.zeros(2, dtype=complex), np.arange(3),
                                     np.array([1.0, None]), np.zeros(2, dtype=np.float32)])
    def test_other_arrays_raise_type_error(self, arr, tmp_path):
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "doc.json", {"x": [arr]})

    def test_json_is_written_only_by_series(self):
        # One serializer: json.dump/json.dumps are called in series.py alone.
        callers = set()
        for path in sorted((Path(__file__).parents[1] / "src" / "modecast").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module == "json":
                    if {a.name for a in node.names} & {"dump", "dumps"}:
                        callers.add(path.name)
                if (isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
                        and isinstance(node.value, ast.Name) and node.value.id == "json"):
                    callers.add(path.name)
        assert callers == {"series.py"}

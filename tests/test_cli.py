import csv
import json

import numpy as np
import pytest

from modecast import FilterSpec, cli, load_csv, lowpass_filter, reference_period
from modecast.hankel import blas_threads, usable_cores
from modecast.harness import dataset_hash
from modecast.synth import SynthSpec, demo_dataset, generate

DT = 0.5
DEMO = ["--synth", "demo", "--dt", str(DT), "--duration", "600", "--noise-std", "0.1",
        "--workers", "1"]


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def assert_threads_recorded(manifest, workers=None):
    """BLAS thread counts in every manifest; the pool size where a pool runs."""
    assert manifest["blas_threads"] == blas_threads()
    assert manifest["pool_blas_threads"] == (None if blas_threads() is None else 1)
    if workers is None:
        assert "workers" not in manifest
    else:
        assert manifest["workers"] == workers


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert run("synth", "--out", out, "--dt", DT, "--duration", "600", "--noise-std", "0.1") == 0
    return out


def test_synth(synth_dir):
    series, truth = demo_dataset(duration_s=600.0, dt=DT, noise_std=0.1, seed=7)
    manifest = read_json(synth_dir / "manifest.json")
    assert manifest["command"] == "synth"
    assert manifest["dataset_sha256"] == dataset_hash(series)
    assert manifest["n_samples"] == series.n_samples == 1201
    assert_threads_recorded(manifest)
    assert manifest["channels"] == list(series.channels)
    assert read_json(synth_dir / "truth.json")["dominant_period_s"] == truth.dominant_period_s
    loaded = load_csv(synth_dir / "dataset.csv", DT)
    assert np.array_equal(loaded.values, series.values)


def test_analyze(synth_dir, tmp_path):
    out = tmp_path / "analyze"
    assert run("analyze", "--csv", synth_dir / "dataset.csv", "--dt", DT, "--workers", 1,
               "--ltr", "10T", "--ld", "0.5T", "--out", out) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "analyze"
    assert manifest["source"]["kind"] == "csv"
    assert manifest["preprocess"]["filter_on"] is True
    assert_threads_recorded(manifest)
    t_ref = manifest["t_ref_s"]
    assert (manifest["n_tr"], manifest["n_d"]) == (int(10 * t_ref / DT), int(0.5 * t_ref / DT))
    model = read_json(out / "model.json")
    report = read_json(out / "modal_report.json")
    assert len(report["modes"]) == model["rank"]
    assert sum(m["energy"] for m in report["modes"]) == pytest.approx(1.0, abs=1e-9)
    assert len(report["channels"]) == 15 * (manifest["n_d"] + 1)
    text = (out / "modal_report.txt").read_text(encoding="utf-8").splitlines()
    assert len(text) == 1 + model["rank"]


def test_forecast_deterministic_scored(tmp_path):
    out = tmp_path / "forecast"
    assert run("forecast", *DEMO, "--t-end", 400, "--out", out) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "forecast"
    assert manifest["stochastic"] is False
    assert manifest["t_end"] == 400.0
    assert_threads_recorded(manifest)
    n_steps = int(manifest["horizon_s"] / DT)
    rows = read_rows(out / "prediction.csv")
    assert len(rows) == n_steps
    assert float(rows[0]["time"]) == 400.0 + DT
    metrics = read_json(out / "metrics.json")
    assert metrics["window_samples"] == n_steps
    assert manifest["avg_nrmse"] == metrics["averaged"]["nrmse"]
    model = read_json(out / "model.json")
    assert (model["n_tr"], model["n_d"]) == (manifest["n_tr"], manifest["n_d"])


def test_forecast_stochastic(tmp_path):
    out = tmp_path / "stochastic"
    assert run("forecast", *DEMO, "--t-end", 400, "--stochastic", "--realizations", 20,
               "--out", out) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["stochastic"] is True
    assert_threads_recorded(manifest, workers=1)
    assert len(manifest["realizations"]) == 20
    assert manifest["n_effective"] == sum(r["ok"] for r in manifest["realizations"]) == 20
    rows = read_rows(out / "stochastic.csv")
    prediction = read_rows(out / "prediction.csv")
    assert len(rows) == len(prediction) == int(manifest["horizon_s"] / DT)
    assert [r["wave_mean"] for r in rows] == [r["wave"] for r in prediction]
    assert read_json(out / "metrics.json")["averaged"]["nrmse"] == manifest["avg_nrmse"]


def test_forecast_stochastic_default_workers(tmp_path):
    out = tmp_path / "stochastic"
    assert DEMO[-2:] == ["--workers", "1"]
    assert run("forecast", *DEMO[:-2], "--t-end", 400, "--stochastic", "--realizations", 4,
               "--out", out) == 0
    assert_threads_recorded(read_json(out / "manifest.json"), workers=usable_cores())


SWEEP = ["--ltr-levels", "2,4", "--ld-levels", "0.5,4", "--lte-levels", "1", "--instants", 3]


def test_sweep(tmp_path):
    out = tmp_path / "sweep"
    assert run("sweep", *DEMO, *SWEEP, "--out", out) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "sweep"
    assert_threads_recorded(manifest, workers=1)
    assert manifest["plan"]["filter_on"] is True
    assert manifest["dataset_sha256"] == manifest["source"]["sha256"]
    rows = read_rows(out / "samples.csv")
    assert manifest["n_samples"] == len(rows) == 2 * 3
    assert manifest["n_failures"] == 0
    assert {(c["l_tr"], c["l_d"]) for c in manifest["skipped_cells"]} == {(2.0, 4.0), (4.0, 4.0)}
    assert len(read_rows(out / "boxplots.csv")) == 2 * 3
    assert (out / "samples.dat").is_file()


def test_sweep_no_filter_recorded(tmp_path):
    out = tmp_path / "sweep"
    assert run("sweep", *DEMO, *SWEEP, "--no-filter", "--out", out) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["plan"]["filter_on"] is False
    assert len(manifest["skipped_cells"]) == 2
    assert all(c["reason"] for c in manifest["skipped_cells"])


def test_sweep_compare_filter(tmp_path):
    out = tmp_path / "sweep"
    assert run("sweep", *DEMO, *SWEEP, "--compare-filter", "--out", out) == 0
    assert read_json(out / "manifest.json")["mode"] == "compare-filter"
    assert read_json(out / "filtered" / "manifest.json")["plan"]["filter_on"] is True
    assert read_json(out / "unfiltered" / "manifest.json")["plan"]["filter_on"] is False


def test_sweep_t_ref_from_raw_record(tmp_path):
    # A strong 0.7 Hz tone above the 0.5 Hz filter cutoff: the raw and the
    # filtered record peak at different frequencies.
    spec = {"kind": "multi_sine", "duration_s": 600.0, "dt": DT, "freqs_hz": [0.05, 0.7],
            "amplitudes": [1.0, 3.0], "n_channels": 1, "seed": 2}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    raw, _ = generate(SynthSpec(**{**spec, "freqs_hz": (0.05, 0.7), "amplitudes": (1.0, 3.0)}))
    t_raw = reference_period(raw, channel="ch0").period_s
    t_filtered = reference_period(lowpass_filter(raw, FilterSpec()), channel="ch0").period_s
    assert t_raw != pytest.approx(t_filtered, rel=0.1)

    out = tmp_path / "sweep"
    assert run("sweep", "--synth", spec_path, "--peak-channel", "ch0", "--dt", DT,
               "--workers", 1, *SWEEP, "--out", out) == 0
    assert read_json(out / "manifest.json")["t_ref_s"] == t_raw


def test_two_data_sources_rejected(synth_dir, tmp_path, capsys):
    status = run("analyze", "--csv", synth_dir / "dataset.csv", "--synth", "demo",
                 "--out", tmp_path / "both")
    assert status == 1
    assert "exactly one data source" in capsys.readouterr().err

"""Fast tests of the benchmark itself: each output check must reject a
deliberately perturbed output, the reference fit must recover exact
eigenvalues, and tracing must reach every importer of a wrapped name.

    python3 -m pytest -q bench/test_bench.py
"""

import csv
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import modecast as mc  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::modecast.errors.InstabilityWarning")


def test_reference_fit_recovers_lti_eigenvalues():
    spec = mc.SynthSpec("linear_lti", duration_s=60.0, dt=0.1, freqs_hz=(0.1, 0.37),
                        damping=(-0.02, 0.0), n_channels=4)
    series, truth = mc.generate(spec)
    X, Xp = ref.hankel_pair(series.values, 0)
    lam, _ = ref.exact_dmd(X, Xp)
    expect = np.array(truth.eigenvalues)
    assert lam.size == expect.size
    assert np.allclose(np.sort_complex(lam), np.sort_complex(expect), rtol=0, atol=1e-10)


def test_reference_filter_matches_design():
    values = np.random.default_rng(0).normal(size=(2, 400))
    series = mc.MultivariateSeries(("a", "b"), 0.5, values)
    got = ref.lowpass(values, 0.5, 101, 0.5)
    assert np.allclose(got, mc.lowpass_filter(series, mc.FilterSpec()).values, atol=1e-13)


# --- ensemble -------------------------------------------------------------

@pytest.fixture(scope="module")
def ensemble_case():
    raw, _ = workloads.noisy_record(3, 600.0, 0.5, workloads.DEMO_SEED)
    record = mc.lowpass_filter(raw, mc.FilterSpec())
    config = mc.ShdmdConfig(n_realizations=8, ltr_range=(4.0, 8.0))
    t_end = 400.0
    out = mc.shdmd_forecast(record, config, t_end, 10.0, 5.0, workers=2)
    return record, t_end, out


def _ensemble_errors(case, **changes):
    record, t_end, out = case
    return workloads.check_ensemble(record.values, record.dt, t_end,
                                    dataclasses.replace(out, **changes))[0]


def test_ensemble_check_accepts_program_output(ensemble_case):
    assert _ensemble_errors(ensemble_case) == []


@pytest.mark.parametrize("field, expect", [
    ("members", "reference fit"),
    ("mean", "mean differs"),
    ("std", "std differs"),
    ("lower", "lower band"),
    ("upper", "upper band"),
])
def test_ensemble_check_rejects_perturbed_field(ensemble_case, field, expect):
    out = ensemble_case[2]
    value = getattr(out, field)
    if field == "members":
        bad = value.copy()
        bad[0] *= 1 + 1e-6
    else:
        bad = value.with_values(value.values + 1e-6)
    errors = _ensemble_errors(ensemble_case, **{field: bad})
    assert any(expect in e for e in errors), errors


def test_ensemble_check_rejects_mean_worse_than_members(ensemble_case):
    out = ensemble_case[2]
    far = out.mean.with_values(out.mean.values + 10 * out.mean.values.std(axis=1, keepdims=True))
    errors = _ensemble_errors(ensemble_case, mean=far)
    assert any("exceeds the members' mean NRMSE" in e for e in errors), errors


def test_ensemble_check_rejects_shifted_start(ensemble_case):
    out = ensemble_case[2]
    shifted = mc.MultivariateSeries(out.mean.channels, out.mean.dt, out.mean.values,
                                    t0=out.mean.t0 + out.mean.dt)
    assert any("forecast starts" in e for e in _ensemble_errors(ensemble_case, mean=shifted))


def test_ensemble_check_rejects_dropped_member(ensemble_case):
    out = ensemble_case[2]
    errors = _ensemble_errors(ensemble_case, members=out.members[1:])
    assert any("members shape" in e for e in errors), errors


# --- sweep ----------------------------------------------------------------

@pytest.fixture(scope="module")
def sweep_case(tmp_path_factory):
    record, _ = workloads.noisy_record(4, 600.0, 0.5, workloads.DEMO_SEED)
    plan = mc.SweepPlan(ltr_levels=(1.0, 2.0, 4.0), ld_levels=(0.5, 1.0, 4.0),
                        lte_levels=(1.0, 2.0), n_test_instants=3, seed=5)
    result = mc.run_sweep(record, plan, 5.0, workers=1)
    out_dir = tmp_path_factory.mktemp("sweep")
    result.save(out_dir)
    return record, plan, result, out_dir


def _sweep_errors(case, tmp_path, edit=None):
    record, plan, result, out_dir = case
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    if edit is not None:
        edit(copy)
    return workloads.check_sweep(record.values, record.dt, 5.0, plan, result, copy, 0)


def _edit_csv(path: Path, change):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = change(rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def _set_all(column, scale=None, value=None):
    def change(rows):
        for r in rows:
            r[column] = repr(float(r[column]) * scale) if scale is not None else value
        return rows
    return change


def test_sweep_check_accepts_program_output(sweep_case, tmp_path):
    assert _sweep_errors(sweep_case, tmp_path) == []


def _edit_manifest(key, value):
    def edit(d):
        doc = json.loads((d / "manifest.json").read_text())
        doc[key] = value
        (d / "manifest.json").write_text(json.dumps(doc))
    return edit


@pytest.mark.parametrize("edit, expect", [
    (lambda d: _edit_csv(d / "samples.csv", lambda rows: rows[:-1]), "samples saved"),
    (lambda d: _edit_csv(d / "samples.csv", lambda rows: rows[:-1] + rows[:1]),
     "one per (cell, instant, horizon)"),
    (_edit_manifest("skipped_cells", []), "skipped cells"),
    (lambda d: _edit_csv(d / "samples.csv", _set_all("error", value="boom")), "carry an error"),
    (lambda d: _edit_csv(d / "samples.csv", _set_all("jsd", value="0.7")), "JSD outside"),
    (lambda d: _edit_csv(d / "boxplots.csv", _set_all("whisker_hi", value="-1.0")), "unordered"),
    (lambda d: _edit_csv(d / "samples.csv", _set_all("nrmse", scale=1 + 1e-5)), "oracle gives"),
    (lambda d: _edit_csv(d / "samples.csv", _set_all("nammae", scale=1 + 1e-5)), "oracle gives"),
    (lambda d: _edit_csv(d / "samples.csv", _set_all("jsd", scale=1 + 1e-5)), "oracle gives"),
])
def test_sweep_check_rejects_perturbed_output(sweep_case, tmp_path, edit, expect):
    errors = _sweep_errors(sweep_case, tmp_path, edit)
    assert any(expect in e for e in errors), errors


# --- analyze --------------------------------------------------------------

@pytest.fixture(scope="module")
def analyze_case(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("analyze")
    workload = workloads.Analyze()
    workload.setup(6, workdir)
    out_dir, printed = workload.op(0)
    return workload, out_dir, printed


def _analyze_errors(case, tmp_path, edit=None, printed=None):
    workload, out_dir, shown = case
    copy = tmp_path / "copy"
    shutil.copytree(out_dir, copy)
    if edit is not None:
        edit(copy)
    truth = workload.truth[0]
    return workloads.check_analyze(workload.csv_path(0), copy, printed or shown, workload.dt,
                                   truth.frequencies_hz, truth.dominant_period_s)[0]


def _edit_json(name, change):
    def edit(d):
        doc = json.loads((d / name).read_text())
        change(doc)
        (d / name).write_text(json.dumps(doc))
    return edit


def _scale_energies(doc):
    for m in doc["modes"]:
        m["energy"] *= 1.01


def _flip_pair(doc):
    m = next(m for m in doc["modes"] if abs(m["eigenvalue"][1]) > 1e-3)
    m["eigenvalue"][1] = -m["eigenvalue"][1] * 1.001


def _shift_frequencies(doc):
    for m in doc["modes"]:
        m["frequency_hz"] += 0.5


def _set(key, value):
    def change(doc):
        doc[key] = value
    return change


def _perturb_modes(doc):
    doc["modes"][0][0][0] *= 1.001


def test_analyze_check_accepts_program_output(analyze_case, tmp_path):
    assert _analyze_errors(analyze_case, tmp_path) == []


@pytest.mark.parametrize("edit, expect", [
    (_edit_json("modal_report.json", _scale_energies), "sum to"),
    (_edit_json("modal_report.json", _flip_pair), "conjugates"),
    (_edit_json("modal_report.json", _shift_frequencies), "strongest pairs"),
    (_edit_json("manifest.json", _set("t_ref_s", 5.25)), "t_ref"),
    (_edit_json("manifest.json", _set("n_d", 21)), "n_tr, n_d"),
    (_edit_json("model.json", _set("recon_error", 1.01e-5)), "saved"),
    (_edit_json("model.json", _perturb_modes), "saved"),
])
def test_analyze_check_rejects_perturbed_output(analyze_case, tmp_path, edit, expect):
    errors = _analyze_errors(analyze_case, tmp_path, edit)
    assert any(expect in e for e in errors), errors


def test_analyze_check_rejects_misreported_error(analyze_case, tmp_path):
    printed = analyze_case[2].replace("reconstruction error: ", "reconstruction error: 9")
    errors = _analyze_errors(analyze_case, tmp_path, printed=printed)
    assert any("printed" in e for e in errors), errors


# --- tracing and the command ---------------------------------------------

def test_tracer_rebinds_every_importer_and_restores():
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in tracing.FUNCTIONS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            holders = [name for name, mod in sys.modules.items()
                       if name.startswith("modecast") and vars(mod).get(attr) is original]
            assert holders == [], f"{module}.{attr} still bound unwrapped in {holders}"
        record, _ = workloads.noisy_record(0, 300.0, 0.5, workloads.DEMO_SEED)
        tracer.phase, tracer.op = "op", 0
        mc.shdmd_forecast(record, mc.ShdmdConfig(n_realizations=4, ltr_range=(4.0, 8.0)),
                          200.0, 5.0, 5.0, workers=2)
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    names = {s["name"] for s in tracer.spans()}
    assert {"stochastic.forecast", "hankel.fit_hdmd", "hankel.build", "dmd.fit",
            "hankel.predict"} <= names
    metrics, flags = tracing.layer_metrics("ensemble", tracer.spans(), [0], 2, None)
    assert metrics["stochastic.members"]["value"] == 4
    assert metrics["dmd.fit_calls"]["value"] == 4
    assert not any("threads at once" in f for f in flags), flags
    _, flags = tracing.layer_metrics("ensemble", tracer.spans(), [0], 1, None)
    assert any("more than workers = 1" in f for f in flags), flags


class _Raises:
    """A workload whose operations in `failing` raise; the others check clean."""

    def __init__(self, failing):
        self.failing = failing

    def check(self, k, out):
        return [], float(k)

    def cleanup(self, k, out):
        pass

    def ops(self, n):
        return [{"k": k, "out": None if k in self.failing else k,
                 "error": "RuntimeError" if k in self.failing else None} for k in range(n)]


def test_raising_accuracy_operation_makes_run_incorrect():
    workload = _Raises({1})
    failed, correct, figures = run.check_ops(workload, workload.ops(workloads.ACCURACY_OPS + 2))
    assert (failed, correct) == (1, False)
    assert 1.0 not in figures


def test_raising_later_operation_is_counted_as_failed():
    workload = _Raises({workloads.ACCURACY_OPS})
    failed, correct, figures = run.check_ops(workload, workload.ops(workloads.ACCURACY_OPS + 2))
    assert (failed, correct) == (1, True)
    assert figures == [float(k) for k in range(workloads.ACCURACY_OPS)]


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ensemble", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

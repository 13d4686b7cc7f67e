"""The three benchmark workloads: set-up, one operation, and its output check.

Each workload is closed loop with one caller: run.py starts operation k+1
when operation k returns. `setup` builds every input the first operation
needs, `prepare(k)` builds what operation k needs beyond that (outside the
timed section), `op(k)` is the timed call into modecast, and `check(k, out)`
compares the output with independent computations (reference.py,
tests/oracles.py) or with properties the method must have. A check returns
its failure messages (none when the output is correct) and the accuracy
figure of the operation; `nrmse` folds the figures of the first
ACCURACY_OPS operations into the run's nrmse metric.

Import this module only after modecast: run.py times `import modecast`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np

import modecast as mc
from modecast import cli

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (straight-loop metric oracles shipped with the tests)

LN2 = math.log(2.0)

# Inputs shared by ensemble and sweep: demo_dataset's default record
# (synth seed 7, 1800 s at dt = 0.5 s) plus measurement noise drawn from
# the benchmark seed.
DEMO_SEED = 7
NOISE_STD = 0.1
RECORD_DT = 0.5
PEAK_CHANNEL = "wave"

# Operations whose outputs feed the nrmse metric; every run completes them.
ACCURACY_OPS = 5


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def noisy_record(seed, duration_s: float, dt: float, synth_seed: int):
    """Demo record plus white measurement noise drawn from `seed`."""
    clean, truth = mc.demo_dataset(duration_s=duration_s, dt=dt, seed=synth_seed)
    noise = np.random.default_rng(seed).normal(0.0, NOISE_STD, clean.values.shape)
    return clean.with_values(clean.values + noise), truth


def truth_window(values: np.ndarray, i_end: int, n: int) -> np.ndarray:
    return values[:, i_end + 1 : i_end + 1 + n]


class Ensemble:
    """100-member SHDMD forecasts at successive instants of one record.

    The draws come from ShdmdConfig's default seed, so every run fits the
    same 100 (n_tr, n_d) shapes; the benchmark seed sets the record's
    noise. Operation k trains up to instant 600 s + (k mod 30) * 25 s and
    forecasts 2 reference periods; the record after that instant is truth.
    """

    name = "ensemble"

    def setup(self, seed: int, workdir: Path) -> None:
        raw, _ = noisy_record(seed, 1800.0, RECORD_DT, DEMO_SEED)
        self.record = mc.lowpass_filter(raw, mc.FilterSpec())
        self.t_ref = mc.reference_period(self.record, channel=PEAK_CHANNEL).period_s
        self.config = mc.ShdmdConfig()
        self.workers = nproc()
        self.horizon = 2.0 * self.t_ref

    def instant(self, k: int) -> float:
        return 600.0 + (k % 30) * 25.0

    def prepare(self, k: int) -> None:
        pass

    def op(self, k: int):
        return mc.shdmd_forecast(
            self.record, self.config, self.instant(k), self.horizon, self.t_ref,
            workers=self.workers,
        )

    def check(self, k: int, out) -> tuple[list[str], float]:
        return check_ensemble(self.record.values, self.record.dt, self.instant(k), out)

    def nrmse(self, figures: list[float]) -> float:
        """Mean over operations of the ensemble mean's channel-averaged NRMSE."""
        return float(np.mean(figures))

    def cleanup(self, k: int, out) -> None:
        pass


def check_ensemble(values: np.ndarray, dt: float, t_end: float, out) -> tuple[list[str], float]:
    """Members against the reference fit, summary statistics against numpy,
    and the convexity bound NRMSE(mean) <= mean NRMSE(member) per channel.
    The figure is the channel-averaged NRMSE of the mean."""
    errors = []
    i_end = int(round(t_end / dt))
    n_steps = out.mean.n_samples
    kept = [r for r in out.realizations if r.ok]
    if out.members.shape != (len(kept), values.shape[0], n_steps):
        return [f"members shape {out.members.shape} for {len(kept)} kept members"], math.nan
    worst = 0.0
    for r, member in zip(kept, out.members):
        expect = ref.hdmd_forecast(values[:, i_end - r.n_tr + 1 : i_end + 1], r.n_d, n_steps)
        worst = max(worst, np.linalg.norm(member - expect) / np.linalg.norm(expect))
    if worst > 1e-8:
        errors.append(f"a member differs from the reference fit by {worst:.3e} relative")
    mean = out.members.mean(axis=0)
    std = out.members.std(axis=0)
    k = out.coverage_k
    for label, got, expect in (
        ("mean", out.mean.values, mean),
        ("std", out.std.values, std),
        ("lower band", out.lower.values, mean - k * std),
        ("upper band", out.upper.values, mean + k * std),
    ):
        if not np.allclose(got, expect, rtol=1e-12, atol=1e-12):
            errors.append(f"{label} differs from numpy over the members")
    if not math.isclose(out.mean.t0, t_end + dt, rel_tol=1e-12):
        errors.append(f"forecast starts at {out.mean.t0}, expected {t_end + dt}")
    truth = truth_window(values, i_end, n_steps)
    of_mean = ref.nrmse(out.mean.values, truth)
    mean_of = np.mean([ref.nrmse(m, truth) for m in out.members], axis=0)
    if np.any(of_mean > mean_of * (1 + 1e-12)):
        errors.append("NRMSE of the ensemble mean exceeds the members' mean NRMSE")
    return errors, float(of_mean.mean())


class Sweep:
    """Serial full-factorial sweeps of the paper's plan, each saved to disk.

    One operation runs l_tr 1-16T x l_d 0.5-16T x l_te 1, 2, 4T over 10
    test instants drawn from plan seed k, then SweepResult.save. The record
    is the noisy demo record; run_sweep filters it itself.
    """

    name = "sweep"
    n_instants = 10
    workers = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.record, _ = noisy_record(seed, 1800.0, RECORD_DT, DEMO_SEED)
        # As the sweep command does: the reference period of the raw record.
        self.t_ref = mc.reference_period(self.record, channel=PEAK_CHANNEL).period_s
        self.workdir = workdir

    def plan(self, k: int):
        return mc.SweepPlan(n_test_instants=self.n_instants, seed=k)

    def prepare(self, k: int) -> None:
        pass

    def op(self, k: int):
        result = mc.run_sweep(self.record, self.plan(k), self.t_ref, workers=1)
        out_dir = self.workdir / f"sweep-{k}"
        result.save(out_dir)
        return result, out_dir

    def check(self, k: int, out) -> tuple[list[str], list[float]]:
        result, out_dir = out
        errors = check_sweep(self.record.values, self.record.dt, self.t_ref, self.plan(k),
                             result, out_dir, k)
        return errors, [s.report.avg_nrmse for s in result.samples if s.report is not None]

    def nrmse(self, figures: list[list[float]]) -> float:
        """Median over all samples of their channel-averaged NRMSE."""
        return float(np.median([x for op in figures for x in op]))

    def cleanup(self, k: int, out) -> None:
        shutil.rmtree(out[1], ignore_errors=True)


def _nearest(levels, t_ref: float, dt: float) -> list[int]:
    return [int(math.floor(x * t_ref / dt + 0.5)) for x in levels]


def check_sweep(raw: np.ndarray, dt: float, t_ref: float, plan, result, out_dir: Path,
                spot_seed: int) -> list[str]:
    """Sample count and skipped cells from the plan, metric bounds, boxplot
    ordering, and a few samples against the reference fit and the oracles."""
    errors = []
    n_tr = dict(zip(plan.ltr_levels, _nearest(plan.ltr_levels, t_ref, dt)))
    n_d = dict(zip(plan.ld_levels, _nearest(plan.ld_levels, t_ref, dt)))
    n_te = dict(zip(plan.lte_levels, _nearest(plan.lte_levels, t_ref, dt)))
    valid = {(a, b) for a in n_tr for b in n_d if n_tr[a] - 1 - n_d[b] >= 1}
    skip = {(a, b) for a in n_tr for b in n_d} - valid

    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(out_dir / "samples.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_dir / "boxplots.csv", newline="", encoding="utf-8") as fh:
        boxes = list(csv.DictReader(fh))

    expected = len(valid) * plan.n_test_instants * len(n_te)
    if len(rows) != expected or manifest["n_samples"] != expected:
        errors.append(f"{len(rows)} samples saved, expected {expected}")
    got_skip = {(c["l_tr"], c["l_d"]) for c in manifest["skipped_cells"]}
    if got_skip != skip:
        errors.append(f"skipped cells {sorted(got_skip)}, expected {sorted(skip)}")
    per_cell = {}
    for row in rows:
        key = (float(row["l_tr"]), float(row["l_d"]), float(row["l_te"]))
        per_cell[key] = per_cell.get(key, 0) + 1
    if per_cell != {(a, b, c): plan.n_test_instants for a, b in valid for c in n_te}:
        errors.append("samples are not one per (cell, instant, horizon)")
    if any(r["error"] for r in rows):
        errors.append(f"{sum(1 for r in rows if r['error'])} samples carry an error")

    scored = [r for r in rows if not r["error"]]
    jsd = [float(r["jsd"]) for r in scored]
    jsd += [float(x) for s in result.samples if s.report is not None for x in s.report.jsd]
    if jsd and not (min(jsd) >= 0.0 and max(jsd) <= LN2):
        errors.append(f"JSD outside [0, ln 2]: {min(jsd)} .. {max(jsd)}")
    for b in boxes:
        q = [float(b[c]) for c in ("whisker_lo", "q1", "median", "q3", "whisker_hi")]
        if q != sorted(q):
            errors.append(f"boxplot {b['l_tr']}/{b['l_d']}/{b['l_te']}/{b['metric']} unordered: {q}")
            break

    if scored:
        filtered = ref.lowpass(raw, plan.filter_spec.cutoff_hz, plan.filter_spec.taps, dt)
        rng = np.random.default_rng(spot_seed)
        for i in rng.choice(len(scored), size=min(3, len(scored)), replace=False):
            errors += _spot_check(scored[i], filtered, dt, n_tr, n_d, n_te, plan.bins)
    return errors


def _spot_check(row: dict, filtered: np.ndarray, dt: float, n_tr, n_d, n_te, bins) -> list[str]:
    l_tr, l_d, l_te = float(row["l_tr"]), float(row["l_d"]), float(row["l_te"])
    i_end = int(round(float(row["instant"]) / dt))
    window = filtered[:, i_end - n_tr[l_tr] + 1 : i_end + 1]
    pred = ref.hdmd_forecast(window, n_d[l_d], n_te[l_te])
    truth = truth_window(filtered, i_end, n_te[l_te])
    p, t = pred.tolist(), truth.tolist()
    expect = {
        "nrmse": oracles.oracle_nrmse(p, t)[1],
        "nammae": oracles.oracle_nammae(p, t)[1],
        "jsd": oracles.oracle_jsd(p, t, bins)[1],
    }
    errors = []
    for metric, value in expect.items():
        got = float(row[metric])
        if not math.isclose(got, value, rel_tol=1e-7, abs_tol=1e-9):
            errors.append(f"sample {l_tr}/{l_d}/{l_te} at t={row['instant']}: "
                          f"{metric} {got} but the oracle gives {value}")
    return errors


# The analyze command's inputs, and the defaults it filters and finds
# t_ref with (the checks redo both).
ANALYZE_LTR_PERIODS = 20
ANALYZE_LD_PERIODS = 0.4
FILTER_CUTOFF_HZ = 0.5
FILTER_TAPS = 101
WELCH_SEGMENT_FRACTION = 0.125


class Analyze:
    """In-process `modecast analyze` on long 15-channel CSV records.

    Operation k reads its own file: the demo record of synth seed
    1000 + (k mod 12) (1800 s at dt = 0.1 s, 18001 rows) plus noise drawn
    from (seed, k). The fit uses 20 reference periods of training data and
    a 0.4-period delay: a 315 x 979 Hankel matrix, wider than tall (315 x
    1001 for synth seed 1009, whose spectrum peak sits one bin off 5 s).
    """

    name = "analyze"
    dt = 0.1
    n_records = 12
    workers = 1
    args = ("--dt", str(dt), "--ltr", f"{ANALYZE_LTR_PERIODS}T", "--ld", f"{ANALYZE_LD_PERIODS}T",
            "--workers", str(workers))

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.truth = {}
        self.prepare(0)

    def csv_path(self, k: int) -> Path:
        return self.workdir / f"analyze-{k}.csv"

    def prepare(self, k: int) -> None:
        series, truth = noisy_record([self.seed, k], 1800.0, self.dt, 1000 + k % self.n_records)
        mc.write_csv(series, self.csv_path(k))
        self.truth[k] = truth

    def op(self, k: int):
        out_dir = self.workdir / f"analyze-{k}"
        argv = ["analyze", "--csv", str(self.csv_path(k)), *self.args, "--out", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            status = cli.main(argv)
        if status != 0:
            raise RuntimeError(f"modecast analyze exited with status {status}")
        return out_dir, printed.getvalue()

    def check(self, k: int, out) -> tuple[list[str], float]:
        out_dir, printed = out
        truth = self.truth.pop(k)
        return check_analyze(self.csv_path(k), out_dir, printed, self.dt,
                             truth.frequencies_hz, truth.dominant_period_s)

    def nrmse(self, figures: list[float]) -> float:
        """Mean over operations of the model's one-step reconstruction error
        (||X' - recon|| / ||X'||), recomputed by the check: analyze makes no
        forecast, and this is the normalized RMS error of the fit it reports."""
        return float(np.mean(figures))

    def cleanup(self, k: int, out) -> None:
        shutil.rmtree(out[0], ignore_errors=True)
        self.csv_path(k).unlink(missing_ok=True)


def check_analyze(csv_path: Path, out_dir: Path, printed: str, dt: float, freqs_hz,
                  period_s: float) -> tuple[list[str], float]:
    """Energies, conjugate pairing, ground-truth frequencies, t_ref, the
    window sizes, and the reconstruction error recomputed from model.json
    and the input CSV.
    Returns the failures and the recomputed error."""
    errors = []
    with open(out_dir / "modal_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    modes = report["modes"]
    energies = np.array([m["energy"] for m in modes])
    if not math.isclose(energies.sum(), 1.0, abs_tol=1e-9):
        errors.append(f"modal energies sum to {energies.sum()!r}")

    groups = {}
    for m in modes:
        groups.setdefault(m["pair_id"], []).append(m)
    pairs = []
    for members in groups.values():
        lam = [complex(*m["eigenvalue"]) for m in members]
        if len(members) == 1 and abs(lam[0].imag) <= 1e-9:
            continue
        if (len(members) != 2 or abs(lam[0] - lam[1].conjugate()) > 1e-8 * max(1.0, abs(lam[0]))
                or not math.isclose(members[0]["energy"], members[1]["energy"], rel_tol=1e-6)):
            errors.append(f"modes {[m['index'] for m in members]} do not pair up as conjugates")
            continue
        pairs.append((members[0]["energy"] + members[1]["energy"], members[0]["frequency_hz"]))
    strongest = [f for _, f in sorted(pairs, reverse=True)[:4]]
    near = [f for f in strongest if min(abs(f - g) / g for g in freqs_hz) <= 0.1]
    if len(near) < 2:
        errors.append(f"strongest pairs at {strongest} Hz; fewer than 2 within 10% of {freqs_hz}")

    _, t, values = ref.read_csv(csv_path)
    data = ref.lowpass(ref.resample(t, values, dt), FILTER_CUTOFF_HZ, FILTER_TAPS, dt)

    # The spectrum peak cannot be placed closer than one bin of the Welch
    # estimate (segments of 1/8 of the record).
    t_ref = manifest["t_ref_s"]
    bin_hz = 1.0 / (int(data.shape[1] * WELCH_SEGMENT_FRACTION) * dt)
    if abs(1.0 / t_ref - 1.0 / period_s) > bin_hz * (1 + 1e-9):
        errors.append(f"t_ref {t_ref} s is more than one {bin_hz:.4g} Hz bin from {period_s} s")
    n_tr = int(math.floor(ANALYZE_LTR_PERIODS * t_ref / dt + 1e-9))
    n_d = int(math.floor(ANALYZE_LD_PERIODS * t_ref / dt + 1e-9))
    if (manifest["n_tr"], manifest["n_d"]) != (n_tr, n_d):
        errors.append(f"n_tr, n_d = {manifest['n_tr']}, {manifest['n_d']}; expected {n_tr}, {n_d}")
        return errors, math.nan
    z, _, _ = ref.zscore(data[:, -n_tr:])
    X, Xp = ref.hankel_pair(z, n_d)
    lam, phi, saved = ref.load_model(out_dir / "model.json")
    recon = ref.reconstruction_error(lam, phi, X, Xp)
    if not math.isclose(recon, saved, rel_tol=1e-6):
        errors.append(f"reconstruction error {saved!r} saved, {recon!r} recomputed")
    line = next((ln for ln in printed.splitlines() if "reconstruction error:" in ln), "")
    shown = float(line.rsplit(":", 1)[1]) if line else math.nan
    if not math.isclose(recon, shown, rel_tol=1e-3):
        errors.append(f"reconstruction error {shown!r} printed, {recon!r} recomputed")
    return errors, recon


WORKLOADS = {w.name: w for w in (Ensemble, Sweep, Analyze)}

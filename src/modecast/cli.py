"""Command-line entry point: analyze | forecast | sweep | synth.

Wires ingestion, preprocessing, fitting, and report persistence. Length
flags accept explicit unit suffixes: `10T` means 10 reference periods,
`0.5625R` a ratio of the training length (delay only), and `45` or `45s`
plain seconds. Every command writes a manifest.json with the resolved
inputs so a run can be repeated bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import ValidationError
from .hankel import HdmdConfig, fit_hdmd, n_samples_floor, predict
from .harness import SweepPlan, compare_filtered_unfiltered, dataset_hash, run_sweep
from .metrics import evaluate_all
from .modal import modal_energy_ranking, reference_period
from .series import FilterSpec, MultivariateSeries, load_csv, lowpass_filter, write_csv, write_json
from .stochastic import ShdmdConfig, shdmd_forecast
from .synth import SynthSpec, demo_dataset, generate

# Conventions baked into this implementation, recorded in every manifest.
DECISIONS = {
    "std_convention": "population (divide by N)",
    "zscore_scope": "training window only",
    "filter": "linear-phase FIR windowed-sinc, Hamming window, reflected edge padding",
    "plan_level_conversion": "round to nearest sample",
    "config_and_draw_conversion": "integer part (floor)",
    "quartiles": "linear interpolation of order statistics",
    "jsd_estimator": "shared-edge histograms, natural log",
    "prediction_block": "top (most recent) block of the augmented forecast",
}


def _parse_quantity(text: str) -> tuple[float, str]:
    text = text.strip()
    unit = "s"
    if text and text[-1] in ("T", "R", "s"):
        unit = text[-1]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"cannot parse quantity {text!r}") from None
    return value, unit


def resolve_seconds(text: str, t_ref: float | None, l_tr_s: float | None = None) -> float:
    """Turn a flag value like '10T', '0.5625R', or '45s' into seconds."""
    value, unit = _parse_quantity(text)
    if unit == "s":
        return value
    if unit == "T":
        if t_ref is None:
            raise ValidationError(f"{text!r} needs a reference period; pass --t-ref")
        return value * t_ref
    if l_tr_s is None:
        raise ValidationError(f"ratio quantity {text!r} is only valid for the delay depth")
    return value * l_tr_s


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValidationError(f"cannot parse list {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modecast",
        description="Modal analysis and short-horizon forecasting with dynamic mode decomposition",
    )
    parser.add_argument("--version", action="version", version=f"modecast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data=True):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=None, help="thread pool size")
        if with_data:
            src = p.add_argument_group("data source (exactly one)")
            src.add_argument("--csv", help="input CSV (time,<ch1>,... header)")
            src.add_argument("--synth", help="'demo' or a SynthSpec JSON file")
            p.add_argument("--dt", type=float, default=0.1, help="target sample interval, s")
            p.add_argument("--duration", type=float, default=1800.0, help="synth duration, s")
            p.add_argument("--noise-std", type=float, default=0.0, help="synth noise std")
            p.add_argument("--synth-seed", type=int, default=7)
            p.add_argument("--no-filter", action="store_true", help="skip low-pass preprocessing")
            p.add_argument("--cutoff-hz", type=float, default=0.5)
            p.add_argument("--taps", type=int, default=101)
            p.add_argument(
                "--t-ref",
                default="auto",
                help="reference period in seconds, or 'auto' to locate the spectrum peak",
            )
            p.add_argument(
                "--peak-channel",
                default="wave",
                help="channel whose spectrum peak defines the reference period",
            )

    p_an = sub.add_parser("analyze", help="fit one model and write the modal report")
    add_common(p_an)
    p_an.add_argument("--ltr", default="full", help="training window ('full', seconds, or e.g. 10T)")
    p_an.add_argument("--ld", default="0s", help="delay depth (default: no augmentation)")

    p_fc = sub.add_parser("forecast", help="train at an instant and predict forward")
    add_common(p_fc)
    p_fc.add_argument("--ltr", default="10T")
    p_fc.add_argument("--ld", default="0.5625R")
    p_fc.add_argument("--t-end", default="end", help="training end time, seconds or 'end'")
    p_fc.add_argument("--horizon", default="2T")
    p_fc.add_argument("--stochastic", action="store_true")
    p_fc.add_argument("--realizations", type=int, default=100)
    p_fc.add_argument("--ltr-range", type=_float_list, default=(4.0, 16.0))
    p_fc.add_argument("--ld-ratio-range", type=_float_list, default=(0.125, 1.0))
    p_fc.add_argument("--coverage-k", type=float, default=2.0)

    p_sw = sub.add_parser("sweep", help="full-factorial hyperparameter sweep")
    add_common(p_sw)
    p_sw.add_argument("--ltr-levels", type=_float_list, default=(1.0, 2.0, 4.0, 8.0, 16.0))
    p_sw.add_argument("--ld-levels", type=_float_list, default=(0.5, 1.0, 2.0, 4.0, 8.0, 16.0))
    p_sw.add_argument("--lte-levels", type=_float_list, default=(1.0, 2.0, 4.0))
    p_sw.add_argument("--instants", type=int, default=250)
    p_sw.add_argument("--bins", type=int, default=50)
    p_sw.add_argument("--compare-filter", action="store_true",
                      help="run filter-on and filter-off with shared instants")

    p_sy = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    add_common(p_sy, with_data=False)
    p_sy.add_argument("--spec", default="demo", help="'demo' or a SynthSpec JSON file")
    p_sy.add_argument("--dt", type=float, default=0.5)
    p_sy.add_argument("--duration", type=float, default=1800.0)
    p_sy.add_argument("--noise-std", type=float, default=0.0)
    p_sy.add_argument("--synth-seed", type=int, default=7)

    return parser


def _load_synth_spec(path: str) -> SynthSpec:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["freqs_hz"] = tuple(doc.get("freqs_hz", ()))
    for key in ("amplitudes", "damping"):
        if key in doc:
            doc[key] = tuple(doc[key])
    return SynthSpec(**doc)


def load_dataset(args) -> tuple[MultivariateSeries, dict]:
    if bool(args.csv) == bool(args.synth):
        raise ValidationError("pass exactly one data source: --csv or --synth")
    if args.csv:
        series = load_csv(args.csv, args.dt)
        source = {"kind": "csv", "path": str(args.csv), "dt_target": args.dt}
    elif args.synth == "demo":
        series, _ = demo_dataset(
            duration_s=args.duration,
            dt=args.dt,
            noise_std=args.noise_std,
            seed=args.synth_seed,
        )
        source = {
            "kind": "synth-demo",
            "duration_s": args.duration,
            "dt": args.dt,
            "noise_std": args.noise_std,
            "seed": args.synth_seed,
        }
    else:
        spec = _load_synth_spec(args.synth)
        series, _ = generate(spec)
        source = {"kind": "synth-spec", "path": str(args.synth), "spec": asdict(spec)}
    source["sha256"] = dataset_hash(series)
    source["channels"] = list(series.channels)
    source["n_samples"] = series.n_samples
    return series, source


def preprocess(series: MultivariateSeries, args) -> tuple[MultivariateSeries, dict]:
    if args.no_filter:
        return series, {"filter_on": False}
    spec = FilterSpec(cutoff_hz=args.cutoff_hz, taps=args.taps)
    return lowpass_filter(series, spec), {
        "filter_on": True,
        "cutoff_hz": spec.cutoff_hz,
        "taps": spec.taps,
    }


def resolve_t_ref(args, series: MultivariateSeries) -> tuple[float, dict]:
    if args.t_ref != "auto":
        value = float(args.t_ref)
        if value <= 0:
            raise ValidationError(f"--t-ref must be positive, got {value}")
        return value, {"t_ref_s": value, "t_ref_source": "override"}
    if args.peak_channel not in series.channels:
        raise ValidationError(
            f"--t-ref auto needs channel {args.peak_channel!r} "
            "(pass --peak-channel or an explicit --t-ref)"
        )
    peak = reference_period(series, channel=args.peak_channel)
    return peak.period_s, {
        "t_ref_s": peak.period_s,
        "t_ref_source": f"spectrum peak of {args.peak_channel!r}",
        "peak_frequency_hz": peak.frequency_hz,
    }


def write_manifest(out_dir: Path, doc: dict) -> None:
    doc = dict(doc)
    doc["versions"] = {
        "modecast": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    doc["decisions"] = DECISIONS
    write_json(out_dir / "manifest.json", doc)


def _augmented_row_names(channels: tuple[str, ...], n_d: int) -> tuple[str, ...]:
    names = list(channels)
    for j in range(1, n_d + 1):
        names += [f"{ch}@t-{j}" for ch in channels]
    return tuple(names)


def cmd_analyze(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw, source = load_dataset(args)
    data, filt = preprocess(raw, args)
    t_ref, ref_info = resolve_t_ref(args, data)

    if args.ltr == "full":
        n_tr = data.n_samples
    else:
        n_tr = n_samples_floor(resolve_seconds(args.ltr, t_ref), data.dt)
    n_d = n_samples_floor(resolve_seconds(args.ld, t_ref), data.dt)

    model = fit_hdmd(data, HdmdConfig(n_tr, n_d), data.t_end).model
    report = modal_energy_ranking(model, channels=_augmented_row_names(data.channels, n_d))
    report.save_json(out / "modal_report.json")
    (out / "modal_report.txt").write_text(report.to_text() + "\n", encoding="utf-8")
    model.save_json(out / "model.json")
    write_manifest(out, {
        "command": "analyze",
        "source": source,
        "preprocess": filt,
        **ref_info,
        "n_tr": n_tr,
        "n_d": n_d,
        "seed": args.seed,
    })
    print(f"reference period: {t_ref:.4f} s")
    print(f"modes: {model.rank}, reconstruction error: {model.recon_error:.3e}")
    print(report.to_text())
    return 0


def cmd_forecast(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw, source = load_dataset(args)
    data, filt = preprocess(raw, args)
    t_ref, ref_info = resolve_t_ref(args, data)

    l_tr = resolve_seconds(args.ltr, t_ref)
    l_d = resolve_seconds(args.ld, t_ref, l_tr_s=l_tr)
    horizon = resolve_seconds(args.horizon, t_ref)
    n_horizon = n_samples_floor(horizon, data.dt)

    if args.t_end == "end":
        t_end = data.t_end
    else:
        t_end = float(args.t_end)

    manifest = {
        "command": "forecast",
        "source": source,
        "preprocess": filt,
        **ref_info,
        "t_end": t_end,
        "horizon_s": horizon,
        "stochastic": args.stochastic,
        "seed": args.seed,
    }

    if args.stochastic:
        config = ShdmdConfig(
            n_realizations=args.realizations,
            ltr_range=tuple(args.ltr_range),
            ld_ratio_range=tuple(args.ld_ratio_range),
            coverage_k=args.coverage_k,
            seed=args.seed,
        )
        result = shdmd_forecast(
            data, config, t_end, horizon, t_ref, workers=args.workers
        )
        result.save_csv(out / "stochastic.csv")
        write_csv(result.mean, out / "prediction.csv")
        prediction = result.mean
        manifest["n_effective"] = result.n_effective
        manifest["realizations"] = [
            {"n_tr": r.n_tr, "n_d": r.n_d, "ok": r.ok, "unstable": r.unstable,
             "message": r.message}
            for r in result.realizations
        ]
    else:
        config = HdmdConfig.from_seconds(l_tr, l_d, data.dt)
        forecaster = fit_hdmd(data, config, t_end)
        prediction = predict(forecaster, horizon)
        write_csv(prediction, out / "prediction.csv")
        forecaster.save_json(out / "model.json")
        manifest["n_tr"] = config.n_tr
        manifest["n_d"] = config.n_d

    # Score against recorded truth where the horizon overlaps the record.
    i_end = data.sample_index(t_end)
    n_avail = min(n_horizon, data.n_samples - 1 - i_end)
    if n_avail >= 2:
        truth = data.window(i_end + 1, i_end + 1 + n_avail)
        report = evaluate_all(prediction.window(0, n_avail), truth)
        report.save_json(out / "metrics.json")
        manifest["avg_nrmse"] = report.avg_nrmse
        print(f"NRMSE (channel average, {n_avail} samples): {report.avg_nrmse:.4g}")

    write_manifest(out, manifest)
    print(f"prediction written to {out / 'prediction.csv'}")
    return 0


def cmd_sweep(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    raw, source = load_dataset(args)
    # The raw record, not the filtered one, sets t_ref: compare-filter runs
    # the filtered and unfiltered sweeps on one set of test instants, which
    # needs one t_ref for both.
    t_ref, ref_info = resolve_t_ref(args, raw)

    plan = SweepPlan(
        ltr_levels=args.ltr_levels,
        ld_levels=args.ld_levels,
        lte_levels=args.lte_levels,
        n_test_instants=args.instants,
        seed=args.seed,
        filter_on=not args.no_filter,
        filter_spec=FilterSpec(cutoff_hz=args.cutoff_hz, taps=args.taps),
        bins=args.bins,
    )
    base = {
        "command": "sweep",
        "source": source,
        **ref_info,
        "seed": args.seed,
        "n_tr_levels": list(plan.n_tr_levels(t_ref, raw.dt)),
        "n_d_levels": list(plan.n_d_levels(t_ref, raw.dt)),
        "n_te_levels": list(plan.n_te_levels(t_ref, raw.dt)),
    }

    if args.compare_filter:
        paired = compare_filtered_unfiltered(raw, plan, t_ref, workers=args.workers)
        paired.filtered.save(out / "filtered")
        paired.unfiltered.save(out / "unfiltered")
        for l_te in plan.lte_levels:
            med_f = paired.filtered.median("nrmse", l_te)
            med_u = paired.unfiltered.median("nrmse", l_te)
            print(f"l_te={l_te}T median NRMSE: filtered {med_f:.4g}, unfiltered {med_u:.4g}")
        write_manifest(out, {**base, "mode": "compare-filter"})
    else:
        result = run_sweep(raw, plan, t_ref, workers=args.workers)
        write_manifest(out, {**base, **result.save(out)})
        skipped = len(result.skipped)
        print(
            f"{len(result.samples)} samples over {len(plan.ltr_levels) * len(plan.ld_levels) - skipped}"
            f" cells ({skipped} skipped), {result.n_failures} failures"
        )
    return 0


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.spec == "demo":
        series, truth = demo_dataset(
            duration_s=args.duration,
            dt=args.dt,
            noise_std=args.noise_std,
            seed=args.synth_seed,
        )
        spec_doc = {
            "kind": "demo",
            "duration_s": args.duration,
            "dt": args.dt,
            "noise_std": args.noise_std,
            "seed": args.synth_seed,
        }
    else:
        spec = _load_synth_spec(args.spec)
        series, truth = generate(spec)
        spec_doc = asdict(spec)

    write_csv(series, out / "dataset.csv")
    truth_doc = {
        "frequencies_hz": list(truth.frequencies_hz),
        "eigenvalues": [[z.real, z.imag] for z in truth.eigenvalues],
        "dominant_period_s": truth.dominant_period_s,
        "notes": truth.notes,
        "nonlinear_channels": list(truth.nonlinear_channels),
    }
    write_json(out / "truth.json", truth_doc)
    write_manifest(out, {
        "command": "synth",
        "spec": spec_doc,
        "dataset_sha256": dataset_hash(series),
        "channels": list(series.channels),
        "n_samples": series.n_samples,
        "seed": args.synth_seed,
    })
    print(f"dataset written to {out / 'dataset.csv'} ({series.n_channels} channels, "
          f"{series.n_samples} samples)")
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "forecast": cmd_forecast,
    "sweep": cmd_sweep,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValidationError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

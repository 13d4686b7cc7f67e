import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modecast
from modecast import (
    MultivariateSeries,
    SnapshotPair,
    ValidationError,
    WelchSpec,
    fit_exact_dmd,
    group_conjugate_pairs,
    modal_energy_ranking,
    reference_period,
)


def lti_two_tone(amps=(2.0, 1.0), freqs=(0.08, 0.21), dt=0.1, m=1200):
    """Two rotation blocks: equal-norm modes, amplitudes set by amps."""
    t = np.arange(m)
    rows = []
    for amp, f in zip(amps, freqs):
        theta = 2 * np.pi * f * dt
        rows.append(amp * np.cos(theta * t))
        rows.append(amp * np.sin(theta * t))
    return np.vstack(rows)


class TestEnergyRanking:
    def test_single_mode_full_energy(self):
        x = 0.9 ** np.arange(25.0)
        pair = SnapshotPair.from_snapshots(x, dt=0.1)
        model = fit_exact_dmd(pair)
        report = modal_energy_ranking(model)
        assert len(report.entries) == 1
        assert report.entries[0].energy == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_ratio_drives_energy(self):
        pair = SnapshotPair.from_snapshots(lti_two_tone(), dt=0.1)
        model = fit_exact_dmd(pair)
        report = modal_energy_ranking(model)
        energies = [e.energy for e in report.entries]
        # first conjugate pair carries the amplitude-2 tone: 4x the energy
        ratio = energies[0] / energies[2]
        assert ratio == pytest.approx(4.0, rel=0.05)
        freqs = [e.frequency_hz for e in report.entries]
        assert freqs[0] == pytest.approx(0.08, abs=1e-6)
        assert freqs[2] == pytest.approx(0.21, abs=1e-6)

    def test_energies_sum_to_one(self):
        rng = np.random.default_rng(0)
        pair = SnapshotPair.from_snapshots(rng.standard_normal((5, 60)), dt=0.1)
        model = fit_exact_dmd(pair)
        report = modal_energy_ranking(model)
        assert sum(e.energy for e in report.entries) == pytest.approx(1.0, abs=1e-9)
        assert report.cumulative_energy[-1] == pytest.approx(1.0, abs=1e-9)

    def test_ranking_non_increasing(self):
        rng = np.random.default_rng(1)
        pair = SnapshotPair.from_snapshots(rng.standard_normal((6, 80)), dt=0.1)
        model = fit_exact_dmd(pair)
        report = modal_energy_ranking(model)
        energies = [e.energy for e in report.entries]
        # non-increasing up to the rounding spread inside conjugate pairs
        assert np.all(np.diff(energies) <= 1e-12)

    def test_pair_participation_symmetry(self):
        pair = SnapshotPair.from_snapshots(lti_two_tone(), dt=0.1)
        model = fit_exact_dmd(pair)
        report = modal_energy_ranking(model)
        by_pair = {}
        for e in report.entries:
            by_pair.setdefault(e.pair_id, []).append(e)
        for members in by_pair.values():
            if len(members) == 2:
                assert np.allclose(
                    members[0].participation, members[1].participation, atol=1e-9
                )
                assert members[0].frequency_hz == pytest.approx(
                    members[1].frequency_hz, abs=1e-9
                )

    def test_ranking_stable_under_scaling(self):
        data = lti_two_tone()
        pair = SnapshotPair.from_snapshots(data, dt=0.1)
        scaled = SnapshotPair.from_snapshots(1000.0 * data, dt=0.1)
        r1 = modal_energy_ranking(fit_exact_dmd(pair))
        r2 = modal_energy_ranking(fit_exact_dmd(scaled))
        eig1 = [e.eigenvalue for e in r1.entries]
        eig2 = [e.eigenvalue for e in r2.entries]
        assert np.allclose(eig1, eig2, atol=1e-9)

    def test_text_table_lists_all_modes(self):
        pair = SnapshotPair.from_snapshots(lti_two_tone(), dt=0.1)
        model = fit_exact_dmd(pair)
        report = modal_energy_ranking(model, channels=("a", "b", "c", "d"))
        text = report.to_text()
        assert len(text.splitlines()) == 1 + len(report.entries)
        assert "freq [Hz]" in text


class TestConjugatePairs:
    def test_real_singleton(self):
        groups = group_conjugate_pairs(np.array([0.9 + 0j]))
        assert groups == [(0,)]

    def test_exact_pair(self):
        groups = group_conjugate_pairs(np.array([np.exp(0.3j), np.exp(-0.3j)]))
        assert groups == [(0, 1)]

    def test_mixed_enumeration(self):
        eigs = np.array(
            [np.exp(0.3j), np.exp(-0.3j), 0.95 + 0j, np.exp(0.7j), np.exp(-0.7j)]
        )
        groups = group_conjugate_pairs(eigs)
        assert (0, 1) in groups
        assert (3, 4) in groups
        assert (2,) in groups

    def test_unmatched_complex_flagged(self):
        with pytest.warns(UserWarning, match="no conjugate partner"):
            groups = group_conjugate_pairs(np.array([np.exp(0.4j), 0.5 + 0j]))
        assert sorted(groups) == [(0,), (1,)]


class TestReferencePeriod:
    def make_sine(self, period_s, dt=0.1, n=4096, amp=1.0, extra=None):
        t = dt * np.arange(n)
        x = amp * np.sin(2 * np.pi / period_s * t)
        if extra:
            for p, a in extra:
                x = x + a * np.sin(2 * np.pi / p * t + 0.3)
        return MultivariateSeries(("w",), dt, x[None, :])

    def test_pure_sine_within_bin(self):
        s = self.make_sine(8.0)
        peak = reference_period(s)
        nperseg = 4096 // 8
        bin_hz = 1.0 / (nperseg * s.dt)
        assert abs(peak.frequency_hz - 1 / 8.0) <= bin_hz
        assert peak.period_s == pytest.approx(1.0 / peak.frequency_hz)

    def test_stronger_tone_wins(self):
        s = self.make_sine(8.0, amp=3.0, extra=[(3.0, 1.0)])
        peak = reference_period(s)
        assert abs(peak.frequency_hz - 1 / 8.0) < abs(peak.frequency_hz - 1 / 3.0)

    def test_doubling_length_consistency(self):
        s1 = self.make_sine(8.0, n=4096)
        s2 = self.make_sine(8.0, n=8192)
        p1 = reference_period(s1)
        p2 = reference_period(s2)
        bin_hz = 1.0 / ((4096 // 8) * s1.dt)
        assert abs(p1.frequency_hz - p2.frequency_hz) <= bin_hz

    def test_constant_rejected(self):
        s = MultivariateSeries(("w",), 0.1, np.full((1, 512), 4.0))
        with pytest.raises(ValidationError, match="flat spectrum"):
            reference_period(s)

    def test_multichannel_requires_name(self):
        rng = np.random.default_rng(2)
        s = MultivariateSeries(("a", "b"), 0.1, rng.standard_normal((2, 512)))
        with pytest.raises(ValidationError, match="channel required"):
            reference_period(s)
        reference_period(s, channel="a")

    def test_custom_welch_spec(self):
        s = self.make_sine(8.0)
        peak = reference_period(s, spec=WelchSpec(nperseg=1024, overlap=0.5))
        assert abs(peak.frequency_hz - 0.125) <= 1.0 / (1024 * 0.1)

    def test_demo_wave_peak(self, demo_noisy):
        peak = reference_period(demo_noisy, channel="wave")
        assert peak.period_s == pytest.approx(5.0, rel=0.15)


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is most of the package's import time; only
    # reference_period and the synthetic resonators load it, on first use.
    src = str(Path(modecast.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, modecast; print(sorted(m for m in sys.modules "
         "if m.startswith('scipy.signal')))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "[]"

"""Modal analysis reporting and reference-period estimation.

Ranks fitted modes by the energy of their modal coordinate signals over
the training window, groups complex conjugate pairs, and reports per-state
participation. The reference period of a record is read off the peak of a
Welch-averaged power spectrum of a chosen channel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dmd import DmdModel
from .errors import ValidationError
from .series import MultivariateSeries, write_json

__all__ = [
    "ModalEntry",
    "ModalReport",
    "SpectrumPeak",
    "WelchSpec",
    "modal_energy_ranking",
    "group_conjugate_pairs",
    "reference_period",
]

PAIR_TOL = 1e-9


@dataclass(frozen=True)
class ModalEntry:
    """One mode of the ranked report."""

    index: int
    eigenvalue: complex
    frequency_hz: float
    period_s: float
    growth_rate: float
    energy: float
    participation: np.ndarray
    pair_id: int


@dataclass(frozen=True)
class ModalReport:
    """Modes ranked by normalized energy, with conjugate pairs grouped."""

    entries: tuple[ModalEntry, ...]
    cumulative_energy: np.ndarray
    channels: tuple[str, ...] | None = None
    min_norm_projection: bool = False

    def to_dict(self) -> dict:
        return {
            "channels": list(self.channels) if self.channels else None,
            "modes": [
                {
                    "index": e.index,
                    "eigenvalue": [e.eigenvalue.real, e.eigenvalue.imag],
                    "frequency_hz": e.frequency_hz,
                    "period_s": e.period_s if math.isfinite(e.period_s) else None,
                    "growth_rate": e.growth_rate,
                    "energy": e.energy,
                    "participation": [float(x) for x in e.participation],
                    "pair_id": e.pair_id,
                }
                for e in self.entries
            ],
            "cumulative_energy": [float(x) for x in self.cumulative_energy],
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def to_text(self, top_channels: int = 3) -> str:
        """Plain table: one row per mode with its strongest participants."""
        lines = [
            f"{'rank':>4}  {'pair':>4}  {'freq [Hz]':>10}  {'period [s]':>10}  "
            f"{'growth [1/s]':>12}  {'energy':>8}  {'cum.':>6}  top participation"
        ]
        for rank, entry in enumerate(self.entries):
            strongest = np.argsort(entry.participation)[::-1][:top_channels]
            if self.channels and len(self.channels) == entry.participation.shape[0]:
                names = ", ".join(self.channels[i] for i in strongest)
            else:
                names = ", ".join(f"s{i}" for i in strongest)
            period = f"{entry.period_s:10.3f}" if math.isfinite(entry.period_s) else f"{'-':>10}"
            lines.append(
                f"{rank + 1:>4}  {entry.pair_id:>4}  {entry.frequency_hz:10.4f}  {period}  "
                f"{entry.growth_rate:12.4f}  {entry.energy:8.4f}  "
                f"{self.cumulative_energy[rank]:6.3f}  {names}"
            )
        return "\n".join(lines)


def group_conjugate_pairs(eigenvalues: np.ndarray, tol: float = PAIR_TOL) -> list[tuple[int, ...]]:
    """Group eigenvalue indices into conjugate pairs and singletons.

    Eigenvalues with |Im| <= tol are real singletons; every other one is
    matched to its nearest conjugate. A complex eigenvalue whose conjugate
    is missing (no candidate within tolerance) is flagged and grouped as a
    singleton.
    """
    lam = np.asarray(eigenvalues)
    groups: list[tuple[int, ...]] = []
    unmatched = set(range(lam.size))
    for i in range(lam.size):
        if i not in unmatched:
            continue
        if abs(lam[i].imag) <= tol:
            groups.append((i,))
            unmatched.discard(i)
            continue
        candidates = [j for j in unmatched if j != i]
        if candidates:
            dist = [abs(lam[j] - np.conj(lam[i])) for j in candidates]
            k = int(np.argmin(dist))
            scale = max(1.0, abs(lam[i]))
            if dist[k] <= tol * scale:
                j = candidates[k]
                groups.append((i, j))
                unmatched.discard(i)
                unmatched.discard(j)
                continue
        warnings.warn(
            f"eigenvalue {lam[i]:.6g} has no conjugate partner within tolerance",
            stacklevel=2,
        )
        groups.append((i,))
        unmatched.discard(i)
    return groups


def modal_energy_ranking(
    model: DmdModel,
    channels: tuple[str, ...] | None = None,
) -> ModalReport:
    """Rank modes by the energy of their modal coordinate signals.

    The energies are the ones the fit computed: the mean squared magnitude
    of each mode's coordinate over the training snapshots, normalized by
    the total.
    """
    if model.energies is None:
        raise ValidationError("model carries no modal energies")
    if model.min_norm_amplitudes:
        warnings.warn("mode basis is rank deficient; minimum-norm projection", stacklevel=2)
    energies = model.energies

    freq = np.abs(np.angle(model.eigenvalues)) / (2.0 * np.pi * model.dt)

    # Rank conjugate groups by their strongest member (members of a pair tie
    # only to rounding, which would make a per-mode sort depend on float
    # noise); the positive-frequency member leads within a group. This keeps
    # the flattened per-mode ranking non-increasing.
    groups = group_conjugate_pairs(model.eigenvalues)
    group_energy = np.array([energies[list(g)].max() for g in groups])
    group_freq = np.array([freq[g[0]] for g in groups])
    group_order = np.lexsort((group_freq, -group_energy))

    entries = []
    for gid, g_idx in enumerate(group_order):
        members = sorted(groups[g_idx], key=lambda i: -model.eigenvalues[i].imag)
        for k in members:
            lam = complex(model.eigenvalues[k])
            f = float(freq[k])
            growth = float(np.log(abs(lam)) / model.dt) if lam != 0 else -math.inf
            entries.append(
                ModalEntry(
                    index=int(k),
                    eigenvalue=lam,
                    frequency_hz=f,
                    period_s=1.0 / f if f > 0 else math.inf,
                    growth_rate=growth,
                    energy=float(energies[k]),
                    participation=np.abs(model.modes[:, k]),
                    pair_id=gid,
                )
            )
    cumulative = np.cumsum([e.energy for e in entries])
    return ModalReport(
        entries=tuple(entries),
        cumulative_energy=cumulative,
        channels=channels,
        min_norm_projection=model.min_norm_amplitudes,
    )


@dataclass(frozen=True)
class WelchSpec:
    """Averaged-periodogram settings: Hann window, 50% overlap by default,
    segments of len(series) * segment_fraction unless nperseg is given."""

    segment_fraction: float = 0.125
    overlap: float = 0.5
    nperseg: int | None = None
    window: str = "hann"

    def __post_init__(self):
        if not (0 < self.segment_fraction <= 1):
            raise ValidationError(f"segment_fraction must be in (0, 1], got {self.segment_fraction}")
        if not (0 <= self.overlap < 1):
            raise ValidationError(f"overlap must be in [0, 1), got {self.overlap}")


@dataclass(frozen=True)
class SpectrumPeak:
    """Dominant spectral line of a channel: frequency, period, and the
    spectrum it was read from."""

    frequency_hz: float
    period_s: float
    freqs: np.ndarray
    power: np.ndarray


def reference_period(
    series: MultivariateSeries,
    channel: str | None = None,
    spec: WelchSpec = WelchSpec(),
) -> SpectrumPeak:
    """Locate the power-spectrum peak of one channel and return its period.

    Uses Welch averaging; the peak is the maximum over strictly positive
    frequencies. Constant (flat-spectrum) input is rejected.
    """
    if channel is None:
        if series.n_channels != 1:
            raise ValidationError("channel required for a multichannel series")
        idx = 0
    else:
        idx = series.channel_index(channel)
    x = series.values[idx]
    if x.size < 16:
        raise ValidationError(f"need at least 16 samples, got {x.size}")
    if np.ptp(x) == 0:
        raise ValidationError("constant channel has a flat spectrum; no peak exists")
    from scipy import signal  # imported here: scipy.signal is slow to import

    nperseg = spec.nperseg or max(16, int(x.size * spec.segment_fraction))
    nperseg = min(nperseg, x.size)
    freqs, power = signal.welch(
        x,
        fs=1.0 / series.dt,
        window=spec.window,
        nperseg=nperseg,
        noverlap=int(nperseg * spec.overlap),
    )
    positive = freqs > 0
    if not np.any(positive) or power[positive].max() <= 0:
        raise ValidationError("spectrum has no positive-frequency power; no peak exists")
    k = int(np.argmax(np.where(positive, power, -np.inf)))
    f_hat = float(freqs[k])
    return SpectrumPeak(
        frequency_hz=f_hat, period_s=1.0 / f_hat, freqs=freqs, power=power
    )

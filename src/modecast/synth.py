"""Synthetic oracle systems with known modal content.

Every generator returns both the series and its ground truth (exact
eigenvalues or frequencies and the noise-free signal), so tests can check
fitted models against construction rather than against other code paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .series import MultivariateSeries

__all__ = ["SynthSpec", "GroundTruth", "generate", "demo_dataset", "DEMO_CHANNELS"]

KINDS = ("linear_lti", "multi_sine", "latent_scalar", "saturating")

NONLINEAR_NOTE = "nonlinear: reduced predictability expected"


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic record."""

    kind: str
    duration_s: float
    dt: float
    freqs_hz: tuple[float, ...]
    amplitudes: tuple[float, ...] = ()
    damping: tuple[float, ...] = ()
    n_channels: int = 1
    noise_std: float = 0.0
    clip_level: float = 1.0
    seed: int = 0
    t0: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown system kind {self.kind!r}")
        if not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.duration_s / self.dt < 16:
            raise ValidationError("duration must span at least 16 samples")
        nyquist = 0.5 / self.dt
        if any(f >= nyquist for f in self.freqs_hz):
            raise ValidationError(f"frequencies must stay below Nyquist {nyquist} Hz")
        if not self.freqs_hz:
            raise ValidationError("need at least one frequency")
        if self.noise_std < 0:
            raise ValidationError("noise std must be >= 0")
        amps = self.amplitudes or tuple(1.0 for _ in self.freqs_hz)
        damp = self.damping or tuple(0.0 for _ in self.freqs_hz)
        if len(amps) != len(self.freqs_hz) or len(damp) != len(self.freqs_hz):
            raise ValidationError("amplitudes and damping must match freqs_hz in length")
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in amps))
        object.__setattr__(self, "damping", tuple(float(d) for d in damp))

    @property
    def n_samples(self) -> int:
        return int(round(self.duration_s / self.dt)) + 1


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows exactly about its output."""

    clean_values: np.ndarray
    frequencies_hz: tuple[float, ...]
    eigenvalues: tuple[complex, ...] = ()
    dominant_period_s: float | None = None
    notes: str = ""
    nonlinear_channels: tuple[str, ...] = field(default=())


def _sum_of_sines(spec: SynthSpec, t: np.ndarray, phases: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for amp, freq, zeta, phase in zip(spec.amplitudes, spec.freqs_hz, spec.damping, phases):
        out += amp * np.exp(zeta * t) * np.sin(2.0 * np.pi * freq * t + phase)
    return out


def generate(spec: SynthSpec) -> tuple[MultivariateSeries, GroundTruth]:
    """Build the series described by spec, plus its exact ground truth."""
    rng = np.random.default_rng(spec.seed)
    t = spec.dt * np.arange(spec.n_samples)

    if spec.kind == "linear_lti":
        return _generate_lti(spec, t, rng)

    if spec.kind == "latent_scalar":
        phases = rng.uniform(0, 2 * np.pi, len(spec.freqs_hz))
        clean = _sum_of_sines(spec, t, phases)[None, :]
        channels = ("obs",)
        truth = GroundTruth(clean_values=clean, frequencies_hz=spec.freqs_hz)
    else:
        n = spec.n_channels
        clean = np.empty((n, spec.n_samples))
        for i in range(n):
            phases = rng.uniform(0, 2 * np.pi, len(spec.freqs_hz))
            clean[i] = _sum_of_sines(spec, t, phases)
        channels = tuple(f"ch{i}" for i in range(n))
        notes = ""
        nonlinear: tuple[str, ...] = ()
        if spec.kind == "saturating":
            clean = np.clip(clean, -spec.clip_level, spec.clip_level)
            notes = NONLINEAR_NOTE
            nonlinear = channels
        truth = GroundTruth(
            clean_values=clean,
            frequencies_hz=spec.freqs_hz,
            notes=notes,
            nonlinear_channels=nonlinear,
        )

    values = clean if spec.noise_std == 0 else clean + rng.normal(0, spec.noise_std, clean.shape)
    return MultivariateSeries(channels, spec.dt, values, t0=spec.t0), truth


def _generate_lti(
    spec: SynthSpec, t: np.ndarray, rng: np.random.Generator
) -> tuple[MultivariateSeries, GroundTruth]:
    """Linear system built from 2x2 rotation-decay blocks, one per frequency."""
    dim = 2 * len(spec.freqs_hz)
    if spec.n_channels != dim:
        raise ValidationError(
            f"linear_lti needs n_channels = 2 * len(freqs_hz) = {dim}, got {spec.n_channels}"
        )
    blocks = []
    eigs: list[complex] = []
    for freq, zeta in zip(spec.freqs_hz, spec.damping):
        theta = 2.0 * np.pi * freq * spec.dt
        rho = float(np.exp(zeta * spec.dt))
        blocks.append(rho * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]))
        lam = rho * np.exp(1j * theta)
        eigs += [lam, np.conj(lam)]
    a_block = np.zeros((dim, dim))
    for k, block in enumerate(blocks):
        a_block[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    # Random orthogonal change of basis so channels mix all blocks.
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    a = q @ a_block @ q.T

    x = np.empty((dim, t.size))
    # Excite every block: amplitude a_k into each rotation plane.
    x[:, 0] = q @ np.repeat(spec.amplitudes, 2).astype(float)
    for j in range(1, t.size):
        x[:, j] = a @ x[:, j - 1]
    channels = tuple(f"ch{i}" for i in range(dim))
    truth = GroundTruth(
        clean_values=x.copy(),
        frequencies_hz=spec.freqs_hz,
        eigenvalues=tuple(eigs),
    )
    values = x if spec.noise_std == 0 else x + rng.normal(0, spec.noise_std, x.shape)
    return MultivariateSeries(channels, spec.dt, values, t0=spec.t0), truth


# Default demo record: a 15-channel composite loosely shaped like a floating
# platform state (4 force-like, 7 motion-like, 3 saturating turbine-like,
# 1 wave-like channel). Names only; no physical model claimed.
DEMO_CHANNELS = (
    "T1", "T5", "T6", "M3",
    "roll", "pitch", "roll_rate", "pitch_rate", "acc_x", "acc_y", "acc_z",
    "power", "rotor_speed", "wind_speed",
    "wave",
)

# Shared resonator bank: narrow-band stochastic oscillations, with the
# 0.2 Hz resonator dominating the wave channel so the demo record's
# reference period is 5 s.
DEMO_FREQS_HZ = (0.04, 0.09, 0.2, 0.32)
DEMO_DAMPING = (0.01, 0.015, 0.02, 0.03)
DEMO_PERIOD_S = 5.0

_WARMUP = 400


def _resonator_bank(
    freqs: tuple[float, ...],
    damping: tuple[float, ...],
    dt: float,
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Unit-std narrow-band oscillations: second-order autoregressive
    resonators driven by white noise, transient discarded."""
    from scipy import signal  # imported here: scipy.signal is slow to import

    out = np.empty((len(freqs), n_samples))
    for k, (freq, zeta) in enumerate(zip(freqs, damping)):
        rho = np.exp(-zeta * dt)
        theta = 2.0 * np.pi * freq * dt
        a = [1.0, -2.0 * rho * np.cos(theta), rho * rho]
        x = signal.lfilter([1.0], a, rng.standard_normal(n_samples + _WARMUP))[_WARMUP:]
        out[k] = x / x.std()
    return out


def demo_dataset(
    duration_s: float = 1800.0,
    dt: float = 0.5,
    noise_std: float = 0.0,
    seed: int = 7,
) -> tuple[MultivariateSeries, GroundTruth]:
    """The standard quasi-periodic demo record used by tests and the CLI.

    Every channel mixes a shared bank of narrow-band resonators with
    seeded weights, the three turbine-like channels are saturated, and
    white measurement noise of the requested level is added on top. The
    clean (pre-noise) signal is returned as ground truth.
    """
    rng = np.random.default_rng(seed)
    n_samples = int(round(duration_s / dt)) + 1
    oscillators = _resonator_bank(DEMO_FREQS_HZ, DEMO_DAMPING, dt, n_samples, rng)

    clean = np.empty((len(DEMO_CHANNELS), n_samples))
    nonlinear = ("power", "rotor_speed", "wind_speed")
    for i, name in enumerate(DEMO_CHANNELS):
        weights = rng.uniform(-1, 1, len(DEMO_FREQS_HZ))
        if name == "wave":
            # Keep the 0.2 Hz resonator dominant so the spectrum peak is stable.
            weights = np.array([0.1, 0.15, 1.0, 0.1])
        clean[i] = weights @ oscillators
        if name in nonlinear:
            level = 0.8 * np.abs(clean[i]).max()
            clean[i] = np.clip(clean[i], -level, level)

    values = clean if noise_std == 0 else clean + rng.normal(0, noise_std, clean.shape)
    series = MultivariateSeries(DEMO_CHANNELS, dt, values, t0=0.0)
    truth = GroundTruth(
        clean_values=clean,
        frequencies_hz=DEMO_FREQS_HZ,
        dominant_period_s=DEMO_PERIOD_S,
        notes=NONLINEAR_NOTE,
        nonlinear_channels=nonlinear,
    )
    return series, truth

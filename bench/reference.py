"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports modecast. The Hankel-DMD forecast is a short, straight
numpy transcription of the method (window, z-score, delay embedding, SVD with
relative truncation, projected operator, eig, exact modes, pinv amplitudes);
the low-pass filter is designed by scipy.signal.firwin; CSV input is parsed
by numpy. Each function reads plain arrays and returns plain arrays.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.signal import firwin

RANK_TOL = 1e-10  # relative singular-value cut of the default rank policy
EPS_STD = 1e-12  # channels with a smaller std are left unscaled


def zscore(window: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = window.mean(axis=1)
    std = window.std(axis=1)
    std = np.where(std < EPS_STD, 1.0, std)
    return (window - mean[:, None]) / std[:, None], mean, std


def hankel_pair(z: np.ndarray, n_d: int) -> tuple[np.ndarray, np.ndarray]:
    """Delay embedding with the newest copy on top, split into X and X'."""
    m = z.shape[1]
    emb = np.vstack([z[:, n_d - j : m - j] for j in range(n_d + 1)])
    return emb[:, :-1], emb[:, 1:]


def exact_dmd(X: np.ndarray, Xp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and exact modes of the projected one-step operator."""
    U, s, Vh = np.linalg.svd(X, full_matrices=False)
    r = int(np.count_nonzero(s >= RANK_TOL * s[0]))
    basis = Xp @ Vh[:r].T / s[:r]
    lam, W = np.linalg.eig(U[:, :r].T @ basis)
    return lam, basis @ W


def hdmd_forecast(window: np.ndarray, n_d: int, n_steps: int) -> np.ndarray:
    """Physical-unit forecast of the undelayed state, n_steps past the window."""
    z, mean, std = zscore(window)
    X, Xp = hankel_pair(z, n_d)
    lam, phi = exact_dmd(X, Xp)
    b = np.linalg.pinv(phi) @ Xp[:, -1]
    n = window.shape[0]
    top = (phi[:n] * b) @ (lam[:, None] ** np.arange(1, n_steps + 1))
    return top.real * std[:, None] + mean[:, None]


def lowpass(values: np.ndarray, cutoff_hz: float, taps: int, dt: float) -> np.ndarray:
    """Zero-phase FIR low-pass: Hamming-windowed sinc, reflected edges."""
    kernel = firwin(taps, cutoff_hz, window="hamming", fs=1.0 / dt)
    half = (taps - 1) // 2
    padded = np.pad(values, ((0, 0), (half, half)), mode="reflect")
    return np.vstack([np.convolve(row, kernel, mode="valid") for row in padded])


def read_csv(path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Channel names, timestamps and (n_channels, n_rows) values."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    body = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return tuple(header[1:]), body[:, 0], body[:, 1:].T


def resample(t: np.ndarray, values: np.ndarray, dt: float) -> np.ndarray:
    n_out = int(math.floor((t[-1] - t[0]) / dt + 1e-9)) + 1
    grid = t[0] + dt * np.arange(n_out)
    return np.vstack([np.interp(grid, t, row) for row in values])


def nrmse(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-channel RMSE over the window divided by the truth's population std."""
    return np.sqrt(np.mean((pred - truth) ** 2, axis=1)) / truth.std(axis=1)


def load_model(path) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues, modes and recon_error from a saved model.json."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    lam = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
    modes = np.array([[complex(re, im) for re, im in row] for row in doc["modes"]])
    return lam, modes, float(doc["recon_error"])


def reconstruction_error(lam: np.ndarray, modes: np.ndarray, X: np.ndarray, Xp: np.ndarray) -> float:
    """||X' - Phi diag(lam) pinv(Phi) X|| / ||X'||, the one-step fit residual."""
    coords = np.linalg.pinv(modes) @ X
    recon = modes @ (lam[:, None] * coords)
    return float(np.linalg.norm(Xp - recon) / np.linalg.norm(Xp))

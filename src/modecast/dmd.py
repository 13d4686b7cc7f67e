"""Exact dynamic mode decomposition over snapshot pairs.

Fits the best-fit linear one-step operator A with X' ~ A X through a
truncated SVD, projects it onto the leading left singular vectors, and
reconstructs the full-state eigenvectors from the time-shifted data (the
exact-mode variant). A fitted model carries discrete-time eigenvalues,
modes, amplitudes, and a reconstruction error, and can propagate forecasts
by discrete eigenvalue powers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, InstabilityWarning, ValidationError
from .series import write_json

__all__ = [
    "SnapshotPair",
    "RankPolicy",
    "DmdModel",
    "fit_exact_dmd",
    "continuous_eigenvalues",
    "amplitudes",
    "forecast",
]

# Default guard on |lambda| beyond which forecasts carry an instability warning.
GROWTH_GUARD = 1.05

# Singular values below this absolute floor mean the data matrix is
# numerically zero and no operator can be identified.
SV_FLOOR = 1e-13


@dataclass(frozen=True)
class SnapshotPair:
    """Time-shifted data matrices: Xp[:, j] is X[:, j] one step later."""

    X: np.ndarray
    Xp: np.ndarray
    dt: float

    def __post_init__(self):
        X = np.asarray(self.X, dtype=np.float64)
        Xp = np.asarray(self.Xp, dtype=np.float64)
        if X.ndim != 2 or X.shape != Xp.shape:
            raise ValidationError(
                f"snapshot matrices must be 2-D with identical shape, got {X.shape} and {Xp.shape}"
            )
        if X.shape[1] < 2:
            raise ValidationError(f"need at least 2 snapshot columns, got {X.shape[1]}")
        if not (self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Xp", Xp)
        object.__setattr__(self, "dt", float(self.dt))

    @property
    def n_states(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_snapshots(cls, snapshots: np.ndarray, dt: float) -> "SnapshotPair":
        """Split a (n_states, m) snapshot matrix into the shifted pair."""
        snapshots = np.asarray(snapshots, dtype=np.float64)
        if snapshots.ndim == 1:
            snapshots = snapshots[None, :]
        return cls(snapshots[:, :-1], snapshots[:, 1:], dt)


@dataclass(frozen=True)
class RankPolicy:
    """SVD truncation rule: keep everything, a relative tolerance, or a fixed rank."""

    kind: str
    tol: float = 1e-10
    r: int = 0

    def __post_init__(self):
        if self.kind not in ("full", "tolerance", "fixed"):
            raise ValidationError(f"unknown rank policy {self.kind!r}")
        if self.kind == "tolerance" and not (0 < self.tol < 1):
            raise ValidationError(f"tolerance must be in (0, 1), got {self.tol}")
        if self.kind == "fixed" and self.r < 1:
            raise ValidationError(f"fixed rank must be >= 1, got {self.r}")

    @classmethod
    def full(cls) -> "RankPolicy":
        return cls("full")

    @classmethod
    def tolerance(cls, tol: float = 1e-10) -> "RankPolicy":
        return cls("tolerance", tol=tol)

    @classmethod
    def fixed(cls, r: int) -> "RankPolicy":
        return cls("fixed", r=r)


DEFAULT_RANK_POLICY = RankPolicy.tolerance(1e-10)


@dataclass(frozen=True)
class DmdModel:
    """Fitted linear surrogate: x_{j+1} ~ A x_j decomposed into modes.

    eigenvalues are discrete-time; modes columns are the exact full-state
    eigenvectors; amplitudes are the coordinates of the final training
    snapshot in the mode basis. energies hold the normalized mean squared
    modal coordinates over the training window, and modes are ordered by
    descending energy.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    rank: int
    dt: float
    recon_error: float
    energies: np.ndarray = field(default=None)
    min_norm_amplitudes: bool = False

    @property
    def n_states(self) -> int:
        return self.modes.shape[0]

    def is_unstable(self, guard: float = GROWTH_GUARD) -> bool:
        return bool(np.max(np.abs(self.eigenvalues)) > guard)

    def to_dict(self) -> dict:
        return {
            "dt": self.dt,
            "rank": self.rank,
            "eigenvalues": _complex_pairs(self.eigenvalues),
            "modes": [_complex_pairs(row) for row in self.modes],
            "amplitudes": _complex_pairs(self.amplitudes),
            "recon_error": self.recon_error,
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())


def _complex_pairs(arr: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).ravel()]


def _truncation_rank(s: np.ndarray, policy: RankPolicy) -> int:
    nonzero = int(np.count_nonzero(s > 0))
    if policy.kind == "full":
        return nonzero
    if policy.kind == "tolerance":
        return int(np.count_nonzero(s >= policy.tol * s[0]))
    return min(policy.r, nonzero)


def fit_exact_dmd(
    pair: SnapshotPair,
    rank_policy: RankPolicy = DEFAULT_RANK_POLICY,
) -> DmdModel:
    """Fit the exact-mode decomposition of the one-step operator.

    The SVD of X is truncated per rank_policy, the operator is projected
    onto the retained left singular vectors, and modes are reconstructed
    from the shifted matrix. Amplitudes are initialized on the final
    snapshot, so forecasts continue the training data.
    """
    U, s, Vh = np.linalg.svd(pair.X, full_matrices=False)
    if s[0] <= SV_FLOOR:
        raise DegenerateDataError(
            f"largest singular value {s[0]:.3e} below floor {SV_FLOOR:.0e}; data is numerically zero"
        )
    r = _truncation_rank(s, rank_policy)
    if r < 1:
        raise DegenerateDataError("rank truncation removed every singular value")

    Ur = U[:, :r]
    sr = s[:r]
    Vr = Vh[:r, :].conj().T
    # Low-rank operator projected onto the leading left singular vectors.
    XpVs = pair.Xp @ (Vr / sr)
    atilde = Ur.conj().T @ XpVs
    eigvals, W = np.linalg.eig(atilde)
    modes = XpVs @ W

    # Drop numerically null mode columns (they carry no state content and
    # would break the pseudoinverse-based projections downstream).
    keep = np.linalg.norm(modes, axis=0) > SV_FLOOR
    dropped = not np.all(keep)
    if dropped:
        eigvals, modes = eigvals[keep], modes[:, keep]
        if modes.shape[1] == 0:
            raise DegenerateDataError("all reconstructed modes are numerically zero")
    r = modes.shape[1]

    # Modal coordinates of the training snapshots (and of the final
    # snapshot, for the amplitudes): least-squares projections onto the
    # modes. When the real basis X' V / s has full column rank, pinv(modes)
    # factors as W^-1 pinv(X' V / s), so everything but one small solve
    # stays in real arithmetic; otherwise fall back to the direct complex
    # least squares with its minimum-norm semantics.
    coords = recon = None
    min_norm = True
    if not dropped:
        rhs = np.column_stack([pair.X, pair.Xp[:, -1]])
        q, _, rank_a, _ = np.linalg.lstsq(XpVs, rhs, rcond=None)
        if rank_a == r:
            try:
                sol = np.linalg.solve(W, q.astype(complex))
            except np.linalg.LinAlgError:
                sol = None
            if sol is not None:
                coords, b = sol[:, :-1], sol[:, -1]
                recon = XpVs @ (atilde @ q[:, :-1])
                min_norm = False
    if coords is None:
        coords, _, lstsq_rank, _ = np.linalg.lstsq(modes, pair.X, rcond=None)
        b, _, b_rank, _ = np.linalg.lstsq(
            modes, pair.Xp[:, -1].astype(complex), rcond=None
        )
        recon = modes @ (eigvals[:, None] * coords)
        min_norm = bool(b_rank < r or lstsq_rank < r)

    energies = np.mean(np.abs(coords) ** 2, axis=1)
    total = energies.sum()
    energies = energies / total if total > 0 else energies
    order = _energy_order(eigvals, energies, pair.dt)

    denom = np.linalg.norm(pair.Xp)
    recon_error = float(np.linalg.norm(pair.Xp - recon) / denom) if denom > 0 else 0.0

    return DmdModel(
        eigenvalues=eigvals[order],
        modes=modes[:, order],
        amplitudes=b[order],
        rank=r,
        dt=pair.dt,
        recon_error=recon_error,
        energies=energies[order],
        min_norm_amplitudes=min_norm,
    )


def _energy_order(eigvals: np.ndarray, energies: np.ndarray, dt: float) -> np.ndarray:
    """Descending energy; ties by ascending modal frequency, positive branch first."""
    freq = np.abs(np.angle(eigvals)) / dt
    # lexsort uses the last key as primary.
    return np.lexsort((-np.sign(eigvals.imag), freq, -energies))


def continuous_eigenvalues(model: DmdModel) -> np.ndarray:
    """Continuous-time exponents: principal-branch log(lambda) / dt.

    Im(w)/(2 pi) is the modal frequency in Hz, Re(w) the growth or decay
    rate in 1/s. Zero eigenvalues (modes that decay within one step) are
    excluded with a warning.
    """
    lam = model.eigenvalues
    nonzero = lam != 0
    if not np.all(nonzero):
        warnings.warn(
            f"{int(np.count_nonzero(~nonzero))} zero eigenvalue(s) excluded from "
            "continuous spectrum (decayed-in-one-step modes)",
            stacklevel=2,
        )
    return np.log(lam[nonzero]) / model.dt


def amplitudes(model: DmdModel, x_init: np.ndarray) -> np.ndarray:
    """Least-squares coordinates of x_init in the mode basis.

    The mode matrix is generally tall, so this has pseudoinverse semantics;
    a rank-deficient basis yields the minimum-norm solution.
    """
    x_init = np.asarray(x_init)
    if x_init.shape != (model.n_states,):
        raise ValidationError(
            f"x_init must have length {model.n_states}, got {x_init.shape}"
        )
    b, _, rank, _ = np.linalg.lstsq(model.modes, x_init.astype(complex), rcond=None)
    if rank < model.rank:
        warnings.warn("mode basis is rank deficient; minimum-norm amplitudes", stacklevel=2)
    return b


def forecast(model: DmdModel, n_steps: int, guard: float = GROWTH_GUARD) -> np.ndarray:
    """Propagate the model n_steps past its initialization instant.

    Column s (1-based) is Re(Phi diag(lambda^s) b). Growing eigenvalues
    beyond the guard still forecast but raise an InstabilityWarning.
    """
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    if model.amplitudes is None:
        raise ValidationError("model carries no amplitudes")
    if model.is_unstable(guard):
        worst = float(np.max(np.abs(model.eigenvalues)))
        warnings.warn(
            f"eigenvalue magnitude {worst:.4f} exceeds growth guard {guard}; "
            "forecast may diverge",
            InstabilityWarning,
            stacklevel=2,
        )
    powers = model.eigenvalues[:, None] ** np.arange(1, n_steps + 1)
    return np.real(model.modes @ (powers * model.amplitudes[:, None]))

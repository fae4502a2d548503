"""Reconstruction and edit-quality metrics, plus convergence fitting."""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import ValidationError


def mse(a: Sequence[float], b: Sequence[float]) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"length mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


def psnr_of_mse(m: float, max_val: float) -> float:
    """10 * log10(max_val^2 / m); an MSE of 0 gives +inf."""
    if not max_val > 0.0:
        raise ValidationError(f"max_val must be > 0, got {max_val}")
    if m == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / m)


def psnr(a: Sequence[float], b: Sequence[float], max_val: float) -> float:
    """10 * log10(max_val^2 / mse(a, b)); identical inputs give +inf."""
    return psnr_of_mse(mse(a, b), max_val)


def line_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope*x + intercept: (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def convergence_order_fit(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares slope of log(err) against log(1/N).

    err = c/N^p fits to order p exactly.  Returns (order, r_squared).
    """
    if len(points) < 3:
        raise ValidationError(f"need at least 3 (N, err) points, got {len(points)}")
    for n, err in points:
        if not err > 0.0:
            raise ValidationError(f"errors must be > 0 for a log fit, got {err} at N={n}")
    slope, _, r_squared = line_fit(
        np.log([1.0 / n for n, _ in points]), np.log([err for _, err in points])
    )
    return slope, r_squared


def edit_drift(
    x0: Sequence[float], edited: Sequence[float], edit_direction: Sequence[float]
) -> float:
    """Distance moved orthogonally to the edit direction.

    Norm of (edited - x0) minus its projection onto edit_direction; invariant
    to adding any multiple of the direction to ``edited``.
    """
    x0 = np.asarray(x0, dtype=float)
    edited = np.asarray(edited, dtype=float)
    d = np.asarray(edit_direction, dtype=float)
    if x0.shape != edited.shape or x0.shape != d.shape:
        raise ValidationError("edit_drift inputs must share shape")
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValidationError("edit direction must be nonzero")
    u = d / norm
    delta = edited - x0
    residual = delta - np.dot(delta, u) * u
    return float(np.linalg.norm(residual))


@dataclasses.dataclass
class RunReport:
    """Per-scenario metrics emitted by the harness.

    ``local_errors`` has one entry per sampler grid point (state distance
    between the inversion and reverse trajectories at matched timesteps).
    ``psnr_max_val`` documents the max value used in the PSNR formula for
    this scenario.  Wall time is serialised into the side metadata file, not
    into the report artifact, so report files stay byte-identical across
    reruns.
    """

    scenario_id: str
    schedule_family: str
    n_steps: int
    local_errors: tuple[float, ...]
    roundtrip_mse: float
    roundtrip_psnr: float
    edit_drift: float | None
    terminal_logsnr: float
    linearity_r2: float
    wall_time_seconds: float
    psnr_max_val: float
    start_clamped: bool
    pinned_edit_drift: float | None = None

    def __post_init__(self) -> None:
        if self.roundtrip_mse < 0.0:
            raise ValidationError("roundtrip_mse must be >= 0")
        if len(self.local_errors) != self.n_steps:
            raise ValidationError(
                f"local_errors length {len(self.local_errors)} != n_steps {self.n_steps}"
            )

    def to_stable_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out.pop("wall_time_seconds")
        out["local_errors"] = list(self.local_errors)
        return out

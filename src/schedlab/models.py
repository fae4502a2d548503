"""Analytic data distributions with closed-form optimal noise predictors.

These stand in for a trained noise-prediction network.  For data drawn from
an isotropic Gaussian mixture, the marginal of x_t = sqrt(a)*x0 + sqrt(1-a)*eps
is itself a mixture with component scales s_j^2 = a*var_j + (1-a), and the
MMSE noise estimate is

    eps_hat(x, a) = -sqrt(1-a) * grad log p_a(x)
                  = sum_j r_j(x) * sqrt(1-a) * (x - sqrt(a)*mu_j) / s_j^2,

with posterior responsibilities r_j.  A point mass is the var=0 special case
and a single Gaussian the one-component case, so one code path serves all
three kinds.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .schema import build

WEIGHT_SUM_TOL = 1e-12


class ModelKind(str, enum.Enum):
    POINT_MASS = "point_mass"
    GAUSSIAN = "gaussian"
    GAUSSIAN_MIXTURE = "gaussian_mixture"


@dataclasses.dataclass(frozen=True)
class Component:
    weight: float
    mean: tuple[float, ...]
    variance: float


@dataclasses.dataclass(frozen=True)
class AnalyticModel:
    kind: ModelKind
    components: tuple[Component, ...]
    dim: int
    condition_label: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ModelKind):
            raise ValidationError(f"unknown model kind: {self.kind!r}")
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if not self.components:
            raise ValidationError("model needs at least one component")
        if self.kind in (ModelKind.POINT_MASS, ModelKind.GAUSSIAN):
            if len(self.components) != 1:
                raise ValidationError(f"{self.kind.value} takes exactly one component")
        total = 0.0
        for c in self.components:
            if not c.weight > 0.0:
                raise ValidationError("component weights must be > 0")
            if len(c.mean) != self.dim:
                raise ValidationError(
                    f"component mean length {len(c.mean)} != dim {self.dim}"
                )
            if self.kind is ModelKind.POINT_MASS:
                if c.variance != 0.0:
                    raise ValidationError("point mass requires variance == 0")
            elif not c.variance > 0.0:
                raise ValidationError(
                    f"{self.kind.value} requires variance > 0, got {c.variance}"
                )
            total += c.weight
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValidationError(f"weights must sum to 1 within 1e-12, got {total}")

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only weight (K,), mean (K, dim) and variance (K,) arrays, built once."""
        arrays = (
            np.array([c.weight for c in self.components]),
            np.array([c.mean for c in self.components]),
            np.array([c.variance for c in self.components]),
        )
        for a in arrays:
            a.flags.writeable = False
        return arrays


def _check_state(model: AnalyticModel, x: Sequence[float]) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != model.dim:
        raise ValidationError(
            f"state shape {arr.shape} is neither ({model.dim},) nor (S, {model.dim})"
        )
    return arr


def exact_eps(model: AnalyticModel, x_t: Sequence[float], alpha_bar: float) -> np.ndarray:
    """Optimal noise prediction for a (dim,) state or an (S, dim) batch of states.

    Responsibilities are computed in log space with max subtraction so the
    mixture path stays stable at extreme logSNR.  Only elementwise operations
    and reductions along the coordinate or component axis touch the states,
    so each row's result is bitwise the same whatever batch it is in.
    """
    if not 0.0 < alpha_bar < 1.0:
        raise DomainError(f"predictor undefined at alpha_bar={alpha_bar}")
    x = _check_state(model, x_t)
    w, mu, var = model.arrays
    s2 = alpha_bar * var + (1.0 - alpha_bar)  # (K,)
    diff = x[..., None, :] - math.sqrt(alpha_bar) * mu  # (..., K, dim)
    per_comp = math.sqrt(1.0 - alpha_bar) * diff / s2[:, None]
    if len(model.components) == 1:
        return per_comp[..., 0, :]
    sq = np.sum(diff * diff, axis=-1)  # (..., K)
    log_r = np.log(w) - 0.5 * (model.dim * np.log(2.0 * math.pi * s2) + sq / s2)
    log_r -= log_r.max(axis=-1, keepdims=True)
    r = np.exp(log_r)
    r /= r.sum(axis=-1, keepdims=True)
    # component-order sum, not a matmul, whose BLAS kernel may vary with the batch
    out = r[..., 0, None] * per_comp[..., 0, :]
    for k in range(1, len(model.components)):
        out = out + r[..., k, None] * per_comp[..., k, :]
    return out


def guided_eps(
    model_uncond: AnalyticModel,
    model_cond: AnalyticModel,
    x_t: Sequence[float],
    alpha_bar: float,
    w: float,
) -> np.ndarray:
    """Classifier-free mixing eps_u + w * (eps_c - eps_u), on (dim,) or (S, dim)."""
    if model_uncond.dim != model_cond.dim:
        raise ValidationError(
            f"model dims differ: {model_uncond.dim} vs {model_cond.dim}"
        )
    e_u = exact_eps(model_uncond, x_t, alpha_bar)
    if w == 0.0:
        return e_u
    e_c = exact_eps(model_cond, x_t, alpha_bar)
    return e_u + w * (e_c - e_u)


def sample_x0(model: AnalyticModel, rng_seed: int, n: int) -> np.ndarray:
    """Draw n data points, bit-reproducible for a fixed seed.

    Uses numpy's Philox counter-based generator: component index by weight,
    then an isotropic Gaussian draw.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1 samples, got {n}")
    w, mu, var = model.arrays
    rng = np.random.Generator(np.random.Philox(key=int(rng_seed)))
    idx = rng.choice(len(model.components), size=n, p=w)
    z = rng.standard_normal((n, model.dim))
    return mu[idx] + np.sqrt(var[idx])[:, None] * z


def data_variance(model: AnalyticModel) -> float:
    """Per-coordinate variance of the data law, averaged over coordinates."""
    w, mu, var = model.arrays
    mean = w @ mu
    second = w @ (var[:, None] + mu**2)
    return float(np.mean(second - mean**2))


def data_range(model: AnalyticModel) -> float:
    """Deterministic magnitude scale: max |mean coord| + 4 sigma over components."""
    return max(
        max(abs(m) for m in c.mean) + 4.0 * math.sqrt(c.variance)
        for c in model.components
    )


# ---------------------------------------------------------------------------
# JSON description

def model_from_dict(data: dict) -> AnalyticModel:
    return build(AnalyticModel, data, "model")

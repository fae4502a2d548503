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
from typing import NamedTuple, Sequence

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


class LevelConstants(NamedTuple):
    """One model's noise-predictor constants at C noise levels a, one per cell.

    Built once per run by ``level_constants``; a run walks them by slicing
    (``block``).  Shapes broadcast over a (C, S, dim) state batch: sqrt(a)*mu
    is (C, 1, K, dim), sqrt(1-a) is (C, 1, 1, 1), s2 = a*var + 1-a and
    dim*log(2*pi*s2) are (C, 1, K), and log w is (K,).
    """

    model: AnalyticModel
    sqrt_a_mu: np.ndarray
    sqrt_1ma: np.ndarray
    s2: np.ndarray
    dim_log: np.ndarray
    log_w: np.ndarray

    def block(self, rows: slice) -> "LevelConstants":
        """The constants of the levels in ``rows`` (views, no copy)."""
        return LevelConstants(
            self.model, self.sqrt_a_mu[rows], self.sqrt_1ma[rows], self.s2[rows],
            self.dim_log[rows], self.log_w,
        )


def level_constants(model: AnalyticModel, alpha_bars: Sequence[float]) -> LevelConstants:
    """``model``'s predictor constants at every level of ``alpha_bars``.

    Each level must lie in (0, 1); the predictor is undefined elsewhere.
    """
    a = np.asarray(alpha_bars, dtype=float)
    ok = (a > 0.0) & (a < 1.0)
    if not ok.all():
        raise DomainError(f"predictor undefined at alpha_bar={a[~ok][0]}")
    w, mu, var = model.arrays
    s2 = a[:, None] * var + (1.0 - a)[:, None]  # (C, K)
    return LevelConstants(
        model,
        np.sqrt(a)[:, None, None, None] * mu,
        np.sqrt(1.0 - a)[:, None, None, None],
        s2[:, None, :],
        model.dim * np.log(2.0 * math.pi * s2)[:, None, :],
        np.log(w),
    )


def _check_state(model: AnalyticModel, x: Sequence[float], cells: bool) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if cells and (arr.ndim != 3 or arr.shape[-1] != model.dim):
        raise ValidationError(f"cell state shape {arr.shape} is not (C, S, {model.dim})")
    if not cells and (arr.ndim not in (1, 2) or arr.shape[-1] != model.dim):
        raise ValidationError(
            f"state shape {arr.shape} is neither ({model.dim},) nor (S, {model.dim})"
        )
    return arr


def exact_eps(
    model: AnalyticModel, x_t: Sequence[float], alpha_bar: float | LevelConstants
) -> np.ndarray:
    """Optimal noise prediction at one noise level or at one level per cell.

    With a float ``alpha_bar``, ``x_t`` is a (dim,) state or an (S, dim)
    batch.  With ``model``'s ``LevelConstants`` at C levels, ``x_t`` is a
    (C, S, dim) batch whose cell c sits at level c.  Responsibilities are
    computed in log space with max subtraction so the mixture path stays
    stable at extreme logSNR.  Only elementwise operations and reductions
    along the coordinate or component axis touch the states, so each row's
    result is bitwise the same whatever batch or cell block it is in.
    """
    if isinstance(alpha_bar, LevelConstants):
        c = alpha_bar
        if c.model is not model:
            raise ValidationError("level constants belong to another model")
        x = _check_state(model, x_t, cells=True)
        if x.shape[0] != len(c.sqrt_1ma):
            raise ValidationError(f"{x.shape[0]} cells of states for {len(c.sqrt_1ma)} levels")
        cells = x
    else:
        c = level_constants(model, (alpha_bar,))
        x = _check_state(model, x_t, cells=False)
        cells = x.reshape(1, -1, model.dim)
    diff = cells[:, :, None, :] - c.sqrt_a_mu  # (C, S, K, dim)
    per_comp = c.sqrt_1ma * diff / c.s2[..., None]
    if len(model.components) == 1:
        return per_comp[..., 0, :].reshape(x.shape)
    sq = np.add.reduce(diff * diff, axis=-1)  # (C, S, K)
    log_r = c.log_w - 0.5 * (c.dim_log + sq / c.s2)
    log_r -= np.maximum.reduce(log_r, axis=-1, keepdims=True)
    r = np.exp(log_r)
    r /= np.add.reduce(r, axis=-1, keepdims=True)
    # component-order sum, not a matmul, whose BLAS kernel may vary with the batch
    terms = r[..., None] * per_comp
    out = terms[..., 0, :].copy()
    for k in range(1, len(model.components)):
        out += terms[..., k, :]
    return out.reshape(x.shape)


def guided_eps(
    model_uncond: AnalyticModel,
    model_cond: AnalyticModel,
    x_t: Sequence[float],
    alpha_bar: float | tuple[LevelConstants, LevelConstants],
    w: float | np.ndarray,
) -> np.ndarray:
    """Classifier-free mixing eps_u + w * (eps_c - eps_u).

    On a (dim,) or (S, dim) state at a float level, or on a (C, S, dim)
    batch with the two models' ``LevelConstants`` and a weight per cell
    ((C, 1, 1)).  A zero weight gives eps_u itself.
    """
    if model_uncond.dim != model_cond.dim:
        raise ValidationError(
            f"model dims differ: {model_uncond.dim} vs {model_cond.dim}"
        )
    a_u, a_c = alpha_bar if isinstance(alpha_bar, tuple) else (alpha_bar, alpha_bar)
    e_u = exact_eps(model_uncond, x_t, a_u)
    zero = np.equal(w, 0.0)
    if zero.all():
        return e_u
    e_c = exact_eps(model_cond, x_t, a_c)
    out = e_u + w * (e_c - e_u)
    return np.where(zero, e_u, out) if zero.any() else out


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

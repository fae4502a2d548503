"""Noise schedules as continuous alpha_bar(t) functions plus discrete tables.

Every schedule is defined through the fraction of signal variance that
survives at time t, alpha_bar(t) on [0, T]:

- scaled_linear: per-step beta_i = 0.1/T + 19.9*i/(T*(T-1)), i.e. the
  classic linear beta ramp with endpoints rescaled by 1000/T.  The exact
  cumulative product prod_{i=1..t} (1 - beta_i) only exists at integer t;
  for continuous t we use the first-order log-Taylor closure
  alpha_bar(t) = exp(-0.1*t/T - 19.9*t*(t+1)/(2*T*(T-1))).
- cosine: alpha_bar(t) = f(t)/f(0) with f(t) = cos^2(((t/T + s)/(1 + s)) * pi/2).
- sigmoid: shifted-sigmoid interpolation between sig(end/tau) and
  sig(start/tau), normalised so alpha_bar(0) = 1 and alpha_bar(T) = 0.
- logistic: alpha_bar(t) = sig(-k*(t - t0)), a pure logistic curve in t.
  Its logSNR is exactly linear: log(a/(1-a)) = -k*(t-t0).

No other module knows a family's algebra: ``_formula`` holds each family's
alpha_bar(t) beside its analytic derivative.

Values are clamped to [ALPHA_BAR_MIN, 1].  The floor plays the same role for
alpha_bar that the 0.999 beta clamp plays for tables: cosine and sigmoid hit
exactly zero at t = T, which would put SNR and logSNR out of range.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import math
from pathlib import Path
from typing import Sequence

from .errors import DomainError, ValidationError

ALPHA_BAR_MIN = 1e-15
BETA_MAX = 0.999

#: scaled-linear beta endpoints, as multiples of 1/T, and the ramp's slope
#: (exactly 19.9 in float64)
BETA_START_SCALE = 0.1
BETA_END_SCALE = 20.0
BETA_SLOPE_SCALE = BETA_END_SCALE - BETA_START_SCALE


class Family(str, enum.Enum):
    SCALED_LINEAR = "scaled_linear"
    COSINE = "cosine"
    SIGMOID = "sigmoid"
    LOGISTIC = "logistic"


@dataclasses.dataclass(frozen=True)
class AffineNormalization:
    """Affine remap of alpha_bar that pins the terminal value.

    alpha_bar(0) is left unchanged; alpha_bar(T) is mapped to
    ``alpha_bar_at_T_target``.  A target of 0 gives a zero-terminal-SNR
    variant of the schedule.
    """

    alpha_bar_at_T_target: float


def _sigmoid(z: float) -> float:
    # numerically stable on both tails
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclasses.dataclass(frozen=True)
class ScheduleSpec:
    """Immutable description of one noise schedule.

    ``T`` is the total diffusion span (continuous time runs over [0, T]).
    ``k`` and ``t0`` parameterise the logistic family (steepness and
    midpoint; t0 defaults to int(0.6*T)).  ``s`` is the cosine offset and
    ``sigmoid_*`` the shifted-sigmoid interpolation parameters.
    """

    family: Family
    T: int = 1000
    k: float = 0.015
    t0: float | None = None
    s: float = 0.008
    sigmoid_start: float = -3.0
    sigmoid_end: float = 3.0
    sigmoid_tau: float = 1.0
    normalization: AffineNormalization | None = None

    def __post_init__(self) -> None:
        if self.t0 is None:
            object.__setattr__(self, "t0", float(int(0.6 * self.T)))
        _validate_spec(self)


def _validate_spec(spec: ScheduleSpec) -> None:
    if not isinstance(spec.family, Family):
        raise ValidationError(f"unknown schedule family: {spec.family!r}")
    if not isinstance(spec.T, int) or spec.T < 2:
        raise ValidationError(f"T must be an integer >= 2, got {spec.T!r}")
    if not spec.k > 0.0:
        raise ValidationError(f"k must be > 0, got {spec.k}")
    if not 0.0 < spec.t0 < spec.T:
        raise ValidationError(f"t0 must lie in (0, T), got t0={spec.t0}, T={spec.T}")
    if spec.s < 0.0:
        raise ValidationError(f"cosine offset s must be >= 0, got {spec.s}")
    if not spec.sigmoid_tau > 0.0:
        raise ValidationError(f"sigmoid tau must be > 0, got {spec.sigmoid_tau}")
    if not spec.sigmoid_end > spec.sigmoid_start:
        raise ValidationError("sigmoid end must exceed start")
    if spec.normalization is not None:
        target = spec.normalization.alpha_bar_at_T_target
        if not 0.0 <= target < 1.0:
            raise ValidationError(f"normalization target must be in [0, 1), got {target}")
        a0 = _formula(spec, 0.0)[0]
        aT = _formula(spec, float(spec.T))[0]
        if not target < a0:
            raise ValidationError(
                f"normalization target {target} must be below alpha_bar(0)={a0}"
            )
        if not a0 > aT:
            raise ValidationError("affine normalization needs a0 > a(T)")


def _check_t(spec: ScheduleSpec, t: float) -> float:
    t = float(t)
    if math.isnan(t) or not 0.0 <= t <= spec.T:
        raise DomainError(f"t={t} outside schedule domain [0, {spec.T}]")
    return t


def _cosine_constants(spec: ScheduleSpec) -> tuple[float, float]:
    """cos of the cosine schedule's angle at t = 0, and the angle's rate du/dt."""
    c0 = math.cos(spec.s / (1.0 + spec.s) * (math.pi / 2.0))
    return c0, math.pi / (2.0 * spec.T * (1.0 + spec.s))


def _formula(spec: ScheduleSpec, t: float) -> tuple[float, float]:
    """(alpha_bar(t), d alpha_bar/dt) of the family, before normalization and clamping.

    scaled_linear is the exponential closure exp(f(t)), with derivative
    exp(f(t)) * f'(t).
    """
    T = spec.T
    if spec.family is Family.SCALED_LINEAR:
        f = -BETA_START_SCALE * t / T - BETA_SLOPE_SCALE * t * (t + 1.0) / (2.0 * T * (T - 1.0))
        fp = -BETA_START_SCALE / T - BETA_SLOPE_SCALE * (2.0 * t + 1.0) / (2.0 * T * (T - 1.0))
        a = math.exp(f)
        return a, a * fp
    if spec.family is Family.COSINE:
        c0, du = _cosine_constants(spec)
        u = (t / T + spec.s) / (1.0 + spec.s) * (math.pi / 2.0)
        c = math.cos(u)
        return (c * c) / (c0 * c0), -math.sin(2.0 * u) * du / (c0 * c0)
    if spec.family is Family.SIGMOID:
        lo, hi, tau = spec.sigmoid_start, spec.sigmoid_end, spec.sigmoid_tau
        v_lo = _sigmoid(lo / tau)
        v_hi = _sigmoid(hi / tau)
        sz = _sigmoid(((t / T) * (hi - lo) + lo) / tau)
        da = -(sz * (1.0 - sz)) * (hi - lo) / (T * tau) / (v_hi - v_lo)
        return (v_hi - sz) / (v_hi - v_lo), da
    # logistic
    a = _sigmoid(-spec.k * (t - spec.t0))
    return a, -spec.k * a * (1.0 - a)


def affine_slope(spec: ScheduleSpec) -> float:
    """Slope of the affine normalization map (1.0 when unnormalised)."""
    if spec.normalization is None:
        return 1.0
    a0 = _formula(spec, 0.0)[0]
    aT = _formula(spec, float(spec.T))[0]
    return (a0 - spec.normalization.alpha_bar_at_T_target) / (a0 - aT)


def _finish(spec: ScheduleSpec, raw: list[float]) -> list[float]:
    """Raw family values through the affine normalization (if any) and the clamp."""
    if spec.normalization is not None:
        aT, slope = _formula(spec, float(spec.T))[0], affine_slope(spec)
        target = spec.normalization.alpha_bar_at_T_target
        raw = [target + slope * (a - aT) for a in raw]
    return [min(max(a, ALPHA_BAR_MIN), 1.0) for a in raw]


def alpha_bar_and_derivative(spec: ScheduleSpec, t: float) -> tuple[float, float]:
    """alpha_bar(t) from the smooth closed form, any real t in [0, T], and its derivative.

    For scaled_linear this is the log-Taylor exponential closure.
    """
    t = _check_t(spec, t)
    a, da = _formula(spec, t)
    return _finish(spec, [a])[0], affine_slope(spec) * da


def alpha_bar_continuous(spec: ScheduleSpec, t: float) -> float:
    """alpha_bar(t) from the smooth closed form, any real t in [0, T]."""
    return alpha_bar_and_derivative(spec, t)[0]


def d_alpha_bar_dt(spec: ScheduleSpec, t: float) -> float:
    """Analytic derivative of the continuous alpha_bar(t) form."""
    return alpha_bar_and_derivative(spec, t)[1]


def sqrt_alpha_bar_rate_at_zero(spec: ScheduleSpec) -> float | None:
    """Limit of d sqrt(alpha_bar)/dt = (da/dt) / (2*sqrt(a)) as alpha_bar -> 0 at t = T.

    Finite only for cosine, whose alpha_bar has a quadratic zero at t = T
    (Nichol & Dhariwal, arXiv 2102.09672): a ~ C*(T-t)^2 with
    sqrt(C) = (du/dt) / |cos(u0)|, scaled by sqrt of the affine slope when
    normalised.  Every other zero is simple, so the rate diverges and this
    returns None.
    """
    if spec.family is not Family.COSINE:
        return None
    c0, du = _cosine_constants(spec)
    return -math.sqrt(affine_slope(spec)) * du / abs(c0)


def scaled_linear_beta(spec: ScheduleSpec, i: int) -> float:
    """Per-step beta of the scaled-linear ramp: 0.1/T + 19.9*i/(T*(T-1))."""
    if spec.family is not Family.SCALED_LINEAR:
        raise ValidationError("scaled_linear_beta is only defined for scaled_linear")
    if not 0 <= i <= spec.T:
        raise DomainError(f"beta index {i} outside [0, T]")
    T = spec.T
    return BETA_START_SCALE / T + BETA_SLOPE_SCALE * i / (T * (T - 1.0))


def _product_factor(spec: ScheduleSpec, i: int) -> float:
    return 1.0 - min(scaled_linear_beta(spec, i), BETA_MAX)


def scaled_linear_alpha_bar_product(spec: ScheduleSpec, t: int) -> float:
    """Exact cumulative product prod_{i=1..t} (1 - beta_i) at integer t.

    alpha_bar(0) is the empty product, exactly 1.  Each factor's beta is
    clamped at BETA_MAX so the product stays positive for any valid T.
    """
    if spec.family is not Family.SCALED_LINEAR:
        raise ValidationError("product form is only defined for scaled_linear")
    ti = int(t)
    if ti != t or not 0 <= ti <= spec.T:
        raise DomainError(f"product form needs integer t in [0, T], got {t!r}")
    return _raw_alpha_bars(spec, [float(ti)])[0]


def _raw_alpha_bars(spec: ScheduleSpec, ts: Sequence[float]) -> list[float]:
    """alpha_bar before normalization and clamping at increasing, checked ts.

    scaled_linear takes the exact product at integer t, as one left-to-right
    running product shared between the points, and the exponential closure
    elsewhere; every other family is its closed form.
    """
    out, prod, done = [], 1.0, 0
    for t in ts:
        if spec.family is Family.SCALED_LINEAR and t.is_integer():
            for i in range(done + 1, int(t) + 1):
                prod *= _product_factor(spec, i)
            done = int(t)
            out.append(prod)
        else:
            out.append(_formula(spec, t)[0])
    return out


def eval_alpha_bar(spec: ScheduleSpec, t: float) -> float:
    """alpha_bar(t) for t in [0, T].

    scaled_linear evaluates the exact product at integer t and the
    exponential closure elsewhere; the two differ by the first-order Taylor
    error (under 2% for T >= 100).  All other families are a single smooth
    formula.  Raises DomainError outside [0, T].
    """
    t = _check_t(spec, t)
    return _finish(spec, _raw_alpha_bars(spec, [t]))[0]


def terminal_snr(spec: ScheduleSpec) -> float:
    """SNR at t = T, alpha_bar(T) / (1 - alpha_bar(T))."""
    a = eval_alpha_bar(spec, float(spec.T))
    if a >= 1.0:
        return math.inf
    return a / (1.0 - a)


def logsnr_of_alpha_bar(a: float) -> float:
    if a >= 1.0:
        return math.inf
    if a <= 0.0:
        return -math.inf
    return math.log(a / (1.0 - a))


@dataclasses.dataclass(frozen=True)
class ScheduleTable:
    """Precomputed per-timestep schedule values on a discrete grid.

    ``beta[0]`` is 1 - alpha_bar(t_0) and beta[i] = 1 - a_i/a_{i-1} after
    that, each clamped at BETA_MAX.
    """

    spec: ScheduleSpec
    timesteps: tuple[float, ...]
    alpha_bar: tuple[float, ...]
    beta: tuple[float, ...]
    logsnr: tuple[float, ...]

    def snr(self) -> tuple[float, ...]:
        return tuple(
            math.inf if a >= 1.0 else a / (1.0 - a) for a in self.alpha_bar
        )


def build_table(spec: ScheduleSpec, grid: Sequence[float]) -> ScheduleTable:
    """Discretise the schedule on a strictly increasing grid within [0, T]."""
    ts = [float(t) for t in grid]
    if not ts:
        raise ValidationError("grid must be non-empty")
    if any(not 0.0 <= t <= spec.T for t in ts):
        raise ValidationError("grid values must lie in [0, T]")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValidationError("grid must be strictly increasing")

    alpha = _finish(spec, _raw_alpha_bars(spec, ts))
    beta = [min(1.0 - alpha[0], BETA_MAX)]
    for prev, cur in zip(alpha, alpha[1:]):
        beta.append(min(1.0 - cur / prev, BETA_MAX))
    logsnr = [logsnr_of_alpha_bar(a) for a in alpha]
    return ScheduleTable(
        spec=spec,
        timesteps=tuple(ts),
        alpha_bar=tuple(alpha),
        beta=tuple(beta),
        logsnr=tuple(logsnr),
    )


# ---------------------------------------------------------------------------
# CSV interface

SCHEDULE_CSV_HEADER = ("t", "alpha_bar", "beta", "snr", "logsnr")


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering; round-trips float64 exactly."""
    return f"{x:.17g}"


def schedule_csv_text(table: ScheduleTable) -> str:
    lines = [",".join(SCHEDULE_CSV_HEADER)]
    for t, a, b, snr, ls in zip(
        table.timesteps, table.alpha_bar, table.beta, table.snr(), table.logsnr
    ):
        lines.append(",".join(format_float(v) for v in (t, a, b, snr, ls)))
    return "\n".join(lines) + "\n"


def write_schedule_csv(table: ScheduleTable, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(schedule_csv_text(table))


def read_schedule_csv(path: str | Path) -> dict[str, list[float]]:
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != SCHEDULE_CSV_HEADER:
            raise ValidationError(f"unexpected schedule CSV header: {header}")
        cols: dict[str, list[float]] = {name: [] for name in header}
        for row in r:
            for name, val in zip(header, row):
                cols[name].append(float(val))
    return cols


def integer_grid(stop: int, start: int = 0) -> list[float]:
    """Integer timestep grid [start, stop], inclusive on both ends."""
    if stop < start:
        raise ValidationError("grid stop must be >= start")
    return [float(t) for t in range(start, stop + 1)]

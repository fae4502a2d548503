"""Derivatives of alpha_bar(t) and the coefficients of dx_t/dt.

On the deterministic path x_t = sqrt(a)*x0 + sqrt(1-a)*eps with a = alpha_bar(t),
the chain rule gives

    dx_t/dt = [da/dt / (2*sqrt(a))] * x0  -  [da/dt / (2*sqrt(1-a))] * eps.

The eps coefficient blows up wherever a -> 1 with nonzero slope, which is
exactly the t = 0 behaviour of the scaled-linear, cosine and sigmoid
families; the logistic family keeps a(0) < 1 and stays finite.  Boundary
values are resolved by analytic case analysis on (a, da/dt) rather than by
sampling, so no 0/0 float arithmetic is involved.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .schedules import (
    ALPHA_BAR_MIN,
    BETA_SLOPE_SCALE,
    BETA_START_SCALE,
    Family,
    Orientation,
    ScheduleSpec,
    ScheduleTable,
    _check_t,
    _cosine_angle,
    _raw_alpha_bar,
    _sigmoid,
    affine_slope,
    alpha_bar_continuous,
    format_float,
)


def d_alpha_bar_dt(spec: ScheduleSpec, t: float) -> float:
    """Analytic derivative of the continuous alpha_bar(t) form.

    scaled_linear differentiates the exponential closure exp(f(t)) with
    f'(t) = -0.1/T - 19.9*(2t+1)/(2*T*(T-1)); the exact product has no
    continuous derivative.
    """
    t = _check_t(spec, t)
    T = spec.T
    if spec.family is Family.SCALED_LINEAR:
        fp = -BETA_START_SCALE / T - BETA_SLOPE_SCALE * (2.0 * t + 1.0) / (2.0 * T * (T - 1.0))
        raw = _raw_alpha_bar(spec, t) * fp
    elif spec.family is Family.COSINE:
        u = _cosine_angle(spec, t)
        c0 = math.cos(_cosine_angle(spec, 0.0))
        du = math.pi / (2.0 * T * (1.0 + spec.s))
        raw = -math.sin(2.0 * u) * du / (c0 * c0)
    elif spec.family is Family.SIGMOID:
        lo, hi, tau = spec.sigmoid_start, spec.sigmoid_end, spec.sigmoid_tau
        v_lo = _sigmoid(lo / tau)
        v_hi = _sigmoid(hi / tau)
        z = ((t / T) * (hi - lo) + lo) / tau
        sz = _sigmoid(z)
        raw = -(sz * (1.0 - sz)) * (hi - lo) / (T * tau) / (v_hi - v_lo)
    else:  # logistic
        sign = 1.0 if spec.orientation is Orientation.VERBATIM_INCREASING else -1.0
        a = _raw_alpha_bar(spec, t)
        raw = sign * spec.k * a * (1.0 - a)
    return affine_slope(spec) * raw


@dataclasses.dataclass(frozen=True)
class DerivativeCoefficients:
    """x0 and eps multipliers of dx_t/dt at one time point.

    ``finite`` is False iff either coefficient is non-finite under limit
    evaluation; the offending coefficient carries a signed infinity.
    """

    t: float
    coeff_x0: float
    coeff_eps: float
    d_alpha_bar_dt: float
    finite: bool


def _cosine_quadratic_zero_limit(spec: ScheduleSpec) -> float:
    # At t = T the cosine alpha_bar has a quadratic zero: a ~ C*(T-t)^2 with
    # sqrt(C) = pi / (2*T*(1+s)*|cos(u0)|), so da/(2*sqrt(a)) -> -sqrt(C).
    c0 = abs(math.cos(_cosine_angle(spec, 0.0)))
    root_c = math.pi / (2.0 * spec.T * (1.0 + spec.s) * c0)
    return -math.sqrt(affine_slope(spec)) * root_c


def dx_dt_coefficients(spec: ScheduleSpec, t: float) -> DerivativeCoefficients:
    """Both dx_t/dt coefficients at t, with boundary limits resolved.

    Never raises on a singular point: divergence is reported through the
    ``finite`` flag and signed infinities.
    """
    t = _check_t(spec, t)
    a = alpha_bar_continuous(spec, t)
    da = d_alpha_bar_dt(spec, t)

    if a >= 1.0:
        coeff_x0 = 0.5 * da
        coeff_eps = 0.0 if da == 0.0 else math.copysign(math.inf, -da)
    elif a <= ALPHA_BAR_MIN:
        coeff_eps = -0.5 * da
        if da == 0.0:
            coeff_x0 = (
                _cosine_quadratic_zero_limit(spec)
                if spec.family is Family.COSINE
                else 0.0
            )
        else:
            coeff_x0 = math.copysign(math.inf, da)
    else:
        coeff_x0 = da / (2.0 * math.sqrt(a))
        coeff_eps = -da / (2.0 * math.sqrt(1.0 - a))

    finite = math.isfinite(coeff_x0) and math.isfinite(coeff_eps)
    return DerivativeCoefficients(
        t=t, coeff_x0=coeff_x0, coeff_eps=coeff_eps, d_alpha_bar_dt=da, finite=finite
    )


def _geometric_points(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [hi]
    ratio = hi / lo
    pts = [lo * ratio ** (i / (n - 1)) for i in range(n)]
    pts[0], pts[-1] = lo, hi
    return pts


def singularity_scan(
    spec: ScheduleSpec, t_min: float, t_max: float, n: int
) -> list[DerivativeCoefficients]:
    """Coefficient sweep over [t_min, t_max], geometrically spaced toward t_min.

    Geometric spacing keeps the divergence rate visible on log axes.  When
    t_min is 0 the first sample sits exactly at 0 (limit evaluation) and the
    remaining points run geometrically from t_max * 1e-6 up to t_max.
    """
    if not 0.0 <= t_min < t_max <= spec.T:
        raise ValidationError(f"need 0 <= t_min < t_max <= T, got [{t_min}, {t_max}]")
    if n < 2:
        raise ValidationError(f"scan needs n >= 2 points, got {n}")
    if t_min > 0.0:
        ts = _geometric_points(t_min, t_max, n)
    else:
        ts = [0.0] + _geometric_points(t_max * 1e-6, t_max, n - 1)
    return [dx_dt_coefficients(spec, t) for t in ts]


def logsnr_linearity_fit(
    table: ScheduleTable, window: tuple[float, float] = (0.2, 0.8)
) -> tuple[float, float, float]:
    """OLS fit of logSNR against t inside the middle window.

    ``window`` is a fraction pair (lo, hi) of the schedule span; rows with
    lo*T <= t <= hi*T and finite logSNR enter the fit.  Returns
    (slope, intercept, r_squared).
    """
    lo, hi = window
    if not 0.0 <= lo < hi <= 1.0:
        raise ValidationError(f"window must satisfy 0 <= lo < hi <= 1, got {window}")
    T = table.spec.T
    pts = [
        (t, y)
        for t, y in zip(table.timesteps, table.logsnr)
        if lo * T <= t <= hi * T and math.isfinite(y)
    ]
    if len(pts) < 3:
        raise ValidationError(f"need at least 3 grid points in window, got {len(pts)}")
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


SCAN_CSV_HEADER = ("t", "coeff_x0", "coeff_eps", "d_alpha_bar_dt", "finite")


def scan_csv_text(rows: Sequence[DerivativeCoefficients]) -> str:
    lines = [",".join(SCAN_CSV_HEADER)]
    for r in rows:
        lines.append(
            ",".join(
                (
                    format_float(r.t),
                    format_float(r.coeff_x0),
                    format_float(r.coeff_eps),
                    format_float(r.d_alpha_bar_dt),
                    "true" if r.finite else "false",
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_scan_csv(rows: Sequence[DerivativeCoefficients], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(scan_csv_text(rows))


def read_scan_csv(path: str | Path) -> list[DerivativeCoefficients]:
    out = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != SCAN_CSV_HEADER:
            raise ValidationError(f"unexpected scan CSV header: {header}")
        for row in r:
            out.append(
                DerivativeCoefficients(
                    t=float(row[0]),
                    coeff_x0=float(row[1]),
                    coeff_eps=float(row[2]),
                    d_alpha_bar_dt=float(row[3]),
                    finite=row[4] == "true",
                )
            )
    return out

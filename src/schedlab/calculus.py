"""The coefficients of dx_t/dt, their singularity scans and the logSNR fit.

On the deterministic path x_t = sqrt(a)*x0 + sqrt(1-a)*eps with a = alpha_bar(t),
the chain rule gives

    dx_t/dt = [da/dt / (2*sqrt(a))] * x0  -  [da/dt / (2*sqrt(1-a))] * eps.

The eps coefficient blows up wherever a -> 1 with nonzero slope, which is
exactly the t = 0 behaviour of the scaled-linear, cosine and sigmoid
families; the logistic family keeps a(0) < 1 and stays finite.  Boundary
values are resolved by analytic case analysis on (a, da/dt) rather than by
sampling, so no 0/0 float arithmetic is involved.  alpha_bar, its derivative
and the rate of a quadratic zero come from ``schedules``.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path
from typing import Sequence

from .errors import ValidationError
from .metrics import line_fit
from .schedules import (
    ALPHA_BAR_MIN,
    ScheduleSpec,
    ScheduleTable,
    alpha_bar_and_derivative,
    format_float,
    sqrt_alpha_bar_rate_at_zero,
)


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


def dx_dt_coefficients(spec: ScheduleSpec, t: float) -> DerivativeCoefficients:
    """Both dx_t/dt coefficients at t, with boundary limits resolved.

    Never raises on a singular point: divergence is reported through the
    ``finite`` flag and signed infinities.
    """
    a, da = alpha_bar_and_derivative(spec, t)
    t = float(t)

    if a >= 1.0:
        coeff_x0 = 0.5 * da
        coeff_eps = 0.0 if da == 0.0 else math.copysign(math.inf, -da)
    elif a <= ALPHA_BAR_MIN:
        coeff_eps = -0.5 * da
        coeff_x0 = sqrt_alpha_bar_rate_at_zero(spec)
        if coeff_x0 is None:
            coeff_x0 = 0.0 if da == 0.0 else math.copysign(math.inf, da)
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
    return line_fit([p[0] for p in pts], [p[1] for p in pts])


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

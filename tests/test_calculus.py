import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    AffineNormalization,
    DomainError,
    Family,
    ScheduleSpec,
    ValidationError,
    alpha_bar_continuous,
    build_table,
    d_alpha_bar_dt,
    dx_dt_coefficients,
    logsnr_linearity_fit,
    singularity_scan,
)
from schedlab.calculus import read_scan_csv, write_scan_csv
from schedlab.schedules import ScheduleTable, integer_grid

SINGULAR = (Family.SCALED_LINEAR, Family.COSINE, Family.SIGMOID)


def central_diff(spec, t, h):
    return (
        alpha_bar_continuous(spec, t + h) - alpha_bar_continuous(spec, t - h)
    ) / (2.0 * h)


def one_sided_diff(spec, t, h):
    # second-order forward difference, for the t=0 boundary
    f0 = alpha_bar_continuous(spec, t)
    f1 = alpha_bar_continuous(spec, t + h)
    f2 = alpha_bar_continuous(spec, t + 2 * h)
    return (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


def test_logistic_verbatim_midpoint_derivative_is_k_over_4():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100, k=0.015, t0=30.0)
    assert d_alpha_bar_dt(spec, 30.0) == pytest.approx(-0.015 / 4.0, rel=1e-14)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(42)
    for family in Family:
        for T in (100, 1000):
            spec = ScheduleSpec(family=family, T=T)
            h = 1e-6 * T
            for t in rng.uniform(0.01 * T, 0.99 * T, 100):
                analytic = d_alpha_bar_dt(spec, t)
                fd = central_diff(spec, t, h)
                assert analytic == pytest.approx(fd, rel=1e-6), (family, T, t)


def test_cosine_derivative_vanishes_at_T():
    spec = ScheduleSpec(family=Family.COSINE, T=100)
    assert d_alpha_bar_dt(spec, 100.0) == pytest.approx(0.0, abs=1e-17)
    coeffs = dx_dt_coefficients(spec, 100.0)
    assert coeffs.coeff_eps == pytest.approx(0.0, abs=1e-17)


@pytest.mark.parametrize("T", [100, 1000])
@pytest.mark.parametrize("target", [None, 0.0])
def test_cosine_x0_coefficient_finite_at_T(T, target):
    # alpha_bar ~ C*(T-t)^2 at t = T, so da/(2*sqrt(a)) -> -sqrt(C) with
    # sqrt(C) = pi / (2*T*(1+s)*cos(s/(1+s)*pi/2)), here at 60 digits
    import mpmath

    norm = None if target is None else AffineNormalization(target)
    spec = ScheduleSpec(family=Family.COSINE, T=T, normalization=norm)
    with mpmath.workdps(60):
        s = mpmath.mpf(spec.s)
        want = -mpmath.pi / (2 * T * (1 + s) * mpmath.cos(s / (1 + s) * mpmath.pi / 2))
        want = float(want)
    c = dx_dt_coefficients(spec, float(T))
    assert c.finite
    assert c.coeff_x0 == pytest.approx(want, rel=1e-12)
    # the limit continues the unclamped coefficient just below T
    assert dx_dt_coefficients(spec, T - 1e-3).coeff_x0 == pytest.approx(want, rel=1e-8)


def test_sigmoid_x0_coefficient_diverges_at_T():
    # sigmoid's zero at T is simple, so da/(2*sqrt(a)) has no finite limit
    c = dx_dt_coefficients(ScheduleSpec(family=Family.SIGMOID, T=100), 100.0)
    assert not c.finite
    assert c.coeff_x0 == -math.inf


def test_derivative_domain_error():
    spec = ScheduleSpec(family=Family.COSINE, T=100)
    with pytest.raises(DomainError):
        d_alpha_bar_dt(spec, -1.0)


# ---------------------------------------------------------------------------
# singularity dichotomy

def test_singular_families_diverge_at_zero():
    for family in SINGULAR:
        spec = ScheduleSpec(family=family, T=100)
        c = dx_dt_coefficients(spec, 0.0)
        assert not c.finite, family
        assert c.coeff_eps == math.inf, family
        assert math.isfinite(c.coeff_x0), family


def test_logistic_finite_at_zero_and_matches_oracle():
    for k, t0 in ((0.015, 30.0), (0.05, 70.0)):
        spec = ScheduleSpec(family=Family.LOGISTIC, T=100, k=k, t0=t0)
        c = dx_dt_coefficients(spec, 0.0)
        assert c.finite
        h = 1e-6 * spec.T
        da_fd = one_sided_diff(spec, 0.0, h)
        a = alpha_bar_continuous(spec, 0.0)
        assert c.coeff_x0 == pytest.approx(da_fd / (2.0 * math.sqrt(a)), rel=1e-6)
        assert c.coeff_eps == pytest.approx(
            -da_fd / (2.0 * math.sqrt(1.0 - a)), rel=1e-6
        )


def test_chain_rule_identity():
    # d(alpha_bar)/dt reconstructed from each coefficient agrees to 1e-10
    rng = np.random.default_rng(11)
    for family in Family:
        spec = ScheduleSpec(family=family, T=100)
        for t in rng.uniform(1.0, 99.0, 50):
            c = dx_dt_coefficients(spec, t)
            a = alpha_bar_continuous(spec, t)
            from_x0 = c.coeff_x0 * 2.0 * math.sqrt(a)
            from_eps = -c.coeff_eps * 2.0 * math.sqrt(1.0 - a)
            assert from_x0 == pytest.approx(c.d_alpha_bar_dt, rel=1e-10)
            assert from_eps == pytest.approx(c.d_alpha_bar_dt, rel=1e-10)


def test_scan_divergence_ratio_scaled_linear():
    spec = ScheduleSpec(family=Family.SCALED_LINEAR, T=100)
    rows = singularity_scan(spec, 1e-6, 1e-2, 16)
    assert abs(rows[0].coeff_eps) > 10.0 * abs(rows[-1].coeff_eps)
    mags = [abs(r.coeff_eps) for r in rows]
    assert all(a > b for a, b in zip(mags, mags[1:]))  # monotone growth toward 0


def test_scan_logistic_flat():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100)
    rows = singularity_scan(spec, 1e-6, 1e-2, 16)
    mags = [abs(r.coeff_eps) for r in rows]
    assert max(mags) / min(mags) < 1.01


def test_scan_n2_returns_endpoints():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100)
    rows = singularity_scan(spec, 1e-6, 1e-2, 2)
    assert [r.t for r in rows] == [1e-6, 1e-2]
    rows0 = singularity_scan(spec, 0.0, 1e-2, 2)
    assert [r.t for r in rows0] == [0.0, 1e-2]


def test_scan_validation():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100)
    with pytest.raises(ValidationError):
        singularity_scan(spec, 1e-2, 1e-6, 8)
    with pytest.raises(ValidationError):
        singularity_scan(spec, 0.0, 1e-2, 1)
    with pytest.raises(ValidationError):
        singularity_scan(spec, 0.0, 200.0, 8)


@given(
    st.sampled_from(list(Family)),
    st.floats(min_value=1e-8, max_value=1e-4),
    st.integers(min_value=2, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_scan_shape_and_bounds(family, t_min, n):
    spec = ScheduleSpec(family=family, T=100)
    rows = singularity_scan(spec, t_min, 1.0, n)
    assert len(rows) == n
    ts = [r.t for r in rows]
    assert ts[0] == t_min and ts[-1] == 1.0
    assert all(a < b for a, b in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# logSNR linearity

def test_linearity_fit_perfect_line():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100)
    ts = tuple(float(t) for t in range(101))
    synthetic = ScheduleTable(
        spec=spec,
        timesteps=ts,
        alpha_bar=tuple(0.5 for _ in ts),
        beta=tuple(0.0 for _ in ts),
        logsnr=tuple(3.0 - 0.25 * t for t in ts),
    )
    slope, intercept, r2 = logsnr_linearity_fit(synthetic)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert slope == pytest.approx(-0.25, rel=1e-12)
    assert intercept == pytest.approx(3.0, rel=1e-12)


def test_linearity_logistic_beats_cosine_and_scaled_linear():
    fits = {}
    for family in (Family.LOGISTIC, Family.COSINE, Family.SCALED_LINEAR):
        spec = ScheduleSpec(family=family, T=100)
        table = build_table(spec, integer_grid(100))
        fits[family] = logsnr_linearity_fit(table)[2]
    assert fits[Family.LOGISTIC] > fits[Family.COSINE]
    assert fits[Family.LOGISTIC] > fits[Family.SCALED_LINEAR]


def test_linearity_empty_window_rejected():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100)
    table = build_table(spec, integer_grid(100))
    with pytest.raises(ValidationError):
        logsnr_linearity_fit(table, window=(0.5, 0.5))
    with pytest.raises(ValidationError):
        logsnr_linearity_fit(table, window=(0.494, 0.506))  # < 3 points inside


# ---------------------------------------------------------------------------
# CSV

def test_scan_csv_roundtrip(tmp_path):
    spec = ScheduleSpec(family=Family.SCALED_LINEAR, T=100)
    rows = singularity_scan(spec, 0.0, 1.0, 8)
    path = tmp_path / "scan.csv"
    write_scan_csv(rows, path)
    back = read_scan_csv(path)
    assert [r.t for r in back] == [r.t for r in rows]
    assert [r.coeff_eps for r in back] == [r.coeff_eps for r in rows]
    assert [r.finite for r in back] == [r.finite for r in rows]

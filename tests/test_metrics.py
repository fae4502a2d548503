import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    RunReport,
    ValidationError,
    convergence_order_fit,
    edit_drift,
    mse,
    psnr,
)
from schedlab.metrics import psnr_of_mse


def test_mse_identical_is_zero():
    assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_mse_simple_value():
    assert mse([0.0, 0.0], [2.0, 0.0]) == pytest.approx(2.0)


def test_mse_matches_two_pass_summation():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(257)
    b = rng.standard_normal(257)
    naive = 0.0
    for x, y in zip(a, b):
        naive += (x - y) ** 2
    naive /= len(a)
    assert mse(a, b) == pytest.approx(naive, rel=1e-12)


def test_mse_length_mismatch():
    with pytest.raises(ValidationError):
        mse([1.0], [1.0, 2.0])


def test_psnr_zero_db():
    assert psnr([0.0], [1.0], max_val=1.0) == pytest.approx(0.0, abs=1e-12)


def test_psnr_infinite_on_identical():
    assert psnr([1.0, 2.0], [1.0, 2.0], max_val=255.0) == math.inf


def test_psnr_eight_bit_value():
    # mse 25 against max 255: 10*log10(255^2/25) = 10*log10(2601)
    a = np.zeros(4)
    b = np.full(4, 5.0)
    assert psnr(a, b, max_val=255.0) == pytest.approx(10.0 * math.log10(2601.0), rel=1e-12)


def test_psnr_rejects_bad_max():
    with pytest.raises(ValidationError):
        psnr([0.0], [1.0], max_val=0.0)


@pytest.mark.parametrize("m, max_val", [(1.0, 5e-324), (1e-300, 1e300), (1e300, 1e-300)])
def test_psnr_of_mse_finite_when_the_ratio_leaves_float_range(m, max_val):
    # max_val^2 / m underflows to 0 or overflows to inf; the log form does not
    want = 20.0 * math.log10(max_val) - 10.0 * math.log10(m)
    assert psnr_of_mse(m, max_val) == pytest.approx(want, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1.01, max_value=10.0))
@settings(max_examples=100, deadline=None)
def test_psnr_decreases_as_mse_grows(err, factor):
    a = np.zeros(3)
    lo = np.full(3, math.sqrt(err))
    hi = np.full(3, math.sqrt(err * factor))
    assert psnr(a, hi, 10.0) < psnr(a, lo, 10.0)


def test_convergence_order_exact_power_laws():
    ns = [25, 50, 100, 200, 400]
    first = [(n, 3.0 / n) for n in ns]
    order, r2 = convergence_order_fit(first)
    assert order == pytest.approx(1.0, rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    second = [(n, 0.7 / n**2) for n in ns]
    order2, _ = convergence_order_fit(second)
    assert order2 == pytest.approx(2.0, rel=1e-12)


def test_convergence_fit_validation():
    with pytest.raises(ValidationError):
        convergence_order_fit([(10, 1.0), (20, 0.5)])
    with pytest.raises(ValidationError):
        convergence_order_fit([(10, 1.0), (20, 0.5), (40, 0.0)])


def test_edit_drift_trivial_cases():
    x0 = np.array([1.0, 2.0, 3.0])
    d = np.array([0.0, 1.0, 0.0])
    assert edit_drift(x0, x0, d) == 0.0
    assert edit_drift(x0, x0 + 3.0 * d, d) == pytest.approx(0.0, abs=1e-12)


def test_edit_drift_matches_gram_schmidt():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x0 = rng.standard_normal(6)
        edited = rng.standard_normal(6)
        d = rng.standard_normal(6)
        u = d / np.linalg.norm(d)
        delta = edited - x0
        explicit = np.linalg.norm(delta - (delta @ u) * u)
        assert edit_drift(x0, edited, d) == pytest.approx(explicit, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=-50, max_value=50), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_edit_drift_invariant_along_direction(scale, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(5)
    edited = rng.standard_normal(5)
    d = rng.standard_normal(5)
    base = edit_drift(x0, edited, d)
    shifted = edit_drift(x0, edited + scale * d, d)
    assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_edit_drift_zero_direction_rejected():
    with pytest.raises(ValidationError):
        edit_drift([0.0], [1.0], [0.0])


def test_run_report_checks_lengths():
    kwargs = dict(
        scenario_id="s",
        schedule_family="logistic",
        n_steps=3,
        roundtrip_mse=0.0,
        roundtrip_psnr=math.inf,
        edit_drift=None,
        terminal_logsnr=-1.0,
        linearity_r2=1.0,
        wall_time_seconds=0.1,
        psnr_max_val=1.0,
        start_clamped=False,
    )
    report = RunReport(local_errors=(0.0, 0.0, 0.0), **kwargs)
    stable = report.to_stable_dict()
    assert "wall_time_seconds" not in stable
    assert stable["local_errors"] == [0.0, 0.0, 0.0]
    with pytest.raises(ValidationError):
        RunReport(local_errors=(0.0,), **kwargs)

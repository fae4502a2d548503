import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    ALPHA_BAR_MIN,
    AffineNormalization,
    DomainError,
    Family,
    SamplerConfig,
    ScheduleSpec,
    ValidationError,
    alpha_bar_continuous,
    build_table,
    eval_alpha_bar,
    scaled_linear_alpha_bar_product,
    scaled_linear_beta,
    terminal_snr,
    time_grid,
)
from schedlab.schedules import integer_grid

ALL_FAMILIES = list(Family)


def spec_for(family, T=100, **kw):
    return ScheduleSpec(family=family, T=T, **kw)


# ---------------------------------------------------------------------------
# point values

def test_cosine_alpha0_is_one():
    assert eval_alpha_bar(spec_for(Family.COSINE), 0.0) == 1.0


def test_logistic_midpoint_is_half():
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100, k=0.015, t0=60.0)
    assert eval_alpha_bar(spec, 60.0) == 0.5


def test_scaled_linear_product_at_t1():
    # first factor of the product is 1 - beta_1
    spec = spec_for(Family.SCALED_LINEAR, T=100)
    beta1 = 0.1 / 100 + 19.9 / (100 * 99)
    assert eval_alpha_bar(spec, 1.0) == pytest.approx(1.0 - beta1, rel=0, abs=1e-15)


def test_logistic_verbatim_increasing_alpha0():
    # direct substitution: 1 / (1 + e^{-k*t0}) with k=0.015, t0=30,
    # cross-checked against a 50-digit evaluation
    import mpmath

    spec = ScheduleSpec(family=Family.LOGISTIC, T=100, k=0.015, t0=30.0)
    got = eval_alpha_bar(spec, 0.0)
    assert got == pytest.approx(1.0 / (1.0 + math.exp(-0.45)), rel=1e-15)
    with mpmath.workdps(50):
        hp = 1 / (1 + mpmath.e ** (-mpmath.mpf("0.015") * 30))
        assert got == pytest.approx(float(hp), rel=1e-14)


def test_scaled_linear_beta_endpoints():
    for T in (100, 1000):
        spec = spec_for(Family.SCALED_LINEAR, T=T)
        assert scaled_linear_beta(spec, 0) == pytest.approx(0.1 / T, rel=0, abs=1e-12)
        assert scaled_linear_beta(spec, T - 1) == pytest.approx(
            20.0 / T, rel=0, abs=1e-12
        )


# ---------------------------------------------------------------------------
# tables

def test_table_scaled_linear_final_beta_is_20_over_T():
    spec = spec_for(Family.SCALED_LINEAR, T=100)
    table = build_table(spec, integer_grid(99))
    assert table.beta[99] == pytest.approx(0.2, rel=0, abs=1e-12)


def test_table_singleton_grid():
    for family in ALL_FAMILIES:
        spec = spec_for(family)
        table = build_table(spec, [0.0])
        assert len(table.timesteps) == 1
        assert table.beta[0] == pytest.approx(1.0 - eval_alpha_bar(spec, 0.0))


def test_cosine_table_all_betas_clamped():
    # brute-force scan of the full 1000-step grid
    spec = spec_for(Family.COSINE, T=1000)
    table = build_table(spec, integer_grid(999))
    assert all(b <= 0.999 for b in table.beta)
    assert all(0.0 < a <= 1.0 for a in table.alpha_bar)


def test_table_matches_eval_exactly():
    # the table's running product must equal the per-point product bitwise,
    # on a short mixed grid, the full integer grid and an N=30 sampler grid
    sampler_grid = time_grid(SamplerConfig(n_steps=30), 1000)
    assert any(t.is_integer() for t in sampler_grid)
    assert not all(t.is_integer() for t in sampler_grid)
    cases = [
        (100, [0.0, 0.5, 1.0, 7.25, 31.0, 99.0]),
        (1000, integer_grid(1000)),
        (1000, sampler_grid),
    ]
    for T, grid in cases:
        for family in ALL_FAMILIES:
            spec = spec_for(family, T=T)
            table = build_table(spec, grid)
            for t, a in zip(table.timesteps, table.alpha_bar):
                assert a == eval_alpha_bar(spec, t), (family, T, t)


def test_table_logsnr_strictly_decreasing():
    for family in ALL_FAMILIES:
        spec = spec_for(family)
        table = build_table(spec, integer_grid(99, start=1))
        diffs = np.diff(table.logsnr)
        assert np.all(diffs < 0.0)


def test_table_rejects_bad_grids():
    spec = spec_for(Family.LOGISTIC)
    with pytest.raises(ValidationError):
        build_table(spec, [])
    with pytest.raises(ValidationError):
        build_table(spec, [3.0, 2.0])
    with pytest.raises(ValidationError):
        build_table(spec, [0.0, 101.0])


# ---------------------------------------------------------------------------
# product vs exponential closure

def test_product_vs_exponential_form_gap():
    # The cumulative second-order Taylor terms make a global 2% *relative*
    # bound unattainable near t = T (the log gap there is sum(beta_i^2)/2,
    # about 0.65 for T=100).  What does hold, brute-forced over every integer
    # t for both T values: the absolute gap stays under 2%, and the relative
    # gap stays under 2% for the whole head of the schedule where at least
    # half the signal remains.
    for T in (100, 1000):
        spec = spec_for(Family.SCALED_LINEAR, T=T)
        for t in range(0, T + 1):
            exact = scaled_linear_alpha_bar_product(spec, t)
            approx = alpha_bar_continuous(spec, float(t))
            assert abs(exact - approx) <= 0.02, (T, t)
            if exact >= 0.5:
                assert abs(exact - approx) / exact <= 0.02, (T, t)


def test_product_monotone_on_integer_lattice():
    spec = spec_for(Family.SCALED_LINEAR, T=100)
    vals = [scaled_linear_alpha_bar_product(spec, t) for t in range(101)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_product_rejects_non_integer():
    spec = spec_for(Family.SCALED_LINEAR, T=100)
    with pytest.raises(DomainError):
        scaled_linear_alpha_bar_product(spec, 1.5)


# ---------------------------------------------------------------------------
# properties

@st.composite
def specs(draw):
    family = draw(st.sampled_from(ALL_FAMILIES))
    T = draw(st.sampled_from([50, 100, 400, 1000]))
    k = draw(st.floats(min_value=0.002, max_value=0.2))
    t0 = draw(st.floats(min_value=0.1, max_value=0.9)) * T
    s = draw(st.floats(min_value=0.0, max_value=0.05))
    return ScheduleSpec(family=family, T=T, k=k, t0=t0, s=s)


@given(specs(), st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_continuous_form_monotone_and_in_range(spec, u1, u2):
    t1, t2 = sorted((u1 * spec.T, u2 * spec.T))
    a1 = alpha_bar_continuous(spec, t1)
    a2 = alpha_bar_continuous(spec, t2)
    assert 0.0 < a1 <= 1.0 and 0.0 < a2 <= 1.0
    assert a1 >= a2


@given(specs(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_eval_range_invariant(spec, u):
    a = eval_alpha_bar(spec, u * spec.T)
    assert ALPHA_BAR_MIN <= a <= 1.0


def test_eval_domain_errors():
    spec = spec_for(Family.COSINE)
    with pytest.raises(DomainError):
        eval_alpha_bar(spec, -0.1)
    with pytest.raises(DomainError):
        eval_alpha_bar(spec, 100.1)


def test_spec_validation_errors():
    with pytest.raises(ValidationError):
        ScheduleSpec(family=Family.LOGISTIC, T=1)
    with pytest.raises(ValidationError):
        ScheduleSpec(family=Family.LOGISTIC, T=100, k=0.0)
    with pytest.raises(ValidationError):
        ScheduleSpec(family=Family.LOGISTIC, T=100, t0=100.0)
    with pytest.raises(ValidationError):
        ScheduleSpec(family=Family.COSINE, T=100, s=-0.1)
    with pytest.raises(ValidationError):  # sig(3/tau) == sig(-3/tau) == 0.5 in float
        ScheduleSpec(family=Family.SIGMOID, T=100, sigmoid_tau=1e300)
    with pytest.raises(ValidationError):
        ScheduleSpec(
            family=Family.LOGISTIC,
            T=100,
            normalization=AffineNormalization(alpha_bar_at_T_target=0.99),
        )


# ---------------------------------------------------------------------------
# terminal SNR

def test_terminal_snr_logistic_default():
    # sigma(-0.6) / (1 - sigma(-0.6)) reduces to e^{-0.6}
    spec = ScheduleSpec(family=Family.LOGISTIC, T=100, k=0.015, t0=60.0)
    assert terminal_snr(spec) == pytest.approx(math.exp(-0.6), rel=1e-14)


def test_terminal_snr_affine_zero_target():
    spec = ScheduleSpec(
        family=Family.LOGISTIC,
        T=100,
        normalization=AffineNormalization(alpha_bar_at_T_target=0.0),
    )
    assert terminal_snr(spec) <= 1e-12


def test_final_grid_step_snr_ordering():
    # On the 50-step grid over T=1000 (final step at 981) with the t0=0.3T
    # midpoint preset, the logistic curve ends closer to pure noise than the
    # cosine curve: its SNR at the last grid step is smaller.
    logistic = ScheduleSpec(family=Family.LOGISTIC, T=1000, t0=300.0)
    cosine = ScheduleSpec(family=Family.COSINE, T=1000)

    def snr_at(spec, t):
        a = eval_alpha_bar(spec, t)
        return a / (1.0 - a)

    assert snr_at(logistic, 981.0) < snr_at(cosine, 981.0)


def test_affine_normalization_pins_terminal_only():
    spec = ScheduleSpec(
        family=Family.LOGISTIC,
        T=100,
        normalization=AffineNormalization(alpha_bar_at_T_target=0.1),
    )
    raw = ScheduleSpec(family=Family.LOGISTIC, T=100)
    assert eval_alpha_bar(spec, 0.0) == pytest.approx(eval_alpha_bar(raw, 0.0))
    assert eval_alpha_bar(spec, 100.0) == pytest.approx(0.1, abs=1e-15)


import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    AnalyticModel,
    Component,
    DomainError,
    ModelKind,
    ValidationError,
    data_range,
    data_variance,
    exact_eps,
    guided_eps,
    model_from_dict,
    sample_x0,
)
from schedlab.presets import mixture_testbed, point_mass_model


def gaussian(mean, variance=1.0, label=None):
    return AnalyticModel(
        kind=ModelKind.GAUSSIAN,
        components=(Component(weight=1.0, mean=tuple(mean), variance=variance),),
        dim=len(mean),
        condition_label=label,
    )


def two_mixture(m1, m2, variance=1.0):
    return AnalyticModel(
        kind=ModelKind.GAUSSIAN_MIXTURE,
        components=(
            Component(weight=0.5, mean=tuple(m1), variance=variance),
            Component(weight=0.5, mean=tuple(m2), variance=variance),
        ),
        dim=len(m1),
    )


def log_marginal(model, x, a):
    # independent density evaluation for the score oracle
    terms = []
    for c in model.components:
        s2 = a * c.variance + (1.0 - a)
        diff = np.asarray(x) - math.sqrt(a) * np.asarray(c.mean)
        terms.append(
            math.log(c.weight)
            - 0.5 * (model.dim * math.log(2.0 * math.pi * s2) + float(diff @ diff) / s2)
        )
    m = max(terms)
    return m + math.log(sum(math.exp(v - m) for v in terms))


def numerical_score(model, x, a, h=1e-6):
    g = np.zeros(model.dim)
    for i in range(model.dim):
        xp, xm = np.array(x, dtype=float), np.array(x, dtype=float)
        xp[i] += h
        xm[i] -= h
        g[i] = (log_marginal(model, xp, a) - log_marginal(model, xm, a)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# exact predictions

def test_pointmass_recovers_injected_noise():
    pm = point_mass_model(5)
    mu = np.array(pm.components[0].mean)
    rng = np.random.default_rng(0)
    for a in (0.1, 0.5, 0.93):
        eps = rng.standard_normal(5)
        x_t = math.sqrt(a) * mu + math.sqrt(1.0 - a) * eps
        np.testing.assert_allclose(exact_eps(pm, x_t, a), eps, atol=1e-12)


def test_gaussian_zero_at_scaled_mean():
    g = gaussian([1.0, -2.0, 0.5])
    x_t = math.sqrt(0.5) * np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(exact_eps(g, x_t, 0.5), np.zeros(3), atol=1e-14)


def test_symmetric_mixture_zero_at_midpoint():
    mix = two_mixture([2.0, 0.0], [-2.0, 0.0])
    a = 0.37
    midpoint = math.sqrt(a) * np.zeros(2)
    np.testing.assert_allclose(exact_eps(mix, midpoint, a), np.zeros(2), atol=1e-14)


def test_mixture_matches_numerical_score():
    bed = mixture_testbed()
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = 2.0 * rng.standard_normal(8)
        a = rng.uniform(0.05, 0.95)
        oracle = -math.sqrt(1.0 - a) * numerical_score(bed.source, x, a)
        pred = exact_eps(bed.source, x, a)
        np.testing.assert_allclose(pred, oracle, rtol=1e-5, atol=1e-9)


def test_score_consistency_all_kinds():
    models = [point_mass_model(4), gaussian([0.5, -1.0, 2.0, 0.0]), mixture_testbed(4).source]
    rng = np.random.default_rng(5)
    for model in models:
        if model.kind is ModelKind.POINT_MASS:
            continue  # density of a point mass is the smoothed Gaussian below anyway
        for _ in range(5):
            x = rng.standard_normal(model.dim)
            a = rng.uniform(0.1, 0.9)
            oracle = -math.sqrt(1.0 - a) * numerical_score(model, x, a)
            np.testing.assert_allclose(exact_eps(model, x, a), oracle, rtol=1e-5, atol=1e-9)


def test_predictor_beats_constant_baselines():
    # posterior-mean optimality on 1e4 forward draws
    g = gaussian([1.5, -0.5], variance=0.8)
    rng = np.random.default_rng(9)
    a = 0.6
    mu = np.array(g.components[0].mean)
    x0 = mu + math.sqrt(0.8) * rng.standard_normal((10_000, 2))
    eps = rng.standard_normal((10_000, 2))
    x_t = math.sqrt(a) * x0 + math.sqrt(1.0 - a) * eps
    residual = np.array([exact_eps(g, x, a) for x in x_t]) - eps
    best = float(np.mean(residual**2))
    for const in (np.zeros(2), eps.mean(axis=0), np.ones(2)):
        assert best < float(np.mean((const - eps) ** 2))


def test_alpha_bar_domain_errors():
    g = gaussian([0.0])
    with pytest.raises(DomainError):
        exact_eps(g, [0.0], 0.0)
    with pytest.raises(DomainError):
        exact_eps(g, [0.0], 1.0)


def test_state_shape_validation():
    g = gaussian([0.0, 1.0])
    with pytest.raises(ValidationError):
        exact_eps(g, [0.0], 0.5)


# ---------------------------------------------------------------------------
# guidance

def test_guided_limits():
    bed = mixture_testbed()
    x = np.arange(8.0) / 7.0
    e_u = exact_eps(bed.uncond, x, 0.4)
    e_c = exact_eps(bed.target, x, 0.4)
    np.testing.assert_array_equal(guided_eps(bed.uncond, bed.target, x, 0.4, 0.0), e_u)
    np.testing.assert_allclose(guided_eps(bed.uncond, bed.target, x, 0.4, 1.0), e_c, atol=1e-15)
    np.testing.assert_array_equal(
        guided_eps(bed.uncond, bed.uncond, x, 0.4, 7.5), e_u
    )


def test_guided_dim_mismatch():
    with pytest.raises(ValidationError):
        guided_eps(gaussian([0.0]), gaussian([0.0, 1.0]), [0.0], 0.5, 1.0)


@given(st.floats(min_value=-5, max_value=5), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=50, deadline=None)
def test_guided_is_affine_in_w(w, seed):
    bed = mixture_testbed(4)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    e_u = exact_eps(bed.uncond, x, 0.5)
    e_c = exact_eps(bed.target, x, 0.5)
    np.testing.assert_allclose(
        guided_eps(bed.uncond, bed.target, x, 0.5, w), e_u + w * (e_c - e_u), atol=1e-12
    )


# ---------------------------------------------------------------------------
# sampling

def test_pointmass_samples_equal_mean():
    pm = point_mass_model(6)
    samples = sample_x0(pm, 123, 50)
    np.testing.assert_array_equal(samples, np.tile(pm.components[0].mean, (50, 1)))


def test_sampling_deterministic():
    bed = mixture_testbed()
    a = sample_x0(bed.source, 777, 64)
    b = sample_x0(bed.source, 777, 64)
    np.testing.assert_array_equal(a, b)
    c = sample_x0(bed.source, 778, 64)
    assert not np.array_equal(a, c)


def test_gaussian_sample_mean_clt_bound():
    g = gaussian([2.0, -1.0, 0.0], variance=4.0)
    n = 100_000
    samples = sample_x0(g, 2024, n)
    bound = 4.0 * math.sqrt(4.0) / math.sqrt(n)
    for i, m in enumerate(g.components[0].mean):
        assert abs(samples[:, i].mean() - m) < bound


def test_sample_validation():
    with pytest.raises(ValidationError):
        sample_x0(point_mass_model(2), 0, 0)


# ---------------------------------------------------------------------------
# model construction and serialisation

def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError):
        AnalyticModel(
            kind=ModelKind.GAUSSIAN_MIXTURE,
            components=(
                Component(weight=0.5, mean=(0.0,), variance=1.0),
                Component(weight=0.6, mean=(1.0,), variance=1.0),
            ),
            dim=1,
        )


def test_variance_zero_only_for_pointmass():
    with pytest.raises(ValidationError):
        gaussian([0.0], variance=0.0)
    with pytest.raises(ValidationError):
        AnalyticModel(
            kind=ModelKind.POINT_MASS,
            components=(Component(weight=1.0, mean=(0.0,), variance=1.0),),
            dim=1,
        )


def test_mean_length_checked():
    with pytest.raises(ValidationError):
        AnalyticModel(
            kind=ModelKind.GAUSSIAN,
            components=(Component(weight=1.0, mean=(0.0, 1.0), variance=1.0),),
            dim=3,
        )


def test_data_variance_mixture():
    mix = two_mixture([2.0, 0.0], [-2.0, 0.0], variance=0.25)
    # coordinate 0: 0.25 + 4, coordinate 1: 0.25; average 2.25
    assert data_variance(mix) == pytest.approx(2.25, rel=1e-12)
    assert data_range(mix) == pytest.approx(2.0 + 4.0 * 0.5, rel=1e-12)


def test_json_roundtrip():
    bed = mixture_testbed()
    blob = {
        "kind": "gaussian_mixture",
        "dim": 8,
        "components": [
            {"weight": 0.5, "mean": [2.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "variance": 0.25},
            {"weight": 0.5, "mean": [-2.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "variance": 0.25},
        ],
        "condition_label": "target",
    }
    back = model_from_dict(blob)
    assert back == bed.target
    assert back.kind is ModelKind.GAUSSIAN_MIXTURE
    assert back.condition_label == "target"


def point_mass_blob():
    return {
        "kind": "point_mass",
        "dim": 2,
        "components": [{"weight": 1.0, "mean": [1.0, -1.25], "variance": 0.0}],
        "condition_label": None,
    }


def test_json_unknown_fields_rejected():
    assert model_from_dict(point_mass_blob()) == point_mass_model(2)
    blob = point_mass_blob()
    blob["extra"] = 1
    with pytest.raises(ValidationError):
        model_from_dict(blob)
    blob2 = point_mass_blob()
    blob2["components"][0]["sigma"] = 1
    with pytest.raises(ValidationError):
        model_from_dict(blob2)

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    DomainError,
    Family,
    SamplerConfig,
    ScheduleSpec,
    ValidationError,
    build_table,
    ddim_invert_step,
    ddim_reverse_step,
    eval_alpha_bar,
    exact_eps,
    forward_closed_form,
    guided_eps,
    ode_reference_solve,
    ode_solve,
    pinned_reconstruction,
    run_inversion,
    run_reverse,
    sample_x0,
    time_grid,
)
from schedlab.sampler import (
    ddpm_sigma,
    read_trajectory_bin,
    write_trajectory_bin,
    write_trajectory_csv,
)
from schedlab.presets import logistic_spec, mixture_testbed, point_mass_model


def make_table(spec, n_steps, **cfg):
    config = SamplerConfig(n_steps=n_steps, **cfg)
    return build_table(spec, time_grid(config, spec.T)), config


# ---------------------------------------------------------------------------
# forward closed form

def test_forward_alpha_one_returns_x0():
    x0 = np.array([1.0, -2.0])
    out = forward_closed_form(x0, np.array([5.0, 5.0]), 1.0)
    np.testing.assert_array_equal(out, x0)


def test_forward_alpha_to_zero_returns_eps():
    eps = np.array([0.3, -0.7])
    out = forward_closed_form(np.array([100.0, 100.0]), eps, 1e-30)
    np.testing.assert_allclose(out, eps, atol=1e-12)


def test_forward_variance_normalization_monte_carlo():
    rng = np.random.default_rng(7)
    n = 100_000
    x0 = rng.standard_normal(n)
    eps = rng.standard_normal(n)
    x_t = forward_closed_form(x0, eps, 0.5, b=0.8, normalize=True, sigma0_sq=1.0)
    assert abs(float(np.var(x_t)) - 1.0) < 0.02


def test_forward_validation():
    with pytest.raises(ValidationError):
        forward_closed_form([0.0], [0.0], 0.5, b=0.0)
    with pytest.raises(DomainError):
        forward_closed_form([0.0], [0.0], 0.0)


# ---------------------------------------------------------------------------
# single steps

def test_reverse_step_recovers_pointmass_state():
    # with the true eps, one deterministic step lands exactly on the
    # closed-form state at the previous level
    mu = np.array([1.0, -1.0, 2.0])
    eps = np.array([0.5, 0.25, -1.0])
    a_t, a_prev = 0.3, 0.8
    x_t = math.sqrt(a_t) * mu + math.sqrt(1.0 - a_t) * eps
    out = ddim_reverse_step(x_t, eps, a_t, a_prev, eta=0.0)
    expected = math.sqrt(a_prev) * mu + math.sqrt(1.0 - a_prev) * eps
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_eta_one_uses_ddpm_posterior_sigma():
    a_t, a_prev = 0.4, 0.7
    sigma = ddpm_sigma(a_t, a_prev)
    assert sigma == pytest.approx(
        math.sqrt((1.0 - a_prev) / (1.0 - a_t)) * math.sqrt(1.0 - a_t / a_prev)
    )
    x = np.zeros(2)
    eps = np.zeros(2)
    noise = np.array([1.0, -1.0])
    out = ddim_reverse_step(x, eps, a_t, a_prev, eta=1.0, noise=noise)
    np.testing.assert_allclose(out, sigma * noise, atol=1e-15)


def test_degenerate_step_is_identity():
    x = np.array([0.2, -0.4, 1.0])
    eps = np.array([3.0, -3.0, 0.0])
    out = ddim_reverse_step(x, eps, 0.6, 0.6, eta=0.0)
    np.testing.assert_allclose(out, x, atol=1e-15)


def test_invalid_eta_for_step_pair():
    with pytest.raises(DomainError):
        ddim_reverse_step(np.zeros(1), np.zeros(1), 0.4, 0.41, eta=40.0, noise=np.zeros(1))


def test_step_range_checks():
    with pytest.raises(DomainError):
        ddim_invert_step(np.zeros(1), np.zeros(1), 0.5, 1.0)
    with pytest.raises(DomainError):
        ddim_reverse_step(np.zeros(1), np.zeros(1), 1.0, 0.5)


@given(
    st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=300, deadline=None)
def test_mutual_inverse_identity(a_prev, a_t, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(4)
    eps = rng.standard_normal(4)
    x_t = ddim_invert_step(x, eps, a_prev, a_t)
    back = ddim_reverse_step(x_t, eps, a_t, a_prev, eta=0.0)
    np.testing.assert_allclose(back, x, atol=1e-10)


# ---------------------------------------------------------------------------
# grids and trajectories

def test_grid_convention_final_step_981():
    grid = time_grid(SamplerConfig(n_steps=50), 1000)
    assert grid[0] == 1.0
    assert grid[-1] == 981.0
    assert len(grid) == 50


def test_grid_validation():
    with pytest.raises(ValidationError):
        time_grid(SamplerConfig(n_steps=200), 100)  # n_steps > T
    with pytest.raises(ValidationError):
        time_grid(SamplerConfig(n_steps=10, step_offset=50), 100)


def test_trajectory_lengths_and_direction():
    bed = mixture_testbed()
    spec = logistic_spec(T=1000)
    table, cfg = make_table(spec, 20)
    x0 = sample_x0(bed.source, 0, 1)[0]
    inv = run_inversion((bed.uncond, bed.source), x0, table, cfg, 0)
    rev = run_reverse((bed.uncond, bed.source), inv.states[-1], table, cfg, 0)
    assert inv.states.shape == (21, 8)
    assert rev.states.shape == (21, 8)
    assert inv.timesteps[0] == 0.0 and inv.timesteps[-1] == table.timesteps[-1]
    assert all(b > a for a, b in zip(inv.timesteps, inv.timesteps[1:]))
    assert all(b < a for a, b in zip(rev.timesteps, rev.timesteps[1:]))


def test_zero_guidance_with_identical_cond_is_unguided():
    bed = mixture_testbed()
    spec = logistic_spec(T=1000)
    table, cfg = make_table(spec, 16, w_invert=0.0)
    x0 = sample_x0(bed.source, 1, 1)[0]
    guided = run_inversion((bed.uncond, bed.uncond), x0, table, cfg, 1)
    plain = run_inversion(bed.uncond, x0, table, cfg, 1)
    np.testing.assert_array_equal(guided.states, plain.states)


def test_grid_mismatch_rejected():
    bed = mixture_testbed()
    spec = logistic_spec(T=1000)
    table, _ = make_table(spec, 20)
    other = SamplerConfig(n_steps=10)
    with pytest.raises(ValidationError):
        run_inversion(bed.source, np.zeros(8), table, other, 0)


def test_pointmass_roundtrip_is_exact():
    pm = point_mass_model(8)
    x0 = np.array(pm.components[0].mean)
    for family in (Family.LOGISTIC, Family.SCALED_LINEAR):
        spec = ScheduleSpec(family=family, T=1000)
        table, cfg = make_table(spec, 1000)
        inv = run_inversion(pm, x0, table, cfg)
        rev = run_reverse(pm, inv.states[-1], table, cfg)
        err = np.linalg.norm(rev.states[-1] - x0)
        assert err <= 1e-6 * np.linalg.norm(x0), family


def test_mixture_roundtrip_error_shrinks_with_steps():
    bed = mixture_testbed()
    spec = logistic_spec(T=1000)
    errs = {}
    for n in (50, 100):
        table, cfg = make_table(spec, n)
        x0 = sample_x0(bed.source, 5, 1)[0]
        inv = run_inversion((bed.uncond, bed.source), x0, table, cfg, 5)
        rev = run_reverse((bed.uncond, bed.source), inv.states[-1], table, cfg, 5)
        errs[n] = float(np.linalg.norm(rev.states[-1] - x0))
    assert errs[100] < errs[50]


def test_start_clamp_mirrors_between_directions():
    pm = point_mass_model(4)
    x0 = np.array(pm.components[0].mean)
    spec = ScheduleSpec(family=Family.COSINE, T=1000)
    table, cfg = make_table(spec, 25)
    inv = run_inversion(pm, x0, table, cfg)
    rev = run_reverse(pm, inv.states[-1], table, cfg)
    assert inv.start_clamped and rev.start_clamped
    assert inv.alpha_bars[0] == table.alpha_bar[0]
    assert rev.alpha_bars[-1] == table.alpha_bar[0]
    log_table, log_cfg = make_table(logistic_spec(T=1000), 25)
    inv2 = run_inversion(pm, x0, log_table, log_cfg)
    assert not inv2.start_clamped
    assert inv2.alpha_bars[0] == eval_alpha_bar(log_table.spec, 0.0)


def test_reverse_deterministic_and_seeded():
    bed = mixture_testbed()
    spec = logistic_spec(T=1000)
    table, cfg = make_table(spec, 20, eta=0.4)
    x_T = sample_x0(bed.source, 9, 1)[0]
    a = run_reverse((bed.uncond, bed.source), x_T, table, cfg, seed=3)
    b = run_reverse((bed.uncond, bed.source), x_T, table, cfg, seed=3)
    c = run_reverse((bed.uncond, bed.source), x_T, table, cfg, seed=4)
    np.testing.assert_array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


# ---------------------------------------------------------------------------
# pinned reconstruction

def test_pinned_source_reconstruction_is_exact():
    bed = mixture_testbed()
    for spec in (logistic_spec(T=1000), ScheduleSpec(family=Family.SCALED_LINEAR, T=1000)):
        table, cfg = make_table(spec, 50)
        x0 = sample_x0(bed.source, 21, 1)[0]
        src = (bed.uncond, bed.source)
        inv = run_inversion(src, x0, table, cfg, 21)
        pinned = pinned_reconstruction(inv, src, src, table, cfg, 21)
        assert float(np.max(np.abs(pinned.states[-1] - inv.states[0]))) <= 1e-9
        # and every intermediate state retraces the inversion path
        np.testing.assert_allclose(
            pinned.states, inv.states[::-1], atol=1e-9
        )


def test_pinned_with_target_equal_to_source_matches_source_run():
    bed = mixture_testbed()
    table, cfg = make_table(logistic_spec(T=1000), 30)
    x0 = sample_x0(bed.source, 2, 1)[0]
    src = (bed.uncond, bed.source)
    inv = run_inversion(src, x0, table, cfg, 2)
    a = pinned_reconstruction(inv, src, src, table, cfg, 2)
    b = pinned_reconstruction(inv, src, (bed.uncond, bed.source), table, cfg, 2)
    np.testing.assert_array_equal(a.states, b.states)


def test_pinned_requires_matching_inversion():
    bed = mixture_testbed()
    table, cfg = make_table(logistic_spec(T=1000), 30)
    other_table, other_cfg = make_table(logistic_spec(T=1000), 10)
    x0 = sample_x0(bed.source, 2, 1)[0]
    inv = run_inversion(bed.source, x0, other_table, other_cfg, 2)
    with pytest.raises(ValidationError):
        pinned_reconstruction(inv, bed.source, bed.target, table, cfg, 2)
    rev = run_reverse(bed.source, x0, table, cfg, 2)
    with pytest.raises(ValidationError):
        pinned_reconstruction(rev, bed.source, bed.target, table, cfg, 2)


# ---------------------------------------------------------------------------
# reference ODE

def closed_form_endpoint(spec, x_start, t_from, t_to, mu):
    # the flow conserves (x - sqrt(a)*mu)/sqrt(1-a) for a point mass
    from schedlab import alpha_bar_continuous

    a0 = alpha_bar_continuous(spec, t_from)
    a1 = alpha_bar_continuous(spec, t_to)
    eps = (x_start - math.sqrt(a0) * mu) / math.sqrt(1.0 - a0)
    return math.sqrt(a1) * mu + math.sqrt(1.0 - a1) * eps


def test_ode_pointmass_matches_closed_form_logistic():
    pm = point_mass_model(4)
    mu = np.array(pm.components[0].mean)
    table, _ = make_table(logistic_spec(T=1000), 50)
    res = ode_reference_solve(pm, mu, table, "inversion", n_fine=2000)
    assert not res.start_clamped
    expected = closed_form_endpoint(table.spec, mu, 0.0, table.timesteps[-1], mu)
    np.testing.assert_allclose(res.x_end, expected, atol=1e-8)


def test_ode_pointmass_matches_closed_form_scaled_linear():
    pm = point_mass_model(4)
    mu = np.array(pm.components[0].mean)
    spec = ScheduleSpec(family=Family.SCALED_LINEAR, T=1000)
    table, _ = make_table(spec, 50)
    res = ode_reference_solve(pm, mu, table, "inversion", n_fine=32000)
    assert res.start_clamped and res.t_start == table.timesteps[0]
    expected = closed_form_endpoint(spec, mu, table.timesteps[0], table.timesteps[-1], mu)
    np.testing.assert_allclose(res.x_end, expected, atol=1e-8)


def test_ode_step_doubling_converges():
    pm = point_mass_model(4)
    mu = np.array(pm.components[0].mean)
    table, _ = make_table(logistic_spec(T=1000), 50)
    a = ode_reference_solve(pm, mu, table, "inversion", n_fine=2000)
    b = ode_reference_solve(pm, mu, table, "inversion", n_fine=4000)
    assert float(np.max(np.abs(a.x_end - b.x_end))) < 1e-9


def test_ode_zero_length_span():
    pm = point_mass_model(3)
    x = np.array([1.0, 2.0, 3.0])
    out = ode_solve(pm, x, logistic_spec(T=1000), 500.0, 500.0, 100)
    np.testing.assert_array_equal(out, x)


def test_ode_solve_batch_matches_rows():
    bed = mixture_testbed()
    x = np.stack([sample_x0(bed.source, seed, 1)[0] for seed in range(3)])
    spec = logistic_spec(T=1000)
    batch = ode_solve(bed.source, x, spec, 0.0, 500.0, 20)
    assert batch.shape == (3, 8)
    for i in range(3):
        assert np.array_equal(batch[i], ode_solve(bed.source, x[i], spec, 0.0, 500.0, 20))


def test_ode_reverse_direction_round_trip():
    bed = mixture_testbed()
    table, _ = make_table(logistic_spec(T=1000), 50)
    x0 = sample_x0(bed.source, 31, 1)[0]
    up = ode_reference_solve(bed.source, x0, table, "inversion", n_fine=3000)
    down = ode_reference_solve(bed.source, up.x_end, table, "reverse", n_fine=3000)
    np.testing.assert_allclose(down.x_end, x0, atol=1e-8)


def test_first_step_error_scaled_linear_exceeds_logistic():
    # one-step inversion against the reference flow, averaged over seeds:
    # the near-singular start of the scaled-linear schedule costs accuracy
    bed = mixture_testbed()
    cfg = SamplerConfig(n_steps=50)
    seeds = range(100)
    x0 = np.stack([sample_x0(bed.source, seed, 1)[0] for seed in seeds])

    def mean_first_step_error(spec):
        table = build_table(spec, time_grid(cfg, spec.T))
        inv = run_inversion((bed.uncond, bed.source), x0, table, cfg, seeds)
        t_lo = table.timesteps[0] if inv.start_clamped else 0.0
        oracle = ode_solve(
            bed.source, inv.states[:, 0], spec, t_lo, table.timesteps[1], 200
        )
        return float(np.mean(np.linalg.norm(inv.states[:, 2] - oracle, axis=-1)))

    err_linear = mean_first_step_error(ScheduleSpec(family=Family.SCALED_LINEAR, T=1000))
    err_logistic = mean_first_step_error(logistic_spec(T=1000))
    assert err_linear > err_logistic


def test_reverse_under_target_moves_toward_target_mean():
    # majority over 100 seeds, the edited endpoint's shifted coordinate is
    # nearer the target offset than the source offset
    bed = mixture_testbed()
    table, cfg = make_table(logistic_spec(T=1000), 50)
    shift = bed.edit_direction[1]
    seeds = range(100)
    x0 = np.stack([sample_x0(bed.source, seed, 1)[0] for seed in seeds])
    inv = run_inversion((bed.uncond, bed.source), x0, table, cfg, seeds)
    edited = run_reverse((bed.uncond, bed.target), inv.states[:, -1], table, cfg, seeds)
    coord = edited.states[:, -1, 1]
    wins = int(np.sum(np.abs(coord - shift) < np.abs(coord)))
    assert wins > 50


def test_roundtrip_error_order_near_one():
    # log-log slope of the round-trip L2 error against N sits in the
    # first-order window [0.8, 1.3]
    from schedlab import convergence_order_fit

    bed = mixture_testbed()
    for spec in (logistic_spec(T=1000), ScheduleSpec(family=Family.SCALED_LINEAR, T=1000)):
        points = []
        for n in (25, 50, 100, 200, 400):
            table, cfg = make_table(spec, n)
            seeds = range(8)
            x0 = np.stack([sample_x0(bed.source, seed, 1)[0] for seed in seeds])
            inv = run_inversion((bed.uncond, bed.source), x0, table, cfg, seeds)
            rev = run_reverse((bed.uncond, bed.source), inv.states[:, -1], table, cfg, seeds)
            gaps = rev.states[:, -1] - inv.states[:, 0]
            errs = [float(np.linalg.norm(gap)) for gap in gaps]
            points.append((n, float(np.mean(errs))))
        order, r2 = convergence_order_fit(points)
        assert 0.8 <= order <= 1.3, (spec.family, order)
        assert r2 >= 0.95


# ---------------------------------------------------------------------------
# seed batches

BATCH_SEEDS = (11, 12, 13, 14, 15)


def test_predictors_on_batches_equal_per_row_calls():
    bed = mixture_testbed()
    single = point_mass_model(8)
    x = np.random.default_rng(3).standard_normal((9, 8)) * 3.0
    for a in (1e-4, 0.3, 0.97):
        for model in (bed.source, bed.target, single):
            batch = exact_eps(model, x, a)
            assert batch.shape == x.shape
            for i in range(len(x)):
                assert np.array_equal(batch[i], exact_eps(model, x[i], a))
        batch = guided_eps(bed.uncond, bed.target, x, a, 7.5)
        for i in range(len(x)):
            assert np.array_equal(batch[i], guided_eps(bed.uncond, bed.target, x[i], a, 7.5))


@pytest.mark.parametrize("family", [Family.SCALED_LINEAR, Family.LOGISTIC])
@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_seed_results_do_not_depend_on_batch(family, eta):
    bed = mixture_testbed()
    spec = ScheduleSpec(family=family, T=1000)
    table, cfg = make_table(spec, 20, eta=eta)
    src = (bed.uncond, bed.source)
    tgt = (bed.uncond, bed.target)

    def run(seeds):
        x0 = np.stack([sample_x0(bed.source, s, 1)[0] for s in seeds])
        inv = run_inversion(src, x0, table, cfg, seeds)
        rev = run_reverse(src, inv.states[:, -1], table, cfg, seeds)
        pinned = pinned_reconstruction(inv, src, tgt, table, cfg, seeds)
        return {s: (inv.row(i), rev.row(i), pinned.row(i)) for i, s in enumerate(seeds)}

    batch = run(BATCH_SEEDS)
    shifted = run(BATCH_SEEDS[2:] + BATCH_SEEDS[:2])
    for seed in (BATCH_SEEDS[0], BATCH_SEEDS[3]):
        alone = run((seed,))[seed]
        for traj, in_batch, moved in zip(alone, batch[seed], shifted[seed]):
            assert traj.start_clamped == (family is Family.SCALED_LINEAR)
            assert np.array_equal(traj.states, in_batch.states)
            assert np.array_equal(traj.states, moved.states)
            assert np.array_equal(traj.eps_hats, in_batch.eps_hats)


def test_single_state_runs_match_one_seed_batches():
    bed = mixture_testbed()
    table, cfg = make_table(ScheduleSpec(family=Family.COSINE, T=1000), 15, eta=0.5)
    x0 = sample_x0(bed.source, 4, 1)
    src = (bed.uncond, bed.source)
    inv = run_inversion(src, x0[0], table, cfg, 4)
    inv_b = run_inversion(src, x0, table, cfg, [4])
    rev = run_reverse(src, inv.states[-1], table, cfg, 4)
    rev_b = run_reverse(src, inv_b.states[:, -1], table, cfg, [4])
    assert inv.states.shape == (16, 8) and inv_b.states.shape == (1, 16, 8)
    assert np.array_equal(inv.states, inv_b.states[0])
    assert np.array_equal(rev.states, rev_b.states[0])


def test_bad_batch_shapes_rejected():
    bed = mixture_testbed()
    table, cfg = make_table(logistic_spec(T=1000), 10)
    wide = np.zeros((3, 9))
    deep = np.zeros((2, 3, 8))
    for bad in (wide, deep):
        with pytest.raises(ValidationError):
            exact_eps(bed.source, bad, 0.5)
        with pytest.raises(ValidationError):
            guided_eps(bed.uncond, bed.target, bad, 0.5, 7.5)
        with pytest.raises(ValidationError):
            run_inversion(bed.source, bad, table, cfg, [0, 1, 2])
        with pytest.raises(ValidationError):
            run_reverse(bed.source, bad, table, cfg, [0, 1, 2])
    with pytest.raises(ValidationError):
        run_reverse(bed.source, np.zeros((3, 8)), table, cfg, [0, 1])


# ---------------------------------------------------------------------------
# dumps

def test_trajectory_binary_roundtrip(tmp_path):
    bed = mixture_testbed()
    table, cfg = make_table(logistic_spec(T=1000), 12)
    x0 = sample_x0(bed.source, 0, 1)[0]
    inv = run_inversion(bed.source, x0, table, cfg, 0)
    path = tmp_path / "traj.bin"
    write_trajectory_bin(inv, path)
    data = read_trajectory_bin(path)
    np.testing.assert_array_equal(data, inv.states)
    raw = path.read_bytes()
    assert raw[:8] == b"SCHDTRAJ"
    assert int.from_bytes(raw[8:16], "little") == 8  # dim
    assert int.from_bytes(raw[16:24], "little") == 13  # records


def test_trajectory_csv_header(tmp_path):
    bed = mixture_testbed()
    table, cfg = make_table(logistic_spec(T=1000), 5)
    x0 = sample_x0(bed.source, 0, 1)[0]
    inv = run_inversion(bed.source, x0, table, cfg, 0)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(inv, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,alpha_bar,x_norm,eps_norm"
    assert len(lines) == 7

"""Forward closed form, DDIM reverse/inversion steps, and trajectory loops.

Step algebra (all alphas are cumulative alpha_bar values):

    reverse  (t -> prev):  pred_x0 = (x_t - sqrt(1-a_t) eps) / sqrt(a_t)
                           x_prev  = sqrt(a_prev) pred_x0
                                     + sqrt(1 - a_prev - sigma^2) eps + sigma z
    inversion (prev -> t): x_t = sqrt(a_t/a_prev) x_prev
                                 + sqrt(a_t) (sqrt(1/a_t - 1) - sqrt(1/a_prev - 1)) eps

For a fixed eps the two updates are exact mutual inverses (eta = 0).  During
an inversion run the predictor is evaluated at the earlier state and earlier
time, which is the local linearization the deterministic inverse relies on.

Timestep grid convention: t_i = i*(T/N) + step_offset for i = 0..N-1 (with
T=1000, N=50, offset=1 the final step lands at 981).  Schedules whose
alpha_bar(0) is exactly 1 have no usable predictor at t=0; for those the
run anchors the clean state at the grid's first timestep instead
(``start_clamped``), and the reverse run mirrors that convention at its final
step.  The logistic family keeps alpha_bar(0) < 1, so both endpoints are
genuine steps there.

Batch layout: every run takes the states of S seeds at once, an (S, dim)
array, and records (S, n_steps + 1, dim) states; a single (dim,) state gives
(n_steps + 1, dim) records.  Each seed owns one Philox stream, keyed by its
seed, for the eta > 0 noise, and only elementwise operations and reductions
along the coordinate axis mix values, so a seed's records are bitwise the
same alone, in any batch and at any batch position.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .models import AnalyticModel, data_variance, exact_eps, guided_eps
from .schedules import ScheduleTable, alpha_bar_and_derivative, eval_alpha_bar

ModelPair = tuple[AnalyticModel, AnalyticModel | None]


@dataclasses.dataclass(frozen=True)
class SamplerConfig:
    """Knobs for one inversion/reverse run.

    ``eta`` scales the DDPM posterior standard deviation (0 keeps the run
    deterministic).  ``w_invert``/``w_reverse`` are the guidance weights for
    the two directions.  ``input_scale_b`` multiplies the clean input;
    ``variance_normalize`` rescales predictor inputs to unit variance.
    """

    n_steps: int
    eta: float = 0.0
    step_offset: int = 1
    w_invert: float = 3.5
    w_reverse: float = 7.5
    input_scale_b: float = 1.0
    variance_normalize: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.n_steps, int) or self.n_steps < 1:
            raise ValidationError(f"n_steps must be a positive integer, got {self.n_steps}")
        if self.eta < 0.0:
            raise ValidationError(f"eta must be >= 0, got {self.eta}")
        if not isinstance(self.step_offset, int) or self.step_offset < 0:
            raise ValidationError(f"step_offset must be an integer >= 0, got {self.step_offset}")
        if not self.input_scale_b > 0.0:
            raise ValidationError(f"input_scale_b must be > 0, got {self.input_scale_b}")


def time_grid(config: SamplerConfig, T: int) -> tuple[float, ...]:
    """Grid t_i = i*(T/N) + step_offset, i = 0..N-1; every t_i must be <= T."""
    if config.n_steps > T:
        raise ValidationError(f"n_steps={config.n_steps} exceeds T={T}")
    step = T / config.n_steps
    ts = tuple(i * step + config.step_offset for i in range(config.n_steps))
    if ts[-1] > T:
        raise ValidationError(
            f"grid exceeds T: last timestep {ts[-1]} > {T} (step_offset too large)"
        )
    return ts


@dataclasses.dataclass
class Trajectory:
    """Ordered (t, state, predicted noise) records of one run over S seeds.

    Holds n_steps + 1 records per seed including the t=0 anchor: ``states``
    and ``eps_hats`` are (S, n_steps + 1, dim), or (n_steps + 1, dim) for a
    run started from a single (dim,) state.  Timesteps increase for
    inversion runs and decrease for reverse runs.  ``alpha_bars`` are the
    per-record conventional noise levels (the anchor uses the clamped level
    when ``start_clamped``).
    """

    direction: str  # "inversion" | "reverse"
    timesteps: tuple[float, ...]
    alpha_bars: tuple[float, ...]
    states: np.ndarray
    eps_hats: np.ndarray
    config: SamplerConfig
    start_clamped: bool

    def row(self, i: int) -> "Trajectory":
        """Seed i of a batched run as a single-seed trajectory (views, no copy)."""
        return dataclasses.replace(self, states=self.states[i], eps_hats=self.eps_hats[i])


# ---------------------------------------------------------------------------
# single steps

def forward_closed_form(
    x0: Sequence[float],
    eps: Sequence[float],
    alpha_bar: float,
    b: float = 1.0,
    normalize: bool = False,
    sigma0_sq: float = 1.0,
) -> np.ndarray:
    """x_t = sqrt(a) * b * x0 + sqrt(1-a) * eps, optionally variance-normalised.

    With ``normalize`` the result is divided by sqrt(a*b^2*sigma0_sq + 1-a),
    which restores unit variance when the data variance is sigma0_sq.
    """
    if not b > 0.0:
        raise ValidationError(f"input scale b must be > 0, got {b}")
    if not 0.0 < alpha_bar <= 1.0:
        raise DomainError(f"alpha_bar must be in (0, 1], got {alpha_bar}")
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise ValidationError(f"shape mismatch: {x0.shape} vs {eps.shape}")
    x = math.sqrt(alpha_bar) * b * x0 + math.sqrt(1.0 - alpha_bar) * eps
    if normalize:
        x = x / _state_std(alpha_bar, b, sigma0_sq)
    return x


def _state_std(alpha_bar: float, b: float, sigma0_sq: float) -> float:
    """sqrt(a*b^2*sigma0_sq + 1-a): the std of x_t for data of variance
    sigma0_sq scaled by b, which variance normalization divides out."""
    return math.sqrt(alpha_bar * b * b * sigma0_sq + 1.0 - alpha_bar)


def ddpm_sigma(alpha_bar_t: float, alpha_bar_prev: float) -> float:
    """Posterior std sqrt((1-a_prev)/(1-a_t)) * sqrt(1 - a_t/a_prev)."""
    return math.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar_t)) * math.sqrt(
        1.0 - alpha_bar_t / alpha_bar_prev
    )


def ddim_reverse_step(
    x_t: Sequence[float],
    eps_hat: Sequence[float],
    alpha_bar_t: float,
    alpha_bar_prev: float,
    eta: float = 0.0,
    noise: Sequence[float] | None = None,
) -> np.ndarray:
    """One generation step from noise level a_t down to a_prev.

    ``eta`` spans the deterministic-to-DDPM family: sigma = eta * sigma_ddpm.
    a_prev may be exactly 1 at the final step (result collapses to pred_x0).
    """
    if not 0.0 < alpha_bar_t < 1.0:
        raise DomainError(f"alpha_bar_t must be in (0, 1), got {alpha_bar_t}")
    if not 0.0 < alpha_bar_prev <= 1.0:
        raise DomainError(f"alpha_bar_prev must be in (0, 1], got {alpha_bar_prev}")
    x_t = np.asarray(x_t, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)

    sigma = 0.0
    if eta > 0.0:
        if alpha_bar_prev < alpha_bar_t:
            raise DomainError("stochastic step needs alpha_bar_prev >= alpha_bar_t")
        sigma = eta * ddpm_sigma(alpha_bar_t, alpha_bar_prev)
    rad = 1.0 - alpha_bar_prev - sigma * sigma
    if rad < -1e-12:
        raise DomainError(
            f"eta={eta} invalid for this step pair: 1 - a_prev - sigma^2 = {rad}"
        )
    rad = max(rad, 0.0)

    pred_x0 = (x_t - math.sqrt(1.0 - alpha_bar_t) * eps_hat) / math.sqrt(alpha_bar_t)
    out = math.sqrt(alpha_bar_prev) * pred_x0 + math.sqrt(rad) * eps_hat
    if sigma > 0.0:
        if noise is None:
            raise ValidationError("eta > 0 requires a noise vector")
        out = out + sigma * np.asarray(noise, dtype=float)
    return out


def ddim_invert_step(
    x_prev: Sequence[float],
    eps_hat: Sequence[float],
    alpha_bar_prev: float,
    alpha_bar_t: float,
) -> np.ndarray:
    """One inversion step from noise level a_prev up to a_t.

    Exact algebraic inverse of the eta=0 reverse step when the same eps_hat
    is supplied.  a_prev may be exactly 1 at the first step.
    """
    if not 0.0 < alpha_bar_t < 1.0:
        raise DomainError(f"alpha_bar_t must be in (0, 1), got {alpha_bar_t}")
    if not 0.0 < alpha_bar_prev <= 1.0:
        raise DomainError(f"alpha_bar_prev must be in (0, 1], got {alpha_bar_prev}")
    x_prev = np.asarray(x_prev, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)
    scale = math.sqrt(alpha_bar_t / alpha_bar_prev)
    drift = math.sqrt(alpha_bar_t) * (
        math.sqrt(1.0 / alpha_bar_t - 1.0) - math.sqrt(1.0 / alpha_bar_prev - 1.0)
    )
    return scale * x_prev + drift * eps_hat


# ---------------------------------------------------------------------------
# trajectory runs

def _as_pair(models: AnalyticModel | ModelPair) -> ModelPair:
    if isinstance(models, AnalyticModel):
        return (models, None)
    uncond, cond = models
    return (uncond, cond)


def _predict(
    models: ModelPair,
    x: np.ndarray,
    alpha_bar: float,
    w: float,
    config: SamplerConfig,
    sigma0_sq: float,
) -> np.ndarray:
    uncond, cond = models
    if config.variance_normalize:
        x = x / _state_std(alpha_bar, config.input_scale_b, sigma0_sq)
    if cond is None:
        return exact_eps(uncond, x, alpha_bar)
    return guided_eps(uncond, cond, x, alpha_bar, w)


def _step_plan(
    table: ScheduleTable, config: SamplerConfig
) -> tuple[tuple[float, ...], list[tuple[float, float]], bool]:
    """Grid, the inversion run's step plan, and whether t=0 is clamped.

    The plan holds one (a_from, a_to) pair of noise levels per step, from
    the t=0 anchor up: the predictor is evaluated at a_from and the state
    moves to a_to.  Reverse and pinned runs walk the same pairs backwards
    with the ends swapped.  For a schedule singular at t=0 the anchor takes
    the grid's first level, so its pair is (a, a): a step that leaves the
    noise level unchanged is the identity and draws no noise.
    """
    grid = time_grid(config, table.spec.T)
    if grid != table.timesteps:
        raise ValidationError(
            "table grid does not match sampler config grid "
            f"(table has {len(table.timesteps)} steps from {table.timesteps[0]})"
        )
    a0 = eval_alpha_bar(table.spec, 0.0)
    clamped = a0 >= 1.0
    levels = (table.alpha_bar[0] if clamped else a0,) + table.alpha_bar
    return grid, list(zip(levels, levels[1:])), clamped


def _backwards(plan: list[tuple[float, float]]) -> list[tuple[float, float]]:
    return [(a_to, a_from) for a_from, a_to in reversed(plan)]


def _batch(x: Sequence[float], dim: int, what: str) -> tuple[np.ndarray, bool]:
    """(S, dim) view of a (dim,) or (S, dim) input, and whether it was single."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != dim or arr.size == 0:
        raise ValidationError(f"{what} shape {arr.shape} is neither ({dim},) nor (S, {dim})")
    return arr.reshape(-1, dim), arr.ndim == 1


def _noise(seed: int | Sequence[int], shape: tuple[int, int, int], eta: float):
    """Per-seed Philox normals, (S, n_steps, dim); None when eta is 0.

    Row s is the first n_steps * dim normals of seed s's own stream, the same
    numbers one (dim,) draw per step gives.
    """
    seeds = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    if len(seeds) != shape[0]:
        raise ValidationError(f"{len(seeds)} seeds for a batch of {shape[0]} states")
    if eta == 0.0:
        return None
    streams = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    return np.stack([rng.standard_normal(shape[1:]) for rng in streams])


def _reverse(x, eps_hat, a_from, a_to, eta, noise):
    if a_from == a_to:
        return x
    return ddim_reverse_step(x, eps_hat, a_from, a_to, eta, noise)


def _walk(direction, grid, plan, x, predict, step, single, config, clamped) -> Trajectory:
    """Walk ``plan`` from the (S, dim) states x: predict at each step's a_from,
    then ``step(k, x, eps_hat, a_from, a_to)``, and predict once more at the end.
    Raises DomainError if any recorded state is NaN or infinite."""
    n = len(plan)
    states = np.empty((x.shape[0], n + 1, x.shape[1]))
    eps_hats = np.empty_like(states)
    states[:, 0] = x
    for k, (a_from, a_to) in enumerate(plan):
        eps_hats[:, k] = predict(states[:, k], a_from)
        states[:, k + 1] = step(k, states[:, k], eps_hats[:, k], a_from, a_to)
    eps_hats[:, n] = predict(states[:, n], plan[-1][1])
    if not np.isfinite(states).all():
        raise DomainError(f"{direction} run left a non-finite state")
    if single:
        states, eps_hats = states[0], eps_hats[0]
    times = (0.0,) + grid if direction == "inversion" else tuple(reversed(grid)) + (0.0,)
    levels = tuple(a_from for a_from, _ in plan) + (plan[-1][1],)
    return Trajectory(direction, times, levels, states, eps_hats, config, clamped)


def run_inversion(
    models: AnalyticModel | ModelPair,
    x0: Sequence[float],
    table: ScheduleTable,
    config: SamplerConfig,
    seed: int | Sequence[int] = 0,
) -> Trajectory:
    """Deterministic inversion of b*x0, (dim,) or (S, dim), up the grid at w_invert.

    The predictor for the step leaving t_{j-1} is evaluated at the stored
    state and noise level of t_{j-1}.  ``seed`` (one per state) is accepted
    for interface symmetry; inversion itself draws no noise.
    """
    del seed
    models = _as_pair(models)
    grid, plan, clamped = _step_plan(table, config)
    x, single = _batch(x0, models[0].dim, "x0")
    sigma0_sq = data_variance(models[0])

    def predict(xs, a):
        return _predict(models, xs, a, config.w_invert, config, sigma0_sq)

    def step(k, xs, eps_hat, a_from, a_to):
        return xs if a_from == a_to else ddim_invert_step(xs, eps_hat, a_from, a_to)

    x = config.input_scale_b * x
    return _walk("inversion", grid, plan, x, predict, step, single, config, clamped)


def run_reverse(
    models: AnalyticModel | ModelPair,
    x_T: Sequence[float],
    table: ScheduleTable,
    config: SamplerConfig,
    seed: int | Sequence[int] = 0,
) -> Trajectory:
    """Generation run from the grid's last timestep down to the t=0 anchor.

    ``x_T`` is (dim,) or (S, dim) with one seed per state.  Deterministic for
    eta=0; otherwise each state's noise comes from the Philox stream keyed by
    its seed.  The final step mirrors the inversion start convention.
    """
    models = _as_pair(models)
    grid, plan, clamped = _step_plan(table, config)
    x, single = _batch(x_T, models[0].dim, "x_T")
    noise = _noise(seed, (x.shape[0], config.n_steps, x.shape[1]), config.eta)
    sigma0_sq = data_variance(models[0])

    def predict(xs, a):
        return _predict(models, xs, a, config.w_reverse, config, sigma0_sq)

    def step(k, xs, eps_hat, a_from, a_to):
        z = None if noise is None else noise[:, k]
        return _reverse(xs, eps_hat, a_from, a_to, config.eta, z)

    return _walk("reverse", grid, _backwards(plan), x, predict, step, single, config, clamped)


def pinned_reconstruction(
    inversion: Trajectory,
    source_models: AnalyticModel | ModelPair,
    target_models: AnalyticModel | ModelPair,
    table: ScheduleTable,
    config: SamplerConfig,
    seed: int | Sequence[int] = 0,
) -> Trajectory:
    """Reverse pass pinned to the stored inversion trajectory (single or batched).

    It walks the reverse run's steps.  At each step the source-condition
    reverse prediction is made from the stored inversion state, and the
    residual against the stored previous state is added to the running
    (target-condition) state.  With target == source the residuals cancel
    exactly and the run reproduces the inversion path; under a different
    target the corrections are carried unchanged.
    """
    source_models = _as_pair(source_models)
    target_models = _as_pair(target_models)
    grid, plan, clamped = _step_plan(table, config)
    n = config.n_steps
    if inversion.direction != "inversion":
        raise ValidationError("pinned reconstruction needs an inversion trajectory")
    stored = inversion.states.reshape(-1, *inversion.states.shape[-2:])
    if stored.shape[1] != n + 1 or inversion.timesteps != (0.0,) + grid:
        raise ValidationError("inversion trajectory does not cover the sampler grid")
    noise = _noise(seed, (stored.shape[0], n, stored.shape[2]), config.eta)
    sigma0_src = data_variance(source_models[0])
    sigma0_tgt = data_variance(target_models[0])

    def predict(xs, a):
        return _predict(target_models, xs, a, config.w_reverse, config, sigma0_tgt)

    def step(k, xs, eps_hat, a_from, a_to):
        # stored[:, n - k] sits where the running target branch xs is
        z = None if noise is None else noise[:, k]
        src = stored[:, n - k]
        eps_src = None
        if a_from != a_to:
            eps_src = _predict(source_models, src, a_from, config.w_reverse, config, sigma0_src)
        correction = stored[:, n - k - 1] - _reverse(src, eps_src, a_from, a_to, config.eta, z)
        return _reverse(xs, eps_hat, a_from, a_to, config.eta, z) + correction

    single = inversion.states.ndim == 2
    plan = _backwards(plan)
    return _walk("reverse", grid, plan, stored[:, n], predict, step, single, config, clamped)


# ---------------------------------------------------------------------------
# reference ODE integrator (internal oracle)

@dataclasses.dataclass(frozen=True)
class OdeResult:
    x_end: np.ndarray
    t_start: float
    t_end: float
    n_fine: int
    start_clamped: bool


def ode_velocity(model: AnalyticModel, spec, t: float, x: np.ndarray) -> np.ndarray:
    """dx/dt of the deterministic flow at a (dim,) or (S, dim) state x.

    The exact score is substituted:
    dx/dt = 0.5 * dlog(a)/dt * (x - eps_hat(x, a) / sqrt(1 - a)), evaluated on
    the smooth alpha_bar form.
    """
    a, da = alpha_bar_and_derivative(spec, t)
    dlog = da / a
    eps = exact_eps(model, x, a)
    return 0.5 * dlog * (x - eps / math.sqrt(1.0 - a))


def ode_solve(
    model: AnalyticModel,
    x_start: Sequence[float],
    spec,
    t_from: float,
    t_to: float,
    n_fine: int,
) -> np.ndarray:
    """Classical fixed-step RK4 integration of the flow from t_from to t_to.

    ``x_start`` is (dim,) or (S, dim); each row is integrated on its own.
    """
    if n_fine < 1:
        raise ValidationError(f"n_fine must be >= 1, got {n_fine}")
    x = np.array(x_start, dtype=float)
    if t_from == t_to:
        return x
    h = (t_to - t_from) / n_fine
    t = t_from
    for _ in range(n_fine):
        k1 = ode_velocity(model, spec, t, x)
        k2 = ode_velocity(model, spec, t + 0.5 * h, x + 0.5 * h * k1)
        k3 = ode_velocity(model, spec, t + 0.5 * h, x + 0.5 * h * k2)
        k4 = ode_velocity(model, spec, t + h, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x


def ode_reference_solve(
    model: AnalyticModel,
    x_start: Sequence[float],
    table: ScheduleTable,
    direction: str = "inversion",
    n_fine: int = 1000,
) -> OdeResult:
    """High-accuracy reference solve over the table's span.

    For schedules singular at t=0 the span is clamped to start at the grid's
    first positive timestep, reported via ``start_clamped``.  A zero-length
    span returns x_start unchanged.
    """
    if direction not in ("inversion", "reverse"):
        raise ValidationError(f"direction must be inversion|reverse, got {direction!r}")
    spec = table.spec
    a0 = eval_alpha_bar(spec, 0.0)
    clamped = a0 >= 1.0
    lo = table.timesteps[0] if clamped else 0.0
    hi = table.timesteps[-1]
    t_from, t_to = (lo, hi) if direction == "inversion" else (hi, lo)
    x_end = ode_solve(model, x_start, spec, t_from, t_to, n_fine)
    return OdeResult(
        x_end=x_end, t_start=t_from, t_end=t_to, n_fine=n_fine, start_clamped=clamped
    )


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

Batch layout: a run walks C cells x S seeds at once.  A cell is one
(schedule table, sampler config) pair; the cells of a sweep share models and
seeds and differ in n_steps, schedule parameters, input scale or guidance.
``step_plan`` builds every cell's noise levels, step coefficients and
predictor constants once per run, walk-major: at level k the active cells
are a prefix of the cells (ordered by n_steps, largest first), so the walk
steps one (C_k, S, dim) view per level and a shorter cell simply drops out.
``walk_inversion``, ``walk_reverse`` and ``walk_pinned`` walk a plan;
``run_inversion``, ``run_reverse`` and ``pinned_reconstruction`` are the
one-cell case, taking (S, dim) states (or a single (dim,) state) and
recording (S, n_steps + 1, dim) trajectories.  Each seed owns one Philox
stream, keyed by its seed, for the eta > 0 noise, and only elementwise
operations and reductions along the coordinate axis mix values, so a seed's
records are bitwise the same alone, in any batch, at any batch position and
alone or in a sweep.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ValidationError
from .models import (
    AnalyticModel,
    LevelConstants,
    data_variance,
    exact_eps,
    guided_eps,
    level_constants,
)
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


def _state_std(alpha_bar, b, sigma0_sq):
    """sqrt(a*b^2*sigma0_sq + 1-a): the std of x_t for data of variance
    sigma0_sq scaled by b, which variance normalization divides out.
    Floats or arrays."""
    return np.sqrt(alpha_bar * b * b * sigma0_sq + 1.0 - alpha_bar)


def _check_levels(a, name: str, one_ok: bool) -> None:
    a = np.asarray(a)
    ok = (a > 0.0) & ((a <= 1.0) if one_ok else (a < 1.0))
    if not ok.all():
        raise DomainError(f"{name} must be in (0, {'1]' if one_ok else '1)'}, got {a[~ok].flat[0]}")


def ddpm_sigma(alpha_bar_t, alpha_bar_prev):
    """Posterior std sqrt((1-a_prev)/(1-a_t)) * sqrt(1 - a_t/a_prev); floats or arrays."""
    return np.sqrt((1.0 - alpha_bar_prev) / (1.0 - alpha_bar_t)) * np.sqrt(
        1.0 - alpha_bar_t / alpha_bar_prev
    )


def invert_coefficients(alpha_bar_prev, alpha_bar_t):
    """(scale, drift) of the inversion step a_prev -> a_t, whose result is
    scale * x_prev + drift * eps_hat.  Floats or arrays of step pairs."""
    _check_levels(alpha_bar_t, "alpha_bar_t", one_ok=False)
    _check_levels(alpha_bar_prev, "alpha_bar_prev", one_ok=True)
    scale = np.sqrt(alpha_bar_t / alpha_bar_prev)
    drift = np.sqrt(alpha_bar_t) * (
        np.sqrt(1.0 / alpha_bar_t - 1.0) - np.sqrt(1.0 / alpha_bar_prev - 1.0)
    )
    return scale, drift


def reverse_coefficients(alpha_bar_t, alpha_bar_prev, eta: float):
    """(sqrt(1-a_t), sqrt(a_t), sqrt(a_prev), sqrt(1-a_prev-sigma^2), sigma)
    of the generation step a_t -> a_prev with sigma = eta * sigma_ddpm.
    Floats or arrays of step pairs; ``_reverse_apply`` uses them."""
    _check_levels(alpha_bar_t, "alpha_bar_t", one_ok=False)
    _check_levels(alpha_bar_prev, "alpha_bar_prev", one_ok=True)
    sigma = 0.0
    if eta > 0.0:
        if np.any(alpha_bar_prev < alpha_bar_t):
            raise DomainError("stochastic step needs alpha_bar_prev >= alpha_bar_t")
        sigma = eta * ddpm_sigma(alpha_bar_t, alpha_bar_prev)
    rad = 1.0 - alpha_bar_prev - sigma * sigma
    if np.any(rad < -1e-12):
        raise DomainError(
            f"eta={eta} invalid for this step pair: 1 - a_prev - sigma^2 = {np.min(rad)}"
        )
    rad = np.where(rad < 0.0, 0.0, rad)
    return (
        np.sqrt(1.0 - alpha_bar_t),
        np.sqrt(alpha_bar_t),
        np.sqrt(alpha_bar_prev),
        np.sqrt(rad),
        sigma,
    )


def _reverse_apply(coefficients, x_t, eps_hat, noise):
    c_t, sqrt_t, sqrt_prev, c_prev, sigma = coefficients
    pred_x0 = (x_t - c_t * eps_hat) / sqrt_t
    out = sqrt_prev * pred_x0 + c_prev * eps_hat
    if noise is not None:
        out = out + sigma * noise
    return out


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
    coefficients = reverse_coefficients(alpha_bar_t, alpha_bar_prev, eta)
    if coefficients[-1] > 0.0:
        if noise is None:
            raise ValidationError("eta > 0 requires a noise vector")
        noise = np.asarray(noise, dtype=float)
    else:
        noise = None
    x_t = np.asarray(x_t, dtype=float)
    return _reverse_apply(coefficients, x_t, np.asarray(eps_hat, dtype=float), noise)


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
    scale, drift = invert_coefficients(alpha_bar_prev, alpha_bar_t)
    return scale * np.asarray(x_prev, dtype=float) + drift * np.asarray(eps_hat, dtype=float)


# ---------------------------------------------------------------------------
# the step plan: every cell of a run walked as one batch

class StepPlan(NamedTuple):
    """Noise levels, step coefficients and predictor constants of C cells.

    A cell is one (table, sampler config) pair; all cells of a plan run the
    same seeds through the same models.  Cells are ordered by ``n_steps``,
    largest first (``order[i]`` is the caller's index of cell i).  Level 0
    of a cell is its t=0 anchor and level k its k-th grid point.

    Arrays over levels are walk-major: block k (``blocks[k]``) holds level k
    of cells 0..counts[k]-1, the cells with n_steps >= k, so a block is a
    prefix of the cells and a shorter cell drops out of the later blocks.
    Row r of block k > 0 also holds its cell's step between levels k-1 and
    k: the ``invert`` and ``reverse`` coefficients, shaped (L, 1, 1) to
    broadcast over a (C_k, S, dim) state block, and whether the step is the
    identity (equal levels, as at a clamped anchor).
    """

    cells: tuple[tuple[ScheduleTable, SamplerConfig], ...]
    order: tuple[int, ...]
    n_steps: np.ndarray  # (C,)
    clamped: tuple[bool, ...]
    counts: tuple[int, ...]
    blocks: tuple[slice, ...]
    alpha_bars: np.ndarray  # (L,)
    identity: np.ndarray  # (L, 1, 1) bool
    has_identity: tuple[bool, ...]  # per block
    invert: tuple[np.ndarray, ...]  # see invert_coefficients
    reverse: tuple[np.ndarray, ...]  # see reverse_coefficients
    constants: dict[int, LevelConstants]  # id(model) -> its constants at every level

    def cell_array(self, field: str) -> np.ndarray:
        """One sampler config field per cell, as a (C, 1, 1) array."""
        return np.array([getattr(config, field) for _, config in self.cells])[:, None, None]

    def rows(self, i: int) -> np.ndarray:
        """Walk-major rows of cell i's levels 0..n_steps."""
        return np.array([self.blocks[k].start + i for k in range(self.n_steps[i] + 1)])

    def top_rows(self) -> list[int]:
        """Walk-major row of each cell's last level."""
        return [self.blocks[n].start + i for i, n in enumerate(self.n_steps)]


def step_plan(
    cells: Sequence[tuple[ScheduleTable, SamplerConfig]], models: Sequence[AnalyticModel]
) -> StepPlan:
    """The plan of ``cells`` with the predictor constants of ``models``.

    Each table must sit on its config's grid, and all cells share ``eta``
    and ``variance_normalize``.  Every level must lie in (0, 1).  A
    schedule singular at t=0 anchors a cell at its first grid level
    instead, so its grid must start past t=0.
    """
    if not cells:
        raise ValidationError("a step plan needs at least one cell")
    first = cells[0][1]
    order = sorted(range(len(cells)), key=lambda i: -cells[i][1].n_steps)
    cells = tuple(cells[i] for i in order)
    levels, clamped = [], []
    for table, config in cells:
        if (config.eta, config.variance_normalize) != (first.eta, first.variance_normalize):
            raise ValidationError("cells of one plan must share eta and variance_normalize")
        grid = time_grid(config, table.spec.T)
        if grid != table.timesteps:
            raise ValidationError(
                "table grid does not match sampler config grid "
                f"(table has {len(table.timesteps)} steps from {table.timesteps[0]})"
            )
        a0 = eval_alpha_bar(table.spec, 0.0)
        if a0 >= 1.0 and grid[0] == 0.0:
            raise ValidationError(
                f"config.sampler.step_offset={config.step_offset} puts the first grid point "
                f"at t=0, where alpha_bar={a0} leaves no predictor to anchor the run on"
            )
        clamped.append(a0 >= 1.0)
        levels.append((table.alpha_bar[0] if a0 >= 1.0 else a0,) + table.alpha_bar)
    n = np.array([config.n_steps for _, config in cells])
    counts = tuple(int(np.sum(n >= k)) for k in range(n[0] + 1))
    ends = np.cumsum(counts).tolist()
    blocks = tuple(slice(end - count, end) for end, count in zip(ends, counts))
    alpha_bars = np.array([levels[i][k] for k, count in enumerate(counts) for i in range(count)])
    below = alpha_bars.copy()  # block 0 has no step; its (a, a) pairs go unused
    for k in range(1, len(counts)):
        below[blocks[k]] = alpha_bars[blocks[k - 1]][: counts[k]]
    identity = (alpha_bars == below)[:, None, None]
    # the predictor's level check comes first, as in a walk
    constants = {id(m): level_constants(m, alpha_bars) for m in models}
    return StepPlan(
        cells=cells,
        order=tuple(order),
        n_steps=n,
        clamped=tuple(clamped),
        counts=counts,
        blocks=blocks,
        alpha_bars=alpha_bars,
        identity=identity,
        has_identity=tuple(bool(identity[blk].any()) for blk in blocks),
        invert=tuple(c[:, None, None] for c in invert_coefficients(below, alpha_bars)),
        reverse=tuple(
            np.broadcast_to(c, alpha_bars.shape)[:, None, None]
            for c in reverse_coefficients(alpha_bars, below, first.eta)
        ),
        constants=constants,
    )


class Walk(NamedTuple):
    """The records of one run over every cell of ``plan``: the states and,
    if kept, the predictions made at them, (L, S, dim), walk-major like the
    plan's levels."""

    plan: StepPlan
    direction: str  # "inversion" | "reverse"
    states: np.ndarray
    eps_hats: np.ndarray | None

    def trajectory(self, single: bool = False) -> Trajectory:
        """The walk of a one-cell plan that kept its predictions as a
        trajectory (views, no copy); ``single`` drops the seed axis of a
        one-seed run."""
        if len(self.plan.cells) != 1 or self.eps_hats is None:
            raise ValidationError("a trajectory needs a one-cell walk that kept its predictions")
        table, config = self.plan.cells[0]
        by_time = slice(None, None, 1 if self.direction == "inversion" else -1)

        def seeds_first(records):  # (n_steps + 1, S, dim) by level -> (S, n_steps + 1, dim) by time
            records = records[by_time].swapaxes(0, 1)
            return records[0] if single else records

        return Trajectory(
            self.direction,
            ((0.0,) + table.timesteps)[by_time],
            tuple(self.plan.alpha_bars[by_time].tolist()),
            seeds_first(self.states),
            seeds_first(self.eps_hats),
            config,
            self.plan.clamped[0],
        )


def _as_pair(models: AnalyticModel | ModelPair) -> ModelPair:
    if isinstance(models, AnalyticModel):
        return (models, None)
    uncond, cond = models
    return (uncond, cond)


def _batch(x: Sequence[float], dim: int, what: str) -> tuple[np.ndarray, bool]:
    """(S, dim) view of a (dim,) or (S, dim) input, and whether it was single."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != dim or arr.size == 0:
        raise ValidationError(f"{what} shape {arr.shape} is neither ({dim},) nor (S, {dim})")
    return arr.reshape(-1, dim), arr.ndim == 1


def _noise(plan: StepPlan, seed: int | Sequence[int], shape: tuple[int, int]):
    """Per-seed Philox normals for the longest cell, (S, n_steps, dim); None
    when eta is 0.  ``shape`` is the (S, dim) of the states.

    Row s is the first n_steps * dim normals of seed s's own stream, the same
    numbers one (dim,) draw per step gives, so a cell with fewer steps takes
    the leading rows of the longest cell's draw.
    """
    seeds = (seed,) if isinstance(seed, (int, np.integer)) else tuple(seed)
    if len(seeds) != shape[0]:
        raise ValidationError(f"{len(seeds)} seeds for a batch of {shape[0]} states")
    if plan.cells[0][1].eta == 0.0:
        return None
    streams = [np.random.Generator(np.random.Philox(key=int(s))) for s in seeds]
    return np.stack([rng.standard_normal((int(plan.n_steps[0]), shape[1])) for rng in streams])


def _step_noise(plan: StepPlan, noise, k: int, n: int):
    """The noise of the step down from level k for the first n cells, (n, S, dim)."""
    if noise is None:
        return None
    # cell i's step down from level k is step n_steps[i] - k of its own run
    return noise[:, plan.n_steps[:n] - k].swapaxes(0, 1)


def _predictor(plan: StepPlan, models: ModelPair, w_field: str):
    """predict(k, x): the prediction at level block k for its (C_k, S, dim) states."""
    uncond, cond = models
    try:
        consts = [plan.constants[id(m)] for m in models if m is not None]
    except KeyError:
        raise ValidationError("the step plan holds no constants for this model") from None
    w = plan.cell_array(w_field)
    divisor = None
    if plan.cells[0][1].variance_normalize:
        b = np.concatenate([plan.cell_array("input_scale_b")[:count] for count in plan.counts])
        divisor = _state_std(plan.alpha_bars[:, None, None], b, data_variance(uncond))

    def predict(k: int, x: np.ndarray) -> np.ndarray:
        rows = plan.blocks[k]
        if divisor is not None:
            x = x / divisor[rows]
        if cond is None:
            return exact_eps(uncond, x, consts[0].block(rows))
        pair = (consts[0].block(rows), consts[1].block(rows))
        return guided_eps(uncond, cond, x, pair, w[: len(x)])

    return predict


def _keep_identity(plan: StepPlan, k: int, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` with the rows of block k's identity steps set back to x."""
    if plan.has_identity[k]:
        return np.where(plan.identity[plan.blocks[k]], x, out)
    return out


def _down(plan: StepPlan, k: int, x: np.ndarray, eps_hat: np.ndarray, noise) -> np.ndarray:
    """The generation steps stored in block k, from level k down to k-1."""
    out = _reverse_apply([c[plan.blocks[k]] for c in plan.reverse], x, eps_hat, noise)
    return _keep_identity(plan, k, x, out)


def _walk(plan: StepPlan, direction: str, start: np.ndarray, predict, step, keep_eps) -> Walk:
    """Predict at every level block and step to the next one, up from each
    cell's anchor (inversion) or down from its last grid level (reverse).

    ``start`` holds each cell's first state, (C, S, dim).  ``step(k, x,
    eps_hat)`` moves the first rows of a block along the steps stored in
    block k.  The predictions are recorded only if ``keep_eps``.  Raises
    DomainError if any recorded state is NaN or infinite.
    """
    states = np.empty((len(plan.alpha_bars),) + start.shape[1:])
    eps_hats = np.empty_like(states) if keep_eps else None
    blocks, last = plan.blocks, len(plan.blocks) - 1
    up = direction == "inversion"
    if up:
        states[blocks[0]] = start
    else:
        states[plan.top_rows()] = start
    for k in range(last + 1) if up else range(last, -1, -1):
        x = states[blocks[k]]
        eps_hat = predict(k, x)
        if keep_eps:
            eps_hats[blocks[k]] = eps_hat
        nxt = k + 1 if up else k - 1
        if 0 <= nxt <= last:
            at = max(k, nxt)
            n = plan.counts[at]
            states[blocks[nxt].start : blocks[nxt].start + n] = step(at, x[:n], eps_hat[:n])
    if not np.isfinite(states).all():
        raise DomainError(f"{direction} run left a non-finite state")
    return Walk(plan, direction, states, eps_hats)


def walk_inversion(
    plan: StepPlan, models: AnalyticModel | ModelPair, x0, keep_eps: bool = True
) -> Walk:
    """Deterministic inversion of b*x0, x0 (S, dim), in every cell at its w_invert.

    The predictor for the step leaving a level is evaluated at the stored
    state and noise level of that level.  ``keep_eps`` keeps the
    predictions in the walk.
    """
    models = _as_pair(models)
    x, _ = _batch(x0, models[0].dim, "x0")
    scale, drift = plan.invert

    def step(k, xs, eps_hat):
        rows = plan.blocks[k]
        return _keep_identity(plan, k, xs, scale[rows] * xs + drift[rows] * eps_hat)

    start = plan.cell_array("input_scale_b") * x
    predict = _predictor(plan, models, "w_invert")
    return _walk(plan, "inversion", start, predict, step, keep_eps)


def walk_reverse(
    plan: StepPlan, models: AnalyticModel | ModelPair, x_top, seed, keep_eps: bool = True
) -> Walk:
    """Generation run of every cell from its last grid level down to its anchor.

    ``x_top`` is (C, S, dim), cell c's states at its last level, with one
    seed per row.  Deterministic for eta=0; otherwise each state's noise
    comes from the Philox stream keyed by its seed.
    """
    models = _as_pair(models)
    x = np.asarray(x_top, dtype=float)
    if x.ndim != 3 or x.shape[0] != len(plan.cells) or x.shape[2] != models[0].dim:
        raise ValidationError(
            f"x_top shape {x.shape} is not ({len(plan.cells)}, S, {models[0].dim})"
        )
    noise = _noise(plan, seed, x.shape[1:])

    def step(k, xs, eps_hat):
        return _down(plan, k, xs, eps_hat, _step_noise(plan, noise, k, len(xs)))

    return _walk(plan, "reverse", x, _predictor(plan, models, "w_reverse"), step, keep_eps)


def walk_pinned(
    plan: StepPlan,
    inversion: Walk,
    source_models: AnalyticModel | ModelPair,
    target_models: AnalyticModel | ModelPair,
    seed,
    keep_eps: bool = True,
) -> Walk:
    """Reverse pass of every cell pinned to the stored inversion walk.

    It walks the reverse run's steps.  At each step the source-condition
    reverse prediction is made from the stored inversion state, and the
    residual against the stored state one level down is added to the
    running (target-condition) state.  With target == source the residuals
    cancel exactly and the run reproduces the inversion path; under a
    different target the corrections are carried unchanged.
    """
    if inversion.plan is not plan or inversion.direction != "inversion":
        raise ValidationError("pinned reconstruction needs an inversion walk of this plan")
    stored = inversion.states
    noise = _noise(plan, seed, stored.shape[1:])
    source = _predictor(plan, _as_pair(source_models), "w_reverse")

    def step(k, xs, eps_hat):
        n, z = len(xs), _step_noise(plan, noise, k, len(xs))
        src = stored[plan.blocks[k]]  # sits where the running target branch xs is
        below = stored[plan.blocks[k - 1]][:n]
        if plan.has_identity[k] and plan.identity[plan.blocks[k]].all():
            src_down = src  # identity steps draw no source prediction
        else:
            src_down = _down(plan, k, src, source(k, src), z)
        return _down(plan, k, xs, eps_hat, z) + (below - src_down)

    target = _predictor(plan, _as_pair(target_models), "w_reverse")
    return _walk(plan, "reverse", stored[plan.top_rows()], target, step, keep_eps)


# ---------------------------------------------------------------------------
# single-cell runs: a plan of one cell, recorded as a trajectory

def _models(*pairs: ModelPair) -> list[AnalyticModel]:
    return [m for pair in pairs for m in pair if m is not None]


def run_inversion(
    models: AnalyticModel | ModelPair,
    x0: Sequence[float],
    table: ScheduleTable,
    config: SamplerConfig,
    seed: int | Sequence[int] = 0,
) -> Trajectory:
    """Deterministic inversion of b*x0, (dim,) or (S, dim), up the grid at w_invert.

    ``seed`` (one per state) is accepted for interface symmetry; inversion
    itself draws no noise.
    """
    del seed
    models = _as_pair(models)
    x, single = _batch(x0, models[0].dim, "x0")
    plan = step_plan([(table, config)], _models(models))
    return walk_inversion(plan, models, x).trajectory(single)


def run_reverse(
    models: AnalyticModel | ModelPair,
    x_T: Sequence[float],
    table: ScheduleTable,
    config: SamplerConfig,
    seed: int | Sequence[int] = 0,
) -> Trajectory:
    """Generation run from the grid's last timestep down to the t=0 anchor.

    ``x_T`` is (dim,) or (S, dim) with one seed per state.  The final step
    mirrors the inversion start convention.
    """
    models = _as_pair(models)
    x, single = _batch(x_T, models[0].dim, "x_T")
    plan = step_plan([(table, config)], _models(models))
    return walk_reverse(plan, models, x[None], seed).trajectory(single)


def pinned_reconstruction(
    inversion: Trajectory,
    source_models: AnalyticModel | ModelPair,
    target_models: AnalyticModel | ModelPair,
    table: ScheduleTable,
    config: SamplerConfig,
    seed: int | Sequence[int] = 0,
) -> Trajectory:
    """Reverse pass pinned to the stored inversion trajectory (single or
    batched); see ``walk_pinned``."""
    source_models = _as_pair(source_models)
    target_models = _as_pair(target_models)
    plan = step_plan([(table, config)], _models(source_models, target_models))
    if inversion.direction != "inversion":
        raise ValidationError("pinned reconstruction needs an inversion trajectory")
    stored = inversion.states.reshape(-1, *inversion.states.shape[-2:])
    if stored.shape[1] != config.n_steps + 1 or inversion.timesteps != (0.0,) + table.timesteps:
        raise ValidationError("inversion trajectory does not cover the sampler grid")
    stored = Walk(plan, "inversion", stored.swapaxes(0, 1), None)
    walk = walk_pinned(plan, stored, source_models, target_models, seed)
    return walk.trajectory(single=inversion.states.ndim == 2)


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


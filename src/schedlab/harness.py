"""Scenario execution shared by the CLI and the acceptance suite.

A scenario couples one schedule, one sampler configuration and a model
triple (unconditional / source / optional target) with an explicit seed
list.  Round-trip runs invert a data draw and reconstruct it under the
source condition; edit runs additionally regenerate under the target
condition, both free-running and pinned to the stored inversion path.

Every trajectory of a scenario runs all of its seeds at once as one
(S, dim) batch, and the cells of a sweep (scenarios that share models and
seeds) run as one batch too: ``run_sweep`` walks C cells x S seeds over
one step plan and returns one report per cell (see ``schedlab.sampler``).
A single roundtrip or edit is the one-cell case.  Each seed keeps its own
Philox streams and each row sees only elementwise operations, so a cell's
per-seed results are bitwise the same in any seed list and alone or in a
sweep.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import NamedTuple, Sequence

import numpy as np

from .calculus import logsnr_linearity_fit
from .errors import ValidationError
from .metrics import RunReport, edit_drift, mse, psnr_of_mse
from .models import AnalyticModel, data_range, sample_x0
from .sampler import (
    SamplerConfig,
    Trajectory,
    step_plan,
    time_grid,
    walk_inversion,
    walk_pinned,
    walk_reverse,
)
from .schedules import ScheduleSpec, ScheduleTable, build_table


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    name: str
    schedule: ScheduleSpec
    sampler: SamplerConfig
    uncond: AnalyticModel
    source: AnalyticModel
    target: AnalyticModel | None
    seeds: tuple[int, ...]
    edit_direction: tuple[float, ...] | None = None
    psnr_max_val: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("scenario needs a non-empty name")
        if not self.seeds:
            raise ValidationError("scenario needs at least one seed")
        bad = [s for s in self.seeds if not 0 <= s < 2**64]
        if bad:
            raise ValidationError(f"seeds must lie in [0, 2**64), got {bad}")
        if self.psnr_max_val is not None and not self.psnr_max_val > 0.0:
            raise ValidationError("psnr_max_val must be > 0")


def scenario_table(scenario: ScenarioConfig) -> ScheduleTable:
    return build_table(
        scenario.schedule, time_grid(scenario.sampler, scenario.schedule.T)
    )


def scenario_max_val(scenario: ScenarioConfig) -> float:
    """PSNR max value: explicit override, else the testbed's data range
    scaled by the input scale."""
    if scenario.psnr_max_val is not None:
        return scenario.psnr_max_val
    return scenario.sampler.input_scale_b * data_range(scenario.source)


def derive_edit_direction(scenario: ScenarioConfig) -> np.ndarray:
    if scenario.edit_direction is not None:
        return np.asarray(scenario.edit_direction, dtype=float)
    if scenario.target is None:
        raise ValidationError("edit run needs a target model")

    def mixture_mean(model: AnalyticModel) -> np.ndarray:
        w, mu, _ = model.arrays
        return w @ mu

    d = mixture_mean(scenario.target) - mixture_mean(scenario.source)
    if np.linalg.norm(d) == 0.0:
        raise ValidationError(
            "edit direction cannot be derived (equal model means); set it explicitly"
        )
    return d


@dataclasses.dataclass
class RoundtripResult:
    seed: int
    roundtrip_mse: float
    roundtrip_psnr: float | None
    local_errors: list[float]
    inversion: Trajectory
    reverse: Trajectory


@dataclasses.dataclass
class EditResult:
    seed: int
    roundtrip_mse: float
    edit_drift: float
    pinned_edit_drift: float
    local_errors: list[float]
    edited: np.ndarray
    edited_pinned: np.ndarray
    inversion: Trajectory


def _psnr(m: float, max_val: float) -> float | None:
    """PSNR of an MSE; None for a bit-exact round trip (MSE 0), whose PSNR
    is infinite and is written as null."""
    return None if m == 0.0 else psnr_of_mse(m, max_val)


class _Cell(NamedTuple):
    """One cell of a batched run: its table, its (scaled) data draws x0,
    its per-seed round-trip MSEs and local errors, (S, n_steps), and for
    edits the final edited and pinned states, (S, dim)."""

    scenario: ScenarioConfig
    table: ScheduleTable
    clamped: bool
    x0: np.ndarray
    mses: list[float]
    local: np.ndarray
    edited: np.ndarray | None = None
    pinned: np.ndarray | None = None


def _run_cells(scenarios: Sequence[ScenarioConfig], edit: bool, keep_eps: bool):
    """Walk every cell of ``scenarios`` as one batch: inversion, source
    reconstruction and, for edits, the free and pinned target runs.  The
    inversion and reconstruction keep their predictions only if
    ``keep_eps``; the target runs never do.

    Returns the inversion and reconstruction walks and one ``_Cell`` per
    scenario, in the caller's order.
    """
    base = scenarios[0]
    for sc in scenarios[1:]:
        if (sc.uncond, sc.source, sc.target, sc.seeds) != (
            base.uncond, base.source, base.target, base.seeds
        ):
            raise ValidationError("cells of one batch must share their models and seeds")
    if edit and base.target is None:
        raise ValidationError("edit run needs a target model")
    tables = [scenario_table(sc) for sc in scenarios]
    src = (base.uncond, base.source)
    tgt = (base.uncond, base.target)
    models = src + ((base.target,) if edit else ())
    plan = step_plan([(t, sc.sampler) for t, sc in zip(tables, scenarios)], models)
    seeds = base.seeds
    x0 = np.stack([sample_x0(base.source, s, 1)[0] for s in seeds])
    inv = walk_inversion(plan, src, x0, keep_eps)
    tops = inv.states[plan.top_rows()]
    rec = walk_reverse(plan, src, tops, seeds, keep_eps)
    edited = pinned = None
    if edit:
        edited = walk_reverse(plan, tgt, tops, seeds, keep_eps=False).states
        pinned = walk_pinned(plan, inv, src, tgt, seeds, keep_eps=False).states
    # every level's gap between the two walks, (L, S): the Euclidean norm
    # along the coordinate axis, squared in place to hold one copy of the walk
    gaps = inv.states - rec.states
    gaps = np.sqrt(np.add.reduce(np.multiply(gaps, gaps, out=gaps), axis=-1))
    cells = [None] * len(scenarios)
    for i, j in enumerate(plan.order):
        # level 0 of every cell is in the first block, row i
        x0_i, rec_i = inv.states[i], rec.states[i]
        cells[j] = _Cell(
            scenario=scenarios[j],
            table=tables[j],
            clamped=plan.clamped[i],
            x0=x0_i,
            mses=[mse(x0_i[s], rec_i[s]) for s in range(len(seeds))],
            local=np.ascontiguousarray(gaps[plan.rows(i)[1:]].T),
            edited=None if edited is None else edited[i],
            pinned=None if pinned is None else pinned[i],
        )
    return inv, rec, cells


def _report(cell: _Cell, start: float, drifts=(None, None)) -> RunReport:
    scenario, table = cell.scenario, cell.table
    wall = time.perf_counter() - start
    mean_mse = float(np.mean(cell.mses))
    try:
        r2 = logsnr_linearity_fit(table)[2]
    except ValidationError:  # fewer than 3 finite grid points in the fit window
        r2 = None
    return RunReport(
        local_errors=tuple(float(v) for v in np.mean(cell.local, axis=0)),
        roundtrip_mse=mean_mse,
        roundtrip_psnr=_psnr(mean_mse, scenario_max_val(scenario)),
        edit_drift=drifts[0],
        pinned_edit_drift=drifts[1],
        start_clamped=cell.clamped,
        scenario_id=scenario.name,
        schedule_family=scenario.schedule.family.value,
        n_steps=scenario.sampler.n_steps,
        terminal_logsnr=table.logsnr[-1],
        linearity_r2=r2,
        wall_time_seconds=wall,
        psnr_max_val=scenario_max_val(scenario),
    )


def _edit_drifts(cell: _Cell, direction: np.ndarray) -> tuple[list[float], list[float]]:
    """Per-seed drift of the free and the pinned edit."""
    x0 = cell.x0
    return (
        [edit_drift(x0[s], cell.edited[s], direction) for s in range(len(x0))],
        [edit_drift(x0[s], cell.pinned[s], direction) for s in range(len(x0))],
    )


def run_sweep(scenarios: Sequence[ScenarioConfig], edit: bool) -> list[RunReport]:
    """One report per scenario, all of them walked as one batch.

    The scenarios (the cells of a sweep) must share their models and seeds;
    they may differ in schedule and sampler settings, ``eta`` and
    ``variance_normalize`` excepted.  Each wall time is the whole batch's.
    """
    start = time.perf_counter()
    if not scenarios:
        raise ValidationError("a sweep needs at least one scenario")
    direction = derive_edit_direction(scenarios[0]) if edit else None
    reports = []
    for cell in _run_cells(scenarios, edit, keep_eps=False)[2]:
        drifts = (None, None)
        if edit:
            drifts = tuple(float(np.mean(d)) for d in _edit_drifts(cell, direction))
        reports.append(_report(cell, start, drifts))
    return reports


def run_roundtrip_scenario(
    scenario: ScenarioConfig,
) -> tuple[RunReport, list[RoundtripResult]]:
    start = time.perf_counter()
    inv, rec, (cell,) = _run_cells([scenario], edit=False, keep_eps=True)
    inv, rec = inv.trajectory(), rec.trajectory()
    max_val = scenario_max_val(scenario)
    results = [
        RoundtripResult(
            seed=s,
            roundtrip_mse=cell.mses[i],
            roundtrip_psnr=_psnr(cell.mses[i], max_val),
            local_errors=cell.local[i].tolist(),
            inversion=inv.row(i),
            reverse=rec.row(i),
        )
        for i, s in enumerate(scenario.seeds)
    ]
    return _report(cell, start), results


def run_edit_scenario(
    scenario: ScenarioConfig,
) -> tuple[RunReport, list[EditResult]]:
    start = time.perf_counter()
    direction = derive_edit_direction(scenario)
    inv, _, (cell,) = _run_cells([scenario], edit=True, keep_eps=True)
    inv = inv.trajectory()
    drifts = _edit_drifts(cell, direction)
    results = [
        EditResult(
            seed=s,
            roundtrip_mse=cell.mses[i],
            edit_drift=drifts[0][i],
            pinned_edit_drift=drifts[1][i],
            local_errors=cell.local[i].tolist(),
            edited=cell.edited[i],
            edited_pinned=cell.pinned[i],
            inversion=inv.row(i),
        )
        for i, s in enumerate(scenario.seeds)
    ]
    means = tuple(float(np.mean(d)) for d in drifts)
    return _report(cell, start, means), results


def sign_test_pvalue(wins: int, trials: int) -> float:
    """One-sided binomial tail P[Bin(trials, 1/2) >= wins]."""
    if not 0 <= wins <= trials:
        raise ValidationError(f"need 0 <= wins <= trials, got {wins}/{trials}")
    total = sum(math.comb(trials, k) for k in range(wins, trials + 1))
    return total / 2.0**trials


def paired_comparison(
    values_a: Sequence[float], values_b: Sequence[float]
) -> tuple[int, float]:
    """Wins of a < b per pair (ties dropped) and the sign-test p-value."""
    if len(values_a) != len(values_b):
        raise ValidationError("paired comparison needs equal-length sequences")
    wins = sum(1 for a, b in zip(values_a, values_b) if a < b)
    trials = sum(1 for a, b in zip(values_a, values_b) if a != b)
    return wins, sign_test_pvalue(wins, trials)

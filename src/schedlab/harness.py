"""Scenario execution shared by the CLI and the acceptance suite.

A scenario couples one schedule, one sampler configuration and a model
triple (unconditional / source / optional target) with an explicit seed
list.  Round-trip runs invert a data draw and reconstruct it under the
source condition; edit runs additionally regenerate under the target
condition, both free-running and pinned to the stored inversion path.

Every trajectory of a scenario runs all of its seeds at once as one
(S, dim) batch (see ``schedlab.sampler``); each seed keeps its own Philox
streams, so its per-seed result is bitwise the same in any seed list.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Sequence

import numpy as np

from .calculus import logsnr_linearity_fit
from .errors import ValidationError
from .metrics import RunReport, edit_drift, mse, psnr_of_mse
from .models import AnalyticModel, data_range, sample_x0
from .sampler import (
    SamplerConfig,
    Trajectory,
    pinned_reconstruction,
    run_inversion,
    run_reverse,
    time_grid,
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


def local_errors(inversion: Trajectory, reverse: Trajectory) -> np.ndarray:
    """Per-grid-point distance between the two trajectories, ordered by t.

    Shape (S, n_steps) for batched runs, (n_steps,) for single ones.
    """
    gap = inversion.states[..., 1:, :] - reverse.states[..., -2::-1, :]
    return np.linalg.norm(gap, axis=-1)


@dataclasses.dataclass
class RoundtripResult:
    seed: int
    roundtrip_mse: float
    roundtrip_psnr: float
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


def _roundtrip(scenario: ScenarioConfig, table: ScheduleTable):
    """Batched inversion of every seed's data draw and its source reconstruction."""
    seeds = scenario.seeds
    x0 = np.stack([sample_x0(scenario.source, s, 1)[0] for s in seeds])
    pair = (scenario.uncond, scenario.source)
    inv = run_inversion(pair, x0, table, scenario.sampler, seeds)
    rec = run_reverse(pair, inv.states[:, -1], table, scenario.sampler, seeds)
    mses = [mse(inv.states[i, 0], rec.states[i, -1]) for i in range(len(seeds))]
    return inv, rec, mses, local_errors(inv, rec)


def _report(scenario, table, start, inv, mses, local, drifts=(None, None)) -> RunReport:
    wall = time.perf_counter() - start
    mean_mse = float(np.mean(mses))
    try:
        r2 = logsnr_linearity_fit(table)[2]
    except ValidationError:  # fewer than 3 finite grid points in the fit window
        r2 = None
    return RunReport(
        local_errors=tuple(float(v) for v in np.mean(local, axis=0)),
        roundtrip_mse=mean_mse,
        roundtrip_psnr=psnr_of_mse(mean_mse, scenario_max_val(scenario)),
        edit_drift=drifts[0],
        pinned_edit_drift=drifts[1],
        start_clamped=inv.start_clamped,
        scenario_id=scenario.name,
        schedule_family=scenario.schedule.family.value,
        n_steps=scenario.sampler.n_steps,
        terminal_logsnr=table.logsnr[-1],
        linearity_r2=r2,
        wall_time_seconds=wall,
        psnr_max_val=scenario_max_val(scenario),
    )


def run_roundtrip_scenario(
    scenario: ScenarioConfig,
) -> tuple[RunReport, list[RoundtripResult]]:
    start = time.perf_counter()
    table = scenario_table(scenario)
    inv, rec, mses, local = _roundtrip(scenario, table)
    max_val = scenario_max_val(scenario)
    results = [
        RoundtripResult(
            seed=s,
            roundtrip_mse=mses[i],
            roundtrip_psnr=psnr_of_mse(mses[i], max_val),
            local_errors=local[i].tolist(),
            inversion=inv.row(i),
            reverse=rec.row(i),
        )
        for i, s in enumerate(scenario.seeds)
    ]
    return _report(scenario, table, start, inv, mses, local), results


def run_edit_scenario(
    scenario: ScenarioConfig,
) -> tuple[RunReport, list[EditResult]]:
    start = time.perf_counter()
    table = scenario_table(scenario)
    direction = derive_edit_direction(scenario)
    if scenario.target is None:
        raise ValidationError("edit run needs a target model")
    inv, _, mses, local = _roundtrip(scenario, table)
    seeds, sampler = scenario.seeds, scenario.sampler
    src_pair = (scenario.uncond, scenario.source)
    tgt_pair = (scenario.uncond, scenario.target)
    edited = run_reverse(tgt_pair, inv.states[:, -1], table, sampler, seeds).states[:, -1]
    pinned = pinned_reconstruction(inv, src_pair, tgt_pair, table, sampler, seeds).states[:, -1]
    x0 = inv.states[:, 0]
    results = [
        EditResult(
            seed=s,
            roundtrip_mse=mses[i],
            edit_drift=edit_drift(x0[i], edited[i], direction),
            pinned_edit_drift=edit_drift(x0[i], pinned[i], direction),
            local_errors=local[i].tolist(),
            edited=edited[i],
            edited_pinned=pinned[i],
            inversion=inv.row(i),
        )
        for i, s in enumerate(seeds)
    ]
    drifts = (
        float(np.mean([r.edit_drift for r in results])),
        float(np.mean([r.pinned_edit_drift for r in results])),
    )
    return _report(scenario, table, start, inv, mses, local, drifts), results


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

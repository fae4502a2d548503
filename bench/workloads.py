"""Workload generators: a workload name and a seed give one cycle of CLI commands.

The benchmark replays the cycle in a closed loop.  Every command of a
workload does the same amount of work whatever the seed; the seed picks the
Philox seeds the lab draws from and the schedule parameters, from the
published ablation axes.
"""

from __future__ import annotations

import dataclasses
import random

from oracle import guided_rows

T = 1000
K_VALUES = (0.008, 0.011, 0.015, 0.017, 0.029)
T0_FRACTIONS = (0.3, 0.4, 0.6, 0.8)
COSINE_OFFSETS = (0.004, 0.008, 0.012)
SIGMOID_SHAPES = ((-3.0, 3.0, 1.0), (-3.0, 3.0, 0.9), (-2.0, 3.0, 1.1), (0.0, 3.0, 0.7))
FAMILIES = ("scaled_linear", "cosine", "sigmoid", "logistic")
MODELS = {"uncond": "mixture8.uncond", "source": "mixture8.source", "target": "mixture8.target"}

EDIT_STEPS = 50
EDIT_BATCH = 32
EDIT_BATCHES = 3  # per family; windows advance by half a batch over a 48-seed pool
SWEEP_STEPS = [25, 50, 100, 200, 400]
SWEEP_SEEDS = 8
SCAN_POINTS = 4096


@dataclasses.dataclass(frozen=True)
class Command:
    """One CLI invocation of the cycle.

    ``kind`` selects the oracle.  ``work`` is what the throughput metric
    counts: DDIM steps (seeds x trajectories x n_steps) for edit-sim and
    sweep, CSV data rows for schedule-dump and singularity-scan.
    ``guided_rows`` is the closed-form predictor row count the traced run
    must reproduce.
    """

    key: str
    kind: str
    subcommand: str
    config: dict
    work: int
    guided_rows: int


def _schedule(rng: random.Random, family: str) -> dict:
    section = {"family": family, "T": T}
    if family == "logistic":
        section["k"] = rng.choice(K_VALUES)
        section["t0"] = float(int(rng.choice(T0_FRACTIONS) * T))
    elif family == "cosine":
        section["s"] = rng.choice(COSINE_OFFSETS)
    elif family == "sigmoid":
        lo, hi, tau = rng.choice(SIGMOID_SHAPES)
        section.update(sigmoid_start=lo, sigmoid_end=hi, sigmoid_tau=tau)
    return section


def _seeds(rng: random.Random, n: int) -> list[int]:
    return rng.sample(range(1 << 32), n)


def edit_cycle(rng: random.Random) -> list[Command]:
    """edit-sim batches alternating logistic and scaled_linear.

    Each family has a pool of 48 seeds walked by three 32-seed windows that
    advance 16 seeds at a time (cyclically), so every seed runs in exactly
    two batches that share half their seeds.
    """
    step = EDIT_BATCH // 2
    pool_size = step * EDIT_BATCHES
    per_family = []
    for family in ("logistic", "scaled_linear"):
        schedule = _schedule(rng, family)
        pool = _seeds(rng, pool_size)
        cmds = []
        for b in range(EDIT_BATCHES):
            config = {
                "version": 1,
                "name": f"edit_{family}_{b}",
                "schedule": schedule,
                "sampler": {"n_steps": EDIT_STEPS, "eta": 0.0, "w_invert": 3.5, "w_reverse": 7.5},
                "models": MODELS,
                "seeds": [pool[(step * b + i) % pool_size] for i in range(EDIT_BATCH)],
            }
            cmds.append(
                Command(
                    key=config["name"],
                    kind="edit",
                    subcommand="edit-sim",
                    config=config,
                    work=EDIT_BATCH * 4 * EDIT_STEPS,
                    guided_rows=guided_rows(config, "edit"),
                )
            )
        per_family.append(cmds)
    return [c for pair in zip(*per_family) for c in pair]


def nstep_sweep_cycle(rng: random.Random) -> list[Command]:
    """One roundtrip n_steps sweep per family; cosine runs stochastic (eta = 1)."""
    seeds = _seeds(rng, SWEEP_SEEDS)
    cmds = []
    for family in FAMILIES:
        config = {
            "version": 1,
            "name": f"sweep_{family}",
            "schedule": _schedule(rng, family),
            "sampler": {
                "n_steps": SWEEP_STEPS[0],
                "eta": 1.0 if family == "cosine" else 0.0,
                "w_invert": 3.5,
                "w_reverse": 7.5,
            },
            "models": {"uncond": MODELS["uncond"], "source": MODELS["source"]},
            "seeds": seeds,
            "sweep": {"axis": "n_steps", "values": SWEEP_STEPS, "command": "roundtrip"},
        }
        cmds.append(
            Command(
                key=config["name"],
                kind="sweep",
                subcommand="sweep",
                config=config,
                work=SWEEP_SEEDS * 2 * sum(SWEEP_STEPS),
                guided_rows=guided_rows(config, "sweep"),
            )
        )
    return cmds


def tables_cycle(rng: random.Random) -> list[Command]:
    """Full integer-grid schedule dumps, then t=0 singularity scans, per family."""
    schedules = {family: _schedule(rng, family) for family in FAMILIES}
    cmds = []
    for family in FAMILIES:
        config = {"version": 1, "name": f"dump_{family}", "schedule": schedules[family]}
        cmds.append(Command(config["name"], "dump", "schedule-dump", config, T + 1, 0))
    for family in FAMILIES:
        config = {
            "version": 1,
            "name": f"scan_{family}",
            "schedule": schedules[family],
            "scan": {"t_min": 0.0, "t_max": float(T), "n": SCAN_POINTS},
        }
        cmds.append(Command(config["name"], "scan", "singularity-scan", config, SCAN_POINTS, 0))
    return cmds


WORKLOADS = {"edit": edit_cycle, "nstep_sweep": nstep_sweep_cycle, "tables": tables_cycle}


def make_cycle(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](random.Random(seed))

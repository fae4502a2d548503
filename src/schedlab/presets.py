"""Canonical parameter axes and the shared vector testbeds.

The sweep axes mirror the published ablation grids: logistic steepness
k in {0.008, 0.011, 0.015, 0.017, 0.029}, midpoint fractions
{0.3, 0.4, 0.6, 0.8} of T, and input scales 0.5..1.4 in steps of 0.05.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import ValidationError
from .models import AnalyticModel, Component, ModelKind
from .schedules import Family, ScheduleSpec

K_VALUES = (0.008, 0.011, 0.015, 0.017, 0.029)
T0_FRACTIONS = (0.3, 0.4, 0.6, 0.8)


def input_scale_values() -> list[float]:
    """0.5 to 1.4 inclusive, step 0.05 (19 values)."""
    return [round(0.5 + 0.05 * i, 2) for i in range(19)]


def logistic_spec(T: int = 1000, t0_fraction: float = 0.6, k: float = 0.015) -> ScheduleSpec:
    return ScheduleSpec(family=Family.LOGISTIC, T=T, k=k, t0=float(int(t0_fraction * T)))


@dataclasses.dataclass(frozen=True)
class MixtureTestbed:
    """Two-cluster testbed with a known edit direction.

    ``uncond`` and ``source`` share the same law (so inversion guidance
    degenerates to the plain predictor); ``target`` is the same mixture
    translated along ``edit_direction``.
    """

    uncond: AnalyticModel
    source: AnalyticModel
    target: AnalyticModel
    edit_direction: np.ndarray


def mixture_testbed(
    dim: int = 8,
    separation: float = 2.0,
    variance: float = 0.25,
    edit_shift: float = 1.5,
) -> MixtureTestbed:
    if dim < 2:
        raise ValidationError("mixture testbed needs dim >= 2")

    def mean(sign: float, shift: float) -> tuple[float, ...]:
        m = [0.0] * dim
        m[0] = sign * separation
        m[1] = shift
        return tuple(m)

    def mixture(shift: float, label: str | None) -> AnalyticModel:
        return AnalyticModel(
            kind=ModelKind.GAUSSIAN_MIXTURE,
            components=(
                Component(weight=0.5, mean=mean(+1.0, shift), variance=variance),
                Component(weight=0.5, mean=mean(-1.0, shift), variance=variance),
            ),
            dim=dim,
            condition_label=label,
        )

    direction = np.zeros(dim)
    direction[1] = edit_shift
    return MixtureTestbed(
        uncond=mixture(0.0, None),
        source=mixture(0.0, "source"),
        target=mixture(edit_shift, "target"),
        edit_direction=direction,
    )


def point_mass_model(dim: int = 8) -> AnalyticModel:
    mean = tuple(((-1.0) ** i) * (1.0 + 0.25 * i) for i in range(dim))
    return AnalyticModel(
        kind=ModelKind.POINT_MASS,
        components=(Component(weight=1.0, mean=mean, variance=0.0),),
        dim=dim,
    )


def resolve_model_preset(name: str) -> AnalyticModel:
    """Named models usable in config files in place of inline descriptions."""
    bed = mixture_testbed()
    presets = {
        "mixture8.uncond": bed.uncond,
        "mixture8.source": bed.source,
        "mixture8.target": bed.target,
        "pointmass8": point_mass_model(),
    }
    if name not in presets:
        raise ValidationError(
            f"unknown model preset {name!r}; known: {sorted(presets)}"
        )
    return presets[name]

"""Command-line front door.

    schedlab <command> --config <path> [--out <dir>] [--seed <u64>] [--grid <n>]

Commands: schedule-dump, singularity-scan, roundtrip, edit-sim, sweep.

Configs are JSON with a mandatory ``version`` field.  Every section is a
frozen dataclass (``ConfigFile`` and the classes it names) built by
``schema.build``: unknown keys are rejected at every level so sweep-axis
typos fail fast, and values must have their field's JSON type exactly
(integers for int fields, finite numbers for floats, ``true``/``false`` for
flags).  A ``sweep`` section sets one axis of ``SWEEP_AXES`` per run; a
``guidance`` value is a ``[w_invert, w_reverse]`` pair, so a guidance matrix
is a sweep over its pairs.

Each command writes plot-ready CSV data plus a report JSON, with volatile
values (timestamps, wall times) isolated in a separate ``*_meta.json`` so
data artifacts are byte-identical across reruns.  This module is the only
one that knows the artifact formats: one cell formatter (floats as %.17g,
bools as true/false, None as an empty field), one CSV renderer and one
strict JSON renderer.  Output is all-or-nothing: a command renders every
file in memory first, and a report value that is NaN or infinite is a
numeric domain error, so a failed command writes no file at all.  Files
are then written temp-then-rename, ``*_meta.json`` last.

Exit codes: 0 success, 2 config validation error, 3 numeric domain error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import os
import sys
import time
from collections.abc import Iterable
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, schema
from .calculus import singularity_scan
from .errors import DomainError, ValidationError
from .harness import ScenarioConfig, run_edit_scenario, run_roundtrip_scenario, run_sweep
from .models import AnalyticModel
from .presets import K_VALUES, T0_FRACTIONS, input_scale_values, resolve_model_preset
from .sampler import SamplerConfig
from .schedules import ScheduleSpec, build_table, integer_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

CONFIG_VERSION = 1

#: sweep axis -> (scenario section, the fields one sweep value sets)
SWEEP_AXES = {
    "n_steps": ("sampler", ("n_steps",)),
    "k": ("schedule", ("k",)),
    "t0": ("schedule", ("t0",)),
    "input_scale_b": ("sampler", ("input_scale_b",)),
    "guidance": ("sampler", ("w_invert", "w_reverse")),
}
#: axis -> its published values for ``"values": "preset"``, given T
SWEEP_PRESETS = {
    "k": lambda T: list(K_VALUES),
    "t0": lambda T: [float(int(f * T)) for f in T0_FRACTIONS],
    "input_scale_b": lambda T: input_scale_values(),
}


# ---------------------------------------------------------------------------
# config schema: each section is a frozen dataclass built by schema.build


@dataclasses.dataclass(frozen=True)
class ModelsSection:
    """Preset names (``mixture8.*``, ``pointmass8``) or inline model
    descriptions; ``uncond`` defaults to ``source``."""

    source: str | AnalyticModel
    uncond: str | AnalyticModel | None = None
    target: str | AnalyticModel | None = None


@dataclasses.dataclass(frozen=True)
class GridSection:
    stop: int
    start: int = 0


@dataclasses.dataclass(frozen=True)
class ScanSection:
    t_min: float
    t_max: float
    n: int


@dataclasses.dataclass(frozen=True)
class SweepSection:
    axis: str
    values: object  # "preset" or a non-empty list, typed per axis by _sweep_scenario
    command: str = "roundtrip"

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValidationError(f"unknown sweep axis {self.axis!r}; known: {list(SWEEP_AXES)}")
        if self.command not in ("roundtrip", "edit-sim"):
            raise ValidationError(f"sweep command must be roundtrip|edit-sim, got {self.command!r}")
        if self.values == "preset":
            if self.axis not in SWEEP_PRESETS:
                raise ValidationError(f"axis {self.axis!r} has no preset values")
        elif not isinstance(self.values, list) or not self.values:
            raise ValidationError("sweep values must be a non-empty list or 'preset'")


@dataclasses.dataclass(frozen=True)
class ConfigFile:
    """A whole config file; commands check that the sections they use are set."""

    version: int
    name: str
    schedule: ScheduleSpec | None = None
    sampler: SamplerConfig | None = None
    models: ModelsSection | None = None
    seeds: tuple[int, ...] | None = None
    edit_direction: tuple[float, ...] | None = None
    psnr_max_val: float | None = None
    grid: GridSection | None = None
    scan: ScanSection | None = None
    sweep: SweepSection | None = None
    output_dir: str | None = None

    def __post_init__(self) -> None:
        if self.version != CONFIG_VERSION:
            raise ValidationError(f"config version must be {CONFIG_VERSION}, got {self.version}")
        if not self.name or "/" in self.name or "\0" in self.name:
            # every artifact is named <name>_<suffix> inside the output directory
            raise ValidationError(f"config.name must be a file-name stem, got {self.name!r}")

    def need(self, user: str, *keys: str) -> None:
        for key in keys:
            if getattr(self, key) is None:
                raise ValidationError(f"{user} needs '{key}' in the config")


def _load(path: str | Path) -> tuple[dict, ConfigFile]:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    return data, parse_config(data)


def load_config(path: str | Path) -> dict:
    """The config file's JSON object, after checking all of it against ConfigFile."""
    return _load(path)[0]


def parse_config(data: dict) -> ConfigFile:
    return schema.build(ConfigFile, data, "config")


def parse_schedule(section: dict) -> ScheduleSpec:
    return schema.build(ScheduleSpec, section, "schedule")


def parse_scenario(data: dict, seed_override: int | None) -> ScenarioConfig:
    return _scenario(parse_config(data), seed_override)


def _model(entry: str | AnalyticModel) -> AnalyticModel:
    return resolve_model_preset(entry) if isinstance(entry, str) else entry


def _scenario(cfg: ConfigFile, seed_override: int | None) -> ScenarioConfig:
    cfg.need("a scenario", "schedule", "sampler", "models", "seeds")
    models = cfg.models
    source = _model(models.source)
    return ScenarioConfig(
        name=cfg.name,
        schedule=cfg.schedule,
        sampler=cfg.sampler,
        uncond=source if models.uncond is None else _model(models.uncond),
        source=source,
        target=None if models.target is None else _model(models.target),
        seeds=cfg.seeds if seed_override is None else (seed_override,),
        edit_direction=cfg.edit_direction or None,
        psnr_max_val=cfg.psnr_max_val,
    )


# ---------------------------------------------------------------------------
# artifact formats: every file a command writes is rendered here

_FLOAT = "{:.17g}".format  # 17 significant digits round-trip float64 exactly


def _cell(value) -> str:
    """One CSV field: a float as %.17g, a bool as true/false, None as an
    empty field, an int or str as its str."""
    if isinstance(value, float):
        return _FLOAT(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def _csv(header: tuple[str, ...], rows: Iterable[tuple]) -> str:
    """CSV text: the header, then one line per row of ``_cell`` fields.

    csv.writer quotes a field that holds a comma, quote or line break.  Only
    text can, so a table without str cells is joined directly: the same
    bytes without csv.writer's per-character scan, which makes a 4096-point
    singularity-scan command about 20% slower.  An all-float column is
    formatted in one pass.
    """
    columns, text = [], False
    for column in zip(*rows):
        kinds = set(map(type, column))
        text = text or str in kinds
        columns.append(map(_FLOAT if kinds == {float} else _cell, column))
    table = itertools.chain([header], zip(*columns))  # rows are formatted as they are joined
    if not text:
        return "".join([",".join(line) + "\n" for line in table])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def _json(obj, artifact: str) -> str:
    """Strict JSON text; a NaN or infinite value is a DomainError naming ``artifact``."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"{artifact} would hold a non-finite value ({exc})") from exc


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _emit(args, cfg: ConfigFile, start: float, files: dict[str, str], summary: str) -> int:
    """The shared tail of every command: write its rendered ``{suffix: text}``
    files, then ``*_meta.json``, and print ``<command> <name>: <summary>``.

    Commands render every file before they call this, so a command that
    fails leaves no file behind.
    """
    out = Path(args.out or cfg.output_dir or "schedlab_out")
    out.mkdir(parents=True, exist_ok=True)
    for suffix, text in files.items():
        _atomic_write(out / f"{cfg.name}_{suffix}", text)
    meta = {
        "command": args.command,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "wall_time_seconds": time.perf_counter() - start,
        "package_version": __version__,
    }
    _atomic_write(out / f"{cfg.name}_meta.json", _json(meta, f"{cfg.name}_meta.json"))
    print(f"{args.command} {cfg.name}: {summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# commands: each renders all of its files, then hands them to _emit

def cmd_schedule_dump(args, cfg: ConfigFile, start: float) -> int:
    cfg.need("schedule-dump", "schedule")
    grid = cfg.grid or GridSection(stop=cfg.schedule.T)
    if args.grid is not None:
        grid = GridSection(stop=args.grid)
    T = cfg.schedule.T
    if grid.start < 0 or grid.stop > T:
        raise ValidationError(f"grid [{grid.start}, {grid.stop}] must lie in [0, T={T}]")
    table = build_table(cfg.schedule, integer_grid(grid.stop, grid.start))
    rows = zip(table.timesteps, table.alpha_bar, table.beta, table.snr(), table.logsnr)
    text = _csv(("t", "alpha_bar", "beta", "snr", "logsnr"), rows)
    return _emit(args, cfg, start, {"schedule.csv": text}, f"{len(table.timesteps)} rows")


def cmd_singularity_scan(args, cfg: ConfigFile, start: float) -> int:
    cfg.need("singularity-scan", "schedule", "scan")
    scan = cfg.scan
    n = args.grid if args.grid is not None else scan.n
    rows = singularity_scan(cfg.schedule, scan.t_min, scan.t_max, n)
    text = _csv(
        ("t", "coeff_x0", "coeff_eps", "d_alpha_bar_dt", "finite"),
        [(r.t, r.coeff_x0, r.coeff_eps, r.d_alpha_bar_dt, r.finite) for r in rows],
    )
    return _emit(args, cfg, start, {"scan.csv": text}, f"{len(rows)} rows")


def cmd_roundtrip(args, cfg: ConfigFile, start: float) -> int:
    report, results = run_roundtrip_scenario(_scenario(cfg, args.seed))
    grid = results[0].inversion.timesteps[1:]
    files = {
        "roundtrip.csv": _csv(
            ("seed", "roundtrip_mse", "roundtrip_psnr"),
            [(r.seed, r.roundtrip_mse, r.roundtrip_psnr) for r in results],
        ),
        "local_errors.csv": _csv(
            ("seed", "step", "t", "error"),
            [(r.seed, i, grid[i], e) for r in results for i, e in enumerate(r.local_errors)],
        ),
        "report.json": _json(report.to_stable_dict(), f"{cfg.name}_report.json"),
    }
    summary = f"mean mse {report.roundtrip_mse:.6g} over {len(results)} seeds"
    return _emit(args, cfg, start, files, summary)


def cmd_edit_sim(args, cfg: ConfigFile, start: float) -> int:
    scenario = _scenario(cfg, args.seed)
    if scenario.target is None:
        raise ValidationError("edit-sim needs models.target")
    report, results = run_edit_scenario(scenario)
    files = {
        "edit.csv": _csv(
            ("seed", "edit_drift", "pinned_edit_drift", "roundtrip_mse"),
            [(r.seed, r.edit_drift, r.pinned_edit_drift, r.roundtrip_mse) for r in results],
        ),
        "report.json": _json(report.to_stable_dict(), f"{cfg.name}_report.json"),
    }
    summary = f"mean drift {report.edit_drift:.6g}, pinned {report.pinned_edit_drift:.6g}"
    return _emit(args, cfg, start, files, summary)


def _sweep_scenario(base: ScenarioConfig, axis: str, value, where: str) -> ScenarioConfig:
    """``base`` with one sweep value set.  A one-field axis takes a single
    value, a multi-field axis a list with one value per field."""
    section, fields = SWEEP_AXES[axis]
    parts = [value] if len(fields) == 1 else value
    if not isinstance(parts, list) or len(parts) != len(fields):
        raise ValidationError(f"{where} must be a list [{', '.join(fields)}], got {value!r}")
    changed = schema.replace(getattr(base, section), dict(zip(fields, parts)), where)
    return dataclasses.replace(base, name=f"{base.name}[{axis}={value}]", **{section: changed})


def cmd_sweep(args, cfg: ConfigFile, start: float) -> int:
    cfg.need("sweep", "sweep")
    base = _scenario(cfg, args.seed)
    axis, values = cfg.sweep.axis, cfg.sweep.values
    if values == "preset":
        values = SWEEP_PRESETS[axis](base.schedule.T)
    scenarios = [
        _sweep_scenario(base, axis, v, f"config.sweep.values[{i}]") for i, v in enumerate(values)
    ]
    reports = run_sweep(scenarios, edit=cfg.sweep.command == "edit-sim")

    rows = [
        (
            axis,
            json.dumps(value),
            rep.roundtrip_mse,
            rep.roundtrip_psnr,
            rep.edit_drift,
            rep.pinned_edit_drift,
        )
        for value, rep in zip(values, reports)
    ]
    header = ("axis", "value", "roundtrip_mse", "roundtrip_psnr", "edit_drift", "pinned_edit_drift")
    files = {
        "sweep.csv": _csv(header, rows),
        "sweep_reports.json": _json(
            [r.to_stable_dict() for r in reports], f"{cfg.name}_sweep_reports.json"
        ),
    }
    return _emit(args, cfg, start, files, f"{len(reports)} reports over {axis}")


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedlab",
        description="Noise-schedule and inversion-stability experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("schedule-dump", cmd_schedule_dump),
        ("singularity-scan", cmd_singularity_scan),
        ("roundtrip", cmd_roundtrip),
        ("edit-sim", cmd_edit_sim),
        ("sweep", cmd_sweep),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="replace the config seed list")
        p.add_argument(
            "--grid",
            type=int,
            default=None,
            help="integer grid stop (schedule-dump) or point count (singularity-scan)",
        )
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        return args.fn(args, _load(args.config)[1], start)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

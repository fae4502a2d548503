"""Command-line front door.

    schedlab <command> --config <path> [--out <dir>] [--seed <u64>] [--grid <n>]

Commands: schedule-dump, singularity-scan, roundtrip, edit-sim, sweep.

Configs are JSON with a mandatory ``version`` field; unknown keys are
rejected at every level so sweep-axis typos fail fast.  Each command writes
plot-ready CSV data plus a report JSON, with volatile values (timestamps,
wall times) isolated in a separate ``*_meta.json`` so data artifacts are
byte-identical across reruns.  All writes are write-temp-then-rename.

Exit codes: 0 success, 2 config validation error, 3 numeric domain error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .calculus import scan_csv_text, singularity_scan
from .errors import DomainError, ValidationError
from .harness import (
    EditResult,
    ScenarioConfig,
    run_edit_scenario,
    run_roundtrip_scenario,
)
from .models import AnalyticModel, model_from_dict
from .presets import (
    K_VALUES,
    T0_FRACTIONS,
    input_scale_values,
    resolve_model_preset,
)
from .sampler import SamplerConfig
from .schedules import (
    AffineNormalization,
    Family,
    Orientation,
    ScheduleSpec,
    build_table,
    format_float,
    schedule_csv_text,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_IO = 4

CONFIG_VERSION = 1


# ---------------------------------------------------------------------------
# strict config parsing

def _require_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValidationError(f"unknown {where} fields: {sorted(unknown)}")


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("config root must be a JSON object")
    _require_keys(
        data,
        {
            "version",
            "name",
            "schedule",
            "sampler",
            "models",
            "seeds",
            "edit_direction",
            "psnr_max_val",
            "grid",
            "scan",
            "guidance_grid",
            "sweep",
            "output_dir",
        },
        "config",
    )
    if data.get("version") != CONFIG_VERSION:
        raise ValidationError(
            f"config version must be {CONFIG_VERSION}, got {data.get('version')!r}"
        )
    if "name" not in data:
        raise ValidationError("config needs a 'name'")
    return data


def parse_schedule(section: dict) -> ScheduleSpec:
    _require_keys(
        section,
        {
            "family",
            "T",
            "k",
            "t0",
            "s",
            "sigmoid_start",
            "sigmoid_end",
            "sigmoid_tau",
            "orientation",
            "normalization",
        },
        "schedule",
    )
    if "family" not in section:
        raise ValidationError("schedule needs a 'family'")
    try:
        family = Family(section["family"])
    except ValueError as exc:
        raise ValidationError(f"unknown family {section['family']!r}") from exc
    kwargs: dict = {"family": family}
    for key in ("T",):
        if key in section:
            kwargs[key] = int(section[key])
    for key in ("k", "t0", "s", "sigmoid_start", "sigmoid_end", "sigmoid_tau"):
        if key in section:
            kwargs[key] = float(section[key])
    if "orientation" in section:
        try:
            kwargs["orientation"] = Orientation(section["orientation"])
        except ValueError as exc:
            raise ValidationError(
                f"unknown orientation {section['orientation']!r}"
            ) from exc
    norm = section.get("normalization")
    if norm is not None:
        _require_keys(norm, {"alpha_bar_at_T_target"}, "normalization")
        kwargs["normalization"] = AffineNormalization(
            alpha_bar_at_T_target=float(norm["alpha_bar_at_T_target"])
        )
    return ScheduleSpec(**kwargs)


def parse_sampler(section: dict) -> SamplerConfig:
    _require_keys(
        section,
        {
            "n_steps",
            "eta",
            "step_offset",
            "w_invert",
            "w_reverse",
            "input_scale_b",
            "variance_normalize",
        },
        "sampler",
    )
    if "n_steps" not in section:
        raise ValidationError("sampler needs 'n_steps'")
    kwargs: dict = {"n_steps": int(section["n_steps"])}
    if "step_offset" in section:
        kwargs["step_offset"] = int(section["step_offset"])
    for key in ("eta", "w_invert", "w_reverse", "input_scale_b"):
        if key in section:
            kwargs[key] = float(section[key])
    if "variance_normalize" in section:
        kwargs["variance_normalize"] = bool(section["variance_normalize"])
    return SamplerConfig(**kwargs)


def _parse_model(entry) -> AnalyticModel:
    if isinstance(entry, str):
        return resolve_model_preset(entry)
    if isinstance(entry, dict):
        return model_from_dict(entry)
    raise ValidationError(f"model must be a preset name or description, got {entry!r}")


def parse_models(section: dict) -> tuple[AnalyticModel, AnalyticModel, AnalyticModel | None]:
    _require_keys(section, {"uncond", "source", "target"}, "models")
    if "source" not in section:
        raise ValidationError("models need at least a 'source'")
    source = _parse_model(section["source"])
    uncond = _parse_model(section["uncond"]) if "uncond" in section else source
    target = (
        _parse_model(section["target"]) if section.get("target") is not None else None
    )
    return uncond, source, target


def parse_scenario(data: dict, seed_override: int | None) -> ScenarioConfig:
    for key in ("schedule", "sampler", "models", "seeds"):
        if key not in data:
            raise ValidationError(f"config needs a '{key}' section for this command")
    seeds = data["seeds"]
    if not isinstance(seeds, list) or not seeds:
        raise ValidationError("'seeds' must be a non-empty list of integers")
    if seed_override is not None:
        seeds = [seed_override]
    uncond, source, target = parse_models(data["models"])
    direction = data.get("edit_direction")
    return ScenarioConfig(
        name=str(data["name"]),
        schedule=parse_schedule(data["schedule"]),
        sampler=parse_sampler(data["sampler"]),
        uncond=uncond,
        source=source,
        target=target,
        seeds=tuple(int(s) for s in seeds),
        edit_direction=tuple(float(v) for v in direction) if direction else None,
        psnr_max_val=(
            float(data["psnr_max_val"]) if data.get("psnr_max_val") is not None else None
        ),
    )


# ---------------------------------------------------------------------------
# output plumbing

def _atomic_write(path: Path, data: str | bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(tmp, mode, newline="" if mode == "w" else None) as fh:
        fh.write(data)
    os.replace(tmp, path)


def _write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    _atomic_write(path, buf.getvalue())


def _write_json(path: Path, obj) -> None:
    _atomic_write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_meta(out: Path, name: str, command: str, wall: float) -> None:
    _write_json(
        out / f"{name}_meta.json",
        {
            "command": command,
            "created_at": datetime.now(timezone.utc).isoformat(),
            "wall_time_seconds": wall,
            "package_version": __version__,
        },
    )


def _out_dir(args, data: dict) -> Path:
    out = Path(args.out or data.get("output_dir") or "schedlab_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands

def cmd_schedule_dump(args) -> int:
    start = time.perf_counter()
    data = load_config(args.config)
    if "schedule" not in data:
        raise ValidationError("schedule-dump needs a 'schedule' section")
    spec = parse_schedule(data["schedule"])
    if args.grid is not None:
        grid = [float(t) for t in range(0, args.grid + 1)]
    elif "grid" in data:
        g = data["grid"]
        _require_keys(g, {"start", "stop"}, "grid")
        grid = [float(t) for t in range(int(g.get("start", 0)), int(g["stop"]) + 1)]
    else:
        grid = [float(t) for t in range(0, spec.T + 1)]
    table = build_table(spec, grid)

    out = _out_dir(args, data)
    name = data["name"]
    path = out / f"{name}_schedule.csv"
    _atomic_write(path, schedule_csv_text(table))
    _write_meta(out, name, "schedule-dump", time.perf_counter() - start)
    print(f"wrote {path} ({len(grid)} rows)")
    return EXIT_OK


def cmd_singularity_scan(args) -> int:
    start = time.perf_counter()
    data = load_config(args.config)
    for key in ("schedule", "scan"):
        if key not in data:
            raise ValidationError(f"singularity-scan needs a '{key}' section")
    spec = parse_schedule(data["schedule"])
    scan = data["scan"]
    _require_keys(scan, {"t_min", "t_max", "n"}, "scan")
    n = args.grid if args.grid is not None else int(scan["n"])
    rows = singularity_scan(spec, float(scan["t_min"]), float(scan["t_max"]), n)

    out = _out_dir(args, data)
    name = data["name"]
    path = out / f"{name}_scan.csv"
    _atomic_write(path, scan_csv_text(rows))
    _write_meta(out, name, "singularity-scan", time.perf_counter() - start)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    start = time.perf_counter()
    data = load_config(args.config)
    scenario = parse_scenario(data, args.seed)
    report, results = run_roundtrip_scenario(scenario)

    out = _out_dir(args, data)
    name = data["name"]
    _write_csv(
        out / f"{name}_roundtrip.csv",
        ("seed", "roundtrip_mse", "roundtrip_psnr"),
        [
            [str(r.seed), format_float(r.roundtrip_mse), format_float(r.roundtrip_psnr)]
            for r in results
        ],
    )
    grid = results[0].inversion.timesteps[1:]
    _write_csv(
        out / f"{name}_local_errors.csv",
        ("seed", "step", "t", "error"),
        [
            [str(r.seed), str(i), format_float(grid[i]), format_float(e)]
            for r in results
            for i, e in enumerate(r.local_errors)
        ],
    )
    _write_json(out / f"{name}_report.json", report.to_stable_dict())
    _write_meta(out, name, "roundtrip", time.perf_counter() - start)
    print(f"roundtrip {name}: mean mse {report.roundtrip_mse:.6g} over {len(results)} seeds")
    return EXIT_OK


def _edit_rows(results: list[EditResult]) -> list[list[str]]:
    return [
        [
            str(r.seed),
            format_float(r.edit_drift),
            format_float(r.pinned_edit_drift),
            format_float(r.roundtrip_mse),
        ]
        for r in results
    ]


def cmd_edit_sim(args) -> int:
    start = time.perf_counter()
    data = load_config(args.config)
    scenario = parse_scenario(data, args.seed)
    if scenario.target is None:
        raise ValidationError("edit-sim needs models.target")
    report, results = run_edit_scenario(scenario)

    out = _out_dir(args, data)
    name = data["name"]
    _write_csv(
        out / f"{name}_edit.csv",
        ("seed", "edit_drift", "pinned_edit_drift", "roundtrip_mse"),
        _edit_rows(results),
    )

    if "guidance_grid" in data:
        gg = data["guidance_grid"]
        _require_keys(gg, {"w_invert", "w_reverse"}, "guidance_grid")
        w_inv_values = [float(v) for v in gg["w_invert"]]
        w_rev_values = [float(v) for v in gg["w_reverse"]]
        if not w_inv_values or not w_rev_values:
            raise ValidationError("guidance_grid axes must be non-empty")
        rows = []
        for wi in w_inv_values:
            for wr in w_rev_values:
                cfg = dataclasses.replace(scenario.sampler, w_invert=wi, w_reverse=wr)
                cell, _ = run_edit_scenario(dataclasses.replace(scenario, sampler=cfg))
                rows.append(
                    [
                        format_float(wi),
                        format_float(wr),
                        format_float(cell.edit_drift),
                        format_float(cell.roundtrip_mse),
                    ]
                )
        _write_csv(
            out / f"{name}_guidance_matrix.csv",
            ("w_invert", "w_reverse", "mean_edit_drift", "mean_roundtrip_mse"),
            rows,
        )

    _write_json(out / f"{name}_report.json", report.to_stable_dict())
    _write_meta(out, name, "edit-sim", time.perf_counter() - start)
    print(
        f"edit-sim {name}: mean drift {report.edit_drift:.6g}, "
        f"pinned {report.pinned_edit_drift:.6g}"
    )
    return EXIT_OK


SWEEP_AXES = ("n_steps", "k", "t0", "input_scale_b", "guidance")


def _sweep_values(axis: str, values, T: int) -> list:
    if values == "preset":
        if axis == "k":
            return list(K_VALUES)
        if axis == "t0":
            return [float(int(f * T)) for f in T0_FRACTIONS]
        if axis == "input_scale_b":
            return input_scale_values()
        raise ValidationError(f"axis {axis!r} has no preset values")
    if not isinstance(values, list) or not values:
        raise ValidationError("sweep values must be a non-empty list or 'preset'")
    return values


def _sweep_scenario(base: ScenarioConfig, axis: str, value) -> ScenarioConfig:
    name = f"{base.name}[{axis}={value}]"
    if axis == "n_steps":
        sampler = dataclasses.replace(base.sampler, n_steps=int(value))
        return dataclasses.replace(base, name=name, sampler=sampler)
    if axis == "k":
        sched = dataclasses.replace(base.schedule, k=float(value))
        return dataclasses.replace(base, name=name, schedule=sched)
    if axis == "t0":
        sched = dataclasses.replace(base.schedule, t0=float(value))
        return dataclasses.replace(base, name=name, schedule=sched)
    if axis == "input_scale_b":
        sampler = dataclasses.replace(base.sampler, input_scale_b=float(value))
        return dataclasses.replace(base, name=name, sampler=sampler)
    if axis == "guidance":
        wi, wr = value
        sampler = dataclasses.replace(
            base.sampler, w_invert=float(wi), w_reverse=float(wr)
        )
        return dataclasses.replace(base, name=name, sampler=sampler)
    raise ValidationError(f"unknown sweep axis {axis!r}; known: {SWEEP_AXES}")


def cmd_sweep(args) -> int:
    start = time.perf_counter()
    data = load_config(args.config)
    if "sweep" not in data:
        raise ValidationError("sweep needs a 'sweep' section")
    sw = data["sweep"]
    _require_keys(sw, {"axis", "values", "command"}, "sweep")
    axis = sw.get("axis")
    if axis not in SWEEP_AXES:
        raise ValidationError(f"unknown sweep axis {axis!r}; known: {SWEEP_AXES}")
    command = sw.get("command", "roundtrip")
    if command not in ("roundtrip", "edit-sim"):
        raise ValidationError(f"sweep command must be roundtrip|edit-sim, got {command!r}")

    base = parse_scenario(data, args.seed)
    values = _sweep_values(axis, sw.get("values"), base.schedule.T)
    scenarios = [_sweep_scenario(base, axis, v) for v in values]

    runner = run_edit_scenario if command == "edit-sim" else run_roundtrip_scenario
    reports = [runner(sc)[0] for sc in scenarios]

    out = _out_dir(args, data)
    name = data["name"]
    rows = []
    for value, rep in zip(values, reports):
        rows.append(
            [
                axis,
                json.dumps(value),
                format_float(rep.roundtrip_mse),
                format_float(rep.roundtrip_psnr),
                "" if rep.edit_drift is None else format_float(rep.edit_drift),
                "" if rep.pinned_edit_drift is None else format_float(rep.pinned_edit_drift),
            ]
        )
    _write_csv(
        out / f"{name}_sweep.csv",
        ("axis", "value", "roundtrip_mse", "roundtrip_psnr", "edit_drift", "pinned_edit_drift"),
        rows,
    )
    _write_json(
        out / f"{name}_sweep_reports.json", [r.to_stable_dict() for r in reports]
    )
    _write_meta(out, name, "sweep", time.perf_counter() - start)
    print(f"sweep {name}: {len(reports)} reports over {axis}")
    return EXIT_OK


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
    try:
        return args.fn(args)
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

import copy
import csv
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    Family,
    ScheduleSpec,
    build_table,
    logsnr_linearity_fit,
    singularity_scan,
)
from schedlab.cli import SWEEP_AXES, main
from schedlab.schedules import integer_grid


def write_config(tmp_path, name, payload):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(payload))
    return str(path)


def roundtrip_config(tmp_path, **overrides):
    payload = {
        "version": 1,
        "name": "rt",
        "schedule": {"family": "logistic", "T": 1000},
        "sampler": {"n_steps": 25},
        "models": {
            "uncond": "mixture8.uncond",
            "source": "mixture8.source",
            "target": "mixture8.target",
        },
        "seeds": [0, 1],
    }
    payload.update(overrides)
    return write_config(tmp_path, payload["name"], payload)


def read_rows(path):
    return path.read_text().strip().splitlines()


BOOL_CELLS = {"true": True, "false": False}


def read_columns(path):
    """A CSV artifact as {column: values}: true/false fields as bools, the rest as floats."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return {
        name: [BOOL_CELLS[v] if v in BOOL_CELLS else float(v) for v in column]
        for name, column in zip(header, zip(*rows))
    }


def bits(values):
    return [struct.pack("<d", v) for v in values]


# ---------------------------------------------------------------------------
# schedule-dump

def test_schedule_dump_row_count(tmp_path):
    cfg = write_config(
        tmp_path,
        "sched",
        {
            "version": 1,
            "name": "sched",
            "schedule": {"family": "logistic", "T": 100},
            "grid": {"start": 0, "stop": 100},
        },
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "sched_schedule.csv")
    assert rows[0] == "t,alpha_bar,beta,snr,logsnr"
    assert len(rows) == 102  # header + 101 grid points


def test_schedule_dump_cosine_first_row_alpha_one(tmp_path):
    cfg = write_config(
        tmp_path,
        "cos",
        {"version": 1, "name": "cos", "schedule": {"family": "cosine", "T": 100}},
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path), "--grid", "10"]) == 0
    cols = read_columns(tmp_path / "cos_schedule.csv")
    assert cols["t"][0] == 0.0
    assert cols["alpha_bar"][0] == 1.0
    assert len(cols["t"]) == 11


@pytest.mark.parametrize(
    "grid, flags", [({"start": -1, "stop": 10}, []), ({"stop": 10}, ["--grid", "2000000"])]
)
def test_schedule_dump_rejects_grid_outside_T_before_building_it(
    tmp_path, capsys, monkeypatch, grid, flags
):
    import schedlab.cli

    def no_grid(*args):
        raise AssertionError("integer_grid called for an out-of-range grid")

    monkeypatch.setattr(schedlab.cli, "integer_grid", no_grid)
    cfg = write_config(
        tmp_path,
        "big",
        {"version": 1, "name": "big", "schedule": {"family": "cosine", "T": 1000}, "grid": grid},
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path), *flags]) == 2
    assert "T=1000" in capsys.readouterr().err
    assert not (tmp_path / "big_schedule.csv").exists()


def test_dumped_logsnr_reproduces_fit_inputs_bit_exactly(tmp_path):
    cfg = write_config(
        tmp_path,
        "fit",
        {
            "version": 1,
            "name": "fit",
            "schedule": {"family": "cosine", "T": 100},
            "grid": {"start": 0, "stop": 100},
        },
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path)]) == 0
    cols = read_columns(tmp_path / "fit_schedule.csv")
    spec = ScheduleSpec(family=Family.COSINE, T=100)
    table = build_table(spec, integer_grid(100))
    assert cols["logsnr"] == list(table.logsnr)
    assert cols["t"] == list(table.timesteps)
    direct = logsnr_linearity_fit(table)
    rebuilt = build_table(spec, cols["t"])
    assert logsnr_linearity_fit(rebuilt) == direct


def test_schedule_csv_roundtrip(tmp_path):
    # every column of the dump is the table's float64 value, bit for bit,
    # and a second dump writes the same bytes
    for family in Family:
        name = f"rt_{family.value}"
        payload = {"version": 1, "name": name, "schedule": {"family": family.value, "T": 100}}
        cfg = write_config(tmp_path, name, payload)
        for out in (tmp_path / "a", tmp_path / "b"):
            assert main(["schedule-dump", "--config", cfg, "--out", str(out)]) == 0
        path = tmp_path / "a" / f"{name}_schedule.csv"
        assert path.read_bytes() == (tmp_path / "b" / f"{name}_schedule.csv").read_bytes()
        cols = read_columns(path)
        table = build_table(ScheduleSpec(family=family, T=100), integer_grid(100))
        assert list(cols) == ["t", "alpha_bar", "beta", "snr", "logsnr"]
        assert bits(cols["t"]) == bits(table.timesteps)
        assert bits(cols["alpha_bar"]) == bits(table.alpha_bar)
        assert bits(cols["beta"]) == bits(table.beta)
        assert bits(cols["snr"]) == bits(table.snr())
        assert bits(cols["logsnr"]) == bits(table.logsnr)


# ---------------------------------------------------------------------------
# singularity-scan

def scan_config(tmp_path, family, n=12):
    return write_config(
        tmp_path,
        f"scan_{family}",
        {
            "version": 1,
            "name": f"scan_{family}",
            "schedule": {"family": family, "T": 100},
            "scan": {"t_min": 1e-6, "t_max": 1e-2, "n": n},
        },
    )


def test_scan_scaled_linear_monotone_growth(tmp_path):
    cfg = scan_config(tmp_path, "scaled_linear")
    assert main(["singularity-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "scan_scaled_linear_scan.csv")[1:]
    mags = [abs(float(r.split(",")[2])) for r in rows]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert mags[0] > 10 * mags[-1]


def test_scan_logistic_flat_within_one_percent(tmp_path):
    cfg = scan_config(tmp_path, "logistic")
    assert main(["singularity-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "scan_logistic_scan.csv")[1:]
    mags = [abs(float(r.split(",")[2])) for r in rows]
    assert max(mags) / min(mags) < 1.01


def test_scan_csv_roundtrip(tmp_path):
    # a scaled_linear scan from t=0: the t=0 row is the divergent limit
    cfg = write_config(
        tmp_path,
        "sl0",
        {
            "version": 1,
            "name": "sl0",
            "schedule": {"family": "scaled_linear", "T": 100},
            "scan": {"t_min": 0.0, "t_max": 1.0, "n": 8},
        },
    )
    assert main(["singularity-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    cols = read_columns(tmp_path / "sl0_scan.csv")
    rows = singularity_scan(ScheduleSpec(family=Family.SCALED_LINEAR, T=100), 0.0, 1.0, 8)
    assert list(cols) == ["t", "coeff_x0", "coeff_eps", "d_alpha_bar_dt", "finite"]
    assert bits(cols["t"]) == bits(r.t for r in rows)
    assert bits(cols["coeff_x0"]) == bits(r.coeff_x0 for r in rows)
    assert bits(cols["coeff_eps"]) == bits(r.coeff_eps for r in rows)
    assert bits(cols["d_alpha_bar_dt"]) == bits(r.d_alpha_bar_dt for r in rows)
    assert cols["finite"] == [r.finite for r in rows]
    assert cols["coeff_eps"][0] == math.inf and cols["finite"][0] is False
    assert all(cols["finite"][1:])


def test_scan_two_point_grid(tmp_path):
    cfg = scan_config(tmp_path, "cosine", n=2)
    assert main(["singularity-scan", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(read_rows(tmp_path / "scan_cosine_scan.csv")) == 3


# ---------------------------------------------------------------------------
# roundtrip

def test_roundtrip_pointmass_logistic(tmp_path):
    cfg = write_config(
        tmp_path,
        "pm",
        {
            "version": 1,
            "name": "pm",
            "schedule": {"family": "logistic", "T": 1000},
            "sampler": {"n_steps": 100},
            "models": {"source": "pointmass8"},
            "seeds": [0],
        },
    )
    assert main(["roundtrip", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "pm_report.json").read_text())
    assert report["roundtrip_mse"] <= 1e-10
    assert report["n_steps"] == 100
    assert len(report["local_errors"]) == 100


def test_roundtrip_outputs_and_determinism(tmp_path):
    cfg = roundtrip_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["roundtrip", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["roundtrip", "--config", cfg, "--out", str(out2)]) == 0
    for fname in ("rt_roundtrip.csv", "rt_local_errors.csv", "rt_report.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    rows = read_rows(out1 / "rt_roundtrip.csv")
    assert rows[0] == "seed,roundtrip_mse,roundtrip_psnr"
    assert len(rows) == 3  # header + 2 seeds


def test_seed_override_runs_single_seed(tmp_path):
    cfg = roundtrip_config(tmp_path)
    assert main(["roundtrip", "--config", cfg, "--out", str(tmp_path), "--seed", "7"]) == 0
    rows = read_rows(tmp_path / "rt_roundtrip.csv")
    assert len(rows) == 2
    assert rows[1].startswith("7,")


# ---------------------------------------------------------------------------
# edit-sim

def test_edit_sim_target_equals_source(tmp_path):
    dim = 8
    cfg = roundtrip_config(
        tmp_path,
        name="same",
        models={
            "uncond": "mixture8.uncond",
            "source": "mixture8.source",
            "target": "mixture8.source",
        },
        edit_direction=[0.0, 1.0] + [0.0] * (dim - 2),
    )
    assert main(["edit-sim", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "same_report.json").read_text())
    # the edited run is then just the reconstruction: drift is bounded by the
    # full reconstruction residual
    residual = math.sqrt(report["roundtrip_mse"] * dim)
    assert report["edit_drift"] <= residual + 1e-12


def test_edit_sim_guidance_matrix(tmp_path):
    # the w_invert x w_reverse matrix is a guidance sweep of edit-sim cells;
    # each [w_invert, w_reverse] value is one CSV field, quoted
    pairs = [[float(wi), float(wr)] for wi in range(1, 11) for wr in range(3, 26, 2)]
    cfg = roundtrip_config(
        tmp_path,
        name="gg",
        sampler={"n_steps": 20},
        seeds=[0],
        sweep={"axis": "guidance", "values": pairs, "command": "edit-sim"},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "gg_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "axis", "value", "roundtrip_mse", "roundtrip_psnr", "edit_drift", "pinned_edit_drift"
    ]
    assert len(rows) == 1 + 10 * 12
    assert all(len(row) == 6 for row in rows)
    assert [json.loads(row[1]) for row in rows[1:]] == pairs
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row[2:])


def test_edit_sim_requires_target(tmp_path):
    cfg = roundtrip_config(tmp_path, name="notgt", models={"source": "mixture8.source"})
    assert main(["edit-sim", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# sweep

def test_sweep_k_preset_counts(tmp_path):
    cfg = roundtrip_config(
        tmp_path, name="ks", sweep={"axis": "k", "values": "preset", "command": "roundtrip"}
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "ks_sweep_reports.json").read_text())
    assert len(reports) == 5
    rows = read_rows(tmp_path / "ks_sweep.csv")
    assert len(rows) == 6
    assert [json.loads(r.split(",")[1]) for r in rows[1:]] == [
        0.008,
        0.011,
        0.015,
        0.017,
        0.029,
    ]


def test_sweep_input_scale_preset_has_19_reports(tmp_path):
    cfg = roundtrip_config(
        tmp_path,
        name="bs",
        sampler={"n_steps": 10},
        seeds=[0],
        sweep={"axis": "input_scale_b", "values": "preset", "command": "roundtrip"},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "bs_sweep_reports.json").read_text())
    assert len(reports) == 19


def test_sweep_n_steps_one_report_per_value(tmp_path):
    cfg = roundtrip_config(
        tmp_path,
        name="ns",
        seeds=[0],
        sweep={"axis": "n_steps", "values": [10, 20, 40], "command": "roundtrip"},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    reports = json.loads((tmp_path / "ns_sweep_reports.json").read_text())
    assert [r["n_steps"] for r in reports] == [10, 20, 40]


def test_sweep_empty_axis_rejected(tmp_path):
    cfg = roundtrip_config(
        tmp_path, name="ev", sweep={"axis": "k", "values": [], "command": "roundtrip"}
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_sweep_batch_matches_single_seed_sweeps(tmp_path):
    # a seed's numbers do not depend on the seeds it is batched with: each
    # value's mean over a 4-seed sweep is, byte for byte, the mean of the
    # same seeds' 1-seed sweeps, and the per-seed roundtrip rows are equal
    seeds = [0, 1, 2, 3]
    cfg = roundtrip_config(
        tmp_path,
        name="bat",
        seeds=seeds,
        sampler={"n_steps": 10, "eta": 1.0},
        schedule={"family": "scaled_linear", "T": 1000},
        sweep={"axis": "n_steps", "values": [10, 20, 40], "command": "roundtrip"},
    )

    def run(command, out, *extra):
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 0
        return out

    def reports(out):
        return json.loads((out / "bat_sweep_reports.json").read_text())

    batch = reports(run("sweep", tmp_path / "batch"))
    singles = [reports(run("sweep", tmp_path / f"s{s}", "--seed", str(s))) for s in seeds]
    for i, report in enumerate(batch):
        per_seed = [single[i] for single in singles]
        assert report["roundtrip_mse"] == float(np.mean([r["roundtrip_mse"] for r in per_seed]))
        assert report["local_errors"] == np.mean(
            [r["local_errors"] for r in per_seed], axis=0
        ).tolist()

    batch_out = run("roundtrip", tmp_path / "rt_batch")
    single_outs = [run("roundtrip", tmp_path / f"rt{s}", "--seed", str(s)) for s in seeds]
    for name in ("bat_roundtrip.csv", "bat_local_errors.csv"):
        single_rows = [row for out in single_outs for row in read_rows(out / name)[1:]]
        assert read_rows(batch_out / name)[1:] == single_rows


@pytest.mark.parametrize("command", ["roundtrip", "edit-sim"])
@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_few_steps_run_with_null_linearity(tmp_path, command, n_steps):
    # under 3 grid points fall in the logSNR fit window, so r^2 is null
    cfg = roundtrip_config(tmp_path, name="few", sampler={"n_steps": n_steps})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "few_report.json").read_text())
    assert report["linearity_r2"] is None
    assert report["n_steps"] == n_steps


def test_n_steps_sweep_through_few_steps(tmp_path):
    cfg = roundtrip_config(
        tmp_path,
        name="nfew",
        sweep={"axis": "n_steps", "values": [1, 2, 3, 25], "command": "roundtrip"},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(read_rows(tmp_path / "nfew_sweep.csv")) == 1 + 4
    reports = json.loads((tmp_path / "nfew_sweep_reports.json").read_text())
    assert [r["linearity_r2"] is None for r in reports] == [True, True, True, False]


POINT_MASS_2D = {
    "kind": "point_mass",
    "dim": 2,
    "components": [{"weight": 1.0, "mean": [1.0, -1.0], "variance": 0.0}],
}


@pytest.mark.parametrize(
    "schedule, sampler, models",
    [
        # scaled_linear is singular at t=0, so a 1-step run is the identity
        # anchor (a, a)
        ({"family": "scaled_linear", "T": 1000}, {"n_steps": 1}, None),
        # the exact predictor of a point mass makes its round trip bit-exact
        ({"family": "logistic", "T": 100}, {"n_steps": 5}, {"source": POINT_MASS_2D}),
    ],
)
def test_exact_roundtrip_writes_null_psnr(tmp_path, schedule, sampler, models):
    # the MSE is exactly 0 and the PSNR infinite: the report holds null and
    # the CSV an empty field, and the command succeeds
    extra = {} if models is None else {"models": models}
    cfg = roundtrip_config(tmp_path, name="exact", schedule=schedule, sampler=sampler, **extra)
    assert main(["roundtrip", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "exact_report.json").read_text())
    assert report["roundtrip_mse"] == 0.0 and report["roundtrip_psnr"] is None
    rows = read_rows(tmp_path / "exact_roundtrip.csv")
    assert rows[0] == "seed,roundtrip_mse,roundtrip_psnr"
    assert all(row.split(",")[1:] == ["0", ""] for row in rows[1:])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_report_exits_3_and_writes_nothing(tmp_path, capsys):
    # states near 1e160 stay finite, but the squares of their round-trip
    # gaps overflow: the MSE and the local errors are infinite
    cfg = roundtrip_config(
        tmp_path,
        name="huge",
        schedule={"family": "logistic", "T": 100},
        sampler={"n_steps": 5, "input_scale_b": 1e160},
        models={
            "source": {
                "kind": "gaussian",
                "dim": 2,
                "components": [{"weight": 1.0, "mean": [1.0, -1.0], "variance": 0.5}],
            }
        },
        seeds=[0],
    )
    out = tmp_path / "out"
    assert main(["roundtrip", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric domain error:") and "huge_report.json" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["roundtrip", "edit-sim", "sweep"])
def test_step_offset_zero_on_singular_schedule_exits_2(tmp_path, capsys, command):
    # the grid would start at t=0, where alpha_bar is 1 and no predictor exists
    cfg = roundtrip_config(
        tmp_path,
        name="off0",
        schedule={"family": "scaled_linear", "T": 1000},
        sampler={"n_steps": 10, "step_offset": 0},
        sweep={"axis": "n_steps", "values": [20, 10], "command": "roundtrip"},
    )
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "config.sampler.step_offset" in err
    assert not out.exists()


def test_step_offset_zero_runs_on_logistic(tmp_path):
    # logistic keeps alpha_bar(0) < 1: its first step is the identity (a0, a0)
    cfg = roundtrip_config(tmp_path, name="off0", sampler={"n_steps": 10, "step_offset": 0})
    assert main(["edit-sim", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "off0_report.json").read_text())
    assert not report["start_clamped"] and report["roundtrip_mse"] > 0.0


CELL_SWEEPS = {
    # unsorted and ragged, with 1-step cells; cosine draws eta=1 noise
    "n_steps_cosine": (
        {"family": "cosine", "T": 1000},
        {"n_steps": 50, "eta": 1.0},
        {"axis": "n_steps", "values": [400, 1, 25, 3, 2], "command": "edit-sim"},
    ),
    "n_steps_logistic": (
        {"family": "logistic", "T": 1000},
        {"n_steps": 50},
        {"axis": "n_steps", "values": [400, 1, 25, 3, 2], "command": "roundtrip"},
    ),
    # k=0.06124 rounds alpha_bar(0) to 1, so that cell alone is clamped
    "k": (
        {"family": "logistic", "T": 1000, "t0": 600.0},
        {"n_steps": 20, "eta": 0.5},
        {"axis": "k", "values": [0.015, 0.06124, 0.008], "command": "edit-sim"},
    ),
    "t0": (
        {"family": "logistic", "T": 1000},
        {"n_steps": 20},
        {"axis": "t0", "values": "preset", "command": "roundtrip"},
    ),
    "input_scale_b": (
        {"family": "sigmoid", "T": 1000},
        {"n_steps": 20, "eta": 0.5, "variance_normalize": True},
        {"axis": "input_scale_b", "values": [0.5, 1.4, 1.0], "command": "edit-sim"},
    ),
    "guidance": (
        {"family": "scaled_linear", "T": 1000},
        {"n_steps": 20, "eta": 0.5},
        {
            "axis": "guidance",
            "values": [[1.0, 3.0], [0.0, 5.0], [2.0, 0.0], [3.5, 7.5]],
            "command": "edit-sim",
        },
    ),
}
@pytest.mark.parametrize("case", sorted(CELL_SWEEPS))
def test_sweep_cells_match_single_cell_commands(tmp_path, case):
    # a sweep walks all of its cells as one batch; each cell's report and
    # sweep row are bitwise those of the cell's own single command
    schedule, sampler, sweep = CELL_SWEEPS[case]
    cfg = roundtrip_config(
        tmp_path, name="cells", schedule=schedule, sampler=sampler, seeds=[3, 1, 4], sweep=sweep
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 0
    reports = json.loads((tmp_path / "sweep" / "cells_sweep_reports.json").read_text())
    with open(tmp_path / "sweep" / "cells_sweep.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(reports) == len(rows) >= 3

    section, fields = SWEEP_AXES[sweep["axis"]]
    for i, (report, row) in enumerate(zip(reports, rows)):
        value = json.loads(row[1])
        payload = {"schedule": dict(schedule), "sampler": dict(sampler)}
        payload[section].update(zip(fields, value if len(fields) > 1 else [value]))
        single = roundtrip_config(tmp_path, name="one", seeds=[3, 1, 4], **payload)
        out = tmp_path / f"one_{i}"
        assert main([sweep["command"], "--config", single, "--out", str(out)]) == 0
        alone = json.loads((out / "one_report.json").read_text())
        assert report.pop("scenario_id") == f"cells[{sweep['axis']}={row[1]}]"
        alone.pop("scenario_id")
        assert report == alone
        assert row[2:] == ["" if alone[f] is None else f"{alone[f]:.17g}" for f in header[2:]]


def test_n_steps_sweep_makes_one_predictor_call_per_level(tmp_path, monkeypatch):
    # all cells walk together: a roundtrip n_steps sweep calls the guided
    # predictor 2 * (max N + 1) times, on 2 * S * sum(N + 1) rows, and each
    # guided call makes one exact_eps call per model
    import schedlab.models as models_module
    import schedlab.sampler as sampler_module

    calls = {"guided": 0, "guided_rows": 0, "exact_rows": 0}
    guided, exact = sampler_module.guided_eps, models_module.exact_eps

    def counted_guided(*args):
        out = guided(*args)
        calls["guided"] += 1
        calls["guided_rows"] += out.size // out.shape[-1]
        return out

    def counted_exact(*args):
        out = exact(*args)
        calls["exact_rows"] += out.size // out.shape[-1]
        return out

    monkeypatch.setattr(sampler_module, "guided_eps", counted_guided)
    monkeypatch.setattr(models_module, "exact_eps", counted_exact)
    values, seeds = [10, 3, 25, 1], [5, 6, 7]
    cfg = roundtrip_config(
        tmp_path, name="cnt", seeds=seeds,
        sweep={"axis": "n_steps", "values": values, "command": "roundtrip"},
    )
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls["guided"] == 2 * (max(values) + 1)
    assert calls["guided_rows"] == 2 * len(seeds) * sum(n + 1 for n in values)
    assert calls["exact_rows"] == 2 * calls["guided_rows"]

# ---------------------------------------------------------------------------
# exit codes and config strictness

def test_unknown_top_level_field_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad",
        {"version": 1, "name": "bad", "schedule": {"family": "logistic"}, "oops": 1},
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_unknown_nested_field_exits_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad2",
        {"version": 1, "name": "bad2", "schedule": {"family": "logistic", "kk": 2}},
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_wrong_version_exits_2(tmp_path):
    cfg = write_config(
        tmp_path, "v9", {"version": 9, "name": "v9", "schedule": {"family": "cosine"}}
    )
    assert main(["schedule-dump", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_config_exits_4(tmp_path):
    assert main(["schedule-dump", "--config", str(tmp_path / "nope.json")]) == 4


def test_numeric_domain_error_exits_3(tmp_path):
    cfg = roundtrip_config(tmp_path, name="eta", sampler={"n_steps": 25, "eta": 40.0})
    assert main(["roundtrip", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["schedule-dump", "--config", str(path)]) == 2


def test_non_utf8_config_exits_2(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"version": 1, "name": "caf\xe9"}')
    assert main(["schedule-dump", "--config", str(path)]) == 2


def test_inline_model_description(tmp_path):
    cfg = roundtrip_config(
        tmp_path,
        name="inline",
        schedule={"family": "logistic", "T": 100},
        sampler={"n_steps": 10},
        models={
            "source": {
                "kind": "point_mass",
                "dim": 2,
                "components": [{"weight": 1.0, "mean": [1.0, -1.0], "variance": 0.0}],
                "condition_label": None,
            }
        },
        seeds=[3],
    )
    assert main(["roundtrip", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "inline_report.json").read_text())
    assert report["roundtrip_mse"] <= 1e-10


DROP = object()  # deletes the key instead of setting it

INLINE_POINT_MASS = {
    "kind": "point_mass",
    "dim": 2,
    "components": [{"weight": 1.0, "mean": [1.0, -1.0], "variance": 0.0}],
}


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("edit-sim", ("sampler", "eta"), math.nan),
        ("edit-sim", ("sampler", "variance_normalize"), "false"),
        ("edit-sim", ("sampler", "n_steps"), 10.9),
        ("edit-sim", ("schedule", "T"), 1000.7),
        ("edit-sim", ("schedule", "T"), True),
        ("edit-sim", ("schedule", "k"), "abc"),
        ("edit-sim", ("schedule", "k"), [1]),
        ("edit-sim", ("schedule", "k"), math.inf),
        ("edit-sim", ("schedule", "normalization"), 0.5),
        ("edit-sim", ("seeds",), [1.9]),
        ("edit-sim", ("seeds",), [True]),
        ("edit-sim", ("seeds",), [-1]),
        ("edit-sim", ("seeds",), [2**64]),
        ("edit-sim", ("name",), 5),
        ("edit-sim", ("edit_direction",), "ab"),
        ("edit-sim", ("psnr_max_val",), "x"),
        ("schedule-dump", ("grid",), {"stop": "x"}),
        ("singularity-scan", ("scan", "n"), 2.5),
        ("singularity-scan", ("scan", "t_max"), DROP),
        ("sweep", ("sweep",), {"axis": "n_steps", "values": [10.5]}),
        ("sweep", ("sweep",), {"axis": "guidance", "values": [1]}),
        ("roundtrip", ("models", "source"), dict(INLINE_POINT_MASS, dim=2.5)),
        (
            "roundtrip",
            ("models", "source"),
            dict(INLINE_POINT_MASS, components=[{"mean": [1.0, -1.0], "variance": 0.0}]),
        ),
        ("edit-sim", ("guidance_grid",), {"w_invert": [1.0], "w_reverse": [3.0]}),
        ("singularity-scan", ("schedule", "orientation"), "verbatim_increasing"),
        ("schedule-dump", ("name",), ""),
        ("schedule-dump", ("name",), "sub/dir"),
        ("schedule-dump", ("name",), "nul\0byte"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, command, key, value):
    payload = {
        "version": 1,
        "name": "bad",
        "schedule": {"family": "logistic", "T": 1000},
        "sampler": {"n_steps": 10},
        "models": {
            "uncond": "mixture8.uncond",
            "source": "mixture8.source",
            "target": "mixture8.target",
        },
        "seeds": [0],
        "grid": {"start": 0, "stop": 10},
        "scan": {"t_min": 1e-6, "t_max": 1.0, "n": 8},
        "sweep": {"axis": "n_steps", "values": [10]},
    }
    section = payload
    for k in key[:-1]:
        section = section[k]
    if value is DROP:
        del section[key[-1]]
    else:
        section[key[-1]] = value
    cfg = write_config(tmp_path, "bad", payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_override_outside_u64_exits_2(tmp_path, capsys, seed):
    cfg = roundtrip_config(tmp_path)
    out = tmp_path / "out"
    assert main(["roundtrip", "--config", cfg, "--out", str(out), "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_largest_u64_seed_runs(tmp_path):
    cfg = roundtrip_config(tmp_path, sampler={"n_steps": 10}, seeds=[2**64 - 1])
    assert main(["roundtrip", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_edit_exits_3_without_report(tmp_path, capsys):
    cfg = roundtrip_config(tmp_path, name="huge", sampler={"n_steps": 25, "w_reverse": 1e308})
    out = tmp_path / "out"
    assert main(["edit-sim", "--config", cfg, "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzed front door: one field of a small valid config, mutated

FUZZ_BASES = {
    "schedule-dump": {
        "version": 1,
        "name": "fz",
        "schedule": {"family": "cosine", "T": 200, "normalization": {"alpha_bar_at_T_target": 0.0}},
        "grid": {"start": 0, "stop": 200},
    },
    "singularity-scan": {
        "version": 1,
        "name": "fz",
        "schedule": {
            "family": "sigmoid",
            "T": 200,
            "sigmoid_start": -3.0,
            "sigmoid_end": 3.0,
            "sigmoid_tau": 1.0,
        },
        "scan": {"t_min": 0.0, "t_max": 200.0, "n": 16},
    },
    "roundtrip": {
        "version": 1,
        "name": "fz",
        "schedule": {"family": "logistic", "T": 1000, "k": 0.015, "t0": 600.0},
        "sampler": {
            "n_steps": 10,
            "eta": 0.5,
            "step_offset": 1,
            "w_invert": 3.5,
            "w_reverse": 7.5,
            "input_scale_b": 1.0,
            "variance_normalize": True,
        },
        "models": {"uncond": "mixture8.uncond", "source": "mixture8.source"},
        "seeds": [0, 1],
        "psnr_max_val": 4.0,
    },
    "edit-sim": {
        "version": 1,
        "name": "fz",
        "schedule": {"family": "scaled_linear", "T": 500},
        "sampler": {"n_steps": 8},
        "models": {
            "uncond": "mixture8.uncond",
            "source": "mixture8.source",
            "target": "mixture8.target",
        },
        "seeds": [3],
        "edit_direction": [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    },
    "sweep": {
        "version": 1,
        "name": "fz",
        "schedule": {"family": "cosine", "T": 1000, "s": 0.008},
        "sampler": {"n_steps": 12},
        "models": {"source": "pointmass8"},
        "seeds": [5],
        "sweep": {"axis": "n_steps", "values": [4, 12], "command": "roundtrip"},
    },
}

FUZZ_VALUES = {
    "wrong kind": st.sampled_from(
        ["x", "", "a/b", "a\0b", [], [1.5], {}, {"a": 1}, True, False, None, 0, 2.5]
    ),
    "non-finite token": st.sampled_from([math.nan, math.inf, -math.inf]),
    "out of range": st.one_of(
        st.integers(-(10**4), 10**4),
        st.floats(-1e4, 1e4),
        st.sampled_from([5e-324, 1e-300, 1e300, -1e300]),
    ),
}


def config_paths(node, prefix=()):
    """Key paths of every value below the config root, sections included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from config_paths(value, prefix + (key,))


def lookup(payload, path):
    for key in path:
        payload = payload[key]
    return payload


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_fuzzed_config_ends_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(sorted(FUZZ_BASES)))
    payload = copy.deepcopy(FUZZ_BASES[command])
    mutation = data.draw(st.sampled_from(["unknown key", *FUZZ_VALUES]))
    paths = list(config_paths(payload))
    if mutation == "unknown key":
        sections = [()] + [p for p in paths if isinstance(lookup(payload, p), dict)]
        lookup(payload, data.draw(st.sampled_from(sections)))["zz_unknown"] = 1
    else:
        path = data.draw(st.sampled_from(paths))
        lookup(payload, path[:-1])[path[-1]] = data.draw(FUZZ_VALUES[mutation])

    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.json"
        cfg.write_text(json.dumps(payload))  # NaN and Infinity become bare tokens
        out = Path(tmp) / "out"
        rc = main([command, "--config", str(cfg), "--out", str(out)])
        assert rc in (0, 2, 3, 4)
        assert not list(Path(tmp).rglob("*.tmp*"))
        if rc == 0:
            for report in out.glob("*.json"):
                json.loads(report.read_text(), parse_constant=pytest.fail)
        elif rc in (2, 3):
            assert not out.exists()

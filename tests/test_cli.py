import csv
import json
import math

import numpy as np
import pytest

from schedlab import Family, ScheduleSpec, build_table, logsnr_linearity_fit
from schedlab.cli import main
from schedlab.schedules import integer_grid, read_schedule_csv


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
    cols = read_schedule_csv(tmp_path / "cos_schedule.csv")
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
    cols = read_schedule_csv(tmp_path / "fit_schedule.csv")
    spec = ScheduleSpec(family=Family.COSINE, T=100)
    table = build_table(spec, integer_grid(100))
    assert cols["logsnr"] == list(table.logsnr)
    assert cols["t"] == list(table.timesteps)
    direct = logsnr_linearity_fit(table)
    rebuilt = build_table(spec, cols["t"])
    assert logsnr_linearity_fit(rebuilt) == direct


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

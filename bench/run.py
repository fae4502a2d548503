"""schedlab benchmark: drive the real CLI in-process on one workload.

    python3 bench/run.py --workload {edit,nstep_sweep,tables} --seed N --seconds S --trace {0,1}

Run it from the repository root.  One single-threaded process is the only
client, in a closed loop: it calls ``schedlab.cli.main(argv)`` with the next
command of the workload's cycle as soon as the previous one returns, until
the commands have taken ``--seconds`` of wall time.  BLAS threads are pinned
to 1 and ``SCHEDLAB_THREADS`` is unset.  Every command's artifacts are
checked (see ``Checker``); a command fails if it exits non-zero, raises or
fails a check.

``--trace 0`` reports the end-to-end metrics, with wall times scaled to a
fixed host speed by samples of reference work taken between the commands
(``HostClock``).  ``--trace 1`` runs whole cycles, each command once
untraced and once traced, and reports per-layer metrics per cycle, the
tracing overhead, and the spans in
``.bench_build/schedlab-bench/trace-<workload>.csv``.  The last line of
standard output is the result as JSON; NOTES.md explains every metric.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SCHEDLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from oracle import CHECKS  # noqa: E402
from reference import time_reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_cycle  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build" / "schedlab-bench"

# command_s.tail percentile per workload: the highest round percentile that
# keeps at least ten commands above it at the slowest command rate observed
# at commit bdb0c15 with --seconds 35 (about 36 edit, 22 nstep_sweep and 320
# tables commands).  Fixed, so that a faster version is compared on the
# same percentile.
TAIL_PERCENTILE = {"edit": 70, "nstep_sweep": 50, "tables": 95}
SETUP_REPEATS = 9
# Time metrics are in seconds at the host speed where one reference block
# (reference.py) takes REFERENCE_BLOCK_S; HostClock explains the scaling.
# REFERENCE_BLOCKS is the number of blocks in each sample of the host's speed,
# about 4% of a command's time on edit and nstep_sweep.
REFERENCE_BLOCK_S = 0.005
REFERENCE_BLOCKS = {"edit": 6, "nstep_sweep": 10, "tables": 1}
PROBE_TIMEOUT_S = 60


class Checker:
    """Correctness checks shared by the timed and the traced runs.

    - the independent oracle (oracle.py) on the first run of each command;
    - byte-identical data artifacts (everything but ``*_meta.json``) on
      every later run of the same command;
    - edit-sim: a seed's CSV row must be byte-identical in both of the
      overlapping batches it runs in.
    """

    def __init__(self) -> None:
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.edit_rows: dict[tuple[str, str], tuple[str, str]] = {}
        self.repeat_checks = 0
        self.overlap_checks = 0
        self.oracle_checks = 0

    @staticmethod
    def data_artifacts(files: dict[str, bytes]) -> dict[str, bytes]:
        return {k: v for k, v in files.items() if not k.endswith("_meta.json")}

    @staticmethod
    def digest(files: dict[str, bytes]) -> str:
        h = hashlib.sha256()
        for name in sorted(files):
            h.update(name.encode() + b"\0" + files[name] + b"\0")
        return h.hexdigest()

    def check(self, cmd, files: dict[str, bytes]) -> list[str]:
        data = self.data_artifacts(files)
        digest = self.digest(data)
        if cmd.key not in self.digests:
            self.digests[cmd.key] = digest
            try:
                self.verdicts[cmd.key] = CHECKS[cmd.kind](cmd.config, files)
            except (KeyError, ValueError, IndexError) as exc:
                self.verdicts[cmd.key] = [f"{cmd.key}: unreadable artifacts ({exc!r})"]
            self.oracle_checks += 1
            errors = list(self.verdicts[cmd.key])
        else:
            self.repeat_checks += 1
            errors = list(self.verdicts[cmd.key])
            if digest != self.digests[cmd.key]:
                errors.append(f"{cmd.key}: data artifacts differ from its first run")
        if cmd.kind == "edit" and not errors:
            errors += self._check_overlap(cmd, data[f"{cmd.key}_edit.csv"].decode())
        return errors

    def _check_overlap(self, cmd, text: str) -> list[str]:
        family = json.dumps(cmd.config["schedule"], sort_keys=True)
        errors = []
        for line in text.splitlines()[1:]:
            seed = line.split(",", 1)[0]
            seen = self.edit_rows.get((family, seed))
            if seen is None:
                self.edit_rows[(family, seed)] = (cmd.key, line)
            elif seen[0] != cmd.key:
                self.overlap_checks += 1
                if seen[1] != line:
                    errors.append(f"seed {seed}: row differs between {seen[0]} and {cmd.key}")
        return errors


class Runner:
    """Runs commands of one cycle and keeps the tallies."""

    def __init__(self, cycle, work: Path, checker: Checker) -> None:
        from schedlab import cli

        self.cli = cli
        self.work = work
        self.checker = checker
        self.configs = {}
        (work / "configs").mkdir(parents=True)
        for cmd in cycle:
            path = work / "configs" / f"{cmd.key}.json"
            path.write_text(json.dumps(cmd.config, indent=1))
            self.configs[cmd.key] = path
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, cmd, slot: str, tracer=None) -> tuple[float, dict[str, bytes], list[str]]:
        """Run one command into a clean output directory; return wall time, files, errors."""
        out = self.work / slot
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        argv = [cmd.subcommand, "--config", str(self.configs[cmd.key]), "--out", str(out)]
        captured = io.StringIO()
        errors: list[str] = []
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    rc = tracer.call("cli.main", self.cli.main, argv)
            except (Exception, SystemExit) as exc:  # a raise is a failed command, not a crash
                rc = f"raised {exc!r}"
            wall = time.perf_counter() - start
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        if rc != 0:
            errors.append(f"{cmd.key}: exit {rc}: {captured.getvalue().strip()[-300:]}")
        return wall, files, errors

    def tally(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def run_checked(self, cmd):
        wall, files, errors = self.execute(cmd, "out")
        if not errors:
            errors = self.checker.check(cmd, files)
        self.tally(errors)
        return wall, files, errors


# ---------------------------------------------------------------------------
# end-to-end run


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_probe(cycle, runner: Runner):
    """A callable that times one fresh interpreter importing the CLI and parsing the configs."""
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)]
    argv += [str(runner.configs[cmd.key]) for cmd in cycle]

    def probe() -> float:
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0 or proc.stdout.strip() != str(len(cycle)):
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        return wall

    return probe


class HostClock:
    """Wall times scaled to a fixed host speed.

    The host's speed drifts by ±20% within seconds.  Every timed item (a
    command or a set-up probe) is bracketed by samples of ``reference_block``,
    ``blocks`` blocks each; the sample after one item is the sample before the
    next.  An item's scaled time is its wall time x ``REFERENCE_BLOCK_S`` /
    the mean block time of the two samples around it: its seconds on a host
    where one reference block takes exactly ``REFERENCE_BLOCK_S``.
    """

    def __init__(self, blocks: int) -> None:
        self.blocks = blocks
        self.block_s: list[float] = []
        self.last = self._sample()

    def _sample(self) -> float:
        total = sum(time_reference() for _ in range(self.blocks))
        self.block_s.append(total / self.blocks)
        return self.block_s[-1]

    def scale(self, wall: float) -> float:
        """Scaled time of the item that just took ``wall`` seconds; takes the sample after it."""
        before = self.last
        self.last = self._sample()
        return wall * REFERENCE_BLOCK_S / (0.5 * (before + self.last))


def end_to_end(workload: str, cycle, runner: Runner, seconds: float) -> tuple[dict, dict]:
    probe = setup_probe(cycle, runner)
    runner.run_checked(cycle[0])  # warm-up; the loop below repeats it at once
    clock = HostClock(REFERENCE_BLOCKS[workload])
    setups, setup_walls = [], []

    def timed_probe():
        setup_walls.append(probe())
        setups.append(clock.scale(setup_walls[-1]))

    timed_probe()
    walls: list[float] = []
    scaled: list[float] = []
    work = 0
    while sum(walls) < seconds:
        cmd = cycle[len(walls) % len(cycle)]
        wall, _, errors = runner.run_checked(cmd)
        walls.append(wall)
        scaled.append(clock.scale(wall))
        if not errors:
            work += cmd.work
        # Set-up probes are spread over the run rather than taken back to back.
        if len(setups) < SETUP_REPEATS and sum(walls) >= seconds * len(setups) / SETUP_REPEATS:
            timed_probe()
    while len(setups) < SETUP_REPEATS:
        timed_probe()
    p = TAIL_PERCENTILE[workload]
    tail = percentile(scaled, p)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "command_s.p50": (statistics.median(scaled), "s"),
        "command_s.tail": (tail, "s"),
        "work_per_s": (work / sum(scaled), "1/s"),
        "success_frac": (1.0 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {
        "commands_timed": len(walls),
        "tail_percentile": p,
        "commands_beyond_tail": sum(1 for w in scaled if w > tail),
        "reference_block_s.median": statistics.median(clock.block_s),
        "wall_s.setup": statistics.median(setup_walls),
        "wall_s.p50": statistics.median(walls),
        "wall_s.tail": percentile(walls, p),
        "wall_work_per_s": work / sum(walls),
    }
    return metrics, dict(info, command_walls_s=walls, setup_walls_s=setup_walls)


# ---------------------------------------------------------------------------
# traced run


def traced(workload: str, cycle, runner: Runner, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    runner.run_checked(cycle[0])  # warm-up
    untraced_s = traced_s = 0.0
    table_s = None
    bytes_written = 0
    cycles = 0
    elapsed = last = 0.0
    while cycles == 0 or elapsed + last <= seconds:
        start = time.perf_counter()
        for cmd in cycle:
            wall, plain, errors = runner.execute(cmd, "plain")
            untraced_s += wall
            if not errors:
                errors = runner.checker.check(cmd, plain)
            runner.tally(errors)

            tracer.command += 1
            first = len(tracer)
            with tracer:
                wall, files, errors = runner.execute(cmd, "traced", tracer)
            command_totals = tracer.totals(first)
            if cmd.key == "dump_scaled_linear" and cycles == 0:
                table_s = command_totals.get("schedules.build_table", {}).get("total_s")
            traced_s += wall
            bytes_written += sum(len(b) for b in files.values())
            if not errors:
                errors = runner.checker.check(cmd, files)
            data = Checker.data_artifacts
            if data(files) != data(plain):
                errors.append(f"{cmd.key}: traced artifacts differ from untraced ones")
            errors += self_test(cmd, command_totals)
            runner.tally(errors)
        cycles += 1
        last = time.perf_counter() - start
        elapsed += last

    totals = tracer.totals()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    tracer.write(WORK_ROOT / f"trace-{workload}.csv")
    overhead = traced_s - untraced_s
    metrics = layer_metrics(totals, cycles, overhead, untraced_s, bytes_written)
    info = {
        "cycles": cycles,
        "spans": len(tracer),
        "untraced_s_per_cycle": untraced_s / cycles,
        "traced_s_per_cycle": traced_s / cycles,
        "cross_check": cross_check(totals, len(tracer), traced_s, overhead, table_s),
    }
    return metrics, info


def self_test(cmd, totals: dict) -> list[str]:
    """Predictor row counts of one traced command against their closed forms."""
    guided = totals.get("models.guided_eps", {}).get("rows", 0)
    exact = totals.get("models.exact_eps", {}).get("rows", 0)
    errors = []
    if guided != cmd.guided_rows:
        errors.append(f"{cmd.key}: guided_eps rows {guided}, closed form {cmd.guided_rows}")
    if exact != 2 * guided:
        errors.append(f"{cmd.key}: exact_eps rows {exact} != 2 x guided_eps rows {guided}")
    return errors


def layer_metrics(totals: dict, cycles: int, overhead: float, untraced_s: float, bytes_written: int) -> dict:
    def stat(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def self_sum(match) -> float:
        return sum(v["self_s"] for k, v in totals.items() if match(k))

    raw = {}
    for name, stats in (
        ("models.exact_eps", ("calls", "rows", "self_s")),
        ("models.guided_eps", ("calls", "rows", "self_s")),
        ("models.data_variance", ("calls",)),
        ("models.sample_x0", ("self_s",)),
        ("sampler.run_inversion", ("calls", "self_s")),
        ("sampler.run_reverse", ("calls", "self_s")),
        ("sampler.pinned_reconstruction", ("calls", "self_s")),
        ("sampler.ddim_invert_step", ("calls", "self_s")),
        ("sampler.ddim_reverse_step", ("calls", "self_s")),
        ("schedules.build_table", ("calls", "rows", "self_s")),
        ("schedules.eval_alpha_bar", ("calls", "self_s")),
        ("schedules.scaled_linear_alpha_bar_product", ("self_s",)),
        ("calculus.singularity_scan", ("rows", "self_s")),
        ("calculus.dx_dt_coefficients", ("calls",)),
        ("calculus.logsnr_linearity_fit", ("self_s",)),
    ):
        for key in stats:
            raw[f"{name}.{key}"] = stat(name, key)
    raw["schedules.product_factors"] = stat("schedules.scaled_linear_alpha_bar_product", "rows")
    raw["metrics.self_s"] = self_sum(lambda k: k.startswith("metrics."))
    raw["harness.self_s"] = self_sum(lambda k: k.startswith("harness."))
    raw["cli.parse_s"] = self_sum(lambda k: k == "cli.load_config" or k.startswith("cli.parse_"))
    raw["cli.main.self_s"] = stat("cli.main", "self_s")
    raw["cli.bytes_written"] = bytes_written
    raw["trace.overhead_s"] = overhead
    def unit(name: str) -> str:
        if name.endswith((".calls", ".rows", ".product_factors")):
            return "count"
        return "bytes" if name.endswith(".bytes_written") else "s"

    metrics = {name: (value / cycles, unit(name)) for name, value in raw.items()}
    metrics["trace.overhead_frac"] = (overhead / untraced_s, "ratio")
    return metrics


def cross_check(totals: dict, spans: int, traced_s: float, overhead: float, table_s) -> dict:
    """Figures to set beside the baseline in ROADMAP.md (predictor share, per-call cost, table build)."""
    per_span = 1e6 * overhead / max(spans, 1)
    out = {"tracing_overhead_per_span_us": per_span}
    guided = totals.get("models.guided_eps")
    if guided:
        out["guided_eps_us_per_call_traced"] = 1e6 * guided["total_s"] / guided["calls"]
        # a guided call holds its own span and two exact_eps spans
        out["guided_eps_us_per_call_est_untraced"] = out["guided_eps_us_per_call_traced"] - 3 * per_span
        out["predictor_share_traced"] = guided["total_s"] / traced_s
    if table_s is not None:
        out["scaled_linear_1001_row_table_s_traced"] = table_s
    return out


# ---------------------------------------------------------------------------
# environment and entry point


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "schedlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be > 0 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "schedlab" / "cli.py").is_file():
        print(f"schedlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the benchmark and its set-up probes, so that the reference
    # samples and the work they scale run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cycle = make_cycle(args.workload, args.seed)
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        runner = Runner(cycle, work, Checker())
        run = traced if args.trace else end_to_end
        metrics, info = run(args.workload, cycle, runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checker = runner.checker
    info.update(
        oracle_checks=checker.oracle_checks,
        repeat_checks=checker.repeat_checks,
        overlap_checks=checker.overlap_checks,
    )
    if not checker.repeat_checks or (args.workload == "edit" and not checker.overlap_checks):
        runner.errors.append("a byte-identity check did not run")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, environment=environment(args.workload, args.seed), info=info, errors=runner.errors[:50])
    (WORK_ROOT / "results").mkdir(exist_ok=True)
    out = WORK_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in runner.errors[:20]:
        print(f"check failed: {line}")
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"info: {json.dumps({k: v for k, v in info.items() if not k.endswith('walls_s')})}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Independent reference implementations that check the CLI's artifacts.

Nothing here imports schedlab.  The four schedule families, the exact
two-component mixture predictor and the DDIM inversion / reverse / pinned
loops are written again from their closed forms (see the package README and
module docstrings for the conventions they follow), batched over seeds with
numpy.  Each ``check_*`` function returns a list of mismatch messages; an
empty list means the artifact agrees with the reference.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ALPHA_MIN = 1e-15
BETA_MAX = 0.999

# Reference-vs-program tolerances.  The program and the oracle evaluate the
# same closed forms in a different order (batched einsum against per-seed
# matmul), which moves results by a few ulps: observed relative gaps are
# below 3e-12.  A wrong step (an off-by-one timestep, a missing correction,
# a wrong noise level) moves every checked quantity by 1e-4 relative or more.
DDIM_RTOL = 1e-9
# Distances that are zero by construction (pinned edit drift, the local error
# at the last grid point) come out as rounding noise: usually below 1e-13,
# up to 1.2e-12 for a seed drawn between the two clusters, where the
# predictor's responsibilities are near 1/2.  A broken pinned correction
# gives a drift of the order of the free edit drift, about 0.1.
DDIM_ATOL = 1e-9
TABLE_RTOL = 1e-10
TABLE_ATOL = 1e-13
# dx/dt coefficients near t=0 divide by sqrt(1 - alpha_bar) with
# 1 - alpha_bar ~ 1e-8, which amplifies an ulp in alpha_bar to ~1e-9.
SCAN_RTOL = 1e-6


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= rtol * abs(want) + atol


# ---------------------------------------------------------------------------
# schedules


def _sig(z: float) -> float:
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


class Schedule:
    """Closed-form alpha_bar(t) and its derivative for one config section."""

    def __init__(self, section: dict):
        self.family = section["family"]
        self.T = int(section.get("T", 1000))
        T = self.T
        self.k = float(section.get("k", 0.015))
        self.t0 = float(section.get("t0", float(int(0.6 * T))))
        self.s = float(section.get("s", 0.008))
        self.lo = float(section.get("sigmoid_start", -3.0))
        self.hi = float(section.get("sigmoid_end", 3.0))
        self.tau = float(section.get("sigmoid_tau", 1.0))
        # prod_{i=1..t} (1 - min(beta_i, 0.999)), beta_i = 0.1/T + 19.9 i / (T (T-1))
        betas = np.minimum(0.1 / T + 19.9 * np.arange(1, T + 1) / (T * (T - 1.0)), BETA_MAX)
        self._product = np.concatenate(([1.0], np.cumprod(1.0 - betas)))

    def _angle(self, t: float) -> float:
        return (t / self.T + self.s) / (1.0 + self.s) * (math.pi / 2.0)

    def raw(self, t: float) -> float:
        """Smooth closed form, before clamping (the scaled-linear exponential closure)."""
        T = self.T
        if self.family == "scaled_linear":
            return math.exp(-0.1 * t / T - 19.9 * t * (t + 1.0) / (2.0 * T * (T - 1.0)))
        if self.family == "cosine":
            return math.cos(self._angle(t)) ** 2 / math.cos(self._angle(0.0)) ** 2
        if self.family == "sigmoid":
            v_lo, v_hi = _sig(self.lo / self.tau), _sig(self.hi / self.tau)
            z = ((t / T) * (self.hi - self.lo) + self.lo) / self.tau
            return (v_hi - _sig(z)) / (v_hi - v_lo)
        return _sig(-self.k * (t - self.t0))

    def alpha_bar(self, t: float) -> float:
        """Table value: the exact beta product at integer scaled-linear t."""
        if self.family == "scaled_linear" and float(t).is_integer():
            a = float(self._product[int(t)])
        else:
            a = self.raw(t)
        return min(max(a, ALPHA_MIN), 1.0)

    def alpha_bar_continuous(self, t: float) -> float:
        return min(max(self.raw(t), ALPHA_MIN), 1.0)

    def d_alpha_bar(self, t: float) -> float:
        T = self.T
        if self.family == "scaled_linear":
            fp = -0.1 / T - 19.9 * (2.0 * t + 1.0) / (2.0 * T * (T - 1.0))
            return self.raw(t) * fp
        if self.family == "cosine":
            du = math.pi / (2.0 * T * (1.0 + self.s))
            return -math.sin(2.0 * self._angle(t)) * du / math.cos(self._angle(0.0)) ** 2
        if self.family == "sigmoid":
            v_lo, v_hi = _sig(self.lo / self.tau), _sig(self.hi / self.tau)
            sz = _sig(((t / T) * (self.hi - self.lo) + self.lo) / self.tau)
            return -sz * (1.0 - sz) * (self.hi - self.lo) / (T * self.tau) / (v_hi - v_lo)
        a = self.raw(t)
        return -self.k * a * (1.0 - a)


# ---------------------------------------------------------------------------
# models and DDIM loops

Model = tuple[np.ndarray, np.ndarray, np.ndarray]  # weights (K,), means (K, d), variances (K,)


def mixture8(shift: float) -> Model:
    """The two-cluster dim-8 testbed: clusters at +-2 on axis 0, shifted on axis 1."""
    mu = np.zeros((2, 8))
    mu[:, 0] = (2.0, -2.0)
    mu[:, 1] = shift
    return np.array([0.5, 0.5]), mu, np.array([0.25, 0.25])


MODELS = {
    "mixture8.uncond": mixture8(0.0),
    "mixture8.source": mixture8(0.0),
    "mixture8.target": mixture8(1.5),
}


def predict(model: Model, x: np.ndarray, a: float) -> np.ndarray:
    """Exact MMSE noise estimate for a batch x of shape (S, d)."""
    w, mu, var = model
    s2 = a * var + (1.0 - a)
    diff = x[:, None, :] - math.sqrt(a) * mu[None, :, :]
    per = math.sqrt(1.0 - a) * diff / s2[None, :, None]
    sq = np.einsum("skd,skd->sk", diff, diff)
    log_r = np.log(w) - 0.5 * (mu.shape[1] * np.log(2.0 * math.pi * s2) + sq / s2)
    r = np.exp(log_r - log_r.max(axis=1, keepdims=True))
    r /= r.sum(axis=1, keepdims=True)
    return np.einsum("sk,skd->sd", r, per)


def guided(pair: tuple[Model, Model], x: np.ndarray, a: float, w: float) -> np.ndarray:
    e_u = predict(pair[0], x, a)
    if w == 0.0:
        return e_u
    return e_u + w * (predict(pair[1], x, a) - e_u)


def invert_step(x, e, a_prev, a_t):
    drift = math.sqrt(a_t) * (math.sqrt(1.0 / a_t - 1.0) - math.sqrt(1.0 / a_prev - 1.0))
    return math.sqrt(a_t / a_prev) * x + drift * e


def reverse_step(x, e, a_t, a_prev, eta=0.0, z=None):
    sigma = 0.0
    if eta > 0.0:
        sigma = eta * math.sqrt((1.0 - a_prev) / (1.0 - a_t)) * math.sqrt(1.0 - a_t / a_prev)
    rad = max(1.0 - a_prev - sigma * sigma, 0.0)
    x0_hat = (x - math.sqrt(1.0 - a_t) * e) / math.sqrt(a_t)
    out = math.sqrt(a_prev) * x0_hat + math.sqrt(rad) * e
    return out + sigma * z if sigma > 0.0 else out


class Run:
    """One scenario's grid, schedule levels and sampler settings."""

    def __init__(self, config: dict, n_steps: int):
        self.sched = Schedule(config["schedule"])
        sampler = config["sampler"]
        self.n = n_steps
        self.eta = float(sampler.get("eta", 0.0))
        self.w_inv = float(sampler.get("w_invert", 3.5))
        self.w_rev = float(sampler.get("w_reverse", 7.5))
        offset = int(sampler.get("step_offset", 1))
        step = self.sched.T / n_steps
        self.grid = [i * step + offset for i in range(n_steps)]
        self.alphas = [self.sched.alpha_bar(t) for t in self.grid]
        self.a0 = self.sched.alpha_bar(0.0)
        self.clamped = self.a0 >= 1.0
        models = config["models"]
        self.src = (MODELS[models["uncond"]], MODELS[models["source"]])
        self.tgt = (MODELS[models["uncond"]], MODELS[models["target"]]) if "target" in models else None

    def x0(self, seeds) -> np.ndarray:
        w, mu, var = self.src[1]
        rows = []
        for seed in seeds:
            rng = np.random.Generator(np.random.Philox(key=int(seed)))
            idx = rng.choice(len(w), size=1, p=w)
            z = rng.standard_normal((1, mu.shape[1]))
            rows.append((mu[idx] + np.sqrt(var[idx])[:, None] * z)[0])
        return np.array(rows)

    def noise(self, seeds) -> np.ndarray | None:
        """Per-seed Philox noise for each stochastic reverse step, in draw order."""
        if self.eta <= 0.0:
            return None
        shape = (self.n - 1 + (0 if self.clamped else 1), self.src[1][1].shape[1])
        return np.stack(
            [np.random.Generator(np.random.Philox(key=int(s))).standard_normal(shape) for s in seeds],
            axis=1,
        )

    def invert(self, x0: np.ndarray) -> np.ndarray:
        al, n = self.alphas, self.n
        states = [x0]
        e = guided(self.src, x0, al[0] if self.clamped else self.a0, self.w_inv)
        states.append(x0 if self.clamped else invert_step(x0, e, self.a0, al[0]))
        for j in range(1, n):
            e = guided(self.src, states[j], al[j - 1], self.w_inv)
            states.append(invert_step(states[j], e, al[j - 1], al[j]))
        return np.stack(states)

    def reverse(self, pair, x_T: np.ndarray, noise=None) -> np.ndarray:
        al, n = self.alphas, self.n
        states = [x_T]
        for k, j in enumerate(range(n - 1, 0, -1)):
            e = guided(pair, states[-1], al[j], self.w_rev)
            z = None if noise is None else noise[k]
            states.append(reverse_step(states[-1], e, al[j], al[j - 1], self.eta, z))
        e = guided(pair, states[-1], al[0], self.w_rev)
        if self.clamped:
            states.append(states[-1])
        else:
            z = None if noise is None else noise[n - 1]
            states.append(reverse_step(states[-1], e, al[0], self.a0, self.eta, z))
        return np.stack(states)

    def pinned(self, inv: np.ndarray) -> np.ndarray:
        """End state of the reverse run pinned to the stored inversion path (eta = 0)."""
        al, n = self.alphas, self.n
        x = inv[n]
        for j in range(n - 1, 0, -1):
            e_src = guided(self.src, inv[j + 1], al[j], self.w_rev)
            correction = inv[j] - reverse_step(inv[j + 1], e_src, al[j], al[j - 1])
            e = guided(self.tgt, x, al[j], self.w_rev)
            x = reverse_step(x, e, al[j], al[j - 1]) + correction
        if self.clamped:
            return x + inv[0] - inv[1]
        e_src = guided(self.src, inv[1], al[0], self.w_rev)
        correction = inv[0] - reverse_step(inv[1], e_src, al[0], self.a0)
        e = guided(self.tgt, x, al[0], self.w_rev)
        return reverse_step(x, e, al[0], self.a0) + correction


def _mse(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a - b
    return np.mean(d * d, axis=-1)


def _drift(x0: np.ndarray, edited: np.ndarray, direction: np.ndarray) -> np.ndarray:
    u = direction / np.linalg.norm(direction)
    delta = edited - x0
    return np.linalg.norm(delta - (delta @ u)[:, None] * u, axis=-1)


def _psnr(mean_mse: float, max_val: float) -> float:
    return math.inf if mean_mse == 0.0 else 10.0 * math.log10(max_val * max_val / mean_mse)


def _max_val(model: Model) -> float:
    w, mu, var = model
    return float(max(np.max(np.abs(m)) + 4.0 * math.sqrt(v) for m, v in zip(mu, var)))


def roundtrip(config: dict, n_steps: int) -> dict:
    """Mean roundtrip MSE, PSNR and mean local errors over the config's seeds."""
    run = Run(config, n_steps)
    seeds = config["seeds"]
    inv = run.invert(run.x0(seeds))
    rev = run.reverse(run.src, inv[-1], run.noise(seeds))
    mse = _mse(inv[0], rev[-1])
    local = np.linalg.norm(inv[1:] - rev[-2::-1], axis=-1)  # (n, S): grid point g vs reverse state n-1-g
    mean_mse = float(np.mean(mse))
    return {
        "roundtrip_mse": mean_mse,
        "roundtrip_psnr": _psnr(mean_mse, _max_val(run.src[1])),
        "local_errors": np.mean(local, axis=1),
        "start_clamped": run.clamped,
    }


def edit(config: dict) -> dict[int, tuple[float, float, float]]:
    """Per-seed (edit_drift, pinned_edit_drift, roundtrip_mse) of an edit-sim config."""
    run = Run(config, int(config["sampler"]["n_steps"]))
    seeds = config["seeds"]
    x0 = run.x0(seeds)
    inv = run.invert(x0)
    recon = run.reverse(run.src, inv[-1])[-1]
    edited = run.reverse(run.tgt, inv[-1])[-1]
    pinned = run.pinned(inv)
    direction = run.tgt[1][1].T @ run.tgt[1][0] - run.src[1][1].T @ run.src[1][0]
    drift = _drift(x0, edited, direction)
    pinned_drift = _drift(x0, pinned, direction)
    mse = _mse(x0, recon)
    return {s: (drift[i], pinned_drift[i], mse[i]) for i, s in enumerate(seeds)}


def guided_rows(config: dict, kind: str) -> int:
    """Closed-form count of states passed through the guided predictor.

    Roundtrip: (N+1) predictions on each of the two trajectories per seed.
    Edit: inversion, reconstruction and edited runs take N+1 each; the
    pinned run predicts source and target on N-1 steps, then the target
    twice more, plus one source prediction when t=0 is a genuine step.
    """
    seeds = len(config["seeds"])
    if kind == "sweep":
        return sum(2 * seeds * (n + 1) for n in config["sweep"]["values"])
    n = int(config["sampler"]["n_steps"])
    clamped = Schedule(config["schedule"]).alpha_bar(0.0) >= 1.0
    return (5 * n + (3 if clamped else 4)) * seeds


# ---------------------------------------------------------------------------
# artifact checks


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


def check_edit(config: dict, files: dict[str, bytes]) -> list[str]:
    name = config["name"]
    header, rows = _rows(files[f"{name}_edit.csv"].decode())
    if header != ["seed", "edit_drift", "pinned_edit_drift", "roundtrip_mse"]:
        return [f"{name}: unexpected edit.csv header {header}"]
    want = edit(config)
    if [int(r[0]) for r in rows] != list(config["seeds"]):
        return [f"{name}: edit.csv seeds differ from the config"]
    errors = []
    for row in rows:
        ref = want[int(row[0])]
        for label, got, exp in zip(header[1:], row[1:], ref):
            if not _close(float(got), float(exp), DDIM_RTOL, DDIM_ATOL):
                errors.append(f"{name} seed {row[0]}: {label} {got} vs oracle {exp!r}")
    return errors


def check_sweep(config: dict, files: dict[str, bytes]) -> list[str]:
    name = config["name"]
    values = config["sweep"]["values"]
    header, rows = _rows(files[f"{name}_sweep.csv"].decode())
    reports = json.loads(files[f"{name}_sweep_reports.json"])
    if header[:4] != ["axis", "value", "roundtrip_mse", "roundtrip_psnr"]:
        return [f"{name}: unexpected sweep.csv header {header}"]
    if len(rows) != len(values) or len(reports) != len(values):
        return [f"{name}: expected {len(values)} sweep rows"]
    errors = []
    for n, row, rep in zip(values, rows, reports):
        ref = roundtrip(config, n)
        if row[:2] != ["n_steps", json.dumps(n)] or rep["n_steps"] != n:
            errors.append(f"{name}: row for n_steps={n} is {row[:2]}")
            continue
        for label, got in (("roundtrip_mse", float(row[2])), ("roundtrip_psnr", float(row[3]))):
            if not _close(got, ref[label], DDIM_RTOL, DDIM_ATOL):
                errors.append(f"{name} N={n}: {label} {got!r} vs oracle {ref[label]!r}")
        if rep["start_clamped"] != ref["start_clamped"]:
            errors.append(f"{name} N={n}: start_clamped {rep['start_clamped']}")
        local = np.array(rep["local_errors"])
        if local.shape != ref["local_errors"].shape or not np.allclose(
            local, ref["local_errors"], rtol=DDIM_RTOL, atol=DDIM_ATOL
        ):
            errors.append(f"{name} N={n}: local_errors differ from the oracle")
    return errors


def check_dump(config: dict, files: dict[str, bytes]) -> list[str]:
    name = config["name"]
    sched = Schedule(config["schedule"])
    header, rows = _rows(files[f"{name}_schedule.csv"].decode())
    if header != ["t", "alpha_bar", "beta", "snr", "logsnr"] or len(rows) != sched.T + 1:
        return [f"{name}: expected {sched.T + 1} rows under the schedule header"]
    errors = []
    prev = None
    for i, row in enumerate(rows):
        t, a, beta, snr, logsnr = (float(v) for v in row)
        want_a = sched.alpha_bar(float(i))
        want_beta = min(1.0 - want_a if prev is None else 1.0 - want_a / prev, BETA_MAX)
        want_snr = math.inf if want_a >= 1.0 else want_a / (1.0 - want_a)
        want_logsnr = math.inf if want_a >= 1.0 else math.log(want_snr)
        prev = want_a
        ok = (
            t == float(i)
            and _close(a, want_a, TABLE_RTOL, TABLE_ATOL)
            and _close(beta, want_beta, TABLE_RTOL, 1e-12)
            and _close(snr, want_snr, 1e-9)
            and _close(logsnr, want_logsnr, 1e-9, 1e-9)
        )
        if not ok:
            errors.append(f"{name} t={i}: row {row} vs oracle alpha_bar {want_a!r}")
            if len(errors) > 5:
                break
    return errors


def _scan_points(t_min: float, t_max: float, n: int) -> list[float]:
    def geometric(lo, hi, m):
        pts = [lo * (hi / lo) ** (i / (m - 1)) for i in range(m)]
        pts[0], pts[-1] = lo, hi
        return pts

    if t_min > 0.0:
        return geometric(t_min, t_max, n)
    return [0.0] + geometric(t_max * 1e-6, t_max, n - 1)


def check_scan(config: dict, files: dict[str, bytes]) -> list[str]:
    name = config["name"]
    sched = Schedule(config["schedule"])
    scan = config["scan"]
    ts = _scan_points(float(scan["t_min"]), float(scan["t_max"]), int(scan["n"]))
    header, rows = _rows(files[f"{name}_scan.csv"].decode())
    if header != ["t", "coeff_x0", "coeff_eps", "d_alpha_bar_dt", "finite"] or len(rows) != len(ts):
        return [f"{name}: expected {len(ts)} rows under the scan header"]
    errors = []
    for want_t, row in zip(ts, rows):
        t, cx, ce, da = (float(v) for v in row[:4])
        finite = row[4] == "true"
        a = sched.alpha_bar_continuous(want_t)
        ok = _close(t, want_t, 1e-13) and finite == (math.isfinite(cx) and math.isfinite(ce))
        if ALPHA_MIN < a < 1.0:
            want_da = sched.d_alpha_bar(want_t)
            ok = ok and finite and _close(da, want_da, SCAN_RTOL)
            ok = ok and _close(cx, want_da / (2.0 * math.sqrt(a)), SCAN_RTOL)
            ok = ok and _close(ce, -want_da / (2.0 * math.sqrt(1.0 - a)), SCAN_RTOL)
        elif want_t == 0.0:
            # the paper's dichotomy: alpha_bar(0) = 1 with nonzero slope diverges
            ok = ok and not finite and ce == math.inf
        if not ok:
            errors.append(f"{name} t={want_t!r}: row {row}")
            if len(errors) > 5:
                break
    if sched.family == "logistic" and rows[0][4] != "true":
        errors.append(f"{name}: logistic coefficients must be finite at t=0")
    return errors


CHECKS = {"edit": check_edit, "sweep": check_sweep, "dump": check_dump, "scan": check_scan}

"""In-memory span tracer that wraps the lab's public functions from outside.

``Tracer.install`` replaces each traced function in every ``schedlab``
module namespace that binds it (``sampler`` binds ``exact_eps`` at import,
``models.guided_eps`` looks ``exact_eps`` up as a module global, ``cli``
binds ``build_table`` and the scenario runners, and so on), so calls made
through any of those names open a span.  ``uninstall`` puts the original
objects back.  Nothing under ``src/`` changes.

A span records its command id, its parent span, start and end times, its
self time (duration minus the time covered by child spans) and a row count
taken from the result's shape, so batching a call does not change the
count.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import fnmatch
import functools
import sys
import time
from array import array
from pathlib import Path

# module -> public function patterns traced in it
TRACED = {
    "models": ("exact_eps", "guided_eps", "data_variance", "sample_x0"),
    "sampler": (
        "run_inversion",
        "run_reverse",
        "pinned_reconstruction",
        "ddim_invert_step",
        "ddim_reverse_step",
    ),
    "schedules": ("build_table", "eval_alpha_bar", "scaled_linear_alpha_bar_product"),
    "calculus": ("singularity_scan", "dx_dt_coefficients", "logsnr_linearity_fit"),
    "metrics": ("mse", "psnr", "edit_drift"),
    "harness": ("run_*_scenario", "*_once"),
    "cli": ("load_config", "parse_*"),
}


def _leading_rows(result) -> int:
    """States in a predictor result: 1 for a (dim,) vector, S for (S, dim)."""
    shape = getattr(result, "shape", ())
    rows = 1
    for n in shape[:-1]:
        rows *= n
    return rows


def _len_rows(result) -> int:
    return len(getattr(result, "timesteps", result))


def _product_factors(args, kwargs) -> int:
    t = kwargs.get("t", args[1] if len(args) > 1 else 0)
    return int(t)


# name -> rows(args, kwargs, result); unlisted functions count 0 rows
ROWS = {
    "models.exact_eps": lambda a, k, r: _leading_rows(r),
    "models.guided_eps": lambda a, k, r: _leading_rows(r),
    "schedules.build_table": lambda a, k, r: _len_rows(r),
    "calculus.singularity_scan": lambda a, k, r: _len_rows(r),
    "schedules.scaled_linear_alpha_bar_product": lambda a, k, r: _product_factors(a, k),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.command = -1
        self._next_span = 0
        self._stack: list[list] = []  # [span id, child time] of open spans
        # one column per field, so a few hundred thousand spans stay compact
        self.col_cmd = array("q")
        self.col_span = array("q")
        self.col_parent = array("q")
        self.col_name = array("q")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_self = array("d")
        self.col_rows = array("q")
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _record(self, span, parent, nid, start, end, child, rows) -> None:
        self.col_cmd.append(self.command)
        self.col_span.append(span)
        self.col_parent.append(parent)
        self.col_name.append(nid)
        self.col_start.append(start)
        self.col_end.append(end)
        self.col_self.append(end - start - child)
        self.col_rows.append(rows)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span named ``name`` (used for the command root)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        rows_of = ROWS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
            rows = rows_of(args, kwargs, result) if rows_of else 0
            self._record(span, -1 if parent is None else parent[0], nid, start, end, frame[1], rows)
            return result

        return traced

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "schedlab" or name.startswith("schedlab.")
        }
        for short, patterns in TRACED.items():
            home = modules.get(f"schedlab.{short}")
            if home is None:
                continue
            for attr, fn in list(vars(home).items()):
                if not callable(fn) or getattr(fn, "__module__", None) != home.__name__:
                    continue
                if not any(fnmatch.fnmatchcase(attr, p) for p in patterns):
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for mod in modules.values():
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._patched.append((mod, bound, fn))
                            setattr(mod, bound, wrapper)

    def uninstall(self) -> None:
        for mod, bound, fn in reversed(self._patched):
            setattr(mod, bound, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.col_name)

    def totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name, over the spans recorded from index ``first`` on:
        calls, rows, self time and inclusive time."""
        out: dict[str, dict[str, float]] = {}
        for i in range(first, len(self.col_name)):
            agg = out.setdefault(
                self.names[self.col_name[i]], {"calls": 0, "rows": 0, "self_s": 0.0, "total_s": 0.0}
            )
            agg["calls"] += 1
            agg["rows"] += self.col_rows[i]
            agg["self_s"] += self.col_self[i]
            agg["total_s"] += self.col_end[i] - self.col_start[i]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("command,span,parent,name,start_s,end_s,self_s,rows\n")
            for i in range(len(self.col_name)):
                fh.write(
                    f"{self.col_cmd[i]},{self.col_span[i]},{self.col_parent[i]},"
                    f"{self.names[self.col_name[i]]},{self.col_start[i]:.9f},"
                    f"{self.col_end[i]:.9f},{self.col_self[i]:.9f},{self.col_rows[i]}\n"
                )

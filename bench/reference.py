"""Fixed reference work that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
±20% over seconds to minutes.  ``reference_block`` is a fixed piece of work
in the same mix as the lab (an interpreted float loop, numpy calls on small
arrays, numpy on a 4096-point grid), which neither imports nor calls
``schedlab``.  The benchmark times it between its commands and set-up probes
and scales their wall times by it (``run.HostClock``).
"""

from __future__ import annotations

import time

import numpy as np

_SMALL = np.random.default_rng(0).standard_normal((32, 2))
_GRID = np.linspace(0.001, 0.999, 4096)


def _beta(i: int, T: int = 1000) -> float:
    lo, hi = 0.00085**0.5, 0.012**0.5
    return (lo + (hi - lo) * (i - 1) / (T - 1)) ** 2


def reference_block() -> float:
    out = 1.0
    for i in range(1, 1500):
        out *= 1.0 - min(_beta(i), 0.999)
    s = _SMALL
    for _ in range(150):
        s = s * 0.999 + np.tanh(_SMALL) * 0.001
        out += float(np.sum(s * s))
    for _ in range(40):
        x = np.log(_GRID) - np.log1p(-_GRID)
        out += float((np.diff(x) / np.diff(_GRID))[0])
    return out


def time_reference() -> float:
    """Wall seconds of one reference block."""
    start = time.perf_counter()
    reference_block()
    return time.perf_counter() - start

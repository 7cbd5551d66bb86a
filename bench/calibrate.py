"""Speed probe: a fixed reference computation timed between the benchmark's ops.

The machines this benchmark runs on are shared, and their speed drifts by up to
1.5x over a minute or two (see README.md, *Noise*).  A drift that long moves a
whole run, so no estimator inside the run can remove it.  The probe
measures it instead: after each op the runner times a few units of a fixed
computation, and expresses the op's latency in *reference time*, the time the
op would have taken had the machine run the probe at ``UNIT_REF_S`` per unit:

    reference latency = wall latency * UNIT_REF_S / (probe seconds per unit)

The probe unit mixes the two kinds of work the library does: a pure-Python walk
over a multiplication table (like the braid check and the backtrackers) and a
numpy gather over a 2 MB array (like the n^3 validation arrays).  It is part of
the benchmark, never of the program, so it is the same on every commit.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

UNIT_REF_S = 0.001          # seconds per probe unit that define reference time
PROBE_SHARE = 0.15          # probe time after an op, as a share of the op's latency

_N = 22
_TABLE = [[(3 * i + 5 * j + i * j) % _N for j in range(_N)] for i in range(_N)]
_ARRAY = (np.arange(1 << 18, dtype=np.int64) * 7919) % 1009
_INDEX = np.random.default_rng(0).integers(0, 1 << 18, size=1 << 16)


def _unit() -> int:
    t, s = _TABLE, 0
    for a in range(_N):
        ra = t[a]
        for b in range(_N):
            rb = t[ra[b]]
            for c in range(_N):
                s += rb[c]
    return s + int(_ARRAY[_INDEX].sum())


class SpeedProbe:
    """Times probe units and converts wall seconds to reference seconds."""

    def __init__(self):
        for _ in range(5):      # untimed: the first units pay for cold caches and page faults
            _unit()
        self.last = self.measure(UNIT_REF_S * 20)

    def measure(self, busy_s: float) -> float:
        """Run probe units for about PROBE_SHARE * busy_s; returns seconds per unit."""
        units = max(1, math.ceil(PROBE_SHARE * busy_s / UNIT_REF_S))
        started = perf_counter()
        for _ in range(units):
            _unit()
        return (perf_counter() - started) / units

    def reference(self, wall_s: float) -> float:
        """Reference seconds of a span of wall_s that just ended.

        The machine's speed over the span is taken as the mean of the probe
        just before it and a probe run now.
        """
        before, self.last = self.last, self.measure(wall_s)
        return wall_s * UNIT_REF_S / ((before + self.last) / 2)

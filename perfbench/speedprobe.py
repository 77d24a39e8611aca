"""A fixed CPU probe that tracks how fast the shared host runs right now.

The reference machine is a VM shared with other tenants, and its speed
drifts: over eight minutes of back-to-back pool checks, the half-minute
median of the same check moved by 15%. Across the runs of a ten-seed
set, that drift is as large as the changes the benchmark must resolve.
The probe is a fixed piece of pure-Python work owned by the benchmark,
shaped like the program's hottest loop (the RVA adjuster's byte-by-byte
scan of two section copies), so it slows down with the host as the
program does, and no change to the program can move it. In those eight
minutes, pool-check time over probe time moved by 1.6%.

The runner probes before each set-up and before each operation, and
scales each wall time by :data:`REFERENCE_S` over the median of the
probes around it (:func:`scale_factors`). Reported wall times are thus
"as on the reference machine at its fastest". A second process running
beside the benchmark on the same two vCPUs doubles the probe's time,
so run one benchmark at a time.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

__all__ = ["REFERENCE_S", "probe", "scale_factors"]

#: the probe's median time on the reference machine (2-vCPU shared VM,
#: Python 3.11.7) while it ran fastest (12.5-13 ms); a scaled wall time
#: reads as it would have at that speed
REFERENCE_S = 0.0125

_SIZE = 1 << 15
_PASSES = 10


def _inputs() -> tuple[bytearray, bytearray]:
    first = bytearray(random.Random(0).randbytes(_SIZE))
    second = bytearray(first)
    for i in range(0, _SIZE, 61):
        second[i] ^= 1
    return first, second


_FIRST, _SECOND = _inputs()


def probe() -> float:
    """Wall seconds of one fixed byte-by-byte scan of two buffers."""
    a, b, n = _FIRST, _SECOND, _SIZE
    start = perf_counter()
    for _ in range(_PASSES):
        j = diffs = 0
        while j < n:
            if a[j] == b[j]:
                j += 1
                continue
            diffs += 1
            j += 1
    return perf_counter() - start


def scale_factors(probes: list[float], window: int = 9) -> list[float]:
    """Per probe, :data:`REFERENCE_S` over the median of the ``window``
    probes centred on it (fewer at the ends): one probe alone is off by
    3% in the median case and 9% at the 90th percentile."""
    half = window // 2
    return [REFERENCE_S / statistics.median(
                probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]

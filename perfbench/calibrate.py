"""Host-speed calibration: a fixed reference workload timed beside the sweeps.

The benchmark's host is shared.  Its speed drifts by 15 to 50 % over tens
of seconds to minutes, in CPU time as much as in wall time, because other
guests contend for the same cores, caches and memory.  A run that falls in
a slow stretch reports lower throughput for reasons that have nothing to
do with the program, and no statistic over one run's passes removes a
stretch that lasts the whole run.

So the run also times :func:`calibrate` between repetitions: a fixed mix of
the kinds of work the simulator does (small Python objects, dict updates
and method calls; JSON encoding and SHA-256 as in scenario keys; int64
cumulative sums and fancy indexing as in batched pricing).  It uses no code
from ``src/``, so a change to the program leaves it as it is.  The ratio of
its median time in a run to :data:`REFERENCE_S` is the run's *host factor*:
above 1 the host ran slow.  The end-to-end times are reported divided by
the host factor, and throughputs multiplied by it, so they read as on a
host that runs the calibration in :data:`REFERENCE_S` seconds.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

#: Median calibration time on the host of the first baseline (``NOTES.md``).
REFERENCE_S = 0.070


class _Block:
    __slots__ = ("size", "stream", "live")

    def __init__(self, size: int, stream: int) -> None:
        self.size = size
        self.stream = stream
        self.live = True

    def release(self) -> int:
        self.live = False
        return self.size


def _objects() -> int:
    pools = {}
    blocks = []
    for i in range(14_000):
        block = _Block((i * 2654435761) % 65_536, i % 3)
        blocks.append(block)
        key = (block.stream, block.size >> 10)
        pools[key] = pools.get(key, 0) + block.size
        if i % 4 == 3:
            blocks[i - 2].release()
    blocks.sort(key=lambda b: (b.stream, -b.size))
    return sum(block.release() for block in blocks if block.live) + len(pools)


def _keys() -> int:
    total = 0
    for i in range(2_500):
        text = json.dumps({"model": "resnet18", "batch_size": i % 64,
                           "overhead_ns": i * 10, "dtype": ("f32", "f16")[i % 2]},
                          sort_keys=True)
        total += hashlib.sha256(text.encode("utf-8")).digest()[0]
    return total


def _pricing() -> int:
    rng = np.random.default_rng(0)
    durations = rng.integers(1, 1_000, size=(64, 4_096), dtype=np.int64)
    index = rng.integers(0, 4_096, size=2_048)
    total = 0
    for _ in range(6):
        clocks = np.cumsum(durations, axis=1)
        total += int((clocks[:, index] - clocks[:, index // 2]).sum() & 0xFFFF)
    return total


def calibrate() -> float:
    """Seconds the fixed reference workload takes on this host right now."""
    started = time.perf_counter()
    _objects()
    _keys()
    _pricing()
    return time.perf_counter() - started

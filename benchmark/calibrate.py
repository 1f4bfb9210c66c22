"""A fixed yardstick of the machine's speed, run between a workload's steps.

The reference machine is a share of a host whose other tenants slow it by
a fifth to a third for minutes at a time.  Timing the program alone makes
a run's median follow that load.  A run therefore interleaves short chunks
of fixed work (interpreted Python over dicts and tuples and numpy gathers
on a 72 kB array, the mix the program's own steps are made of, on data
that stays in the core's caches so the program's memory use does not
reach it) with the program's steps.  Both see the same load, so
the program's time over the chunks' time follows the program and not the
host.  `speed_factor` turns that ratio back into seconds at the speed the
reference machine had when it was quiet.

The chunks use nothing of ccsolid, so a change to the program cannot move
them.  They are not timed as part of any operation.
"""

import time

import numpy as np

# time of one chunk on the reference machine when it was quiet (2-core Xeon
# VM, Python 3.11, numpy 2.4; 4.8 ms fastest, 6.5 ms median of 500 chunks);
# it only scales the reports
CHUNK_NOMINAL_S = 0.005

_SMALL = (np.arange(9000, dtype=np.float64) % 7.0).reshape(3000, 3)
_IDX = (np.arange(3000) * 7919) % 3000


def _chunk():
    d = {}
    for i in range(16000):
        d[(i * 7919) % 5003, i & 15] = i
    x = _SMALL
    for _ in range(64):
        x = np.take(x, _IDX, axis=0) * 0.5 + 1.0
    return len(d) + float(x[0, 0])


class Yardstick:
    """Runs and times calibration chunks; `total_s` over `chunks` is the
    machine's current pace."""

    def __init__(self):
        self.chunks = 0
        self.total_s = 0.0

    def tick(self, n=1):
        """Run `n` chunks; return their time."""
        t0 = time.perf_counter()
        for _ in range(n):
            _chunk()
        dt = time.perf_counter() - t0
        self.chunks += n
        self.total_s += dt
        return dt

    def speed_factor(self):
        """Nominal over measured mean chunk time, below 1 when the machine
        ran slower than the quiet reference: a time measured alongside the
        chunks, times this factor, is the time at the reference speed."""
        return CHUNK_NOMINAL_S * self.chunks / self.total_s

"""Sustainable memory read bandwidth, the yardstick for iga.matvec_gbps.

    python3 benchmark/membw.py

Streams one float32 array of four times the last-level cache, and at least
1280 MiB (1280 MiB when the cache size cannot be read), through a BLAS
matrix-vector product with the benchmark's BLAS thread cap, the access
pattern of Assembly.matvec's batched products, and through a
single-threaded numpy sum.  Prints the best of REPEATS passes of each in
GB/s (1e9 bytes).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import cap_blas_threads  # noqa: E402

MIN_BYTES = 1280 * 1024 * 1024
REPEATS = 5


def llc_bytes():
    """Size of the largest CPU cache listed for cpu0, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = []
    try:
        entries = [e for e in os.listdir(base) if e.startswith("index")]
        for entry in entries:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
            mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            sizes.append(int(text.rstrip("KM")) * mult)
    except (OSError, ValueError):
        return None
    return max(sizes, default=None)


def main():
    blas = cap_blas_threads()
    import numpy as np

    llc = llc_bytes()
    nbytes = max(4 * llc, MIN_BYTES) if llc else MIN_BYTES
    cols = 4096
    a = np.ones((nbytes // 4 // cols, cols), dtype=np.float32)
    x = np.ones(cols, dtype=np.float32)
    print("array %d MiB; last-level cache %s; BLAS threads %s"
          % (a.nbytes >> 20,
             "%d MiB" % (llc >> 20) if llc else "unknown",
             blas["OPENBLAS_NUM_THREADS"]))
    for label, fn in (("BLAS gemv (float32 stream)", lambda: a @ x),
                      ("numpy sum, one thread", lambda: a.sum())):
        best = 0.0
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            best = max(best, a.nbytes / (time.perf_counter() - t0) / 1e9)
        print("%-28s %7.2f GB/s" % (label, best))


if __name__ == "__main__":
    main()

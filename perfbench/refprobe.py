"""Host reference probe: a fixed unit of stdlib + NumPy work, timed.

The serving host drifts: the same unit of work takes 1.5-2x longer for
seconds at a time, on each vCPU independently.  The benchmark runs this
probe before and after every timed window and reports its median as
``host.ref_ms``, so a reader can tell host drift apart from a change in
the program.  The probe must not import anything from ``repro``: it
measures the host, not the code under test (``selftest.py`` checks this).
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

#: Hash calls per unit; with the NumPy pass one unit takes ~15 ms.
HASHES = 20_000
ARRAY = np.arange(200_000, dtype=np.uint64)


def unit(hashes: int = HASHES) -> None:
    """One fixed unit of work: keyed-hash calls plus a vector pass."""
    blake = hashlib.blake2b
    for i in range(hashes):
        blake(i.to_bytes(8, "little"), digest_size=16).digest()
    mixed = ARRAY * np.uint64(0x9E3779B97F4A7C15)
    np.bitwise_xor(mixed, ARRAY >> np.uint64(7), out=mixed)
    int(mixed.sum())


def sample(seconds: float) -> list:
    """Unit durations in ms, for about ``seconds`` of wall time (>= 3)."""
    durations = []
    end = time.perf_counter() + seconds
    while len(durations) < 3 or time.perf_counter() < end:
        start = time.perf_counter()
        unit()
        durations.append((time.perf_counter() - start) * 1e3)
    return durations


if __name__ == "__main__":
    values = sample(2.0)
    print(f"host.ref_ms median {statistics.median(values):.3f} over {len(values)} units")

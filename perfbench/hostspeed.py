"""Fixed reference loads that tell how fast the host runs at the moment.

On a small shared host the speed of a core drifts by up to 1.4x over tens of
seconds, with the load of the other guests, and whole stretches of 20-30 s
run slow.  A median of raw times then depends on when it was taken more than
on the program.  The benchmark therefore runs a probe before and after every
timed sample and divides the sample by the mean of those two probe times;
the median of these ratios, times the probe's median on the reference host,
reads as seconds on that host.

Neither probe uses bplab or anything bplab changes, so a change to bplab
moves the scaled time by the same factor as the raw one.

- `HostProbe`, for run times, mixes the kinds of work the workloads do: a
  pure-Python dict loop (interpreter), small numpy calls (allocation and call
  overhead) and a dense complex matrix product (BLAS, floating point, cache).
- `import_probe`, for set-up times, imports standard-library modules in a
  fresh interpreter, as a set-up sample imports bplab, numpy and scipy: the
  in-process probe does not track import time.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# The probes' median times on the reference host, a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread).
RUN_REFERENCE_S = 0.13
IMPORT_REFERENCE_S = 0.11

_LOOP_STEPS = 200_000
_SMALL_CALLS = 6_000
_PRODUCTS = 9
_SIZE = 250
_IMPORT_CODE = (
    "import time; start = time.perf_counter(); "
    "import argparse, asyncio, ctypes, decimal, email.mime.multipart, http.client, "
    "json, logging, sqlite3, unittest, xml.dom.minidom; "
    "print(repr(time.perf_counter() - start))"
)


class HostProbe:
    def __init__(self):
        gen = np.random.default_rng(0)
        self._z = gen.standard_normal((_SIZE, _SIZE)) + 1j * gen.standard_normal((_SIZE, _SIZE))

    def __call__(self) -> float:
        """Run the reference load once; return its wall time in seconds."""
        start = time.perf_counter()
        table: dict[int, float] = {}
        for i in range(_LOOP_STEPS):
            table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        total = 0.0
        for i in range(_SMALL_CALLS):
            total += np.zeros(1000).sum() + np.array([i]).sum()
        for _ in range(_PRODUCTS):
            (self._z @ self._z.conj().T).real.sum()
        return time.perf_counter() - start


def import_probe(timeout: float) -> float:
    """Import time of the reference modules in a fresh interpreter, in seconds."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_CODE], capture_output=True,
                         text=True, timeout=timeout, check=True)
    return float(out.stdout.split()[-1])


def scaled(times: list[float], probes: list[float], reference: float) -> float:
    """Median of times[i] over the mean of probes[i] (just before it) and
    probes[i + 1] (just after it), times `reference`."""
    ratios = [2.0 * t / (before + after) for t, before, after in zip(times, probes, probes[1:])]
    return reference * statistics.median(ratios)

"""Per-layer tracing for the benchmark.

Spans are recorded from outside the library: each public name on the `run`
path is replaced, in the module that looks it up at call time, by a wrapper
that times the call and counts it.  A span's self time is its duration
minus the time of the spans it encloses.  The library is single-threaded on
this path (``BPLAB_THREADS=1``), so one stack of open spans is enough.

`cumulants` and `partitions` are not wrapped: `run` never reaches them
(`cumulants` serves only the correctness gate, and no library module imports
`partitions`).
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _normals(args, kwargs, out):
    # real normal variates drawn: a complex normal takes two
    return out.size * (2 if np.iscomplexobj(out) else 1)


def _rows(args, kwargs, out):
    return out.shape[0]


# (module, attribute, span, counter).  The counter, when present, maps
# (args, kwargs, result) to the amount of work done, summed under `span`.
SPANS = (
    ("bplab.cli", "triple_from_spec", "levy.setup", None),
    ("bplab.cli", "is_symmetric", "levy.is_symmetric", None),
    ("bplab.nonhermitian", "is_symmetric", "levy.is_symmetric", None),
    ("bplab.hermitian", "truncate", "levy.truncate", None),
    ("bplab.hermitian", "standard_normal", "rng.normal", _normals),
    ("bplab.hermitian", "standard_complex_normal", "rng.normal", _normals),
    ("bplab.nonhermitian", "standard_normal", "rng.normal", _normals),
    ("bplab.nonhermitian", "standard_complex_normal", "rng.normal", _normals),
    ("bplab.sphere", "standard_complex_normal", "rng.normal", _normals),
    ("bplab.hermitian", "sample_sphere_vectors", "sphere.vectors", _rows),
    ("bplab.nonhermitian", "sample_sphere_vectors", "sphere.vectors", _rows),
    ("bplab.cli", "sample_P_many", "hermitian.sample", None),
    ("bplab.hermitian", "sample_P_gaussian", "hermitian.gaussian_block", None),
    ("bplab.hermitian", "sample_P_compound_poisson", "hermitian.rank_one", None),
    ("bplab.cli", "sample_L_many", "nonhermitian.sample", None),
    ("bplab.nonhermitian", "sample_L_gaussian", "nonhermitian.ginibre", None),
    ("bplab.nonhermitian", "sample_L_compound_poisson", "nonhermitian.rank_one", None),
    ("bplab.cli", "symmetrized_singular_law", "nonhermitian.singular_values", None),
    ("bplab.cli", "esd", "spectra.eigensolve", None),
    ("bplab.cli", "empirical_moments", "spectra.moments", None),
    ("bplab.cli", "cauchy_sup_distance", "spectra.distance", None),
    ("bplab.spectra", "cauchy_transform", "spectra.transform", None),
    ("bplab.spectra", "histogram", "spectra.histogram", None),
)

# Counted but not timed: each construction runs an O(d^2) Hermitian check,
# whose time stays with the span that asked for it.
COUNTS = (("bplab.hermitian", "HermitianSample", "hermitian.checks"),)


class Tracer:
    """Accumulates self time, calls and work counts per span name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self._open: list[list[float]] = []  # child time of each open span

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.work.clear()

    def span(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1
                if self._open:
                    self._open[-1][0] += elapsed
            if counter is not None:
                self.work[name] += counter(args, kwargs, out)
            return out

        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in SPANS and COUNTS; restore them on exit."""
        saved = []
        try:
            for module, attr, name, counter in SPANS:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.span(name, getattr(mod, attr), counter))
            for module, attr, name in COUNTS:
                mod = importlib.import_module(module)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.count(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

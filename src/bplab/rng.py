"""Counter-based random streams for reproducible parallel Monte Carlo.

Each (seed, stream_id) pair names an independent Philox stream, so trials
can be farmed out to workers in any order and still reproduce bit-for-bit.
Normal variates come from numpy's own ziggurat on that stream, and a complex
normal is one interleaved (re, im) pair, so n draws followed by m draws equal
n + m draws in one call, however a caller chunks them.

For one numpy version, draws are bit-identical across CPU SIMD levels
(tests/test_rng.py pins this with a golden hash, and redraws with the
AVX-512 kernels switched off).  numpy does not promise Generator streams
across versions (NEP 19), so another numpy may draw other numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngStream", "standard_normal", "standard_complex_normal"]

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical (seed, stream_id) pairs reproduce identical draws; distinct
    stream_ids are statistically independent.  A single stream must not be
    consumed from two places at once.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & _MASK64) | ((self.stream_id & _MASK64) << 64)
        return np.random.Generator(np.random.Philox(key=key))


def as_generator(rng: "RngStream | np.random.Generator") -> np.random.Generator:
    """Accept either a stream descriptor or an already-materialized generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def standard_normal(gen: np.random.Generator, size) -> np.ndarray:
    """N(0,1) variates: numpy's ziggurat."""
    return gen.standard_normal(size)


def standard_complex_normal(gen: np.random.Generator, size) -> np.ndarray:
    """Standard complex Gaussians, real and imaginary parts N(0, 1/2) each,
    drawn as consecutive (re, im) pairs."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    return gen.standard_normal(shape + (2,)).view(complex)[..., 0] / np.sqrt(2.0)

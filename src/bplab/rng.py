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

__all__ = ["RngStream", "SEED_LIMIT", "standard_normal", "standard_complex_normal"]

# Seeds and stream ids lie in [0, SEED_LIMIT): each is one 64-bit half of the
# Philox key, so a wider one would alias one inside.
SEED_LIMIT = 2**64


@dataclass(frozen=True)
class RngStream:
    """A named, reproducible random stream.

    Identical (seed, stream_id) pairs reproduce identical draws; distinct
    stream_ids are statistically independent.  A single stream must not be
    consumed from two places at once.  Both numbers lie in [0, SEED_LIMIT).
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < SEED_LIMIT and 0 <= self.stream_id < SEED_LIMIT):
            raise ValueError(f"seed and stream_id must be in [0, 2**64), got {self!r}")

    def generator(self) -> np.random.Generator:
        key = self.seed | (self.stream_id << 64)
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
    out = np.empty(shape, dtype=complex)
    parts = out.view(float).reshape(shape + (2,))
    gen.standard_normal(out=parts)
    # numpy divides a complex by a real c as a multiply by 1 / c, so scaling
    # the (re, im) view by 1 / c gives the same bits without the complex loop
    parts *= 1.0 / np.sqrt(2.0)
    return out

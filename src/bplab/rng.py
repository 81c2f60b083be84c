"""Random streams for reproducible parallel Monte Carlo, of two kinds.

- A trial stream: each (seed, stream_id) pair names an independent
  counter-based Philox stream (RngStream), so trials can be farmed out to
  workers in any order and still reproduce bit-for-bit.
- A keyed sub-stream: a key drawn from a trial stream (sub_key) seeds an
  SFC64 stream (sub_stream), which draws the bulk of one sample: the sphere
  rows of a summed rank-one tail, or the Haar columns of a low-rank one.
  SFC64 draws a normal in about 0.7 of Philox's time.  Only trials must be
  opened by name, in any order; a sub-stream is opened by the sample that
  drew its key.

Normal variates come from numpy's own ziggurat on either kind, and a complex
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

__all__ = ["RngStream", "SEED_LIMIT", "sub_key", "sub_stream", "standard_normal",
           "standard_complex_normal"]

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


def sub_key(gen: np.random.Generator) -> int:
    """The key of a sub-stream, drawn from gen: one integer in [0, 2**63)."""
    return int(gen.integers(2**63))


def sub_stream(key: int) -> np.random.Generator:
    """The sub-stream of a key (sub_key): SFC64, seeded through numpy's
    SeedSequence, so nearby keys give unrelated streams."""
    return np.random.Generator(np.random.SFC64(key))


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

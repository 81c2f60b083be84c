"""The variate streams: pinned hashes of a short draw from a trial stream and
from a keyed sub-stream, the same bits with numpy's AVX-512 kernels switched
off, and a draw layout that chunking cannot change."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bplab
from bplab.rng import RngStream, standard_complex_normal, standard_normal, sub_key, sub_stream
from bplab.sphere import sample_sphere_vectors

# sha256 of 1000 standard_normal then 1000 standard_complex_normal values drawn
# from RngStream(7, 0), as little-endian bytes.  numpy does not promise
# Generator streams across versions (NEP 19): a new numpy may change this.
GOLDEN_SHA256 = "70a48bd0eecac52f5d4dc2e1ba08f556de1f2239fa635344bc58f5d270d6cc1d"
# sha256 of the first key drawn from RngStream(7, 0), as a little-endian
# uint64, then 1000 standard_complex_normal values from its sub-stream
SUB_STREAM_SHA256 = "0ccc4d71090cb3ea49afabb9cca28fa70693d8ead53758fe272bd2efb43b9c8a"

# numpy's runtime-dispatch names for the AVX-512 levels of x86-64.
AVX512_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

_DRAW = """
import hashlib, json
from bplab.rng import RngStream, standard_complex_normal, standard_normal, sub_key, sub_stream
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
gen = RngStream(7, 0).generator()
real = standard_normal(gen, 1000).astype("<f8")
cplx = standard_complex_normal(gen, 1000).astype("<c16")
key = sub_key(RngStream(7, 0).generator())
sub = standard_complex_normal(sub_stream(key), 1000).astype("<c16")
sub = key.to_bytes(8, "little") + sub.tobytes()
print(json.dumps({"sha256": hashlib.sha256(real.tobytes() + cplx.tobytes()).hexdigest(),
                  "sub_sha256": hashlib.sha256(sub).hexdigest(), "features": __cpu_features__}))
"""


def _draw(disabled: str = "") -> dict:
    """Run the short draws in a fresh interpreter with the given numpy CPU
    features disabled; returns their hashes and the features it ran with."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(bplab.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _DRAW], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_short_draw_matches_golden_hash():
    gen = RngStream(7, 0).generator()
    real = standard_normal(gen, 1000).astype("<f8")
    cplx = standard_complex_normal(gen, 1000).astype("<c16")
    assert hashlib.sha256(real.tobytes() + cplx.tobytes()).hexdigest() == GOLDEN_SHA256


def test_short_sub_stream_draw_matches_its_hash():
    key = sub_key(RngStream(7, 0).generator())
    sub = standard_complex_normal(sub_stream(key), 1000).astype("<c16")
    got = hashlib.sha256(key.to_bytes(8, "little") + sub.tobytes()).hexdigest()
    assert got == SUB_STREAM_SHA256


def test_draws_are_identical_without_avx512():
    host = _draw()
    active = [f for f in AVX512_FEATURES if host["features"].get(f)]
    if not active:
        pytest.skip("no AVX-512 dispatch level is active on this host")
    off = _draw(" ".join(AVX512_FEATURES))
    assert not any(off["features"].get(f) for f in active)
    assert off["sha256"] == host["sha256"] == GOLDEN_SHA256
    assert off["sub_sha256"] == host["sub_sha256"] == SUB_STREAM_SHA256


@pytest.mark.parametrize(
    "draw",
    [standard_normal, standard_complex_normal,
     lambda gen, n: sample_sphere_vectors(7, n, gen)],
    ids=["standard_normal", "standard_complex_normal", "sphere_rows"],
)
def test_draws_do_not_depend_on_chunking(draw):
    gen = RngStream(11, 3).generator()
    chunked = np.concatenate([draw(gen, n) for n in (3333, 1, 6666)])
    whole = draw(RngStream(11, 3).generator(), 10000)
    assert chunked.tobytes() == whole.tobytes()


def test_complex_normal_is_interleaved_pairs():
    z = standard_complex_normal(RngStream(2, 0).generator(), (3, 4))
    pairs = standard_normal(RngStream(2, 0).generator(), (3, 4, 2))
    assert z.shape == (3, 4)
    assert np.array_equal(z, (pairs[..., 0] + 1j * pairs[..., 1]) / np.sqrt(2.0))


@pytest.mark.parametrize("seed, stream_id",
                         [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (float("nan"), 0), (1e300, 0)])
def test_seeds_and_stream_ids_outside_64_bits_are_refused(seed, stream_id):
    # each is one 64-bit half of the Philox key: a wider one would alias one inside
    with pytest.raises(ValueError):
        RngStream(seed, stream_id)


def test_the_largest_seed_and_stream_id_key_distinct_streams():
    top = 2**64 - 1
    draws = {standard_normal(RngStream(s, i).generator(), 4).tobytes()
             for s, i in ((top, top), (top, 0), (0, top), (0, 0))}
    assert len(draws) == 4

"""The low-rank path: samples keep their rank-one tails as factors, solve
their spectra on an n x n core when there is no dense block and n < d, and
still build the same matrices, byte for byte."""

import hashlib
import json

import numpy as np
import pytest

from bplab.cli import main
from bplab.hermitian import HermitianSample, _decompose, _draw_jumps, sample_P_many
from bplab.levy import FiniteMeasure, LevyTriple, poisson, triple_from_spec
from bplab.nonhermitian import ComplexMatrixSample, sample_L_many, singular_values
from bplab.rng import RngStream
from bplab.spectra import esd
from bplab.sphere import sample_sphere_vectors

MIXED = LevyTriple(0.0, FiniteMeasure(((1.0, 0.3), (-1.0, 0.3), (2.5, 0.1), (-2.5, 0.1))))
MIXED_SPEC = {"gamma": 0, "atoms": [[1, 0.3], [-1, 0.3], [2.5, 0.1], [-2.5, 0.1]]}

# SHA-256 of the entries' bytes, recorded (numpy 2.4.6, scipy-openblas 0.3.31,
# x86-64) with the samplers that multiplied the rank-one sum out as they drew it.
P_BYTES = {
    0: "a415d0fb79fecf6f2914a21edd4cefb3eaff583360a204bf245632cd2a8e0579",
    1: "56e0d28e0bace791db8c8e59491d3388510904daf50d8f34c4d3cc2944d0c265",
    2: "875e12d6441e5e18ad38e722f9b56fadc23575d7265fc89dba15f421b6a6bf26",
    3: "573772a5d75f5738dc7034ee9f40f37508984908f81e33879c41853ff43cd42e",
}
L_BYTES = {
    0: "d03fecc7fcd7e75bf0f44ec40d9453308287170566e4c1cbc1cc9a405f5669d2",
    1: "20da33fc4acd1790b21358a6f4aa8d5eb8b76746b85cbc260106fb05a97cdd74",
    2: "62cb44361cbb8d8a4a01218a8092742fc675a46db560c9afde18644c4f6a7f1c",
    3: "fb1417195441cf68d3b7e20470a4351374d89266b3e5366662f05d725dbe10a2",
}
# ... and of the stdout of `bplab sample <spec> --dim 12 --seed 3 --model <model>`
CLI_BYTES = [
    ({"preset": "poisson", "lambda": 0.5}, "hermitian",
     "c0cf26f81174d2aa56893199175a5dbef3af728e57779acced37d7a3dc9eb67f"),
    (MIXED_SPEC, "hermitian",
     "1514ff4d0afc9f7a1532e8ec70985092da64bbf486d7db6857c91dc5ddd1e76d"),
    (MIXED_SPEC, "nonhermitian",
     "ae5b0a2eebcf5ab9d87041818a7c92b31f098bd51bcd544ba3bb3e0e3f6f1860"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _multiplied_out(triple, model, d, rng):
    """A pure compound-Poisson sample (n > 0) as it was built before tails
    were kept as factors: shift * I (zeros for L) plus the rank-one sum of
    the sampler's draws, symmetrized for P."""
    dec = _decompose(triple, None)
    gen = rng.generator()
    n = int(gen.poisson(d * dec.tail.lam))
    x = _draw_jumps(dec.tail.rho, gen, n)
    k = 1 if model == "hermitian" else 2
    rows = sample_sphere_vectors(d, k * n, gen).reshape(n, k, d)
    r = (rows[:, 0].T * x) @ rows[:, -1].conj()
    if model == "hermitian":
        return dec.mean * np.eye(d, dtype=complex) + (r + r.conj().T) / 2.0
    return np.zeros((d, d), dtype=complex) + r


def _skip_unless_recorded_bytes(old_bytes: bytes, recorded: str) -> None:
    if _sha(old_bytes) != recorded:
        pytest.skip("this BLAS rounds the rank-one product otherwise than the build "
                    "that recorded the hashes")


@pytest.mark.parametrize(
    "model, t",
    [("hermitian", t) for t in P_BYTES] + [("nonhermitian", t) for t in L_BYTES],
)
def test_sampled_entries_keep_their_bytes(model, t):
    triple, many, recorded = (
        (poisson(0.5), sample_P_many, P_BYTES[t]) if model == "hermitian"
        else (MIXED, sample_L_many, L_BYTES[t])
    )
    got = many(triple, 60, RngStream(5, t), 1)[0].entries.tobytes()
    old = _multiplied_out(triple, model, 60, RngStream(5, t)).tobytes()
    assert got == old
    _skip_unless_recorded_bytes(old, recorded)
    assert _sha(got) == recorded


@pytest.mark.parametrize("spec, model, recorded", CLI_BYTES)
def test_cli_sample_keeps_its_bytes(spec, model, recorded, capsys):
    assert main(["sample", json.dumps(spec), "--dim", "12", "--seed", "3",
                 "--model", model]) == 0
    got = capsys.readouterr().out
    m = _multiplied_out(triple_from_spec(spec), model, 12, RngStream(3, 0))
    old = json.dumps({"real": m.real.tolist(), "imag": m.imag.tolist()}) + "\n"
    assert got == old
    _skip_unless_recorded_bytes(old.encode(), recorded)
    assert _sha(got.encode()) == recorded


def _tail(d, n, jumps, gen, pairs):
    x = gen.choice(jumps, size=n)
    u = sample_sphere_vectors(d, n, gen)
    return x, u, (sample_sphere_vectors(d, n, gen) if pairs else u)


# (d, n): n = 0, n = d - 1 and n >= d at each d, and one n < d - 1
SHAPES = [(2, 0), (2, 1), (2, 2), (2, 5), (50, 0), (50, 17), (50, 49), (50, 50),
          (50, 80), (400, 0), (400, 200), (400, 399), (400, 400)]


@pytest.mark.parametrize("d, n", SHAPES)
@pytest.mark.parametrize("jumps, shift", [([1.0], -0.25), ([-2.5, -1.0, 1.0, 2.5], 0.7)])
def test_eigenvalues_agree_with_the_dense_eigensolve(d, n, jumps, shift):
    gen = RngStream(21, 1000 * d + n).generator()
    sample = HermitianSample(dim=d, shift=shift, tail=_tail(d, n, jumps, gen, False))
    dense = HermitianSample(sample.entries)
    assert sample.low_rank == (n < d) and not dense.low_rank
    want = np.linalg.eigvalsh(sample.entries)
    assert np.array_equal(dense.eigenvalues(), want)
    got = esd(sample).support_points
    assert got.size == d
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if n >= d:  # the dense path: the very same eigensolve
        assert np.array_equal(got, want)


@pytest.mark.parametrize("d, n", SHAPES)
def test_singular_values_agree_with_the_dense_path(d, n):
    # squared singular values: the dense path's sqrt(clip(eigvalsh(M^* M)))
    # leaves null singular values of about 1e-8 s_max, where the core gives
    # exact zeros
    gen = RngStream(22, 1000 * d + n).generator()
    sample = ComplexMatrixSample(dim=d, tail=_tail(d, n, [-2.5, -1.0, 1.0, 2.5], gen, True))
    dense = ComplexMatrixSample(sample.entries)
    assert sample.low_rank == (n < d) and not dense.low_rank
    want = np.sort(singular_values(dense)) ** 2
    got = np.sort(singular_values(sample))
    assert got.size == d and np.count_nonzero(got[: max(d - n, 0)]) == 0
    assert np.max(np.abs(got**2 - want)) <= 1e-12 * max(np.max(want), 1e-300)
    if n >= d:
        assert np.array_equal(got**2, want)


@pytest.mark.parametrize("d", [2, 50, 400])
def test_sampled_spectra_agree_with_the_dense_path(d):
    # poisson(0.5) draws n ~ Poisson(d / 2) jumps, so these take the core
    for t in range(3):
        p = sample_P_many(poisson(0.5), d, RngStream(23, t), 1)[0]
        want = np.linalg.eigvalsh(p.entries)
        assert np.max(np.abs(esd(p).support_points - want)) <= 1e-12 * np.max(np.abs(want))
        q = sample_L_many(MIXED, d, RngStream(24, t), 1)[0]
        want = np.sort(singular_values(ComplexMatrixSample(q.entries))) ** 2
        got = np.sort(singular_values(q)) ** 2
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(want), 1e-300)

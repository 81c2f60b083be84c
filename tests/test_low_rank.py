"""The low-rank path: samples with no dense block and n < d rank-one terms
keep their tails as factors in their own basis, solve their spectra on an
n x n core, and still have entries, placed in C^d by keyed Haar frames;
every other sample builds the same matrices, byte for byte."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from bplab.cli import main
from bplab.hermitian import (CORE_ROWS, HermitianSample, _decompose, _draw_jumps,
                             _haar_columns, _lower_core, _rank_one_terms, sample_P_gaussian,
                             sample_P_many)
from bplab.levy import FiniteMeasure, LevyTriple, poisson, triple_from_spec
from bplab.nonhermitian import (ComplexMatrixSample, _ginibre_block, sample_L_many,
                                singular_values)
from bplab.rng import RngStream, standard_complex_normal, sub_key, sub_stream
from bplab.spectra import esd
from bplab.sphere import sample_sphere_vectors

MIXED = LevyTriple(0.0, FiniteMeasure(((1.0, 0.3), (-1.0, 0.3), (2.5, 0.1), (-2.5, 0.1))))
MIXED_SPEC = {"gamma": 0, "atoms": [[1, 0.3], [-1, 0.3], [2.5, 0.1], [-2.5, 0.1]]}


def _symmetric(gauss, w):
    """Gaussian mass gauss and jumps at +-1 of tail intensity 4 w."""
    return LevyTriple(0.0, FiniteMeasure(((0.0, gauss), (1.0, w), (-1.0, w))))


# SHA-256 of the entries' bytes, recorded (numpy 2.4.6, scipy-openblas 0.3.31,
# x86-64) with the samplers that multiplied the rank-one sum out as they drew it.
# P_BYTES (n < d terms) were recorded again when such tails came to be drawn
# in their own basis, their entries placed in C^d by keyed Haar columns.  All
# were recorded again (P from f3311303..., 8eb049d0..., 9fbf02a1... and
# 5117715f...; L from d03fecc7..., 20da33fc..., 62cb4436... and fb141719...)
# when the Haar columns and the rows of a summed tail came from the keyed
# SFC64 sub-stream (rng.sub_stream) and each row's norm from an einsum.
P_BYTES = {
    0: "4bd37c1e3291d9e60273b0d29e5602e233b6c634b38bee0ac7f5d91b9a73db29",
    1: "81e775c34c9ccac88b0aec39fe43b5e280d47d6fb88e68b19e874277dcb31c4b",
    2: "dc1e9284bdd8e0fa5a383ccd315ce6024b005e0ed2199fa40367472627cce91b",
    3: "301c09d0e31bcab4cd282be6ab2c8d60c78e33dc14dc73de3d4e485589fd4426",
}
L_BYTES = {
    0: "4d04ba6c3d9bd362b017bec58d7e529111794b29636d9d36f4e114be8114c3a4",
    1: "adb464d7ee89c47fd2b9b96f40d97aac5528eacca87efa1b3390522a866ff25d",
    2: "a9e7807af5a0affd5d90ba7f823f976dbc3ecb753f37da70a1520bedffec6c1f",
    3: "fe6915e96740a8f8f41cad0b694f9dc82293326a123947a3e09f5e9863aaf13b",
}
# ... and of the stdout of `bplab sample <spec> --dim 12 --seed 3 --model <model>`,
# the first (n < d terms) recorded again as P_BYTES were, and all three (from
# bb7059d9..., 1514ff4d... and ae5b0a2e...) with the sub-stream
CLI_BYTES = [
    ({"preset": "poisson", "lambda": 0.5}, "hermitian",
     "fd632fa075661283d94145f5094b92715299ff3eec5996ae8f8094ffa5fde846"),
    (MIXED_SPEC, "hermitian",
     "ee14ae71cd7857a0e9ef618efb6d460e6e9b645764e6804bfc674e615e54292d"),
    (MIXED_SPEC, "nonhermitian",
     "67e17d767a9d021f84cdc3c9922677ac3bad569adb6dc22487677593a1e99794"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _multiplied_out(triple, model, d, rng):
    """A pure compound-Poisson sample (n > 0) multiplied out from the
    sampler's draws: shift * I (zeros for L) plus the rank-one sum,
    symmetrized for P.  n >= d standard rows, drawn from the sub-stream of
    the key drawn after the jumps, are multiplied out in one product; n < d
    rows, drawn in their own basis, are placed in C^d by the Haar columns of
    the key drawn after them."""
    dec = _decompose(triple, None)
    gen = rng.generator()
    n = int(gen.poisson(d * dec.tail.lam))
    x = _draw_jumps(dec.tail.rho, gen, n)
    k = 1 if model == "hermitian" else 2
    if n < d:
        u = sample_sphere_vectors(d, n, gen, own_basis=True)
        w = u if k == 1 else sample_sphere_vectors(d, n, gen, own_basis=True)
        frames = sub_stream(sub_key(gen))
        v_u = _haar_columns(d, n, frames)
        v_w = v_u if k == 1 else _haar_columns(d, n, frames)
        r = (v_u @ ((u.T * x) @ w.conj())) @ v_w.conj().T
    else:
        rows = sample_sphere_vectors(d, k * n, sub_stream(sub_key(gen))).reshape(n, k, d)
        r = (rows[:, 0].T * x) @ rows[:, -1].conj()
    if model == "hermitian":
        return dec.mean * np.eye(d, dtype=complex) + (r + r.conj().T) / 2.0
    return np.zeros((d, d), dtype=complex) + r


def _skip_unless_recorded_bytes(want: bytes, recorded: str) -> None:
    if _sha(want) != recorded:
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
    want = _multiplied_out(triple, model, 60, RngStream(5, t)).tobytes()
    assert got == want
    _skip_unless_recorded_bytes(want, recorded)
    assert _sha(got) == recorded


@pytest.mark.parametrize("spec, model, recorded", CLI_BYTES,
                         ids=["poisson-hermitian", "mixed-hermitian", "mixed-nonhermitian"])
def test_cli_sample_keeps_its_bytes(spec, model, recorded, capsys):
    assert main(["sample", json.dumps(spec), "--dim", "12", "--seed", "3",
                 "--model", model]) == 0
    got = capsys.readouterr().out
    m = _multiplied_out(triple_from_spec(spec), model, 12, RngStream(3, 0))
    want = json.dumps({"real": m.real.tolist(), "imag": m.imag.tolist()}) + "\n"
    assert got == want
    _skip_unless_recorded_bytes(want.encode(), recorded)
    assert _sha(got.encode()) == recorded


def _tail(d, n, jumps, gen, pairs):
    """The tail of n jumps drawn from jumps: factors for n < d, else the sum."""
    return _rank_one_terms(gen.choice(jumps, size=n), d, gen, pairs)


# (d, n): n = 0, n = d - 1 and n >= d at each d, and one n < d - 1
SHAPES = [(2, 0), (2, 1), (2, 2), (2, 5), (50, 0), (50, 17), (50, 49), (50, 50),
          (50, 80), (400, 0), (400, 200), (400, 399), (400, 400)]


@pytest.mark.parametrize("d, n", SHAPES)
@pytest.mark.parametrize(
    "jumps, shift", [([1.0], -0.25), ([-2.5, -1.0, 1.0, 2.5], 0.7), ([-2.0, -0.5], 0.3)]
)
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
    # squared singular values: the dense path's SVD leaves null singular
    # values of about 1e-16 s_max, where the core gives exact zeros
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


@settings(deadline=None)
@given(
    st.integers(2, 60).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d - 1))),
    st.sampled_from(["positive", "negative", "mixed"]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_the_core_agrees_with_the_dense_path(shape, signs, pairs, seed):
    # the oracle is the dense path on the sample's own entries
    d, n = shape
    gen = RngStream(seed, 26).generator()
    x = gen.uniform(0.01, 10.0, n)
    if signs == "negative":
        x = -x
    elif signs == "mixed":
        x *= gen.choice([-1.0, 1.0], n)
    tail = _rank_one_terms(x, d, gen, pairs)
    if pairs:  # squared singular values (test_singular_values_agree_with_the_dense_path)
        sample = ComplexMatrixSample(dim=d, tail=tail)
        got, want = (np.sort(singular_values(m)) ** 2
                     for m in (sample, ComplexMatrixSample(sample.entries)))
    else:
        sample = HermitianSample(dim=d, shift=gen.uniform(-1.0, 1.0), tail=tail)
        got, want = np.sort(sample.eigenvalues()), np.linalg.eigvalsh(sample.entries)
    assert sample.low_rank and got.size == d
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, CORE_ROWS - 1, CORE_ROWS, CORE_ROWS + 1, 2 * CORE_ROWS - 1,
                               2 * CORE_ROWS, 2 * CORE_ROWS + 1, 200])
def test_the_lower_core_is_the_full_products_lower_triangle(n):
    # core rows i.. need the triangular factor's rows k >= i only
    gen = RngStream(29, n).generator()
    x = gen.uniform(0.1, 3.0, n) * gen.choice([-1.0, 1.0], n)
    u = sample_sphere_vectors(2 * n + 1, n, gen, own_basis=True)
    assert np.array_equal(u, np.tril(u))
    want = np.tril((u.T * x) @ u.conj())
    got = _lower_core(x, u)
    assert np.max(np.abs(np.tril(got) - want)) <= 1e-13 * np.max(np.abs(want))
    sample = HermitianSample(dim=2 * n + 1, tail=(x, u, u, 0))
    full = np.linalg.eigvalsh((u.T * x) @ u.conj())
    eigs = sample.eigenvalues()[:n]
    assert np.max(np.abs(eigs - full)) <= 1e-12 * np.max(np.abs(full))


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


# ---------------------------------------------------------------------------
# tails drawn in their own basis


def _isometry(d, n, gen):
    """An n x d matrix with orthonormal rows: embeds C^n into C^d."""
    return np.linalg.qr(standard_complex_normal(gen, (d, n)))[0].T


@pytest.mark.parametrize("d, n", [(2, 1), (50, 1), (50, 17), (50, 49), (400, 200)])
@pytest.mark.parametrize("jumps", [[1.0], [-2.0, -0.5], [-2.5, -1.0, 1.0, 2.5]])
def test_own_basis_spectra_are_those_of_the_embedded_rows(d, n, jumps):
    # the oracle is the dense path on the rows embedded in C^d by other
    # isometries than the sample's Haar columns, summed into array tails
    gen = RngStream(42, 1000 * d + n).generator()
    x = gen.choice(jumps, size=n)
    p = HermitianSample(dim=d, shift=0.3, tail=_rank_one_terms(x, d, gen))
    q = ComplexMatrixSample(dim=d, tail=_rank_one_terms(x, d, gen, pairs=True))
    assert p.low_rank and q.low_rank
    u = p.tail[1] @ _isometry(d, n, gen)
    got = np.sort(p.eigenvalues())
    want = np.linalg.eigvalsh(HermitianSample(dim=d, shift=0.3, tail=(u.T * x) @ u.conj()).entries)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    u, w = q.tail[1] @ _isometry(d, n, gen), q.tail[2] @ _isometry(d, n, gen)
    got = np.sort(singular_values(q))
    want = np.linalg.svd(ComplexMatrixSample(dim=d, tail=(u.T * x) @ w.conj()).entries,
                         compute_uv=False)
    assert np.max(np.abs(got - want[::-1])) <= 1e-12 * np.max(want)


def _spectral_moments(x, d, gen, pairs, summed):
    """Moments 2-4 of the eigenvalues of a P tail (its first is sum(x) / d
    for any rows), or moments 1-3 of the squared singular values of an L
    tail."""
    tail = _rank_one_terms(x, d, gen, pairs, summed)
    if pairs:
        s2 = singular_values(ComplexMatrixSample(dim=d, tail=tail)) ** 2
        return [np.mean(s2**k) for k in (1, 2, 3)]
    eigs = HermitianSample(dim=d, tail=tail).eigenvalues()
    return [np.mean(eigs**k) for k in (2, 3, 4)]


@pytest.mark.parametrize(
    "jumps, pairs",
    [([0.5, 2.0], False), ([-2.5, -1.0, 1.0, 2.5], False), ([0.5, 2.0], True),
     ([-2.5, -1.0, 1.0, 2.5], True)],
    ids=["one-sign-P", "mixed-sign-P", "one-sign-L", "mixed-sign-L"],
)
def test_own_basis_spectra_have_the_law_of_standard_rows(jumps, pairs):
    # the same jumps with own-basis and with standard (summed) rows, trial by
    # trial: the mean difference of each moment is zero within 4 standard errors
    d, n, trials = 10, 7, 3000
    gen = RngStream(43, len(jumps) + 10 * pairs).generator()
    diffs = []
    for _ in range(trials):
        x = gen.choice(jumps, size=n)
        diffs.append(np.subtract(_spectral_moments(x, d, gen, pairs, False),
                                 _spectral_moments(x, d, gen, pairs, True)))
    diffs = np.array(diffs)
    stderr = diffs.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(diffs.mean(axis=0)) <= 4.0 * stderr)


@pytest.mark.parametrize("pairs", [False, True], ids=["P", "L"])
def test_own_basis_entries_have_the_law_of_standard_rows(pairs):
    # four entry statistics of n = 3 one-sign terms at d = 6, from own-basis
    # rows placed by Haar columns and from standard rows summed in C^d, each
    # set from its own stream: a two-sample Kolmogorov-Smirnov test of each
    # statistic, at a false-alarm rate of 1e-4 over the 8 tests of both models
    d, n, draws = 6, 3, 5000
    kind = ComplexMatrixSample if pairs else HermitianSample
    by_rows = []
    for summed in (False, True):
        gen = RngStream(45, 2 * pairs + summed).generator()
        values = []
        for _ in range(draws):
            x = gen.choice([0.5, 2.0], size=n)
            m = kind(dim=d, tail=_rank_one_terms(x, d, gen, pairs, summed)).entries
            values.append([m[0, 0].real, m[0, 1].real, m[2, 1].imag, abs(m[d - 1, 0])])
        by_rows.append(np.array(values))
    own, standard = by_rows
    for k in range(own.shape[1]):
        assert stats.ks_2samp(own[:, k], standard[:, k]).pvalue >= 1e-4 / 8


def test_own_basis_core_spectra_are_those_of_their_entries():
    p = sample_P_many(poisson(0.5), 60, RngStream(5, 0), 1)[0]
    q = sample_L_many(_symmetric(0.0, 0.125), 60, RngStream(5, 0), 1)[0]
    assert p.low_rank and q.low_rank and isinstance(p.tail, tuple) and isinstance(q.tail, tuple)
    got, want = np.sort(p.eigenvalues()), np.linalg.eigvalsh(p.entries)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    got, want = np.sort(singular_values(q)), np.sort(np.linalg.svd(q.entries, compute_uv=False))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("model", ["hermitian", "nonhermitian"])
def test_a_block_and_fewer_than_d_terms_keep_their_entries_bytes(model):
    # Gaussian mass 0.5 and n ~ Poisson(25) < d = 50 terms: the block, then
    # the tail's standard rows, from the sub-stream of the key drawn after the
    # jumps, in one product (at most BLOCK of them), summed
    triple, d = _symmetric(0.5, 0.125), 50
    hermitian = model == "hermitian"
    dec = _decompose(triple, None)
    for t in range(3):
        got = (sample_P_many if hermitian else sample_L_many)(triple, d, RngStream(44, t), 1)[0]
        gen = RngStream(44, t).generator()
        block = (sample_P_gaussian if hermitian else _ginibre_block)(dec.mean, dec.var, d, gen)
        n = int(gen.poisson(d * dec.tail.lam))
        x = _draw_jumps(dec.tail.rho, gen, n)
        rows = sample_sphere_vectors(d, (1 if hermitian else 2) * n, sub_stream(sub_key(gen)))
        rows = rows.reshape(n, -1, d)
        r = (rows[:, 0].T * x) @ rows[:, -1].conj()
        want = (r + r.conj().T) / 2.0 + block.entries if hermitian else r + block.entries
        assert 0 < n < d and not got.low_rank
        assert got.entries.tobytes() == want.tobytes()

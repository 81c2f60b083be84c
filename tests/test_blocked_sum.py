"""The blocked rank-one sum: a sample with n >= d rank-one terms draws its
sphere rows from the sub-stream of one key, BLOCK jumps at a time, and keeps
only their d x d sum.  The rows are the same bits as one draw of all of
them, one block is the one product of all rows byte for byte, and more
blocks move the sum in its last bits."""

import tracemalloc

import numpy as np
import pytest

from bplab import hermitian
from bplab.hermitian import BLOCK, HermitianSample, _draw_jumps, _rank_one_sum, sample_P_many
from bplab.levy import FiniteMeasure, LevyTriple, cauchy, convolve, gaussian, poisson
from bplab.nonhermitian import ComplexMatrixSample, sample_L_many, singular_values
from bplab.rng import RngStream, sub_key, sub_stream
from bplab.spectra import esd
from bplab.sphere import sample_sphere_vectors

RHO = FiniteMeasure(((-2.5, 0.1), (-1.0, 0.4), (1.0, 0.4), (2.5, 0.1)))
MIXED = LevyTriple(0.0, FiniteMeasure(((1.0, 0.3), (-1.0, 0.3), (2.5, 0.1), (-2.5, 0.1))))


class FixedCount:
    """A generator whose Poisson draw returns n, so that a test can choose the
    number of rank-one terms; every other draw is the wrapped generator's."""

    def __init__(self, gen, n):
        self._gen, self._n = gen, n

    def poisson(self, lam):
        return self._n

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _blocked(d, n, pairs, seed):
    return _rank_one_sum(RHO, 1.0, d, FixedCount(RngStream(seed, n).generator(), n), pairs)


def _one_product(d, n, pairs, seed):
    """The draws of _rank_one_sum, the jumps and the key from the trial
    stream, all rows in one call from the key's sub-stream, in one product."""
    gen = RngStream(seed, n).generator()
    x = _draw_jumps(RHO, gen, n)
    rows = sample_sphere_vectors(d, (2 if pairs else 1) * n, sub_stream(sub_key(gen)))
    rows = rows.reshape(n, -1, d)
    return (rows[:, 0].T * x) @ rows[:, -1].conj()


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("d, n", [(1, 1), (2, 2), (50, 50), (50, 51), (50, BLOCK),
                                  (BLOCK, BLOCK)])
@pytest.mark.parametrize("pairs", [False, True])
def test_one_block_is_the_one_product_byte_for_byte(d, n, pairs):
    r = _blocked(d, n, pairs, 31)
    want = _one_product(d, n, pairs, 31)
    assert isinstance(r, np.ndarray) and r.shape == (d, d)
    assert r.tobytes() == want.tobytes()
    sample = (ComplexMatrixSample(dim=d, tail=r) if pairs
              else HermitianSample(dim=d, shift=0.3, tail=r))
    old = (np.zeros((d, d), dtype=complex) + want if pairs
           else 0.3 * np.eye(d, dtype=complex) + (want + want.conj().T) / 2.0)
    assert sample.entries.tobytes() == old.tobytes()


@pytest.mark.parametrize("many", [sample_P_many, sample_L_many])
def test_the_samplers_sum_n_at_least_d_terms_and_keep_fewer_as_factors(many):
    # n ~ Poisson(1.432 d) for MIXED and Poisson(d / 2) for poisson(0.5)
    for t in range(3):
        dense = many(MIXED, 60, RngStream(32, t), 1)[0]
        assert isinstance(dense.tail, np.ndarray) and dense.tail.shape == (60, 60)
        assert not dense.low_rank
    sparse = sample_P_many(poisson(0.5), 60, RngStream(32, 0), 1)[0]
    assert isinstance(sparse.tail, tuple) and sparse.tail[0].size < 60 and sparse.low_rank


@pytest.mark.parametrize("n", [BLOCK, BLOCK + 1, 3 * BLOCK])
@pytest.mark.parametrize("d", [40, 200])
def test_blocked_spectra_agree_with_the_one_product_sum(d, n):
    # P: eigenvalues; L: squared singular values, both to 1e-12 relative
    r = _blocked(d, n, False, 33)
    want = _one_product(d, n, False, 33)
    assert _rel(r, want) <= 1e-12
    p, p_ref = HermitianSample(dim=d, shift=-0.2, tail=r), HermitianSample(dim=d, shift=-0.2,
                                                                           tail=want)
    assert not p.low_rank and not p_ref.low_rank
    assert _rel(p.entries, p_ref.entries) <= 1e-12
    assert _rel(esd(p).support_points, esd(p_ref).support_points) <= 1e-12

    r = _blocked(d, n, True, 34)
    want = _one_product(d, n, True, 34)
    assert _rel(r, want) <= 1e-12
    q, q_ref = ComplexMatrixSample(dim=d, tail=r), ComplexMatrixSample(dim=d, tail=want)
    assert _rel(q.entries, q_ref.entries) <= 1e-12
    got, ref = np.sort(singular_values(q)) ** 2, np.sort(singular_values(q_ref)) ** 2
    assert _rel(got, ref) <= 1e-12


@pytest.mark.parametrize("n", [BLOCK, BLOCK + 1, 3 * BLOCK + 7])
@pytest.mark.parametrize("pairs", [False, True])
def test_blocked_rows_are_one_draw_bit_for_bit(monkeypatch, n, pairs):
    drawn = []

    def recording(d, count, rng):
        rows = sample_sphere_vectors(d, count, rng)
        drawn.append(rows.copy())  # the sum works the rows in place
        return rows

    monkeypatch.setattr(hermitian, "sample_sphere_vectors", recording)
    d = 30
    gen = RngStream(35, n).generator()
    _rank_one_sum(RHO, 1.0, d, FixedCount(gen, n), pairs)
    assert [rows.shape[0] for rows in drawn] == [
        (2 if pairs else 1) * min(BLOCK, n - start) for start in range(0, n, BLOCK)]

    ref = RngStream(35, n).generator()
    _draw_jumps(RHO, ref, n)
    one = sample_sphere_vectors(d, (2 if pairs else 1) * n, sub_stream(sub_key(ref)))
    assert np.concatenate(drawn).tobytes() == one.tobytes()
    # the trial stream gave the jumps and the key, and nothing else
    assert gen.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes()


def _traced_peak(draw, d):
    """The tracemalloc peak of draw(d), after a warm-up draw at d = 2."""
    draw(2)  # warm caches and imports
    tracemalloc.start()
    try:
        draw(d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cauchy_L(d):
    # cauchy(1, 1001) at cut 0.05: a Ginibre block and tail intensity 13.08
    return sample_L_many(cauchy(1.0, 1001), d, RngStream(36, 1), 1, 0.05)[0]


def test_a_dense_L_sample_holds_O_d2_plus_block_d():
    # n is about 3900 at d = 300, whose rows alone took 2 n d complex entries
    # (37 MB) at once.  The sample needs its block, the sum, one product and
    # the 2 BLOCK d row buffer, and a little more for the jumps: 6.96 MB with
    # numpy 2.4, 9.55 MB when the tail was kept beside the block and its
    # entries added
    d = 300
    peak = _traced_peak(lambda d: _cauchy_L(d).entries, d)
    assert peak < (3 * d * d + 2 * BLOCK * d) * 16 + 2**19


def test_a_block_sample_is_one_array():
    # the summed tail is added into the block as it is drawn
    sample = _cauchy_L(50)
    assert not sample.low_rank and sample.tail is None
    assert sample.entries is sample.block
    with pytest.raises(ValueError):
        ComplexMatrixSample(sample.block, tail=sample.block)


def test_an_L_sample_with_its_singular_values_holds_O_d2_plus_block_d():
    # 3.73 MB with numpy 2.4; 5.50 MB with the row norms, u.T * x and
    # w.conj() taken as BLOCK x d temporaries and the tail kept beside the block
    d = 200
    peak = _traced_peak(lambda d: singular_values(_cauchy_L(d)), d)
    assert peak < (2 * BLOCK * d + 4 * d * d) * 16


def test_a_blocked_P_sample_with_its_eigenvalues_holds_O_d2_plus_block_d():
    # n ~ Poisson(3 d) >= d terms and a GUE block; the bound of the L test,
    # as the one u.T * x temporary of BLOCK x d takes the place of the w rows.
    # 3.57 MB with numpy 2.4; 4.39 MB with the row norm and w.conj() temporaries
    d = 200
    triple = convolve(gaussian(0.0, 1.0), poisson(3.0))
    peak = _traced_peak(lambda d: esd(sample_P_many(triple, d, RngStream(37, 1), 1)[0]), d)
    assert peak < (2 * BLOCK * d + 4 * d * d) * 16

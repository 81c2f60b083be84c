import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bplab.hermitian import (
    BLOCK,
    HermitianSample,
    _decompose,
    _hermitian_part,
    sample_haar_unitary,
    sample_P,
    sample_P_compound_poisson,
    sample_P_gaussian,
    sample_P_many,
    sample_P_scalars,
    sample_Q,
)
from bplab.levy import (CompoundPoissonParams, FiniteMeasure, LevyTriple, cauchy,
                        compound_poisson_triple, convolve, dirac, gaussian, poisson, truncate)
from bplab.nonhermitian import ComplexMatrixSample, sample_L_gaussian
from bplab.rng import RngStream, standard_complex_normal
from oracles import ks_continuous, ks_integer

# SHA-256 of sample_P_gaussian(mean, var, d, RngStream(9, t)).entries, keyed
# by (mean, var, d, t) and recorded (numpy 2.4.6, x86-64) with the sampler
# that built the GUE block and its diagonal terms out of place.
GAUSSIAN_BYTES = {
    (0.0, 1.0, 1, 0): "9d9e80464d91ed61493b8d0f0e08f47a7d4603142214c3acae73e6213bc6f0b1",
    (0.5, 2.0, 2, 1): "b5798da0052b4157cb625ddd61f0e11bcf43794c64f45be0c529fa01f449bf12",
    (-1.25, 0.3, 17, 2): "b602b1a5211775f8282a854f8b5e7951d1792105d1d7871b45234369fdd0b594",
    (3.0, 1.0, 60, 3): "22f9dfea98fa19a919c8987e91ba535d5f9246872cc7c38a152648d03d191948",
    (0.0, 4.0, 201, 4): "6e93e70bed7df5c708267b375b405401e119bcda50982d2e9525d46bab94e1b2",
}

# SHA-256 of sample_P_many(triple, d, RngStream(11, d), 1)[0].entries for the
# triple with atoms [[0, 0.5], [1, w]], keyed by (w, d) and recorded (numpy
# 2.4.6, x86-64) when the tail was added into the Gaussian block (r + r^*) / 2
# BLOCK rows at a time: n ~ Poisson(2 w d) terms, so fewer than d at w = 0.25
# (one product) and about 2 d at w = 1 (the blocked sum).  The w = 1 hashes,
# and the two below, were recorded again (from fe45af02..., 41de8eba...,
# f1fdd139... and 6aaae691...) at one BLAS thread (tests/conftest.py): they
# had been recorded at two, whose zgemm sums the products in another order.
# All six were recorded again (the w = 0.25 ones from 7dc573d0..., cfffefd5...,
# 9bf1d03c... and 0be097c6...; the w = 1 ones from 996424de... and
# ad5cf8cb...) when the summed tail's rows came from the keyed SFC64
# sub-stream (rng.sub_stream) and each row's norm from an einsum
BLOCK_P_BYTES = {
    (0.25, 255): "aa4e6d82864b855a0d01afa40fe30fa9501b8b8b012d2121ddf45ba53fd33a5a",
    (0.25, 256): "177adaf756b57b21169b918293fadb34d6865aa76f03f3bd398b4543a737b14e",
    (0.25, 257): "d3a5775263542aebdec3c872ef2f194dfc2a2830150a803b00bb13f2ebe7a4f7",
    (0.25, 600): "a54b4bae710be059beaa1f7e11a22b74bba1e9e5a8a08eee8f88a1560c06cc37",
    (1.0, 257): "89d6468dcc038cbac7b26d101ace7f513e1456588833570d5c783fe7a1524cbd",
    (1.0, 600): "a1adf4197bdab1f862b4d7876af6bbc007a2ae53f4324ae455de6bf7f0cca301",
}
# the same for the kept d x d sum of poisson(2) at d = 257, RngStream(11, 0)
# (no block, about 2 d terms), recorded when it was symmetrized into a new
# array, and again (from 08f5b65c...) with the block pins; and for
# sample_Q(linspace(-1, 2, 300), RngStream(12, 0)), recorded when its product
# was symmetrized out of place
KEPT_SUM_P_BYTES = "7507d3a0e6a871f38ee70d23ec1ea24d81f9b79429919e1c32c7b6d4163d6be8"
SAMPLE_Q_BYTES = "821956dfa37ccbe91afd97f976b16be0282fff8adb3e8ded67c871a04bbc11ff"


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


@pytest.mark.parametrize("w, d", list(BLOCK_P_BYTES))
def test_block_P_entries_keep_their_bytes(w, d):
    triple = LevyTriple(0.0, FiniteMeasure(((0.0, 0.5), (1.0, w))))
    sample = sample_P_many(triple, d, RngStream(11, d), 1)[0]
    assert sample.block is not None and sample.tail is None
    assert _sha(sample.entries) == BLOCK_P_BYTES[w, d]


def test_kept_sum_P_entries_keep_their_bytes():
    sample = sample_P_many(poisson(2.0), 257, RngStream(11, 0), 1)[0]
    assert sample.block is None and isinstance(sample.tail, np.ndarray)
    assert _sha(sample.entries) == KEPT_SUM_P_BYTES


def test_sample_Q_entries_keep_their_bytes():
    assert _sha(sample_Q(np.linspace(-1.0, 2.0, 300), RngStream(12, 0)).entries) == SAMPLE_Q_BYTES


def test_hermitian_sample_validation():
    with pytest.raises(ValueError):
        HermitianSample(np.array([[0.0, 1.0], [0.0, 0.0]]))
    s = HermitianSample(np.eye(3, dtype=complex))
    assert s.dim == 3


def test_haar_unitary_is_unitary():
    u = sample_haar_unitary(30, RngStream(0, 0))
    assert np.max(np.abs(u @ u.conj().T - np.eye(30))) < 1e-12


def test_haar_unitary_one_dimensional_phase():
    u = sample_haar_unitary(1, RngStream(0, 1))
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_sample_Q_spectrum_is_the_diagonal_draw():
    m = sample_Q(np.arange(1.0, 7.0), RngStream(1, 0))
    eigs = np.linalg.eigvalsh(m.entries)
    assert np.allclose(eigs, np.arange(1.0, 7.0), atol=1e-10)


def test_gaussian_case_degenerate_variance():
    m = sample_P_gaussian(2.0, 0.0, 4, RngStream(2, 0))
    assert np.allclose(m.entries, 2.0 * np.eye(4))


def test_gaussian_case_scalar_law():
    xs = np.array(
        [sample_P_gaussian(0.5, 2.0, 1, RngStream(3, i)).entries[0, 0].real
         for i in range(20000)]
    )
    ks = ks_continuous(xs, lambda x: stats.norm.cdf(x, 0.5, np.sqrt(2.0)))
    assert ks < 0.015


def test_gaussian_case_second_moment_is_dimension_free():
    # E (1/d) Tr M^2 = var exactly, by the GUE(d, 1/(d+1)) + X/sqrt(d+1) split
    d, trials = 30, 400
    vals = []
    for i in range(trials):
        m = sample_P_gaussian(0.0, 1.0, d, RngStream(4, i)).entries
        vals.append(np.sum(np.abs(m) ** 2).real / d)
    vals = np.array(vals)
    stderr = vals.std(ddof=1) / np.sqrt(trials)
    assert abs(vals.mean() - 1.0) < 4 * stderr


def test_compound_poisson_zero_intensity():
    m = sample_P_compound_poisson(FiniteMeasure.point(1.0), 0.0, 5, RngStream(5, 0))
    assert np.all(m.entries == 0)


def test_compound_poisson_trace_identity():
    # Tr of a sum of weighted unit-rank projections is the sum of weights
    rho = FiniteMeasure.point(0.5)
    gen = RngStream(5, 1).generator()
    m = sample_P_compound_poisson(rho, 2.0, 6, gen)
    trace = np.trace(m.entries).real
    assert trace == pytest.approx(0.5 * round(trace / 0.5), abs=1e-10)


def test_poisson_model_is_exact_at_dimension_one():
    xs = sample_P_scalars(poisson(1.0), RngStream(6, 0), 100000)
    assert np.allclose(xs, np.round(xs), atol=1e-12)
    ks = ks_integer(xs, lambda k: stats.poisson.cdf(k, 1.0), 15)
    assert ks < 0.01


def test_scalar_path_and_matrix_path_agree_at_dimension_one():
    t = convolve(gaussian(0.1, 0.5), poisson(0.8))
    xs = sample_P_scalars(t, RngStream(7, 3), 8)
    ms = sample_P_many(t, 1, RngStream(7, 3), 8)
    assert np.allclose(xs, [m.entries[0, 0].real for m in ms], atol=0)


def test_composite_draw_order_is_gaussian_block_then_rank_ones():
    # gaussian plus a poisson tail; one generator serves both blocks, in turn
    t = convolve(gaussian(0.3, 0.5), poisson(0.8))
    d = 5
    dec = _decompose(t, None)
    rho = dec.tail.rho
    gen = RngStream(12, 0).generator()
    expected, tails = [], []
    for _ in range(2):
        m = sample_P_gaussian(dec.mean, dec.var, d, gen).entries
        tails.append(sample_P_compound_poisson(rho, dec.tail.lam, d, gen, summed=True).entries)
        expected.append(m + tails[-1])
    got = sample_P_many(t, d, RngStream(12, 0), 2)
    assert all(np.array_equal(g.entries, e) for g, e in zip(got, expected))
    assert dec.var > 0 and any(np.any(r != 0) for r in tails)


def test_dirac_triple_gives_constant_matrix():
    m = sample_P(dirac(1.5), 4, RngStream(8, 0))
    assert np.allclose(m.entries, 1.5 * np.eye(4), atol=1e-12)


def test_default_inner_cut():
    assert _decompose(poisson(1.0), None).cut == pytest.approx(0.5)
    assert _decompose(gaussian(0, 1), None).cut == 1.0
    t = LevyTriple(0.0, FiniteMeasure(((0.0, 1.0), (0.2, 0.1), (-3.0, 0.2))))
    assert _decompose(t, None).cut == pytest.approx(0.1)


def test_odd_node_cauchy_counts_its_middle_node_once():
    # the middle node of an odd count lands at tan(mid) = 1.1e-16, not 0.0:
    # it is Gaussian mass, and not a small jump as well
    t = cauchy(1.0, 1001)
    u, w = t.G.locations(), t.G.weights()
    assert 0.0 < np.abs(u).min() <= 1e-12
    inside = np.abs(u) <= 0.05
    want = float(np.sum(w[inside] * (1.0 + u[inside] ** 2)))
    assert _decompose(t, 0.05).var == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.0309737, abs=1e-7)


def test_odd_node_cauchy_default_cut_reconstructs_the_triple():
    # half the smallest |u| off zero, not half the middle node's 1.1e-16
    t = cauchy(1.0, 1001)
    dec = _decompose(t, None)
    assert dec.cut == pytest.approx(0.00156823, abs=1e-8)
    inner, tail = truncate(t, dec.cut)
    back = convolve(inner, compound_poisson_triple(tail.rho, tail.lam))
    assert back.gamma == pytest.approx(t.gamma, abs=1e-12)
    assert np.array_equal(back.G.locations(), t.G.locations())
    assert np.allclose(back.G.weights(), t.G.weights(), rtol=0.0, atol=1e-12)


def test_small_jump_substitution_matches_first_two_cumulants():
    # with a cut above every atom the sampler is a pure Gaussian with the
    # triple's first two cumulants
    t = LevyTriple(0.3, FiniteMeasure(((0.1, 0.2), (-0.2, 0.1))))
    from bplab.levy import cumulants_from_triple

    dec = _decompose(t, 1.0)
    c = cumulants_from_triple(t, 2)
    assert dec.mean == pytest.approx(c[1], abs=1e-12)
    assert dec.var == pytest.approx(c[2], abs=1e-12)
    assert dec.tail.lam == 0.0


def test_a_triple_is_split_once_per_cut():
    t = convolve(gaussian(0.3, 0.5), poisson(0.8))
    dec = _decompose(t, None)
    assert _decompose(t, None) is dec and _decompose(t, 0.25) is not dec
    # an equal triple built anew is split anew, to the same numbers
    again = _decompose(convolve(gaussian(0.3, 0.5), poisson(0.8)), None)
    assert again is not dec and (again.mean, again.var, again.cut) == (dec.mean, dec.var, dec.cut)


def test_threads_splitting_one_triple_agree():
    # a split is stored with no lock: threads that race store equal splits
    import sys
    from concurrent.futures import ThreadPoolExecutor

    t = convolve(gaussian(0.3, 0.5), poisson(0.8))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_decompose, t, cut) for cut in (None, 0.25) * 32]
            splits = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for cut, dec in zip((None, 0.25) * 32, splits):
        want = _decompose(t, cut)
        assert (dec.mean, dec.var, dec.cut, dec.tail.lam) == (want.mean, want.var, want.cut,
                                                              want.tail.lam)


@pytest.mark.parametrize("atoms, cut", [
    (((0.1, 1e308), (0.2, 1e308)), 1.0),  # the small-jump substitution
    (((1e-11, 1e300),), 5e-12),  # the tail intensity
], ids=["substitution", "intensity"])
def test_a_split_that_overflows_raises_on_every_call(atoms, cut):
    t = LevyTriple(0.0, FiniteMeasure(atoms))
    for _ in range(2):
        with pytest.raises(ValueError, match="overflow"):
            _decompose(t, cut)


def test_sampler_validation():
    with pytest.raises(ValueError):
        sample_P_gaussian(0.0, -1.0, 3, RngStream(0, 0))
    with pytest.raises(ValueError):
        sample_P_many(gaussian(0, 1), 0, RngStream(0, 0), 1)
    with pytest.raises(ValueError):
        sample_P(gaussian(0, 1), 3, RngStream(0, 0), inner_cut=-0.1)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: HermitianSample(np.array([[1.0, NAN], [2.0, 1.0]])),
    lambda: sample_P_gaussian(0.0, NAN, 3, RngStream(0, 0)),
    lambda: sample_P_gaussian(NAN, 1.0, 3, RngStream(0, 0)),
    lambda: sample_L_gaussian(3, RngStream(0, 0), scale=-1.0),
    lambda: sample_L_gaussian(3, RngStream(0, 0), scale=NAN),
    lambda: _decompose(poisson(1.0), NAN),
    lambda: truncate(poisson(1.0), NAN),
    lambda: sample_P(poisson(1.0), 4, RngStream(0, 0), inner_cut=NAN),
    lambda: CompoundPoissonParams(NAN, FiniteMeasure(((1.0, 1.0),))),
], ids=["hermitian-check", "gaussian-var", "gaussian-mean", "ginibre-scale",
        "ginibre-scale-nan", "decompose-cut", "truncate-cut", "sample-cut", "intensity"])
def test_nan_fails_the_api_checks(call):
    # NaN compares false, so each check is written to pass only good values
    with pytest.raises(ValueError):
        call()


def test_streams_are_reproducible_and_distinct():
    a = sample_P(gaussian(0, 1), 5, RngStream(9, 0)).entries
    b = sample_P(gaussian(0, 1), 5, RngStream(9, 0)).entries
    c = sample_P(gaussian(0, 1), 5, RngStream(9, 1)).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _gaussian_out_of_place(mean, var, d, rng):
    """sample_P_gaussian's entries as they were built before the scaling and
    the diagonal terms went in place."""
    gen = rng.generator()
    sigma2 = 1.0 / (d + 1)
    m = np.zeros((d, d), dtype=complex)
    diag = gen.standard_normal(d) * np.sqrt(sigma2)
    n_off = d * (d - 1) // 2
    if n_off:
        m[np.triu_indices(d, k=1)] = standard_complex_normal(gen, n_off) * np.sqrt(sigma2)
        m += m.conj().T
    m[np.diag_indices(d)] = diag
    x = float(gen.standard_normal(1)[0])
    return np.sqrt(var) * (m + x / np.sqrt(d + 1) * np.eye(d)) + mean * np.eye(d)


@pytest.mark.parametrize("case", list(GAUSSIAN_BYTES))
def test_gaussian_entries_keep_their_bytes(case):
    mean, var, d, t = case
    got = sample_P_gaussian(mean, var, d, RngStream(9, t)).entries.tobytes()
    assert got == _gaussian_out_of_place(mean, var, d, RngStream(9, t)).tobytes()
    assert hashlib.sha256(got).hexdigest() == GAUSSIAN_BYTES[case]


def test_gaussian_case_peaks_at_a_few_matrices():
    # at the peak, the sample's Hermitian check holds its one d x d
    # temporary and that temporary's real modulus next to the matrix
    sample_P_gaussian(0.5, 2.0, 3, RngStream(1, 0))
    tracemalloc.start()
    try:
        m = sample_P_gaussian(0.5, 2.0, 400, RngStream(1, 0)).entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * m.nbytes


def _traced(build):
    """build() and its tracemalloc peak."""
    tracemalloc.start()
    try:
        out = build()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one BLOCK x BLOCK complex tile, which holds the temporaries of
# _hermitian_part, plus 64 KiB for numpy's bookkeeping
TILE_BOUND = BLOCK * BLOCK * 16 + 2**16


@pytest.mark.parametrize("model", ["hermitian", "nonhermitian"])
def test_tail_only_entries_are_built_in_one_matrix(model):
    # the kept tail's d x d sum is consumed: its Hermitian part (P) and the
    # shift are written over it, one tile at a time, where building them in
    # an array of their own took 1.0 d x d array beyond the parts for P and L
    d = 300
    gen = RngStream(4, 0).generator()
    r = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    want = 0.7 * np.eye(d) + (r + r.conj().T) / 2.0 if model == "hermitian" else r.copy()
    sample = (HermitianSample(dim=d, shift=0.7, tail=r) if model == "hermitian"
              else ComplexMatrixSample(dim=d, tail=r))
    m, peak = _traced(lambda: sample.entries)
    assert peak <= TILE_BOUND
    assert np.array_equal(m, want) and np.shares_memory(m, r)


@pytest.mark.parametrize("d", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_hermitian_part_is_the_out_of_place_sum_byte_for_byte(d):
    # a real r makes every imaginary part a sum of opposite zeros, +0 in
    # that order, where conj((conj(b) + a) / 2) would be -0 below the diagonal
    gen = RngStream(5, d).generator()
    for r in standard_complex_normal(gen, (d, d)), gen.standard_normal((d, d)) + 0j:
        want = (np.conjugate(r.T) + r) / 2
        m = _hermitian_part(r)
        assert m is r and m.tobytes() == want.tobytes()
        assert np.array_equal(m, m.conj().T)


def test_hermitian_part_holds_one_tile():
    d = 600
    _hermitian_part(np.ones((2, 2), dtype=complex))  # warm caches and imports
    r = standard_complex_normal(RngStream(6, 0).generator(), (d, d))
    _, peak = _traced(lambda: _hermitian_part(r))
    assert peak <= TILE_BOUND


def test_low_rank_P_entries_hold_two_matrices_and_a_quarter():
    # n ~ Poisson(d / 2) < d terms: the own-basis product V_u C V_u^* is the
    # entries, its Hermitian part written over it; 3.0 d x d arrays when that
    # part was built in an array of its own, 2.0 with numpy 2.4 now (the thin
    # QR of the d x n Haar columns is the rest)
    d = 1000
    sample_P_many(poisson(0.5), 20, RngStream(1, 0), 1)[0].entries  # warm caches and imports
    sample = sample_P_many(poisson(0.5), d, RngStream(1, 0), 1)[0]
    assert sample.low_rank
    _, peak = _traced(lambda: sample.entries)
    assert peak < 2.25 * d * d * 16

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bplab.hermitian import (
    HermitianSample,
    _decompose,
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
        tails.append(sample_P_compound_poisson(rho, dec.tail.lam, d, gen).entries)
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


@pytest.mark.parametrize("model", ["hermitian", "nonhermitian"])
def test_tail_only_entries_are_built_in_one_matrix(model):
    # the tail's d x d sum is symmetrized (P), shifted and copied in place:
    # one d x d array beyond the parts, where building it out of place took
    # 3.1 of them for P and 2.0 for L
    d = 300
    gen = RngStream(4, 0).generator()
    r = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    sample = (HermitianSample(dim=d, shift=0.7, tail=r) if model == "hermitian"
              else ComplexMatrixSample(dim=d, tail=r))
    tracemalloc.start()
    try:
        m = sample.entries
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * r.nbytes
    want = 0.7 * np.eye(d) + (r + r.conj().T) / 2.0 if model == "hermitian" else r
    assert np.array_equal(m, want) and m is not r

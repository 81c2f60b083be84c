import numpy as np
import pytest

from bplab.levy import FiniteMeasure, LevyTriple, cauchy, convolve, gaussian, poisson
from bplab.nonhermitian import (
    ComplexMatrixSample,
    sample_K,
    sample_L,
    sample_L_compound_poisson,
    sample_L_gaussian,
    sample_L_many,
    singular_values,
    symmetrized_singular_law,
)
from bplab.rng import RngStream, sub_key, sub_stream
from bplab.spectra import empirical_moments
from bplab.sphere import sample_sphere_vectors


def sym_two_point():
    return LevyTriple(0.0, FiniteMeasure(((1.0, 0.5), (-1.0, 0.5))))


def test_complex_sample_validation():
    with pytest.raises(ValueError):
        ComplexMatrixSample(np.zeros((2, 3), dtype=complex))


def test_sample_K_singular_values_are_absolute_draws():
    m = sample_K(np.array([-3.0, 1.0, 2.0]), RngStream(0, 0))
    s = singular_values(m)
    assert np.allclose(np.sort(s), [1.0, 2.0, 3.0], atol=1e-10)


def test_ginibre_entry_scale():
    d = 40
    m = sample_L_gaussian(d, RngStream(1, 0), scale=2.0).entries
    # mean squared modulus of the entries should be near scale / d
    avg = np.mean(np.abs(m) ** 2)
    assert abs(avg - 2.0 / d) < 5 * (2.0 / d) / np.sqrt(d * d)


def test_ginibre_of_scale_zero_draws_nothing():
    # a point mass at 0: the zero matrix, and the generator left where it was
    gen, untouched = RngStream(8, 0).generator(), RngStream(8, 0).generator()
    m = sample_L_gaussian(6, gen, 0.0)
    assert m.block is None and np.all(m.entries == 0) and m.entries.shape == (6, 6)
    assert gen.standard_normal(4).tobytes() == untouched.standard_normal(4).tobytes()


def test_ginibre_second_moment():
    vals = []
    for i in range(200):
        m = sample_L_gaussian(25, RngStream(1, i))
        vals.append(empirical_moments(symmetrized_singular_law(m), 2)[2])
    vals = np.array(vals)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 4 * stderr


def test_compound_poisson_zero_intensity():
    rho = FiniteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    m = sample_L_compound_poisson(rho, 0.0, 4, RngStream(2, 1))
    assert np.all(m.entries == 0)


def test_rank_one_rows_are_drawn_per_jump():
    # v_k is the sphere row drawn right after u_k, from the sub-stream of the
    # key drawn after the jumps, so the variates of jump k do not depend on
    # how many jumps follow it
    rho = FiniteMeasure(((-1.0, 0.5), (1.0, 0.5)))
    m = sample_L_compound_poisson(rho, 1.5, 4, RngStream(9, 0)).entries
    gen = RngStream(9, 0).generator()
    n = int(gen.poisson(4 * 1.5))
    x = gen.choice([-1.0, 1.0], size=n, p=[0.5, 0.5])
    rows = sample_sphere_vectors(4, 2 * n, sub_stream(sub_key(gen)))
    expected = sum(x[k] * np.outer(rows[2 * k], rows[2 * k + 1].conj()) for k in range(n))
    assert n > 1 and np.allclose(m, expected, rtol=0.0, atol=1e-12)


def test_composite_draw_order_is_ginibre_block_then_rank_ones():
    # Ginibre block plus a symmetric two-point tail, both from one generator
    from bplab.hermitian import _decompose

    t = convolve(gaussian(0.0, 0.7), sym_two_point())
    d = 5
    dec = _decompose(t, 0.5)
    rho = dec.tail.rho
    gen = RngStream(13, 0).generator()
    expected, tails = [], []
    for _ in range(2):
        m = np.zeros((d, d), dtype=complex) + sample_L_gaussian(d, gen, scale=dec.var).entries
        tails.append(sample_L_compound_poisson(rho, dec.tail.lam, d, gen, summed=True).entries)
        expected.append(m + tails[-1])
    got = sample_L_many(t, d, RngStream(13, 0), 2, inner_cut=0.5)
    assert all(np.array_equal(g.entries, e) for g, e in zip(got, expected))
    assert dec.var > 0 and any(np.any(r != 0) for r in tails)


def test_composite_sampler_rejects_asymmetric_triples():
    with pytest.raises(ValueError):
        sample_L(poisson(1.0), 3, RngStream(3, 0))
    with pytest.raises(ValueError):
        sample_L(gaussian(0.5, 1.0), 3, RngStream(3, 0))


def test_composite_sampler_accepts_symmetric_triples():
    for t in (gaussian(0.0, 1.0), sym_two_point(), cauchy(1.0)):
        m = sample_L(t, 6, RngStream(3, 1), inner_cut=0.5)
        assert m.dim == 6


def test_symmetrized_law_structure():
    m = sample_L(sym_two_point(), 8, RngStream(4, 0))
    law = symmetrized_singular_law(m)
    assert law.support_points.size == 16
    assert np.allclose(np.sort(law.support_points), np.sort(-law.support_points[::-1]))
    mom = empirical_moments(law, 3)
    assert mom[1] == pytest.approx(0.0, abs=1e-12)
    assert mom[3] == pytest.approx(0.0, abs=1e-12)


def test_even_moment_equals_gram_trace():
    m = sample_L(sym_two_point(), 10, RngStream(4, 1))
    law = symmetrized_singular_law(m)
    gram = m.entries.conj().T @ m.entries
    assert empirical_moments(law, 2)[2] == pytest.approx(
        np.trace(gram).real / 10, abs=1e-10
    )


def test_batch_variant_reproducibility():
    a = sample_L_many(sym_two_point(), 5, RngStream(5, 0), 3)
    b = sample_L_many(sym_two_point(), 5, RngStream(5, 0), 3)
    for x, y in zip(a, b):
        assert np.array_equal(x.entries, y.entries)

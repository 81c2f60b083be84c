import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bplab.cumulants import (
    CumulantSequence,
    MomentSequence,
    bp_transport,
    cumulants_from_moments,
    moments_from_cumulants,
)
from oracles import lattice_moment


def test_sequence_validation():
    with pytest.raises(ValueError):
        MomentSequence(())
    with pytest.raises(ValueError):
        CumulantSequence("weird", (1.0,))
    m = MomentSequence((2.0, 5.0))
    assert m[0] == 1.0 and m[1] == 2.0 and m[2] == 5.0 and m.kmax == 2


def test_sequence_orders_outside_1_to_kmax_raise():
    # a tuple index would wrap: [0] of the cumulants read c_3, [-1] read c_2
    m, c = MomentSequence((1.0, 2.0, 3.0)), CumulantSequence("free", (1.0, 2.0, 3.0))
    assert m[0] == 1.0 and m[3] == c[3] == 3.0
    # iteration, membership, len and numpy see the values, without m_0
    assert list(m) == list(c) == [1.0, 2.0, 3.0]
    assert 2.0 in c and 2.0 in m and 0.0 not in m
    assert len(m) == len(c) == 3
    assert np.array_equal(np.asarray(m), [1.0, 2.0, 3.0]) and np.asarray(c).shape == (3,)
    for seq, k in [(m, -1), (m, 4), (c, 0), (c, -1), (c, 4)]:
        with pytest.raises(IndexError):
            seq[k]


def test_cumulant_addition():
    a = CumulantSequence("classical", (1.0, 2.0))
    b = CumulantSequence("classical", (0.5, -1.0))
    assert (a + b).values == (1.5, 1.0)
    with pytest.raises(ValueError):
        a + CumulantSequence("free", (0.5, -1.0))


def test_standard_gaussian_moments():
    c = CumulantSequence("classical", (0.0, 1.0, 0.0, 0.0))
    assert moments_from_cumulants(c).values == (0.0, 1.0, 0.0, 3.0)


def test_standard_semicircle_moments():
    c = CumulantSequence("free", (0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
    assert moments_from_cumulants(c).values == (0.0, 1.0, 0.0, 2.0, 0.0, 5.0)


def test_free_poisson_moments():
    c = CumulantSequence("free", (1.0, 1.0, 1.0))
    assert moments_from_cumulants(c).values == (1.0, 2.0, 5.0)


CATALAN = tuple(math.comb(2 * n, n) // (n + 1) for n in range(1, 25))  # all below 2**53


def test_free_poisson_moments_are_catalan_to_order_24():
    c = CumulantSequence("free", (1.0,) * 24)
    assert moments_from_cumulants(c).values == CATALAN


def test_semicircle_even_moments_are_catalan_to_order_48():
    c = CumulantSequence("free", (0.0, 1.0) + (0.0,) * 46)
    m = moments_from_cumulants(c).values
    assert m[1::2] == CATALAN and m[::2] == (0.0,) * 24


def test_free_round_trip_at_order_24():
    c = CumulantSequence("free", tuple(np.random.default_rng(24).uniform(-0.5, 0.5, 24)))
    back = cumulants_from_moments(moments_from_cumulants(c), "free")
    assert np.allclose(back.values, c.values, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("kind", ("classical", "free"))
def test_recursion_matches_lattice_sum(kind):
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = tuple(rng.uniform(-2, 2, size=8))
        m = moments_from_cumulants(CumulantSequence(kind, c))
        for n in range(1, 9):
            assert m[n] == pytest.approx(lattice_moment(c, n, kind), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kind", ("classical", "free"))
@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=1, max_size=8))
def test_round_trip(kind, values):
    c = CumulantSequence(kind, tuple(values))
    back = cumulants_from_moments(moments_from_cumulants(c), kind)
    assert back.kind == kind
    assert np.allclose(back.values, c.values, rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("kind", ("classical", "free"))
def test_inverse_round_trip(kind):
    m = MomentSequence((0.3, 1.2, -0.4, 5.0, 1.1, 7.7, -2.0, 40.0))
    again = moments_from_cumulants(cumulants_from_moments(m, kind))
    assert np.allclose(again.values, m.values, rtol=1e-10, atol=1e-10)


def _left_to_right(terms):
    """0.0 + terms[0] + terms[1] + ..., each addition rounded in turn."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _moments_summed_by(add, kind, c):
    """The moments of the cumulants c by the recursion of the walk, each
    inner sum taken by add: m_n = sum_j C(n-1, j-1) c_j m_{n-j} (classical),
    or m_n = c_1 m_{n-1} + c_2 h_2[n-2] + ... (free, from its first term)
    with h_s[t] = sum_i h_{s-1}[i] m_{t-i} and h_1 = m."""
    m = [1.0]
    for n in range(1, len(c) + 1):
        if kind == "classical":
            m.append(add([math.comb(n - 1, j - 1) * c[j - 1] * m[n - j] for j in range(1, n + 1)]))
            continue
        h = {1: m[:]}
        for s in range(2, n + 1):
            h[s] = [add([h[s - 1][i] * m[t - i] for i in range(t + 1)]) for t in range(n - s + 1)]
        total = c[0] * h[1][n - 1]
        for s in range(2, n + 1):
            total += c[s - 1] * h[s][n - s]
        m.append(total)
    return tuple(m[1:])


@pytest.mark.parametrize("kind", ("classical", "free"))
def test_walk_adds_left_to_right(kind):
    # CPython 3.12 made sum() of floats compensated; the walk rounds each
    # addition in turn, so its bits are those of CPython <= 3.11 on any version
    c = (0.3, 0.625, 0.125, 0.25, 0.0625, 0.03125, 0.1, 0.7, -0.2, 0.9)
    want = _moments_summed_by(_left_to_right, kind, c)
    assert moments_from_cumulants(CumulantSequence(kind, c)).values == want
    # on this sequence a compensated sum gives other bits
    assert _moments_summed_by(math.fsum, kind, c) != want


def test_bp_transport_is_cumulant_identity():
    c = CumulantSequence("classical", (0.5, 1.5, -0.2))
    f = bp_transport(c)
    assert f.kind == "free" and f.values == c.values
    with pytest.raises(ValueError):
        bp_transport(f)


def test_bp_transport_maps_gaussian_to_semicircle():
    gauss = cumulants_from_moments(MomentSequence((0.0, 1.0, 0.0, 3.0)), "classical")
    sc = moments_from_cumulants(bp_transport(gauss))
    assert np.allclose(sc.values, (0.0, 1.0, 0.0, 2.0), atol=1e-12)


def test_bp_transport_maps_poisson_to_marchenko_pastur():
    # classical Poisson(1) has all cumulants 1; its free image has Catalan moments
    pois = CumulantSequence("classical", (1.0,) * 4)
    mp = moments_from_cumulants(bp_transport(pois))
    assert np.allclose(mp.values, (1.0, 2.0, 5.0, 14.0), atol=1e-12)

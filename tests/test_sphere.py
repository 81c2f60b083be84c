import numpy as np
import pytest

from bplab.levy import convolve, dirac, gaussian, poisson
from bplab.rng import RngStream, standard_complex_normal
from bplab.sphere import (
    NORM_ENTRIES,
    pd_fourier,
    sample_simplex_points,
    sample_sphere_vectors,
    simplex_fourier,
    sphere_moment,
)
from oracles import SphereVector, sample_sphere_vector, simplex_fourier_quad


def test_sphere_vector_validation():
    with pytest.raises(ValueError):
        SphereVector(np.array([1.0, 1.0], dtype=complex))
    v = sample_sphere_vector(5, RngStream(0, 0))
    assert v.dim == 5
    assert np.sum(v.simplex_point()) == pytest.approx(1.0, abs=1e-12)


def test_batched_vectors_are_unit_norm():
    u = sample_sphere_vectors(4, 100, RngStream(0, 1))
    assert u.shape == (100, 4)
    assert np.allclose(np.sum(np.abs(u) ** 2, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("d, n", [(1, 1), (1, 3), (5, 0), (5, 1), (5, 3), (5, 5), (5, 8),
                                  (50, 20), (50, 49)])
def test_own_basis_rows_are_unit_lower_trapezoidal(d, n):
    u = sample_sphere_vectors(d, n, RngStream(0, 3 + 100 * d + n), own_basis=True)
    m = min(n, d)
    assert u.shape == (n, m)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, rtol=0.0, atol=1e-14)
    assert not np.any(np.triu(u, 1))
    diag = np.diagonal(u)
    assert not np.any(diag.imag) and np.all(diag.real > 0.0)
    if n:
        assert abs(u[0, 0] - 1.0) <= 1e-15  # the first row spans the first basis vector


def _whole_array_rows(d, n, rng, own_basis):
    """The draws of sample_sphere_vectors, each row scaled by one norm call
    over the whole array."""
    gen = rng.generator()
    if own_basis:
        m = min(n, d)
        below = np.tri(n, m, -1, dtype=bool)
        raw = np.zeros((n, m), dtype=complex)
        raw[below] = standard_complex_normal(gen, np.count_nonzero(below))
        diag = np.arange(m)
        raw[diag, diag] = np.sqrt(gen.standard_gamma(d - diag))
    else:
        raw = standard_complex_normal(gen, (n, d))
    raw.view(float)[...] *= 1.0 / np.linalg.norm(raw, axis=1, keepdims=True)
    return raw


@pytest.mark.parametrize("own_basis", [False, True])
@pytest.mark.parametrize("d", [200, 1500])
def test_chunked_row_norms_keep_the_whole_array_bytes(d, own_basis):
    c = max(1, NORM_ENTRIES // d)
    for n in (1, c - 1, c, c + 1, 3 * c + 5):
        got = sample_sphere_vectors(d, n, RngStream(5, n), own_basis=own_basis)
        want = _whole_array_rows(d, n, RngStream(5, n), own_basis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_own_basis_rows_take_no_out_array():
    with pytest.raises(ValueError):
        sample_sphere_vectors(4, 2, RngStream(0, 4), np.empty((2, 4), complex), own_basis=True)


@pytest.mark.parametrize("d, n", [(3, 2), (6, 4), (12, 11)])
def test_own_basis_inner_products_have_the_sphere_moments(d, n):
    # |<u_i, u_j>|^2 of two independent uniform rows is the first coordinate
    # of a uniform simplex point: mean 1/d, second moment 2/(d(d+1)); the
    # pairs of one draw are averaged, so the draws are the independent units
    gen = RngStream(9, d).generator()
    i, j = np.triu_indices(n, 1)
    per_draw = []
    for _ in range(20000):
        u = sample_sphere_vectors(d, n, gen, own_basis=True)
        p = np.abs(u @ u.conj().T)[i, j] ** 2
        per_draw.append([p.mean(), (p * p).mean()])
    per_draw = np.array(per_draw)
    mean = per_draw.mean(axis=0)
    stderr = per_draw.std(axis=0, ddof=1) / np.sqrt(len(per_draw))
    want = np.array([1.0 / d, 2.0 / (d * (d + 1))])
    assert np.all(np.abs(mean - want) <= 4.0 * stderr)


def test_simplex_points_live_on_the_simplex():
    z = sample_simplex_points(6, 50, RngStream(0, 2))
    assert np.all(z >= 0)
    assert np.allclose(z.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# exact moments


def test_sphere_moment_closed_form_values():
    assert sphere_moment(1, (3,)) == pytest.approx(1.0)
    assert sphere_moment(3, (1, 1, 0)) == pytest.approx(1.0 / 12.0)
    for d in (2, 3, 7):
        alpha = [0] * d
        alpha[0] = 1
        assert sphere_moment(d, alpha) == pytest.approx(1.0 / d)
        alpha[0] = 2
        assert sphere_moment(d, alpha) == pytest.approx(2.0 / (d * (d + 1)))


def test_sphere_moment_validation():
    with pytest.raises(ValueError):
        sphere_moment(3, (1, 1))
    with pytest.raises(ValueError):
        sphere_moment(2, (1, -1))


def test_sphere_moment_monte_carlo():
    d, alpha = 4, (2, 1, 0, 0)
    z = sample_simplex_points(d, 200000, RngStream(1, 0))
    vals = np.prod(z ** np.array(alpha), axis=1)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - sphere_moment(d, alpha)) < 4 * stderr


# ---------------------------------------------------------------------------
# Fourier transform of the simplex law


def test_simplex_fourier_d2_closed_form():
    t = 1.3
    val = simplex_fourier((t, 0.0))
    assert val == pytest.approx((np.exp(1j * t) - 1.0) / (1j * t), abs=1e-12)


@pytest.mark.parametrize("a", [(0.7, -1.3), (2.0, 0.1), (0.5, 1.7, -0.9), (3.0, -1.0, 0.25)])
def test_simplex_fourier_matches_quadrature(a):
    assert abs(simplex_fourier(a) - simplex_fourier_quad(a)) < 1e-6


def test_simplex_fourier_rejects_degenerate_input():
    with pytest.raises(ValueError):
        simplex_fourier((1.0, 1.0))
    with pytest.raises(ValueError):
        simplex_fourier((0.0, 1e-10, 2.0))
    with pytest.raises(ValueError):
        simplex_fourier((1.0,))


def test_simplex_fourier_at_zero_like_arguments():
    # small but nondegenerate arguments stay near 1
    assert abs(simplex_fourier((1e-3, -1e-3)) - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# matrix-law Fourier transform


def test_pd_fourier_zero_test_matrix_is_one():
    est = pd_fourier(gaussian(0, 1), np.zeros(3), 3, 10, RngStream(2, 0))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_pd_fourier_scalar_test_matrix_is_deterministic():
    # for A = alpha I the inner product <Z, a> is alpha for every Z, so the
    # estimate equals exp(d psi(alpha)) with zero Monte Carlo spread
    alpha, d = 0.8, 4
    t = convolve(gaussian(0.1, 1.0), poisson(0.5))
    from bplab.levy import levy_exponent

    est = pd_fourier(t, np.full(d, alpha), d, 50, RngStream(2, 1))
    assert est.value == pytest.approx(np.exp(d * levy_exponent(t, alpha)), abs=1e-12)
    assert est.exponent_stderr < 1e-12


def test_pd_fourier_multiplicative_over_convolution():
    # with a shared stream the simplex draws coincide, so the homomorphism
    # holds exactly at the exponent level
    t1, t2 = gaussian(0.2, 1.0), poisson(0.7)
    a = np.array([0.5, -1.0, 0.3])
    e1 = pd_fourier(t1, a, 3, 200, RngStream(3, 7))
    e2 = pd_fourier(t2, a, 3, 200, RngStream(3, 7))
    e12 = pd_fourier(convolve(t1, t2), a, 3, 200, RngStream(3, 7))
    assert e12.exponent_mean == pytest.approx(e1.exponent_mean + e2.exponent_mean, abs=1e-12)
    assert e12.value == pytest.approx(e1.value * e2.value, rel=1e-12)


def test_pd_fourier_dirac_shifts_phase():
    a = np.array([1.0, 2.0])
    est = pd_fourier(dirac(0.5), a, 2, 100, RngStream(3, 8))
    # psi(x) = i 0.5 x, so the exponent is 0.5 i d <Z, a> averaged over draws;
    # modulus is exactly one
    assert abs(abs(est.value) - 1.0) < 1e-12


def test_pd_fourier_validation():
    with pytest.raises(ValueError):
        pd_fourier(gaussian(0, 1), np.zeros(3), 3, 0, RngStream(0, 0))
    with pytest.raises(ValueError):
        pd_fourier(gaussian(0, 1), np.zeros(2), 3, 5, RngStream(0, 0))

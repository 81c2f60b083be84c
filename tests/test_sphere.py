import numpy as np
import pytest

from bplab.levy import convolve, dirac, gaussian, poisson
from bplab.rng import RngStream
from bplab.sphere import (
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

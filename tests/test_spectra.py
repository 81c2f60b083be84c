import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from bplab.levy import convolve, dirac, gaussian, poisson
from bplab.spectra import (
    EmpiricalDistribution,
    GridSpec,
    ReferenceLaw,
    cauchy_law,
    cauchy_sup_distance,
    cauchy_transform,
    dirac_law,
    empirical_moments,
    esd,
    histogram,
    marchenko_pastur,
    psi_image_moments,
    semicircle,
    _REAL_BOUND,
)
from oracles import (empirical_transform_by_division, mp_atom, mp_transform_quad,
                     reference_density)


def test_empirical_distribution_validation_and_sorting():
    with pytest.raises(ValueError):
        EmpiricalDistribution(np.array([]))
    nu = EmpiricalDistribution([3.0, 1.0, 2.0, 1.0])
    assert list(nu.support_points) == [1.0, 1.0, 2.0, 3.0]


def test_from_samples_and_point_mass():
    # samples give the uniform law, each point weighing 1/N
    nu = EmpiricalDistribution([3.0, 1.0, 2.0])
    assert empirical_moments(nu, 2).values == pytest.approx((2.0, 14.0 / 3.0))
    pm = EmpiricalDistribution([2.0])
    assert list(pm.support_points) == [2.0]
    assert empirical_moments(pm, 3).values == pytest.approx((2.0, 4.0, 8.0))


def test_esd_of_a_diagonal_matrix():
    nu = esd(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.allclose(nu.support_points, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        esd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_empirical_moments_by_hand():
    nu = EmpiricalDistribution(np.array([-1.0, 2.0]))
    m = empirical_moments(nu, 3)
    assert m.values == (0.5, 2.5, 3.5)


# ---------------------------------------------------------------------------
# reference laws: moments and densities


def test_reference_moments_semicircle_catalan():
    m = psi_image_moments(gaussian(0.0, 1.0), 8)
    assert np.allclose(m.values, (0, 1, 0, 2, 0, 5, 0, 14), atol=1e-12)


def test_reference_moments_dirac():
    assert psi_image_moments(dirac(2.0), 3).values == (2.0, 4.0, 8.0)


@pytest.mark.parametrize(
    "law", [semicircle(0.0, 1.0), semicircle(1.0, 0.5), marchenko_pastur(0.7),
            marchenko_pastur(1.5), cauchy_law(2.0)]
)
def test_densities_are_probability_densities(law):
    if law.kind == "semicircle":
        mean, r = law.params
        lo, hi = mean - 2 * r, mean + 2 * r
    elif law.kind == "marchenko_pastur":
        (lam,) = law.params
        lo, hi = (1 - lam**0.5) ** 2, (1 + lam**0.5) ** 2
    else:
        lo, hi = -np.inf, np.inf
    total, _ = integrate.quad(lambda x: reference_density(law, x), lo, hi, limit=400)
    if law.kind == "marchenko_pastur":
        total += mp_atom(law)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("law", [semicircle(0.3, 1.2), marchenko_pastur(0.6)])
def test_reference_moments_match_density_quadrature(law):
    # the free images of gaussian(mean, r^2) and poisson(lam)
    if law.kind == "semicircle":
        mean, r = law.params
        ref = psi_image_moments(gaussian(mean, r * r), 4)
    else:
        ref = psi_image_moments(poisson(*law.params), 4)
    for k in range(1, 5):
        val, _ = integrate.quad(
            lambda x: x**k * reference_density(law, x), -10, 10, limit=400
        )
        if law.kind == "marchenko_pastur":
            val += 0.0**k * mp_atom(law)
        assert val == pytest.approx(ref[k], abs=1e-7)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize(
    "make, args",
    [(semicircle, (x, 1.0)) for x in NON_FINITE]
    + [(semicircle, (0.0, x)) for x in NON_FINITE]
    + [(make, (x,)) for make in (cauchy_law, marchenko_pastur, dirac_law) for x in NON_FINITE],
)
def test_reference_laws_refuse_non_finite_parameters(make, args):
    with pytest.raises(ValueError):
        make(*args)


def test_reference_law_parameter_bounds():
    for make, args in ((semicircle, (0.0, 0.0)), (cauchy_law, (0.0,)),
                       (marchenko_pastur, (-1e-300,))):
        with pytest.raises(ValueError):
            make(*args)
    # the class checks what the factories pass it: a Cauchy(-1) target read
    # a distance of 3.5e13, and a NaN radius warned and read NaN
    for kind, params in (("cauchy", (-1.0,)), ("semicircle", (0.0, math.nan)),
                         ("dirac", ()), ("marchenko_pastur", (0.5, 1.0)), ("gumbel", (1.0,))):
        with pytest.raises(ValueError):
            ReferenceLaw(kind, params)
    assert marchenko_pastur(0.0).params == (0.0,)
    assert semicircle(-1e300, 1e-300).params == (-1e300, 1e-300)
    assert dirac_law(-1e308).params == (-1e308,)


def test_mp_atom():
    assert mp_atom(marchenko_pastur(0.25)) == pytest.approx(0.75)
    assert mp_atom(marchenko_pastur(2.0)) == 0.0
    with pytest.raises(ValueError):
        mp_atom(semicircle())


# ---------------------------------------------------------------------------
# transforms


def mirror(s):
    """The points +-s: an even support that is its own negation reversed."""
    s = np.abs(s)
    return np.concatenate([-s, s])


def test_transform_of_point_masses():
    z = 0.5 + 2.0j
    assert cauchy_transform(dirac_law(1.0), z) == pytest.approx(1.0 / (1.0 - z))
    emp = EmpiricalDistribution([1.0])
    assert cauchy_transform(emp, z) == pytest.approx(1.0 / (1.0 - z))


def test_transform_of_cauchy_law():
    z = -1.0 + 1.5j
    assert cauchy_transform(cauchy_law(0.5), z) == pytest.approx(-1.0 / (z + 0.5j))


def test_semicircle_transform_satisfies_quadratic():
    # f solves r^2 f^2 + (z - mean) f + 1 = 0 on the upper half plane
    law = semicircle(0.4, 1.3)
    for z in (1.0 + 1.0j, -2.0 + 2.5j, 0.4 + 1.0j, 6.0 + 1.0j):
        f = cauchy_transform(law, z)
        assert abs(1.3**2 * f * f + (z - 0.4) * f + 1.0) < 1e-12
        assert f.imag > 0


def test_marchenko_pastur_transform_matches_moment_series():
    # at high z the transform equals -1/z - m1/z^2 - m2/z^3 - ...
    law = marchenko_pastur(0.7)
    m = psi_image_moments(poisson(0.7), 8)
    z = 8.0j
    series = -1.0 / z - sum(m[k] / z ** (k + 1) for k in range(1, 9))
    assert abs(cauchy_transform(law, z) - series) < 1e-5


def test_transform_is_herglotz_on_the_grid():
    grid = GridSpec()
    law = marchenko_pastur(1.2)
    for z in grid.points()[::40]:
        assert cauchy_transform(law, z).imag > 0


def test_transform_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        cauchy_transform(dirac_law(0.0), 1.0 - 1.0j)
    for zs in ([1.0 + 1.0j, 2.0 - 1.0j], [[1.0 + 1.0j], [2.0 + 0.0j]]):
        with pytest.raises(ValueError):
            cauchy_transform(semicircle(), np.array(zs))


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.5])
def test_marchenko_pastur_closed_form_matches_quadrature(lam):
    zs = GridSpec().points()
    f = cauchy_transform(marchenko_pastur(lam), zs)
    assert np.max(np.abs(f - mp_transform_quad(lam, zs))) <= 1e-8


@pytest.mark.parametrize(
    "nu",
    [
        dirac_law(0.5),
        cauchy_law(1.5),
        semicircle(0.2, 0.8),
        marchenko_pastur(0.0),
        marchenko_pastur(0.4),
        EmpiricalDistribution([-1.0]),
        # 5000 support points x 63 grid points spans several blocks of z;
        # 70000 points split the support as well
        EmpiricalDistribution(np.random.default_rng(1).standard_normal(5000)),
        EmpiricalDistribution(np.random.default_rng(2).standard_normal(70000)),
        # its own mirror image, with +-0 pairs: summed over its squares
        EmpiricalDistribution(mirror(np.r_[0.0, 0.0, np.random.default_rng(3).standard_normal(7)])),
    ],
    ids=lambda nu: getattr(nu, "kind", "empirical"),
)
def test_array_transform_equals_scalar_calls(nu):
    zs = GridSpec((-3.0, 3.0), 0.3, (1.0, 2.5, 7.0)).points().reshape(3, -1)
    f = cauchy_transform(nu, zs)
    assert f.shape == zs.shape
    expected = np.array([[cauchy_transform(nu, complex(z)) for z in row] for row in zs])
    if isinstance(nu, EmpiricalDistribution):
        # the same terms summed per grid point in the same order
        assert np.array_equal(f, expected)
    else:
        # numpy's array loops for complex arithmetic can round differently
        # from its scalar path, and the closed forms cancel in -z + root
        np.testing.assert_allclose(f, expected, rtol=64 * np.finfo(float).eps, atol=0)
    assert isinstance(cauchy_transform(nu, 1.0 + 1.0j), complex)


GRID = GridSpec((-3.0, 3.0), 0.3, (1.0, 2.5, 7.0)).points()


@pytest.mark.parametrize(
    "x, zs",
    [
        (np.array([0.3]), GRID),
        (np.random.default_rng(4).standard_normal(7), GRID),
        # its ends mirror each other but the rest does not
        (np.array([-2.0, -1.0, 0.5, 2.0]), GRID),
        (np.random.default_rng(5).standard_normal(5000), GRID),
        (np.random.default_rng(6).standard_normal(70000), GRID),
        (mirror(np.r_[0.0, 0.0, 0.0, np.random.default_rng(7).standard_normal(20)]), GRID),
        (mirror(np.random.default_rng(8).standard_normal(40000)), GRID),
        # a pooled law of three symmetrized singular laws
        (np.concatenate([mirror(np.random.default_rng(9 + k).standard_normal(300))
                         for k in range(3)]), GRID),
        # at the real kernels' bounds, and beyond them: complex division
        (np.array([-_REAL_BOUND, -1.0, 1.0, _REAL_BOUND]),
         np.r_[1j / _REAL_BOUND, (1 + 1j) * _REAL_BOUND / 2, 1j - _REAL_BOUND / 2, GRID]),
        (np.array([-1.0, 0.5, 1e300]), GRID),
        (np.array([-1e300, 1e300]), GRID),
        (np.array([-1.3e154, -1.0, 1.0, 1.3e154]), GRID),
        (np.array([0.5, 2.0]), np.r_[0.5 + 1e-300j, GRID, 1e300 + 1j]),
    ],
    ids=["one-point", "seven-points", "mirrored-ends", "5000-points", "70000-points",
         "mirror-zeros", "mirror-80000", "mirror-pool", "at-the-bound", "jump-1e300",
         "mirror-1e300", "pairs-1.3e154", "tiny-imaginary-part"],
)
def test_empirical_transform_agrees_with_complex_division(x, zs):
    nu = EmpiricalDistribution(x)
    want, scale = empirical_transform_by_division(nu.support_points, zs)
    assert np.all(np.abs(cauchy_transform(nu, zs) - want) <= 1e-13 * scale)


def test_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bplab, bplab.cli; sys.exit('scipy' in sys.modules and 'scipy imported')"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_sup_distance_properties():
    a, b = dirac_law(0.0), dirac_law(1.0)
    assert cauchy_sup_distance(a, a) == 0.0
    d = cauchy_sup_distance(a, b)
    grid = GridSpec()
    expected = max(
        abs(1.0 / (0.0 - z) - 1.0 / (1.0 - z)) for z in grid.points()
    )
    assert d == pytest.approx(expected, rel=1e-12)
    assert d > 0.1


def test_empirical_semicircle_approaches_reference():
    rng = np.random.default_rng(0)
    # direct draw from the semicircle density by rejection
    xs = []
    while len(xs) < 20000:
        x = rng.uniform(-2, 2, size=1000)
        y = rng.uniform(0, 1 / np.pi, size=1000)
        keep = y < np.sqrt(4 - x * x) / (2 * np.pi)
        xs.extend(x[keep])
    nu = EmpiricalDistribution(np.array(xs[:20000]))
    assert cauchy_sup_distance(nu, semicircle(0.0, 1.0)) < 0.02


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(real_range=(1.0, -1.0))
    with pytest.raises(ValueError):
        GridSpec(imaginary_levels=(0.5,))
    pts = GridSpec((-1.0, 1.0), 0.5, (1.0,)).points()
    assert np.allclose(pts, np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) + 1.0j)


# ---------------------------------------------------------------------------
# free images


def test_psi_image_moments_of_poisson_is_marchenko_pastur():
    assert np.allclose(
        psi_image_moments(poisson(1.0), 4).values, (1.0, 2.0, 5.0, 14.0), atol=1e-12
    )
    assert np.allclose(
        psi_image_moments(poisson(0.5), 4).values, (0.5, 0.75, 1.375, 2.8125), atol=1e-12
    )
    assert psi_image_moments(poisson(2.0), 2).values == (2.0, 6.0)


def test_psi_image_moments_of_gaussian_is_semicircle():
    assert np.allclose(
        psi_image_moments(gaussian(0, 1), 6).values, (0, 1, 0, 2, 0, 5), atol=1e-12
    )


def test_psi_image_moments_add_at_the_cumulant_level():
    t = convolve(gaussian(0, 1), poisson(1.0))
    m = psi_image_moments(t, 4)
    assert np.allclose(m.values, (1.0, 3.0, 8.0, 26.0), atol=1e-12)


# ---------------------------------------------------------------------------
# histograms


def test_histogram_preserves_mass():
    nu = EmpiricalDistribution(np.linspace(-1, 1, 101))
    bins = histogram(nu, 7)
    assert sum(m for _, m in bins) == pytest.approx(1.0, abs=1e-12)
    assert len(bins) == 7


def test_histogram_masses_are_bin_counts_over_n():
    # an exact count over N, where adding 1/N once per point rounds
    x = np.random.default_rng(0).standard_normal(2400)
    masses = [m for _, m in histogram(EmpiricalDistribution(x), 40)]
    assert masses == list(np.histogram(x, bins=40)[0] / x.size)


def test_histogram_degenerate_support():
    nu = EmpiricalDistribution([3.0])
    bins = histogram(nu, 3)
    assert sum(m for _, m in bins) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        histogram(nu, 0)

import math
import time

import numpy as np
import pytest

from bplab.levy import (
    MAX_CAUCHY_NODES,
    CompoundPoissonParams,
    FiniteMeasure,
    LevyTriple,
    cauchy,
    compound_poisson_triple,
    convolve,
    cumulants_from_triple,
    dirac,
    gaussian,
    is_symmetric,
    levy_exponent,
    poisson,
    triple_from_spec,
    triple_to_spec,
    truncate,
)
from oracles import fitted_cumulants, is_symmetric_scan, merge_atoms_scan


# ---------------------------------------------------------------------------
# measures


def test_measure_merges_and_sorts():
    g = FiniteMeasure(((2.0, 0.5), (-1.0, 1.0), (2.0, 0.25)))
    assert g.atoms == ((-1.0, 1.0), (2.0, 0.75))
    assert g.total_mass == pytest.approx(1.75)
    assert g.mass_at(2.0) == pytest.approx(0.75)
    assert g.mass_at(5.0) == 0.0
    for arr in (g.locations(), g.weights()):  # stored once, read-only
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_measure_rejects_bad_atoms():
    with pytest.raises(ValueError):
        FiniteMeasure(((0.0, -0.1),))
    with pytest.raises(ValueError):
        FiniteMeasure(((math.inf, 1.0),))
    # a reshape to pairs would read these as atoms
    for bad in (((1.0, 2.0, 3.0),), (1.0, 2.0, 3.0, 4.0), ((1.0, 2.0, 3.0, 4.0),),
                ((1.0, 2.0), (3.0,))):
        with pytest.raises(ValueError):
            FiniteMeasure(bad)


def _bits(atoms):
    return np.array(atoms, dtype=float).view(np.uint64)


def _atoms_with_near_duplicates(rng):
    """Shuffled atoms in groups at most 1e-12 wide and more than 2e-12
    apart: exact and near duplicates, 0.0 next to -0.0 and 1e-12, weights
    of mixed magnitude (so the order of summation shows), some of them 0."""
    n = int(rng.integers(0, 8))
    centers = set(rng.integers(-40, 40, n) / 8.0) | set(rng.uniform(-50.0, 50.0, n // 2))
    if rng.random() < 0.3:
        centers.add(0.0)
    centers |= {c + 4e-12 for c in centers if rng.random() < 0.2}
    atoms = []
    for c in centers:
        if c == 0.0:
            candidates = [0.0, -0.0, 1e-12, 5e-13, 2.0**-40]
        else:
            candidates = [c, c, c + 2.5e-13, c + 5e-13, c + 1e-12, c - 1e-13]
        group = []
        for loc in rng.choice(candidates, int(rng.integers(1, 5))):
            if all(abs(loc - other) <= 1e-12 for other in group):
                group.append(float(loc))
        w = rng.uniform(0.0, 1.0, len(group)) * 10.0 ** rng.integers(-8, 9, len(group))
        w[rng.random(len(group)) < 0.1] = rng.choice([0.0, -0.0])
        atoms += zip(group, w.tolist())
    return [atoms[i] for i in rng.permutation(len(atoms))]


def test_measure_merge_matches_insertion_scan():
    rng = np.random.default_rng(12)
    merged = 0
    for _ in range(600):
        atoms = _atoms_with_near_duplicates(rng)
        expected = merge_atoms_scan(atoms)
        assert np.array_equal(_bits(FiniteMeasure(tuple(atoms)).atoms), _bits(expected)), atoms
        merged += len(expected) < len(atoms)
    assert merged > 300
    assert FiniteMeasure(((0.0, 1.0), (-0.0, 2.0))).atoms == ((0.0, 3.0),)
    assert math.copysign(1.0, FiniteMeasure(((-0.0, 1.0), (0.0, 2.0))).atoms[0][0]) == -1.0


def test_measure_merges_chains_whole():
    # sorted neighbours within 1e-12 merge, so the chain is one atom at its
    # first-inserted location although its ends are 2e-12 apart, whatever
    # the input order
    for atoms in (((0.0, 1.0), (2e-12, 1.0), (1e-12, 1.0)),
                  ((0.0, 1.0), (1e-12, 1.0), (2e-12, 1.0))):
        assert FiniteMeasure(atoms).atoms == ((0.0, 3.0),)


def test_measure_addition_and_integration():
    g = FiniteMeasure.point(1.0, 2.0) + FiniteMeasure.point(-1.0, 1.0)
    assert g.integrate(lambda u: u) == pytest.approx(1.0)
    assert g.integrate(lambda u: u * u) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# exponent


def test_gaussian_exponent_is_quadratic():
    t = gaussian(0.0, 1.0)
    for x in (0.5, 1.0, 2.0, -3.0):
        assert levy_exponent(t, x) == pytest.approx(-x * x / 2.0, abs=1e-12)
    t2 = gaussian(1.5, 2.0)
    x = 0.7
    assert levy_exponent(t2, x) == pytest.approx(1j * 1.5 * x - x * x, abs=1e-12)


def test_poisson_exponent_matches_closed_form():
    t = poisson(1.0)
    for x in (0.1, 1.0, np.pi, -2.0):
        assert levy_exponent(t, x) == pytest.approx(np.exp(1j * x) - 1.0, abs=1e-12)
    assert levy_exponent(t, np.pi) == pytest.approx(-2.0, abs=1e-12)


def test_dirac_exponent_is_linear():
    assert levy_exponent(dirac(2.5), 3.0) == pytest.approx(7.5j, abs=1e-15)


def test_exponent_conjugate_symmetry():
    t = convolve(gaussian(0.3, 1.0), poisson(0.5))
    for x in (0.2, 1.3, 4.0):
        assert levy_exponent(t, -x) == pytest.approx(np.conj(levy_exponent(t, x)))
    assert levy_exponent(t, 0.0) == 0.0


def test_exponent_series_matches_direct_branch():
    # at |xu| = 1e-3 the direct formula is still well conditioned and the
    # series truncation error is far below double precision
    from bplab.levy import _exponent_integrand

    x = 1e-3
    for u in (1.0, -1.0, 2.5):
        t = x * u
        series = (1.0 + u * u) * (
            -(x * x) / 2.0
            - 1j * x * x * t / 6.0
            + x * x * t * t / 24.0
            + 1j * x * x * t * t * t / 120.0
        ) + 1j * x * u
        direct = complex(_exponent_integrand(x, np.array([u]))[0])
        assert abs(direct - series) < 1e-12 * abs(series)


def test_cauchy_exponent_tracks_exact():
    t = cauchy(1.0)
    assert t.G.total_mass == pytest.approx(1.0, abs=1e-12)
    assert t.gamma == 0.0
    for x in (0.5, 1.0, 2.0, 3.0):
        assert abs(levy_exponent(t, x) - (-abs(x))) < 0.02
    t2 = cauchy(2.0, 801)
    assert abs(levy_exponent(t2, 1.0) - (-2.0)) < 0.02


def test_exponent_additivity_under_convolution():
    t1 = gaussian(0.2, 0.5)
    t2 = poisson(1.5)
    t = convolve(t1, t2)
    for x in (0.3, 1.0, -2.2):
        assert levy_exponent(t, x) == pytest.approx(
            levy_exponent(t1, x) + levy_exponent(t2, x), abs=1e-12
        )


# ---------------------------------------------------------------------------
# cumulants


def test_cumulants_gaussian_and_poisson():
    assert cumulants_from_triple(gaussian(1.0, 2.0), 4).values == (1.0, 2.0, 0.0, 0.0)
    assert cumulants_from_triple(poisson(2.0), 5).values == (2.0,) * 5


@pytest.mark.parametrize(
    "triple",
    [
        gaussian(0.4, 1.3),
        poisson(0.7),
        compound_poisson_triple(
            FiniteMeasure(((1.0, 0.3), (-1.0, 0.5), (2.0, 0.2))), 1.2
        ),
        convolve(gaussian(0.0, 1.0), poisson(1.0)),
    ],
)
def test_cumulants_match_exponent_derivatives(triple):
    fitted = fitted_cumulants(lambda x: levy_exponent(triple, x), 4)
    exact = cumulants_from_triple(triple, 4).values
    assert np.allclose(fitted, exact, atol=1e-6)


def test_compound_poisson_exponent_identity():
    rho = FiniteMeasure(((1.0, 0.5), (-2.0, 0.5)))
    lam = 0.8
    t = compound_poisson_triple(rho, lam)
    for x in (0.4, 1.1, -2.0):
        expected = lam * rho.integrate(lambda u: np.exp(1j * x * u) - 1.0)
        assert levy_exponent(t, x) == pytest.approx(expected, abs=1e-12)


def test_compound_poisson_requires_probability_jump_law():
    with pytest.raises(ValueError):
        compound_poisson_triple(FiniteMeasure.point(1.0, 0.5), 1.0)
    assert compound_poisson_triple(FiniteMeasure.point(1.0), 0.0).G.atoms == ()


# ---------------------------------------------------------------------------
# truncation


def test_truncation_example():
    t = LevyTriple(0.0, FiniteMeasure(((0.0, 1.0), (2.0, 0.5))))
    inner, tail = truncate(t, 1.0)
    assert inner.gamma == pytest.approx(-0.25)
    assert inner.G.atoms == ((0.0, 1.0),)
    assert tail.lam == pytest.approx(0.625)
    assert tail.rho.atoms == ((2.0, 1.0),)
    assert tail.drift_correction == pytest.approx(-0.25)


def test_truncation_reconstructs_exactly():
    small = LevyTriple(0.7, FiniteMeasure(((0.0, 0.5), (0.3, 0.1), (-2.0, 0.4), (5.0, 0.2))))
    for t, cut in ((small, 1.0), (cauchy(1.0, 1001), 0.05)):
        inner, tail = truncate(t, cut)
        back = convolve(inner, compound_poisson_triple(tail.rho, tail.lam))
        assert back.gamma == pytest.approx(t.gamma, abs=1e-12)
        assert len(back.G.atoms) == len(t.G.atoms)
        for (u1, w1), (u2, w2) in zip(back.G.atoms, t.G.atoms):
            assert u1 == pytest.approx(u2, abs=1e-12)
            assert w1 == pytest.approx(w2, abs=1e-12)


def test_large_measure_builds_and_truncates_fast():
    # about 0.2 s on 2 vCPUs; the O(n^2) merge scan this replaced took 9 min
    start = time.perf_counter()
    t = cauchy(1.0, 100000)
    inner, tail = truncate(t, 0.05)
    assert is_symmetric(t)
    assert len(inner.G.atoms) + len(tail.rho.atoms) == 100002
    assert time.perf_counter() - start < 10.0


def test_truncation_keeps_atoms_at_the_cut():
    t = LevyTriple(0.0, FiniteMeasure(((1.0, 1.0),)))
    inner, tail = truncate(t, 1.0)
    assert inner.G.atoms == ((1.0, 1.0),)
    assert tail.lam == 0.0


def test_truncation_rejects_nonpositive_cut():
    with pytest.raises(ValueError):
        truncate(gaussian(0, 1), 0.0)


@pytest.mark.parametrize("loc", [1e200, -1e200, 1e-200, -1e-170])
def test_truncation_rejects_an_intensity_that_overflows(loc):
    # u^2 overflows or underflows, so w (1 + u^2) / u^2 is nan or inf
    t = LevyTriple(0.0, FiniteMeasure(((loc, 1.0),)))
    with pytest.raises(ValueError, match="overflows"):
        truncate(t, abs(loc) / 2)


def test_compound_poisson_params_validation():
    with pytest.raises(ValueError):
        CompoundPoissonParams(-1.0, FiniteMeasure.point(1.0))
    with pytest.raises(ValueError):
        CompoundPoissonParams(1.0, FiniteMeasure.point(1.0, 0.7))


# ---------------------------------------------------------------------------
# symmetry and serialization


def test_is_symmetric_where_the_partner_sums_overflow():
    # locs + u overflows to +inf for two large positive atoms; the search
    # must still see that neither has a partner, and raise no warning
    assert not is_symmetric(LevyTriple(0.0, FiniteMeasure(((1e308, 1.0), (1.5e308, 1.0)))))
    assert is_symmetric(LevyTriple(0.0, FiniteMeasure(((1.7e308, 1.0), (-1.7e308, 1.0)))))


def test_is_symmetric():
    assert is_symmetric(LevyTriple(0.0, FiniteMeasure(((1.0, 0.5), (-1.0, 0.5)))))
    assert is_symmetric(gaussian(0.0, 2.0))
    assert not is_symmetric(gaussian(0.1, 1.0))
    assert not is_symmetric(poisson(1.0))
    assert not is_symmetric(LevyTriple(0.0, FiniteMeasure(((1.0, 0.5), (-1.0, 0.4)))))
    assert is_symmetric(cauchy(1.0))


def _near_symmetric_triple(rng, tol):
    """Atoms u > 0 from a dyadic lattice or uniform draws, mirrored to -u;
    at a rate drawn per set, a mirror is shifted by +-tol or +-2 tol, a
    weight by -tol, tol or 2 tol, and an atom dropped.  Sometimes an atom at
    0 and a drift of tol."""
    n = int(rng.integers(1, 10))
    rate = rng.choice([0.0, 0.1, 0.5])
    pos = np.where(rng.random(n) < 0.5, rng.integers(1, 32, n) / 16.0, rng.uniform(0.01, 2.0, n))
    w = rng.integers(4, 12, n) / 8.0
    shift = np.where(rng.random(n) < rate, rng.choice([tol, -tol, 2 * tol, -2 * tol], n), 0.0)
    dw = np.where(rng.random(n) < rate, rng.choice([-tol, tol, 2 * tol], n), 0.0)
    atoms = list(zip(pos, w)) + list(zip(-pos + shift, w + dw))
    atoms = [a for a in atoms if rng.random() >= rate / 2]
    if rng.random() < 0.3:
        atoms.append((0.0, 1.0))
    gamma = tol if rng.random() < 0.1 else 0.0
    return LevyTriple(gamma, FiniteMeasure(tuple(atoms)))


@pytest.mark.parametrize("tol", [0.0, 2.0**-30, 1e-9, 2.0**-10, 0.25])
def test_is_symmetric_matches_pairwise_scan(tol):
    # dyadic tolerances put partners exactly at the tolerance; 0.25 leaves
    # several candidates in the window, so the first one in sorted order counts
    rng = np.random.default_rng(int(tol * 2**40) + 5)
    outcomes = []
    for _ in range(300):
        t = _near_symmetric_triple(rng, tol)
        expected = is_symmetric_scan(t, tol)
        assert is_symmetric(t, tol) == expected, t
        outcomes.append(expected)
    assert 20 < sum(outcomes) < 280


def test_spec_round_trip():
    t = LevyTriple(0.5, FiniteMeasure(((0.0, 1.0), (2.0, 0.25))))
    back = triple_from_spec(triple_to_spec(t))
    assert back == t


@pytest.mark.parametrize(
    "spec, expected",
    [
        ({"preset": "gaussian", "mean": 1.0, "var": 2.0}, gaussian(1.0, 2.0)),
        ({"preset": "poisson", "lambda": 1.5}, poisson(1.5)),
        ({"preset": "dirac", "a": -3.0}, dirac(-3.0)),
        (
            {"convolve": [{"preset": "gaussian", "mean": 0, "var": 1},
                          {"preset": "poisson", "lambda": 1}]},
            convolve(gaussian(0, 1), poisson(1)),
        ),
    ],
)
def test_spec_presets(spec, expected):
    assert triple_from_spec(spec) == expected


def test_spec_cauchy_nodes():
    t = triple_from_spec({"preset": "cauchy", "a": 1.0, "nodes": 101})
    assert len(t.G.atoms) == 103  # nodes plus two tail atoms


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {},
        {"preset": "unknown"},
        {"convolve": []},
        {"gamma": 0.0, "atoms": [[0.0, -1.0]]},
        {"preset": "gaussian", "mean": 0.0},
        {"preset": "gaussian", "mean": math.nan, "var": 1.0},
        {"preset": "poisson", "lambda": None},
        {"preset": "cauchy", "a": 1.0, "nodes": None},
        {"gamma": math.inf},
        {"gamma": 0.0, "atoms": 5},
        {"convolve": [{"gamma": 1e308}, {"gamma": 1e308}]},  # gamma overflows to inf
        {"gamma": 10**400},  # no float holds it
        {"gamma": 0.0, "atoms": [[10**400, 1.0]]},
        {"gamma": 0.0, "atoms": [[1.0, 1e308], [1.0, 1e308]]},  # merged weight overflows
        {"preset": "cauchy", "a": 1.0, "nodes": 7.9},
        {"preset": "cauchy", "a": 1.0, "nodes": MAX_CAUCHY_NODES + 1},
    ],
)
def test_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        triple_from_spec(bad)


def test_spec_nested_past_the_recursion_limit_is_a_value_error():
    spec = {"preset": "dirac", "a": 1.0}
    for _ in range(5000):
        spec = {"convolve": [spec]}
    with pytest.raises(ValueError, match="nested too deeply"):
        triple_from_spec(spec)

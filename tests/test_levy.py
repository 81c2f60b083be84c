import math
import time
import tracemalloc

import numpy as np
import pytest

from bplab.hermitian import _decompose
from bplab.levy import (
    MAX_CAUCHY_NODES,
    CompoundPoissonParams,
    ConfigError,
    FiniteMeasure,
    LevyTriple,
    at_zero,
    cauchy,
    compound_poisson_triple,
    convolve,
    cumulants_from_triple,
    dirac,
    gaussian,
    is_symmetric,
    levy_exponent,
    poisson,
    running_sum,
    triple_from_spec,
    triple_to_spec,
    truncate,
)
from oracles import (compound_poisson_scan, cumulants_scan, fitted_cumulants,
                     is_symmetric_matching, merge_atoms_scan)


# ---------------------------------------------------------------------------
# measures


def test_measure_merges_and_sorts():
    g = FiniteMeasure(((2.0, 0.5), (-1.0, 1.0), (2.0, 0.25)))
    assert g.atoms.tolist() == [[-1.0, 1.0], [2.0, 0.75]]
    assert g.total_mass == pytest.approx(1.75)
    assert g.locations().tolist() == [-1.0, 2.0]
    assert g.weights()[1] == pytest.approx(0.75)
    for arr in (g.atoms, g.locations(), g.weights()):  # stored once, read-only
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
        got = FiniteMeasure(tuple(atoms)).atoms.tolist()
        assert np.array_equal(_bits(got), _bits(expected)), atoms
        merged += len(expected) < len(atoms)
    assert merged > 300
    assert FiniteMeasure(((0.0, 1.0), (-0.0, 2.0))).atoms.tolist() == [[0.0, 3.0]]
    assert math.copysign(1.0, FiniteMeasure(((-0.0, 1.0), (0.0, 2.0))).atoms[0][0]) == -1.0


def test_measure_merges_chains_whole():
    # sorted neighbours within 1e-12 merge, so the chain is one atom at its
    # first-inserted location although its ends are 2e-12 apart, whatever
    # the input order
    for atoms in (((0.0, 1.0), (2e-12, 1.0), (1e-12, 1.0)),
                  ((0.0, 1.0), (1e-12, 1.0), (2e-12, 1.0))):
        assert FiniteMeasure(atoms).atoms.tolist() == [[0.0, 3.0]]


def test_measure_addition_and_integration():
    g = FiniteMeasure.point(1.0, 2.0) + FiniteMeasure.point(-1.0, 1.0)
    assert running_sum(g.weights() * g.locations()) == pytest.approx(1.0)
    assert running_sum(g.weights() * g.locations() ** 2) == pytest.approx(3.0)


def test_measure_addition_merges_the_concatenated_atoms():
    # the atoms of the first measure, then those of the second, merged as one
    rng = np.random.default_rng(23)
    for _ in range(300):
        a, b = _atoms_with_near_duplicates(rng), _atoms_with_near_duplicates(rng)
        f, g = FiniteMeasure(tuple(a)), FiniteMeasure(tuple(b))
        assert np.array_equal(_bits((f + g).atoms.tolist()),
                              _bits(merge_atoms_scan(f.atoms.tolist() + g.atoms.tolist())))


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


# The triples whose cumulants the per-atom loop pins bit for bit; the last
# has an atom whose cube np.power rounds another way than a Python power.
SCANNED_TRIPLES = {
    "gaussian": gaussian(0.3, 2),
    "poisson-0.5": poisson(0.5),
    "poisson-2.5": poisson(2.5),
    "cauchy-1001": cauchy(1, 1001),
    "cauchy-9": cauchy(0.7, 9),
    "gaussian*poisson": convolve(gaussian(0.1, 0.5), poisson(0.8)),
    "atoms": triple_from_spec(
        {"gamma": -0.25, "atoms": [[0, 0.5], [1, 0.125], [-1.5, 0.3], [1e-13, 0.2]]}),
    "compound-poisson": compound_poisson_triple(
        FiniteMeasure(((0, 0.2), (2, 0.5), (-3, 0.3))), 1.7),
    "dirac": dirac(2.5),
    "signed-zeros": triple_from_spec(
        {"gamma": -0.0, "atoms": [[-0.0, 0.0], [-1, 0.0], [2, 0.0]]}),
    "odd-cube": triple_from_spec({"gamma": 0, "atoms": [[0.5410227877154389, 1]]}),
}


@pytest.mark.parametrize("t", SCANNED_TRIPLES.values(), ids=SCANNED_TRIPLES)
def test_cumulants_equal_the_per_atom_loop(t):
    assert np.array_equal(_bits(cumulants_from_triple(t, 8).values), _bits(cumulants_scan(t, 8)))


@pytest.mark.parametrize("rho, lam", [
    (FiniteMeasure.point(1.0), 0.5),
    (FiniteMeasure.point(1.0), 2.5),
    (FiniteMeasure(((0, 0.2), (2, 0.5), (-3, 0.3))), 1.7),
    (FiniteMeasure(((-0.0, 0.25), (1e-13, 0.25), (1e100, 0.5))), 0.8),
    (FiniteMeasure(np.column_stack((np.tan(np.linspace(-1.5, 1.5, 100)), np.full(100, 0.01)))),
     1.3),
])
def test_compound_poisson_triple_equals_the_per_atom_loop(rho, lam):
    gamma, atoms = compound_poisson_scan(rho, lam)
    t = compound_poisson_triple(rho, lam)
    assert np.array_equal(_bits([t.gamma]), _bits([gamma]))
    assert np.array_equal(_bits(t.G.atoms), _bits(atoms))


def test_compound_poisson_exponent_identity():
    rho = FiniteMeasure(((1.0, 0.5), (-2.0, 0.5)))
    lam = 0.8
    t = compound_poisson_triple(rho, lam)
    for x in (0.4, 1.1, -2.0):
        expected = lam * np.sum(rho.weights() * (np.exp(1j * x * rho.locations()) - 1.0))
        assert levy_exponent(t, x) == pytest.approx(expected, abs=1e-12)


def test_compound_poisson_requires_probability_jump_law():
    with pytest.raises(ValueError):
        compound_poisson_triple(FiniteMeasure.point(1.0, 0.5), 1.0)
    assert compound_poisson_triple(FiniteMeasure.point(1.0), 0.0).G.atoms.tolist() == []


# ---------------------------------------------------------------------------
# truncation


def test_truncation_example():
    t = LevyTriple(0.0, FiniteMeasure(((0.0, 1.0), (2.0, 0.5))))
    inner, tail = truncate(t, 1.0)
    assert inner.gamma == pytest.approx(-0.25)
    assert inner.G.atoms.tolist() == [[0.0, 1.0]]
    assert tail.lam == pytest.approx(0.625)
    assert tail.rho.atoms.tolist() == [[2.0, 1.0]]
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


def test_largest_cauchy_measure_is_held_once():
    # one (n, 2) array: about 93 MiB at peak.  A second copy of the atoms as
    # a tuple of Python float pairs peaked near 200 MiB
    tracemalloc.start()
    try:
        t = cauchy(1.0, MAX_CAUCHY_NODES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 120 * 2**20
    assert t.G.atoms.shape == (MAX_CAUCHY_NODES + 2, 2)


def test_truncation_keeps_atoms_at_the_cut():
    t = LevyTriple(0.0, FiniteMeasure(((1.0, 1.0),)))
    inner, tail = truncate(t, 1.0)
    assert inner.G.atoms.tolist() == [[1.0, 1.0]]
    assert tail.lam == 0.0


def test_truncation_rejects_nonpositive_cut():
    with pytest.raises(ValueError):
        truncate(gaussian(0, 1), 0.0)


@pytest.mark.parametrize("loc", [1e200, -1e200])
def test_truncation_rejects_an_intensity_that_overflows(loc):
    # u^2 overflows, so w (1 + u^2) / u^2 is nan
    t = LevyTriple(0.0, FiniteMeasure(((loc, 1.0),)))
    with pytest.raises(ValueError, match="overflows"):
        truncate(t, abs(loc) / 2)


@pytest.mark.parametrize("loc", [1e-200, -1e-170])
def test_an_atom_at_zero_is_gaussian_mass_at_any_cut(loc):
    # |u| <= 1e-12 is at zero, so the atom is never a jump, and its intensity
    # w (1 + u^2) / u^2, which would overflow, is never formed
    t = LevyTriple(0.0, FiniteMeasure(((loc, 1.0),)))
    for cut in (abs(loc) / 2, 1e-12, 1.0, None):
        if cut is not None:
            inner, tail = truncate(t, cut)
            assert tail.lam == 0.0 and inner.G.atoms.tolist() == t.G.atoms.tolist()
        dec = _decompose(t, cut)
        assert dec.tail.lam == 0.0 and dec.var == 1.0 and dec.substituted_var == 0.0


def test_at_zero_is_the_merge_width():
    assert at_zero(np.array([0.0, -0.0, 1e-12, -1e-12, 1e-300])).all()
    assert not at_zero(np.array([1.5e-12, -2e-12, 1e-6])).any()
    # an atom at 1e-12 stays inner even at a smaller cut; one at 3e-12 is a jump
    t = LevyTriple(0.0, FiniteMeasure(((1e-12, 0.5), (3e-12, 1e-30))))
    inner, tail = truncate(t, 1e-13)
    assert inner.G.atoms.tolist() == [[1e-12, 0.5]] and tail.rho.atoms[0][0] == 3e-12
    dec = _decompose(t, None)
    assert dec.cut == 1.5e-12 and dec.var == 0.5 and dec.tail.lam > 0


def test_compound_poisson_params_validation():
    with pytest.raises(ValueError):
        CompoundPoissonParams(-1.0, FiniteMeasure.point(1.0))
    with pytest.raises(ValueError):
        CompoundPoissonParams(1.0, FiniteMeasure.point(1.0, 0.7))


# ---------------------------------------------------------------------------
# symmetry and serialization


def test_is_symmetric_where_the_partner_sums_overflow():
    # the mirror sum of two large positive atoms overflows to +inf, which is
    # not within tol of 0, and raises no warning
    assert not is_symmetric(LevyTriple(0.0, FiniteMeasure(((1e308, 1.0), (1.5e308, 1.0)))))
    assert is_symmetric(LevyTriple(0.0, FiniteMeasure(((1.7e308, 1.0), (-1.7e308, 1.0)))))


def test_is_symmetric():
    assert is_symmetric(LevyTriple(0.0, FiniteMeasure(((1.0, 0.5), (-1.0, 0.5)))))
    assert is_symmetric(gaussian(0.0, 2.0))
    assert not is_symmetric(gaussian(0.1, 1.0))
    assert not is_symmetric(poisson(1.0))
    assert not is_symmetric(LevyTriple(0.0, FiniteMeasure(((1.0, 0.5), (-1.0, 0.4)))))
    assert is_symmetric(cauchy(1.0))


@pytest.mark.parametrize("a, n_nodes", [(3.0, 10**5), (1.0, 10**6)])
def test_large_cauchy_measures_are_exactly_symmetric(a, n_nodes):
    # the negative nodes are the positive ones negated: linspace's own halves
    # missed their mirrors by 1.1e-9 at (3, 10**5), beyond the 1e-9 tolerance
    t = cauchy(a, n_nodes)
    u, w = t.G.locations(), t.G.weights()
    assert is_symmetric(t, tol=0.0)
    assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_is_symmetric_refuses_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    # NaN compares false with everything: it answered True for gaussian and
    # False for poisson
    for t in (gaussian(0.0, 1.0), poisson(1.0)):
        with pytest.raises(ValueError):
            is_symmetric(t, tol)


def test_is_symmetric_counts_atoms_at_zero_as_gaussian_mass():
    # 8e-13 is at zero, so _decompose makes its mass Gaussian; it needs no
    # partner at any tol (at tol = 0 it had none, its mirror being 1.6e-12 away)
    t = LevyTriple(0.0, FiniteMeasure(((8e-13, 1.0), (1.0, 0.5), (-1.0, 0.5))))
    assert _decompose(t, None).var == 1.0
    for tol in (0.0, 1e-9):
        assert is_symmetric(t, tol) and is_symmetric_matching(t, tol)
    # just off zero, an atom is a jump and still needs its mirror
    off = LevyTriple(0.0, FiniteMeasure(((2e-12, 1.0), (1.0, 0.5), (-1.0, 0.5))))
    assert not at_zero(np.array([2e-12]))[0]
    assert not is_symmetric(off, 0.0) and not is_symmetric_matching(off, 0.0)


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
    # dyadic tolerances put partners exactly at the tolerance.  0.25 leaves
    # several candidates in the window, where a cluster whose weights pair
    # up only out of sorted order is refused: the mirror then accepts only
    # what some matching accepts
    rng = np.random.default_rng(int(tol * 2**40) + 5)
    outcomes = []
    for _ in range(300):
        t = _near_symmetric_triple(rng, tol)
        expected = is_symmetric_matching(t, tol)
        if tol < 0.25:
            assert is_symmetric(t, tol) == expected, t
        else:
            assert expected or not is_symmetric(t, tol), t
        outcomes.append(expected)
    assert 20 < sum(outcomes) < 280


def test_is_symmetric_pairs_each_jump_with_its_own_mirror():
    # exactly symmetric: 1 and 1 + 5e-10 are both within 1e-9 of -1 - 5e-10,
    # which a first-partner search gave to both
    near = {"gamma": 0, "atoms": [[1, 0.5], [-1, 0.5], [1.0000000005, 0.25],
                                  [-1.0000000005, 0.25]]}
    # -1 is within 1e-9 of the mirrors of both 1 and 1 + 5e-10, but its
    # first cumulant is 0.5
    lopsided = {"gamma": 0, "atoms": [[-1, 0.5], [1, 0.5], [1.0000000005, 0.5]]}
    assert is_symmetric(triple_from_spec(near)) and is_symmetric_matching(triple_from_spec(near))
    assert cumulants_from_triple(triple_from_spec(lopsided), 1).values[0] == pytest.approx(0.5)
    assert not is_symmetric(triple_from_spec(lopsided))
    assert not is_symmetric_matching(triple_from_spec(lopsided))


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


@pytest.mark.parametrize(
    "spec, key",
    [
        ({"convolve": [{"preset": "dirac", "a": 1.0}], "weights": [1.0]}, "weights"),
        ({"preset": "gaussian", "mean": 0.0, "var": 1.0, "variance": 2.0}, "variance"),
        ({"preset": "poisson", "lamda": 1.0}, "lamda"),
        ({"preset": "cauchy", "a": 1.0, "node": 1001}, "node"),
        ({"preset": "dirac", "a": 1.0, "b": 2.0}, "b"),
        ({"gamma": 0.0, "atom": [[1.0, 1.0]]}, "atom"),
        # a part of a convolve is named by its place in the list
        ({"convolve": [{"preset": "dirac", "a": 1.0}, {"preset": "poisson", "lamda": 1.0}]},
         "convolve[1].lamda"),
    ],
    ids=["convolve", "gaussian", "poisson", "cauchy", "dirac", "gamma", "convolve-part"],
)
def test_spec_refuses_a_key_its_form_does_not_take(spec, key):
    with pytest.raises(ConfigError) as err:
        triple_from_spec(spec)
    assert err.value.path == key
    assert str(err.value).startswith(f"{key}: unknown field; known: ")


def test_spec_nested_past_the_recursion_limit_is_a_value_error():
    spec = {"preset": "dirac", "a": 1.0}
    for _ in range(5000):
        spec = {"convolve": [spec]}
    with pytest.raises(ValueError, match="nested too deeply"):
        triple_from_spec(spec)

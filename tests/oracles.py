"""Independent oracles and helpers used by the unit tests.

The oracles are deliberately written by a different route than the
production code: lattice sums instead of recursions, quadrature instead of
closed forms, polynomial fits instead of cumulant formulas.  Slow is fine.
The helpers at the end are small definitions that only the tests need.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from bplab.levy import FiniteMeasure
from bplab.partitions import SetPartition, enumerate_noncrossing, enumerate_partitions
from bplab.rng import as_generator, standard_complex_normal
from bplab.spectra import ReferenceLaw, marchenko_pastur


def lattice_moment(c, n, kind):
    """m_n as the explicit sum over Part(n) (classical) or NC(n) (free) of
    the product of c_{|V|} over blocks."""
    parts = enumerate_partitions(n) if kind == "classical" else enumerate_noncrossing(n)
    total = 0.0
    for p in parts:
        prod = 1.0
        for block in p.blocks:
            prod *= c[len(block) - 1]
        total += prod
    return total


def fitted_cumulants(psi, kmax, radius=0.4, deg=10, npts=41):
    """Cumulants c_1..c_kmax recovered from the exponent by fitting a
    polynomial to psi on [-radius, radius]: psi(x) = sum_k c_k (ix)^k / k!."""
    xs = np.linspace(-radius, radius, npts)
    vals = np.array([psi(x) for x in xs])
    coefs = np.polyfit(xs, vals, deg)[::-1]
    out = []
    fact = 1.0
    for k in range(1, kmax + 1):
        fact *= k
        out.append(float(np.real(coefs[k] * fact / (1j) ** k)))
    return out


def simplex_fourier_quad(a):
    """E exp(i <a, Z>) by direct quadrature over the simplex, d = 2 or 3."""
    a = np.asarray(a, dtype=float)
    if a.size == 2:
        f = lambda z: np.exp(1j * (a[0] * z + a[1] * (1 - z)))
        re, _ = integrate.quad(lambda z: np.real(f(z)), 0, 1, limit=200)
        im, _ = integrate.quad(lambda z: np.imag(f(z)), 0, 1, limit=200)
        return re + 1j * im
    if a.size == 3:
        f = lambda y, x: 2.0 * np.exp(1j * (a[0] * x + a[1] * y + a[2] * (1 - x - y)))
        re, _ = integrate.dblquad(lambda y, x: np.real(f(y, x)), 0, 1, 0, lambda x: 1 - x)
        im, _ = integrate.dblquad(lambda y, x: np.imag(f(y, x)), 0, 1, 0, lambda x: 1 - x)
        return re + 1j * im
    raise ValueError("quadrature oracle only covers d = 2, 3")


def ks_continuous(samples, cdf):
    """One-sample Kolmogorov-Smirnov statistic against a continuous cdf."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    F = cdf(x)
    return float(max(np.max(np.arange(1, n + 1) / n - F), np.max(F - np.arange(n) / n)))


def ks_integer(samples, cdf, kmax):
    """Sup distance between the empirical cdf of integer-valued samples and a
    lattice cdf, evaluated on the integers (both cdfs are steps there)."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    ks = np.arange(kmax + 1)
    emp = np.array([np.mean(x <= k + 1e-9) for k in ks])
    return float(np.max(np.abs(emp - cdf(ks))))


def merge_atoms_scan(atoms, tol=1e-12):
    """Merged (location, weight) pairs by the O(n^2) insertion scan: each
    atom joins the first earlier-inserted location within tol, weights add
    in input order, and the merged pairs come out sorted by location."""
    merged = {}
    order = []
    for loc, w in atoms:
        loc = float(loc)
        for known in order:
            if abs(known - loc) <= tol:
                loc = known
                break
        if loc in merged:
            merged[loc] += float(w)
        else:
            merged[loc] = float(w)
            order.append(loc)
    return tuple((loc, merged[loc]) for loc in sorted(order))


def is_symmetric_matching(t, tol=1e-9):
    """Symmetry of a triple by bipartite matching: gamma within tol of 0, and
    a bijection of the jumps (atoms with |u| > 1e-12) onto themselves taking
    each (u, w) to a (u', w') with |u + u'| <= max(tol, 1e-12) and
    |w - w'| <= tol, searched for by augmenting paths."""
    if abs(t.gamma) > tol:
        return False
    jumps = [(u, w) for u, w in t.G.atoms.tolist() if abs(u) > 1e-12]
    eps = max(tol, 1e-12)
    source = [None] * len(jumps)  # source[j]: the jump mapped onto jump j

    def augment(i, seen):
        u, w = jumps[i]
        for j, (v, x) in enumerate(jumps):
            if j not in seen and abs(u + v) <= eps and abs(w - x) <= tol:
                seen.add(j)
                if source[j] is None or augment(source[j], seen):
                    source[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(jumps)))


def integrate_scan(g, f):
    """Sum of weight * f(u) over the atoms of g, by a Python loop from 0,
    adding left to right (sum() of floats is compensated from CPython 3.12)."""
    total = 0.0
    for u, w in g.atoms.tolist():
        total += w * f(u)
    return total


def cumulants_scan(t, kmax):
    """Classical cumulants c_1..c_kmax of a triple atom by atom: c_1 = gamma +
    int u dG and c_k = int u^(k-2) (1+u^2) dG, with Python float powers."""
    c = [t.gamma + integrate_scan(t.G, lambda u: u)]
    for k in range(2, kmax + 1):
        c.append(integrate_scan(t.G, lambda u: u ** (k - 2) * (1.0 + u * u)))
    return [float(v) for v in c]


def compound_poisson_scan(rho, lam):
    """(gamma, atoms) of the compound Poisson triple, atom by atom: weights
    lam w u^2/(1+u^2) off 0, merged as a FiniteMeasure, and gamma = lam int
    u/(1+u^2) drho."""
    atoms = tuple((u, lam * w * u * u / (1.0 + u * u)) for u, w in rho.atoms.tolist() if u != 0.0)
    return lam * integrate_scan(rho, lambda u: u / (1.0 + u * u)), FiniteMeasure(atoms).atoms


def reference_density(law: ReferenceLaw, x: float) -> float:
    """Pointwise density of the absolutely continuous part of a reference law."""
    if law.kind == "dirac":
        raise ValueError("a point mass has no density")
    if law.kind == "cauchy":
        (a,) = law.params
        return a / (math.pi * (a * a + x * x))
    if law.kind == "semicircle":
        mean, r = law.params
        if abs(x - mean) > 2 * r:
            return 0.0
        return math.sqrt(4 * r * r - (x - mean) ** 2) / (2.0 * math.pi * r * r)
    if law.kind == "marchenko_pastur":
        (lam,) = law.params
        a, b = (1.0 - math.sqrt(lam)) ** 2, (1.0 + math.sqrt(lam)) ** 2
        if not a < x < b:
            return 0.0
        return math.sqrt((b - x) * (x - a)) / (2.0 * math.pi * x)
    raise ValueError(f"unknown law {law!r}")


def empirical_transform_by_division(x, zs):
    """The uniform law on the points x: its transform at each of the points
    zs, the mean of the complex quotients 1/(x - z), and the mean of their
    moduli, the scale of that sum's rounding."""
    x = np.asarray(x, dtype=float)
    f, scale = [], []
    for z in np.asarray(zs, dtype=complex).ravel():
        terms = 1.0 / (x - z)
        f.append(np.mean(terms))
        scale.append(np.mean(np.abs(terms)))
    return np.array(f), np.array(scale)


def mp_transform_quad(lam, zs):
    """Marchenko-Pastur(lam) transform at the points zs: adaptive quadrature
    of density / (x - z) over the support [a, b], vector-valued over zs,
    plus the (1 - lam)+ atom at zero."""
    zs = np.asarray(zs, dtype=complex)
    law = marchenko_pastur(lam)
    a, b = (1.0 - lam**0.5) ** 2, (1.0 + lam**0.5) ** 2
    f, _ = integrate.quad_vec(
        lambda x: reference_density(law, x) / (x - zs), a, b,
        epsabs=1e-13, epsrel=1e-12, limit=2000,
    )
    return f + max(1.0 - lam, 0.0) / (0.0 - zs)


# ---------------------------------------------------------------------------
# helpers only the tests use


@dataclass(frozen=True)
class SphereVector:
    coords: np.ndarray

    def __post_init__(self):
        norm = float(np.sum(np.abs(self.coords) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("coordinates must have unit norm")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def simplex_point(self) -> np.ndarray:
        """Z = (|u_1|^2, ..., |u_d|^2)."""
        return np.abs(self.coords) ** 2


def sample_sphere_vector(d, rng) -> SphereVector:
    """Renormalized standard complex Gaussian vector: uniform on the sphere."""
    if d < 1:
        raise ValueError("d must be positive")
    z = standard_complex_normal(as_generator(rng), d)
    return SphereVector(z / np.linalg.norm(z))


def mp_atom(law: ReferenceLaw) -> float:
    """Mass of the atom at zero of a Marchenko-Pastur law ((1 - lam)+)."""
    if law.kind != "marchenko_pastur":
        raise ValueError("only Marchenko-Pastur laws carry the zero atom")
    (lam,) = law.params
    return max(1.0 - lam, 0.0)


def interval_block(p: SetPartition):
    """Some block that is a contiguous interval, or None.

    For a noncrossing partition an interval block always exists and removing
    it leaves the rest noncrossing, so repeated application peels the whole
    partition in exactly len(p) steps.  Ties go to the block with the
    smallest minimum element.
    """
    for b in p.blocks:
        if max(b) - min(b) + 1 == len(b):
            return b
    return None


def falling_factorial(n: int, l: int) -> int:
    """n(n-1)...(n-l+1): the number of one-to-one maps from [l] to [n]."""
    if l < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if l > n:
        return 0
    return math.perm(n, l)


def bell_number(k: int) -> int:
    """Bell numbers by the triangle recurrence (independent of enumeration)."""
    row = [1]
    for _ in range(k):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]

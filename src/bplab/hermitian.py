"""Samplers for the Hermitian matrix family attached to an infinitely
divisible law: conjugated-diagonal building blocks, the exact Gaussian and
compound-Poisson cases, and a composite sampler for arbitrary triples via
truncation plus small-jump Gaussian substitution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .levy import (CompoundPoissonParams, FiniteMeasure, LevyTriple, at_zero, running_sum,
                   truncate)
from .rng import RngStream, as_generator, standard_complex_normal, standard_normal
from .sphere import sample_sphere_vectors

__all__ = [
    "HermitianSample",
    "sample_haar_unitary",
    "sample_Q",
    "sample_P_gaussian",
    "sample_P_compound_poisson",
    "sample_P",
    "sample_P_many",
]

# The rank-one sum of a sample with at least d terms draws and multiplies its
# sphere rows this many jumps at a time.  Measured on one d = 1000 L sample
# of cauchy(1, 1001) at cut 0.05 (about 13,000 jumps) and its singular
# values, on one core: blocks of 64, 128, 256, 512 and 1024 jumps took 2.39,
# 2.20, 2.13, 2.08 and 2.10 s, at 134-135 MB peak RSS up to 512 and 151 MB
# at 1024; one product of all rows took 2.7 s and 880 MB.
BLOCK = 256


@dataclass(frozen=True, eq=False)
class _Sample:
    """A d x d matrix sample kept in the parts it was drawn as: a dense block,
    or shift * I where there is none, plus a rank-one tail sum_k x_k u_k w_k^*.
    The tail is the d x d sum itself, or, for n < d terms, the factors
    (x, u, w, key) of _rank_one_terms: the rows u_k and w_k of u and w in
    their own n-dimensional span, and the key of the Haar columns that place
    those spans in C^d, which gives the law of rows drawn in C^d as the
    model is unitarily invariant.  `entries` builds the matrix;
    `core_spectrum` needs only x, u and w."""

    block: np.ndarray | None = None
    dim: int | None = None
    shift: float = 0.0
    tail: tuple[np.ndarray, np.ndarray, np.ndarray, int] | np.ndarray | None = None

    def __post_init__(self):
        m = self.block
        if m is not None:
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
                raise ValueError("entries must be a square matrix")
            object.__setattr__(self, "dim", m.shape[0])
        elif self.dim is None or self.dim < 1:
            raise ValueError("d must be positive")

    @staticmethod
    def _tail_entries(r: np.ndarray) -> np.ndarray:
        """The tail's entries from its d x d sum r, in an array of their own."""
        return r.astype(complex)

    @cached_property
    def entries(self) -> np.ndarray:
        """The matrix, built on first use: the tail, factors placed in C^d as
        V_u C V_w^* with the core C of core_spectrum and d x n Haar columns
        V_u and V_w (V_w = V_u when w is u) drawn from Philox(key), then the
        block or the shift on the diagonal added in place."""
        d = self.dim
        if self.tail is None:
            return self.block if self.block is not None else self.shift * np.eye(d, dtype=complex)
        if isinstance(self.tail, tuple):
            x, u, w, key = self.tail
            gen = np.random.Generator(np.random.Philox(key=key))
            v_u = _haar_columns(d, x.size, gen)
            v_w = v_u if w is u else _haar_columns(d, x.size, gen)
            r = (v_u @ ((u.T * x) @ w.conj())) @ v_w.conj().T
        else:
            r = self.tail
        m = self._tail_entries(r)
        if self.block is not None:
            m += self.block
        else:
            m[np.diag_indices(d)] += self.shift
        return m

    @property
    def low_rank(self) -> bool:
        """No dense block, and no tail or one kept as factors (n < d terms):
        the spectrum comes from core_spectrum, an n x n problem in place of a
        d x d one."""
        return self.block is None and not isinstance(self.tail, np.ndarray)

    def core_spectrum(self, solve) -> np.ndarray:
        """For a low-rank sample with n rank-one terms: solve(C) on the n x n
        core C = (u.T * x) @ w.conj() of the tail in its rows' own basis, then
        d - n zeros for the rest of the space, all plus the shift.  With
        eigvalsh (w = u) these are the eigenvalues of the sample, with
        singular values its singular values: the Haar columns are orthonormal."""
        values = np.zeros(self.dim)
        if self.tail is not None:
            x, u, w, _ = self.tail
            values[: x.size] = solve((u.T * x) @ w.conj())
        return values + self.shift


class HermitianSample(_Sample):
    """A Hermitian sample: the dense block is checked, and the tail is
    sum_k x_k u_k u_k^* (w is u), whose entries are symmetrized as
    (T + T^*) / 2."""

    def __post_init__(self):
        super().__post_init__()
        m = self.block
        if m is not None:
            asym = np.conj(m.T)  # the one d x d temporary of the check
            asym -= m
            if not np.max(np.abs(asym)) <= 1e-10 * max(1.0, np.max(np.abs(m))):
                raise ValueError("matrix is not Hermitian within tolerance")
        if isinstance(self.tail, tuple) and self.tail[2] is not self.tail[1]:
            raise ValueError("a Hermitian tail needs w = u")

    @staticmethod
    def _tail_entries(r: np.ndarray) -> np.ndarray:
        """(r + r^*) / 2, symmetrized in place in a new array."""
        m = np.conjugate(r.T, out=np.empty(r.shape, dtype=complex))
        m += r
        m /= 2.0
        return m

    def eigenvalues(self) -> np.ndarray:
        """From the n x n core when the sample is low rank, otherwise from a
        dense eigensolve of the entries."""
        if self.low_rank:
            return self.core_spectrum(np.linalg.eigvalsh)
        return np.linalg.eigvalsh(self.entries)


def _haar_columns(d: int, n: int, gen: np.random.Generator) -> np.ndarray:
    """The first n columns of a Haar unitary of C^d: the thin QR of a d x n
    complex Ginibre matrix, with the phases of diag(R) pulled into Q so the
    law is exactly Haar."""
    z = standard_complex_normal(gen, (d, n))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def sample_haar_unitary(d: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """A Haar unitary of C^d: all d of its columns (_haar_columns)."""
    if d < 1:
        raise ValueError("d must be positive")
    return _haar_columns(d, d, as_generator(rng))


def sample_Q(x, rng: RngStream | np.random.Generator) -> HermitianSample:
    """Haar conjugation U diag(x) U^* of the real diagonal x; the eigenvalues
    of the sample are exactly the entries of x."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("the diagonal must be a 1-d array")
    u = sample_haar_unitary(x.size, as_generator(rng))
    m = (u * x) @ u.conj().T
    return HermitianSample((m + m.conj().T) / 2.0)


def _gue_matrix(d: int, sigma2: float, gen: np.random.Generator) -> np.ndarray:
    """GUE(d, sigma2) under the trace inner product: real diagonal N(0, sigma2),
    off-diagonal complex entries with total variance sigma2.  The lower
    triangle is written in place, so the matrix is the only d x d array."""
    m = np.zeros((d, d), dtype=complex)
    diag = standard_normal(gen, d) * np.sqrt(sigma2)
    n_off = d * (d - 1) // 2
    if n_off:
        upper = np.triu_indices(d, k=1)
        off = standard_complex_normal(gen, n_off)
        off *= np.sqrt(sigma2)
        m[upper] = off
        m[upper[::-1]] = np.conjugate(off, out=off)
    np.fill_diagonal(m, diag)
    return m


def sample_P_gaussian(
    mean: float, var: float, d: int, rng: RngStream | np.random.Generator
) -> HermitianSample:
    """Exact Gaussian case: sqrt(var) * (GUE(d, 1/(d+1)) + X/sqrt(d+1) * I) + mean * I
    with X an independent standard real Gaussian.  The scaling and the
    diagonal terms are applied in place."""
    if not (np.isfinite(mean) and 0 <= var < np.inf):
        raise ValueError("mean must be finite, variance finite and nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    gen = as_generator(rng)
    if var == 0:
        return HermitianSample(dim=d, shift=mean)
    m = _gue_matrix(d, 1.0 / (d + 1), gen)
    x = float(standard_normal(gen, 1)[0])
    scale = np.sqrt(var)
    diag = scale * (m.diagonal().real + x / np.sqrt(d + 1)) + mean
    m *= scale
    np.fill_diagonal(m, diag)
    return HermitianSample(m)


def _draw_jumps(rho: FiniteMeasure, gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws from the jump law rho: its atoms, by weight."""
    ws = rho.weights()
    return gen.choice(rho.locations(), size=n, p=ws / ws.sum())


def _rank_one_sum(rho: FiniteMeasure, lam: float, d: int, gen, pairs=False, summed=False):
    """The tail over a Poisson(d * lam) count n of jumps x_k ~ rho: all n
    jumps are drawn first, then the rows of their terms (_rank_one_terms);
    None when n is 0."""
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    n = int(gen.poisson(d * lam))
    if n == 0:
        return None
    return _rank_one_terms(_draw_jumps(rho, gen, n), d, gen, pairs, summed)


def _rank_one_terms(x: np.ndarray, d: int, gen, pairs=False, summed=False):
    """The tail sum_k x_k u_k w_k^* over the n = x.size jumps x and sphere
    rows u_k; w is u, or with pairs the independent rows w_k.  For n < d,
    unless summed, the factors (x, u, w, key): the u_k, then the w_k, each
    set in its own basis (sphere.sample_sphere_vectors, n x n), then the key
    of the Haar columns that place them in C^d (_Sample.entries).
    Otherwise each w_k is drawn right after its u_k, BLOCK jumps at a time,
    into one buffer, and their products are summed into one d x d array: the
    rows are the same bits in any chunking (rng.py), and only
    O(d^2 + BLOCK d) entries are held."""
    n = x.size
    if n < d and not summed:
        u = sample_sphere_vectors(d, n, gen, own_basis=True)
        w = sample_sphere_vectors(d, n, gen, own_basis=True) if pairs else u
        return x, u, w, int(gen.integers(2**63))
    k = 2 if pairs else 1
    rows = np.empty((k * min(n, BLOCK), d), dtype=complex)  # reused by every block
    r = term = None
    for xb in np.split(x, range(BLOCK, n, BLOCK)):
        m = k * xb.size
        block = sample_sphere_vectors(d, m, gen, rows[:m]).reshape(xb.size, k, d)
        u, w = block[:, 0], block[:, -1]
        if r is None:  # assigned, not added to zeros: one block is one product
            r = (u.T * xb) @ w.conj()
        else:
            term = np.matmul(u.T * xb, w.conj(), out=term)
            r += term
    return r


def sample_P_compound_poisson(
    rho: FiniteMeasure, lam: float, d: int, rng: RngStream | np.random.Generator,
    summed: bool = False,
) -> HermitianSample:
    """Compound Poisson case: a Poisson(d * lam) number of weighted rank-one
    sphere projections, M = sum_k x_k u_k u_k^* with x_k ~ rho, kept as
    their factors when n < d, or, with summed or n >= d, as their sum
    (_rank_one_sum)."""
    tail = _rank_one_sum(rho, lam, d, as_generator(rng), summed=summed)
    return HermitianSample(dim=d, tail=tail)


@dataclass(frozen=True)
class _Decomposition:
    """Gaussian block (mean, variance) plus compound-Poisson tail beyond cut."""

    mean: float
    var: float
    tail: CompoundPoissonParams
    substituted_var: float  # variance absorbed from jumps inside the cut
    cut: float


def _decompose(t: LevyTriple, cut: float | None) -> _Decomposition:
    """The one split of a triple, for the samplers and the budget: the mass of
    G at zero (levy.at_zero) is Gaussian, the jumps within the cut are
    absorbed as a Gaussian with their first two cumulants (small-jump
    substitution), and the rest is the tail.  The default cut, half the
    smallest |u| off zero (1.0 without one), makes atomic triples exact."""
    if cut is None:
        locs = t.G.locations()
        off = np.abs(locs[~at_zero(locs)])
        cut = float(off.min()) / 2.0 if off.size else 1.0
    if not cut > 0:
        raise ValueError("inner cut must be positive")
    inner, tail = truncate(t, cut)  # by this module's name: perfbench/tracing.py wraps it
    locs, ws = inner.G.locations(), inner.G.weights()
    jumps = ~at_zero(locs)
    u, w = locs[jumps], ws[jumps]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, without a warning
        sub_var = running_sum(w * (1.0 + u * u))
        mean = inner.gamma + running_sum(w * u)  # first cumulant of the inner triple
        var = running_sum(ws[~jumps]) + sub_var
    if not (np.isfinite(mean) and np.isfinite(var)):
        raise ValueError("the small-jump substitution overflows a float")
    return _Decomposition(mean, var, tail, sub_var, cut)


def _sample_composite(
    t: LevyTriple, d: int, rng, n_samples: int, inner_cut, gaussian_block, rank_one,
) -> list:
    """The composite sampler of both models: per sample, the sample
    gaussian_block(mean, var, d, gen) given, when the cut leaves a tail, the
    tail of rank_one(rho, lam, d, gen), all drawn from one generator.  A
    sample with a dense block has its tail summed, as its spectrum needs the
    entries.  Callers pass the blocks by their module-level names, looked up
    per call, so wrappers installed on those names (perfbench/tracing.py)
    are the ones run."""
    if d < 1:
        raise ValueError("d must be positive")
    dec = _decompose(t, inner_cut)
    gen = as_generator(rng)
    out = []
    for _ in range(n_samples):
        s = gaussian_block(dec.mean, dec.var, d, gen)
        if dec.tail.lam > 0:
            summed = s.block is not None
            s = replace(s, tail=rank_one(dec.tail.rho, dec.tail.lam, d, gen, summed=summed).tail)
        out.append(s)
    return out


def sample_P(
    t: LevyTriple,
    d: int,
    rng: RngStream | np.random.Generator,
    inner_cut: float | None = None,
) -> HermitianSample:
    """Composite sampler for an arbitrary triple: independent sum of the
    Gaussian block (drift, Gaussian mass, substituted small jumps) and the
    compound-Poisson tail of the jumps beyond the cut.

    Exact whenever no atom of G off zero lies within inner_cut; the default
    cut is below the smallest one, so atomic triples are sampled exactly.
    """
    return sample_P_many(t, d, rng, 1, inner_cut)[0]


def sample_P_many(
    t: LevyTriple,
    d: int,
    rng: RngStream | np.random.Generator,
    n_samples: int,
    inner_cut: float | None = None,
) -> list[HermitianSample]:
    """Batch variant of sample_P; the truncation decomposition is computed
    once."""
    if d == 1:
        xs = sample_P_scalars(t, rng, n_samples, inner_cut)
        return [HermitianSample(np.array([[x]], dtype=complex)) for x in xs]
    return _sample_composite(t, d, rng, n_samples, inner_cut, sample_P_gaussian,
                             sample_P_compound_poisson)


def sample_P_scalars(
    t: LevyTriple,
    rng: RngStream | np.random.Generator,
    n_samples: int,
    inner_cut: float | None = None,
) -> np.ndarray:
    """Vectorized d = 1 path: at dimension one the sphere projections are the
    constant 1, so the sampler reduces to drift + Gaussian + compound Poisson
    scalar sums."""
    dec = _decompose(t, inner_cut)
    gen = as_generator(rng)
    out = dec.mean + np.sqrt(dec.var) * standard_normal(gen, n_samples)
    if dec.tail.lam > 0:
        counts = gen.poisson(dec.tail.lam, n_samples)
        total = int(counts.sum())
        if total:
            jumps = _draw_jumps(dec.tail.rho, gen, total)
            sums = np.zeros(n_samples)
            idx = np.repeat(np.arange(n_samples), counts)
            np.add.at(sums, idx, jumps)
            out = out + sums
    return out

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
from .rng import (RngStream, as_generator, standard_complex_normal, standard_normal, sub_key,
                  sub_stream)
from .sphere import sample_sphere_vectors

__all__ = [
    "HermitianSample",
    "sample_haar_unitary",
    "sample_Q",
    "sample_P_gaussian",
    "sample_P_compound_poisson",
    "sample_P_many",
]

# The rank-one sum of a sample with at least d terms draws and multiplies its
# sphere rows this many jumps at a time.  Measured on one d = 1000 L sample
# of cauchy(1, 1001) at cut 0.05 (about 13,000 jumps) and its singular
# values, on one core: blocks of 64, 128, 256, 512 and 1024 jumps took 2.39,
# 2.20, 2.13, 2.08 and 2.10 s, at 134-135 MB peak RSS up to 512 and 151 MB
# at 1024; one product of all rows took 2.7 s and 880 MB.
BLOCK = 256

# The lower triangle of a Hermitian core is built this many rows at a time
# (_lower_core).  With its eigvalsh, on one core of a 2-vCPU x86-64 host, an
# n = 200 core took 5.4, 4.9, 5.0 and 6.0 ms at 8, 16, 32 and 64 rows, and
# 5.8 ms as the full product.
CORE_ROWS = 16


@dataclass(frozen=True, eq=False)
class _Sample:
    """A d x d matrix sample kept in the parts it was drawn as: a dense block,
    or shift * I plus a rank-one tail sum_k x_k u_k w_k^*.  A tail drawn for
    a block is added into it in place (_with_tail), so a sample keeps a tail
    only where it has no block.  The tail is the d x d sum itself, or, for
    n < d terms, the factors (x, u, w, key) of _rank_one_terms: the rows u_k
    and w_k of u and w in their own n-dimensional span (n x n and lower
    triangular, sphere.sample_sphere_vectors), and the key of the
    Haar columns that place those spans in C^d, which gives the law of rows
    drawn in C^d as the model is unitarily invariant.  `entries` builds the
    matrix, over a kept d x d tail, which it consumes."""

    block: np.ndarray | None = None
    dim: int | None = None
    shift: float = 0.0
    tail: tuple[np.ndarray, np.ndarray, np.ndarray, int] | np.ndarray | None = None

    def __post_init__(self):
        m = self.block
        if m is not None:
            if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
                raise ValueError("entries must be a square matrix")
            if self.tail is not None:
                raise ValueError("a tail is added into the block, not kept beside it")
            object.__setattr__(self, "dim", m.shape[0])
        elif self.dim is None or self.dim < 1:
            raise ValueError("d must be positive")

    @staticmethod
    def _dense(r: np.ndarray) -> np.ndarray:
        """The entries of a tail from its fresh d x d sum r, written over r."""
        return r

    def _with_tail(self, tail):
        """This sample plus a rank-one tail (_rank_one_terms): kept as the
        tail when there is no block, otherwise added into the block, which
        holds the same bits as block + tail entries and leaves the sample one
        d x d array."""
        if self.block is None:
            return replace(self, tail=tail)
        if tail is not None:
            np.add(self.block, self._dense(tail), out=self.block)
        return self

    @cached_property
    def entries(self) -> np.ndarray:
        """The matrix, built on first use: the block, or the tail's entries
        (_dense) plus the shift on the diagonal, over the kept sum or the
        fresh product.  Factors are placed in C^d as V_u C V_w^* with the
        core C of spectrum and d x n Haar columns V_u and V_w (V_w = V_u when
        w is u) drawn from the key's sub-stream (rng.sub_stream)."""
        d = self.dim
        if self.tail is None:
            return self.block if self.block is not None else self.shift * np.eye(d, dtype=complex)
        if isinstance(self.tail, tuple):
            x, u, w, key = self.tail
            gen = sub_stream(key)
            v = _haar_columns(d, x.size, gen)  # V_u
            left = v @ ((u.T * x) @ w.conj())
            if w is not u:  # V_u is no longer needed when V_w is drawn
                del v
                v = _haar_columns(d, x.size, gen)
            m = self._dense(left @ np.conjugate(v, out=v).T)
        else:
            m = self._dense(self.tail)
        m[np.diag_indices(d)] += self.shift
        return m

    @property
    def low_rank(self) -> bool:
        """No dense block, and no tail or one kept as factors (n < d terms):
        the spectrum comes from an n x n core in place of a d x d problem."""
        return self.block is None and not isinstance(self.tail, np.ndarray)

    def spectrum(self, solve, lower: bool = False) -> np.ndarray:
        """solve(entries), or for a low-rank sample solve(C) on the n x n core
        C = (u.T * x) @ w.conj() of its tail in its rows' own basis and d - n
        zeros, all plus the shift: the Haar columns are orthonormal, so these
        are its eigenvalues (eigvalsh, w = u) or its singular values (svd).
        With lower, solve reads only the lower triangle of a Hermitian core
        (w = u), and only that is built (_lower_core)."""
        if not self.low_rank:
            return solve(self.entries)
        values = np.zeros(self.dim)
        if self.tail is not None:
            x, u, w, _ = self.tail
            values[: x.size] = solve(_lower_core(x, u) if lower else (u.T * x) @ w.conj())
        return values + self.shift


def _lower_core(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The lower triangle of the core C = (u.T * x) @ u.conj() of a tail in
    its own basis, CORE_ROWS rows at a time, zeros above the diagonal
    blocks.  u is lower triangular, so core rows i..e - 1 need the factor
    rows k >= i only: about n^3 / 6 multiply-adds in place of n^3."""
    n = x.size
    xu, ub = u.T * x, u.conj()
    c = np.zeros((n, n), dtype=complex)
    for i in range(0, n, CORE_ROWS):
        e = min(i + CORE_ROWS, n)
        c[i:e, :e] = xu[i:e, i:] @ ub[i:, :e]
    return c


def _hermitian_part(r: np.ndarray) -> np.ndarray:
    """(r + r^*) / 2 written over the square array r, one pair of tiles across
    the diagonal at a time: a tile is averaged, and its mirror written as its
    conjugate transpose, imaginary parts as 0 - Im.  The result is exactly
    Hermitian, with the bits of (conj(r[j, i]) + r[i, j]) / 2 at (i, j) but
    for the -0 below the diagonal where Im r[i, j] = -0 and Im r[j, i] = +0.
    The temporaries are two contiguous (BLOCK / 2)-square tiles, as numpy's
    ufuncs buffer strided 2-d views and copyto does not."""
    d = r.shape[0]
    s = min(d, BLOCK // 2)
    bufs = np.empty((2, s, s), dtype=r.dtype)
    for i in range(0, d, s):
        for j in range(i, d, s):
            a, b = r[i : i + s, j : j + s], r[j : j + s, i : i + s]
            x, y = bufs[:, : a.shape[0], : a.shape[1]]
            np.copyto(x, a)
            np.copyto(y, b.T)
            np.conjugate(y, out=y)
            y += x
            y /= 2.0
            np.copyto(a, y)
            if i < j:
                np.subtract(0.0, y.imag, out=y.imag)
                np.copyto(b, y.T)
    return r


class HermitianSample(_Sample):
    """A Hermitian sample: the dense block is checked, and the tail is
    sum_k x_k u_k u_k^* (w is u), whose entries are its Hermitian part
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

    _dense = staticmethod(_hermitian_part)

    def eigenvalues(self) -> np.ndarray:
        """spectrum(eigvalsh), which reads the lower triangle only, of the
        entries or of a low-rank sample's core."""
        return self.spectrum(np.linalg.eigvalsh, lower=True)


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
    return HermitianSample(_hermitian_part((u * x) @ u.conj().T))


def sample_P_gaussian(
    mean: float, var: float, d: int, rng: RngStream | np.random.Generator
) -> HermitianSample:
    """Exact Gaussian case: sqrt(var) * (GUE(d, 1/(d+1)) + X/sqrt(d+1) * I) + mean * I
    with X an independent standard real Gaussian.  GUE(d, s2) under the
    trace inner product has a real N(0, s2) diagonal and off-diagonal complex
    entries of total variance s2; the triangles are written and scaled in
    place, so the matrix is the only d x d array."""
    if not (np.isfinite(mean) and 0 <= var < np.inf):
        raise ValueError("mean must be finite, variance finite and nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    gen = as_generator(rng)
    if var == 0:
        return HermitianSample(dim=d, shift=mean)
    sigma = np.sqrt(1.0 / (d + 1))
    diag = standard_normal(gen, d) * sigma
    m = np.zeros((d, d), dtype=complex)
    n_off = d * (d - 1) // 2
    if n_off:
        upper = np.triu_indices(d, k=1)
        off = standard_complex_normal(gen, n_off)
        off *= sigma
        m[upper] = off
        m[upper[::-1]] = np.conjugate(off, out=off)
        del upper, off  # not held through the sample's Hermitian check
    x = float(standard_normal(gen, 1)[0])
    scale = np.sqrt(var)
    m *= scale
    np.fill_diagonal(m, scale * (diag + x / np.sqrt(d + 1)) + mean)
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
    set in its own basis (sphere.sample_sphere_vectors, n x n) and drawn
    from gen, then the key of the Haar columns that place them in C^d
    (_Sample.entries).  Otherwise one key is drawn from gen, and its
    sub-stream (rng.sub_stream) draws each w_k right after its u_k, BLOCK
    jumps at a time; their products are summed into one d x d array: the
    rows are the same bits in any chunking (rng.py), and as each block's
    rows are freed before the next are drawn, only O(d^2 + BLOCK d) entries
    are held.  The rows are worked in place: with pairs the u_k are scaled
    by x_k there, and the w_k are conjugated there, which are the bits of
    u.T * x and w.conj()."""
    n = x.size
    if n < d and not summed:
        u = sample_sphere_vectors(d, n, gen, own_basis=True)
        w = sample_sphere_vectors(d, n, gen, own_basis=True) if pairs else u
        return x, u, w, sub_key(gen)
    row_stream = sub_stream(sub_key(gen))
    k = 2 if pairs else 1
    r = None
    for xb in np.split(x, range(BLOCK, n, BLOCK)):
        block = sample_sphere_vectors(d, k * xb.size, row_stream).reshape(xb.size, k, d)
        u, w = block[:, 0], block[:, -1]
        if pairs:  # on the float view: x stays real, and w's conjugate is a sign flip
            block.view(float)[:, 0] *= xb[:, None]
            block.view(float)[:, 1, 1::2] *= -1
            xu = u.T
        else:  # w is u: the one (d, BLOCK) temporary
            xu = u.T * xb
            np.conjugate(w, out=w)
        if r is None:  # assigned, not added to zeros: one block is one product
            r = xu @ w
        else:
            r += xu @ w
        del block, u, w, xu  # like the product, freed before the next rows are drawn
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
    smallest |u| off zero (1.0 without one), makes atomic triples exact.
    Each (triple, cut) is split once: the result is kept on the triple
    (LevyTriple._decompositions), so a config's budget check, its trials
    and its later runs share it; a split that raises is not kept."""
    memo, key = t._decompositions, cut
    if key in memo:
        return memo[key]
    if cut is None:
        locs = t.G.locations()
        off = np.abs(locs[~at_zero(locs)])
        cut = float(off.min()) / 2.0 if off.size else 1.0
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
    dec = memo[key] = _Decomposition(mean, var, tail, sub_var, cut)
    return dec


def _sample_composite(
    t: LevyTriple, d: int, rng, n_samples: int, inner_cut, gaussian_block, rank_one,
) -> list:
    """The composite sampler of both models: the triple's split at the cut
    (_decompose, computed once per triple and cut), then per sample, the
    sample gaussian_block(mean, var, d, gen) given, when the cut leaves a
    tail, the tail of rank_one(rho, lam, d, gen), all drawn from one
    generator or from sub-streams keyed by it (_rank_one_terms).  A
    sample with a dense block has its tail summed, as its spectrum needs the
    entries, and added into the block as soon as it is drawn (_with_tail),
    so that one d x d array is kept.  Callers look the blocks up by their
    module-level names at call time, so wrappers installed on those names
    (perfbench/tracing.py) are the ones run."""
    dec = _decompose(t, inner_cut)
    gen = as_generator(rng)
    out = []
    for _ in range(n_samples):
        s = gaussian_block(dec.mean, dec.var, d, gen)
        if dec.tail.lam > 0:
            summed = s.block is not None
            s = s._with_tail(rank_one(dec.tail.rho, dec.tail.lam, d, gen, summed=summed).tail)
        out.append(s)
    return out


def sample_P_many(
    t: LevyTriple,
    d: int,
    rng: RngStream | np.random.Generator,
    n_samples: int,
    inner_cut: float | None = None,
) -> list[HermitianSample]:
    """Composite sampler for an arbitrary triple, n_samples draws of P_d:
    each is the independent sum of the Gaussian block (drift, Gaussian mass,
    substituted small jumps) and the compound-Poisson tail of the jumps
    beyond the cut.  The truncation decomposition is computed once.

    Exact whenever no atom of G off zero lies within inner_cut; the default
    cut is below the smallest one, so atomic triples are sampled exactly.
    """
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

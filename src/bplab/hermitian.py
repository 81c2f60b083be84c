"""Samplers for the Hermitian matrix family attached to an infinitely
divisible law: conjugated-diagonal building blocks, the exact Gaussian and
compound-Poisson cases, and a composite sampler for arbitrary triples via
truncation plus small-jump Gaussian substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import (
    CompoundPoissonParams,
    LevyTriple,
    truncate,
)
from .rng import RngStream, as_generator, standard_complex_normal, standard_normal
from .sphere import sample_sphere_vectors

__all__ = [
    "HermitianSample",
    "ScalarSampler",
    "sample_haar_unitary",
    "sample_Q",
    "sample_P_gaussian",
    "sample_P_compound_poisson",
    "sample_P",
    "sample_P_many",
    "default_inner_cut",
]


@dataclass(frozen=True)
class HermitianSample:
    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("entries must be a square matrix")
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * max(1.0, np.max(np.abs(m))):
            raise ValueError("matrix is not Hermitian within tolerance")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ScalarSampler:
    """A scalar law with a vectorized draw; `symmetric` declares symmetry
    where a model requires it."""

    draw: "callable"  # draw(gen, n) -> ndarray of n reals
    symmetric: bool = False


def _hermitize(m: np.ndarray) -> HermitianSample:
    return HermitianSample((m + m.conj().T) / 2.0)


def sample_haar_unitary(d: int, rng: RngStream | np.random.Generator) -> np.ndarray:
    """Haar unitary via QR of a complex Ginibre matrix, with the phases of
    diag(R) pulled into Q so the law is exactly Haar."""
    if d < 1:
        raise ValueError("d must be positive")
    gen = as_generator(rng)
    z = standard_complex_normal(gen, (d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def sample_Q(mu: ScalarSampler, d: int, rng: RngStream | np.random.Generator) -> HermitianSample:
    """Independent Haar conjugation of an i.i.d. diagonal; the eigenvalues of
    the sample are exactly the diagonal draws."""
    gen = as_generator(rng)
    x = np.asarray(mu.draw(gen, d), dtype=float)
    u = sample_haar_unitary(d, gen)
    return _hermitize((u * x) @ u.conj().T)


def _gue_matrix(d: int, sigma2: float, gen: np.random.Generator) -> np.ndarray:
    """GUE(d, sigma2) under the trace inner product: real diagonal N(0, sigma2),
    off-diagonal complex entries with total variance sigma2."""
    m = np.zeros((d, d), dtype=complex)
    diag = standard_normal(gen, d) * np.sqrt(sigma2)
    n_off = d * (d - 1) // 2
    if n_off:
        re = standard_normal(gen, n_off) * np.sqrt(sigma2 / 2.0)
        im = standard_normal(gen, n_off) * np.sqrt(sigma2 / 2.0)
        iu = np.triu_indices(d, k=1)
        m[iu] = re + 1j * im
        m += m.conj().T
    m[np.diag_indices(d)] = diag
    return m


def sample_P_gaussian(
    mean: float, var: float, d: int, rng: RngStream | np.random.Generator
) -> HermitianSample:
    """Exact Gaussian case: sqrt(var) * (GUE(d, 1/(d+1)) + X/sqrt(d+1) * I) + mean * I
    with X an independent standard real Gaussian."""
    if var < 0:
        raise ValueError("variance must be nonnegative")
    if d < 1:
        raise ValueError("d must be positive")
    gen = as_generator(rng)
    if var == 0:
        return HermitianSample(mean * np.eye(d, dtype=complex))
    n = _gue_matrix(d, 1.0 / (d + 1), gen)
    x = float(standard_normal(gen, 1)[0])
    m = np.sqrt(var) * (n + x / np.sqrt(d + 1) * np.eye(d)) + mean * np.eye(d)
    return HermitianSample(m)


def _rank_one_sum(rho: ScalarSampler, lam: float, d: int, gen, draw_w=None) -> np.ndarray:
    """sum_k x_k u_k w_k^* over a Poisson(d * lam) count of jumps x_k ~ rho and
    sphere rows u_k; w = u, or independent rows drawn by draw_w(d, n, gen)."""
    if lam < 0:
        raise ValueError("intensity must be nonnegative")
    n = int(gen.poisson(d * lam))
    if n == 0:
        return np.zeros((d, d), dtype=complex)
    x = np.asarray(rho.draw(gen, n), dtype=float)
    u = sample_sphere_vectors(d, n, gen)  # rows are the sphere vectors
    w = u if draw_w is None else draw_w(d, n, gen)
    return (u.T * x) @ w.conj()


def sample_P_compound_poisson(
    rho: ScalarSampler, lam: float, d: int, rng: RngStream | np.random.Generator
) -> HermitianSample:
    """Compound Poisson case: a Poisson(d * lam) number of weighted rank-one
    sphere projections, M = sum_k x_k u_k u_k^*."""
    return _hermitize(_rank_one_sum(rho, lam, d, as_generator(rng)))


def default_inner_cut(t: LevyTriple) -> float:
    """Half the smallest nonzero atom location of G: makes the decomposition
    exact for atomic measures.  Falls back to 1.0 for a jump-free triple."""
    nonzero = [abs(u) for u, _ in t.G.atoms if u != 0.0]
    if not nonzero:
        return 1.0
    return min(nonzero) / 2.0


@dataclass(frozen=True)
class _Decomposition:
    """Gaussian block (mean, variance) plus compound-Poisson tail."""

    mean: float
    var: float
    tail: CompoundPoissonParams
    substituted_var: float  # variance absorbed from jumps inside the cut


def _decompose(t: LevyTriple, eps: float | None) -> _Decomposition:
    if eps is None:
        eps = default_inner_cut(t)
    if eps <= 0:
        raise ValueError("inner cut must be positive")
    inner, tail = truncate(t, eps)  # by this module's name: perfbench/tracing.py wraps it
    var0 = inner.G.mass_at(0.0)
    # jumps inside (0, eps] are absorbed as a Gaussian with matched first and
    # second cumulants (small-jump substitution)
    sub_mean = 0.0
    sub_var = 0.0
    for u, w in inner.G.atoms:
        if u == 0.0:
            continue
        sub_mean += w * u
        sub_var += w * (1.0 + u * u)
    mean = inner.gamma + sub_mean  # first cumulant of the inner triple
    return _Decomposition(mean, var0 + sub_var, tail, sub_var)


def _jump_law(tail: CompoundPoissonParams, symmetric: bool = False) -> ScalarSampler:
    """Draws from the tail's jump law rho (its atoms, by weight)."""
    locs = tail.rho.locations()
    ws = tail.rho.weights()
    p = ws / ws.sum()
    return ScalarSampler(lambda gen, n: gen.choice(locs, size=n, p=p), symmetric)


def _sample_composite(
    t: LevyTriple, d: int, rng, n_samples: int, inner_cut, gaussian_block, rank_one,
    symmetric: bool = False,
) -> list[np.ndarray]:
    """The composite sampler of both models: per sample, the entries of
    gaussian_block(mean, var, d, gen) plus, when the cut leaves a tail, those
    of rank_one(rho, lam, d, gen), all drawn from one generator.  Callers pass
    the blocks by their module-level names, looked up per call, so wrappers
    installed on those names (perfbench/tracing.py) are the ones run."""
    if d < 1:
        raise ValueError("d must be positive")
    dec = _decompose(t, inner_cut)
    gen = as_generator(rng)
    rho = _jump_law(dec.tail, symmetric) if dec.tail.lam > 0 else None
    out = []
    for _ in range(n_samples):
        m = gaussian_block(dec.mean, dec.var, d, gen).entries
        if rho is not None:
            m = m + rank_one(rho, dec.tail.lam, d, gen).entries
        out.append(m)
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

    Exact whenever no atom of G lies in (0, inner_cut]; the default cut is
    below the smallest nonzero atom, so atomic triples are sampled exactly.
    """
    return sample_P_many(t, d, rng, 1, inner_cut)[0]


def sample_P_many(
    t: LevyTriple,
    d: int,
    rng: RngStream | np.random.Generator,
    n_samples: int,
    inner_cut: float | None = None,
) -> list[HermitianSample]:
    """Batch variant of sample_P; the truncation decomposition is computed once."""
    if d == 1:
        xs = sample_P_scalars(t, rng, n_samples, inner_cut)
        return [HermitianSample(np.array([[x]], dtype=complex)) for x in xs]
    ms = _sample_composite(
        t, d, rng, n_samples, inner_cut, sample_P_gaussian, sample_P_compound_poisson
    )
    return [HermitianSample(m) for m in ms]


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
            jumps = _jump_law(dec.tail).draw(gen, total)
            sums = np.zeros(n_samples)
            idx = np.repeat(np.arange(n_samples), counts)
            np.add.at(sums, idx, jumps)
            out = out + sums
    return out

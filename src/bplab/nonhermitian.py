"""Samplers for the non-Hermitian matrix family of a symmetric infinitely
divisible law, and the symmetrized singular-value statistics that converge
to its free image.
"""

from __future__ import annotations

import numpy as np

from .levy import FiniteMeasure, LevyTriple, is_symmetric
from .hermitian import _rank_one_sum, _Sample, _sample_composite, sample_haar_unitary
# standard_normal is not called here; perfbench/tracing.py wraps it by this name
from .rng import RngStream, as_generator, standard_complex_normal, standard_normal
from .sphere import sample_sphere_vectors  # not called here either; traced by this name
from .spectra import EmpiricalDistribution

__all__ = [
    "ComplexMatrixSample",
    "sample_K",
    "sample_L_gaussian",
    "sample_L_compound_poisson",
    "sample_L",
    "sample_L_many",
    "singular_values",
    "symmetrized_singular_law",
]


class ComplexMatrixSample(_Sample):
    """A square complex sample: a dense block, or the zero matrix (the
    shift of L is 0), plus a rank-one tail sum_k x_k u_k w_k^*."""


def sample_K(x, rng: RngStream | np.random.Generator) -> ComplexMatrixSample:
    """Two independent Haar unitaries around the real diagonal x: U diag(x) V;
    the singular values are exactly the |x_i|."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("the diagonal must be a 1-d array")
    gen = as_generator(rng)
    u = sample_haar_unitary(x.size, gen)
    v = sample_haar_unitary(x.size, gen)
    return ComplexMatrixSample((u * x) @ v)


def sample_L_gaussian(
    d: int, rng: RngStream | np.random.Generator, scale: float = 1.0
) -> ComplexMatrixSample:
    """Ginibre case: i.i.d. complex entries, real and imaginary parts
    N(0, scale / (2d))."""
    if d < 1:
        raise ValueError("d must be positive")
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be finite and nonnegative")
    gen = as_generator(rng)
    z = standard_complex_normal(gen, (d, d)) * np.sqrt(scale / d)
    return ComplexMatrixSample(z)


def _ginibre_block(mean: float, var: float, d: int, gen) -> ComplexMatrixSample:
    """The Gaussian block of L: Ginibre of variance var (zero when var is 0).
    The mean is dropped: L is only defined for symmetric triples."""
    if var > 0:
        return sample_L_gaussian(d, gen, scale=var)
    return ComplexMatrixSample(dim=d)


def sample_L_compound_poisson(
    rho: FiniteMeasure, lam: float, d: int, rng: RngStream | np.random.Generator,
    own_basis: bool = False,
) -> ComplexMatrixSample:
    """Compound Poisson case: a Poisson(d * lam) number of weighted rank-one
    outer products x u v^* with x ~ rho and independent sphere vectors u, v,
    kept as their factors (with own_basis and n < d, the u-set and the v-set
    each in its own basis) or as their sum (hermitian._rank_one_sum).  The
    model needs a symmetric law; sample_L_many checks that on the triple."""
    tail = _rank_one_sum(rho, lam, d, as_generator(rng), pairs=True, own_basis=own_basis)
    return ComplexMatrixSample(dim=d, tail=tail)


def sample_L(
    t: LevyTriple,
    d: int,
    rng: RngStream | np.random.Generator,
    inner_cut: float | None = None,
) -> ComplexMatrixSample:
    """Composite sampler for a symmetric triple: independent sum of a Ginibre
    block (Gaussian mass plus substituted small jumps) and the compound
    Poisson tail beyond the cut."""
    return sample_L_many(t, d, rng, 1, inner_cut)[0]


def sample_L_many(
    t: LevyTriple,
    d: int,
    rng: RngStream | np.random.Generator,
    n_samples: int,
    inner_cut: float | None = None,
    own_basis: bool = False,
) -> list[ComplexMatrixSample]:
    """Batch variant of sample_L; the decomposition is computed once.  With
    own_basis, as in sample_P_many, low-rank samples keep the law of their
    singular values but have no entries."""
    if not is_symmetric(t):
        raise ValueError("the non-Hermitian model requires a symmetric triple")
    return _sample_composite(t, d, rng, n_samples, inner_cut, _ginibre_block,
                             sample_L_compound_poisson, own_basis)


def singular_values(M: ComplexMatrixSample) -> np.ndarray:
    """Singular values: a low-rank sample takes those of its n x n core and
    d - n zeros (core_spectrum); any other a Hermitian eigensolve of M^* M,
    whose tiny negative eigenvalues are clamped to zero before the square
    root."""
    if M.low_rank:
        return M.core_spectrum(lambda c: np.linalg.svd(c, compute_uv=False))
    w = np.linalg.eigvalsh(M.entries.conj().T @ M.entries)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if np.min(w) < -1e-10 * scale:
        raise ValueError("gram matrix has a significantly negative eigenvalue")
    return np.sqrt(np.clip(w, 0.0, None))


def symmetrized_singular_law(M: ComplexMatrixSample) -> EmpiricalDistribution:
    """Weight 1/(2d) at each +-s_i: the symmetrization of the singular-value
    spectrum.  Odd moments vanish exactly; even moment 2k equals the
    normalized trace of (M^* M)^k."""
    s = singular_values(M)
    return EmpiricalDistribution(np.concatenate([-s, s]))

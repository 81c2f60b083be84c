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
    N(0, scale / (2d)); at scale 0 the zero matrix, drawing nothing."""
    if d < 1:
        raise ValueError("d must be positive")
    if not 0 <= scale < np.inf:
        raise ValueError("scale must be finite and nonnegative")
    if scale == 0:
        return ComplexMatrixSample(dim=d)
    gen = as_generator(rng)
    z = standard_complex_normal(gen, (d, d)) * np.sqrt(scale / d)
    return ComplexMatrixSample(z)


def sample_L_compound_poisson(
    rho: FiniteMeasure, lam: float, d: int, rng: RngStream | np.random.Generator,
    summed: bool = False,
) -> ComplexMatrixSample:
    """Compound Poisson case: a Poisson(d * lam) number of weighted rank-one
    outer products x u v^* with x ~ rho and independent sphere vectors u, v,
    kept as their factors when n < d, or, with summed or n >= d, as their
    sum (hermitian._rank_one_sum).  The model needs a symmetric law;
    sample_L_many checks that on the triple."""
    tail = _rank_one_sum(rho, lam, d, as_generator(rng), pairs=True, summed=summed)
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
) -> list[ComplexMatrixSample]:
    """Batch variant of sample_L; the decomposition is computed once."""
    if not is_symmetric(t):
        raise ValueError("the non-Hermitian model requires a symmetric triple")
    # the Gaussian block drops the mean, which is 0 for a symmetric t
    return _sample_composite(t, d, rng, n_samples, inner_cut,
                             lambda mean, var, d, gen: sample_L_gaussian(d, gen, var),
                             sample_L_compound_poisson)


def singular_values(M: ComplexMatrixSample) -> np.ndarray:
    """Singular values, from one SVD solver (_Sample.spectrum): of the n x n
    core and d - n zeros for a low-rank sample, of the entries otherwise."""
    return M.spectrum(lambda m: np.linalg.svd(m, compute_uv=False))


def symmetrized_singular_law(M: ComplexMatrixSample) -> EmpiricalDistribution:
    """Weight 1/(2d) at each +-s_i: the symmetrization of the singular-value
    spectrum.  Odd moments vanish exactly; even moment 2k equals the
    normalized trace of (M^* M)^k."""
    s = singular_values(M)
    return EmpiricalDistribution(np.concatenate([-s, s]))

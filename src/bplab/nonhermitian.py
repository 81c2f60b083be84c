"""Samplers for the non-Hermitian matrix family of a symmetric infinitely
divisible law, and the symmetrized singular-value statistics that converge
to its free image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import LevyTriple, is_symmetric
from .hermitian import ScalarSampler, _rank_one_sum, _sample_composite, sample_haar_unitary
# standard_normal is not called here; perfbench/tracing.py wraps it by this name
from .rng import RngStream, as_generator, standard_complex_normal, standard_normal
from .sphere import sample_sphere_vectors
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


@dataclass(frozen=True)
class ComplexMatrixSample:
    entries: np.ndarray

    def __post_init__(self):
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("entries must be a square matrix")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def sample_K(
    mu: ScalarSampler, d: int, rng: RngStream | np.random.Generator
) -> ComplexMatrixSample:
    """Two independent Haar unitaries around an i.i.d. diagonal; the singular
    values are exactly the absolute diagonal draws."""
    gen = as_generator(rng)
    x = np.asarray(mu.draw(gen, d), dtype=float)
    u = sample_haar_unitary(d, gen)
    v = sample_haar_unitary(d, gen)
    return ComplexMatrixSample((u * x) @ v)


def sample_L_gaussian(
    d: int, rng: RngStream | np.random.Generator, scale: float = 1.0
) -> ComplexMatrixSample:
    """Ginibre case: i.i.d. complex entries, real and imaginary parts
    N(0, scale / (2d))."""
    if d < 1:
        raise ValueError("d must be positive")
    gen = as_generator(rng)
    z = standard_complex_normal(gen, (d, d)) * np.sqrt(scale / d)
    return ComplexMatrixSample(z)


def _ginibre_block(mean: float, var: float, d: int, gen) -> ComplexMatrixSample:
    """The Gaussian block of L: Ginibre of variance var (zero when var is 0).
    The mean is dropped: L is only defined for symmetric triples."""
    m = np.zeros((d, d), dtype=complex)
    if var > 0:
        m = m + sample_L_gaussian(d, gen, scale=var).entries
    return ComplexMatrixSample(m)


def sample_L_compound_poisson(
    rho: ScalarSampler, lam: float, d: int, rng: RngStream | np.random.Generator
) -> ComplexMatrixSample:
    """Symmetric compound Poisson case: a Poisson(d * lam) number of weighted
    rank-one outer products u v^* with independent sphere vectors u, v."""
    if not rho.symmetric:
        raise ValueError("jump law must be declared symmetric")
    # v comes from this module's sample_sphere_vectors: perfbench/tracing.py wraps it
    m = _rank_one_sum(rho, lam, d, as_generator(rng), sample_sphere_vectors)
    return ComplexMatrixSample(m)


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
    ms = _sample_composite(
        t, d, rng, n_samples, inner_cut, _ginibre_block, sample_L_compound_poisson,
        symmetric=True,
    )
    return [ComplexMatrixSample(m) for m in ms]


def singular_values(M: ComplexMatrixSample) -> np.ndarray:
    """Singular values via a Hermitian eigensolve of M^* M; tiny negative
    eigenvalues are clamped to zero before the square root."""
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
    points = np.concatenate([-s, s])
    return EmpiricalDistribution.from_samples(points)

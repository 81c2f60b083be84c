"""Uniform unit vectors on the complex d-sphere and the exact moment and
Fourier formulas for the squared-modulus vector Z, which is uniform on the
standard simplex.  The Monte Carlo Fourier evaluator for the Hermitian
matrix family lives here too, since only the spectrum of the test matrix
matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy import LevyTriple, levy_exponent
from .rng import RngStream, as_generator, standard_complex_normal

__all__ = [
    "sample_sphere_vectors",
    "sample_simplex_points",
    "sphere_moment",
    "simplex_fourier",
    "pd_fourier",
    "FourierEstimate",
]

# entries of a closer than this are rejected by simplex_fourier; silent
# jitter would corrupt oracle comparisons
DEGENERACY_TOL = 1e-8

# sample_sphere_vectors takes its row norms this many entries at a time (at
# least one row), so the norm's temporaries stay small whatever the count
NORM_ENTRIES = 2**14


def sample_sphere_vectors(
    d: int, n: int, rng: RngStream | np.random.Generator, out=None, own_basis: bool = False
) -> np.ndarray:
    """n uniform sphere vectors as the rows of an (n, d) complex array, or of
    `out` when it is given: each a standard complex Gaussian vector,
    renormalized about NORM_ENTRIES entries at a time.

    With own_basis, the rows come in their own basis, the orthonormal one
    that Gram-Schmidt builds from them in order: an (n, min(n, d)) lower
    trapezoidal array with a real positive diagonal.  By the complex Bartlett
    decomposition (Dumitriu and Edelman, J. Math. Phys. 2002), an n x d
    standard complex Gaussian matrix is T Q with Q unitary and T lower
    trapezoidal, T_kj ~ CN(0, 1) below the diagonal and |T_kk|^2 ~ Gamma(d - k)
    on it (k counted from 0), all independent.  So the rows of T,
    renormalized, are the coordinates of uniform rows: for n <= d, drawn
    from n (n - 1) / 2 complex normals and n Gamma variates in place of n d
    complex normals.  Only what a unitary of C^d leaves alone is kept: the
    spectrum of sum_k x_k u_k u_k^*, for one."""
    if d < 1:
        raise ValueError("d must be positive")
    gen = as_generator(rng)
    if own_basis:
        if out is not None:
            raise ValueError("own-basis rows are drawn into an array of their own")
        m = min(n, d)
        below = np.tri(n, m, -1, dtype=bool)
        z = np.zeros((n, m), dtype=complex)
        z[below] = standard_complex_normal(gen, np.count_nonzero(below))
        diag = np.arange(m)
        z[diag, diag] = np.sqrt(gen.standard_gamma(d - diag))
    else:
        z = standard_complex_normal(gen, (n, d), out)
    # the bits of z /= norm, scaled on the (re, im) view (rng.standard_complex_normal);
    # each row's norm is its own reduction, so any chunking gives the same bits
    parts = z.view(float)
    step = max(1, NORM_ENTRIES // d)
    for i in range(0, n, step):
        parts[i : i + step] *= 1.0 / np.linalg.norm(z[i : i + step], axis=1, keepdims=True)
    return z


def sample_simplex_points(
    d: int, n: int, rng: RngStream | np.random.Generator
) -> np.ndarray:
    """n draws of Z, uniform on the standard d-simplex, as an (n, d) array."""
    u = sample_sphere_vectors(d, n, rng)
    return np.abs(u) ** 2


def sphere_moment(d: int, alpha) -> float:
    """Exact mixed moment E prod |u_i|^{2 alpha_i} = (d-1)! prod(alpha_i!) / (s+d-1)!
    with s the total degree."""
    if d < 1:
        raise ValueError("d must be positive")
    alpha = list(alpha)
    if len(alpha) != d or any(a < 0 for a in alpha):
        raise ValueError("alpha must be d nonnegative integers")
    s = sum(alpha)
    num = math.factorial(d - 1)
    for a in alpha:
        num *= math.factorial(a)
    return num / math.factorial(s + d - 1)


def simplex_fourier(a) -> complex:
    """E exp(i <a, Z>) in closed form, valid for pairwise distinct entries:
    (d-1)! * sum_j e^{i a_j} / prod_{k != j} i (a_j - a_k)."""
    a = np.asarray(a, dtype=float)
    d = a.size
    if d < 2:
        raise ValueError("need d >= 2")
    diffs = a[:, None] - a[None, :]
    off = np.abs(diffs[~np.eye(d, dtype=bool)])
    if off.min() < DEGENERACY_TOL:
        raise ValueError("entries of a are too close; closed form is degenerate")
    total = 0.0 + 0.0j
    for j in range(d):
        denom = np.prod(1j * (a[j] - np.delete(a, j)))
        total += np.exp(1j * a[j]) / denom
    return math.factorial(d - 1) * total


@dataclass(frozen=True)
class FourierEstimate:
    """Monte Carlo estimate of a matrix-law Fourier transform, together with
    the mean exponent it was exponentiated from."""

    value: complex
    exponent_mean: complex
    exponent_stderr: float
    n_mc: int


def pd_fourier(
    t: LevyTriple,
    eigs_A,
    d: int,
    n_mc: int,
    rng: RngStream | np.random.Generator,
) -> FourierEstimate:
    """Monte Carlo Fourier transform of the Hermitian matrix law at a test
    matrix with spectrum eigs_A: exp(mean over sphere draws of d * psi(<Z, a>)).

    Unitary invariance collapses the matrix integral to the simplex, so only
    the eigenvalues of the test matrix enter.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    a = np.asarray(eigs_A, dtype=float)
    if a.size != d:
        raise ValueError("eigs_A must have length d")
    Z = sample_simplex_points(d, n_mc, rng)
    args = Z @ a
    psi = np.array([levy_exponent(t, x) for x in args])
    exponent = d * psi
    mean = complex(np.mean(exponent))
    if n_mc > 1:
        stderr = float(np.std(exponent) / np.sqrt(n_mc))
    else:
        stderr = float("nan")
    return FourierEstimate(np.exp(mean), mean, stderr, n_mc)

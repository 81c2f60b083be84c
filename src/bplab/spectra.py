"""Empirical spectral distributions, closed-form reference laws, moments and
the upper-half-plane transform metric used to compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulants import CumulantSequence, MomentSequence, bp_transport, moments_from_cumulants
# the class itself: perfbench/tracing.py replaces hermitian's name with a counting function
from .hermitian import HermitianSample
from .levy import LevyTriple, cumulants_from_triple

__all__ = [
    "MAX_ENTRIES",
    "MAX_FLOPS",
    "MAX_KMAX",
    "EmpiricalDistribution",
    "ReferenceLaw",
    "semicircle",
    "cauchy_law",
    "marchenko_pastur",
    "dirac_law",
    "GridSpec",
    "esd",
    "empirical_moments",
    "cauchy_transform",
    "cauchy_sup_distance",
    "reference_density",
    "reference_moments",
    "psi_image_moments",
    "histogram",
]

# The most complex values one array of a run may hold: 2**26, or 1 GiB.
# Configs whose matrices or distance grid would need more are rejected when
# they are parsed, before anything is drawn.
MAX_ENTRIES = 2**26

# The most complex multiply-adds a run, `bplab sample` or `bplab project` may
# ask for: 2**39, one dense eigensolve at the largest dim that MAX_ENTRIES
# admits (8192).  At the 4-5e9 multiply-adds a second that one x86-64 core
# reached in eigvalsh and in the rank-one products, that is about two
# minutes.  The cost model (cli._check_budget) counts d^3 for each spectrum,
# k E[n] d^2 for each rank-one sum and a fixed cost per trial.
MAX_FLOPS = 2**39

# The highest moment order a run or `bplab moments` may ask for.  The free
# moments of a triple cost O(kmax^4) Python steps: 0.19 s at 64, 0.9 s at
# 100 and minutes beyond a few hundred.
MAX_KMAX = 64


@dataclass(frozen=True)
class EmpiricalDistribution:
    """The uniform law on its points, kept sorted: mass 1/N at each of the
    N support points, a repeated point counting once per repeat."""

    support_points: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.support_points, dtype=float).ravel()
        if x.size == 0:
            raise ValueError("an empirical law needs at least one point")
        object.__setattr__(self, "support_points", np.sort(x))


@dataclass(frozen=True)
class ReferenceLaw:
    """Closed-form target law; see the factory helpers below."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("semicircle", "cauchy", "marchenko_pastur", "dirac"):
            raise ValueError(f"unknown reference law {self.kind!r}")


def semicircle(mean: float = 0.0, radius_half: float = 1.0) -> ReferenceLaw:
    """Semicircle with the given mean and variance radius_half**2 (support
    half-width is twice radius_half)."""
    if radius_half <= 0:
        raise ValueError("radius parameter must be positive")
    return ReferenceLaw("semicircle", (mean, radius_half))


def cauchy_law(a: float) -> ReferenceLaw:
    if a <= 0:
        raise ValueError("a must be positive")
    return ReferenceLaw("cauchy", (a,))


def marchenko_pastur(lam: float) -> ReferenceLaw:
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return ReferenceLaw("marchenko_pastur", (lam,))


def dirac_law(a: float) -> ReferenceLaw:
    return ReferenceLaw("dirac", (a,))


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid in the closed upper half plane with imaginary parts
    at least one, where the transform metric lives."""

    real_range: tuple[float, float] = (-8.0, 8.0)
    real_step: float = 0.05
    imaginary_levels: tuple[float, ...] = (1.0, 2.0, 4.0)

    def __post_init__(self):
        lo, hi = self.real_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("real_range must be a finite increasing pair")
        if not (math.isfinite(self.real_step) and self.real_step > 0):
            raise ValueError("real_step must be positive and finite")
        if not self.imaginary_levels or not all(
            math.isfinite(y) and y >= 1.0 for y in self.imaginary_levels
        ):
            raise ValueError("imaginary_levels must be finite and >= 1")
        n_points = ((hi - lo) / self.real_step + 1.0) * len(self.imaginary_levels)
        if n_points > MAX_ENTRIES:
            raise ValueError(f"{n_points:.3g} grid points exceed the budget of {MAX_ENTRIES}")

    def points(self) -> np.ndarray:
        lo, hi = self.real_range
        xs = np.arange(lo, hi + self.real_step / 2, self.real_step)
        return np.concatenate([xs + 1j * y for y in self.imaginary_levels])


def esd(M) -> EmpiricalDistribution:
    """Empirical spectral distribution: the uniform law on the eigenvalues.  M is
    a Hermitian sample, which solves for its own eigenvalues (from an n x n
    core when it is low rank), or an array, checked as one."""
    if not isinstance(M, HermitianSample):
        M = HermitianSample(np.asarray(M))
    return EmpiricalDistribution(M.eigenvalues())


def empirical_moments(nu: EmpiricalDistribution, kmax: int) -> MomentSequence:
    """Power sums of the support over its size."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    x = nu.support_points
    w = 1.0 / x.size
    return MomentSequence(tuple(float(np.sum(w * x**k)) for k in range(1, kmax + 1)))


def _mp_edges(lam: float) -> tuple[float, float]:
    return (1.0 - math.sqrt(lam)) ** 2, (1.0 + math.sqrt(lam)) ** 2


def _mp_density(lam: float, x: np.ndarray) -> np.ndarray:
    a, b = _mp_edges(lam)
    out = np.zeros_like(x, dtype=float)
    inside = (x > a) & (x < b) & (x > 0)
    xi = x[inside]
    out[inside] = np.sqrt((b - xi) * (xi - a)) / (2.0 * np.pi * xi)
    return out


# Most (support x z) elements an empirical transform materializes at once.
_TRANSFORM_BLOCK = 1 << 16


def cauchy_transform(nu, z):
    """f_nu(z) = integral of 1/(u - z) dnu(u), for Im z > 0.

    z may be a scalar, which gives a complex, or an array, which gives an
    array of the same shape.
    """
    zs = np.asarray(z, dtype=complex)
    if not np.all(zs.imag > 0):
        raise ValueError("z must lie in the open upper half plane")
    f = _transform(nu, zs)
    return complex(f) if zs.ndim == 0 else f


def _transform(nu, z: np.ndarray) -> np.ndarray:
    if isinstance(nu, EmpiricalDistribution):
        return _empirical_transform(nu, z)
    if nu.kind == "dirac":
        (a,) = nu.params
        return 1.0 / (a - z)
    if nu.kind == "cauchy":
        (a,) = nu.params
        return -1.0 / (z + 1j * a)
    if nu.kind == "semicircle":
        mean, r = nu.params
        zz = z - mean
        # branch cut split so that the root behaves like +zz at infinity and
        # the transform maps the upper half plane to itself
        w = np.sqrt(zz - 2 * r) * np.sqrt(zz + 2 * r)
        return (-zz + w) / (2.0 * r * r)
    if nu.kind == "marchenko_pastur":
        (lam,) = nu.params
        if lam == 0:
            return 1.0 / (0.0 - z)
        # z f^2 + (z + 1 - lam) f + 1 = 0 with the semicircle's split-root
        # branch; near z = 0 the root tends to -|1 - lam|, which leaves the
        # pole of the (1 - lam)+ atom at zero and no pole when lam >= 1
        a, b = _mp_edges(lam)
        w = np.sqrt(z - a) * np.sqrt(z - b)
        return -(z + 1.0 - lam - w) / (2.0 * z)
    raise ValueError(f"unknown law {nu!r}")


def _empirical_transform(nu: EmpiricalDistribution, z: np.ndarray) -> np.ndarray:
    """Sum of 1/(x - z) over the support, over its size, one block of the
    (z x support) product at a time so that memory stays bounded."""
    x = nu.support_points
    w = 1.0 / x.size
    flat = z.ravel()
    out = np.zeros(flat.shape, dtype=complex)
    xstep = min(x.size, _TRANSFORM_BLOCK)
    zstep = max(1, _TRANSFORM_BLOCK // xstep)
    for i in range(0, flat.size, zstep):
        zb = flat[i : i + zstep, None]
        for j in range(0, x.size, xstep):
            out[i : i + zstep] += np.sum(w / (x[j : j + xstep] - zb), axis=1)
    return out.reshape(z.shape)


def cauchy_sup_distance(nu1, nu2, grid: GridSpec | None = None) -> float:
    """Max over the grid of |f_nu1 - f_nu2|: a lower bound of the sup metric
    over the half plane Im z >= 1."""
    if grid is None:
        grid = GridSpec()
    zs = grid.points()
    return float(np.max(np.abs(cauchy_transform(nu1, zs) - cauchy_transform(nu2, zs))))


def reference_density(law: ReferenceLaw, x: float) -> float:
    """Pointwise density of the absolutely continuous part."""
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
        return float(_mp_density(lam, np.array([float(x)]))[0])
    raise ValueError(f"unknown law {law!r}")


def reference_moments(law: ReferenceLaw, kmax: int) -> MomentSequence:
    """Exact moments via free cumulants (semicircle: (0, r^2, 0, ...);
    Marchenko-Pastur(lam): all cumulants lam; dirac: (a, 0, 0, ...))."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if law.kind == "cauchy":
        raise ValueError("the Cauchy law has no moments")
    if law.kind == "semicircle":
        mean, r = law.params
        c = [mean, r * r] + [0.0] * (kmax - 2)
        return moments_from_cumulants(CumulantSequence("free", tuple(c[:kmax])))
    if law.kind == "marchenko_pastur":
        (lam,) = law.params
        return moments_from_cumulants(CumulantSequence("free", (lam,) * kmax))
    if law.kind == "dirac":
        (a,) = law.params
        return MomentSequence(tuple(a**k for k in range(1, kmax + 1)))
    raise ValueError(f"unknown law {law!r}")


def psi_image_moments(t: LevyTriple, kmax: int) -> MomentSequence:
    """Moments of the free image of the law with the given triple: classical
    cumulants carried over as free cumulants, then summed over noncrossing
    partitions."""
    return moments_from_cumulants(bp_transport(cumulants_from_triple(t, kmax)))


def histogram(nu: EmpiricalDistribution, bins: int):
    """Binning: list of (bin_center, mass) pairs, each mass the bin's count
    over the number of points."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    x = nu.support_points
    lo, hi = float(x.min()), float(x.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
    mass = np.bincount(idx, minlength=bins) / x.size
    centers = 0.5 * (edges[:-1] + edges[1:])
    return [(float(c), float(m)) for c, m in zip(centers, mass)]

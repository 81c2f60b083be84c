"""Empirical spectral distributions, closed-form reference laws, moments and
the upper-half-plane transform metric used to compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulants import MomentSequence, bp_transport, moments_from_cumulants
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
# k E[n] d^2 for each rank-one sum and a fixed cost per trial, and
# cli._check_distance_budget the terms of the transform distance.
MAX_FLOPS = 2**39

# The highest moment order a run or `bplab moments` may ask for.  The free
# moments of a triple cost O(kmax^3) Python steps (cumulants._walk): on one
# Xeon core, 9 ms at 64, 23 ms at 100 and 0.5 s at 300.
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


# What each reference law's params must be; the checks below are written so
# that NaN fails them.
_REFERENCE_PARAMS = {
    "semicircle": ("a finite mean and a positive finite radius",
                   lambda mean, r: math.isfinite(mean) and 0 < r < math.inf),
    "cauchy": ("a positive finite a", lambda a: 0 < a < math.inf),
    "marchenko_pastur": ("a nonnegative finite lam", lambda lam: 0 <= lam < math.inf),
    "dirac": ("a finite a", math.isfinite),
}


@dataclass(frozen=True)
class ReferenceLaw:
    """Closed-form target law; see the factory helpers below."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _REFERENCE_PARAMS:
            raise ValueError(f"unknown reference law {self.kind!r}")
        needs, ok = _REFERENCE_PARAMS[self.kind]
        try:
            valid = ok(*self.params)
        except TypeError:  # the wrong number of params
            valid = False
        if not valid:
            raise ValueError(f"{self.kind} needs {needs}, got {self.params}")


def semicircle(mean: float = 0.0, radius_half: float = 1.0) -> ReferenceLaw:
    """Semicircle with the given mean and variance radius_half**2 (support
    half-width is twice radius_half)."""
    return ReferenceLaw("semicircle", (mean, radius_half))


def cauchy_law(a: float) -> ReferenceLaw:
    return ReferenceLaw("cauchy", (a,))


def marchenko_pastur(lam: float) -> ReferenceLaw:
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
        if self.size > MAX_ENTRIES:
            raise ValueError(f"{self.size:.3g} grid points exceed the budget of {MAX_ENTRIES}")

    @property
    def size(self) -> float:
        """The number of grid points, to within one a level."""
        lo, hi = self.real_range
        return ((hi - lo) / self.real_step + 1.0) * len(self.imaginary_levels)

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
        a, b = (1.0 - math.sqrt(lam)) ** 2, (1.0 + math.sqrt(lam)) ** 2
        w = np.sqrt(z - a) * np.sqrt(z - b)
        return -(z + 1.0 - lam - w) / (2.0 * z)
    raise ValueError(f"unknown law {nu!r}")


def _empirical_transform(nu: EmpiricalDistribution, z: np.ndarray) -> np.ndarray:
    """Sum of 1/(x - z) over the support, over its size, in real arithmetic
    (_real_transform) at each z where the support and z lie within
    _REAL_BOUND, by complex division at any other."""
    x = nu.support_points
    flat = z.ravel()
    if not (-_REAL_BOUND <= x[0] and x[-1] <= _REAL_BOUND):  # x is sorted
        return _division_transform(x, flat).reshape(z.shape)
    real = (np.abs(flat) <= _REAL_BOUND) & (flat.imag >= 1.0 / _REAL_BOUND)
    if real.all():
        return _real_transform(x, flat).reshape(z.shape)
    out = np.empty(flat.shape, dtype=complex)
    out[real] = _real_transform(x, flat[real])
    out[~real] = _division_transform(x, flat[~real])
    return out.reshape(z.shape)


# The real kernels neither overflow nor underflow while |x| <= 2**250,
# |z| <= 2**250 and Im z >= 2**-250: t^2 + h^2 stays below 2**1004, and at
# least (Im z)^2 >= 2**-500, or (Im z)^4 >= 2**-1000 in the mirror form,
# |s^2 - z^2|^2 = |s - z|^2 |s + z|^2.  A jump at 1.3e154 squares past
# the largest float.
_REAL_BOUND = 2.0**250


def _real_transform(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The mean of 1/(x - z) over the sorted x, for z within _REAL_BOUND.

    A support of even size that is its own negation reversed (a symmetrized
    singular law, or a pool of them) pairs each s >= 0 with -s, and
    1/(s - z) + 1/(-s - z) = 2z/(s^2 - z^2): its transform is z g(z^2), g
    the mean of 1/(s^2 - w) over the nonnegative half.  Im z^2 = 2 Re z Im z
    may take either sign; the sums need only t^2 + h^2 > 0.  Complex
    products are written out in real arithmetic, so that every z gives the
    same bits in an array as alone."""
    a, h = z.real, z.imag
    n = x.size
    if not (x[0] == -x[-1] and n % 2 == 0 and np.array_equal(x, -x[::-1])):
        return _real_sums(x, a, h)
    half = x[n // 2 :]
    g = _real_sums(half * half, a * a - h * h, 2.0 * a * h)
    out = np.empty_like(g)
    out.real, out.imag = a * g.real - h * g.imag, a * g.imag + h * g.real
    return out


def _real_sums(x: np.ndarray, a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The mean of 1/(x - z) over x at each z = a + ih.  With t = x - a and
    r = 1/(t^2 + h^2), 1/(x - z) = (t + ih) r: its real part is the mean of
    t r and its imaginary part h times the mean of r.  One block of the
    (z x support) product at a time, so that memory stays bounded; each z's
    terms are summed in the same order whatever the other z."""
    re, im = np.zeros(a.shape), np.zeros(a.shape)
    hh = h * h
    xstep = min(x.size, _TRANSFORM_BLOCK)
    zstep = max(1, _TRANSFORM_BLOCK // xstep)
    for i in range(0, a.size, zstep):
        ab, hb = a[i : i + zstep, None], hh[i : i + zstep, None]
        for j in range(0, x.size, xstep):
            t = x[j : j + xstep] - ab
            r = t * t
            r += hb
            np.reciprocal(r, out=r)
            im[i : i + zstep] += r.sum(axis=1)
            t *= r
            re[i : i + zstep] += t.sum(axis=1)
    w = 1.0 / x.size
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = w * re, w * h * im
    return out


def _division_transform(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The mean of 1/(x - z) over x by complex division, blocked as in
    _real_sums: for supports or points beyond _REAL_BOUND."""
    w = 1.0 / x.size
    out = np.zeros(z.shape, dtype=complex)
    xstep = min(x.size, _TRANSFORM_BLOCK)
    zstep = max(1, _TRANSFORM_BLOCK // xstep)
    for i in range(0, z.size, zstep):
        zb = z[i : i + zstep, None]
        for j in range(0, x.size, xstep):
            out[i : i + zstep] += np.sum(w / (x[j : j + xstep] - zb), axis=1)
    return out


def cauchy_sup_distance(nu1, nu2, grid: GridSpec | None = None) -> float:
    """Max over the grid of |f_nu1 - f_nu2|: a lower bound of the sup metric
    over the half plane Im z >= 1."""
    if grid is None:
        grid = GridSpec()
    zs = grid.points()
    return float(np.max(np.abs(cauchy_transform(nu1, zs) - cauchy_transform(nu2, zs))))


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

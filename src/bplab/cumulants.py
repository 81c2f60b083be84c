"""Moment-cumulant transforms on the partition lattices, plus the
classical-to-free relabeling that realizes the Bercovici-Pata map at the
cumulant level.

Both directions are one walk of the triangular recursion over the orders:
O(k^2) Python steps for the classical kind and O(k^3) for the free kind, a
few ms at order 64.  The lattice sums over Part(k) / NC(k) are retained in
the test suite as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MomentSequence",
    "CumulantSequence",
    "moments_from_cumulants",
    "cumulants_from_moments",
    "bp_transport",
]


@dataclass(frozen=True)
class MomentSequence:
    """Moments m_1..m_kmax, indexed from 1."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("need at least one moment")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def kmax(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        """m_k, 1-indexed; m_0 = 1."""
        if k == 0:
            return 1.0
        return self.values[k - 1]


@dataclass(frozen=True)
class CumulantSequence:
    """Cumulants c_1..c_kmax of the given kind ('classical' or 'free')."""

    kind: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("classical", "free"):
            raise ValueError(f"unknown cumulant kind {self.kind!r}")
        if len(self.values) < 1:
            raise ValueError("need at least one cumulant")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def kmax(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> float:
        return self.values[k - 1]

    def __add__(self, other: "CumulantSequence") -> "CumulantSequence":
        if self.kind != other.kind or self.kmax != other.kmax:
            raise ValueError("can only add cumulant sequences of the same shape")
        return CumulantSequence(
            self.kind, tuple(a + b for a, b in zip(self.values, other.values))
        )


def _walk(kind: str, values: tuple[float, ...], inverse: bool) -> tuple[float, ...]:
    """One walk over the orders n = 1..k of m_n = r_n + c_n, where r_n uses
    lower orders only:
      classical  r_n = sum_{j<n} C(n-1, j-1) c_j m_{n-j},
      free       r_n = sum_{s<n} c_s h_s[n-s],  h_s[t] = [z^t] M(z)^s.
    Forward, values are the cumulants and m_n is the order-n sum; inverse,
    they are the moments and c_n = m_n - (the same sum with c_n = 0.0).  The
    sum adds its terms in one fixed order, its c_n term included, and the
    free one starts from its first term, as 0 + -0.0 would be 0.0.  Each
    h_s[t], s + t <= k, is summed once, as soon as m_t is known; h_1 is m
    itself, as a sum would turn an infinite m_t into nan (0.0 * inf)."""
    k = len(values)
    m, c = [1.0], []  # m_0 = 1
    h = [None, m] + [[] for _ in range(k - 1)]  # h[s][t] for s = 1..k
    for n in range(1, k + 1):
        if kind == "free":  # m_{n-1} is known: the column t = n - 1 of h
            for s in range(2, k - n + 2):
                acc = 0.0
                for a, b in zip(h[s - 1], reversed(m)):
                    acc += a * b
                h[s].append(acc)
        c.append(0.0 if inverse else values[n - 1])
        if kind == "classical":
            total = 0.0
            for j in range(1, n + 1):
                total += math.comb(n - 1, j - 1) * c[j - 1] * m[n - j]
        else:
            total = c[0] * m[n - 1]
            for s in range(2, n + 1):
                total += c[s - 1] * h[s][n - s]
        if inverse:
            c[-1] = values[n - 1] - total
        m.append(values[n - 1] if inverse else total)
    return tuple(c) if inverse else tuple(m[1:])


def moments_from_cumulants(c: CumulantSequence) -> MomentSequence:
    """Moments from cumulants: sum over Part(k) (classical) or NC(k) (free)
    of the product of c_{|V|} over blocks, evaluated by triangular recursion
    (_walk)."""
    return MomentSequence(_walk(c.kind, c.values, inverse=False))


def cumulants_from_moments(m: MomentSequence, kind: str) -> CumulantSequence:
    """Exact inverse of moments_from_cumulants for the given kind: the
    order-n moment depends on c_n with unit coefficient (_walk)."""
    if kind not in ("classical", "free"):
        raise ValueError(f"unknown cumulant kind {kind!r}")
    return CumulantSequence(kind, _walk(kind, m.values, inverse=True))


def bp_transport(c: CumulantSequence) -> CumulantSequence:
    """Relabel classical cumulants as free ones: the bijection between
    classical and free infinitely divisible laws preserves the cumulant
    sequence, so the numbers carry over unchanged."""
    if c.kind != "classical":
        raise ValueError("bp_transport expects classical cumulants")
    return CumulantSequence("free", c.values)

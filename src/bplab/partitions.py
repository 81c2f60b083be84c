"""Set partitions, noncrossing partitions and the matching predicates
behind the moment-method error bounds.

Partitions of {1,...,k} are kept in canonical block order: block i starts
at the smallest element not covered by blocks 1..i-1.  The class index of
an element (its restricted-growth code) is what the predicates below
actually consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter

__all__ = [
    "SetPartition",
    "SplitGround",
    "enumerate_partitions",
    "enumerate_noncrossing",
    "is_noncrossing",
    "is_acceptable",
    "is_admissible",
    "catalan_number",
    "ENUMERATION_CAP",
]

# Full enumeration is a test oracle, not a production path; Bell(10) = 115975.
ENUMERATION_CAP = 10


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1,...,k} with blocks ordered by smallest element."""

    ground_size: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        k = self.ground_size
        if k < 1:
            raise ValueError("ground_size must be positive")
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError("blocks are not disjoint")
            seen |= b
        if seen != set(range(1, k + 1)):
            raise ValueError("blocks must cover {1,...,%d}" % k)
        firsts = [min(b) for b in self.blocks]
        if firsts != sorted(firsts):
            raise ValueError("blocks must be ordered by smallest element")

    @classmethod
    def from_blocks(cls, blocks) -> "SetPartition":
        """Build from any iterable of blocks, normalizing the block order."""
        bs = sorted((frozenset(b) for b in blocks), key=min)
        k = max((max(b) for b in bs), default=0)
        return cls(k, tuple(bs))

    @classmethod
    def from_rgs(cls, rgs) -> "SetPartition":
        """Build from a restricted-growth string (class index per element)."""
        nblocks = max(rgs) + 1
        blocks = [set() for _ in range(nblocks)]
        for i, c in enumerate(rgs, start=1):
            blocks[c].add(i)
        return cls(len(rgs), tuple(frozenset(b) for b in blocks))

    def class_index(self) -> tuple[int, ...]:
        """Restricted-growth string: 0-based block index of each element."""
        idx = [0] * self.ground_size
        for i, b in enumerate(self.blocks):
            for r in b:
                idx[r - 1] = i
        return tuple(idx)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)


@dataclass(frozen=True)
class SplitGround:
    """Ground {1,...,2k} split in halves {1..k} and {k+1..2k}, each with its
    own cyclic successor."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")

    @property
    def size(self) -> int:
        return 2 * self.k

    def successor(self, r: int) -> int:
        k = self.k
        if r == k:
            return 1
        if r == 2 * k:
            return k + 1
        return r + 1


def enumerate_partitions(k: int) -> list[SetPartition]:
    """All Bell(k) partitions of {1,...,k}, in restricted-growth order."""
    if k < 1 or k > ENUMERATION_CAP:
        raise ValueError(f"k must be in 1..{ENUMERATION_CAP}, got {k}")
    out: list[SetPartition] = []
    rgs = [0] * k

    def rec(i: int, nclasses: int):
        if i == k:
            out.append(SetPartition.from_rgs(rgs))
            return
        for c in range(nclasses + 1):
            rgs[i] = c
            rec(i + 1, max(nclasses, c + 1))

    rec(0, 0)
    return out


def is_noncrossing(p: SetPartition) -> bool:
    """True iff no x < y < z < t has x,z in one block and y,t in another."""
    cls = p.class_index()
    k = p.ground_size
    for x in range(k):
        for y in range(x + 1, k):
            if cls[y] == cls[x]:
                continue
            for z in range(y + 1, k):
                if cls[z] != cls[x]:
                    continue
                for t in range(z + 1, k):
                    if cls[t] == cls[y]:
                        return False
    return True


def enumerate_noncrossing(k: int) -> list[SetPartition]:
    """The Catalan(k) noncrossing partitions of {1,...,k}."""
    return [p for p in enumerate_partitions(k) if is_noncrossing(p)]


def _matches_per_block(p: SetPartition, tau: SetPartition, successor) -> bool:
    cls = tau.class_index()
    for block in p.blocks:
        own = Counter(cls[r - 1] for r in block)
        succ = Counter(cls[successor(r) - 1] for r in block)
        if own != succ:
            return False
    return True


def is_acceptable(p: SetPartition, tau: SetPartition) -> bool:
    """Whether tau admits, for every block V of p, a bijection phi of V with
    tau(r) = tau(phi(r) + 1), successor taken cyclically on {1,...,k}.

    The bijection only constrains tau-class membership, so it exists iff the
    multiset of tau-classes of V equals that of the successors of V.
    """
    if p.ground_size != tau.ground_size:
        raise ValueError("partitions must share a ground set")
    k = p.ground_size
    return _matches_per_block(p, tau, lambda r: 1 if r == k else r + 1)


def is_admissible(ground: SplitGround, p: SetPartition, tau: SetPartition) -> bool:
    """Same matching condition as is_acceptable, but with the per-half cyclic
    successor of the split ground."""
    if p.ground_size != ground.size or tau.ground_size != ground.size:
        raise ValueError("partitions must live on the split ground")
    return _matches_per_block(p, tau, ground.successor)


def links_halves(ground: SplitGround, p: SetPartition) -> bool:
    """Whether some block of p meets both halves of the split ground."""
    k = ground.k
    return any(min(b) <= k < max(b) for b in p.blocks)


def catalan_number(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)

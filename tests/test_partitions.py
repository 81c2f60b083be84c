import math

import pytest
from hypothesis import given, strategies as st

from bplab.partitions import (
    ENUMERATION_CAP,
    SetPartition,
    SplitGround,
    catalan_number,
    enumerate_noncrossing,
    enumerate_partitions,
    is_acceptable,
    is_admissible,
    is_noncrossing,
    links_halves,
)
from oracles import bell_number, falling_factorial, interval_block


def P(*blocks):
    return SetPartition.from_blocks(blocks)


# ---------------------------------------------------------------------------
# construction and encoding


def test_validation_rejects_bad_blocks():
    with pytest.raises(ValueError):
        SetPartition(3, (frozenset({1, 2}),))  # does not cover
    with pytest.raises(ValueError):
        SetPartition(2, (frozenset({1, 2}), frozenset({2})))  # overlap
    with pytest.raises(ValueError):
        SetPartition(2, (frozenset({2}), frozenset({1})))  # wrong order
    with pytest.raises(ValueError):
        SetPartition(0, ())


def test_from_blocks_normalizes_order():
    p = P({3, 4}, {1, 2})
    assert [min(b) for b in p.blocks] == [1, 3]
    assert p.ground_size == 4


@given(st.integers(1, 7), st.data())
def test_rgs_round_trip(k, data):
    rgs = [0]
    for _ in range(k - 1):
        rgs.append(data.draw(st.integers(0, max(rgs) + 1)))
    p = SetPartition.from_rgs(rgs)
    assert list(p.class_index()) == rgs
    assert SetPartition.from_rgs(p.class_index()) == p


# ---------------------------------------------------------------------------
# enumeration counts against independent recurrences


def independent_bell(n):
    # B(n+1) = sum_k C(n, k) B(k), B(0) = 1
    B = [1]
    for m in range(n):
        B.append(sum(math.comb(m, k) * B[k] for k in range(m + 1)))
    return B[n]


def independent_catalan(n):
    # C(n+1) = sum C(i) C(n-i), C(0) = 1
    C = [1]
    for m in range(n):
        C.append(sum(C[i] * C[m - i] for i in range(m + 1)))
    return C[n]


@pytest.mark.parametrize("k", range(1, 9))
def test_counts_match_recurrences(k):
    parts = enumerate_partitions(k)
    assert len(parts) == bell_number(k) == independent_bell(k)
    assert len(set(parts)) == len(parts)
    nc = enumerate_noncrossing(k)
    assert len(nc) == catalan_number(k) == independent_catalan(k)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_partitions(ENUMERATION_CAP + 1)
    with pytest.raises(ValueError):
        enumerate_partitions(0)


# ---------------------------------------------------------------------------
# noncrossing predicate and interval peeling


def test_noncrossing_examples():
    assert not is_noncrossing(P({1, 3}, {2, 4}))
    assert is_noncrossing(P({1}, {2}, {3}))
    assert is_noncrossing(P({1, 4}, {2, 3}))
    assert enumerate_noncrossing(3) == enumerate_partitions(3)


def peels_to_empty(p):
    """Oracle: a partition is noncrossing iff blocks that are contiguous
    within the remaining elements can be removed one at a time until nothing
    is left."""
    blocks = [sorted(b) for b in p.blocks]
    while blocks:
        remaining = sorted(x for b in blocks for x in b)
        hit = None
        for b in blocks:
            first = remaining.index(b[0])
            if remaining[first:first + len(b)] == b:
                hit = b
                break
        if hit is None:
            return False
        blocks.remove(hit)
    return True


@pytest.mark.parametrize("k", range(1, 8))
def test_noncrossing_agrees_with_peeling(k):
    for p in enumerate_partitions(k):
        assert is_noncrossing(p) == peels_to_empty(p)


def test_interval_block_examples():
    assert interval_block(P({1, 2}, {3})) == frozenset({1, 2})
    assert interval_block(P({1, 4}, {2, 3})) == frozenset({2, 3})
    assert interval_block(P({1, 3}, {2, 4})) is None


@pytest.mark.parametrize("k", range(1, 8))
def test_peeling_terminates_in_block_count_steps(k):
    # repeatedly relabel the remaining elements to 1..m and remove the block
    # interval_block picks; for noncrossing input this never gets stuck
    for p in enumerate_noncrossing(k):
        blocks = [sorted(b) for b in p.blocks]
        steps = 0
        while blocks:
            labels = sorted(x for b in blocks for x in b)
            relabeled = SetPartition.from_blocks(
                [{labels.index(x) + 1 for x in b} for b in blocks]
            )
            iv = interval_block(relabeled)
            assert iv is not None
            original = sorted(labels[r - 1] for r in iv)
            blocks.remove(original)
            steps += 1
        assert steps == len(p.blocks)


# ---------------------------------------------------------------------------
# acceptability


def test_acceptable_set_of_the_crossing_pair():
    p = P({1, 3}, {2, 4})
    good = [tau for tau in enumerate_partitions(4) if is_acceptable(p, tau)]
    expected = {P({1, 2, 3, 4}), P({1, 2}, {3, 4}), P({1, 4}, {2, 3})}
    assert set(good) == expected


def test_acceptable_rejects_singletons_for_crossing_pair():
    assert not is_acceptable(P({1, 3}, {2, 4}), P({1}, {2}, {3}, {4}))


@pytest.mark.parametrize("k", range(1, 7))
def test_one_block_partition_accepts_everything(k):
    one = SetPartition.from_rgs([0] * k)
    for tau in enumerate_partitions(k):
        assert is_acceptable(one, tau)


def test_acceptable_ground_mismatch():
    with pytest.raises(ValueError):
        is_acceptable(P({1, 2}), P({1}, {2}, {3}))


@pytest.mark.parametrize("k", range(2, 7))
def test_crossing_acceptable_block_count_bound(k):
    # for crossing partitions the acceptable pairs satisfy |p| + |tau| <= k
    for p in enumerate_partitions(k):
        if is_noncrossing(p):
            continue
        for tau in enumerate_partitions(k):
            if is_acceptable(p, tau):
                assert len(p) + len(tau) <= k


@pytest.mark.parametrize("k", range(1, 7))
def test_acceptable_block_count_bound_general(k):
    # without the crossing restriction the sharp bound is k + 1
    worst = 0
    for p in enumerate_partitions(k):
        for tau in enumerate_partitions(k):
            if is_acceptable(p, tau):
                worst = max(worst, len(p) + len(tau))
    assert worst == k + 1


# ---------------------------------------------------------------------------
# split ground and admissibility


def test_split_ground_successor():
    g = SplitGround(3)
    assert [g.successor(r) for r in range(1, 7)] == [2, 3, 1, 5, 6, 4]
    with pytest.raises(ValueError):
        SplitGround(0)


def test_admissible_examples():
    g = SplitGround(1)
    assert is_admissible(g, P({1, 2}), P({1, 2}))
    assert is_admissible(g, P({1, 2}), P({1}, {2}))
    g2 = SplitGround(2)
    assert not is_admissible(
        g2, P({1, 3}, {2}, {4}), P({1}, {2, 3}, {4})
    )


def test_admissible_ground_mismatch():
    with pytest.raises(ValueError):
        is_admissible(SplitGround(2), P({1, 2}), P({1, 2, 3, 4}))


def test_links_halves():
    g = SplitGround(2)
    assert links_halves(g, P({1, 3}, {2}, {4}))
    assert not links_halves(g, P({1, 2}, {3, 4}))


@pytest.mark.parametrize("k", (1, 2, 3))
def test_admissible_block_count_bound(k):
    # Sharp bound for half-linking partitions on ground 2k: |p| + |tau| can
    # reach 2k + 1 (e.g. one-block p with singleton tau) but never exceeds it.
    g = SplitGround(k)
    worst = 0
    for p in enumerate_partitions(2 * k):
        if not links_halves(g, p):
            continue
        for tau in enumerate_partitions(2 * k):
            if is_admissible(g, p, tau):
                worst = max(worst, len(p) + len(tau))
    assert worst == 2 * k + 1


# ---------------------------------------------------------------------------
# counting helpers


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(7, 0) == 1
    assert falling_factorial(3, 3) == 6
    assert falling_factorial(2, 5) == 0
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)

"""Tests for subsystem selection and capacity-gap computation."""

from functools import lru_cache
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import subsystems
from repro.core.subsystems import (
    Chunk,
    Subsystem,
    _admissible_orders,
    best_chunk_decomposition,
    capacity_gap,
    select_combo_subsystems,
    select_subsystem,
)
from repro.designs.catalog import Existence, min_lambda
from repro.util.combinatorics import binom

# (r, t, tier, max_mu) keys as fig5 (mu = 1) and fig6 (mu > 1) use them.
ORDER_KEYS = [
    (3, 2, Existence.KNOWN, 1),
    (4, 2, Existence.KNOWN, 1),
    (4, 3, Existence.KNOWN, 1),
    (5, 2, Existence.KNOWN, 1),
    (5, 3, Existence.KNOWN, 1),
    (5, 4, Existence.CONSTRUCTIBLE, 1),
    (5, 3, Existence.DIVISIBILITY, 5),
    (5, 4, Existence.DIVISIBILITY, 10),
]


@lru_cache(maxsize=None)
def _scan_orders(r, t, max_v, tier, max_mu):
    """Fresh descending scan of every order v <= max_v, no shared state."""
    pairs = []
    for v in range(max_v, r - 1, -1):
        mu = min_lambda(v, r, t, max_mu, tier=tier)
        if mu is not None:
            pairs.append((v, mu))
    return tuple(pairs)


class TestSubsystem:
    def test_unit_capacity_single_chunk(self):
        sub = Subsystem(r=3, x=1, chunks=(Chunk(69, 1),), tier=Existence.KNOWN)
        assert sub.unit_capacity == 782
        assert sub.mu == 1
        assert sub.capacity(2) == 1564
        assert sub.minimal_lambda(783) == 2

    def test_unit_capacity_multi_chunk(self):
        sub = Subsystem(
            r=3, x=1, chunks=(Chunk(9, 1), Chunk(7, 1)), tier=Existence.KNOWN
        )
        assert sub.total_nodes == 16
        assert sub.unit_capacity == 12 + 7

    def test_mu_lcm(self):
        sub = Subsystem(
            r=3, x=1, chunks=(Chunk(9, 2), Chunk(13, 3)), tier=Existence.KNOWN
        )
        assert sub.mu == 6

    def test_integrality_enforced(self):
        with pytest.raises(ValueError):
            Subsystem(r=3, x=1, chunks=(Chunk(8, 1),), tier=Existence.KNOWN)

    def test_capacity_requires_mu_multiple(self):
        sub = Subsystem(r=3, x=1, chunks=(Chunk(9, 2),), tier=Existence.KNOWN)
        with pytest.raises(ValueError):
            sub.capacity(3)

    def test_needs_chunks(self):
        with pytest.raises(ValueError):
            Subsystem(r=3, x=1, chunks=(), tier=Existence.KNOWN)


class TestSelectSubsystem:
    def test_trivial_stratum(self):
        sub = select_subsystem(71, 3, 2)
        assert sub.chunks == (Chunk(71, 1),)
        assert sub.unit_capacity == binom(71, 3)

    def test_partition_stratum(self):
        sub = select_subsystem(71, 3, 0)
        assert sub.chunks == (Chunk(69, 1),)  # 3 * floor(71/3)
        assert sub.unit_capacity == 23

    def test_intermediate_stratum_picks_largest(self):
        sub = select_subsystem(71, 3, 1, tier=Existence.KNOWN)
        assert sub.chunks == (Chunk(69, 1),)

    def test_none_when_nothing_fits(self):
        assert select_subsystem(4, 5, 1) is None
        assert select_subsystem(10, 5, 3, tier=Existence.KNOWN) is None

    def test_out_of_range_x(self):
        assert select_subsystem(10, 3, 3) is None

    def test_combo_selection_all_strata(self):
        subs = select_combo_subsystems(71, 5, 3, tier=Existence.KNOWN)
        assert len(subs) == 3
        assert subs[0].chunks[0].nx == 70  # 5 * 14
        assert subs[1].chunks[0].nx == 65  # unital H(4)
        assert subs[2].chunks[0].nx == 65  # S(3,5,65)

    def test_combo_validation(self):
        with pytest.raises(ValueError):
            select_combo_subsystems(10, 3, 4)


class TestChunkDecomposition:
    def test_single_chunk_when_exact(self):
        chunks = best_chunk_decomposition(69, 3, 2, max_chunks=3)
        assert chunks == [Chunk(69, 1)]

    def test_multi_chunk_beats_single_when_gappy(self):
        # For n = 10, r = 3, t = 2: orders are 3, 7, 9; two chunks (7 + 3)
        # beat the single 9 when capacity counts C(v,2).
        single = best_chunk_decomposition(10, 3, 2, max_chunks=1)
        multi = best_chunk_decomposition(10, 3, 2, max_chunks=2)
        cap = lambda chunks: sum(binom(c.nx, 2) for c in chunks)
        assert cap(multi) >= cap(single)

    def test_respects_budget(self):
        chunks = best_chunk_decomposition(100, 3, 2, max_chunks=3)
        assert sum(c.nx for c in chunks) <= 100

    def test_empty_when_no_orders(self):
        assert best_chunk_decomposition(10, 5, 4, tier=Existence.KNOWN) == []


class TestCapacityGap:
    def test_gap_zero_for_trivial(self):
        assert capacity_gap(100, 3, 2) == 0.0

    def test_gap_zero_at_exact_orders(self):
        assert capacity_gap(69, 3, 1) == pytest.approx(
            1 - binom(69, 2) / binom(69, 2)
        )

    def test_gap_positive_when_imperfect(self):
        gap = capacity_gap(70, 3, 1, max_chunks=1)
        assert gap == pytest.approx(1 - binom(69, 2) / binom(70, 2))

    def test_chunks_shrink_gap(self):
        one = capacity_gap(71, 5, 1, max_chunks=1)
        three = capacity_gap(71, 5, 1, max_chunks=3)
        assert three <= one

    def test_mu_relaxation_shrinks_gap(self):
        strict = capacity_gap(50, 5, 3, max_chunks=3, tier=Existence.KNOWN)
        relaxed = capacity_gap(
            50, 5, 3, max_chunks=3, max_mu=10, tier=Existence.DIVISIBILITY
        )
        assert relaxed <= strict

    def test_partition_gap(self):
        assert capacity_gap(71, 3, 0) == pytest.approx(1 - 69 / 71)
        assert capacity_gap(72, 3, 0) == 0.0


class TestOrderCache:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(ORDER_KEYS),
        requests=st.lists(st.integers(0, 160), min_size=1, max_size=12),
    )
    def test_interleaved_requests_match_fresh_scan(self, key, requests):
        subsystems._ORDER_TABLES.pop(key, None)
        r, t, tier, max_mu = key
        for max_v in requests:
            assert _admissible_orders(r, t, max_v, tier, max_mu) == _scan_orders(
                r, t, max_v, tier, max_mu
            )


def _brute_decomposition(n, r, t, tier, max_mu, max_chunks):
    """The best <= max_chunks multiset of orders fitting in n, by enumeration.

    Best is the largest ``sum C(v, t)``; among equal values the search
    keeps the lexicographically largest list of descending chunk sizes.
    """
    orders = _scan_orders(r, t, n, tier, max_mu)
    candidates = [
        combo
        for size in range(max_chunks + 1)
        for combo in combinations_with_replacement(orders, size)
        if sum(v for v, _ in combo) <= n
    ]
    best = max(
        candidates,
        key=lambda combo: (sum(binom(v, t) for v, _ in combo), [v for v, _ in combo]),
    )
    return [Chunk(nx=v, mu=mu) for v, mu in best]


class TestChunkDecompositionExactness:
    @settings(max_examples=60, deadline=None)
    @given(
        key=st.sampled_from(ORDER_KEYS),
        n=st.integers(1, 70),
        max_chunks=st.integers(1, 3),
    )
    def test_matches_brute_force(self, key, n, max_chunks):
        r, t, tier, max_mu = key
        chunks = best_chunk_decomposition(
            n, r, t, tier=tier, max_mu=max_mu, max_chunks=max_chunks
        )
        expected = _brute_decomposition(n, r, t, tier, max_mu, max_chunks)
        assert chunks == expected
        assert sum(binom(c.nx, t) for c in chunks) == sum(
            binom(c.nx, t) for c in expected
        )

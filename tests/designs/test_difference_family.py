"""Tests for cyclic difference families and their developed designs."""

import pytest

from repro.designs.blocks import DesignError
from repro.designs.catalog import _DIFFERENCE_FAMILY_LIMIT
from repro.designs.difference_family import (
    _DEFAULT_BUDGET,
    TABULATED_FAMILIES,
    cyclic_2design,
    develop_difference_family,
    difference_family_admissible,
    difference_family_constructible,
    find_difference_family,
)

# Every pair the catalog may probe: the scope the table must cover.
CATALOG_PAIRS = [
    (v, r)
    for r in (4, 5)
    for v in range(r + 1, _DIFFERENCE_FAMILY_LIMIT + 1)
    if difference_family_admissible(v, r)
]


class TestAdmissibility:
    def test_divisibility_rule(self):
        assert difference_family_admissible(13, 4)  # 12 | 12
        assert difference_family_admissible(25, 4)  # 12 | 24
        assert not difference_family_admissible(16, 4)  # 12 does not divide 15
        assert difference_family_admissible(41, 5)  # 20 | 40
        assert not difference_family_admissible(26, 5)
        assert not difference_family_admissible(4, 5)  # v <= r


class TestSearch:
    @pytest.mark.parametrize(
        "v,r,expected_blocks",
        [(7, 3, 1), (13, 4, 1), (21, 5, 1), (37, 4, 3), (41, 5, 2), (49, 4, 4)],
    )
    def test_known_families_found(self, v, r, expected_blocks):
        family = find_difference_family(v, r)
        assert family is not None
        assert len(family) == expected_blocks
        # Differences cover Z_v \ {0} exactly once.
        seen = set()
        for block in family:
            for a in block:
                for b in block:
                    if a != b:
                        d = (a - b) % v
                        assert d not in seen
                        seen.add(d)
        assert seen == set(range(1, v))

    def test_inadmissible_returns_none(self):
        assert find_difference_family(16, 4) is None

    def test_no_family_within_normalization(self):
        # v = 25 is composite; the unit-rooted search finds nothing (and no
        # cyclic 2-(25,4,1) design exists over Z_25 in any case).
        assert find_difference_family(25, 4) is None


class TestDevelopment:
    @pytest.mark.parametrize("v,r", [(7, 3), (13, 4), (37, 4), (41, 5)])
    def test_developed_design_is_2_design(self, v, r):
        design = cyclic_2design(v, r)
        assert design.v == v
        assert design.block_size == r
        assert design.num_blocks == v * (v - 1) // (r * (r - 1))
        assert design.is_design(2, 1)

    def test_cyclic_invariance(self):
        design = cyclic_2design(13, 4)
        blocks = set(design.blocks)
        shifted = {
            tuple(sorted((p + 1) % 13 for p in block)) for block in blocks
        }
        assert shifted == blocks

    def test_develop_rejects_empty(self):
        with pytest.raises(DesignError):
            develop_difference_family(7, ())

    def test_unfindable_raises(self):
        with pytest.raises(DesignError):
            cyclic_2design(25, 4)

    def test_constructible_probe(self):
        assert difference_family_constructible(37, 4)
        assert not difference_family_constructible(25, 4)


class TestCatalogIntegration:
    def test_new_constructible_orders(self):
        from repro.designs.catalog import Existence, build, existence

        for v, r in [(37, 4), (49, 4), (61, 4), (41, 5), (61, 5)]:
            assert existence(v, r, 2) == Existence.CONSTRUCTIBLE, (v, r)
            design = build(v, r, 2)
            assert design.is_design(2, 1)

    def test_beyond_probe_limit_stays_known(self):
        from repro.designs.catalog import Existence, existence

        # 73 = 1 mod 12 exists (Hanani) but the probe limit excludes it.
        assert existence(73, 4, 2) == Existence.KNOWN


class TestTable:
    """The checked-in families against the search they were taken from."""

    def test_scope(self):
        assert CATALOG_PAIRS == [
            (13, 4), (25, 4), (37, 4), (49, 4), (61, 4),
            (21, 5), (41, 5), (61, 5),
        ]
        assert set(TABULATED_FAMILIES) < set(CATALOG_PAIRS)

    @pytest.mark.parametrize("v,r", CATALOG_PAIRS)
    def test_table_equals_search(self, v, r):
        # An explicit budget bypasses the table and runs the search.
        searched = find_difference_family(v, r, max_nodes=_DEFAULT_BUDGET)
        assert TABULATED_FAMILIES.get((v, r)) == searched
        assert find_difference_family(v, r) == searched

    def test_absent_pair_has_no_family_in_search(self):
        assert (25, 4) not in TABULATED_FAMILIES
        assert find_difference_family(25, 4, max_nodes=_DEFAULT_BUDGET) is None
        assert find_difference_family(25, 4) is None

    @pytest.mark.parametrize("v,r", sorted(TABULATED_FAMILIES))
    def test_tabulated_family_develops_into_design(self, v, r):
        design = develop_difference_family(v, TABULATED_FAMILIES[(v, r)])
        assert design.block_size == r
        assert design.is_design(2, 1)
        assert cyclic_2design(v, r).blocks == design.blocks

"""Property tests: every gain backing agrees with the full-scan oracle.

The gain kernel's backings (native / numpy / bitset / python) and the
full-scan :class:`PythonKernel` implement one contract; these tests drive
them with hypothesis-generated random placements and assert they agree
with each other and with the reference ``damage()`` function on damage
evaluation, ``best_addition`` and branch-and-bound optimistic bounds.
``PythonKernel`` shares no code with the incremental gain tables, so it
serves as the oracle.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.adversary import damage
from repro.core.kernels import (
    GAIN_BACKINGS,
    Incidence,
    PythonKernel,
    make_kernel,
    numpy_available,
    resolve_gain_backing,
)
from repro.core.random_placement import RandomStrategy


def available_gain_backings():
    return [
        backing
        for backing in GAIN_BACKINGS
        if (backing != "numpy" or numpy_available())
        and (backing != "native" or native.available())
    ]


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


def kernels_for(placement, s):
    """The full-scan oracle first, then one gain kernel per backing."""
    incidence = Incidence(placement)
    return [PythonKernel(incidence, s)] + [
        make_kernel(placement, s, incidence=incidence, gain_backing=backing)
        for backing in available_gain_backings()
    ]


def label(kernel):
    return "oracle" if isinstance(kernel, PythonKernel) else kernel.backing


placements = st.builds(
    random_placement,
    n=st.integers(5, 14),
    r=st.integers(2, 4),
    b=st.integers(1, 40),
    seed=st.integers(0, 10_000),
).filter(lambda p: p.r <= p.n)


class TestDamageAgreement:
    @settings(max_examples=40, deadline=None)
    @given(placements, st.data())
    def test_damage_matches_legacy_oracle(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        k = data.draw(st.integers(1, placement.n - 1))
        nodes = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:k])
        )
        expected = damage(placement, nodes, s)
        for kernel in kernels_for(placement, s):
            assert kernel.damage_for(nodes) == expected, label(kernel)

    @settings(max_examples=25, deadline=None)
    @given(placements, st.data())
    def test_incremental_add_remove_roundtrip(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        moves = data.draw(
            st.lists(st.integers(0, placement.n - 1), min_size=1, max_size=8)
        )
        for kernel in kernels_for(placement, s):
            hits = kernel.empty_hits()
            active = []
            for node in moves:
                if node in active:
                    hits = kernel.remove_node(hits, node)
                    active.remove(node)
                else:
                    hits = kernel.add_node(hits, node)
                    active.append(node)
                assert kernel.damage_of(hits) == damage(placement, active, s), (
                    label(kernel)
                )


class TestBestAddition:
    @settings(max_examples=30, deadline=None)
    @given(placements, st.data())
    def test_backends_agree_exactly(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        base_size = data.draw(st.integers(0, min(4, placement.n - 2)))
        base = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:base_size])
        )
        banned = base
        outcomes = []
        for kernel in kernels_for(placement, s):
            hits = kernel.hits_for(base)
            outcomes.append((label(kernel), kernel.best_addition(hits, banned)))
        reference = outcomes[0][1]
        for name, outcome in outcomes[1:]:
            assert outcome == reference, (name, outcomes)

    @settings(max_examples=30, deadline=None)
    @given(placements, st.data())
    def test_best_addition_is_truly_best(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        base_size = data.draw(st.integers(0, min(3, placement.n - 2)))
        base = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:base_size])
        )
        kernel = PythonKernel(Incidence(placement), s)
        hits = kernel.hits_for(base)
        node, best = kernel.best_addition(hits, banned=base)
        assert node not in base
        assert best == damage(placement, base + [node], s)
        for candidate in range(placement.n):
            if candidate in base:
                continue
            assert damage(placement, base + [candidate], s) <= best


class TestOptimisticBound:
    @settings(max_examples=25, deadline=None)
    @given(placements, st.data())
    def test_bound_sound_and_backend_independent(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        n = placement.n
        start = data.draw(st.integers(0, n))
        slots = data.draw(st.integers(1, 3))
        base_size = data.draw(st.integers(0, 2))
        base = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:base_size])
        )
        bounds = {}
        for kernel in kernels_for(placement, s):
            hits = kernel.hits_for(base)
            bounds[label(kernel)] = kernel.optimistic_bound(hits, start, slots)
        assert len(set(bounds.values())) == 1, bounds
        # Soundness: no completion from nodes >= start can beat the bound.
        completions = [
            nodes
            for count in range(min(slots, n - start) + 1)
            for nodes in itertools.combinations(range(start, n), count)
        ]
        best_completion = max(
            damage(placement, list(base) + list(extra), s) for extra in completions
        )
        assert bounds["oracle"] >= best_completion


class TestGainBackings:
    """Every gain backing agrees bit-for-bit with the full-scan oracle
    under interleaved add/remove/swap sequences — same damages, same
    best_addition outcomes (tie-breaks included), same bounds, and bulk
    rebuilds indistinguishable from replayed incremental updates."""

    @staticmethod
    def _gain_kernels(placement, s, incidence):
        return {
            backing: make_kernel(
                placement, s, incidence=incidence, gain_backing=backing
            )
            for backing in available_gain_backings()
        }

    @settings(max_examples=25, deadline=None)
    @given(placements, st.data())
    def test_interleaved_sequences_bit_for_bit(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        moves = data.draw(
            st.lists(st.integers(0, placement.n - 1), min_size=1, max_size=10)
        )
        incidence = Incidence(placement)
        oracle = PythonKernel(incidence, s)
        kernels = self._gain_kernels(placement, s, incidence)
        states = {name: kernel.empty_hits() for name, kernel in kernels.items()}
        oracle_hits = oracle.empty_hits()
        active = []
        for node in moves:
            if node in active:
                active.remove(node)
                oracle_hits = oracle.remove_node(oracle_hits, node)
                for name, kernel in kernels.items():
                    states[name] = kernel.remove_node(states[name], node)
            else:
                active.append(node)
                oracle_hits = oracle.add_node(oracle_hits, node)
                for name, kernel in kernels.items():
                    states[name] = kernel.add_node(states[name], node)
            expected_damage = oracle.damage_of(oracle_hits)
            assert expected_damage == damage(placement, active, s)
            expected_best = oracle.best_addition(oracle_hits, active)
            for name, kernel in kernels.items():
                assert kernel.damage_of(states[name]) == expected_damage, name
                assert kernel.best_addition(states[name], active) == expected_best, name
        # Bulk rebuilds must be indistinguishable from the incremental path.
        expected_best = oracle.best_addition(oracle_hits, active)
        for name, kernel in kernels.items():
            bulk = kernel.hits_for(active)
            assert kernel.damage_of(bulk) == oracle.damage_of(oracle_hits), name
            assert kernel.best_addition(bulk, active) == expected_best, name

    @settings(max_examples=20, deadline=None)
    @given(placements, st.data())
    def test_swap_positions_match_full_scan(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        k = data.draw(st.integers(1, min(4, placement.n - 1)))
        seed_nodes = data.draw(
            st.permutations(range(placement.n)).map(lambda p: list(p)[:k])
        )
        incidence = Incidence(placement)
        oracle = PythonKernel(incidence, s)
        oracle_hits = oracle.hits_for(seed_nodes)
        current = oracle.damage_of(oracle_hits)
        banned = set(seed_nodes) - {seed_nodes[0]}
        _, expected_swap, expected_damage = oracle.try_swap(
            oracle_hits, seed_nodes[0], banned, current
        )
        expected_pass_nodes = list(seed_nodes)
        pass_hits = oracle.hits_for(seed_nodes)
        _, expected_pass_damage, expected_improved = oracle.polish_pass(
            pass_hits, expected_pass_nodes, current
        )
        for backing, kernel in self._gain_kernels(placement, s, incidence).items():
            hits = kernel.hits_for(seed_nodes)
            _, swapped, dmg = kernel.try_swap(
                hits, seed_nodes[0], set(seed_nodes) - {seed_nodes[0]}, current
            )
            assert (swapped, dmg) == (expected_swap, expected_damage), backing
            nodes = list(seed_nodes)
            hits = kernel.hits_for(seed_nodes)
            _, pass_damage, improved = kernel.polish_pass(hits, nodes, current)
            assert nodes == expected_pass_nodes, backing
            assert (pass_damage, improved) == (
                expected_pass_damage, expected_improved,
            ), backing

    @settings(max_examples=15, deadline=None)
    @given(placements, st.data())
    def test_refined_bound_sound_and_at_most_optimistic(self, placement, data):
        s = data.draw(st.integers(1, placement.r))
        n = placement.n
        start = data.draw(st.integers(0, n))
        slots = data.draw(st.integers(1, 3))
        base_size = data.draw(st.integers(0, 2))
        base = data.draw(
            st.permutations(range(n)).map(lambda p: list(p)[:base_size])
        )
        best_completion = max(
            damage(placement, list(base) + list(extra), s)
            for count in range(min(slots, n - start) + 1)
            for extra in itertools.combinations(range(start, n), count)
        )
        for kernel in kernels_for(placement, s):
            name = label(kernel)
            hits = kernel.hits_for(base)
            refined = kernel.refined_bound(hits, start, slots)
            assert refined <= kernel.optimistic_bound(hits, start, slots), name
            assert refined >= best_completion, (name, refined, best_completion)

    def test_backing_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_GAIN_BACKING", "python")
        assert resolve_gain_backing() == "python"
        placement = random_placement(8, 3, 12, 0)
        assert make_kernel(placement, 2).backing == "python"
        monkeypatch.setenv("REPRO_GAIN_BACKING", "warp-drive")
        with pytest.raises(ValueError):
            resolve_gain_backing()

    def test_explicit_backing_argument_wins(self):
        placement = random_placement(8, 3, 12, 0)
        for backing in available_gain_backings():
            kernel = make_kernel(placement, 2, gain_backing=backing)
            assert kernel.name == "gain"
            assert kernel.backing == backing

    def test_auto_backing_is_dependency_free(self):
        # Whatever auto resolves to must be importable here and now.
        assert resolve_gain_backing() in GAIN_BACKINGS

    def test_unavailable_backing_rejected(self):
        if not native.available():  # pragma: no cover - compiler-less envs
            with pytest.raises(ValueError):
                resolve_gain_backing("native")
        if not numpy_available():  # pragma: no cover - no-numpy CI leg
            with pytest.raises(ValueError):
                resolve_gain_backing("numpy")


class TestSelection:
    def test_unknown_backend_rejected(self):
        placement = random_placement(8, 3, 12, 0)
        with pytest.raises(ValueError):
            make_kernel(placement, 2, gain_backing="cuda")
        with pytest.raises(ValueError):
            resolve_gain_backing("fortran")

    def test_auto_is_dependency_free(self, monkeypatch):
        # Whatever auto resolves to must be constructible here and now.
        monkeypatch.delenv("REPRO_GAIN_BACKING", raising=False)
        placement = random_placement(6, 2, 6, 1)
        kernel = make_kernel(placement, 1)
        assert kernel.backing in GAIN_BACKINGS
        if not numpy_available():
            assert kernel.backing != "numpy"  # pragma: no cover
        assert kernel.damage_for([0]) == damage(placement, [0], 1)

    def test_s_validated(self):
        placement = random_placement(8, 3, 12, 2)
        with pytest.raises(ValueError):
            make_kernel(placement, 0)
        with pytest.raises(ValueError):
            make_kernel(placement, placement.r + 1)
        with pytest.raises(ValueError):
            PythonKernel(Incidence(placement), 0)

    def test_incidence_shared_across_thresholds(self):
        placement = random_placement(8, 3, 12, 3)
        incidence = Incidence(placement)
        k1 = make_kernel(placement, 1, incidence=incidence, gain_backing="bitset")
        k2 = make_kernel(placement, 2, incidence=incidence, gain_backing="bitset")
        assert k1.incidence is k2.incidence
        assert k1.node_objects is k2.node_objects
        other = random_placement(8, 3, 12, 4)
        with pytest.raises(ValueError):
            make_kernel(other, 1, incidence=incidence)

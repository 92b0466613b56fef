"""Thread-count invariance for the native library's lane threads.

The native gain library starts threads in exactly one place: a
``polish_chains`` batch runs one short-lived thread per lane. Results
must be *bit-for-bit* identical at any thread count. These tests pin
that contract on hypothesis-generated placements:

* full :class:`~repro.core.adversary.AttackResult` equality (nodes,
  damage, exactness *and* evaluation counts) at 1, 2 and 4 lanes for
  every available gain backing — the non-native backings run their
  chains in sequence, which is itself part of the contract (the lane
  count must never change results anywhere);
* incremental add/remove state interleaved with lane-threaded chain
  batches, compared byte-for-byte: lane threads work on private
  replicas and never perturb the kernel's live state.

Lane budgets, churn and fan-out splitting live in ``test_lanes.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.adversary import best_attack
from repro.core.kernels import GAIN_BACKINGS, make_kernel, numpy_available
from repro.core.random_placement import RandomStrategy

THREAD_COUNTS = (1, 2, 4)


def available_gain_backings():
    return [
        backing
        for backing in GAIN_BACKINGS
        if (backing != "numpy" or numpy_available())
        and (backing != "native" or native.available())
    ]


def random_placement(n, r, b, seed):
    return RandomStrategy(n, r).place(b, random.Random(seed))


placements = st.builds(
    random_placement,
    n=st.integers(5, 14),
    r=st.integers(2, 4),
    b=st.integers(1, 40),
    seed=st.integers(0, 10_000),
).filter(lambda p: p.r <= p.n)


class TestThreadCountInvariance:
    @settings(max_examples=15, deadline=None)
    @given(placements, st.data())
    def test_attack_results_identical_across_thread_counts(
        self, placement, data
    ):
        s = data.draw(st.integers(1, placement.r))
        k = data.draw(st.integers(1, placement.n - 1))
        for backing in available_gain_backings():
            results = []
            for threads in THREAD_COUNTS:
                kernel = make_kernel(placement, s, gain_backing=backing)
                results.append(
                    best_attack(
                        placement,
                        k,
                        s,
                        effort="auto",
                        rng=random.Random(1234),
                        kernel=kernel,
                        lanes=threads,
                    )
                )
            # Full dataclass equality: nodes, damage, exact AND the
            # evaluation count — the search trajectory itself must not
            # depend on the thread count.
            assert results[1] == results[0], (backing, results)
            assert results[2] == results[0], (backing, results)

    @settings(max_examples=10, deadline=None)
    @given(placements, st.data())
    def test_incremental_state_identical_across_thread_counts(
        self, placement, data
    ):
        if "native" not in available_gain_backings():
            pytest.skip("native kernel unavailable")
        s = data.draw(st.integers(1, placement.r))
        moves = data.draw(
            st.lists(st.integers(0, placement.n - 1), min_size=1, max_size=8)
        )
        k = data.draw(st.integers(1, placement.n - 1))
        seeds = [
            random.Random(seed).sample(range(placement.n), k)
            for seed in range(3)
        ]
        snapshots = []
        for threads in THREAD_COUNTS:
            kernel = make_kernel(placement, s, gain_backing="native")
            hits = kernel.empty_hits()
            active = []
            trace = []
            for node in moves:
                if node in active:
                    hits = kernel.remove_node(hits, node)
                    active.remove(node)
                else:
                    hits = kernel.add_node(hits, node)
                    active.append(node)
                chains = kernel.polish_chains(seeds, lanes=threads)
                trace.append((hits.state.tobytes(), chains))
            snapshots.append(trace)
        assert snapshots[1] == snapshots[0]
        assert snapshots[2] == snapshots[0]

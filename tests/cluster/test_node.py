"""Node slot picks: the first free slot, exactly as the old key scan."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster.node import Node

#: few distinct values (signed zeros among them), so the drawn slot lists
#: repeat their minimum often and mix ``0.0`` with ``-0.0``
slot_times = st.lists(
    st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.5]) | st.floats(0.0, 10.0),
    min_size=1,
    max_size=12,
)


def old_earliest(free: list[float]) -> int:
    """The replaced rule, verbatim: first index with the minimal time."""
    return min(range(len(free)), key=lambda i: free[i])


class TestEarliestSlot:
    @settings(max_examples=300, deadline=None)
    @given(map_free=slot_times, reduce_free=slot_times)
    def test_first_minimal_slot_matches_the_key_scan(self, map_free, reduce_free):
        node = Node("n", map_slots=len(map_free), reduce_slots=len(reduce_free))
        node.map_slot_free = list(map_free)
        node.reduce_slot_free = list(reduce_free)
        assert node.earliest_map_slot() == old_earliest(map_free)
        assert node.earliest_reduce_slot() == old_earliest(reduce_free)

    def test_signed_zero_ties_pick_the_first(self):
        node = Node("n", map_slots=3, reduce_slots=3)
        node.map_slot_free = [1.0, 0.0, -0.0]
        node.reduce_slot_free = [-0.0, 0.0, 0.0]
        assert node.earliest_map_slot() == 1
        assert node.earliest_reduce_slot() == 0

"""Failure domains: the node → rack map.

Production Hadoop clusters fail in *correlated* bundles — a rack power
drop or a ToR switch death takes every datanode in the rack down at
once — which is exactly why HDFS's default block placement spreads
replicas across racks.  :class:`Topology` is the cluster's failure-domain
map: an ordered assignment of node names to named racks that HDFS
placement, the two-tier network, three-level delay scheduling and the
rack-level fault injectors all consult.

A *flat* topology (every node in one rack, or no topology at all) is the
degenerate single-failure-domain case and preserves the pre-topology
semantics bit-identically: every consumer guards its rack-aware branch
with :attr:`Topology.is_flat`, so a one-rack cluster takes exactly the
stock code paths.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Topology:
    """An ordered node → rack assignment.

    ``assignments`` is a tuple of ``(node_name, rack_name)`` pairs, one
    per node, in cluster node order.  Rack names appear in first-use
    order; the same structure round-trips through the namenode's
    :class:`~repro.cluster.journal.FsImage` so a replayed namespace
    places blocks exactly like the live one did.
    """

    assignments: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.assignments:
            raise ValueError("a topology needs at least one node")
        seen: set[str] = set()
        for pair in self.assignments:
            if len(pair) != 2:
                raise ValueError(f"expected (node, rack) pair, got {pair!r}")
            node, rack = pair
            if not node or not isinstance(node, str):
                raise ValueError(f"node name must be a non-empty string: {node!r}")
            if not rack or not isinstance(rack, str):
                raise ValueError(f"rack name must be a non-empty string: {rack!r}")
            if node in seen:
                raise ValueError(f"node {node!r} assigned to more than one rack")
            seen.add(node)
        # Lookup caches, built once: dispatch asks is_flat / rack_of per
        # task.  Plain attributes, not fields, so equality, hashing and
        # replace() still see only ``assignments``.
        rack_by_node = dict(self.assignments)
        object.__setattr__(self, "_rack_by_node", rack_by_node)
        object.__setattr__(self, "_racks", tuple(dict.fromkeys(rack_by_node.values())))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def flat(cls, node_names) -> "Topology":
        """Every node in one rack: the pre-topology single failure domain."""
        return cls(tuple((name, "rack1") for name in node_names))

    @classmethod
    def uniform(cls, node_names, num_racks: int) -> "Topology":
        """Split *node_names* into *num_racks* contiguous racks.

        Racks are named ``rack1..rackN`` and sized as evenly as possible
        (earlier racks take the remainder), mirroring how a sequentially
        cabled cluster fills racks.
        """
        names = list(node_names)
        if num_racks < 1:
            raise ValueError("num_racks must be at least 1")
        if num_racks > len(names):
            raise ValueError(
                f"cannot split {len(names)} node(s) into {num_racks} racks"
            )
        base, extra = divmod(len(names), num_racks)
        assignments = []
        cursor = 0
        for rack_index in range(num_racks):
            size = base + (1 if rack_index < extra else 0)
            for name in names[cursor : cursor + size]:
                assignments.append((name, f"rack{rack_index + 1}"))
            cursor += size
        return cls(tuple(assignments))

    # -- queries --------------------------------------------------------------

    @property
    def racks(self) -> tuple[str, ...]:
        """Rack names in first-appearance order."""
        return self._racks

    @property
    def is_flat(self) -> bool:
        """One failure domain: rack-aware branches must stay stock."""
        return len(self._racks) <= 1

    def has_node(self, name: str) -> bool:
        return name in self._rack_by_node

    def rack_of(self, name: str) -> str:
        rack = self._rack_by_node.get(name)
        if rack is None:
            raise KeyError(f"node {name!r} is not in the topology")
        return rack

    def nodes_in(self, rack: str) -> tuple[str, ...]:
        members = tuple(node for node, r in self.assignments if r == rack)
        if not members:
            raise KeyError(f"no such rack: {rack!r}")
        return members

    def same_rack(self, a: str, b: str) -> bool:
        return self.rack_of(a) == self.rack_of(b)

    def node_names(self) -> tuple[str, ...]:
        return tuple(node for node, _ in self.assignments)

"""HDFS block placement model.

Files are split into fixed-size blocks, each replicated on ``replication``
distinct slave nodes (round-robin with a rotating offset, which is how a
balanced HDFS cluster ends up distributing a large sequentially-written
file).  The scheduler queries :meth:`Hdfs.nodes_with_block` for map-task
locality.

The namenode side of datanode loss is modelled too: :meth:`Hdfs.fail_node`
drops a dead node from every replica set (reporting which blocks became
under-replicated and which are gone entirely), and
:meth:`Hdfs.re_replicate_block` picks the source/target pair the namenode
would use to restore the replication degree — the cluster charges the
actual disk reads and network transfer for that background copy traffic.

Data integrity follows HDFS's end-to-end checksum design: every stored
block carries a CRC32 per ``io.bytes.per.checksum``-sized chunk
(:attr:`Hdfs.bytes_per_checksum`), and every read verifies them.  Bit-rot
is modelled as a ground-truth set of corrupt replicas
(:meth:`Hdfs.corrupt_replica`) that the *namenode does not know about*
until a client read or a :class:`DataBlockScanner` scrub trips
:class:`ChecksumError`; the detector then files
:meth:`Hdfs.report_bad_block` (journaled, like ``reportBadBlocks``), the
namenode invalidates the replica — mirroring Hadoop's
``CorruptReplicasMap``, it never invalidates a block's *last* replica —
and the caller re-replicates from a surviving good copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.attempts import DataLossError
from repro.cluster.node import Node
from repro.cluster.topology import Topology


class ChecksumError(IOError):
    """A read's CRC32 verification failed: the replica's bytes are rotten."""

    def __init__(self, file_name: str, index: int, node_name: str) -> None:
        super().__init__(
            f"checksum error reading {file_name!r} block {index} "
            f"replica on {node_name}"
        )
        self.file_name = file_name
        self.index = index
        self.node_name = node_name


@dataclass(frozen=True)
class Block:
    """One HDFS block."""

    file_name: str
    index: int
    size_bytes: int
    replicas: tuple[str, ...]


@dataclass
class HdfsFile:
    """A file: ordered blocks plus total size."""

    name: str
    blocks: list[Block] = field(default_factory=list)

    @property
    def size_bytes(self) -> int:
        return sum(b.size_bytes for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


class Hdfs:
    """Block-placement directory over the cluster's slave nodes."""

    def __init__(
        self,
        nodes: list[Node],
        block_size: int = 64 * 1024 * 1024,
        replication: int = 3,
        bytes_per_checksum: int = 512,
        topology: Topology | None = None,
    ):
        if not nodes:
            raise ValueError("HDFS needs at least one datanode")
        if block_size <= 0:
            raise ValueError("block size must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        if bytes_per_checksum <= 0:
            raise ValueError("bytes_per_checksum must be positive")
        if topology is not None:
            for node in nodes:
                if not topology.has_node(node.name):
                    raise ValueError(
                        f"datanode {node.name!r} is missing from the topology"
                    )
        self.nodes = list(nodes)
        self.block_size = block_size
        self.replication = min(replication, len(self.nodes))
        #: CRC32 chunk size, Hadoop's ``io.bytes.per.checksum`` (512 B).
        self.bytes_per_checksum = bytes_per_checksum
        #: failure-domain map; ``None`` (or a flat one-rack topology)
        #: keeps the pre-topology round-robin placement bit-identically.
        self.topology = topology
        self.files: dict[str, HdfsFile] = {}
        self._placement_cursor = 0
        self._dead_nodes: set[str] = set()
        #: ground truth of rotten replicas as ``(file, index, node)`` —
        #: what the *disks* hold, unknown to the namenode until a read or
        #: scrub detects it and files :meth:`report_bad_block`.
        self._corrupt_replicas: set[tuple[str, int, str]] = set()
        #: blocks created below the configured replication degree because
        #: too few datanodes were alive at placement time (the namenode's
        #: under-replicated-blocks gauge).
        self.under_replicated_blocks = 0
        #: blocks whose replicas all landed on one rack although live
        #: datanodes spanned several (placement degraded, e.g. every
        #: off-rack candidate already held a replica).  The rack-diversity
        #: analogue of the under-replication gauge, snapshotted into the
        #: fsimage the same way.
        self.rack_under_diverse_blocks = 0
        #: optional write-ahead journal (a NameNodeJournal attaches itself
        #: here); every namespace mutation is logged before returning.
        self.journal = None

    def _log_edit(self, op: str, *args) -> None:
        if self.journal is not None:
            self.journal.record(op, *args)

    def create_file(self, name: str, size_bytes: int) -> HdfsFile:
        """Create a file of *size_bytes*, splitting and placing its blocks."""
        if name in self.files:
            raise ValueError(f"file {name!r} already exists")
        if size_bytes < 0:
            raise ValueError("file size must be non-negative")
        blocks: list[Block] = []
        remaining = size_bytes
        index = 0
        while remaining > 0:
            size = min(self.block_size, remaining)
            replicas = self._place()
            blocks.append(Block(name, index, size, replicas))
            remaining -= size
            index += 1
        hfile = HdfsFile(name, blocks)
        self.files[name] = hfile
        self._log_edit("create_file", name, size_bytes)
        return hfile

    def delete_file(self, name: str) -> None:
        if self.files.pop(name, None) is not None:
            self._corrupt_replicas = {
                marker for marker in self._corrupt_replicas if marker[0] != name
            }
            self._log_edit("delete_file", name)

    # -- end-to-end checksums -------------------------------------------------

    def checksum_chunks(self, num_bytes: int) -> int:
        """CRC32 chunks covering *num_bytes* (``io.bytes.per.checksum``)."""
        if num_bytes < 0:
            raise ValueError("checksummed size must be non-negative")
        return -(-num_bytes // self.bytes_per_checksum)

    def corrupt_replica(self, file_name: str, index: int, node_name: str) -> bool:
        """Rot the replica of block *index* of *file_name* held by *node_name*.

        Fault injection: flips the ground truth without telling the
        namenode — detection has to come from a verified read or a scrub.
        Returns ``True`` if the replica was newly corrupted, ``False`` if
        it was already rotten.  Raises for a replica that doesn't exist.
        """
        block = self.files[file_name].blocks[index]
        if node_name not in block.replicas:
            raise ValueError(
                f"{node_name} holds no replica of {file_name!r} block {index}"
            )
        marker = (file_name, index, node_name)
        if marker in self._corrupt_replicas:
            return False
        self._corrupt_replicas.add(marker)
        return True

    def is_replica_corrupt(self, file_name: str, index: int, node_name: str) -> bool:
        return (file_name, index, node_name) in self._corrupt_replicas

    @property
    def corrupt_replica_count(self) -> int:
        """Rotten replicas still sitting undetected on disks."""
        return len(self._corrupt_replicas)

    def corrupt_replicas(self) -> frozenset[tuple[str, int, str]]:
        return frozenset(self._corrupt_replicas)

    def verify_replica(self, file_name: str, index: int, node_name: str) -> int:
        """Verify one replica's CRC32 chunks (an HDFS client read does this).

        Returns the number of chunks verified; raises
        :class:`ChecksumError` when the replica is rotten.  Verification
        is pure arithmetic riding on the data already being read, so it
        charges no simulated time.
        """
        block = self.files[file_name].blocks[index]
        chunks = self.checksum_chunks(block.size_bytes)
        if self.is_replica_corrupt(file_name, index, node_name):
            raise ChecksumError(file_name, index, node_name)
        return chunks

    def report_bad_block(
        self, file_name: str, index: int, node_name: str
    ) -> Block | None:
        """A client/scrubber reports a corrupt replica (``reportBadBlocks``).

        The namenode drops the replica from the block's replica set
        (journaled) so no future read lands on it, clearing the way for
        re-replication from a good copy.  Like Hadoop's
        ``CorruptReplicasMap`` it never invalidates the *last* replica —
        corrupt data beats no data.  Returns the updated block (the
        re-replication candidate), or ``None`` when nothing was dropped
        (file deleted, replica already gone, or it was the last one).
        """
        self._corrupt_replicas.discard((file_name, index, node_name))
        hfile = self.files.get(file_name)
        if hfile is None or index >= len(hfile.blocks):
            return None
        current = hfile.blocks[index]
        if node_name not in current.replicas:
            return None
        if len(current.replicas) <= 1:
            # Never invalidate the only replica; keep the evidence.
            self._corrupt_replicas.add((file_name, index, node_name))
            return None
        survivors = tuple(r for r in current.replicas if r != node_name)
        updated = replace(current, replicas=survivors)
        hfile.blocks[index] = updated
        self._log_edit("report_bad_block", file_name, index, node_name)
        return updated

    @property
    def _rack_aware(self) -> bool:
        """Multi-rack topology: placement must spread replicas across racks."""
        return self.topology is not None and not self.topology.is_flat

    def _place(self) -> tuple[str, ...]:
        """Pick a replica set for one new block among the live datanodes.

        When fewer live nodes remain than the configured replication
        degree the block is *under-replicated* — placed on every
        survivor and counted in :attr:`under_replicated_blocks` — rather
        than rejected; only a namespace with zero live datanodes raises
        :class:`~repro.cluster.attempts.DataLossError`.

        With a multi-rack :class:`~repro.cluster.topology.Topology` the
        placement policy is Hadoop 1.x's rack-aware default: first
        replica rotating over live nodes (the "writer-local" slot),
        second replica off the first's rack, third replica on the
        *second* replica's rack but a different node — never two
        replicas on one node.  When the policy cannot span two racks
        (every off-rack node is dead) it degrades gracefully and counts
        the block in :attr:`rack_under_diverse_blocks`.  A ``None`` or
        flat topology takes the stock round-robin path bit-identically.
        """
        live = [node.name for node in self.nodes if node.name not in self._dead_nodes]
        if not live:
            raise DataLossError(
                "namenode", 0, "no live datanodes to place blocks on"
            )
        n = len(live)
        degree = min(self.replication, n)
        if degree < self.replication:
            self.under_replicated_blocks += 1
        if not self._rack_aware:
            chosen = tuple(
                live[(self._placement_cursor + i) % n] for i in range(degree)
            )
            self._placement_cursor = (self._placement_cursor + 1) % n
            return chosen
        chosen = self._place_rack_aware(live, degree)
        self._placement_cursor = (self._placement_cursor + 1) % n
        return chosen

    def _scan_live(self, live, chosen, predicate) -> str | None:
        """First live node after the cursor not in *chosen* passing *predicate*."""
        n = len(live)
        for i in range(1, n):
            name = live[(self._placement_cursor + i) % n]
            if name not in chosen and predicate(name):
                return name
        return None

    def _place_rack_aware(self, live: list[str], degree: int) -> tuple[str, ...]:
        rack_of = self.topology.rack_of
        chosen = [live[self._placement_cursor % len(live)]]
        if degree >= 2:
            # Second replica off the first's rack (fall back to any
            # distinct node when no other rack has a live datanode).
            first_rack = rack_of(chosen[0])
            second = self._scan_live(
                live, chosen, lambda name: rack_of(name) != first_rack
            )
            if second is None:
                second = self._scan_live(live, chosen, lambda name: True)
            chosen.append(second)
        if degree >= 3:
            # Third replica on the second's rack, a different node; fall
            # back to any remaining node when that rack has no other.
            second_rack = rack_of(chosen[1])
            third = self._scan_live(
                live, chosen, lambda name: rack_of(name) == second_rack
            )
            if third is None:
                third = self._scan_live(live, chosen, lambda name: True)
            chosen.append(third)
        for _ in range(len(chosen), degree):
            chosen.append(self._scan_live(live, chosen, lambda name: True))
        # Observational gauge: a multi-replica block that could not span
        # two racks (every off-rack datanode is dead) is placed anyway
        # but counted, mirroring the namenode's under-replication gauge.
        if degree >= 2 and len({rack_of(name) for name in chosen}) < 2:
            self.rack_under_diverse_blocks += 1
        return tuple(chosen)

    # -- datanode loss and re-replication ------------------------------------

    @property
    def dead_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._dead_nodes))

    def live_node_names(self) -> list[str]:
        return [node.name for node in self.nodes if node.name not in self._dead_nodes]

    def fail_node(self, name: str) -> tuple[list[Block], list[Block]]:
        """Declare datanode *name* dead and drop it from every replica set.

        Returns ``(under_replicated, lost)``: blocks that still have at
        least one surviving replica (candidates for re-replication) and
        blocks whose every replica lived on dead nodes (data loss).
        Idempotent for an already-dead node.
        """
        already_dead = name in self._dead_nodes
        self._dead_nodes.add(name)
        under_replicated: list[Block] = []
        lost: list[Block] = []
        if already_dead:
            return under_replicated, lost
        # Rotten replicas die with their disks.
        self._corrupt_replicas = {
            marker for marker in self._corrupt_replicas if marker[2] != name
        }
        self._log_edit("fail_node", name)
        for hfile in self.files.values():
            for i, block in enumerate(hfile.blocks):
                if name not in block.replicas:
                    continue
                survivors = tuple(r for r in block.replicas if r != name)
                block = replace(block, replicas=survivors)
                hfile.blocks[i] = block
                (under_replicated if survivors else lost).append(block)
        return under_replicated, lost

    def re_replicate_block(self, block: Block) -> tuple[str, str] | None:
        """Restore one replica of an under-replicated *block*.

        Picks a surviving replica holder as the source and a live node not
        yet holding the block as the target (rotating like initial
        placement), records the new replica in the directory, and returns
        ``(src_name, dst_name)`` so the caller can charge the copy to the
        disk/network models.  Returns ``None`` when no replica survives or
        no eligible target exists.

        With a multi-rack topology the namenode restores *rack diversity*
        first: targets on racks not yet holding a replica are preferred
        over same-rack ones, so a block pushed onto a single rack by
        datanode deaths regains a second rack on its first repair.
        """
        current = self.files[block.file_name].blocks[block.index]
        if not current.replicas:
            return None
        candidates = [
            name
            for name in self.live_node_names()
            if name not in current.replicas
        ]
        if not candidates:
            return None
        if self._rack_aware:
            rack_of = self.topology.rack_of
            held_racks = {rack_of(name) for name in current.replicas}
            diverse = [
                name for name in candidates if rack_of(name) not in held_racks
            ]
            pool = diverse or candidates
            dst = pool[self._placement_cursor % len(pool)]
        else:
            dst = candidates[self._placement_cursor % len(candidates)]
        self._placement_cursor += 1
        src = current.replicas[0]
        self.files[block.file_name].blocks[block.index] = replace(
            current, replicas=current.replicas + (dst,)
        )
        self._log_edit("re_replicate_block", block.file_name, block.index)
        return src, dst

    def nodes_with_block(self, block: Block) -> tuple[str, ...]:
        return block.replicas

    # -- lineage hooks (workflow recovery) ------------------------------------

    def file_exists(self, name: str) -> bool:
        return name in self.files

    def lost_blocks(self, name: str) -> list[int]:
        """Indices of *name*'s blocks with zero surviving replicas.

        The workflow orchestrator's lineage check: a consumer stage may
        read its input only when this is empty; otherwise the producer
        subgraph must be re-executed.  A file missing from the namespace
        entirely reads as all-lost (empty files have no blocks to lose,
        so a zero-block file is intact).
        """
        hfile = self.files.get(name)
        if hfile is None:
            return [-1]
        return [
            block.index for block in hfile.blocks if not block.replicas
        ]

    def destroy_replicas(self, name: str) -> int:
        """Fault injection: drop every replica of every block of *name*.

        Models the pathological loss window the lineage machinery exists
        for — all replica holders of a completed stage's output die
        before any consumer reads it.  The namespace entry survives (the
        namenode still lists the file); the data is gone.  Returns the
        number of blocks destroyed.
        """
        hfile = self.files.get(name)
        if hfile is None:
            raise KeyError(f"no such HDFS file: {name!r}")
        self._corrupt_replicas = {
            marker for marker in self._corrupt_replicas if marker[0] != name
        }
        destroyed = 0
        for i, block in enumerate(hfile.blocks):
            if block.replicas:
                hfile.blocks[i] = replace(block, replicas=())
                destroyed += 1
        self._log_edit("destroy_replicas", name)
        return destroyed

    def blocks_of(self, name: str) -> list[Block]:
        try:
            return self.files[name].blocks
        except KeyError:
            raise KeyError(f"no such HDFS file: {name!r}") from None

    def blocks_on_node(self, node_name: str) -> list[Block]:
        return [
            block
            for hfile in self.files.values()
            for block in hfile.blocks
            if node_name in block.replicas
        ]

    def total_stored_bytes(self) -> int:
        """Raw bytes stored including replication."""
        return sum(
            block.size_bytes * len(block.replicas)
            for hfile in self.files.values()
            for block in hfile.blocks
        )


class DataBlockScanner:
    """The datanode's background scrubber (Hadoop's ``DataBlockScanner``).

    Reads every block replica stored on a datanode and verifies its CRC32
    chunks, so bit-rot on replicas nobody happens to read is still found.
    The scan's reads are charged to the node's :class:`Disk` (FIFO, like
    any other I/O) and counted as scrub traffic in the node's ``/proc``.
    The scanner only *detects*: it returns the rotten replicas found, and
    the namenode side (the caller) reports and re-replicates them.
    """

    def __init__(self, hdfs: Hdfs) -> None:
        self.hdfs = hdfs

    def scan_node(self, node: Node, at: float) -> tuple[float, int, list[Block]]:
        """Scrub every replica on *node* starting at time *at*.

        Returns ``(finish_time, bytes_scanned, corrupt_blocks)``.
        """
        t = at
        scanned = 0
        corrupt: list[Block] = []
        for block in self.hdfs.blocks_on_node(node.name):
            t = node.disk.read(t, block.size_bytes)
            scanned += block.size_bytes
            node.procfs.record_scrub(block.size_bytes)
            try:
                chunks = self.hdfs.verify_replica(
                    block.file_name, block.index, node.name
                )
            except ChecksumError:
                node.procfs.record_checksum(
                    self.hdfs.checksum_chunks(block.size_bytes)
                )
                node.procfs.checksum_failures += 1
                corrupt.append(block)
            else:
                node.procfs.record_checksum(chunks)
        return t, scanned, corrupt

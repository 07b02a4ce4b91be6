"""Control-plane journaling: the NameNode edit log and fsimage checkpoints.

Hadoop 1.x keeps the HDFS namespace durable with exactly two artefacts:

* the **fsimage** — a periodic checkpoint of the whole namespace, and
* the **edit log** — a write-ahead log of every namespace mutation since
  the last checkpoint.

On restart the NameNode loads the fsimage and replays the outstanding
edits; the *SecondaryNameNode* periodically *rolls* the log — it merges
``fsimage + edits`` into a fresh fsimage and truncates the edits — so
recovery never replays an unbounded log.  This module models that
machinery for the simulated cluster:

* :class:`EditOp` / :class:`EditLog` — the write-ahead log, one
  transaction id per namespace mutation
  (``create_file`` / ``delete_file`` / ``fail_node`` /
  ``re_replicate_block``);
* :class:`FsImage` — an immutable checkpoint of the whole
  :class:`~repro.cluster.hdfs.Hdfs` state (files, block placement,
  placement cursor, dead-node set, under-replication counter);
* :func:`snapshot` / :func:`restore_into` / :func:`replay` — checkpoint,
  in-place restore, and ``replay(fsimage, edits)`` recovery, which must
  reproduce the live namespace *exactly* (the tests assert it);
* :class:`NameNodeJournal` — wires the three together behind an
  :class:`~repro.cluster.hdfs.Hdfs`, with SecondaryNameNode-style
  roll/merge every ``checkpoint_interval_ops`` edits;
* :class:`JobHistoryJournal` — the JobTracker-side job-history log
  (``mapred.jobtracker.restart.recover``): completed task attempts are
  recorded as they commit, so a restarted JobTracker can tell which map
  outputs already exist on live tasktrackers and *resume* instead of
  re-running the job from scratch.

Journaling is pure bookkeeping: it never touches the simulated clock, so
a journaled run's timeline is bit-identical to an unjournaled one (the
chaos suite asserts this "observationally free" property).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.hdfs import Block, Hdfs, HdfsFile
from repro.cluster.node import Node
from repro.cluster.topology import Topology

#: Edit-log operation names (mirroring the Hadoop 1.x edit-log opcodes
#: OP_ADD / OP_DELETE / OP_DATANODE_REMOVE / OP_SET_REPLICATION, plus the
#: ``reportBadBlocks`` → invalidate path for corrupt replicas).
OP_CREATE_FILE = "create_file"
OP_DELETE_FILE = "delete_file"
OP_FAIL_NODE = "fail_node"
OP_RE_REPLICATE = "re_replicate_block"
OP_BAD_BLOCK = "report_bad_block"
OP_DESTROY_REPLICAS = "destroy_replicas"

_KNOWN_OPS = (
    OP_CREATE_FILE, OP_DELETE_FILE, OP_FAIL_NODE, OP_RE_REPLICATE, OP_BAD_BLOCK,
    OP_DESTROY_REPLICAS,
)


@dataclass(frozen=True)
class EditOp:
    """One journaled namespace mutation."""

    txid: int
    op: str
    args: tuple

    def __post_init__(self) -> None:
        if self.op not in _KNOWN_OPS:
            raise ValueError(f"unknown edit-log op {self.op!r}")
        if self.txid < 1:
            raise ValueError("transaction ids start at 1")


class EditLog:
    """Write-ahead log of namespace mutations, one txid per entry."""

    def __init__(self, first_txid: int = 1) -> None:
        if first_txid < 1:
            raise ValueError("transaction ids start at 1")
        self.ops: list[EditOp] = []
        self._next_txid = first_txid

    def append(self, op: str, *args) -> EditOp:
        entry = EditOp(self._next_txid, op, tuple(args))
        self.ops.append(entry)
        self._next_txid += 1
        return entry

    @property
    def last_txid(self) -> int:
        """Txid of the newest entry (0 when the log has never been written)."""
        return self._next_txid - 1

    def since(self, txid: int) -> list[EditOp]:
        """Entries with txid strictly greater than *txid* (replay input)."""
        return [op for op in self.ops if op.txid > txid]

    def truncate_through(self, txid: int) -> None:
        """Drop entries up to and including *txid* (after a checkpoint merge)."""
        self.ops = [op for op in self.ops if op.txid > txid]

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class FsImage:
    """An immutable checkpoint of the whole HDFS namespace.

    Captures everything :func:`replay` needs to reconstruct the live
    :class:`~repro.cluster.hdfs.Hdfs` exactly — including the placement
    cursor and dead-node set, whose values future placements depend on.
    """

    txid: int
    block_size: int
    replication: int
    node_names: tuple[str, ...]
    placement_cursor: int
    dead_nodes: tuple[str, ...]
    under_replicated_blocks: int
    files: tuple[tuple[str, tuple[Block, ...]], ...]
    #: ground-truth rotten replicas at snapshot time — datanode state,
    #: carried so a cluster checkpoint/restore round-trips bit-rot
    #: exactly (replay-produced images start with none: bit-rot is a
    #: fault, not a journaled namespace mutation).
    corrupt_replicas: tuple[tuple[str, int, str], ...] = ()
    #: CRC32 chunk size (``io.bytes.per.checksum``), part of the
    #: namespace configuration like ``block_size``.
    bytes_per_checksum: int = 512
    #: node → rack assignments of the namespace's failure-domain map
    #: (empty = no topology, the flat pre-topology namespace).  Carried
    #: so replay reconstructs the *same* placement policy and reproduces
    #: rack-aware placements bit for bit.
    rack_assignments: tuple[tuple[str, str], ...] = ()
    #: the rack-diversity gauge, journaled like under-replication.
    rack_under_diverse_blocks: int = 0

    def file_names(self) -> tuple[str, ...]:
        return tuple(name for name, _blocks in self.files)


def snapshot(hdfs: Hdfs, txid: int = 0) -> FsImage:
    """Checkpoint *hdfs* into an :class:`FsImage` as of edit-log *txid*."""
    return FsImage(
        txid=txid,
        block_size=hdfs.block_size,
        replication=hdfs.replication,
        node_names=tuple(node.name for node in hdfs.nodes),
        placement_cursor=hdfs._placement_cursor,
        dead_nodes=tuple(sorted(hdfs._dead_nodes)),
        under_replicated_blocks=hdfs.under_replicated_blocks,
        files=tuple(
            (name, tuple(hfile.blocks)) for name, hfile in hdfs.files.items()
        ),
        corrupt_replicas=tuple(sorted(hdfs._corrupt_replicas)),
        bytes_per_checksum=hdfs.bytes_per_checksum,
        rack_assignments=(
            hdfs.topology.assignments if hdfs.topology is not None else ()
        ),
        rack_under_diverse_blocks=hdfs.rack_under_diverse_blocks,
    )


def restore_into(hdfs: Hdfs, image: FsImage) -> Hdfs:
    """Overwrite *hdfs*'s namespace in place with *image*'s.

    In-place so every object holding a reference to the namespace (the
    cluster, distributed inputs, the scheduler) sees the restored state.
    Does not write the edit log: a restore is not a mutation.
    """
    known = {node.name for node in hdfs.nodes}
    missing = set(image.node_names) - known
    if missing:
        raise ValueError(
            f"fsimage references unknown datanodes: {sorted(missing)}"
        )
    hdfs.block_size = image.block_size
    hdfs.replication = image.replication
    hdfs.bytes_per_checksum = image.bytes_per_checksum
    # The topology must be restored before any edits replay: rack-aware
    # create_file placements reproduce only under the same policy.
    hdfs.topology = (
        Topology(image.rack_assignments) if image.rack_assignments else None
    )
    hdfs.rack_under_diverse_blocks = image.rack_under_diverse_blocks
    hdfs._placement_cursor = image.placement_cursor
    hdfs._dead_nodes = set(image.dead_nodes)
    hdfs.under_replicated_blocks = image.under_replicated_blocks
    hdfs.files = {
        name: HdfsFile(name, list(blocks)) for name, blocks in image.files
    }
    hdfs._corrupt_replicas = set(image.corrupt_replicas)
    return hdfs


def apply_op(hdfs: Hdfs, op: EditOp) -> None:
    """Apply one journaled mutation through the real namespace code paths.

    Replay *must* go through the same methods that produced the edits, so
    placement decisions (cursor arithmetic, dead-node filtering) are
    reproduced bit for bit rather than re-derived by a second
    implementation that could drift.
    """
    if op.op == OP_CREATE_FILE:
        name, size_bytes = op.args
        hdfs.create_file(name, size_bytes)
    elif op.op == OP_DELETE_FILE:
        (name,) = op.args
        hdfs.delete_file(name)
    elif op.op == OP_FAIL_NODE:
        (name,) = op.args
        hdfs.fail_node(name)
    elif op.op == OP_RE_REPLICATE:
        file_name, index = op.args
        hdfs.re_replicate_block(hdfs.files[file_name].blocks[index])
    elif op.op == OP_BAD_BLOCK:
        file_name, index, node_name = op.args
        hdfs.report_bad_block(file_name, index, node_name)
    elif op.op == OP_DESTROY_REPLICAS:
        (name,) = op.args
        hdfs.destroy_replicas(name)
    else:  # pragma: no cover - EditOp already validates
        raise ValueError(f"unknown edit-log op {op.op!r}")


def replay(image: FsImage, edits, nodes: list[Node]) -> Hdfs:
    """Reconstruct a namespace from ``fsimage + edits`` (NameNode startup).

    Returns a *fresh* :class:`Hdfs` over *nodes* whose state matches what
    the live namespace looked like after the last journaled mutation —
    exactly, including the placement cursor (asserted by the journal
    tests for arbitrary seeded fault schedules).
    """
    recovered = Hdfs(
        nodes, block_size=image.block_size, replication=max(image.replication, 1)
    )
    restore_into(recovered, image)
    for op in edits:
        if op.txid <= image.txid:
            continue  # already folded into the checkpoint
        apply_op(recovered, op)
    return recovered


class NameNodeJournal:
    """Edit-log + fsimage management for one :class:`Hdfs` namespace.

    Attaches itself to the filesystem (``hdfs.journal = self``) so every
    namespace mutation is logged write-ahead style.  Every
    ``checkpoint_interval_ops`` edits the journal *rolls*: like the
    SecondaryNameNode, it merges the old fsimage with the outstanding
    edits **by replaying them** (not by snapshotting the live namespace —
    the merge path is the recovery path, so rolling continuously proves
    recovery works) and truncates the log.
    """

    def __init__(
        self,
        hdfs: Hdfs,
        checkpoint_interval_ops: int = 64,
        procfs=None,
    ) -> None:
        if checkpoint_interval_ops < 1:
            raise ValueError("checkpoint interval must be at least one edit")
        self.hdfs = hdfs
        self.checkpoint_interval_ops = checkpoint_interval_ops
        self.procfs = procfs
        self.edits = EditLog()
        self.fsimage = snapshot(hdfs, txid=0)
        self.rolls = 0
        hdfs.journal = self

    # -- write-ahead logging (called by Hdfs) --------------------------------

    def record(self, op: str, *args) -> None:
        self.edits.append(op, *args)
        if self.procfs is not None:
            self.procfs.journal_edits += 1
        if len(self.edits) >= self.checkpoint_interval_ops:
            self.roll()

    # -- checkpointing --------------------------------------------------------

    def roll(self) -> FsImage:
        """SecondaryNameNode checkpoint: merge edits into a new fsimage."""
        merged = replay(self.fsimage, self.edits.ops, self.hdfs.nodes)
        last = self.edits.last_txid
        self.fsimage = snapshot(merged, txid=last)
        self.edits.truncate_through(last)
        self.rolls += 1
        if self.procfs is not None:
            self.procfs.journal_checkpoints += 1
        return self.fsimage

    def recover(self) -> Hdfs:
        """NameNode restart: rebuild the namespace from fsimage + edits."""
        return replay(self.fsimage, self.edits.ops, self.hdfs.nodes)

    # -- checkpoint/restore of the journal itself ----------------------------

    def checkpoint_state(self) -> tuple:
        """Snapshot the journal's own state (for cluster checkpoints)."""
        return (self.fsimage, tuple(self.edits.ops), self.edits._next_txid, self.rolls)

    def restore_state(self, state: tuple) -> None:
        self.fsimage, ops, next_txid, self.rolls = state
        self.edits = EditLog()
        self.edits.ops = list(ops)
        self.edits._next_txid = next_txid


# ---------------------------------------------------------------------------
# JobTracker job history
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobHistoryEvent:
    """One committed task attempt, as the job-history log records it."""

    kind: str  # "map" or "reduce"
    task_id: str
    node: str
    start_s: float
    end_s: float


@dataclass
class JobHistoryJournal:
    """The JobTracker's persisted job-history log for the running job.

    Hadoop 1.x with ``mapred.jobtracker.restart.recover=true`` replays
    this log after a JobTracker restart: tasks recorded as complete are
    not re-run (their outputs still sit on live tasktrackers' local
    disks), only the attempts that were in flight are rescheduled.  A
    stock-1.x restart (``recover=false``) discards it and the job starts
    from scratch.
    """

    events: list[JobHistoryEvent] = field(default_factory=list)

    def record_completion(
        self, kind: str, task_id: str, node: str, start_s: float, end_s: float
    ) -> JobHistoryEvent:
        if kind not in ("map", "reduce"):
            raise ValueError("job history records map or reduce completions")
        event = JobHistoryEvent(kind, task_id, node, start_s, end_s)
        self.events.append(event)
        return event

    def completed_maps_before(self, time_s: float) -> list[JobHistoryEvent]:
        """Map completions the history had journaled by *time_s*.

        These are the outputs a recovering JobTracker can reuse —
        provided the tasktracker that holds them is still alive (the
        caller filters on liveness).
        """
        return [
            e for e in self.events if e.kind == "map" and e.end_s <= time_s
        ]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# Workflow (DAG) progress journal
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkflowStageRecord:
    """One committed stage of a workflow, as the progress journal records it."""

    stage: str
    finished_s: float
    attempts: int
    output: str  # HDFS path of the stage's committed output


@dataclass
class WorkflowJournal:
    """The orchestrator's persisted per-workflow progress log.

    The DAG analogue of :class:`JobHistoryJournal`: each stage commit is
    recorded write-ahead style, so a JobTracker crash mid-workflow can
    resume the DAG from its journal — completed stages are *not*
    re-executed (their outputs are durable in HDFS, unlike map outputs
    on local disks), only stages that had not committed re-run.  Like
    all journaling here it is pure bookkeeping: recording never touches
    the simulated clock.
    """

    workflow: str = ""
    records: list[WorkflowStageRecord] = field(default_factory=list)

    def record_stage(
        self, stage: str, finished_s: float, attempts: int, output: str
    ) -> WorkflowStageRecord:
        if any(r.stage == stage for r in self.records):
            raise ValueError(f"stage {stage!r} already journaled")
        record = WorkflowStageRecord(stage, finished_s, attempts, output)
        self.records.append(record)
        return record

    def forget_stage(self, stage: str) -> None:
        """Drop *stage*'s record (its output was lost; it must re-run)."""
        self.records = [r for r in self.records if r.stage != stage]

    def completed_stages(self) -> tuple[str, ...]:
        return tuple(r.stage for r in self.records)

    def record_for(self, stage: str) -> WorkflowStageRecord | None:
        for record in self.records:
            if record.stage == stage:
                return record
        return None

    def clear(self) -> None:
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)

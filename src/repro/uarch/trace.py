"""Instruction-stream synthesis.

The paper measures real binaries with hardware counters.  We reproduce the
measurement path with *synthetic traces*: each workload is described by a
:class:`TraceSpec` — instruction mix, basic-block structure, code footprint,
memory-region access patterns, dependency (ILP) structure, branch
regularity, and kernel-mode behaviour — and :class:`SyntheticTrace` expands
the spec into a deterministic stream of :class:`~repro.uarch.isa.MicroOp`.

The spec parameters are filled in two ways (see DESIGN.md §2):

* *measured* quantities come from actually running the algorithm on the
  MapReduce engine (instruction mix from operation counts, kernel fraction
  from I/O-syscall intensity, working-set sizes from real data sizes), and
* *declared* characteristics encode qualitative facts about the binary the
  paper ran (e.g. JVM + Hadoop framework ⇒ several-hundred-KB hot code
  footprint) and are documented per workload.

No performance-counter value is ever written into a spec; the counters come
out of the cache/TLB/predictor/pipeline mechanics.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from repro.uarch.isa import MicroOp, OpClass

#: Base virtual address of user code, data regions and kernel space.
USER_CODE_BASE = 0x0040_0000
USER_DATA_BASE = 0x1000_0000
KERNEL_CODE_BASE = 0x8000_0000_0000
KERNEL_DATA_BASE = 0x8800_0000_0000

#: Hard cap on dependency distances so the pipeline can keep a short ring.
MAX_DEP_DISTANCE = 256


@dataclass(frozen=True)
class MemoryRegion:
    """One logical data structure the workload touches.

    Attributes:
        name: label for diagnostics.
        size_bytes: the region's working-set size.
        weight: relative probability a data access lands in this region.
        pattern: ``"sequential"`` (streaming scan), ``"strided"`` (fixed
            stride), ``"random"`` (uniform within the region), or
            ``"pointer"`` (uniform random *and* serialised behind the
            previous load, modelling pointer chasing).
        stride: byte stride for the ``"strided"`` pattern.
        burst: for ``"random"``/``"pointer"``, the number of consecutive
            accesses made at each randomly chosen location (records and
            objects span multiple words, so truly single-word random access
            is rare; HPCC-RandomAccess uses ``burst=1``).
        hot_fraction: fraction of the region forming a hot subset (object
            popularity is skewed in real heaps; 1.0 means uniform access).
        hot_weight: probability a random jump lands in the hot subset.
    """

    name: str
    size_bytes: int
    weight: float = 1.0
    pattern: str = "sequential"
    stride: int = 64
    burst: int = 4
    hot_fraction: float = 1.0
    hot_weight: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"region {self.name}: size must be positive")
        if self.weight < 0:
            raise ValueError(f"region {self.name}: weight must be non-negative")
        if self.pattern not in ("sequential", "strided", "random", "pointer"):
            raise ValueError(f"region {self.name}: unknown pattern {self.pattern!r}")
        if self.stride <= 0:
            raise ValueError(f"region {self.name}: stride must be positive")
        if self.burst <= 0:
            raise ValueError(f"region {self.name}: burst must be positive")
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(f"region {self.name}: hot_fraction must be in (0, 1]")
        if not 0.0 <= self.hot_weight <= 1.0:
            raise ValueError(f"region {self.name}: hot_weight must be in [0, 1]")


@dataclass(frozen=True)
class TraceSpec:
    """Complete description of a synthetic instruction stream."""

    name: str
    instructions: int
    seed: int = 20130730  # arXiv date of the paper; any fixed seed works

    # --- instruction mix (fractions of all micro-ops) ---
    load_fraction: float = 0.25
    store_fraction: float = 0.12
    fp_fraction: float = 0.02
    mul_fraction: float = 0.02
    div_fraction: float = 0.001

    # --- code behaviour ---
    mean_block_len: float = 8.0
    code_footprint: int = 64 * 1024
    hot_code_fraction: float = 0.15
    hot_code_weight: float = 0.9
    call_fraction: float = 0.15
    indirect_fraction: float = 0.05
    indirect_targets: int = 4
    loop_branch_fraction: float = 0.45
    mean_trip_count: float = 12.0
    branch_regularity: float = 0.9
    taken_bias: float = 0.5

    # --- data behaviour ---
    regions: tuple[MemoryRegion, ...] = field(
        default_factory=lambda: (MemoryRegion("heap", 1 << 20),)
    )
    access_bytes: int = 8

    # --- dependency / ILP structure ---
    dep_mean: float = 4.0
    dep_density: float = 0.7

    # --- RAT pressure (partial-register / read-port conflicts) ---
    partial_register_ratio: float = 0.05

    # --- kernel mode ---
    kernel_fraction: float = 0.02
    kernel_episode_len: int = 150
    kernel_code_footprint: int = 96 * 1024
    kernel_buffer_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise ValueError("instructions must be positive")
        mix = (
            self.load_fraction
            + self.store_fraction
            + self.fp_fraction
            + self.mul_fraction
            + self.div_fraction
        )
        if mix >= 1.0:
            raise ValueError(f"instruction mix sums to {mix:.3f} >= 1")
        for frac_name in (
            "load_fraction",
            "store_fraction",
            "fp_fraction",
            "mul_fraction",
            "div_fraction",
            "hot_code_fraction",
            "hot_code_weight",
            "call_fraction",
            "indirect_fraction",
            "loop_branch_fraction",
            "branch_regularity",
            "taken_bias",
            "dep_density",
            "partial_register_ratio",
            "kernel_fraction",
        ):
            value = getattr(self, frac_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{frac_name} must be in [0, 1], got {value}")
        if self.kernel_fraction >= 1.0:
            raise ValueError("kernel_fraction must be < 1")
        if self.mean_block_len < 2.0:
            raise ValueError("mean_block_len must be >= 2")
        if self.code_footprint <= 0 or self.kernel_code_footprint <= 0:
            raise ValueError("code footprints must be positive")
        if not self.regions:
            raise ValueError("at least one memory region is required")
        if self.access_bytes <= 0:
            raise ValueError(f"access_bytes must be positive, got {self.access_bytes}")

    def with_instructions(self, instructions: int) -> "TraceSpec":
        """Return a copy of the spec with a different trace length."""
        return replace(self, instructions=instructions)

    def scaled_regions(self, factor: float) -> "TraceSpec":
        """Return a copy with every region's working set scaled by *factor*."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        regions = tuple(
            replace(r, size_bytes=max(64, int(r.size_bytes * factor))) for r in self.regions
        )
        return replace(self, regions=regions)

    def scaled(self, scale: int) -> "TraceSpec":
        """Scale every footprint down by *scale* to match a scaled machine.

        Workload profiles declare *paper-scale* characteristics (real code
        and working-set sizes).  To keep the per-kilo-instruction counters
        meaningful on short traces, the characterization framework shrinks
        both the machine (:func:`repro.uarch.config.scaled_machine`) and
        the spec by the same factor, preserving every footprint-to-capacity
        ratio.
        """
        if scale <= 0:
            raise ValueError("scale must be positive")
        if scale == 1:
            return self
        shrunk = self.scaled_regions(1.0 / scale)
        return replace(
            shrunk,
            code_footprint=max(1024, self.code_footprint // scale),
            kernel_code_footprint=max(1024, self.kernel_code_footprint // scale),
            kernel_buffer_bytes=max(4096, self.kernel_buffer_bytes // scale),
        )


@dataclass
class TraceStats:
    """Counts accumulated while a trace is generated."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    fp_ops: int = 0
    kernel_instructions: int = 0

    @property
    def kernel_fraction(self) -> float:
        return self.kernel_instructions / self.instructions if self.instructions else 0.0


#: Default number of micro-ops per batch on the fast path.
DEFAULT_BATCH_SIZE = 8192


class TraceBatch:
    """A chunk of micro-ops stored as parallel field columns.

    The batched fast engine (:mod:`repro.perf.fastpath`) consumes micro-ops
    in struct-of-arrays form: one column per :class:`MicroOp` field, in
    program order.  Columns are plain Python lists, which the engine's
    simulation loop zips directly.
    """

    __slots__ = ("op", "pc", "addr", "taken", "target", "dep1", "dep2", "kernel")

    def __init__(self, op, pc, addr, taken, target, dep1, dep2, kernel) -> None:
        self.op = op
        self.pc = pc
        self.addr = addr
        self.taken = taken
        self.target = target
        self.dep1 = dep1
        self.dep2 = dep2
        self.kernel = kernel

    def __len__(self) -> int:
        return len(self.op)

    def micro_ops(self) -> list[MicroOp]:
        """Rehydrate the batch into :class:`MicroOp` objects (tests only)."""
        return [
            MicroOp(
                OpClass(o),
                pc,
                addr=addr,
                taken=taken,
                target=target,
                dep1=d1,
                dep2=d2,
                kernel=kern,
            )
            for o, pc, addr, taken, target, d1, d2, kern in zip(
                self.op,
                self.pc,
                self.addr,
                self.taken,
                self.target,
                self.dep1,
                self.dep2,
                self.kernel,
            )
        ]


class _Columns:
    """Append-side accumulator behind :meth:`SyntheticTrace.iter_batches`."""

    __slots__ = ("op", "pc", "addr", "taken", "target", "dep1", "dep2", "kernel")

    def __init__(self) -> None:
        self.op: list[int] = []
        self.pc: list[int] = []
        self.addr: list[int] = []
        self.taken: list[bool] = []
        self.target: list[int] = []
        self.dep1: list[int] = []
        self.dep2: list[int] = []
        self.kernel: list[bool] = []

    def __len__(self) -> int:
        return len(self.op)

    def carve(self, n: int) -> TraceBatch:
        """Cut the first *n* accumulated ops into a :class:`TraceBatch`."""
        batch = TraceBatch(
            self.op[:n],
            self.pc[:n],
            self.addr[:n],
            self.taken[:n],
            self.target[:n],
            self.dep1[:n],
            self.dep2[:n],
            self.kernel[:n],
        )
        del self.op[:n]
        del self.pc[:n]
        del self.addr[:n]
        del self.taken[:n]
        del self.target[:n]
        del self.dep1[:n]
        del self.dep2[:n]
        del self.kernel[:n]
        return batch


class _BranchSite:
    """Static branch site state: kind, bias, loop trip counter, targets."""

    __slots__ = ("kind", "bias_taken", "trip", "remaining", "targets", "back_target")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.bias_taken = True
        self.trip = 0
        self.remaining = 0
        self.targets: list[int] = []
        self.back_target = 0


class _RegionCursor:
    """Per-region access-pattern state."""

    __slots__ = ("region", "base", "offset", "burst_left")

    def __init__(self, region: MemoryRegion, base: int) -> None:
        self.region = region
        self.base = base
        self.offset = 0
        self.burst_left = 0


class SyntheticTrace:
    """Deterministic micro-op stream expanded from a :class:`TraceSpec`.

    Iterating the trace twice yields the identical sequence (the RNG is
    reseeded per iteration), so the pipeline can stream without the trace
    being materialised.
    """

    def __init__(self, spec: TraceSpec) -> None:
        self.spec = spec
        self.stats = TraceStats()

    # -- public API --------------------------------------------------------

    def __iter__(self):
        return self._generate()

    def __len__(self) -> int:
        return self.spec.instructions

    def materialize(self) -> list[MicroOp]:
        """Expand the full stream into a list (tests / small traces only)."""
        return list(self._generate())

    # -- batched generation (fast path) ------------------------------------

    def iter_batches(self, batch_size: int = DEFAULT_BATCH_SIZE):
        """Yield the full stream as :class:`TraceBatch` chunks.

        This is the batch twin of :meth:`__iter__`: it replays the exact
        same RNG call sequence (the equivalence is property-tested in
        ``tests/uarch/test_fastpath.py``), so the concatenated batches are
        bit-identical to the scalar stream, including ``self.stats``.
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        spec = self.spec
        rng = random.Random(spec.seed)
        stats = TraceStats()
        self.stats = stats

        f = spec.kernel_fraction
        episode_len = max(1, spec.kernel_episode_len)
        user_gap = episode_len * (1.0 - f) / f if f > 0 else 0.0
        if user_gap > spec.instructions:
            user_gap = 0.0

        user = _ModeState(spec, rng, kernel=False)
        kern = _ModeState(spec, rng, kernel=True)
        cols = _Columns()

        remaining = spec.instructions
        kernel_remaining = 0
        while remaining > 0:
            if kernel_remaining > 0:
                state = kern
                take = min(kernel_remaining, remaining)
            else:
                state = user
                if user_gap > 0:
                    gap = max(1, int(user_gap * rng.uniform(0.7, 1.3)))
                else:
                    gap = remaining
                take = min(gap, remaining)
            state.emit_run(take, cols)
            remaining -= take
            if state is kern:
                kernel_remaining -= take
                stats.kernel_instructions += take
            elif user_gap > 0 and remaining > 0:
                kernel_remaining = max(1, int(episode_len * rng.uniform(0.7, 1.3)))
            stats.instructions += take
            stats.loads += state.block_loads
            stats.stores += state.block_stores
            stats.branches += state.block_branches
            stats.fp_ops += state.block_fp
            state.clear_block_counts()
            while len(cols) >= batch_size:
                yield cols.carve(batch_size)
        if len(cols):
            yield cols.carve(len(cols))

    # -- generation --------------------------------------------------------

    def _generate(self):
        spec = self.spec
        rng = random.Random(spec.seed)
        stats = TraceStats()
        self.stats = stats

        # Syscall-episode cadence chosen so kernel instructions make up
        # kernel_fraction of the stream: user gap = L * (1 - f) / f.
        # Lengths are jittered ±30 % rather than exponential so the
        # realised fraction concentrates tightly around the target.
        f = spec.kernel_fraction
        episode_len = max(1, spec.kernel_episode_len)
        user_gap = episode_len * (1.0 - f) / f if f > 0 else 0.0
        if user_gap > spec.instructions:
            # The expected number of episodes is below one: all-user trace.
            user_gap = 0.0

        user = _ModeState(spec, rng, kernel=False)
        kern = _ModeState(spec, rng, kernel=True)

        remaining = spec.instructions
        kernel_remaining = 0
        while remaining > 0:
            if kernel_remaining > 0:
                state = kern
                take = min(kernel_remaining, remaining)
            else:
                state = user
                if user_gap > 0:
                    gap = max(1, int(user_gap * rng.uniform(0.7, 1.3)))
                else:
                    gap = remaining
                take = min(gap, remaining)
            produced = 0
            while produced < take:
                block = state.emit_block(min(take - produced, remaining - produced))
                for uop in block:
                    yield uop
                produced += len(block)
            remaining -= produced
            if state is kern:
                kernel_remaining -= produced
                stats.kernel_instructions += produced
            elif user_gap > 0 and remaining > 0:
                kernel_remaining = max(1, int(episode_len * rng.uniform(0.7, 1.3)))
            stats.instructions += produced
            stats.loads += state.block_loads
            stats.stores += state.block_stores
            stats.branches += state.block_branches
            stats.fp_ops += state.block_fp
            state.clear_block_counts()


class _ModeState:
    """Generation state for one privilege mode (user or kernel)."""

    __slots__ = (
        "spec",
        "rng",
        "kernel",
        "pc",
        "code_base",
        "code_size",
        "hot_size",
        "sites",
        "cursors",
        "weights_cum",
        "weight_total",
        "last_load_distance",
        "index",
        "op_choices",
        "op_cum",
        "op_table",
        "region_table",
        "log_one_minus_p",
        "body_lens",
        "block_loads",
        "block_stores",
        "block_branches",
        "block_fp",
    )

    def __init__(self, spec: TraceSpec, rng: random.Random, kernel: bool) -> None:
        self.spec = spec
        self.rng = rng
        self.kernel = kernel
        if kernel:
            self.code_base = KERNEL_CODE_BASE
            self.code_size = spec.kernel_code_footprint
            regions = (
                MemoryRegion("kbuf-src", spec.kernel_buffer_bytes, 1.0, "sequential"),
                MemoryRegion("kbuf-dst", spec.kernel_buffer_bytes, 1.0, "sequential"),
            )
            data_base = KERNEL_DATA_BASE
        else:
            self.code_base = USER_CODE_BASE
            self.code_size = spec.code_footprint
            regions = spec.regions
            data_base = USER_DATA_BASE
        self.hot_size = max(256, int(self.code_size * spec.hot_code_fraction))
        self.pc = self.code_base
        self.sites: dict[int, _BranchSite] = {}
        self.cursors = []
        base = data_base
        for region in regions:
            self.cursors.append(_RegionCursor(region, base))
            # Keep regions disjoint and page aligned.
            base += ((region.size_bytes + 4095) // 4096 + 1) * 4096
        total = sum(r.weight for r in regions)
        if total <= 0:
            raise ValueError("region weights must sum to a positive value")
        acc = 0.0
        self.weights_cum = []
        for region in regions:
            acc += region.weight / total
            self.weights_cum.append(acc)
        self.weight_total = total
        self.last_load_distance = 0
        self.index = 0

        # Kernel code is copy-loop flavoured: more memory ops.
        if kernel:
            load_f, store_f = 0.34, 0.30
            fp_f, mul_f, div_f = 0.0, 0.0, 0.0
        else:
            load_f = spec.load_fraction
            store_f = spec.store_fraction
            fp_f = spec.fp_fraction
            mul_f = spec.mul_fraction
            div_f = spec.div_fraction
        choices = [
            (OpClass.LOAD, load_f),
            (OpClass.STORE, store_f),
            (OpClass.FP, fp_f),
            (OpClass.MUL, mul_f),
            (OpClass.DIV, div_f),
        ]
        alu_f = 1.0 - sum(weight for _, weight in choices)
        choices.append((OpClass.ALU, alu_f))
        self.op_choices = [op for op, _ in choices]
        cum = []
        acc = 0.0
        for _, weight in choices:
            acc += weight
            cum.append(acc)
        self.op_cum = cum

        # emit_run's per-mode constants.  Both cumulative lists are
        # non-decreasing, so bisect_right finds the first threshold above
        # a draw — the linear scans' pick — and the appended sentinel is
        # their fall-through (ALU, the last region).
        self.op_table = tuple(int(op) for op in self.op_choices) + (int(OpClass.ALU),)
        table = []
        for cursor in self.cursors:
            region = cursor.region
            # Sequential and strided walks advance by a fixed step; 0 marks
            # the random jumps _data_address draws.
            step = {"sequential": spec.access_bytes, "strided": region.stride}.get(
                region.pattern, 0
            )
            table.append((cursor, cursor.base, region.size_bytes, step))
        self.region_table = tuple(table) + (table[-1],)
        # _geometric's operands.  With p == 1 the draw is always 1: dividing
        # a finite log by -inf gives 0.0, and int(0.0) + 1 == 1.
        p = 1.0 / max(1.0, spec.dep_mean)
        self.log_one_minus_p = math.log(1.0 - p) if p < 1.0 else -math.inf
        self.body_lens: dict[int, int] = {}
        self.block_loads = 0
        self.block_stores = 0
        self.block_branches = 0
        self.block_fp = 0

    def clear_block_counts(self) -> None:
        self.block_loads = 0
        self.block_stores = 0
        self.block_branches = 0
        self.block_fp = 0

    # -- helpers -----------------------------------------------------------

    def _pick_op(self) -> OpClass:
        r = self.rng.random()
        cum = self.op_cum
        for i, threshold in enumerate(cum):
            if r < threshold:
                return self.op_choices[i]
        return OpClass.ALU

    def _pick_region(self) -> _RegionCursor:
        if len(self.cursors) == 1:
            return self.cursors[0]
        r = self.rng.random()
        for i, threshold in enumerate(self.weights_cum):
            if r < threshold:
                return self.cursors[i]
        return self.cursors[-1]

    def _data_address(self, cursor: _RegionCursor) -> tuple[int, bool]:
        """Return (address, is_pointer_chase) for one data access."""
        region = cursor.region
        spec = self.spec
        if region.pattern == "sequential":
            addr = cursor.base + cursor.offset
            cursor.offset = (cursor.offset + spec.access_bytes) % region.size_bytes
            return addr, False
        if region.pattern == "strided":
            addr = cursor.base + cursor.offset
            cursor.offset = (cursor.offset + region.stride) % region.size_bytes
            return addr, False
        # random / pointer: jump to a fresh location, then walk the record.
        if cursor.burst_left > 0:
            cursor.burst_left -= 1
            cursor.offset = (cursor.offset + spec.access_bytes) % region.size_bytes
        else:
            cursor.burst_left = region.burst - 1
            span = region.size_bytes
            if region.hot_fraction < 1.0 and self.rng.random() < region.hot_weight:
                span = max(spec.access_bytes, int(region.size_bytes * region.hot_fraction))
            cursor.offset = self.rng.randrange(0, span, spec.access_bytes or 8)
        # Pointer chasing serialises only the jump access, not the record walk.
        chase = region.pattern == "pointer" and cursor.burst_left == region.burst - 1
        return cursor.base + cursor.offset, chase

    def _dep_pair(self) -> tuple[int, int]:
        spec = self.spec
        rng = self.rng
        if rng.random() >= spec.dep_density:
            return 0, 0
        mean = max(1.0, spec.dep_mean)
        p = 1.0 / mean
        d1 = self._geometric(p)
        d2 = self._geometric(p) if rng.random() < 0.4 else 0
        return min(d1, MAX_DEP_DISTANCE, self.index), min(d2, MAX_DEP_DISTANCE, self.index)

    def _geometric(self, p: float) -> int:
        u = self.rng.random()
        if p >= 1.0:
            # Degenerate geometric (dep_mean <= 1): the draw is always 1.
            return 1
        # Inverse-CDF geometric starting at 1.
        return max(1, int(math.log(max(u, 1e-12)) / math.log(1.0 - p)) + 1)

    def _jump_target(self) -> int:
        """Pick a far-jump target: hot region with high probability."""
        rng = self.rng
        if rng.random() < self.spec.hot_code_weight:
            span = self.hot_size
        else:
            span = self.code_size
        return self.code_base + rng.randrange(0, max(span, 4), 4)

    @staticmethod
    def _pc_hash(pc: int) -> int:
        """Deterministic 32-bit hash of a pc — static code layout."""
        h = (pc * 0x9E3779B1) & 0xFFFFFFFF
        h ^= h >> 15
        return (h * 0x85EBCA6B) & 0xFFFFFFFF

    def _block_body_len(self, pc: int) -> int:
        """Static body length of the basic block starting at *pc*.

        Derived from a hash of the pc (not the RNG) so that re-executing a
        block — e.g. each loop iteration — replays the identical layout and
        branch sites, which is what lets the predictors learn.
        """
        u = (self._pc_hash(pc) >> 8) / float(1 << 24)
        mean = self.spec.mean_block_len - 1.0
        length = int(-mean * math.log(max(u, 1e-9))) + 1
        return min(length, 64)

    def _branch_site(self, pc: int) -> _BranchSite:
        site = self.sites.get(pc)
        if site is not None:
            return site
        rng = self.rng
        spec = self.spec
        # The *kind* of branch at a pc is a static property: derive the
        # selectors from the pc hash, not from the RNG stream.
        h = self._pc_hash(pc ^ 0x51ED)
        kind_u = (h & 0xFFFF) / 65536.0
        sub_u = ((h >> 16) & 0xFFFF) / 65536.0
        if kind_u < spec.call_fraction:
            if sub_u < spec.indirect_fraction:
                site = _BranchSite("indirect")
                site.targets = [self._jump_target() for _ in range(max(2, spec.indirect_targets))]
            else:
                site = _BranchSite("jump")
                site.targets = [self._jump_target()]
        elif kind_u < spec.call_fraction + (1 - spec.call_fraction) * spec.loop_branch_fraction:
            site = _BranchSite("loop")
            site.trip = max(1, int(rng.expovariate(1.0 / max(spec.mean_trip_count, 1.0))))
            site.remaining = site.trip
            back = rng.randrange(16, 256, 4)
            site.back_target = max(self.code_base, pc - back)
        else:
            site = _BranchSite("cond")
            site.bias_taken = sub_u < spec.taken_bias
            site.targets = [pc + rng.randrange(8, 128, 4)]
        self.sites[pc] = site
        return site

    # -- block emission ----------------------------------------------------

    def emit_block(self, budget: int) -> list[MicroOp]:
        """Emit one basic block (body + terminating branch), ≤ *budget* ops."""
        spec = self.spec
        rng = self.rng
        body_len = min(self._block_body_len(self.pc), max(1, budget - 1))
        ops: list[MicroOp] = []
        pc = self.pc
        for _ in range(body_len):
            op_class = self._pick_op()
            dep1, dep2 = self._dep_pair()
            addr = 0
            if op_class == OpClass.LOAD or op_class == OpClass.STORE:
                cursor = self._pick_region()
                addr, chase = self._data_address(cursor)
                if chase and self.last_load_distance:
                    # Serialise behind the previous load (pointer chasing).
                    dep1 = min(self.last_load_distance, MAX_DEP_DISTANCE)
                if op_class == OpClass.LOAD:
                    self.block_loads += 1
                else:
                    self.block_stores += 1
            elif op_class == OpClass.FP:
                self.block_fp += 1
            uop = MicroOp(op_class, pc, addr=addr, dep1=dep1, dep2=dep2, kernel=self.kernel)
            ops.append(uop)
            if op_class == OpClass.LOAD:
                self.last_load_distance = 1
            elif self.last_load_distance:
                self.last_load_distance += 1
            pc += 4
            self.index += 1

        if len(ops) < budget:
            branch_pc = pc
            site = self._branch_site(branch_pc)
            taken, target = self._resolve_branch(site, branch_pc)
            ops.append(
                MicroOp(
                    OpClass.BRANCH,
                    branch_pc,
                    taken=taken,
                    target=target if taken else branch_pc + 4,
                    dep1=1,
                    kernel=self.kernel,
                )
            )
            self.block_branches += 1
            self.index += 1
            if self.last_load_distance:
                self.last_load_distance += 1
            self.pc = target if taken else branch_pc + 4
            # Keep the pc inside the mode's code segment.
            if not self.code_base <= self.pc < self.code_base + self.code_size:
                self.pc = self.code_base + (
                    (self.pc - self.code_base) % self.code_size
                ) // 4 * 4
        else:
            self.pc = pc
        return ops

    def emit_run(self, take: int, cols: _Columns) -> None:
        """Batch twin of the scalar generator's :meth:`emit_block` loop.

        Appends exactly *take* micro-ops — one user or kernel episode — to
        *cols* as consecutive basic blocks, each given the budget left in
        the episode.  The fields, and every RNG call and its order, are
        those :meth:`emit_block` produces; floating-point expressions are
        kept operation-for-operation identical so every ``int()``
        truncation lands on the same value.  The generator state stays in
        locals until the episode ends, and the columns that are constant
        within a block (``pc``, ``taken``, ``target``, ``kernel``) grow by
        one ``extend`` per block.
        """
        spec = self.spec
        rng = self.rng
        rng_random = rng.random
        log = math.log
        dep_density = spec.dep_density
        log_one_minus_p = self.log_one_minus_p
        op_cum = self.op_cum
        op_table = self.op_table
        weights_cum = self.weights_cum
        region_table = self.region_table
        single_region = len(self.cursors) == 1
        body_lens = self.body_lens
        sites_get = self.sites.get
        kernel = self.kernel
        code_base = self.code_base
        code_size = self.code_size
        code_end = code_base + code_size
        op_load = int(OpClass.LOAD)
        op_store = int(OpClass.STORE)
        op_fp = int(OpClass.FP)
        op_branch = int(OpClass.BRANCH)

        op_append = cols.op.append
        addr_append = cols.addr.append
        dep1_append = cols.dep1.append
        dep2_append = cols.dep2.append
        pc_extend = cols.pc.extend
        taken_col = cols.taken
        target_col = cols.target
        kernel_extend = cols.kernel.extend

        pc = self.pc
        index = self.index
        # The scalar last_load_distance is index - last_load_at.
        last_load_at = index - self.last_load_distance if self.last_load_distance else None
        loads = stores = fp = branches = 0
        produced = 0
        while produced < take:
            budget = take - produced
            body_len = body_lens.get(pc)
            if body_len is None:
                body_len = body_lens[pc] = self._block_body_len(pc)
            cap = budget - 1 if budget > 1 else 1
            if body_len > cap:
                body_len = cap
            start = index
            for index in range(start, start + body_len):
                op = op_table[bisect_right(op_cum, rng_random())]
                # _dep_pair, inlined (including _geometric: both logs are
                # negative, so the draw is >= 1 without its max()).
                if rng_random() >= dep_density:
                    dep1 = dep2 = 0
                else:
                    u = rng_random()
                    dep1 = int(log(u if u > 1e-12 else 1e-12) / log_one_minus_p) + 1
                    if dep1 > MAX_DEP_DISTANCE:
                        dep1 = MAX_DEP_DISTANCE
                    if dep1 > index:
                        dep1 = index
                    if rng_random() < 0.4:
                        u = rng_random()
                        dep2 = int(log(u if u > 1e-12 else 1e-12) / log_one_minus_p) + 1
                        if dep2 > MAX_DEP_DISTANCE:
                            dep2 = MAX_DEP_DISTANCE
                        if dep2 > index:
                            dep2 = index
                    else:
                        dep2 = 0
                if op == op_load or op == op_store:
                    if single_region:
                        cursor, base, size, step = region_table[0]
                    else:
                        cursor, base, size, step = region_table[
                            bisect_right(weights_cum, rng_random())
                        ]
                    if step:
                        offset = cursor.offset
                        addr = base + offset
                        cursor.offset = (offset + step) % size
                    else:
                        addr, chase = self._data_address(cursor)
                        if chase and last_load_at is not None:
                            dep1 = min(index - last_load_at, MAX_DEP_DISTANCE)
                    if op == op_load:
                        loads += 1
                        last_load_at = index
                    else:
                        stores += 1
                else:
                    addr = 0
                    if op == op_fp:
                        fp += 1
                op_append(op)
                addr_append(addr)
                dep1_append(dep1)
                dep2_append(dep2)
            index = start + body_len
            taken_col.extend([False] * body_len)
            target_col.extend([0] * body_len)
            count = body_len
            next_pc = pc + 4 * body_len
            if body_len < budget:
                branch_pc = next_pc
                site = sites_get(branch_pc)
                if site is None:
                    site = self._branch_site(branch_pc)
                taken, target = self._resolve_branch(site, branch_pc)
                next_pc = target if taken else branch_pc + 4
                op_append(op_branch)
                addr_append(0)
                dep1_append(1)
                dep2_append(0)
                taken_col.append(taken)
                target_col.append(next_pc)
                branches += 1
                index += 1
                count += 1
                # Keep the pc inside the mode's code segment.
                if not code_base <= next_pc < code_end:
                    next_pc = code_base + ((next_pc - code_base) % code_size) // 4 * 4
            pc_extend(range(pc, pc + 4 * count, 4))
            kernel_extend([kernel] * count)
            pc = next_pc
            produced += count

        self.pc = pc
        self.index = index
        self.last_load_distance = 0 if last_load_at is None else index - last_load_at
        self.block_loads += loads
        self.block_stores += stores
        self.block_fp += fp
        self.block_branches += branches

    def _resolve_branch(self, site: _BranchSite, pc: int) -> tuple[bool, int]:
        rng = self.rng
        spec = self.spec
        if site.kind == "jump":
            return True, site.targets[0]
        if site.kind == "indirect":
            return True, rng.choice(site.targets)
        if site.kind == "loop":
            site.remaining -= 1
            if site.remaining > 0:
                return True, site.back_target
            site.remaining = site.trip
            return False, pc + 4
        # Conditional, data-dependent branch with a fixed forward target.
        if rng.random() < spec.branch_regularity:
            taken = site.bias_taken
        else:
            taken = rng.random() < spec.taken_bias
        return taken, site.targets[0] if taken else pc + 4

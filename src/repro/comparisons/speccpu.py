"""SPEC CPU2006 group proxies.

The paper reports SPEC CPU2006 "averaged into two groups" (SPECINT and
SPECFP) with the first reference inputs.  Each proxy runs a small basket
of kernels representative of the group's dominant codes:

* SPECINT: LZ77-style compression (bzip2/gzip-ish), sparse shortest path
  (mcf/astar-ish), and red-black-tree insertion/search (gcc/omnetpp's
  pointer-heavy allocation behaviour);
* SPECFP: dense Jacobi stencil (leslie3d/zeusmp-ish), N-body step
  (namd-ish), and polynomial evaluation over grids (povray-ish).

Profiles: native optimized binaries — modest instruction footprints
(hundreds of KB but with strong loop locality), almost no kernel time,
*large data* working sets (SPEC's reference inputs run hundreds of MB:
the paper's Figure 11 shows SPEC DTLB walk rates above the data-analysis
workloads), and — for SPECINT — the worst branch behaviour in the paper's
Figure 12 apart from the services.
"""

from __future__ import annotations

import heapq
import random
from typing import Any

# NumPy is imported inside the run() kernels that use it: characterizing
# an entry reads only its profile, and a characterize process stays free
# of NumPy's import time and resident memory.

from repro.comparisons.base import ComparisonRun, ComparisonWorkload, register
from repro.uarch.trace import MemoryRegion


def lz77_compress(data: bytes, window: int = 255) -> list[tuple[int, int, int]]:
    """Toy LZ77: (offset, length, next byte) triples."""
    out = []
    i = 0
    n = len(data)
    while i < n:
        best_len = 0
        best_off = 0
        start = max(0, i - window)
        for j in range(start, i):
            length = 0
            while i + length < n and data[j + length] == data[i + length] and length < 255:
                if j + length >= i:
                    break
                length += 1
            if length > best_len:
                best_len, best_off = length, i - j
        # None marks a match that runs to end-of-input (no literal follows).
        nxt = data[i + best_len] if i + best_len < n else None
        out.append((best_off, best_len, nxt))
        i += best_len + 1
    return out


def lz77_decompress(tokens: list[tuple[int, int, int | None]]) -> bytes:
    out = bytearray()
    for offset, length, nxt in tokens:
        if length:
            start = len(out) - offset
            for k in range(length):
                out.append(out[start + k])
        if nxt is not None:
            out.append(nxt)
    return bytes(out)


def dijkstra(adjacency: dict[int, list[tuple[int, int]]], source: int) -> dict[int, int]:
    """Sparse shortest paths (the mcf/astar-style pointer chase)."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist.get(node, 1 << 62):
            continue
        for neighbor, weight in adjacency.get(node, ()):
            nd = d + weight
            if nd < dist.get(neighbor, 1 << 62):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return dist


@register
class SpecInt(ComparisonWorkload):
    name = "SPECINT"
    suite = "SPEC CPU2006"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        rng = random.Random(21)
        # compression kernel with a self-check
        text = ("the quick brown fox " * max(4, int(40 * scale))).encode()
        tokens = lz77_compress(text)
        assert lz77_decompress(tokens) == text
        ratio = len(text) / (3 * len(tokens))
        # sparse graph shortest path
        n = max(10, int(400 * scale))
        adjacency = {
            i: [(rng.randrange(n), rng.randint(1, 9)) for _ in range(4)] for i in range(n)
        }
        dist = dijkstra(adjacency, 0)
        return ComparisonRun(
            self.name,
            None,
            {"compression_ratio": ratio, "reachable": float(len(dist)), "nodes": float(n)},
        )

    def uarch_profile(self) -> dict[str, Any]:
        return {
            "load_fraction": 0.28,
            "store_fraction": 0.11,
            "fp_fraction": 0.0,
            "mul_fraction": 0.01,
            # optimized native code, bigger than HPCC kernels but with a
            # hot loop nest that caches well
            "code_footprint": 180 * 1024,
            "hot_code_fraction": 0.25,
            "hot_code_weight": 0.95,
            "call_fraction": 0.08,
            "indirect_fraction": 0.02,
            "mean_block_len": 6.0,
            "regions": (
                # mcf-style pointer chasing over a big arena
                MemoryRegion("graph-arena", 16 << 20, 0.35, "pointer", burst=2,
                             hot_fraction=0.015, hot_weight=0.93),
                MemoryRegion("match-window", 1 << 20, 0.5, "random", burst=4,
                             hot_fraction=0.3, hot_weight=0.9),
            ),
            "kernel_fraction": 0.01,
            # data-dependent branches everywhere (compression matches,
            # heap compares): SPECINT's Figure 12 bar is the tallest of
            # the non-service workloads
            "loop_branch_fraction": 0.35,
            "mean_trip_count": 10.0,
            "branch_regularity": 0.88,
            "taken_bias": 0.5,
            "dep_mean": 2.8,
            "dep_density": 0.72,
            "partial_register_ratio": 0.05,
        }


@register
class SpecFp(ComparisonWorkload):
    name = "SPECFP"
    suite = "SPEC CPU2006"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        import numpy as np

        n = max(8, int(64 * scale))
        # Jacobi stencil until residual drops
        grid = np.zeros((n, n))
        grid[0, :] = 1.0
        for _ in range(50):
            interior = 0.25 * (
                grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
            )
            grid[1:-1, 1:-1] = interior
        # N-body step (direct sum)
        rng = np.random.default_rng(22)
        bodies = max(4, int(40 * scale))
        pos = rng.standard_normal((bodies, 3))
        mass = np.abs(rng.standard_normal(bodies)) + 0.1
        acc = np.zeros_like(pos)
        for i in range(bodies):
            delta = pos - pos[i]
            r2 = (delta**2).sum(axis=1) + 1e-9
            acc[i] = (delta * (mass / r2**1.5)[:, None]).sum(axis=0)
        return ComparisonRun(
            self.name,
            None,
            {
                "stencil_mean": float(grid.mean()),
                "acc_norm": float(np.linalg.norm(acc)),
                "grid": float(n),
            },
        )

    def uarch_profile(self) -> dict[str, Any]:
        return {
            "load_fraction": 0.30,
            "store_fraction": 0.09,
            "fp_fraction": 0.34,
            "mul_fraction": 0.02,
            "div_fraction": 0.004,
            "code_footprint": 120 * 1024,
            "hot_code_fraction": 0.3,
            "hot_code_weight": 0.96,
            "call_fraction": 0.05,
            "indirect_fraction": 0.0,
            "mean_block_len": 12.0,
            "regions": (
                # stencil sweeps large grids with neighbour reuse
                MemoryRegion("grid", 64 << 20, 0.15, "sequential"),
                MemoryRegion("grid-prev-row", 2 << 20, 0.05, "strided", stride=256),
                MemoryRegion("particles", 4 << 20, 0.25, "random", burst=6,
                             hot_fraction=0.2, hot_weight=0.9),
            ),
            "kernel_fraction": 0.005,
            "loop_branch_fraction": 0.85,
            "mean_trip_count": 64.0,
            "branch_regularity": 0.99,
            "dep_mean": 4.5,
            "dep_density": 0.55,
            "partial_register_ratio": 0.03,
        }

"""HPCC 1.4 proxies — seven programs, each really computing its kernel.

Footnote 1 of the paper: "HPL solves linear equations.  STREAM is a simple
synthetic benchmark, streaming access memory.  RandomAccess updates
(remote) memory randomly.  DGEMM performs matrix multiplications.  FFT
performs discrete fourier transform.  COMM is a set of tests to measure
latency and bandwidth of the interconnection system."  PTRANS transposes
a distributed matrix.

Profiles: HPCC programs are small native binaries (KB-scale instruction
footprints, near-zero kernel time except RandomAccess's ~31 %, extremely
regular loop control) whose *data* behaviour spans the locality spectrum —
which is exactly why the paper uses them as the contrast group.
"""

from __future__ import annotations

import cmath
import math
from typing import Any

# NumPy is imported inside the run() kernels that use it: characterizing
# an entry reads only its profile, and a characterize process stays free
# of NumPy's import time and resident memory.

from repro.comparisons.base import ComparisonRun, ComparisonWorkload, register
from repro.uarch.trace import MemoryRegion

#: Shared profile bits for the HPCC family: tiny hot binaries, countable
#: loops, no managed runtime.
_HPCC_BASE: dict[str, Any] = {
    "code_footprint": 24 * 1024,
    "hot_code_fraction": 0.4,
    "hot_code_weight": 0.95,
    "call_fraction": 0.04,
    "indirect_fraction": 0.0,
    "mean_block_len": 14.0,
    "loop_branch_fraction": 0.9,
    "mean_trip_count": 96.0,
    "branch_regularity": 0.998,
    "kernel_fraction": 0.01,
    "kernel_episode_len": 150,
    "kernel_code_footprint": 64 * 1024,
    "partial_register_ratio": 0.02,
}


def _hpcc_profile(**overrides: Any) -> dict[str, Any]:
    params = dict(_HPCC_BASE)
    params.update(overrides)
    return params


@register
class Hpl(ComparisonWorkload):
    """HPL: dense LU factorisation with partial pivoting + solve."""

    name = "HPCC-HPL"
    suite = "HPCC"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        import numpy as np

        n = max(8, int(96 * scale))
        rng = np.random.default_rng(11)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        lu = a.copy()
        piv = np.arange(n)
        for k in range(n - 1):
            pivot = k + int(np.argmax(np.abs(lu[k:, k])))
            if pivot != k:
                lu[[k, pivot]] = lu[[pivot, k]]
                piv[[k, pivot]] = piv[[pivot, k]]
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
        # forward/back substitution
        y = b[piv].copy()
        for i in range(1, n):
            y[i] -= lu[i, :i] @ y[:i]
        x = y.copy()
        for i in range(n - 1, -1, -1):
            x[i] = (y[i] - lu[i, i + 1:] @ x[i + 1:]) / lu[i, i]
        residual = float(np.linalg.norm(a @ x - b) / (np.linalg.norm(a) * np.linalg.norm(x)))
        flops = 2.0 / 3.0 * n**3
        return ComparisonRun(self.name, x, {"residual": residual, "flops": flops, "n": n})

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            # blocked GEMM-dominated update: FP-dense, cache-tiled
            load_fraction=0.30, store_fraction=0.09, fp_fraction=0.36, mul_fraction=0.02,
            regions=(
                MemoryRegion("panel", 96 << 10, 1.0, "sequential"),
                MemoryRegion("trailing", 96 << 10, 1.0, "sequential"),
            ),
            # FMA chains bound IPC near the paper's ~1.2
            dep_mean=5.0, dep_density=0.55,
        )


@register
class Dgemm(ComparisonWorkload):
    """DGEMM: blocked C += A·B, verified against numpy."""

    name = "HPCC-DGEMM"
    suite = "HPCC"

    BLOCK = 16

    def run(self, scale: float = 1.0) -> ComparisonRun:
        import numpy as np

        n = max(self.BLOCK, int(64 * scale) // self.BLOCK * self.BLOCK)
        rng = np.random.default_rng(12)
        a = rng.standard_normal((n, n))
        b_mat = rng.standard_normal((n, n))
        c = np.zeros((n, n))
        nb = self.BLOCK
        for i0 in range(0, n, nb):
            for k0 in range(0, n, nb):
                a_blk = a[i0:i0 + nb, k0:k0 + nb]
                for j0 in range(0, n, nb):
                    c[i0:i0 + nb, j0:j0 + nb] += a_blk @ b_mat[k0:k0 + nb, j0:j0 + nb]
        error = float(np.max(np.abs(c - a @ b_mat)))
        return ComparisonRun(self.name, c, {"max_error": error, "flops": 2.0 * n**3, "n": n})

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            load_fraction=0.28, store_fraction=0.08, fp_fraction=0.40, mul_fraction=0.02,
            regions=(
                MemoryRegion("a-block", 64 << 10, 1.0, "sequential"),
                MemoryRegion("b-block", 64 << 10, 1.0, "strided", stride=64),
                MemoryRegion("c-block", 64 << 10, 0.5, "sequential"),
            ),
            dep_mean=6.0, dep_density=0.45,
        )


@register
class Stream(ComparisonWorkload):
    """STREAM: copy/scale/add/triad over arrays far beyond cache."""

    name = "HPCC-STREAM"
    suite = "HPCC"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        import numpy as np

        n = max(1000, int(200_000 * scale))
        a = np.arange(n, dtype=np.float64)
        b = 2.0 * np.ones(n)
        c = np.zeros(n)
        c[:] = a                      # copy
        b[:] = 3.0 * c                # scale
        c[:] = a + b                  # add
        a[:] = b + 4.0 * c            # triad
        checksum = float(a.sum())
        expected = float(np.sum(3.0 * np.arange(n) + 4.0 * (np.arange(n) + 3.0 * np.arange(n))))
        return ComparisonRun(
            self.name, None,
            {"checksum_error": abs(checksum - expected) / max(1.0, abs(expected)),
             "bytes_moved": float(10 * 8 * n), "n": n},
        )

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            load_fraction=0.34, store_fraction=0.17, fp_fraction=0.22,
            regions=(
                MemoryRegion("a", 256 << 20, 1.0, "sequential"),
                MemoryRegion("b", 256 << 20, 1.0, "sequential"),
                MemoryRegion("c", 256 << 20, 1.0, "sequential"),
            ),
            # pure streaming: perfect ILP, bandwidth-bound (paper IPC < 0.5)
            dep_mean=8.0, dep_density=0.4,
        )


@register
class Ptrans(ComparisonWorkload):
    """PTRANS: A = A^T + B — the all-to-all transpose."""

    name = "HPCC-PTRANS"
    suite = "HPCC"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        import numpy as np

        n = max(8, int(128 * scale))
        rng = np.random.default_rng(13)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        original = a.copy()
        result = np.empty_like(a)
        for i in range(n):           # explicit transposed walk
            for j in range(n):
                result[i, j] = original[j, i] + b[i, j]
        error = float(np.max(np.abs(result - (original.T + b))))
        return ComparisonRun(self.name, result, {"max_error": error, "n": n})

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            load_fraction=0.34, store_fraction=0.16, fp_fraction=0.10,
            regions=(
                # column-order walk: large stride defeats line reuse and TLB
                MemoryRegion("a-cols", 8 << 20, 0.1, "strided", stride=2048),
                MemoryRegion("b-rows", 64 << 20, 0.5, "sequential"),
            ),
            dep_mean=6.0, dep_density=0.45,
        )


@register
class RandomAccess(ComparisonWorkload):
    """RandomAccess: GUPS — XOR updates at LCG-random table indices."""

    name = "HPCC-RandomAccess"
    suite = "HPCC"

    POLY = 0x0000000000000007

    def run(self, scale: float = 1.0) -> ComparisonRun:
        log2_size = max(8, int(14 * scale))
        size = 1 << log2_size
        table = list(range(size))
        ran = 1
        updates = 4 * size
        for _ in range(updates):
            ran = ((ran << 1) ^ (self.POLY if ran & (1 << 63) else 0)) & (1 << 64) - 1
            idx = ran & (size - 1)
            table[idx] ^= ran
        # verification: replaying the updates must restore the table
        ran = 1
        for _ in range(updates):
            ran = ((ran << 1) ^ (self.POLY if ran & (1 << 63) else 0)) & (1 << 64) - 1
            table[ran & (size - 1)] ^= ran
        errors = sum(1 for i, v in enumerate(table) if v != i)
        return ComparisonRun(self.name, None, {"errors": errors, "updates": updates, "size": size})

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            load_fraction=0.26, store_fraction=0.13,
            regions=(
                # the GUPS table: uniform single-word random access — the
                # pathological TLB/cache case.  The weight is small because
                # each update is surrounded by RNG + MPI-bucketing code
                # (tens of instructions per table touch).
                MemoryRegion("gups-table", 64 << 20, 0.08, "random", burst=1),
                MemoryRegion("update-buffer", 512 << 10, 1.0, "sequential"),
            ),
            # §IV-A: ~31 % kernel instructions (copy_user_generic_string
            # from the MPI buffer exchanges)
            kernel_fraction=0.31,
            kernel_episode_len=250,
            kernel_buffer_bytes=4 << 20,
            dep_mean=7.0, dep_density=0.45,
        )


@register
class Fft(ComparisonWorkload):
    """FFT: iterative radix-2 Cooley-Tukey, verified against numpy.fft."""

    name = "HPCC-FFT"
    suite = "HPCC"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        import numpy as np

        log_n = max(4, int(10 * scale))
        n = 1 << log_n
        rng = np.random.default_rng(14)
        data = [complex(x, y) for x, y in rng.standard_normal((n, 2))]
        # bit-reversal permutation
        out = list(data)
        j = 0
        for i in range(1, n):
            bit = n >> 1
            while j & bit:
                j ^= bit
                bit >>= 1
            j |= bit
            if i < j:
                out[i], out[j] = out[j], out[i]
        # butterflies
        length = 2
        while length <= n:
            ang = -2.0 * math.pi / length
            wlen = cmath.exp(1j * ang)
            for i in range(0, n, length):
                w = 1.0 + 0.0j
                for k in range(i, i + length // 2):
                    u = out[k]
                    v = out[k + length // 2] * w
                    out[k] = u + v
                    out[k + length // 2] = u - v
                    w *= wlen
            length <<= 1
        reference = np.fft.fft(np.array(data))
        error = float(np.max(np.abs(np.array(out) - reference)) / np.max(np.abs(reference)))
        return ComparisonRun(self.name, out, {"relative_error": error, "n": n})

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            load_fraction=0.30, store_fraction=0.14, fp_fraction=0.30, mul_fraction=0.02,
            regions=(
                # blocked passes are sequential within cache-sized tiles;
                # the bit-reversal permutation is the scattered part
                MemoryRegion("fft-data", 4 << 20, 0.4, "sequential"),
                MemoryRegion("bit-reversal", 2 << 20, 0.06, "random", burst=1),
                MemoryRegion("twiddles", 1 << 20, 0.3, "sequential"),
            ),
            dep_mean=4.0, dep_density=0.6,
        )


@register
class Comm(ComparisonWorkload):
    """COMM (b_eff): ping-pong latency and ring bandwidth on the cluster
    network model — the interconnect test the footnote describes."""

    name = "HPCC-COMM"
    suite = "HPCC"

    def run(self, scale: float = 1.0) -> ComparisonRun:
        from repro.cluster.network import Network, Nic
        from repro.perf.procfs import ProcFs

        nodes = [Nic(ProcFs(f"n{i}")) for i in range(4)]
        net = Network(latency_s=0.0002)
        # ping-pong: 1-byte round trips
        now = 0.0
        rounds = max(1, int(50 * scale))
        for _ in range(rounds):
            now = net.transfer(now, nodes[0], nodes[1], 1)
            now = net.transfer(now, nodes[1], nodes[0], 1)
        latency = now / (2 * rounds)
        # ring bandwidth: 1 MB messages around the ring
        start = now
        message = 1 << 20
        for i, _ in enumerate(nodes):
            now = net.transfer(now, nodes[i], nodes[(i + 1) % len(nodes)], message)
        bandwidth = len(nodes) * message / (now - start)
        return ComparisonRun(
            self.name, None, {"latency_s": latency, "ring_bandwidth_Bps": bandwidth}
        )

    def uarch_profile(self) -> dict[str, Any]:
        return _hpcc_profile(
            load_fraction=0.28, store_fraction=0.16,
            regions=(
                MemoryRegion("send-buffers", 16 << 20, 1.0, "sequential"),
                MemoryRegion("recv-buffers", 16 << 20, 1.0, "sequential"),
            ),
            # message-passing spends most time in the network stack
            kernel_fraction=0.20,
            kernel_episode_len=300,
            kernel_buffer_bytes=4 << 20,
            dep_mean=4.0, dep_density=0.55,
        )

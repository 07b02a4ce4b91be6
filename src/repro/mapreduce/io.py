"""Record I/O helpers: size accounting and distributed inputs.

The engine needs byte sizes for every record it moves (they drive the
cluster timing model and the job counters).  :func:`record_bytes` gives a
deterministic serialized-size estimate for the Python values workloads use
as keys and values; :func:`record_sizes` is its bulk form.  The engine
sizes each record exactly once: through :func:`record_sizes`, or inline
through :data:`_SIZERS` as a combiner job's mapper emits it.  :class:`DistributedInput`
pairs a record set with an HDFS file so map splits inherit block
placement.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cluster.hdfs import Hdfs, HdfsFile


def _chain_bytes(value) -> int:
    """Size a value whose exact type has no :data:`_SIZERS` entry.

    The ``isinstance`` chain the table replaced, less the ``None`` and
    ``bool`` tests no unlisted type can pass: subclasses of the builtin
    types (``IntEnum``, ``namedtuple``, ``numpy.float64``) size like
    their base, anything with ``nbytes`` (NumPy scalars and arrays) sizes
    as that, and the rest cannot be sized.
    """
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return _str_bytes(value)
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (tuple, list)):
        return _sequence_bytes(value)
    if isinstance(value, dict):
        return _dict_bytes(value)
    if hasattr(value, "nbytes"):  # numpy arrays
        return int(value.nbytes)
    raise TypeError(f"cannot size value of type {type(value).__name__}")


def _one_byte(value) -> int:
    return 1


def _eight_bytes(value) -> int:
    return 8


def _str_bytes(value: str) -> int:
    # UTF-8 length; an ASCII string (an O(1) flag check) is its own length.
    return len(value) if value.isascii() else len(value.encode("utf-8", errors="replace"))


def _sequence_bytes(values) -> int:
    total = 2
    for v in values:
        kind = type(v)
        # Flat sequences of numbers (points, link lists, rating pairs) are
        # most of what workloads nest; skip the table call for them.
        if kind is float or kind is int:
            total += 8
        else:
            total += _SIZERS.get(kind, _chain_bytes)(v)
    return total


def _dict_bytes(mapping) -> int:
    sizer = _SIZERS.get
    total = 2
    for k, v in mapping.items():
        total += sizer(type(k), _chain_bytes)(k) + sizer(type(v), _chain_bytes)(v)
    return total


#: Exact type -> sizer.  The one place a value's serialized size is
#: decided; a new record type gets a sizer by getting an entry here.
_SIZERS = {
    type(None): _one_byte,
    bool: _one_byte,
    int: _eight_bytes,
    float: _eight_bytes,
    str: _str_bytes,
    bytes: len,
    tuple: _sequence_bytes,
    list: _sequence_bytes,
    dict: _dict_bytes,
}


def value_bytes(value) -> int:
    """Deterministic serialized size (bytes) of one key or value."""
    return _SIZERS.get(type(value), _chain_bytes)(value)


def record_bytes(key, value) -> int:
    """Size of one (key, value) record including framing overhead."""
    return 4 + value_bytes(key) + value_bytes(value)


def record_sizes(records: Iterable[tuple[object, object]]) -> list[int]:
    """:func:`record_bytes` of every record, in order.

    The engine sizes each record exactly once, through this; every byte
    counter and work estimate is then a sum over (a slice of) the result.
    An ASCII ``str``, an ``int`` or a ``float`` (exact types: not ``bool``,
    not a subclass) is sized inline; everything else goes through
    :data:`_SIZERS`.
    """
    sizer = _SIZERS.get
    return [
        4
        + (
            len(k) if (kind := type(k)) is str and k.isascii()
            else 8 if kind is int or kind is float
            else sizer(kind, _chain_bytes)(k)
        )
        + (
            len(v) if (kind := type(v)) is str and v.isascii()
            else 8 if kind is int or kind is float
            else sizer(kind, _chain_bytes)(v)
        )
        for k, v in records
    ]


def records_bytes(records: Iterable[tuple[object, object]]) -> int:
    return sum(record_sizes(records))


def even_split_ranges(num_records: int, num_splits: int) -> list[tuple[int, int]]:
    """Contiguous ``(start, end)`` record ranges, as even as integers allow."""
    return [
        (num_records * i // num_splits, num_records * (i + 1) // num_splits)
        for i in range(num_splits)
    ]


def split_sums(sizes: Sequence[int], ranges: Iterable[tuple[int, int]]) -> list[int]:
    """Per-split totals of per-record *sizes*."""
    return [sum(sizes[start:end]) for start, end in ranges]


class DistributedInput:
    """Records stored in HDFS: splits follow block boundaries.

    Created via :meth:`put`, which sizes the records, creates the HDFS
    file, and assigns contiguous record ranges to blocks proportionally to
    the block sizes — the analogue of writing a sequence file and letting
    the InputFormat split it per block.

    Records are sized once: :meth:`put` keeps the per-split record-byte
    sums (not the per-record sizes) for the map phase to reuse.  A *list*
    of records is adopted as is, like a file it is not to be edited after
    the put; any other sequence is copied into one.
    """

    def __init__(self, name: str, records: Sequence[tuple[object, object]], hfile: HdfsFile):
        self.name = name
        self.records = records if isinstance(records, list) else list(records)
        self.hfile = hfile
        self._split_ranges = even_split_ranges(len(self.records), max(1, len(hfile.blocks)))
        self._split_record_bytes: list[int] | None = None

    @classmethod
    def put(
        cls, hdfs: Hdfs, name: str, records: Sequence[tuple[object, object]]
    ) -> "DistributedInput":
        sizes = record_sizes(records)
        dist = cls(name, records, hdfs.create_file(name, max(sum(sizes), 1)))
        dist._split_record_bytes = split_sums(sizes, dist._split_ranges)
        return dist

    @property
    def num_splits(self) -> int:
        return len(self._split_ranges)

    def split(self, index: int) -> list[tuple[object, object]]:
        start, end = self._split_ranges[index]
        return self.records[start:end]

    def split_record_bytes(self, index: int) -> int:
        """Summed :func:`record_bytes` of the split's records."""
        if self._split_record_bytes is None:  # built directly, not via put
            self._split_record_bytes = split_sums(
                record_sizes(self.records), self._split_ranges
            )
        return self._split_record_bytes[index]

    def split_bytes(self, index: int) -> int:
        """Bytes the split's map task reads: its HDFS block."""
        if index < len(self.hfile.blocks):
            return self.hfile.blocks[index].size_bytes
        return self.split_record_bytes(index)

    def split_locations(self, index: int) -> tuple[str, ...]:
        if index < len(self.hfile.blocks):
            return self.hfile.blocks[index].replicas
        return ()

    def split_ref(self, index: int) -> tuple[str, int] | None:
        """``(file_name, block_index)`` of the split's HDFS block, if any.

        Lets the scheduler tie a map task back to the block it reads so
        checksum verification and bad-block reporting hit the right
        replica set.  Splits past the block list (tiny inputs) have no
        backing block.
        """
        if index < len(self.hfile.blocks):
            return (self.name, index)
        return None

    @property
    def size_bytes(self) -> int:
        return self.hfile.size_bytes

    def __len__(self) -> int:
        return len(self.records)

"""``value_bytes`` against the ``isinstance`` chain it replaced.

The engine sizes values through an exact-``type()`` table; the chain
below is the previous implementation, kept here as the oracle.  The two
must agree on every value a workload can emit, including the ones the
table does not list (subclasses, NumPy scalars and arrays) and the ones
nothing can size.
"""

import collections
import enum
import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.io import record_bytes, record_sizes, records_bytes, value_bytes


def oracle(value) -> int:
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (tuple, list)):
        return 2 + sum(oracle(v) for v in value)
    if isinstance(value, dict):
        return 2 + sum(oracle(k) + oracle(v) for k, v in value.items())
    if hasattr(value, "nbytes"):  # numpy arrays
        return int(value.nbytes)
    raise TypeError(f"cannot size value of type {type(value).__name__}")


class MyInt(int):
    pass


class MyFloat(float):
    pass


class MyStr(str):
    pass


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 2


Point = collections.namedtuple("Point", "x y")

#: ASCII, 2/3/4-byte code points and lone surrogates (which UTF-8 cannot
#: encode: ``errors="replace"`` makes each one byte).
AWKWARD_CHARS = ["a", " ", "\x00", "é", "字", "😀", "\ud800", "\udfff"]

strings = st.one_of(st.text(max_size=12), st.text(st.sampled_from(AWKWARD_CHARS), max_size=8))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    strings,
    st.binary(max_size=12),
    st.integers().map(MyInt),
    st.floats(allow_nan=False).map(MyFloat),
    strings.map(MyStr),
    st.sampled_from(list(Colour)),
)
try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    np = None
else:
    scalars = st.one_of(
        scalars,
        st.floats(allow_nan=False).map(np.float64),
        st.integers(-(2**62), 2**62).map(np.int64),
        st.lists(st.floats(allow_nan=False), max_size=6).map(np.array),
        st.lists(st.integers(-(2**31), 2**31), max_size=6).map(
            lambda xs: np.array(xs, dtype=np.int64)
        ),
    )

hashable = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), strings,
              st.binary(max_size=6)),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.tuples(inner, inner).map(lambda xy: Point(*xy)),
        st.dictionaries(hashable, inner, max_size=4),
        st.dictionaries(hashable, inner, max_size=3).map(collections.OrderedDict),
    ),
    max_leaves=20,
)


class TestValueBytesMatchesOracle:
    @given(values)
    @settings(max_examples=400, deadline=None)
    def test_value_bytes(self, value):
        assert value_bytes(value) == oracle(value)

    @given(st.lists(st.tuples(hashable, values), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_record_sizes(self, records):
        want = [4 + oracle(k) + oracle(v) for k, v in records]
        assert record_sizes(records) == want
        assert [record_bytes(k, v) for k, v in records] == want
        assert records_bytes(records) == sum(want)

    @pytest.mark.parametrize(
        "value,size",
        [
            ("", 0),
            ("naïve", 6),
            ("\ud800", 1),
            ("a\udfffb", 3),
            ("😀", 4),
            ((True, 1, 1.0, "é", None), 2 + 1 + 8 + 8 + 2 + 1),
            ([False], 3),
            (MyInt(3), 8),
            (MyStr("é"), 2),
            (Colour.RED, 8),
            (Point(1, "ab"), 12),
            ({1: [2.0, (3,)]}, 2 + 8 + 2 + 8 + 2 + 8),
        ],
    )
    def test_pinned_sizes(self, value, size):
        assert value_bytes(value) == oracle(value) == size

    @pytest.mark.skipif(np is None, reason="numpy not importable")
    def test_numpy_values(self):
        for value in (np.float64(1.5), np.int64(7), np.bool_(True), np.zeros(5),
                      np.zeros((2, 3), dtype=np.int32), (np.float64(2.0), np.arange(4))):
            assert value_bytes(value) == oracle(value)
        assert value_bytes(np.float64(1.5)) == 8
        assert value_bytes(np.zeros((2, 3), dtype=np.int32)) == 24


class TestRecordSizesInline:
    """``record_sizes`` sizes exact ASCII ``str``, ``int`` and ``float``
    inline; everything else, ``bool`` (1 byte, not 8) and subclasses
    included, must still size as :func:`record_bytes` does."""

    @given(st.lists(st.tuples(values, values), max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_matches_record_bytes(self, records):
        assert record_sizes(records) == [record_bytes(k, v) for k, v in records]

    @pytest.mark.parametrize(
        "record,size",
        [
            (("abc", 1), 4 + 3 + 8),
            ((True, False), 4 + 1 + 1),
            ((1.5, True), 4 + 8 + 1),
            ((Colour.BLUE, MyFloat(2.0)), 4 + 8 + 8),
            (("é", "\ud800"), 4 + 2 + 1),
            ((MyStr("ab"), ("x", (1, True))), 4 + 2 + 2 + 1 + 2 + 8 + 1),
        ],
    )
    def test_pinned(self, record, size):
        assert record_sizes([record]) == [record_bytes(*record)] == [size]


class TestUnsizable:
    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, frozenset(), 1 + 2j, (1, object()), [[object()]],
         {"k": object()}, {"k": [1, {2}]}, bytearray(b"ab")],
        # A bare object's repr is its address, which differs on every run:
        # spell it object() wherever it appears, so every id is stable.
        ids=lambda v: re.sub(r"<object object at 0x[0-9a-f]+>", "object()", repr(v)),
    )
    def test_type_error_preserved(self, value):
        with pytest.raises(TypeError, match="cannot size value of type"):
            oracle(value)
        with pytest.raises(TypeError, match="cannot size value of type"):
            value_bytes(value)

    def test_record_sizes_rejects_unsizable(self):
        with pytest.raises(TypeError):
            record_sizes([("k", 1), ("k", object())])

"""Dispatch golden: outcome, /proc state and clock of the pinned mixes.

Pinned on the commit before ``MultiJobCluster.run`` lost its second run
mode and got one dispatch loop, asserted ever since: a change to that
loop, the dispatch round or the fast path's index that moves one
report, timeline, task interval, delivered event, ``/proc`` counter or
the final clock shows up here as a hash mismatch.  See ``golden.py`` for
the canonical form and the re-pin command.
"""

import pytest

from tests.cluster.golden import CLASSES, dispatch_digest
from tests.cluster.test_clusterpath import PINNED_CASES

#: ``PINNED_CASES`` row -> SHA-256, the same for both classes
GOLDEN = {
    (7, "fifo", 1, None, "lean"): "fc64ca1ce84ece0df7392709994a9b478cf0a7ef72fe447a61b56c0b61751b99",
    (11, "fair", 1, None, "full"): "e644f3819d4814c3877e3c015473a32af48303e531004c85c67800615fa6c410",
    (13, "fair", 3, "slow", "full"): "c4cc6693d7daaa879d81ca7987bb3375ce77328d0bc8daa1006e0663902f6778",
    (17, "capacity", 3, None, "full"): "2c1dcaa7dddcc3077b2fadfaf3aed3fc1bd9d13c24c063830e351d78b3ee206a",
    (19, "fifo", 1, "faults", "full"): "64d161a5f30458e803bfea5f4df68f00cbb64336af5ceca3a3dadc948cdb6439",
    (23, "capacity", 1, "faults", "lean"): "b07ab2cee13e77e7242868073d4476d39a942eb7f73ec3424c7482c8b817ac40",
}


def test_golden_covers_every_pinned_case():
    assert list(GOLDEN) == PINNED_CASES


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("case", PINNED_CASES, ids=lambda case: "-".join(map(str, case)))
def test_dispatch_digest(case, cls):
    assert dispatch_digest(case, cls) == GOLDEN[case]

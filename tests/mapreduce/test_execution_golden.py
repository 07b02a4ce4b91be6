"""Execution golden: the accounting and output of all eleven workloads.

Pinned on the commit *before* the engine's byte accounting became a
single pass, asserted ever since: a change to how records are sized,
split, partitioned or charged that moves any :class:`JobCounters` field,
any :class:`JobWork` number (``cpu_seconds`` to the last bit) or any
output shows up here as a hash mismatch.  See ``golden.py`` for the
canonical form and the re-pin command.
"""

import sys

import pytest

from repro.workloads import WORKLOAD_NAMES
from tests.mapreduce.golden import execution_digests

#: (workload, clustered) -> (accounting SHA-256, output SHA-256)
GOLDEN = {
    ("Sort", True): (
        "22593cb0c363bff5c1d1659424191f3887a62a442b1c1d8ad94a230593cfc0fb",
        "5f96614eb4e82c263230179b61886796df8652a170a7619e660c0310bba1040f",
    ),
    ("WordCount", True): (
        "6f6b98bb23d577022bf2c73482428f920b63b84bed42f13a852e39f0d433c0ed",
        "af67f5aaabd00a9673d5691e224dc6ee6d9aba2509bad08aa34c0ef0d379dc6e",
    ),
    ("Grep", True): (
        "bf62a89ec13f92a2d68855b3633a95882c756fa026eea4fe8ae483824e6a2142",
        "a7ea62b9c114df51f9d7668f66fb20759fd30c1e6e12681ad9e3844b70e046b7",
    ),
    ("Naive Bayes", True): (
        "b489220827e6a916c23033dfa823605d5cacb4bcc9c0956697ea2749fb436d05",
        "53d2e69b3af0299bf548f08b5a0ad4b4fc03eb2c2ca211213a2101dbdaeaef25",
    ),
    ("SVM", True): (
        "a95d12e31b4f5c3ad9bcaf1ac47a37861fa9fda2e125d1f306cf0afaaa451dd3",
        "160b46d92e8c4785741b828c3bbcbfe85dc80578748217027d4539abf1881996",
    ),
    ("K-means", True): (
        "4bd405ce15da62f5766cefd0862bcf3b0a59138c545032d329d3ae0d5f6ec929",
        "64219c58aa1738b885aa929c9597630f468236bd50920966c0271167a3f8ec06",
    ),
    ("Fuzzy K-means", True): (
        "c7db9f59c60b5f1d435c74e3fc68ddf07a307a33eae3599361bdcf2b2c138582",
        "6abc427684e670d427481b00a73f5972d6ac4f4b37bde6867377cb5d5e8b7157",
    ),
    ("IBCF", True): (
        "e1243f7c0f5c0a89ebf8ee57dc4099b49f61e4229ebe7e2ed9451298676a64fe",
        "a4797e75e52bef48b7aa424fc9e3f773c55fd4d09839df90bd78d666a79b0eee",
    ),
    ("HMM", True): (
        "de8837031ddac8336ddda8e3aed5b02329d36f4eaf29efe84705659238674ee2",
        "c8862c4cb171c7574b05c7077f82bf2167c90fa26a926cfe5fef0e44eb91dc55",
    ),
    ("PageRank", True): (
        "dc4f47ca64ede2121f0626fe22be9625b9e811cb14e9121c9d1c56e00d7f99eb",
        "3d5f2cfb1e4d5a1c2d89c9ab504ea02233b4da310c38809971d3fe221f3fdfde",
    ),
    ("Hive-bench", True): (
        "c316a44af4292ed1eaa6e36154624ec28d2fdd613f57b89a3b4a46317b8699ff",
        "ea14c2a2b722aa37c431941a5305f330c5da1b10ca101844baaf1d0067fddb0e",
    ),
    ("Sort", False): (
        "06a9022402dd2b9062eb5d30cee33b74d18d1085af97de36685dc558f45ee2c4",
        "5f96614eb4e82c263230179b61886796df8652a170a7619e660c0310bba1040f",
    ),
    ("WordCount", False): (
        "decd6415fd6c7c3847fb4b00357c014637ee731e4ffd5c8000846f0ea889c72c",
        "af67f5aaabd00a9673d5691e224dc6ee6d9aba2509bad08aa34c0ef0d379dc6e",
    ),
    ("Grep", False): (
        "9b89f7014d2d64d9c704f985028aea1abab55f8d4fa7e58106b22c5ef857232d",
        "a7ea62b9c114df51f9d7668f66fb20759fd30c1e6e12681ad9e3844b70e046b7",
    ),
    ("Naive Bayes", False): (
        "085bf8e082ddc5dc57d188651e4f2c9305e5049137cee83fbdc270968a2d9eec",
        "53d2e69b3af0299bf548f08b5a0ad4b4fc03eb2c2ca211213a2101dbdaeaef25",
    ),
    ("SVM", False): (
        "6cc7da9e1e9c58fa869f1b3cf74677ffa5d430932a7f2d9d2aa5a3ae03719aba",
        "160b46d92e8c4785741b828c3bbcbfe85dc80578748217027d4539abf1881996",
    ),
    ("K-means", False): (
        "2ce2ba7061ecfaa05404b71937d5e276fbeb91312375cccfb44febfffcd00de6",
        "8f05d9b5d7467c15b8fd54d410b56dba4342e7fb08d1088a86b033211479d084",
    ),
    ("Fuzzy K-means", False): (
        "833c6c07813dd9776cbf4230545b2e7aa6dd0b6ffa66065c065162f6e206922e",
        "6bdf77e65bb7a96d3d0b298bbfab490b4fe3b90e360539f3e34b12e40799df86",
    ),
    ("IBCF", False): (
        "cdcf6b6cd3672122880432b67c37c21e4febcf8d9795ff177431c8099e78c73c",
        "a4797e75e52bef48b7aa424fc9e3f773c55fd4d09839df90bd78d666a79b0eee",
    ),
    ("HMM", False): (
        "503b3d96efb1f2357a45c7a2b43044f615cc29f2a78a35165061d5427623cad9",
        "c8862c4cb171c7574b05c7077f82bf2167c90fa26a926cfe5fef0e44eb91dc55",
    ),
    ("PageRank", False): (
        "79c4989d68443304165bb1e88a60b376aa2f1c9a79f6c7cda465fd7e48ed737d",
        "3d5f2cfb1e4d5a1c2d89c9ab504ea02233b4da310c38809971d3fe221f3fdfde",
    ),
    ("Hive-bench", False): (
        "38a6746ee3a59df466ef51116221ae752c2700daf310e278ff5c6728c3ffb75e",
        "ea14c2a2b722aa37c431941a5305f330c5da1b10ca101844baaf1d0067fddb0e",
    ),
}

#: Output hashes where ``sum()`` of floats is compensated (CPython >= 3.12).
COMPENSATED_SUM_OUTPUT = {
    ("Fuzzy K-means", True): "55264ceddaa4cb893dcd57fa0212632509963366c7d77506f6f8afe1af85f83f",
    ("PageRank", True): "55c56b8ad7ef256a5e49fb6e3d4d69f2bb9448fd10baf11c6d2ce917887a1b40",
    ("Fuzzy K-means", False): "2e3c751acdec07b22391126bc5d6cc01d9aa4b572dbcfb9d2a7868a9bba99820",
    ("PageRank", False): "55c56b8ad7ef256a5e49fb6e3d4d69f2bb9448fd10baf11c6d2ce917887a1b40",
}


def test_every_workload_is_pinned():
    assert set(GOLDEN) == {(n, c) for n in WORKLOAD_NAMES for c in (True, False)}
    assert len(WORKLOAD_NAMES) == 11


@pytest.mark.parametrize("clustered", [True, False], ids=["cluster", "local"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_execution_matches_golden(name, clustered):
    accounting, output = execution_digests(name, clustered)
    want_accounting, want_output = GOLDEN[name, clustered]
    if sys.version_info >= (3, 12):
        want_output = COMPENSATED_SUM_OUTPUT.get((name, clustered), want_output)
    assert accounting == want_accounting, "JobCounters / JobWork moved"
    assert output == want_output, "workload output moved"

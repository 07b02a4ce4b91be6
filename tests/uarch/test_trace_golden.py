"""Trace golden: the batch stream and fast-engine result of every entry.

Pinned on the commit before the batched generator emitted one run per
episode and the fast engine stopped decoding addresses per batch, and
asserted ever since: any change to the batched generator or to
``run_fast`` that moves one μop field, one ``TraceStats`` count or one
``SimulationResult`` field shows up here as a hash mismatch.  See
``golden.py`` for the canonical form and the re-pin command.
"""

import pytest

from tests.uarch.golden import SEEDS, entry_names, result_digest, stream_digest

#: (entry, seed) -> SHA-256 of the concatenated batch columns + TraceStats
GOLDEN_STREAMS = {
    ("Naive Bayes", None): "f057ef702e680e90594b46ebe4ed396a06590e260caabca60b483dc722ad4987",
    ("Naive Bayes", 7): "5a9e67b290e1f898181ebc866ac8e3fb1952f07a7d324ad95951dbd320204ba4",
    ("SVM", None): "776f4156cb5defa344b670c33a6dce8c651541488b8edf2a33d98261ec7e0b0b",
    ("SVM", 7): "9ca97411358ea04b285a9195b7748a164591f6e5a602d8020de1151491c5f9cc",
    ("Grep", None): "da172409fce742dd4a570bef477c1fdeb13aa4bf819e0c2f8d6a361a7bfa3a5b",
    ("Grep", 7): "1b4e05699699653237c7741cda4cf6fd8b8deb496f836e98413aec8c79fc456d",
    ("WordCount", None): "0cc93ee6d65d19dfa58ddd30945ad99b9d28973f4abef6890b47db223af7272c",
    ("WordCount", 7): "38d2ca9319238347b699cc70ee7180d2eefec015fef1847c23dad28f6715b1ae",
    ("K-means", None): "123122f610f4486af931cc522a4ff45e7d6f26a2b9f8cf23d6d81f909ddc27d7",
    ("K-means", 7): "abf7efd5880e34d514cf223489a6b23e2300772193f28e10f2bd03607c74fe58",
    ("Fuzzy K-means", None): "c1455558417c23919205bde96538a1dce2a66fa6479d856bc7ccfd6f9488efbb",
    ("Fuzzy K-means", 7): "9f3a58715301e023454b04e1fc2942ca835fa53041e39a8f2e544f962ee73b14",
    ("PageRank", None): "78d4494406dc719a62cbeedb19d12796ad6dd6480d17b6ff48458b4588bf6168",
    ("PageRank", 7): "1bd2db6c6321b2428f5081e4fc5e0c2b80aa92d09a48c6e7d4df496a690d9370",
    ("Sort", None): "9a8a9fa1bd40377f790b29c566050b0facd7aa333528fa7f1e0fa471d8e2cc35",
    ("Sort", 7): "22610c86bdb5254ab7a4db3fa069e1d99acca9922f239647e3b87331805ddc03",
    ("Hive-bench", None): "2e0bfcaee0dfefc4ca7ee8c665c37baa14144e6960d42fa7e95dd105eb10a79c",
    ("Hive-bench", 7): "3aa9984e4efb5d226ba3a6e125284114a6ede796a0df0bc00211ddfea42be6f3",
    ("IBCF", None): "ce1bb3ef305e412530897911b0a187ef42b0694e82549d4d0349a4509e42b722",
    ("IBCF", 7): "9f9efa8a8ee33da8331a3ce97401ac2fbe3bee9833c2dc3e2b2fe0c20a1fdd83",
    ("HMM", None): "6d2deba1bbbf208b7e2728b6eb36b2910ce8852a451420cf432a9225fa22f623",
    ("HMM", 7): "a9c52410e47c8887918a447ec226c00579d61c420360ea036c24e34e18db7543",
    ("Software Testing", None): "fe6162ce011b7641399c5cddb60692bb3378700c02ea85efb9002c34e748a98a",
    ("Software Testing", 7): "0e1d7164903cc2a3d3adfccac90563c59143b973c83a5c5298e3dbd32a9031fb",
    ("Media Streaming", None): "d22078a46123c4504643df96fd2d1f2bec8bc83ec96d7e6a8db39b3effefe594",
    ("Media Streaming", 7): "8c195b67cc8cef3a4e0add19bf356603b080057dd43e2b603fb3dd9ca667d294",
    ("Data Serving", None): "4036463ce05cc6da7ecc36f5bb20e05680c5ff3448b45f510b20565b5efe10a3",
    ("Data Serving", 7): "8e57ba92e4c62e39af3a38f680a0a7a14e12255e034f2626ff3f8f154cd2e142",
    ("Web Search", None): "6c35a51ba3acb9e35eb607e7b55631adcf40e328c339c6a980a4c7381c2fb54c",
    ("Web Search", 7): "fb31796b67c24965accdfcd4099bfbe76e984f9548a8c803607344aea4f4491f",
    ("Web Serving", None): "976db51f73448713d7982778110ce849d1a6459bdd06d3e38dca20816c991cc7",
    ("Web Serving", 7): "29151fb71e75e286cf421de51ca66e841467fd1879d458e4fa7b93bf16bf520f",
    ("SPECFP", None): "e55f1f1e11bbca86405fead60582517342f9da1f9731369bba8d18dfba1556ff",
    ("SPECFP", 7): "12728240851a62b6575a2e5cb6046ace806764236bbfe562bfc23bb43f9b1acf",
    ("SPECINT", None): "e70d32590f10826e2f35b31cd8811b41407a2b4d9cfe8c3fa39884006d9030a9",
    ("SPECINT", 7): "0c08251ca013d1d3146d905acd94f6e306151fc162882b506bfc1864dd982137",
    ("SPECWeb", None): "c42f99e8b94679d3c63184293bd72d489740eabdaf41c98f5e977ae6dab07928",
    ("SPECWeb", 7): "5ebbeea076b15a93569b898eb104f0acb346897a72979f4b75f5dad4d5362f88",
    ("HPCC-COMM", None): "ec81d41e8311c7419f7edaa3a7852ad04195164857e5eccb2f34c2b1c58b52b2",
    ("HPCC-COMM", 7): "161fad424263187a5486f14488ed78ee733924439cfec9d49d5a46467cbcb15e",
    ("HPCC-DGEMM", None): "e75b9ea364e1d09e8d7ab19b306d5a0254e38efbc75866353f37963e1ad533f2",
    ("HPCC-DGEMM", 7): "2d5e36889b37cba6ca061d57feba0909e73f7ee94df1f9e55607e0ca09c13707",
    ("HPCC-FFT", None): "4c31c8e742be4f0fbbf31b6af6654c13070a8ae65b4ba88c3877dfdea82f75de",
    ("HPCC-FFT", 7): "9b11c379947a0904a1c66898a1c0dd31b4b5e8c671c932b8c35791ad554e3933",
    ("HPCC-HPL", None): "b446f0157a38238434b46ba11d027c4d51fa81204045516d8d7fa33b9a3b5f0e",
    ("HPCC-HPL", 7): "d51906eba093cec3d40f2f7c6659780034e22c1954d676dd69cd5865cb8919b1",
    ("HPCC-PTRANS", None): "064020bf52dc73a47179f9dd289429ea39806d35a7bf4819672c1925ead02ab0",
    ("HPCC-PTRANS", 7): "ff653ccb6f2f0905a00de762f6ad57d99c70c9782894110735ae3bbab6dafbb5",
    ("HPCC-RandomAccess", None): "28cdfe753fd265c64a46b76505ba79ab2d1957f18d9b99e41dd77c7616ece4a3",
    ("HPCC-RandomAccess", 7): "900c5a61fc43108586cef0fbf6ee127bbcdf33b5f0bbb8cfc3fc834e0905208c",
    ("HPCC-STREAM", None): "442581fd90de77a390ed372bfad79417a6dcc39043547029a48ab80aefa9a5a0",
    ("HPCC-STREAM", 7): "6be6d241a6b6d9d9d2a092a93cf78f523c2edb794799d5ab70592dd96a376dec",
}
#: entry -> SHA-256 of dataclasses.asdict(run_fast(...)) on scaled_machine(8)
GOLDEN_RESULTS = {
    "Naive Bayes": "9e91834cf20ccee215e281cc840aea62d140616f7d7dfebde751984490d09a54",
    "SVM": "554cf5db8a4c9dced9c9f241490985344067704bfd94a53c17b2574faf2555c8",
    "Grep": "0796ce8ae6aab45783d910ede7e47ae12a3b01852dae942e7225fb29e4c8cfce",
    "WordCount": "d3736842f3d1db182a9836cfae5de12cd6b6823eb87781940871054cb3b657ee",
    "K-means": "233c95fde6150ddd26109b55ebe193c336df6663c764389400a66286144efc01",
    "Fuzzy K-means": "132939c3b25fada9836441a0129cae4fcc62d688d55ecb961c2eaa37237b5805",
    "PageRank": "60833f05d5aca5c82a1b960858f461f30cb028becc35970886d85ff6d8c3cfa0",
    "Sort": "c5a588adb44c01a0e2a624e1b0fe0f344c72df1ffb117ba209037c80b1297c77",
    "Hive-bench": "f2e358c649c28752563c2f9eaec348b49d63a3659e9e2f3f35cbca72f9e3d8e7",
    "IBCF": "ba6c34f2829000cb68fbe089fa7bc036167009bb6d352d14aa17706deb37d5e2",
    "HMM": "75cf2d48a0362e5b57ffadf7854c50755903aa5ac97b0cd4874ace7bad2c871a",
    "Software Testing": "a05dee1fc6f3c406f18f6bb2813a26446d3a2213698fbffc092384fb11065732",
    "Media Streaming": "e757e812502f83c0a3cf57ed0efba850f65ddfa611e81af80c35afa3be99f7dc",
    "Data Serving": "24f14f7613a9ac220072bcc7fdb0f746afbb43e9cd0bb9d46a1037d4fdb33f99",
    "Web Search": "94e546714e431f1aab8eb8485c47c1866637c9375ec507685b33cc3a2a704b60",
    "Web Serving": "aaf0d3215b3afb752f5bc73146b04ae5d5347b69b134ebeef26dd4e4684d63b7",
    "SPECFP": "559a21060ec23b01bf8064f459d599511b9e5a725358ecbfd9d42e23516fc75b",
    "SPECINT": "e55cfbf6823ad640376406d03e1ad6353fb6fd4f2e5f9472c83157b29a775f05",
    "SPECWeb": "d357311679a967b5b90479a40cba6487b402423647eb2bd8875cc6e332e883b1",
    "HPCC-COMM": "34d1e8c4c131de908fa0df138f815b581e7d37fb3ce13cee8855d972548fc383",
    "HPCC-DGEMM": "2226c5f75077a8595a0e237d8ec12150681a2b50dfc68fd008d02ac1d2eecec6",
    "HPCC-FFT": "f7e773588354a5d602384bda0d243ebd4f668d70c4c8201f96d3441220d9ff08",
    "HPCC-HPL": "6663d6404ce6f711c519bd71abfb72afb7862a1eb883193e474967f46b4a917b",
    "HPCC-PTRANS": "9a9698ccdef4c0e7fc1801d7368ad88281afce132b6f4c34ef57f44416f9d1c9",
    "HPCC-RandomAccess": "00741b093284cb86dd03265273a9b1dadf9f980238bbeae47ff978c76ca4e252",
    "HPCC-STREAM": "08e4b2ab9f57fb20558e9b8e0ad02fb763a7e6f4f519eafa8b6af0f5377dfd05",
}


def test_every_entry_is_pinned():
    names = entry_names()
    assert len(names) == 26
    assert set(GOLDEN_STREAMS) == {(name, seed) for name in names for seed in SEEDS}
    assert set(GOLDEN_RESULTS) == set(names)


@pytest.mark.parametrize(
    "seed", SEEDS, ids=lambda seed: "pinned-seed" if seed is None else f"seed{seed}"
)
@pytest.mark.parametrize("name", entry_names())
def test_stream_matches_golden(name, seed):
    assert stream_digest(name, seed) == GOLDEN_STREAMS[name, seed]


@pytest.mark.parametrize("name", entry_names())
def test_fast_result_matches_golden(name):
    assert result_digest(name) == GOLDEN_RESULTS[name]

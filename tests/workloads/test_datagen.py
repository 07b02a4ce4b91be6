"""Tests for the synthetic data generators."""

import bisect
import collections
import random
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import datagen


class TestVocabulary:
    def test_size_and_uniqueness(self):
        vocab = datagen.make_vocabulary(500)
        assert len(vocab) == len(set(vocab)) == 500

    def test_deterministic(self):
        assert datagen.make_vocabulary(100, seed=3) == datagen.make_vocabulary(100, seed=3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            datagen.make_vocabulary(0)

    def test_matches_unmemoised_construction(self):
        rng = random.Random(11)
        words = set()
        while len(words) < 300:
            length = rng.randint(3, 10)
            words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(length)))
        assert datagen.make_vocabulary(300, seed=11) == sorted(words)

    def test_each_call_returns_its_own_list(self):
        first = datagen.make_vocabulary(50, seed=5)
        pristine = list(first)
        first.reverse()
        first.append("edited")
        del first[:10]
        assert datagen.make_vocabulary(50, seed=5) == pristine
        assert datagen.make_vocabulary(50, seed=5) is not datagen.make_vocabulary(50, seed=5)

    def test_memo_is_bounded(self):
        bound = datagen._vocabulary.cache_info().maxsize
        assert bound is not None and bound <= 64
        for seed in range(bound + 5):
            datagen.make_vocabulary(3, seed=1000 + seed)
        assert datagen._vocabulary.cache_info().currsize <= bound


def _loop_search(cumulative, u):
    """The hand-written binary search ``zipf_sampler`` used to carry."""
    lo, hi = 0, len(cumulative) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if cumulative[mid] < u:
            lo = mid + 1
        else:
            hi = mid
    return lo


class _ScriptedRandom:
    def __init__(self, draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


class TestZipfSampler:
    @given(
        st.integers(1, 40),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_index_as_the_loop(self, size, draws):
        vocabulary = ["w%02d" % i for i in range(size)]
        weights = [1.0 / (rank + 1) ** 1.1 for rank in range(size)]
        total = sum(weights)
        cumulative, acc = [], 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        # on and just around every boundary, and above the last one
        # (rounding can leave cumulative[-1] a hair under 1.0)
        edges = [c for c in cumulative] + [c - 1e-16 for c in cumulative]
        edges += [min(c + 1e-16, 1.0) for c in cumulative] + [0.0, 1.0, 2.0]
        draws = draws + edges
        sample = datagen.zipf_sampler(vocabulary, _ScriptedRandom(draws))
        assert [sample() for _ in draws] == [
            vocabulary[_loop_search(cumulative, u)] for u in draws
        ]

    def test_one_random_draw_per_sample(self):
        class Counting(random.Random):
            calls = 0

            def random(self):
                Counting.calls += 1
                return super().random()

        sample = datagen.zipf_sampler(datagen.make_vocabulary(20), Counting(3))
        for _ in range(25):
            sample()
        assert Counting.calls == 25


class TestDocuments:
    def test_count_and_ids(self):
        docs = datagen.generate_documents(50)
        assert len(docs) == 50
        assert len({doc_id for doc_id, _ in docs}) == 50

    def test_zipf_skew(self):
        docs = datagen.generate_documents(200, vocabulary_size=500)
        counts = collections.Counter(w for _, text in docs for w in text.split())
        frequencies = sorted(counts.values(), reverse=True)
        # Zipf: the head dominates the tail.
        assert frequencies[0] > 10 * frequencies[len(frequencies) // 2]

    def test_deterministic(self):
        assert datagen.generate_documents(10) == datagen.generate_documents(10)


class TestSortRecords:
    def test_shape(self):
        records = datagen.generate_sort_records(100, payload_bytes=20)
        assert len(records) == 100
        for key, payload in records:
            assert len(key) == 10
            assert len(payload) == 20

    def test_keys_mostly_distinct(self):
        records = datagen.generate_sort_records(1000)
        assert len({k for k, _ in records}) > 990


class TestLabeledDocuments:
    def test_labels_balanced(self):
        docs = datagen.generate_labeled_documents(100)
        counts = collections.Counter(label for _, (label, _) in docs)
        assert set(counts) == {"spam", "ham"}
        assert abs(counts["spam"] - counts["ham"]) <= 1

    def test_class_signal_present(self):
        docs = datagen.generate_labeled_documents(200, class_signal=0.4)
        words_by_class = collections.defaultdict(set)
        for _, (label, text) in docs:
            words_by_class[label].update(text.split())
        only_spam = words_by_class["spam"] - words_by_class["ham"]
        only_ham = words_by_class["ham"] - words_by_class["spam"]
        assert len(only_spam) > 20 and len(only_ham) > 20


class TestClusterPoints:
    def test_counts_and_dims(self):
        points, centers = datagen.generate_cluster_points(100, num_clusters=4, dims=3)
        assert len(points) == 100
        assert len(centers) == 4
        assert all(len(p) == 3 for _, p in points)

    def test_points_near_their_centers(self):
        points, centers = datagen.generate_cluster_points(
            200, num_clusters=3, dims=4, spread=0.1
        )
        for i, (pid, point) in enumerate(points):
            center = centers[i % 3]
            dist = sum((a - b) ** 2 for a, b in zip(point, center)) ** 0.5
            assert dist < 2.0


class TestRatings:
    def test_user_item_bounds(self):
        ratings = datagen.generate_ratings(num_users=50, num_items=30)
        for user, (item, rating) in ratings:
            assert 0 <= user < 50
            assert 0 <= item < 30
            assert 1.0 <= rating <= 5.0

    def test_no_duplicate_user_item_pairs(self):
        ratings = datagen.generate_ratings(num_users=40, num_items=20)
        pairs = [(u, i) for u, (i, _) in ratings]
        assert len(pairs) == len(set(pairs))


class TestWebGraph:
    def test_shape(self):
        graph = datagen.generate_web_graph(100)
        assert len(graph) == 100
        for page, links in graph:
            assert page not in links
            assert all(0 <= t < 100 for t in links)

    def test_preferential_attachment_skew(self):
        graph = datagen.generate_web_graph(300)
        indegree = collections.Counter()
        for _, links in graph:
            for t in links:
                indegree[t] += 1
        degrees = sorted(indegree.values(), reverse=True)
        assert degrees[0] > 5 * max(1, degrees[len(degrees) // 2])


class TestSegmentedCorpus:
    def test_tags_align_with_chars(self):
        corpus = datagen.generate_segmented_corpus(50)
        for _, (chars, tags) in corpus:
            assert len(tags) == len(chars) or len(tags) <= len(chars) * 2
            assert set(tags) <= set("BMES")

    def test_tag_structure_valid(self):
        corpus = datagen.generate_segmented_corpus(50)
        for _, (_chars, tags) in corpus:
            previous = None
            for tag in tags:
                if tag == "M" or tag == "E":
                    assert previous in ("B", "M")
                else:
                    assert previous in (None, "E", "S")
                previous = tag
            assert previous in ("E", "S")


# -- the replaced generator bodies, kept verbatim as oracles -------------------


def oracle_sort_records(
    num_records: int, payload_bytes: int = 90, seed: int = 19
) -> list[tuple[str, str]]:
    """TeraSort-shaped records: 10-char random key + opaque payload."""
    rng = random.Random(seed)
    alphabet = string.ascii_letters + string.digits
    records = []
    for _ in range(num_records):
        key = "".join(rng.choice(alphabet) for _ in range(10))
        payload = "x" * payload_bytes
        records.append((key, payload))
    return records


def oracle_web_graph(
    num_pages: int, out_degree: int = 6, seed: int = 37
) -> list[tuple[int, tuple[int, ...]]]:
    """Preferential-attachment directed graph: (page, out-links)."""
    rng = random.Random(seed)
    popularity = [1] * num_pages
    adjacency: list[tuple[int, tuple[int, ...]]] = []
    total = num_pages
    for page in range(num_pages):
        links: set[int] = set()
        degree = max(1, int(out_degree * rng.uniform(0.3, 1.7)))
        for _ in range(degree):
            # Preferential attachment: sample proportional to popularity.
            pick = rng.randrange(total)
            acc = 0
            target = 0
            for node, pop in enumerate(popularity):
                acc += pop
                if pick < acc:
                    target = node
                    break
            if target != page:
                links.add(target)
        for target in links:
            popularity[target] += 1
            total += 1
        adjacency.append((page, tuple(sorted(links))))
    return adjacency


def oracle_zipf_sampler(vocabulary: list[str], rng: random.Random, s: float = 1.1):
    """Return a () -> word sampler with Zipf-distributed ranks."""
    weights = [1.0 / (rank + 1) ** s for rank in range(len(vocabulary))]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)

    last = len(cumulative) - 1  # rounding can leave cumulative[-1] < u

    def sample() -> str:
        return vocabulary[bisect.bisect_left(cumulative, rng.random(), 0, last)]

    return sample


def oracle_documents(
    num_docs: int,
    words_per_doc: int = 80,
    vocabulary_size: int = 2000,
    seed: int = 13,
) -> list[tuple[str, str]]:
    """Zipf-text documents as (doc-id, text) records."""
    rng = random.Random(seed)
    vocab = datagen.make_vocabulary(vocabulary_size, seed)
    sample = oracle_zipf_sampler(vocab, rng)
    docs = []
    for i in range(num_docs):
        n = max(1, int(words_per_doc * rng.uniform(0.5, 1.5)))
        docs.append((f"doc{i:06d}", " ".join(sample() for _ in range(n))))
    return docs


#: Empty, tiny, either side of a power of two (where the Fenwick descent's
#: top step changes), and about the largest Sort shadow a benchmark mix
#: runs (26 500 records: several bulk refills).
ORACLE_SIZES = (0, 1, 2, 3, 7, 63, 64, 65, 1000, 26_500)
#: ``None`` is each generator's default seed.
ORACLE_SEEDS = (None, 14, 73)


def _seeded(seed):
    return {} if seed is None else {"seed": seed}


class TestGeneratorsMatchTheirOracles:
    """Each rewritten generator returns exactly what the code it replaced did."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_sort_records(self, n, seed):
        assert datagen.generate_sort_records(n, **_seeded(seed)) == oracle_sort_records(
            n, **_seeded(seed)
        )

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("n", ORACLE_SIZES)
    def test_documents(self, n, seed):
        assert datagen.generate_documents(n, **_seeded(seed)) == oracle_documents(
            n, **_seeded(seed)
        )

    # The scan oracle is O(pages²): 26 500 pages would take minutes, and
    # a mix's PageRank shadow has 450-750 pages.
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("n", [n for n in ORACLE_SIZES if n <= 1000])
    def test_web_graph(self, n, seed):
        assert datagen.generate_web_graph(n, **_seeded(seed)) == oracle_web_graph(
            n, **_seeded(seed)
        )

    @given(st.integers(0, 300), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_property(self, n, seed):
        assert datagen.generate_sort_records(n, seed=seed) == oracle_sort_records(n, seed=seed)
        assert datagen.generate_documents(n, seed=seed) == oracle_documents(n, seed=seed)
        assert datagen.generate_web_graph(n, seed=seed) == oracle_web_graph(n, seed=seed)

    @given(st.integers(0, 40), st.integers(0, 2**32), st.integers(0, 120))
    @settings(max_examples=40, deadline=None)
    def test_options(self, n, seed, width):
        assert datagen.generate_sort_records(n, payload_bytes=width, seed=seed) == (
            oracle_sort_records(n, payload_bytes=width, seed=seed)
        )
        words = width // 4 + 1
        assert datagen.generate_documents(
            n, words_per_doc=words, vocabulary_size=width + 1, seed=seed
        ) == oracle_documents(n, words_per_doc=words, vocabulary_size=width + 1, seed=seed)
        assert datagen.generate_web_graph(n, out_degree=width % 9, seed=seed) == (
            oracle_web_graph(n, out_degree=width % 9, seed=seed)
        )

    @pytest.mark.parametrize("chunk_words", [1, 2, 3, 17])
    def test_sort_refill_at_every_boundary(self, monkeypatch, chunk_words):
        # One-word refills put a chunk boundary between any two key
        # characters, and inside every key.
        monkeypatch.setattr(datagen, "_SORT_CHUNK_WORDS", chunk_words)
        for n in (0, 1, 9, 50):
            assert datagen.generate_sort_records(n, seed=n) == oracle_sort_records(n, seed=n)

    def test_ordinary_sizes_refill(self):
        # A refill yields at most one key character per word, so a
        # 1 000-record input (10 000 characters) takes several.
        assert 10 * 1000 > 2 * datagen._SORT_CHUNK_WORDS

    @pytest.mark.parametrize("s", [0.5, 1.1])
    @pytest.mark.parametrize("size", [1, 2, 50, 2000])
    def test_zipf_sampler(self, size, s):
        vocabulary = ["w%d" % i for i in range(size)]
        sample = datagen.zipf_sampler(vocabulary, random.Random(size), s)
        oracle = oracle_zipf_sampler(vocabulary, random.Random(size), s)
        assert [sample() for _ in range(500)] == [oracle() for _ in range(500)]

    def test_zipf_table_memo_is_shared_and_bounded(self):
        assert datagen._zipf_cumulative(300, 1.1) is datagen._zipf_cumulative(300, 1.1)
        bound = datagen._zipf_cumulative.cache_info().maxsize
        assert bound is not None and bound <= 64


class TestWarehouseTables:
    def test_rankings_shape(self):
        rows = datagen.generate_rankings(100)
        assert len(rows) == 100
        for url, rank, duration in rows:
            assert url.startswith("url")
            assert 0 <= rank <= 1000
            assert 1 <= duration < 100

    def test_uservisits_reference_pages(self):
        rows = datagen.generate_uservisits(500, 100)
        for ip, url, revenue, word in rows:
            assert 0 <= int(url[3:]) < 100
            assert revenue >= 0
            assert ip.count(".") == 3

    def test_visit_popularity_skewed(self):
        rows = datagen.generate_uservisits(2000, 200)
        counts = collections.Counter(url for _, url, _, _ in rows)
        top = counts.most_common(20)
        assert sum(c for _, c in top) > 0.3 * len(rows)

    @given(st.integers(1, 50))
    @settings(max_examples=10, deadline=None)
    def test_generators_deterministic(self, n):
        assert datagen.generate_rankings(n) == datagen.generate_rankings(n)
        assert datagen.generate_web_graph(n) == datagen.generate_web_graph(n)

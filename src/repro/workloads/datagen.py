"""Deterministic synthetic input generators.

The paper's inputs are 147–187 GB of documents, HTML, vectors, ratings,
web pages and warehouse tables (Table I); ours are MB-scale equivalents
with the same *statistical* shape: Zipf-distributed vocabulary for text,
Gaussian-mixture vectors for clustering, preferential-attachment graphs
for PageRank, and skewed user/item activity for ratings.  Every generator
is seeded and pure, so workload runs are reproducible.
"""

from __future__ import annotations

import bisect
import functools
import random
import string

# ---------------------------------------------------------------------------
# text corpora
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _vocabulary(size: int, seed: int) -> tuple[str, ...]:
    rng = random.Random(seed)
    words: set[str] = set()
    while len(words) < size:
        length = rng.randint(3, 10)
        words.add("".join(rng.choice(string.ascii_lowercase) for _ in range(length)))
    return tuple(sorted(words))


def make_vocabulary(size: int, seed: int = 7) -> list[str]:
    """Deterministic vocabulary of *size* distinct lowercase words.

    A pure function of ``(size, seed)`` that every text generator calls
    with the same few pairs, so the words are built once and each caller
    gets its own list to slice or edit.
    """
    if size <= 0:
        raise ValueError("vocabulary size must be positive")
    return list(_vocabulary(size, seed))


def zipf_sampler(vocabulary: list[str], rng: random.Random, s: float = 1.1):
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


def generate_documents(
    num_docs: int,
    words_per_doc: int = 80,
    vocabulary_size: int = 2000,
    seed: int = 13,
) -> list[tuple[str, str]]:
    """Zipf-text documents as (doc-id, text) records."""
    rng = random.Random(seed)
    vocab = make_vocabulary(vocabulary_size, seed)
    sample = zipf_sampler(vocab, rng)
    docs = []
    for i in range(num_docs):
        n = max(1, int(words_per_doc * rng.uniform(0.5, 1.5)))
        docs.append((f"doc{i:06d}", " ".join(sample() for _ in range(n))))
    return docs


def generate_html_pages(num_pages: int, seed: int = 17) -> list[tuple[str, str]]:
    """HTML-flavoured pages (for the SVM / HMM 'html file' inputs)."""
    rng = random.Random(seed)
    vocab = make_vocabulary(1500, seed)
    sample = zipf_sampler(vocab, rng)
    pages = []
    for i in range(num_pages):
        paragraphs = [
            "<p>" + " ".join(sample() for _ in range(rng.randint(10, 40))) + "</p>"
            for _ in range(rng.randint(2, 6))
        ]
        title = " ".join(sample() for _ in range(rng.randint(2, 6)))
        body = f"<html><head><title>{title}</title></head><body>{''.join(paragraphs)}</body></html>"
        pages.append((f"page{i:06d}", body))
    return pages


# ---------------------------------------------------------------------------
# sort records
# ---------------------------------------------------------------------------


def generate_sort_records(
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


# ---------------------------------------------------------------------------
# labelled text (classification)
# ---------------------------------------------------------------------------


def generate_labeled_documents(
    num_docs: int,
    classes: tuple[str, ...] = ("spam", "ham"),
    words_per_doc: int = 50,
    vocabulary_size: int = 1200,
    class_signal: float = 0.35,
    seed: int = 23,
) -> list[tuple[str, tuple[str, str]]]:
    """Documents with class-dependent vocabulary: (doc-id, (label, text)).

    Each class owns a slice of the vocabulary; ``class_signal`` of each
    document's words come from its class slice, the rest from the shared
    background — enough signal for Naive Bayes / SVM to beat chance by a
    wide margin, with realistic overlap.
    """
    rng = random.Random(seed)
    vocab = make_vocabulary(vocabulary_size, seed)
    shared = vocab[: vocabulary_size // 2]
    per_class = (vocabulary_size - len(shared)) // len(classes)
    class_slices = {
        cls: vocab[len(shared) + i * per_class: len(shared) + (i + 1) * per_class]
        for i, cls in enumerate(classes)
    }
    shared_sampler = zipf_sampler(shared, rng)
    docs = []
    for i in range(num_docs):
        label = classes[i % len(classes)]
        own = class_slices[label]
        words = []
        for _ in range(max(1, int(words_per_doc * rng.uniform(0.6, 1.4)))):
            if rng.random() < class_signal:
                words.append(own[rng.randrange(len(own))])
            else:
                words.append(shared_sampler())
        docs.append((f"doc{i:06d}", (label, " ".join(words))))
    return docs


# ---------------------------------------------------------------------------
# vectors (clustering)
# ---------------------------------------------------------------------------


def generate_cluster_points(
    num_points: int,
    num_clusters: int = 5,
    dims: int = 8,
    spread: float = 0.6,
    seed: int = 29,
) -> tuple[list[tuple[int, tuple[float, ...]]], list[tuple[float, ...]]]:
    """Gaussian-mixture points; returns (records, true_centers)."""
    rng = random.Random(seed)
    centers = [
        tuple(rng.uniform(-10.0, 10.0) for _ in range(dims)) for _ in range(num_clusters)
    ]
    records = []
    for i in range(num_points):
        center = centers[i % num_clusters]
        point = tuple(c + rng.gauss(0.0, spread) for c in center)
        records.append((i, point))
    return records, centers


# ---------------------------------------------------------------------------
# ratings (recommendation)
# ---------------------------------------------------------------------------


def generate_ratings(
    num_users: int = 120,
    num_items: int = 60,
    ratings_per_user: int = 12,
    seed: int = 31,
) -> list[tuple[int, tuple[int, float]]]:
    """(user, (item, rating)) with skewed item popularity and per-user taste.

    Users have a latent preference over two item groups, so item-item
    similarity has real structure for IBCF to exploit.
    """
    rng = random.Random(seed)
    records = []
    for user in range(num_users):
        taste = rng.random()  # blend between item groups
        seen: set[int] = set()
        for _ in range(ratings_per_user):
            if rng.random() < taste:
                item = rng.randrange(num_items // 2)
            else:
                item = num_items // 2 + rng.randrange(num_items - num_items // 2)
            # popularity skew inside the group
            item = min(item, int(abs(rng.gauss(item, num_items / 10))) % num_items)
            if item in seen:
                continue
            seen.add(item)
            base = 4.0 if (item < num_items // 2) == (taste > 0.5) else 2.0
            rating = min(5.0, max(1.0, base + rng.gauss(0, 0.7)))
            records.append((user, (item, round(rating, 1))))
    return records


# ---------------------------------------------------------------------------
# web graph (PageRank)
# ---------------------------------------------------------------------------


def generate_web_graph(
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


# ---------------------------------------------------------------------------
# sequences (HMM segmentation)
# ---------------------------------------------------------------------------

#: Hidden states for word segmentation: Begin / Middle / End / Single.
HMM_STATES = ("B", "M", "E", "S")


def generate_segmented_corpus(
    num_sentences: int,
    alphabet_size: int = 30,
    words_per_sentence: int = 8,
    seed: int = 41,
) -> list[tuple[str, tuple[str, str]]]:
    """Labelled segmentation corpus: (id, (chars, BMES-tags)).

    Models a script without delimiters (the paper's Chinese-segmentation
    scenario): words of 1–4 characters drawn from a small lexicon, each
    character tagged Begin/Middle/End/Single.
    """
    rng = random.Random(seed)
    alphabet = [chr(ord("a") + i % 26) + (str(i // 26) if i >= 26 else "") for i in range(alphabet_size)]
    # Positional character preference (as in natural scripts, where some
    # characters favour word-initial/final positions): word-initial chars
    # come mostly from the first third of the alphabet, finals from the
    # last third — this is the signal the HMM's emission model learns.
    third = max(1, alphabet_size // 3)
    initials, middles, finals = alphabet[:third], alphabet[third:2 * third], alphabet[2 * third:]

    def pick(position: str) -> str:
        pools = {"initial": initials, "middle": middles, "final": finals}
        pool = pools[position] if rng.random() < 0.8 else alphabet
        return rng.choice(pool)

    lexicon = []
    for _ in range(120):
        length = rng.choices((1, 2, 3, 4), weights=(15, 50, 25, 10))[0]
        if length == 1:
            word = pick("initial")
        else:
            word = pick("initial")
            word += "".join(pick("middle") for _ in range(length - 2))
            word += pick("final")
        lexicon.append(word)
    sentences = []
    for i in range(num_sentences):
        chars: list[str] = []
        tags: list[str] = []
        for _ in range(max(1, int(words_per_sentence * rng.uniform(0.5, 1.5)))):
            word = lexicon[rng.randrange(len(lexicon))]
            chars.extend(word)
            if len(word) == 1:
                tags.append("S")
            else:
                tags.extend(["B"] + ["M"] * (len(word) - 2) + ["E"])
        sentences.append((f"s{i:06d}", ("".join(chars), "".join(tags))))
    return sentences


# ---------------------------------------------------------------------------
# warehouse tables (Hive-bench)
# ---------------------------------------------------------------------------


def generate_rankings(num_pages: int, seed: int = 43) -> list[tuple[str, int, int]]:
    """(pageURL, pageRank, avgDuration) rows."""
    rng = random.Random(seed)
    return [
        (f"url{i:06d}", int(min(1000, rng.expovariate(1 / 60.0))), rng.randrange(1, 100))
        for i in range(num_pages)
    ]


def generate_uservisits(
    num_visits: int, num_pages: int, seed: int = 47
) -> list[tuple[str, str, float, str]]:
    """(sourceIP, destURL, adRevenue, searchWord) rows with skewed URLs."""
    rng = random.Random(seed)
    vocab = make_vocabulary(200, seed)
    rows = []
    for _ in range(num_visits):
        ip = f"{rng.randrange(10, 250)}.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(256)}"
        page = min(num_pages - 1, int(rng.expovariate(1 / (num_pages / 5.0))))
        rows.append(
            (ip, f"url{page:06d}", round(rng.expovariate(2.0), 4), vocab[rng.randrange(len(vocab))])
        )
    return rows

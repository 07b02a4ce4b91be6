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


@functools.lru_cache(maxsize=32)
def _zipf_cumulative(size: int, s: float) -> tuple[float, ...]:
    """Cumulative Zipf(*s*) probabilities of ranks ``0 .. size - 1``."""
    weights = [1.0 / (rank + 1) ** s for rank in range(size)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cumulative.append(acc)
    return tuple(cumulative)


def zipf_sampler(vocabulary: list[str], rng: random.Random, s: float = 1.1):
    """Return a () -> word sampler with Zipf-distributed ranks."""
    cumulative = _zipf_cumulative(len(vocabulary), s)
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
    # zipf_sampler's draw, inlined: one rng.random() per word, same index
    cumulative = _zipf_cumulative(len(vocab), 1.1)
    last = len(cumulative) - 1
    rand, uniform, bisect_left = rng.random, rng.uniform, bisect.bisect_left
    docs = []
    for i in range(num_docs):
        n = max(1, int(words_per_doc * uniform(0.5, 1.5)))
        words = [vocab[bisect_left(cumulative, rand(), 0, last)] for _ in range(n)]
        docs.append((f"doc{i:06d}", " ".join(words)))
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


_SORT_ALPHABET = string.ascii_letters + string.digits
#: A byte whose top 6 bits index the alphabet maps to that character;
#: the 8 bytes whose top 6 bits are 62 or 63 are the draws ``choice``
#: rejects and redraws.
_SORT_KEY_TABLE = bytes(
    ord(_SORT_ALPHABET[b >> 2]) if b >> 2 < len(_SORT_ALPHABET) else 0 for b in range(256)
)
_SORT_REJECT = bytes(range(4 * len(_SORT_ALPHABET), 256))
#: 32-bit outputs drawn per refill (about 3 970 key characters).
_SORT_CHUNK_WORDS = 4096


def generate_sort_records(
    num_records: int, payload_bytes: int = 90, seed: int = 19
) -> list[tuple[str, str]]:
    """TeraSort-shaped records: 10-char random key + opaque payload.

    The keys are the characters ``rng.choice(alphabet)`` would pick, drawn
    in bulk.  CPython's ``choice`` over 62 characters is
    ``alphabet[getrandbits(6)]``, redrawn while the index is 62 or 63, and
    ``getrandbits(6)`` is the top 6 bits of one 32-bit Mersenne Twister
    output.  ``getrandbits(32 * k)`` returns the next *k* outputs as
    little-endian words, so byte ``4 i + 3`` of its little-endian bytes is
    the top byte of output *i*: translating those bytes, rejected ones
    deleted, yields the same characters in the same order.  *rng* is
    private, so drawing past the last key changes nothing.  Every record
    shares one (immutable) payload string.
    """
    rng = random.Random(seed)
    need = 10 * num_records
    chars = bytearray()
    while len(chars) < need:
        raw = rng.getrandbits(32 * _SORT_CHUNK_WORDS).to_bytes(4 * _SORT_CHUNK_WORDS, "little")
        chars += raw[3::4].translate(_SORT_KEY_TABLE, _SORT_REJECT)
    keys = chars[:need].decode("ascii")
    payload = "x" * payload_bytes
    return [(keys[i:i + 10], payload) for i in range(0, need, 10)]


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
    """Preferential-attachment directed graph: (page, out-links).

    Each link goes to the first node whose running popularity sum exceeds
    ``pick = rng.randrange(total)``.  The popularities live in a Fenwick
    (binary-indexed) tree, ``tree[i]`` holding the sum over nodes
    ``i - (i & -i) .. i - 1``, so that search is O(log n) rather than a
    scan, and lands on the node the scan would.
    """
    rng = random.Random(seed)
    tree = [i & -i for i in range(num_pages + 1)]  # every popularity starts at 1
    top = 1 << (num_pages.bit_length() - 1) if num_pages else 0
    adjacency: list[tuple[int, tuple[int, ...]]] = []
    total = num_pages
    for page in range(num_pages):
        links: set[int] = set()
        degree = max(1, int(out_degree * rng.uniform(0.3, 1.7)))
        for _ in range(degree):
            # Preferential attachment: sample proportional to popularity.
            rest = rng.randrange(total)
            target = 0  # descend to the longest prefix whose sum is <= the draw
            step = top
            while step:
                probe = target + step
                if probe <= num_pages and tree[probe] <= rest:
                    target = probe
                    rest -= tree[probe]
                step >>= 1
            if target != page:
                links.add(target)
        for target in links:
            i = target + 1
            while i <= num_pages:
                tree[i] += 1
                i += i & -i
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

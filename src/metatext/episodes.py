"""Corpus loading, disjoint class splits, and N-way K-shot episode sampling."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .model import PAD_ID, UNK_ID, MASK_ID, FIRST_REAL_ID

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
MASK_TOKEN = "<mask>"

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class CorpusError(ValueError):
    """Corpus file is malformed or unusable."""


class SplitError(ValueError):
    """Class split lists overlap or name unknown classes."""


class SamplingError(ValueError):
    """Episode sampling preconditions not met."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation boundaries.

    Punctuation marks become single-character tokens rather than being dropped.
    """
    return _TOKEN_RE.findall(text.lower())


@dataclass
class Corpus:
    """Immutable token-id corpus with a closed vocabulary.

    documents holds (token-id sequence, global class id) pairs. Raw documents
    never contain PAD or MASK ids: real tokens start at FIRST_REAL_ID and rare
    tokens map to UNK. empty_docs lists indices of documents whose text
    tokenized to nothing; they are kept so corpus statistics stay faithful,
    but episodes never draw them.
    """

    documents: list
    vocab: dict
    class_names: list
    empty_docs: tuple = ()
    _docs_by_class: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._docs_by_class:
            by_class: dict[int, list[int]] = {}
            for i, (ids, cid) in enumerate(self.documents):
                if len(ids):
                    by_class.setdefault(cid, []).append(i)
            self._docs_by_class = {cid: np.asarray(ids, dtype=np.int64)
                                   for cid, ids in by_class.items()}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def class_id(self, name: str) -> int:
        try:
            return self.class_names.index(name)
        except ValueError:
            raise SplitError(f"unknown class name {name!r}") from None

    def docs_of_class(self, class_id: int) -> np.ndarray:
        """Indices of the class's non-empty documents, the ones episodes draw."""
        return self._docs_by_class.get(class_id, np.empty(0, dtype=np.int64))


_last = (None,) * 4  # (file bytes, max_len, min_freq, corpus) of the last parse


def load_corpus(path, max_len: int, min_freq: int = 0) -> Corpus:
    """Read a JSONL corpus of {"text": ..., "label": ...} objects.

    Sequences are truncated to max_len and token frequencies are counted over
    the truncated corpus; tokens rarer than min_freq map to UNK. Vocabulary ids
    are assigned by descending frequency with lexicographic tie-break, after
    the three reserved ids.

    A process parses a corpus once: the last result, kept under the file's
    bytes (mtimes are coarse), max_len and min_freq, is shared by every later
    call on that content, so its token arrays are read-only. A failed parse
    keeps nothing.
    """
    global _last
    if max_len < 1:
        raise ValueError(f"max_len must be positive, got {max_len}")
    if min_freq < 0:
        raise ValueError(f"min_freq must be non-negative, got {min_freq}")
    with open(path, "rb") as fh:
        data = fh.read()
    if _last[1:3] == (max_len, min_freq) and _last[0] == data:
        return _last[3]
    # Universal newlines, as a text-mode read; str.splitlines splits at more.
    content = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    raw_docs: list[tuple[list[str], str]] = []
    for lineno, line in enumerate(content.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict) or "text" not in obj or "label" not in obj:
            raise CorpusError(f"{path}: line {lineno}: expected object with 'text' and 'label'")
        text, label = obj["text"], obj["label"]
        if not isinstance(text, str) or not isinstance(label, str):
            raise CorpusError(f"{path}: line {lineno}: 'text' and 'label' must be strings")
        raw_docs.append((tokenize(text)[:max_len], label))

    if not raw_docs:
        raise CorpusError(f"{path}: corpus is empty")

    freq: dict[str, int] = {}
    for tokens, _ in raw_docs:
        for tok in tokens:
            freq[tok] = freq.get(tok, 0) + 1

    vocab = {PAD_TOKEN: PAD_ID, UNK_TOKEN: UNK_ID, MASK_TOKEN: MASK_ID}
    kept = sorted((tok for tok, n in freq.items() if n >= min_freq),
                  key=lambda tok: (-freq[tok], tok))
    for i, tok in enumerate(kept):
        vocab[tok] = FIRST_REAL_ID + i

    class_names = sorted({label for _, label in raw_docs})
    class_ids = {name: i for i, name in enumerate(class_names)}

    # Every document's ids are a view of one read-only array.
    ids = np.array([vocab.get(t, UNK_ID) for tokens, _ in raw_docs for t in tokens], np.int64)
    ids.flags.writeable = False
    documents, empty, start = [], [], 0
    for i, (tokens, label) in enumerate(raw_docs):
        if not tokens:
            empty.append(i)
        documents.append((ids[start:start + len(tokens)], class_ids[label]))
        start += len(tokens)

    _last = (data, max_len, min_freq, Corpus(documents, vocab, class_names, tuple(empty)))
    return _last[3]


@dataclass(frozen=True)
class ClassSplit:
    """Pairwise-disjoint train/val/test class-id sets."""

    train_classes: frozenset
    val_classes: frozenset
    test_classes: frozenset

    def part(self, name: str) -> tuple:
        """Sorted class ids of one part, for deterministic sampling."""
        try:
            classes = {"train": self.train_classes, "val": self.val_classes,
                       "test": self.test_classes}[name]
        except KeyError:
            raise SamplingError(f"unknown split part {name!r}; expected train/val/test") from None
        return tuple(sorted(classes))


def make_splits(corpus: Corpus, train_classes, val_classes, test_classes) -> ClassSplit:
    """Resolve class-name lists into a validated disjoint split.

    Per-class document counts are checked lazily at sampling time, since they
    depend on the episode shape.
    """
    parts = {"train": list(train_classes), "val": list(val_classes), "test": list(test_classes)}
    ids: dict[str, set[int]] = {}
    for part, names in parts.items():
        seen = set()
        for name in names:
            cid = corpus.class_id(name)
            if cid in seen:
                raise SplitError(f"class {name!r} listed twice in {part}")
            seen.add(cid)
        ids[part] = seen
    for a, b in (("train", "val"), ("train", "test"), ("val", "test")):
        overlap = ids[a] & ids[b]
        if overlap:
            names = sorted(corpus.class_names[c] for c in overlap)
            raise SplitError(f"classes {names} appear in both {a} and {b}")
    return ClassSplit(train_classes=frozenset(ids["train"]),
                      val_classes=frozenset(ids["val"]),
                      test_classes=frozenset(ids["test"]))


def load_split_file(path) -> dict:
    """Read a split file: JSON object with 'train', 'val', 'test' name lists."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or set(obj) != {"train", "val", "test"}:
        raise SplitError(f"{path}: expected an object with exactly 'train', 'val', 'test' keys")
    for key, names in obj.items():
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise SplitError(f"{path}: {key!r} must be a list of class names, got {names!r}")
    return obj


@dataclass
class Episode:
    """One few-shot task: class-balanced support and query sets.

    Entries are (token-id sequence, local label) pairs; label_map sends local
    labels back to global class ids, in sampled-class order.
    """

    support: list
    query: list
    label_map: tuple

    @property
    def n_way(self) -> int:
        return len(self.label_map)


def sample_episode(corpus: Corpus, split: ClassSplit, part: str, n_way: int,
                   k_shot: int, query_per_class: int, rng: np.random.Generator) -> Episode:
    """Draw one N-way K-shot episode from the given split part.

    Classes are sampled without replacement; per class, k_shot + query_per_class
    distinct documents are drawn, the first k_shot forming the support set.
    The result is a pure function of (corpus, split, shape, rng state).
    """
    if n_way < 1 or k_shot < 1 or query_per_class < 1:
        raise SamplingError("n_way, k_shot and query_per_class must all be positive")
    classes = split.part(part)
    if len(classes) < n_way:
        raise SamplingError(
            f"split part {part!r} has {len(classes)} classes, need {n_way}")
    chosen = rng.choice(np.asarray(classes, dtype=np.int64), size=n_way, replace=False)

    need = k_shot + query_per_class
    support, query = [], []
    for local, cid in enumerate(int(c) for c in chosen):
        doc_ids = corpus.docs_of_class(cid)
        if doc_ids.size < need:
            raise SamplingError(
                f"class {corpus.class_names[cid]!r} has {doc_ids.size} non-empty documents, "
                f"need {need} (k_shot + query_per_class)")
        picked = rng.choice(doc_ids, size=need, replace=False)
        for j, doc_id in enumerate(int(d) for d in picked):
            seq = corpus.documents[doc_id][0]
            (support if j < k_shot else query).append((seq, local))
    return Episode(support=support, query=query,
                   label_map=tuple(int(c) for c in chosen))

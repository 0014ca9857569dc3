import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatext.episodes import (
    ClassSplit,
    Corpus,
    CorpusError,
    SamplingError,
    SplitError,
    load_corpus,
    load_split_file,
    make_splits,
    sample_episode,
    tokenize,
)
from metatext import episodes as episodes_module
from metatext.model import FIRST_REAL_ID

from conftest import build_corpus, write_jsonl


# ---------------------------------------------------------------------------
# load_corpus


def test_load_corpus_hand_trace(tmp_path):
    # freq: a=2, b=2, c=1; tie a<b lexicographic; ids assigned after reserved 0/1/2
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"text": "a b a", "label": "X"},
        {"text": "b c", "label": "Y"},
    ])
    corpus = load_corpus(path, max_len=16, min_freq=1)
    assert corpus.vocab["a"] == 3
    assert corpus.vocab["b"] == 4
    assert corpus.vocab["c"] == 5
    assert corpus.class_names == ["X", "Y"]
    seq0, cls0 = corpus.documents[0]
    seq1, cls1 = corpus.documents[1]
    assert seq0.tolist() == [3, 4, 3] and corpus.class_names[cls0] == "X"
    assert seq1.tolist() == [4, 5] and corpus.class_names[cls1] == "Y"


def test_load_corpus_truncates_to_max_len(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "a b a", "label": "X"}])
    corpus = load_corpus(path, max_len=2)
    assert corpus.documents[0][0].tolist() == [3, 4]


def test_load_corpus_empty_text_flagged_not_dropped(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"text": "", "label": "X"},
        {"text": "a", "label": "X"},
    ])
    corpus = load_corpus(path, max_len=8)
    assert len(corpus.documents) == 2
    assert corpus.documents[0][0].size == 0
    assert corpus.empty_docs == (0,)


def test_load_corpus_min_freq_maps_to_unk(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"text": "a a rare", "label": "X"},
    ])
    corpus = load_corpus(path, max_len=8, min_freq=2)
    assert "rare" not in corpus.vocab
    assert corpus.documents[0][0].tolist() == [3, 3, 1]


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]
    assert tokenize("A  b\tc") == ["a", "b", "c"]


def test_load_corpus_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"text": "a", "label": "X"}\n{not json}\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path, max_len=8)


def test_load_corpus_missing_field_names_line_number(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "a"}])
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path, max_len=8)


def test_load_corpus_unreadable_path(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "missing.jsonl", max_len=8)


def test_load_corpus_empty_file_rejected(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text("")
    with pytest.raises(CorpusError, match="empty"):
        load_corpus(path, max_len=8)


def test_load_corpus_token_ids_never_pad_or_mask(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [
        {"text": "x y z w q r s t u v", "label": "A"},
        {"text": "x x y", "label": "B"},
    ])
    corpus = load_corpus(path, max_len=32)
    for seq, _ in corpus.documents:
        assert np.all(seq != 0) and np.all(seq != 2)
        assert np.all(seq < corpus.vocab_size)


def _fresh_corpus_cache(monkeypatch):
    """Empty load_corpus's cache and count tokenize's calls: one per document
    of every parse."""
    calls = []
    monkeypatch.setattr(episodes_module, "_last", (None,) * 4)
    monkeypatch.setattr(episodes_module, "tokenize",
                        lambda text, _tokenize=tokenize: calls.append(text) or _tokenize(text))
    return calls


def test_load_corpus_parses_new_content_under_an_old_mtime(tmp_path, monkeypatch):
    calls = _fresh_corpus_cache(monkeypatch)
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "a b", "label": "X"}])
    stat = path.stat()
    first = load_corpus(path, max_len=8)
    assert load_corpus(path, max_len=8) is first and len(calls) == 1
    # Other content of the same size, under the old mtime.
    write_jsonl(path, [{"text": "a c", "label": "X"}])
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
    again = load_corpus(path, max_len=8)
    assert len(calls) == 2 and "c" in again.vocab and "c" not in first.vocab


def test_load_corpus_parses_again_under_other_settings(tmp_path, monkeypatch):
    calls = _fresh_corpus_cache(monkeypatch)
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "a a b", "label": "X"}])
    assert load_corpus(path, max_len=8).documents[0][0].tolist() == [3, 3, 4]
    assert load_corpus(path, max_len=2).documents[0][0].tolist() == [3, 3]
    assert load_corpus(path, max_len=2, min_freq=2).vocab_size == 4
    assert len(calls) == 3


def test_load_corpus_raises_on_every_call_to_a_malformed_file(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"text": "a", "label": "X"}\n{not json}\n')
    for _ in range(2):
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path, max_len=8)


def test_load_corpus_splits_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "c.jsonl"
    # CRLF and CR end lines; U+2028 inside a JSON string does not.
    path.write_bytes('{"text": "a\u2028b", "label": "X"}\r\n\r{"text": "c", "label": "Y"}\r'
                     '{"text": "d", "label": "Y"}'.encode("utf-8"))
    corpus = load_corpus(path, max_len=8)
    assert [corpus.class_names[c] for _, c in corpus.documents] == ["X", "Y", "Y"]
    path.write_bytes(b'{"text": "a", "label": "X"}\r{oops}\r\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path, max_len=8)


def test_load_corpus_returns_read_only_token_arrays(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"text": "a b", "label": "X"},
                                              {"text": "", "label": "Y"}])
    corpus = load_corpus(path, max_len=8)
    for ids, _ in corpus.documents:
        with pytest.raises(ValueError, match="read-only"):
            ids[:1] = 0
    assert load_corpus(path, max_len=8) is corpus


# ---------------------------------------------------------------------------
# make_splits


def test_make_splits_twenty_five_sixteen():
    corpus = build_corpus(num_classes=41, docs_per_class=2)
    names = corpus.class_names
    split = make_splits(corpus, names[:20], names[20:25], names[25:41])
    assert len(split.train_classes) == 20
    assert len(split.val_classes) == 5
    assert len(split.test_classes) == 16
    assert not split.train_classes & split.test_classes


def test_make_splits_rejects_overlap():
    corpus = build_corpus(num_classes=3)
    with pytest.raises(SplitError, match="both"):
        make_splits(corpus, ["class0"], ["class1"], ["class0"])


def test_make_splits_rejects_unknown_class():
    corpus = build_corpus(num_classes=3)
    with pytest.raises(SplitError, match="unknown"):
        make_splits(corpus, ["class0"], ["class1"], ["nope"])


def test_make_splits_singletons():
    corpus = build_corpus(num_classes=3)
    split = make_splits(corpus, ["class0"], ["class1"], ["class2"])
    assert split.part("train") == (0,)
    assert split.part("val") == (1,)
    assert split.part("test") == (2,)


def test_split_part_unknown_name():
    corpus = build_corpus(num_classes=3)
    split = make_splits(corpus, ["class0"], ["class1"], ["class2"])
    with pytest.raises(SamplingError, match="train/val/test"):
        split.part("validation")


def test_load_split_file_requires_exact_keys(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"train": [], "val": []}')
    with pytest.raises(SplitError):
        load_split_file(path)


@pytest.mark.parametrize("part", [5, "class0", ["class0", 3], None])
def test_load_split_file_requires_lists_of_class_names(tmp_path, part):
    # 5 reached make_splits and raised a bare TypeError; "class0" was read
    # as its characters and reported the unknown class name 'c'.
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"train": part, "val": ["class1"], "test": []}))
    with pytest.raises(SplitError, match=f"^{re.escape(str(path))}: 'train' must be a list "
                                         "of class names"):
        load_split_file(path)


# ---------------------------------------------------------------------------
# sample_episode


def _full_split(corpus):
    names = corpus.class_names
    return make_splits(corpus, names, [], [])


def test_sample_episode_shapes_paper_protocol():
    # N=5, K=1, q=25 per class: support 5, query 125
    corpus = build_corpus(num_classes=6, docs_per_class=30)
    split = _full_split(corpus)
    ep = sample_episode(corpus, split, "train", 5, 1, 25, np.random.default_rng(0))
    assert len(ep.support) == 5
    assert len(ep.query) == 125
    assert len(set(ep.label_map)) == 5


def test_sample_episode_minimal_one_class():
    corpus = build_corpus(num_classes=1, docs_per_class=2)
    split = _full_split(corpus)
    ep = sample_episode(corpus, split, "train", 1, 1, 1, np.random.default_rng(0))
    assert len(ep.support) == len(ep.query) == 1
    assert ep.support[0][0].tolist() != ep.query[0][0].tolist()


def test_sample_episode_support_query_disjoint_and_balanced():
    corpus = build_corpus(num_classes=6, docs_per_class=10)
    split = _full_split(corpus)
    for seed in range(20):
        ep = sample_episode(corpus, split, "train", 4, 2, 3, np.random.default_rng(seed))
        sup = {tuple(seq.tolist()) for seq, _ in ep.support}
        qry = {tuple(seq.tolist()) for seq, _ in ep.query}
        assert not sup & qry  # documents have unique content in build_corpus
        sup_counts = np.bincount([lbl for _, lbl in ep.support], minlength=4)
        qry_counts = np.bincount([lbl for _, lbl in ep.query], minlength=4)
        assert sup_counts.tolist() == [2] * 4
        assert qry_counts.tolist() == [3] * 4


def test_sample_episode_deterministic_per_seed():
    corpus = build_corpus()
    split = _full_split(corpus)

    def snapshot(seed):
        ep = sample_episode(corpus, split, "train", 3, 2, 2, np.random.default_rng(seed))
        return (ep.label_map,
                tuple(tuple(s.tolist()) for s, _ in ep.support),
                tuple(tuple(s.tolist()) for s, _ in ep.query))

    assert snapshot(7) == snapshot(7)
    distinct = {snapshot(seed) for seed in range(100)}
    assert len(distinct) > 90


def test_sample_episode_insufficient_classes():
    corpus = build_corpus(num_classes=2)
    split = _full_split(corpus)
    with pytest.raises(SamplingError, match="classes"):
        sample_episode(corpus, split, "train", 3, 1, 1, np.random.default_rng(0))


def test_sample_episode_insufficient_documents_names_class():
    corpus = build_corpus(num_classes=3, docs_per_class=3)
    split = _full_split(corpus)
    with pytest.raises(SamplingError, match="class"):
        sample_episode(corpus, split, "train", 3, 2, 2, np.random.default_rng(0))


def test_sample_episode_never_draws_empty_documents():
    corpus = build_corpus(num_classes=3, docs_per_class=3)
    # The first document of every class tokenized to nothing.
    for i in range(0, 9, 3):
        corpus.documents[i] = (np.empty(0, dtype=np.int64), corpus.documents[i][1])
    corpus = Corpus(documents=corpus.documents, vocab=corpus.vocab,
                    class_names=corpus.class_names, empty_docs=(0, 3, 6))
    split = _full_split(corpus)
    rng = np.random.default_rng(0)
    for _ in range(50):
        ep = sample_episode(corpus, split, "train", 3, 1, 1, rng)
        assert all(seq.size > 0 for seq, _ in ep.support + ep.query)
    # Three documents per class, two of them usable.
    with pytest.raises(SamplingError, match="has 2 non-empty documents, need 3"):
        sample_episode(corpus, split, "train", 3, 2, 1, rng)


def test_train_test_episode_classes_disjoint():
    corpus = build_corpus(num_classes=10, docs_per_class=4)
    names = corpus.class_names
    split = make_splits(corpus, names[:5], [], names[5:])
    rng = np.random.default_rng(3)
    train_classes, test_classes = set(), set()
    for _ in range(1000):
        train_classes.update(sample_episode(corpus, split, "train", 2, 1, 1, rng).label_map)
        test_classes.update(sample_episode(corpus, split, "test", 2, 1, 1, rng).label_map)
    assert not train_classes & test_classes
    assert train_classes <= split.train_classes
    assert test_classes <= split.test_classes


PARTS = ("train", "val", "test")


@settings(max_examples=60, deadline=None)
@given(num_classes=st.integers(1, 10), data=st.data())
def test_splits_and_episodes_over_random_partitions(num_classes, data):
    """Over random partitions of the classes into train, val, test and
    unused: make_splits keeps each part, a class listed in two parts is
    rejected, and every episode of a part draws distinct classes of that
    part, each document under the local label of its own class."""
    docs_per_class = 3
    corpus = build_corpus(num_classes=num_classes, docs_per_class=docs_per_class)
    names = corpus.class_names
    owner = data.draw(st.lists(st.sampled_from(PARTS + (None,)), min_size=num_classes,
                               max_size=num_classes))
    parts = {part: [names[c] for c in range(num_classes) if owner[c] == part] for part in PARTS}
    split = make_splits(corpus, *parts.values())
    for part in PARTS:
        assert split.part(part) == tuple(c for c in range(num_classes) if owner[c] == part)

    c = data.draw(st.integers(0, num_classes - 1))
    a, b = data.draw(st.lists(st.sampled_from(PARTS), min_size=2, max_size=2, unique=True))
    overlapping = {part: [n for n in names_ if n != names[c]] for part, names_ in parts.items()}
    overlapping[a].append(names[c])
    overlapping[b].append(names[c])
    with pytest.raises(SplitError, match="both"):
        make_splits(corpus, *overlapping.values())

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for part in PARTS:
        classes = split.part(part)
        if not classes:
            continue
        n_way = data.draw(st.integers(1, len(classes)))
        ep = sample_episode(corpus, split, part, n_way, 1, 2, rng)
        assert len(set(ep.label_map)) == n_way and set(ep.label_map) <= set(classes)
        for seq, local in ep.support + ep.query:
            assert (int(seq[0]) - FIRST_REAL_ID) // docs_per_class == ep.label_map[local]

"""The corpus's bulk CSR paths against per-document references, and a guard
that no bulk path builds Document objects.

The reference functions below do the work of the loader's cut into
documents, count_csr, select_vocab, split_corpus and save_uci_bow one
document at a time, as the matrix code's oracle.
"""
import io
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebm.corpus import (
    Corpus,
    Document,
    load_uci_bow,
    save_uci_bow,
    select_vocab,
    split_corpus,
    split_indices,
)
from sparsebm.sbm import TrainConfig, sbm_train
from sparsebm.structure import build_cmi_table, build_skeleton
from sparsebm.synthetic import sparse_topic_corpus


def ref_load(entries, n_docs, k):
    """Documents of parsed (docID, wordID, count) rows: repeats summed, rows
    sorted and cut into documents, empty documents dropped."""
    rows = np.array(entries, dtype=np.int64).reshape(-1, 3)
    key = (rows[:, 0] - 1) * k + (rows[:, 1] - 1)
    order = np.argsort(key)
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    count = np.add.reduceat(rows[order, 2], starts)
    doc, word = np.divmod(key[starts], k)
    bounds = np.searchsorted(doc, np.arange(n_docs + 1)).tolist()
    return [
        Document._trusted(word[a:b].copy(), count[a:b].copy())
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]


def ref_csr(docs, k):
    """The count matrix concatenated from the documents' arrays."""
    sizes = np.fromiter((d.words.size for d in docs), np.int64, len(docs))
    indptr = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    none = [np.zeros(0, dtype=np.int64)]
    words = np.concatenate([d.words for d in docs] or none)
    counts = np.concatenate([d.counts for d in docs] or none)
    return sp.csr_matrix((counts, words, indptr), shape=(len(docs), k))


def ref_select(vocab, docs, k, method):
    """(vocab, documents) of the top-k words, scored one document at a
    time; an empty corpus scores every word 0."""
    n, n_words = len(docs), len(vocab)
    totals = np.zeros(n_words, dtype=np.int64)
    df = np.zeros(n_words)
    for d in docs:
        totals[d.words] += d.counts
        df[d.words] += 1
    if method == "frequency":
        scores = totals.astype(np.float64)
    else:
        idf = np.zeros(n_words)
        present = df > 0
        idf[present] = np.log(n / df[present])
        acc = np.zeros(n_words)
        for d in docs:
            acc[d.words] += (d.counts / d.length) * idf[d.words]
        scores = acc / n if n else acc
    order = np.lexsort((np.arange(n_words), -scores))
    keep = np.sort(order[:k])
    remap = -np.ones(n_words, dtype=np.int64)
    remap[keep] = np.arange(k)
    new_docs = []
    for d in docs:
        mask = remap[d.words] >= 0
        if not mask.any():
            continue
        new_docs.append(Document(remap[d.words[mask]], d.counts[mask]))
    return [vocab[i] for i in keep], new_docs


def ref_docword(docs, k):
    """The docword text written one document at a time."""
    out = io.StringIO()
    out.write(f"{len(docs)}\n{k}\n{sum(d.words.size for d in docs)}\n")
    for i, d in enumerate(docs, start=1):
        for w, c in zip(d.words, d.counts):
            out.write(f"{i} {w + 1} {c}\n")
    return out.getvalue()


def assert_matches(corpus, vocab, docs):
    assert corpus.vocab == vocab
    assert corpus.n_docs == len(docs)
    assert corpus.docs == docs
    got, want = corpus.count_csr(), ref_csr(docs, len(vocab))
    assert got.shape == want.shape and got.dtype == np.int64
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    with tempfile.TemporaryDirectory() as tmp:
        docword, vocab_path = Path(tmp) / "d.txt", Path(tmp) / "v.txt"
        save_uci_bow(corpus, docword, vocab_path)
        assert docword.read_text() == ref_docword(docs, len(vocab))
        assert vocab_path.read_text() == "".join(f"{w}\n" for w in vocab)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bulk_paths_match_per_document_reference(data):
    k = data.draw(st.integers(1, 6), label="K")
    n_docs = data.draw(st.integers(0, 8), label="N")
    entry = st.tuples(st.integers(1, max(n_docs, 1)), st.integers(1, k), st.integers(1, 9))
    # unsorted, with repeated (doc, word) pairs and documents left empty
    entries = data.draw(st.lists(entry, max_size=20) if n_docs else st.just([]))
    vocab = [f"w{i}" for i in range(k)]
    with tempfile.TemporaryDirectory() as tmp:
        docword, vocab_path = Path(tmp) / "d.txt", Path(tmp) / "v.txt"
        lines = [n_docs, k, len(entries)] + ["%d %d %d" % e for e in entries]
        docword.write_text("".join(f"{line}\n" for line in lines))
        vocab_path.write_text("".join(f"{w}\n" for w in vocab))
        corpus, dropped = load_uci_bow(docword, vocab_path)
    docs = ref_load(entries, n_docs, k)
    assert dropped == n_docs - len(docs)
    assert_matches(corpus, vocab, docs)

    method = data.draw(st.sampled_from(["frequency", "tfidf"]), label="method")
    cut = data.draw(st.integers(1, k), label="cut")
    vocab, docs = ref_select(vocab, docs, cut, method)
    corpus = select_vocab(corpus, cut, method)
    assert_matches(corpus, vocab, docs)

    n_train = data.draw(st.integers(0, len(docs)), label="n_train")
    n_val = data.draw(st.integers(0, len(docs) - n_train), label="n_val")
    n_test = data.draw(st.integers(0, len(docs) - n_train - n_val), label="n_test")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    split = split_corpus(corpus, seed, n_train, n_val, n_test)
    parts = (split.train, split.validation, split.test)
    for part, idx in zip(parts, split_indices(len(docs), seed, n_train, n_val, n_test)):
        assert_matches(part, vocab, [docs[i] for i in idx])


def test_bulk_paths_make_no_documents(tmp_path, monkeypatch):
    made = sparse_topic_corpus(120, seed=3, n_words=24, n_groups=4)
    save_uci_bow(made.corpus, tmp_path / "d.txt", tmp_path / "v.txt")
    calls = []
    init, trusted = Document.__init__, Document._trusted

    def counted_init(self, *args):
        calls.append("__init__")
        init(self, *args)

    def counted_trusted(cls, *args):
        calls.append("_trusted")
        return trusted(*args)

    monkeypatch.setattr(Document, "__init__", counted_init)
    monkeypatch.setattr(Document, "_trusted", classmethod(counted_trusted))

    corpus, _ = load_uci_bow(tmp_path / "d.txt", tmp_path / "v.txt")
    select_vocab(corpus, 12, "tfidf")
    corpus = select_vocab(corpus, 20, "frequency")
    split = split_corpus(corpus, 0, corpus.n_docs - 20, 10, 10)
    save_uci_bow(split.train, tmp_path / "t.txt", tmp_path / "tv.txt")
    skeleton = build_skeleton(split.train, island_max=4, supergroup_max=1, mi_floor=0.0)
    config = TrainConfig(epochs=1, cd_steps=1, batch_size=50)
    build_cmi_table(sbm_train(split.train, skeleton, config), split.train)
    assert calls == []
    # the counters do see the views that docs makes
    assert len(split.test.docs) == len(calls) == 10

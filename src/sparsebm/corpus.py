"""Bag-of-words corpora in the UCI sparse text format.

Covers loading and writing docword/vocab file pairs, vocabulary selection by
total frequency or average TF-IDF, deterministic train/validation/test
splits, and per-epoch minibatch schedules. Word IDs are 1-based on disk and
0-based everywhere in memory.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import FileFormatError, StructureError
from .util import open_text, read_columns, rng_from

# stream tags so different operations sharing one user seed stay decoupled
_SPLIT_STREAM = 12
_SHUFFLE_STREAM = 11

# a docword token as read_columns reads it
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
_INT64_MAX = np.iinfo(np.int64).max
# docword rows formatted per write
_WRITE_ROWS = 1 << 13
SELECT_METHODS = ("frequency", "tfidf")


class Document:
    """Sparse word-count vector held as parallel index/count arrays.

    Indices are sorted, unique and 0-based; counts are strictly positive,
    so the total token count is at least 1.
    """

    __slots__ = ("words", "counts")

    def __init__(self, words, counts):
        words = np.asarray(words, dtype=np.int64).ravel()
        counts = np.asarray(counts, dtype=np.int64).ravel()
        if words.shape != counts.shape:
            raise ValueError("words and counts must have equal length")
        if words.size == 0:
            raise ValueError("document must contain at least one token")
        if np.any(counts <= 0):
            raise ValueError("counts must be strictly positive")
        if np.any(words < 0):
            raise ValueError("word indices must be non-negative")
        order = np.argsort(words, kind="stable")
        words = words[order]
        counts = counts[order]
        if words.size > 1 and np.any(np.diff(words) == 0):
            raise ValueError("duplicate word index in document")
        self.words = words
        self.counts = counts

    @classmethod
    def _trusted(cls, words, counts) -> "Document":
        """Wrap int64 arrays already known to be sorted, unique and positive."""
        doc = cls.__new__(cls)
        doc.words = words
        doc.counts = counts
        return doc

    @classmethod
    def from_counts(cls, counts) -> "Document":
        """Build from a mapping of word index to count; zero counts dropped."""
        items = [(w, c) for w, c in counts.items() if c != 0]
        if not items:
            raise ValueError("document must contain at least one token")
        words, vals = zip(*sorted(items))
        return cls(np.array(words), np.array(vals))

    @property
    def length(self) -> int:
        """Total token count D."""
        return int(self.counts.sum())

    def to_dense(self, vocab_size: int) -> np.ndarray:
        out = np.zeros(vocab_size, dtype=np.float64)
        out[self.words] = self.counts
        return out

    def to_dict(self) -> dict:
        return {int(w): int(c) for w, c in zip(self.words, self.counts)}

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return np.array_equal(self.words, other.words) and np.array_equal(
            self.counts, other.counts
        )

    def __repr__(self):
        return f"Document({self.to_dict()!r})"


class Corpus:
    """Immutable collection of documents over one fixed vocabulary, held as
    one (n_docs, n_words) int64 CSR count matrix with rows in document
    order. `docs` makes Document views of its rows on each call, so a pass
    over the documents calls it once."""

    def __init__(self, vocab, docs, name: str = ""):
        vocab = list(vocab)
        if any(not w for w in vocab):
            raise StructureError("vocabulary entries must be non-empty")
        if len(set(vocab)) != len(vocab):
            raise StructureError("vocabulary entries must be unique")
        self.vocab, self.name = vocab, name
        self._csr = docs_csr(docs, len(vocab))

    @classmethod
    def _from_csr(cls, vocab, csr, name) -> "Corpus":
        """Wrap a checked vocabulary and an int64 count CSR whose rows are
        non-empty, with sorted, unique columns and positive counts."""
        corpus = cls.__new__(cls)
        corpus.vocab, corpus._csr, corpus.name = vocab, csr, name
        return corpus

    @property
    def n_words(self) -> int:
        return len(self.vocab)

    @property
    def n_docs(self) -> int:
        return self._csr.shape[0]

    @property
    def docs(self) -> list:
        """Every document, as views of a copy of the CSR made on each call."""
        # scipy keeps column indices as int32 where they fit
        words, counts = self._csr.indices.astype(np.int64), self._csr.data.copy()
        bounds = self._csr.indptr.tolist()
        return [Document._trusted(words[a:b], counts[a:b])
                for a, b in zip(bounds[:-1], bounds[1:])]

    def count_csr(self) -> sp.csr_matrix:
        """The (n_docs, n_words) int64 count matrix in CSR form, rows in
        document order: the corpus itself, the same object on every call."""
        return self._csr

    def occurrence_csr(self) -> sp.csr_matrix:
        """0/1 float64 word presence, sharing the count matrix's index arrays."""
        csr = self.count_csr()
        return sp.csr_matrix(
            (np.ones(csr.nnz), csr.indices, csr.indptr), shape=csr.shape, copy=False
        )

    def dense_rows(self, rows) -> np.ndarray:
        """dense_rows of the documents selected by rows: a block of
        counts_matrix() made from the CSR without the rest of it."""
        return dense_rows(self._csr, rows)

    def counts_matrix(self) -> np.ndarray:
        """Dense (n_docs, n_words) count matrix; a whole-corpus convenience,
        n_docs * n_words floats."""
        return self.dense_rows(slice(None))

    def occurrence_matrix(self) -> np.ndarray:
        """Dense 0/1 (n_docs, n_words) word-presence matrix; a whole-corpus
        convenience like counts_matrix()."""
        return (self.counts_matrix() > 0).astype(np.float64)

    def total_counts(self) -> np.ndarray:
        csr = self.count_csr()
        out = np.zeros(self.n_words, dtype=np.int64)
        np.add.at(out, csr.indices, csr.data)
        return out

    def doc_frequencies(self) -> np.ndarray:
        # a document holds each word once
        return np.bincount(self.count_csr().indices, minlength=self.n_words).astype(np.int64)

    def __repr__(self):
        return f"Corpus(name={self.name!r}, n_docs={self.n_docs}, n_words={self.n_words})"


@dataclass
class CorpusSplit:
    """Disjoint train/validation/test corpora drawn from one source corpus."""

    train: Corpus
    validation: Corpus
    test: Corpus
    seed: int
    train_indices: np.ndarray = field(repr=False, default=None)
    validation_indices: np.ndarray = field(repr=False, default=None)
    test_indices: np.ndarray = field(repr=False, default=None)


def docs_csr(docs, n_words: int) -> sp.csr_matrix:
    """The (len(docs), n_words) int64 count CSR of Documents, one row each in
    order; a word index at or above n_words is refused, naming its document."""
    docs = list(docs)
    for i, d in enumerate(docs):
        if d.words.size and int(d.words[-1]) >= n_words:
            raise StructureError(
                f"document {i} references word index {int(d.words[-1])} >= K={n_words}"
            )
    indptr = np.cumsum([0] + [d.words.size for d in docs], dtype=np.int64)
    none = [np.zeros(0, dtype=np.int64)]
    words = np.concatenate([d.words for d in docs] or none)
    counts = np.concatenate([d.counts for d in docs] or none)
    return sp.csr_matrix((counts, words, indptr), shape=(len(docs), n_words))


def dense_rows(csr, rows) -> np.ndarray:
    """Dense float64 counts of the CSR rows selected by rows (a slice or an
    index array), one row each, made without the rest of the matrix."""
    if isinstance(rows, slice):
        rows = np.arange(*rows.indices(csr.shape[0]))
    rows = np.asarray(rows, dtype=np.int64)
    start = csr.indptr[rows]
    size = csr.indptr[rows + 1] - start
    # position of each selected entry in the CSR's indices and data
    pos = np.arange(size.sum()) + np.repeat(start - np.cumsum(size) + size, size)
    out = np.zeros((rows.size, csr.shape[1]))
    out[np.repeat(np.arange(rows.size), size), csr.indices[pos]] = csr.data[pos]
    return out


def load_uci_bow(docword_path, vocab_path):
    """Load a UCI docword/vocab file pair.

    The docword file carries three header lines (N, K, NNZ) followed by NNZ
    lines of "docID wordID count" with 1-based IDs. Blank lines are skipped,
    repeated (docID, wordID) lines are summed, and documents with no tokens
    are dropped; their number is returned alongside the corpus. Errors name
    the offending line, counting every line of the file.

    Returns:
        (Corpus, n_dropped)
    """
    vocab = _read_vocab(vocab_path)
    with open_text(docword_path) as fh:
        header = []
        for ln in range(1, 4):
            raw = fh.readline().strip()
            value = read_columns([raw], np.int64)
            if value is None or value[0].size != 1:
                raise FileFormatError(f"expected integer header at line {ln}, got {raw!r}")
            header.append(value[0].item())
        n_docs, k, nnz = header
        if n_docs < 0 or k <= 0 or nnz < 0:
            raise FileFormatError(f"invalid header values N={n_docs} K={k} NNZ={nnz}")
        if k != len(vocab):
            raise StructureError(
                f"docword K={k} does not match vocab size {len(vocab)}"
            )
        body_start = fh.tell()
        cols = read_columns(fh, [("doc", np.int64), ("word", np.int64), ("count", np.int64)])
        if cols is None or not (
            cols[0].size == nnz
            and np.all((cols[0] >= 1) & (cols[0] <= n_docs))
            and np.all((cols[1] >= 1) & (cols[1] <= k))
            and np.all(cols[2] >= 1)
        ):
            fh.seek(body_start)
            raise _body_error(fh, n_docs, k, nnz)
    _check_unique_vocab(vocab, vocab_path)

    # sum repeated (doc, word) lines, then cut the sorted entries into rows
    key = (cols[0] - 1) * k + (cols[1] - 1)
    count = cols[2].copy()
    # free the columns' table before the sort, whose arrays then set the peak
    del cols
    order = np.argsort(key)
    key, count = key[order], count[order]
    del order
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    doc, word = np.divmod(key[starts], k)
    if count.size and count.max() > _INT64_MAX // count.size:
        # only counts this large can sum past 64 bits, where int64 wraps
        exact = np.add.reduceat(count.astype(object), starts)
        big = int(np.argmax(exact))
        if exact[big] > _INT64_MAX:
            raise FileFormatError(
                f"summed count of doc ID {doc[big] + 1} word ID {word[big] + 1}"
                " exceeds 64 bits"
            )
    count = np.add.reduceat(count, starts)
    # an empty document repeats its successor's row bound, so the unique
    # bounds drop it
    indptr = np.unique(np.searchsorted(doc, np.arange(n_docs + 1)))
    csr = sp.csr_matrix((count, word, indptr), shape=(indptr.size - 1, k))
    return Corpus._from_csr(vocab, csr, str(docword_path)), n_docs - csr.shape[0]


def _body_error(lines, n_docs: int, k: int, nnz: int) -> FileFormatError:
    """Word the error of a docword body that failed a bulk check: walk its
    lines (the first is line 4 of the file) to the first bad one, else
    report the entry count.

    A token is an optionally signed run of ASCII digits, as read_columns
    reads it. That call also refuses values outside 64 bits; of those only
    a count can pass the range checks, so counts get one more check.
    """
    n_entries = 0
    for ln, raw in enumerate(lines, start=4):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 3 or not all(map(_INT_TOKEN.fullmatch, parts)):
            return FileFormatError(f"expected 'docID wordID count' at line {ln}")
        doc_id, word_id, count = map(int, parts)
        if not 1 <= doc_id <= n_docs:
            return FileFormatError(f"doc ID {doc_id} exceeds N={n_docs} at line {ln}")
        if not 1 <= word_id <= k:
            return FileFormatError(f"word ID {word_id} exceeds K={k} at line {ln}")
        if count <= 0:
            return FileFormatError(f"count {count} must be positive at line {ln}")
        if count > _INT64_MAX:
            return FileFormatError(f"count {count} exceeds 64 bits at line {ln}")
        n_entries += 1
    return FileFormatError(f"header promises {nnz} entries, file contains {n_entries}")


def load_vocab(vocab_path) -> list:
    """The words of a vocabulary file, one per line; an empty line, an empty
    file or a repeated word is refused as load_uci_bow refuses it."""
    vocab = _read_vocab(vocab_path)
    _check_unique_vocab(vocab, vocab_path)
    return vocab


def _read_vocab(vocab_path) -> list:
    with open_text(vocab_path) as fh:
        vocab = []
        for i, line in enumerate(fh, start=1):
            word = line.strip()
            if not word:
                raise FileFormatError(f"{vocab_path}: empty word at line {i}")
            vocab.append(word)
    if not vocab:
        raise FileFormatError(f"{vocab_path}: vocabulary file is empty")
    return vocab


def _check_unique_vocab(vocab, vocab_path) -> None:
    first_line = {}
    for ln, word in enumerate(vocab, start=1):
        first = first_line.setdefault(word, ln)
        if first != ln:
            raise StructureError(
                f"{vocab_path}: vocabulary word {word!r} at line {ln}"
                f" repeats line {first}"
            )


def save_uci_bow(corpus: Corpus, docword_path, vocab_path) -> None:
    """Write a corpus back out as a UCI docword/vocab pair (1-based IDs)."""
    with open(vocab_path, "w", encoding="utf-8") as fh:
        fh.write("".join(word + "\n" for word in corpus.vocab))
    csr = corpus.count_csr()
    with open(docword_path, "w", encoding="utf-8") as fh:
        fh.write(f"{corpus.n_docs}\n{corpus.n_words}\n{csr.nnz}\n")
        # one block of nonzeros at a time, so the only copies are a block's
        for start in range(0, csr.nnz, _WRITE_ROWS):
            entries = np.arange(start, min(start + _WRITE_ROWS, csr.nnz))
            block = np.empty((entries.size, 3), dtype=np.int64)
            # the 1-based document of each nonzero
            block[:, 0] = np.searchsorted(csr.indptr, entries, side="right")
            block[:, 1] = csr.indices[entries] + 1
            block[:, 2] = csr.data[entries]
            fh.write("%d %d %d\n" * len(block) % tuple(block.ravel().tolist()))


def select_vocab(corpus: Corpus, k: int, method: str = "frequency") -> Corpus:
    """Restrict the corpus to its top-k words.

    method="frequency" ranks by total corpus count; method="tfidf" ranks by
    the average over all documents of (count/doc_length) * log(N / df),
    where df is the number of documents containing the word and documents
    missing the word contribute zero. Ties break toward the lower original
    index. Documents left empty by the cut are dropped.
    """
    if k > corpus.n_words:
        raise ValueError(f"K={k} exceeds vocabulary size {corpus.n_words}")
    if k <= 0:
        raise ValueError("K must be positive")
    csr = corpus.count_csr()
    if method == "frequency":
        scores = corpus.total_counts().astype(np.float64)
    elif method == "tfidf":
        n = corpus.n_docs
        df = corpus.doc_frequencies().astype(np.float64)
        idf = np.zeros(corpus.n_words)
        present = df > 0
        idf[present] = np.log(n / df[present])
        lengths = np.repeat(np.asarray(csr.sum(axis=1)).ravel(), np.diff(csr.indptr))
        # bincount adds each word's terms in document order, as a loop would
        acc = np.bincount(csr.indices, (csr.data / lengths) * idf[csr.indices], corpus.n_words)
        # an empty corpus scores every word 0, as by frequency
        scores = acc / max(n, 1)
    else:
        raise ValueError(f"unknown method {method!r}, want one of {SELECT_METHODS}")

    order = np.lexsort((np.arange(corpus.n_words), -scores))
    keep = np.sort(order[:k])
    remap = -np.ones(corpus.n_words, dtype=np.int64)
    remap[keep] = np.arange(k)
    words = remap[csr.indices]
    kept = words >= 0
    # row bounds among the kept entries; a document emptied by the cut
    # repeats its successor's bound, so the unique bounds drop it
    indptr = np.unique(np.concatenate(([0], np.cumsum(kept)))[csr.indptr])
    cut = sp.csr_matrix((csr.data[kept], words[kept], indptr), shape=(indptr.size - 1, k))
    return Corpus._from_csr([corpus.vocab[i] for i in keep], cut, corpus.name)


def split_indices(n_docs: int, seed: int, n_train: int, n_val: int, n_test: int):
    """Shuffled document indices assigned in order to train/val/test."""
    if min(n_train, n_val, n_test) < 0:
        raise ValueError("split sizes must be non-negative")
    if n_train + n_val + n_test > n_docs:
        raise ValueError(
            f"split sizes {n_train}+{n_val}+{n_test} exceed corpus size {n_docs}"
        )
    perm = rng_from(seed, _SPLIT_STREAM).permutation(n_docs)
    a, b = n_train, n_train + n_val
    c = b + n_test
    return perm[:a], perm[a:b], perm[b:c]


def split_corpus(
    corpus: Corpus, seed: int, n_train: int, n_val: int, n_test: int
) -> CorpusSplit:
    """Deterministically split a corpus; all three parts share the vocab."""
    tr, va, te = split_indices(corpus.n_docs, seed, n_train, n_val, n_test)

    csr = corpus.count_csr()
    parts = [Corpus._from_csr(corpus.vocab, csr[idx], corpus.name) for idx in (tr, va, te)]
    return CorpusSplit(*parts, seed, tr, va, te)


def save_split_manifest(split: CorpusSplit, path) -> None:
    """Plain-text record of which source document went to which part."""
    with open(path, "w", encoding="utf-8") as fh:
        for section, idx in (
            ("train", split.train_indices),
            ("validation", split.validation_indices),
            ("test", split.test_indices),
        ):
            fh.write(f"[{section}]\n")
            for i in idx:
                fh.write(f"{int(i)}\n")


def minibatch_indices(n_docs: int, batch_size: int, seed: int, epoch: int = 0):
    """Index arrays for one epoch's minibatches.

    Every document appears exactly once per epoch; the shuffle is re-drawn
    per epoch from the (seed, epoch) pair, so the same pair always produces
    the same batch order.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    perm = rng_from(seed, _SHUFFLE_STREAM, epoch).permutation(n_docs)
    return [perm[i : i + batch_size] for i in range(0, n_docs, batch_size)]


def minibatches(corpus: Corpus, batch_size: int, seed: int, epoch: int = 0):
    """Minibatches of documents for one epoch; see minibatch_indices."""
    docs = corpus.docs
    return [
        [docs[i] for i in idx]
        for idx in minibatch_indices(corpus.n_docs, batch_size, seed, epoch)
    ]

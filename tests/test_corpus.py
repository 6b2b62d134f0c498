import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebm.corpus import (
    Corpus,
    Document,
    load_uci_bow,
    minibatch_indices,
    minibatches,
    save_split_manifest,
    save_uci_bow,
    select_vocab,
    split_corpus,
)
from sparsebm.errors import FileFormatError, StructureError
from sparsebm.sbm import TrainConfig, _bias_lr_factor


def write_bow(tmp_path, header, entries, vocab):
    docword = tmp_path / "docword.txt"
    vocab_path = tmp_path / "vocab.txt"
    lines = [str(x) for x in header] + [f"{d} {w} {c}" for d, w, c in entries]
    docword.write_text("\n".join(lines) + "\n")
    vocab_path.write_text("\n".join(vocab) + "\n")
    return docword, vocab_path


class TestDocument:
    def test_sorted_and_positive(self):
        doc = Document([2, 0], [1, 3])
        assert doc.words.tolist() == [0, 2]
        assert doc.counts.tolist() == [3, 1]
        assert doc.length == 4

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Document([], [])

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            Document([0], [0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Document([1, 1], [1, 2])

    def test_from_counts_drops_zeros(self):
        doc = Document.from_counts({3: 2, 1: 0, 0: 1})
        assert doc.to_dict() == {0: 1, 3: 2}


class TestLoadUciBow:
    def test_basic_load(self, tmp_path):
        paths = write_bow(tmp_path, [2, 3, 3], [(1, 1, 2), (1, 3, 1), (2, 2, 5)],
                          ["a", "b", "c"])
        corpus, dropped = load_uci_bow(*paths)
        assert dropped == 0
        assert [d.to_dict() for d in corpus.docs] == [{0: 2, 2: 1}, {1: 5}]
        assert corpus.vocab == ["a", "b", "c"]

    def test_empty_doc_dropped_and_counted(self, tmp_path):
        paths = write_bow(tmp_path, [3, 2, 2], [(1, 1, 4), (3, 2, 1)], ["a", "b"])
        corpus, dropped = load_uci_bow(*paths)
        assert corpus.n_docs == 2
        assert dropped == 1

    def test_word_id_out_of_range(self, tmp_path):
        paths = write_bow(tmp_path, [2, 3, 3],
                          [(1, 1, 2), (1, 3, 1), (1, 4, 1)], ["a", "b", "c"])
        with pytest.raises(FileFormatError, match=r"word ID 4 exceeds K=3 at line 6"):
            load_uci_bow(*paths)

    def test_bad_count(self, tmp_path):
        paths = write_bow(tmp_path, [1, 2, 1], [(1, 1, 0)], ["a", "b"])
        with pytest.raises(FileFormatError, match="line 4"):
            load_uci_bow(*paths)

    def test_bad_header(self, tmp_path):
        docword = tmp_path / "d.txt"
        docword.write_text("2\nx\n3\n")
        vocab = tmp_path / "v.txt"
        vocab.write_text("a\nb\n")
        with pytest.raises(FileFormatError, match="line 2"):
            load_uci_bow(docword, vocab)

    def test_vocab_size_mismatch(self, tmp_path):
        paths = write_bow(tmp_path, [1, 3, 1], [(1, 1, 1)], ["a", "b"])
        with pytest.raises(StructureError, match="does not match"):
            load_uci_bow(*paths)

    def test_nnz_mismatch(self, tmp_path):
        paths = write_bow(tmp_path, [1, 2, 5], [(1, 1, 1)], ["a", "b"])
        with pytest.raises(FileFormatError, match="entries"):
            load_uci_bow(*paths)


class TestRoundTrip:
    def test_fixed_round_trip(self, tiny_corpus, tmp_path):
        save_uci_bow(tiny_corpus, tmp_path / "d.txt", tmp_path / "v.txt")
        loaded, dropped = load_uci_bow(tmp_path / "d.txt", tmp_path / "v.txt")
        assert dropped == 0
        assert loaded.vocab == tiny_corpus.vocab
        assert loaded.docs == tiny_corpus.docs

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_round_trip(self, data):
        import tempfile
        from pathlib import Path

        k = data.draw(st.integers(1, 6))
        n_docs = data.draw(st.integers(1, 8))
        docs = []
        for _ in range(n_docs):
            entries = data.draw(
                st.dictionaries(st.integers(0, k - 1), st.integers(1, 9),
                                min_size=1, max_size=k)
            )
            docs.append(Document.from_counts(entries))
        corpus = Corpus([f"w{i}" for i in range(k)], docs)
        with tempfile.TemporaryDirectory() as tmp:
            d, v = Path(tmp) / "d.txt", Path(tmp) / "v.txt"
            save_uci_bow(corpus, d, v)
            loaded, _ = load_uci_bow(d, v)
        assert loaded.docs == corpus.docs


def dense_by_loop(docs, n_words):
    """The count matrix built one document at a time, as int64."""
    out = np.zeros((len(docs), n_words), dtype=np.int64)
    for i, d in enumerate(docs):
        out[i, d.words] = d.counts
    return out


class TestCountCsr:
    def check(self, corpus, rows):
        want = dense_by_loop(corpus.docs, corpus.n_words)
        csr = corpus.count_csr()
        assert csr.shape == want.shape
        assert csr.dtype == np.int64
        assert np.array_equal(csr.toarray(), want)
        assert corpus.count_csr() is csr
        assert np.array_equal(corpus.counts_matrix(), want.astype(np.float64))
        assert np.array_equal(corpus.occurrence_matrix(), (want > 0).astype(np.float64))
        assert np.array_equal(corpus.occurrence_csr().toarray(), (want > 0).astype(np.float64))
        block = corpus.dense_rows(rows)
        assert block.dtype == np.float64
        assert np.array_equal(block, want[rows].astype(np.float64))
        assert np.array_equal(corpus.dense_rows(slice(1, None)), want[1:].astype(np.float64))

        totals = np.zeros(corpus.n_words, dtype=np.int64)
        df = np.zeros(corpus.n_words, dtype=np.int64)
        for d in corpus.docs:
            totals[d.words] += d.counts
            df[d.words] += 1
        for got, expect in ((corpus.total_counts(), totals), (corpus.doc_frequencies(), df)):
            assert got.dtype == np.int64
            assert np.array_equal(got, expect)
        config = TrainConfig(hidden_bias_lr_scale="auto")
        mean_length = sum(d.length for d in corpus.docs) / max(1, corpus.n_docs)
        assert _bias_lr_factor(config, corpus) == 1.0 / max(1.0, mean_length)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_dense_loop(self, data):
        k = data.draw(st.integers(1, 8))
        entries = data.draw(st.lists(
            st.dictionaries(st.integers(0, k - 1), st.integers(1, 2**40), min_size=1),
            max_size=6,
        ))
        corpus = Corpus([f"w{i}" for i in range(k)], map(Document.from_counts, entries))
        rows = data.draw(st.lists(st.integers(0, len(entries) - 1), max_size=8)
                         if entries else st.just([]))
        self.check(corpus, rows)

    @pytest.mark.parametrize("docs", [
        [],
        [Document([2], [7])],
        [Document([0, 4], [1, 3]), Document([4], [2]), Document([0], [5])],
    ], ids=["no-documents", "one-document", "unused-words"])
    def test_edge_corpora(self, docs):
        corpus = Corpus([f"w{i}" for i in range(6)], docs)
        self.check(corpus, list(range(len(docs)))[::-1])


class TestSelectVocab:
    def test_frequency_keeps_top(self, tiny_corpus):
        # totals: alpha 5, beta 8, gamma 6 -> top 2 are beta, gamma
        out = select_vocab(tiny_corpus, 2, "frequency")
        assert out.vocab == ["beta", "gamma"]
        kept_totals = out.total_counts()
        assert kept_totals.min() >= 5  # >= max among dropped (alpha: 5)

    def test_frequency_cut_invariant(self, tiny_corpus):
        totals = tiny_corpus.total_counts()
        out = select_vocab(tiny_corpus, 1, "frequency")
        kept = [tiny_corpus.vocab.index(w) for w in out.vocab]
        dropped = [i for i in range(tiny_corpus.n_words) if i not in kept]
        assert totals[kept].min() >= totals[dropped].max()

    def test_tie_breaks_to_lower_index(self):
        docs = [Document([0], [2]), Document([1], [2])]
        corpus = Corpus(["a", "b"], docs)
        out = select_vocab(corpus, 1, "frequency")
        assert out.vocab == ["a"]

    def test_tfidf_hand_computed(self):
        # word 0 in both docs (idf 0), word 1 only in doc 0
        docs = [Document([0, 1], [1, 1]), Document([0], [1])]
        corpus = Corpus(["common", "rare"], docs)
        out = select_vocab(corpus, 1, "tfidf")
        assert out.vocab == ["rare"]

    def test_empty_docs_dropped(self):
        docs = [Document([0], [1]), Document([1], [4])]
        corpus = Corpus(["a", "b"], docs)
        out = select_vocab(corpus, 1, "frequency")
        assert out.vocab == ["b"]
        assert out.n_docs == 1

    def test_k_too_large(self, tiny_corpus):
        with pytest.raises(ValueError):
            select_vocab(tiny_corpus, 4)

    def test_single_word_degenerate(self):
        docs = [Document([0], [1]), Document([0], [2])]
        corpus = Corpus(["only"], docs)
        out = select_vocab(corpus, 1, "frequency")
        assert out.n_docs == 2


class TestSplit:
    def test_sizes_and_disjoint(self, tiny_corpus):
        split = split_corpus(tiny_corpus, seed=3, n_train=4, n_val=2, n_test=1)
        assert split.train.n_docs == 4
        assert split.validation.n_docs == 2
        assert split.test.n_docs == 1
        all_idx = np.concatenate(
            [split.train_indices, split.validation_indices, split.test_indices]
        )
        assert len(set(all_idx.tolist())) == 7

    def test_deterministic(self, tiny_corpus):
        a = split_corpus(tiny_corpus, seed=9, n_train=3, n_val=2, n_test=2)
        b = split_corpus(tiny_corpus, seed=9, n_train=3, n_val=2, n_test=2)
        assert a.train_indices.tolist() == b.train_indices.tolist()
        assert a.test_indices.tolist() == b.test_indices.tolist()

    def test_all_in_train(self, tiny_corpus):
        split = split_corpus(tiny_corpus, seed=0, n_train=7, n_val=0, n_test=0)
        assert split.train.n_docs == 7
        assert split.test.n_docs == 0

    def test_oversized_split_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            split_corpus(tiny_corpus, seed=0, n_train=6, n_val=1, n_test=1)

    def test_manifest_written(self, tiny_corpus, tmp_path):
        split = split_corpus(tiny_corpus, seed=1, n_train=5, n_val=1, n_test=1)
        save_split_manifest(split, tmp_path / "split.txt")
        text = (tmp_path / "split.txt").read_text()
        assert "[train]" in text and "[test]" in text
        assert len(text.strip().splitlines()) == 3 + 7


class TestMinibatches:
    def test_counts_and_cover(self, tiny_corpus):
        batches = minibatches(tiny_corpus, batch_size=3, seed=0)
        assert [len(b) for b in batches] == [3, 3, 1]
        seen = [doc for batch in batches for doc in batch]
        assert len(seen) == 7

    def test_epoch_determinism(self):
        a = minibatch_indices(10, 4, seed=5, epoch=2)
        b = minibatch_indices(10, 4, seed=5, epoch=2)
        assert [x.tolist() for x in a] == [x.tolist() for x in b]

    def test_epochs_differ(self):
        a = minibatch_indices(10, 4, seed=5, epoch=0)
        b = minibatch_indices(10, 4, seed=5, epoch=1)
        assert [x.tolist() for x in a] != [x.tolist() for x in b]

    def test_batch_count(self):
        batches = minibatch_indices(1640, 10, seed=0)
        assert len(batches) == 164

    def test_every_doc_once_per_epoch(self):
        batches = minibatch_indices(11, 3, seed=7, epoch=4)
        idx = sorted(int(i) for b in batches for i in b)
        assert idx == list(range(11))


class TestCorpusValidation:
    def test_duplicate_vocab_rejected(self):
        with pytest.raises(StructureError):
            Corpus(["a", "a"], [])

    def test_empty_word_rejected(self):
        with pytest.raises(StructureError):
            Corpus(["a", ""], [])

    def test_out_of_range_doc(self):
        with pytest.raises(StructureError):
            Corpus(["a"], [Document([1], [1])])


def write_docword(tmp_path, header, body, vocab=("a", "b", "c")):
    """A docword file of three header lines and the given body lines."""
    docword = tmp_path / "docword.txt"
    vocab_path = tmp_path / "vocab.txt"
    docword.write_text("".join(f"{line}\n" for line in [*header, *body]))
    vocab_path.write_text("".join(f"{w}\n" for w in vocab))
    return docword, vocab_path


class TestUciReaderRefusals:
    """Every refusal names its line, counting header and blank lines."""

    @pytest.mark.parametrize("blank", [0, 2])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1 2", "expected 'docID wordID count' at line {ln}"),
            ("1 2 3 4", "expected 'docID wordID count' at line {ln}"),
            ("1 x 2", "expected 'docID wordID count' at line {ln}"),
            ("1 2 3.0", "expected 'docID wordID count' at line {ln}"),
            ("1 2 3 # x", "expected 'docID wordID count' at line {ln}"),
            ("0 1 1", "doc ID 0 exceeds N=2 at line {ln}"),
            ("3 1 1", "doc ID 3 exceeds N=2 at line {ln}"),
            ("1 0 1", "word ID 0 exceeds K=3 at line {ln}"),
            ("1 4 1", "word ID 4 exceeds K=3 at line {ln}"),
            ("1 2 0", "count 0 must be positive at line {ln}"),
            ("1 2 -1", "count -1 must be positive at line {ln}"),
        ],
    )
    def test_bad_line(self, tmp_path, bad, message, blank):
        body = ["1 1 2"] + [""] * blank + [bad, "2 3 1"]
        paths = write_docword(tmp_path, [2, 3, 3], body)
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == message.format(ln=5 + blank)

    @pytest.mark.parametrize("blank", [0, 2])
    @pytest.mark.parametrize("nnz", [2, 4])
    def test_entry_count_differs_from_header(self, tmp_path, nnz, blank):
        body = ["1 1 2"] + [" "] * blank + ["1 2 1", "2 3 1"]
        paths = write_docword(tmp_path, [2, 3, nnz], body)
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == f"header promises {nnz} entries, file contains 3"

    def test_first_bad_line_wins(self, tmp_path):
        body = ["1 1 2", "", "1 x 1", "0 1 1"]
        paths = write_docword(tmp_path, [2, 3, 9], body)
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == "expected 'docID wordID count' at line 6"

    def test_bad_line_wins_over_entry_count(self, tmp_path):
        body = ["1 1 2", "2 1 0"]
        paths = write_docword(tmp_path, [2, 3, 5], body)
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == "count 0 must be positive at line 5"


    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0660"])
    def test_only_ascii_digit_tokens_read(self, tmp_path, token):
        # Python's int() reads both spellings as 10; the format does not
        paths = write_docword(tmp_path, [2, 3, 2], ["1 1 2", f"1 2 {token}"])
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == "expected 'docID wordID count' at line 5"

    def test_repeated_vocabulary_word_names_file_word_and_lines(self, tmp_path):
        paths = write_docword(tmp_path, [1, 4, 1], ["1 1 1"], vocab=("a", "b", "c", "b"))
        with pytest.raises(StructureError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == f"{paths[1]}: vocabulary word 'b' at line 4 repeats line 2"


    def test_counts_beyond_64_bits(self, tmp_path):
        big = 2**62
        paths = write_docword(tmp_path, [2, 3, 2], ["1 1 1", f"2 3 {4 * big}"])
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == f"count {4 * big} exceeds 64 bits at line 5"
        paths = write_docword(tmp_path, [2, 3, 3], ["2 3 1", f"2 3 {big}", f"2 3 {big}"])
        with pytest.raises(FileFormatError) as err:
            load_uci_bow(*paths)
        assert str(err.value) == "summed count of doc ID 2 word ID 3 exceeds 64 bits"
        paths = write_docword(tmp_path, [2, 3, 2], [f"2 3 {big}", f"2 3 {big - 1}"])
        corpus, _ = load_uci_bow(*paths)
        assert corpus.docs[0].to_dict() == {2: 2 * big - 1}


class TestUciReaderAcceptance:
    def test_repeated_pairs_are_summed(self, tmp_path):
        body = ["2 3 1", "1 2 3", "1 1 1", "1 2 4"]
        paths = write_docword(tmp_path, [2, 3, 4], body)
        corpus, dropped = load_uci_bow(*paths)
        assert dropped == 0
        assert [d.to_dict() for d in corpus.docs] == [{0: 1, 1: 7}, {2: 1}]
        assert all(d.words.dtype == np.int64 and d.counts.dtype == np.int64
                   for d in corpus.docs)

    def test_empty_documents_dropped_in_order(self, tmp_path):
        body = ["4 1 2", "2 3 1", "2 1 5"]
        paths = write_docword(tmp_path, [5, 3, 3], body)
        corpus, dropped = load_uci_bow(*paths)
        assert dropped == 3
        assert [d.to_dict() for d in corpus.docs] == [{0: 5, 2: 1}, {0: 2}]

    def test_blank_lines_skipped(self, tmp_path):
        body = ["", "1 1 2", " ", "\t", "2 2 1", "", ""]
        paths = write_docword(tmp_path, [2, 3, 2], body)
        corpus, _ = load_uci_bow(*paths)
        assert [d.to_dict() for d in corpus.docs] == [{0: 2}, {1: 1}]

    def test_whitespace_runs_and_signs(self, tmp_path):
        body = ["  1\t1   +2 ", "02 3 1"]
        paths = write_docword(tmp_path, [2, 3, 2], body)
        corpus, _ = load_uci_bow(*paths)
        assert [d.to_dict() for d in corpus.docs] == [{0: 2}, {2: 1}]

    @pytest.mark.parametrize("n_docs", [0, 3])
    def test_no_entries(self, tmp_path, n_docs):
        paths = write_docword(tmp_path, [n_docs, 3, 0], [])
        corpus, dropped = load_uci_bow(*paths)
        assert corpus.n_docs == 0
        assert dropped == n_docs
        assert corpus.vocab == ["a", "b", "c"]

    def test_single_entry(self, tmp_path):
        paths = write_docword(tmp_path, [1, 3, 1], ["1 3 9"])
        corpus, dropped = load_uci_bow(*paths)
        assert (dropped, [d.to_dict() for d in corpus.docs]) == (0, [{2: 9}])


def reference_docword_body(lines, n_docs, k, nnz):
    """The docword body rules applied one line at a time, as a reference for
    the bulk reader: per-document {word: count} dicts, or the error
    message. Values are ASCII-digit integers; int() alone would also read
    "1_0" and non-ASCII digits, which the format does not."""
    per_doc = [dict() for _ in range(n_docs)]
    n_entries = 0
    for ln, raw in enumerate(lines, start=4):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 3 or not all(re.fullmatch(r"[+-]?[0-9]+", p) for p in parts):
            return f"expected 'docID wordID count' at line {ln}"
        doc_id, word_id, count = map(int, parts)
        if not 1 <= doc_id <= n_docs:
            return f"doc ID {doc_id} exceeds N={n_docs} at line {ln}"
        if not 1 <= word_id <= k:
            return f"word ID {word_id} exceeds K={k} at line {ln}"
        if count <= 0:
            return f"count {count} must be positive at line {ln}"
        entry = per_doc[doc_id - 1]
        entry[word_id - 1] = entry.get(word_id - 1, 0) + count
        n_entries += 1
    if n_entries != nnz:
        return f"header promises {nnz} entries, file contains {n_entries}"
    return per_doc


class TestUciReaderAgainstReference:
    token = st.one_of(
        st.integers(-2, 7).map(str),
        st.sampled_from(["+1", "02", "-0", "x", "3.0", "#", "1e0", "--1", ""]),
    )
    line = st.one_of(
        st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 9)).map(
            lambda t: "%d %d %d" % t),
        st.lists(token, min_size=0, max_size=4).map(" ".join),
        st.sampled_from(["", " ", "\t", "1\t2  3 "]),
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_documents_or_same_error(self, data):
        import tempfile
        from pathlib import Path

        lines = data.draw(st.lists(self.line, max_size=12))
        n_docs = data.draw(st.integers(0, 4))
        n_entries = sum(1 for line in lines if line.split())
        nnz = n_entries + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
        expected = reference_docword_body(lines, n_docs, 5, max(nnz, 0))
        with tempfile.TemporaryDirectory() as tmp:
            paths = write_docword(Path(tmp), [n_docs, 5, max(nnz, 0)], lines,
                                  vocab=("a", "b", "c", "d", "e"))
            try:
                corpus, dropped = load_uci_bow(*paths)
            except FileFormatError as err:
                assert str(err) == expected
                return
        assert not isinstance(expected, str), expected
        kept = [d for d in expected if d]
        assert [d.to_dict() for d in corpus.docs] == kept
        assert dropped == n_docs - len(kept)


class TestUciWriter:
    def test_bytes_are_frozen(self, tmp_path):
        vocab = [f"w{i}" for i in range(12)]
        docs = [
            Document([11, 0, 4], [1, 3, 12]),
            Document([9], [1]),
            Document([10], [105]),
            Document([1, 2, 3, 5, 6, 7, 8, 9, 10, 11], [1] * 10),
        ]
        save_uci_bow(Corpus(vocab, docs), tmp_path / "d.txt", tmp_path / "v.txt")
        expected = (
            "4\n12\n15\n"
            "1 1 3\n1 5 12\n1 12 1\n"
            "2 10 1\n"
            "3 11 105\n"
            "4 2 1\n4 3 1\n4 4 1\n4 6 1\n4 7 1\n4 8 1\n4 9 1\n4 10 1\n4 11 1\n4 12 1\n"
        )
        assert (tmp_path / "d.txt").read_bytes() == expected.encode()
        assert (tmp_path / "v.txt").read_bytes() == "".join(
            f"{w}\n" for w in vocab).encode()

    def test_bytes_match_line_by_line_formatting(self, tmp_path):
        # enough lines to span several write blocks
        rng = np.random.default_rng(3)
        docs = [Document(rng.choice(300, size=n, replace=False), rng.integers(1, 40, n))
                for n in rng.integers(1, 120, 1500)]
        corpus = Corpus([f"w{i}" for i in range(300)], docs)
        save_uci_bow(corpus, tmp_path / "d.txt", tmp_path / "v.txt")
        lines = [f"{len(docs)}\n300\n{sum(d.words.size for d in docs)}\n"]
        for i, d in enumerate(docs, start=1):
            lines.extend(f"{i} {w + 1} {c}\n" for w, c in zip(d.words, d.counts))
        assert (tmp_path / "d.txt").read_text() == "".join(lines)

    def test_empty_corpus(self, tmp_path):
        save_uci_bow(Corpus(["a", "b"], []), tmp_path / "d.txt", tmp_path / "v.txt")
        assert (tmp_path / "d.txt").read_bytes() == b"0\n2\n0\n"

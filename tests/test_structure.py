import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from sparsebm import structure
from sparsebm.corpus import Corpus, Document
from sparsebm.errors import FileFormatError, StructureError
from sparsebm.replicated_softmax import TrainConfig
from sparsebm.sbm import (
    SbmModel,
    SbmStructure,
    init_sbm_model,
    load_structure,
    sbm_train,
    save_structure,
)
from sparsebm.structure import (
    Skeleton,
    _greedy_groups,
    build_cmi_table,
    build_skeleton,
    cmi_from_joint,
    estimate_cmi,
    load_skeleton,
    pairwise_binary_mi,
    save_skeleton,
    sbm_sfc,
)
from sparsebm.synthetic import sparse_topic_corpus
from sparsebm.util import rng_from

from conftest import brute_posterior, hidden_states


def corpus_from_occurrence(rows, n_words):
    docs = []
    for row in rows:
        counts = {w: 1 for w in row}
        docs.append(Document.from_counts(counts))
    return Corpus([f"w{i}" for i in range(n_words)], docs)


def two_block_corpus(n_docs=2000, seed=7):
    """Two perfectly correlated blocks with independent activations, plus an
    always-present padding word so documents are never empty."""
    rng = rng_from(seed, 77)
    rows = []
    for _ in range(n_docs):
        row = [6]
        if rng.random() < 0.5:
            row += [0, 1, 2]
        if rng.random() < 0.5:
            row += [3, 4, 5]
        rows.append(row)
    return corpus_from_occurrence(rows, 7)


def whole_matrix_mi(indicators):
    """pairwise_binary_mi's rule on the whole dense matrix at once."""
    n, k = indicators.shape
    x = indicators.astype(np.float64)
    n11 = x.T @ x
    n1 = x.sum(axis=0)
    p11 = n11 / n
    p10 = (n1[:, None] - n11) / n
    p01 = (n1[None, :] - n11) / n
    p00 = 1.0 - p11 - p10 - p01
    pa1 = n1 / n
    pa0 = 1.0 - pa1
    mi = np.zeros((k, k))
    for pab, pa, pb in (
        (p11, pa1[:, None], pa1[None, :]),
        (p10, pa1[:, None], pa0[None, :]),
        (p01, pa0[:, None], pa1[None, :]),
        (p00, pa0[:, None], pa0[None, :]),
    ):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = pab * np.log(pab / (pa * pb))
        term[~np.isfinite(term)] = 0.0
        mi += term
    np.fill_diagonal(mi, 0.0)
    return np.maximum(mi, 0.0)


class TestPairwiseMi:
    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_and_dense_equal_whole_matrix_rule(self, seed):
        # more columns than one block of rows, with constant and repeated columns
        rng = np.random.default_rng(seed)
        x = rng.random((60, 300)) < rng.uniform(0.01, 0.6, 300)
        x[:, 5] = False
        x[:, 7] = True
        x[:, 200] = x[:, 9]
        want = whole_matrix_mi(x)
        for indicators in (x, x.astype(np.float64), sp.csr_matrix(x, dtype=np.float64)):
            assert np.array_equal(pairwise_binary_mi(indicators), want)

    def test_perfectly_correlated_pair(self):
        rows = [[0, 1]] * 30 + [[]] * 0 + [[2]] * 30
        corpus = corpus_from_occurrence(rows, 3)
        mi = pairwise_binary_mi(corpus.occurrence_matrix())
        assert mi[0, 1] == pytest.approx(math.log(2), abs=1e-12)
        assert mi[0, 2] == pytest.approx(math.log(2), abs=1e-12)

    def test_independent_pair_zero(self):
        rows = [[0, 1], [0], [1], [2]]
        corpus = corpus_from_occurrence(rows, 3)
        mi = pairwise_binary_mi(corpus.occurrence_matrix())
        # 0 and 1 each appear in half the docs, jointly in a quarter
        assert mi[0, 1] == pytest.approx(0.0, abs=1e-12)


class TestBuildSkeleton:
    def test_two_block_recovery(self):
        corpus = two_block_corpus()
        skeleton = build_skeleton(corpus)
        assert skeleton.n_hidden == 2
        assert len(skeleton.tree_edges) == 1
        groups = [set(map(int, g)) for g in skeleton.groups]
        # the constant padding word lands in the smallest group by the
        # documented fallback; block membership itself is exact
        assert {0, 1, 2} <= groups[0] or {0, 1, 2} <= groups[1]
        assert {3, 4, 5} <= groups[0] or {3, 4, 5} <= groups[1]
        for g in groups:
            assert not ({0, 1, 2} & g and {3, 4, 5} & g)

    def test_deterministic(self):
        corpus = two_block_corpus()
        a = build_skeleton(corpus)
        b = build_skeleton(corpus)
        assert [g.tolist() for g in a.groups] == [g.tolist() for g in b.groups]
        assert a.tree_edges == b.tree_edges

    def test_two_words(self):
        rows = [[0, 1]] * 120 + [[0]] * 40 + [[1]] * 40
        corpus = corpus_from_occurrence(rows, 2)
        skeleton = build_skeleton(corpus)
        assert skeleton.n_hidden == 1
        assert skeleton.tree_edges == []
        assert sorted(skeleton.groups[0].tolist()) == [0, 1]

    def test_provenance(self):
        skeleton = build_skeleton(two_block_corpus())
        assert skeleton.provenance == "built"

    def test_degenerate_words_attached_to_smallest_group(self):
        # word 3 appears in every document, word 4 in none of the occurrence
        # patterns (never sampled); both carry no signal
        rng = rng_from(1, 78)
        rows = []
        for _ in range(500):
            row = [3]
            if rng.random() < 0.5:
                row += [0, 1]
            else:
                row += [2]
            rows.append(row)
        corpus = corpus_from_occurrence(rows, 4)
        skeleton = build_skeleton(corpus)
        all_words = sorted(w for g in skeleton.groups for w in g)
        assert all_words == [0, 1, 2, 3]

    def test_all_constant_rejected(self):
        rows = [[0, 1]] * 10
        corpus = corpus_from_occurrence(rows, 2)
        with pytest.raises(StructureError, match="no informative"):
            build_skeleton(corpus)

    @pytest.mark.parametrize("settings, named", [
        ({"island_max": 2.5}, "island_max"), ({"island_max": True}, "island_max"),
        ({"island_max": 0}, "island_max"), ({"island_max": -3}, "island_max"),
        ({"supergroup_max": 2.5}, "supergroup_max"),
        ({"supergroup_max": True}, "supergroup_max"),
        ({"supergroup_max": 0}, "supergroup_max"),
        ({"supergroup_max": -1}, "supergroup_max"),
        ({"mi_floor": float("nan")}, "mi_floor"), ({"mi_floor": "0.01"}, "mi_floor"),
        ({"mi_floor": None}, "mi_floor"), ({"mi_floor": True}, "mi_floor"),
    ])
    def test_bad_setting_refused_naming_it(self, settings, named):
        with pytest.raises(ValueError, match=named):
            build_skeleton(two_block_corpus(), **settings)

    def test_sizes_of_one_keep_every_word_alone(self):
        corpus = two_block_corpus()
        skeleton = build_skeleton(corpus, island_max=1, supergroup_max=1)
        # the constant padding word joins the smallest group, a singleton
        assert sorted(len(g) for g in skeleton.groups) == [1] * (corpus.n_words - 2) + [2]

    def test_settings_are_keyword_only(self):
        with pytest.raises(TypeError):
            build_skeleton(two_block_corpus(), 7)


def rebuilt_mask_greedy_groups(mi, max_size, floor):
    """The grouping rule with the unassigned-pair matrix rebuilt for every
    group, as a reference for the incrementally masked version."""
    k = mi.shape[0]
    unassigned = np.ones(k, dtype=bool)
    groups = []
    while unassigned.sum() >= 2:
        work = np.where(unassigned[:, None] & unassigned[None, :], mi, -np.inf)
        np.fill_diagonal(work, -np.inf)
        i, j = divmod(int(np.argmax(work)), k)
        if work[i, j] <= floor:
            break
        group = [min(i, j), max(i, j)]
        unassigned[i] = unassigned[j] = False
        while len(group) < max_size:
            cand = np.nonzero(unassigned)[0]
            if cand.size == 0:
                break
            avg = mi[np.ix_(cand, group)].mean(axis=1)
            best = int(np.argmax(avg))
            if avg[best] <= floor:
                break
            group.append(int(cand[best]))
            unassigned[group[-1]] = False
        groups.append(sorted(group))
    return groups + [[int(v)] for v in np.nonzero(unassigned)[0]]


class TestGreedyGroups:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("max_size", [2, 3, 7])
    @pytest.mark.parametrize("floor", [0.0, 0.1, 0.25])
    def test_matches_rebuilt_mask_reference(self, seed, max_size, floor):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 60))
        # few distinct values, so seeds and growth steps meet many ties
        mi = rng.integers(0, 5, (k, k)) * 0.1
        mi = np.triu(mi, 1)
        mi = mi + mi.T
        expected = rebuilt_mask_greedy_groups(mi, max_size, floor)
        assert _greedy_groups(mi, max_size, floor) == expected
        assert sorted(v for g in expected for v in g) == list(range(k))


class TestSkeletonConstructors:
    def test_from_mask_runs_the_group_checks(self):
        with pytest.raises(StructureError, match="visible 0 assigned twice"):
            Skeleton.from_mask(np.ones((2, 3)), [])
        with pytest.raises(StructureError, match="hidden unit 1 has an empty group"):
            Skeleton.from_mask([[1, 1], [0, 0]], [])
        with pytest.raises(StructureError, match="visible 3 unassigned"):
            Skeleton.from_mask([[1, 0, 0, 0], [0, 1, 1, 0]], [])

    def test_from_mask_is_the_skeleton_of_its_rows(self):
        skeleton = Skeleton.from_mask([[1, 0, 1], [0, 1, 0]], [(0, 1)], provenance="loaded")
        assert skeleton == Skeleton([[0, 2], [1]], [(0, 1)])
        assert skeleton.provenance == "loaded"
        assert Skeleton.from_mask([[1, 0, 1], [0, 1, 0]], []).provenance == "built"

    def test_full_is_refused_unless_one_unit_owns_every_word(self):
        with pytest.raises(StructureError, match="visible 0 assigned twice"):
            Skeleton.full(2, 3)
        one = Skeleton.full(1, 3)
        assert isinstance(one, Skeleton) and one.provenance == "built"
        assert [g.tolist() for g in one.groups] == [[0, 1, 2]]


class TestSkeletonIo:
    def test_round_trip(self, tmp_path):
        skeleton = Skeleton(groups=[[0, 1, 2], [3, 4, 5, 6]], tree_edges=[(0, 1)])
        save_skeleton(skeleton, tmp_path / "s.txt")
        loaded = load_skeleton(tmp_path / "s.txt", 7)
        assert [g.tolist() for g in loaded.groups] == [[0, 1, 2], [3, 4, 5, 6]]
        assert loaded.tree_edges == [(0, 1)]
        assert loaded.provenance == "loaded"

    def test_skeleton_is_the_structure_it_saves(self, tmp_path):
        built = build_skeleton(two_block_corpus())
        save_skeleton(built, tmp_path / "s.txt")
        save_structure(built, tmp_path / "s.struct")
        loaded = load_skeleton(tmp_path / "s.txt", built.n_visible)
        for skeleton in (built, loaded):
            assert isinstance(skeleton, SbmStructure)
            assert skeleton.to_structure() is skeleton
            assert skeleton == load_structure(tmp_path / "s.struct")

    def test_example_two_group_skeleton(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0: 0 1 2\n1: 3 4 5 6\n[tree]\n0 1\n")
        skeleton = load_skeleton(path, 7)
        assert skeleton.n_hidden == 2
        assert skeleton.tree_edges == [(0, 1)]

    def test_double_assignment_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0: 0 1 4\n1: 2 3 4\n[tree]\n")
        with pytest.raises(StructureError, match="visible 4 assigned twice"):
            load_skeleton(path, 5)

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0: 0 1\n1: 3\n[tree]\n")
        with pytest.raises(StructureError, match="visible 2 unassigned"):
            load_skeleton(path, 4)

    def test_cycle_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0: 0\n1: 1\n2: 2\n[tree]\n0 1\n1 2\n0 2\n")
        with pytest.raises(StructureError, match="not a forest"):
            load_skeleton(path, 3)

    @pytest.mark.parametrize("edge", ["0 x", "0 1.0", "0 1 2", "0"])
    def test_malformed_tree_edge_names_file_and_line(self, tmp_path, edge):
        path = tmp_path / "s.txt"
        path.write_text(f"0: 0\n1: 1\n\n[tree]\n{edge}\n")
        with pytest.raises(FileFormatError) as err:
            load_skeleton(path, 2)
        assert str(err.value) == f"{path}: malformed tree edge at line 5"

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0: 0 9\n[tree]\n")
        with pytest.raises(StructureError, match="out of range"):
            load_skeleton(path, 2)


class TestCmiFromJoint:
    def test_deterministic_copy_gives_ln_two(self):
        # hidden is a copy of the word, conditioner independent and uniform
        joint = np.zeros((2, 2, 2))
        for zp in (0, 1):
            joint[0, zp, 0] = 0.25
            joint[1, zp, 1] = 0.25
        assert cmi_from_joint(joint) == pytest.approx(math.log(2), abs=1e-12)

    def test_independent_gives_zero(self):
        joint = np.full((2, 2, 2), 0.125)
        assert cmi_from_joint(joint) == pytest.approx(0.0, abs=1e-15)

    def test_non_negative_on_random_joints(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            joint = rng.random((2, 2, 2))
            joint /= joint.sum()
            assert cmi_from_joint(joint) >= -1e-9


def copy_construction_model_and_corpus(n_docs=5000, seed=3):
    """Hidden 0 tracks word 0 deterministically through its own group word;
    hidden 1 (owner of words 1 and 2) has zero weights, so its posterior is
    uniform and independent. Documents contain word 0 and word 1 together on
    a fair coin, word 2 always (padding)."""
    structure = SbmStructure(2, 3, [(0, 0), (1, 1), (1, 2)], [])
    w = np.zeros((2, 3))
    w[0, 0] = 50.0
    a = np.array([-10.0, 0.0])
    model = SbmModel(structure, w, np.zeros(0), a, np.zeros(3))
    rng = rng_from(seed, 79)
    docs = []
    for _ in range(n_docs):
        if rng.random() < 0.5:
            docs.append(Document([0, 1, 2], [1, 1, 1]))
        else:
            docs.append(Document([2], [1]))
    return model, Corpus(["w0", "w1", "w2"], docs)


class TestEstimateCmi:
    def test_deterministic_copy_yields_ln_two(self):
        model, corpus = copy_construction_model_and_corpus()
        score = estimate_cmi(model, corpus, j=0, v=1)
        assert score == pytest.approx(math.log(2), abs=0.01)

    def test_planted_conditional_independence_near_zero(self):
        # data sampled from the tree model itself with hidden 0 carrying no
        # visible weight: given the owner, word occurrences are independent
        # of hidden 0 by construction
        structure = SbmStructure(2, 4, [(0, 0), (0, 1), (1, 2), (1, 3)], [(0, 1)])
        w = np.zeros((2, 4))
        w[1, 2] = 2.0
        w[1, 3] = 1.5
        model = SbmModel(structure, w, np.array([1.2]), np.array([0.3, -0.8]),
                         np.zeros(4))
        rng = rng_from(11, 80)
        d = 4
        # exact sampling: enumerate the 4 hidden states at this length
        states = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=float)
        log_w = []
        for h in states:
            theta = w.T @ h + model.b
            norm = np.log(np.exp(theta).sum())
            log_w.append(d * (h @ model.a + model.Wt[0] * h[0] * h[1] + norm))
        log_w = np.array(log_w)
        p_h = np.exp(log_w - log_w.max())
        p_h /= p_h.sum()
        docs = []
        for _ in range(5000):
            h = states[rng.choice(4, p=p_h)]
            theta = w.T @ h + model.b
            p_tok = np.exp(theta - theta.max())
            p_tok /= p_tok.sum()
            counts = rng.multinomial(d, p_tok)
            words = np.nonzero(counts)[0]
            docs.append(Document(words, counts[words]))
        corpus = Corpus([f"w{i}" for i in range(4)], docs)
        score = estimate_cmi(model, corpus, j=0, v=2)
        assert score <= 0.005

    @pytest.mark.parametrize("edges, message", [
        # words 1 and 2 both have two owners; the lowest of them is named
        ([(0, 0), (0, 2), (1, 1), (1, 2), (2, 1), (2, 3)], "visible 1 has several hidden owners"),
        ([(0, 0), (1, 2), (2, 3)], "visible 1 unowned"),
    ])
    def test_tree_model_not_a_skeleton_rejected(self, edges, message):
        model = SbmModel(SbmStructure(3, 4, edges, [(0, 1), (1, 2)]), np.zeros((3, 4)),
                         [0.5, 0.5], np.zeros(3), np.zeros(4))
        corpus = Corpus(["w0", "w1", "w2", "w3"], [Document([0, 1], [1, 2])])
        with pytest.raises(ValueError, match=f"not a skeleton: {message}"):
            build_cmi_table(model, corpus)
        with pytest.raises(ValueError, match=f"not a skeleton: {message}"):
            estimate_cmi(model, corpus, j=0, v=2)

    def test_rejects_own_group_word(self):
        model, corpus = copy_construction_model_and_corpus(n_docs=50)
        with pytest.raises(ValueError, match="own group"):
            estimate_cmi(model, corpus, j=1, v=1)

    def test_scores_non_negative(self):
        model, corpus = copy_construction_model_and_corpus(n_docs=400)
        table = build_cmi_table(model, corpus)
        for rows in table.scores:
            for _, score in rows:
                assert score >= -1e-9

    def test_batch_table_matches_single_estimates(self):
        model, corpus = copy_construction_model_and_corpus(n_docs=400)
        table = build_cmi_table(model, corpus)
        for j, rows in enumerate(table.scores):
            for v, score in rows:
                assert score == pytest.approx(
                    estimate_cmi(model, corpus, j, v), abs=1e-10
                )

    def test_document_permutation_invariance(self):
        model, corpus = copy_construction_model_and_corpus(n_docs=300)
        shuffled = Corpus(corpus.vocab, list(reversed(corpus.docs)))
        a = estimate_cmi(model, corpus, 0, 1)
        b = estimate_cmi(model, shuffled, 0, 1)
        assert a == pytest.approx(b, abs=1e-12)


def forest_model_and_corpus(scale, n_docs=40, seed=19):
    """Skeleton-shaped forest: path 0-1-2-3 with unit 1 branching to 4, a
    second tree 5-6 and the isolated unit 7; each unit owns one or two of
    the ten words. Weights are drawn at the given scale."""
    groups = [[0], [1], [2, 3], [4], [5], [6], [7, 8], [9]]
    skeleton = Skeleton(groups=groups, tree_edges=[(0, 1), (1, 2), (2, 3), (1, 4), (5, 6)])
    structure = skeleton.to_structure()
    rng = np.random.default_rng(seed)
    w = np.where(structure.mask(), rng.normal(0, scale, structure.mask().shape), 0.0)
    model = SbmModel(structure, w, rng.normal(0, scale, structure.n_tree_edges),
                     rng.normal(0, scale / 2, 8), rng.normal(0, 0.5, 10))
    docs = []
    for _ in range(n_docs):
        words = np.sort(rng.choice(10, size=int(rng.integers(1, 5)), replace=False))
        docs.append(Document(words, rng.integers(1, 4, size=words.size)))
    return model, Corpus([f"w{i}" for i in range(10)], docs)


def enumerated_cmi(model, corpus, j, v, owner):
    """CMI of (h_j, word v | h_owner) from 2^F-enumerated posteriors."""
    states = hidden_states(model.n_hidden)
    jp = owner[v]
    p = np.zeros((2, 2, 2))
    for doc in corpus.docs:
        post, _ = brute_posterior(model, doc)
        present = int(v in doc.words)
        for z in (0, 1):
            for zp in (0, 1):
                on = (states[:, j] == z) & (states[:, jp] == zp)
                p[z, zp, present] += post[on].sum()
    p /= p.sum()
    p_zp = p.sum(axis=(0, 2))
    p_z_zp = p.sum(axis=2)
    p_zp_v = p.sum(axis=0)
    out = 0.0
    for z, zp, x in np.ndindex(2, 2, 2):
        if p[z, zp, x] > 0:
            out += p[z, zp, x] * math.log(
                p[z, zp, x] * p_zp[zp] / (p_z_zp[z, zp] * p_zp_v[zp, x])
            )
    return out


class TestCmiPairJointOracle:
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_scores_match_enumeration(self, scale):
        # pairs on the path at distance 1-3, through the branch, across the
        # two trees and to the isolated unit, with saturated posteriors at
        # the larger scale
        model, corpus = forest_model_and_corpus(scale)
        owner = [0, 1, 2, 2, 3, 4, 5, 6, 6, 7]
        table = build_cmi_table(model, corpus)
        for j, rows in enumerate(table.scores):
            assert sorted(v for v, _ in rows) == [v for v in range(10) if owner[v] != j]
            for v, score in rows:
                expected = enumerated_cmi(model, corpus, j, v, owner)
                single = estimate_cmi(model, corpus, j, v)
                assert single == pytest.approx(expected, abs=1e-12)
                assert score == pytest.approx(expected, abs=1e-12)


def random_skeleton_model(groups, tree_edges, scale, n_docs, seed):
    """A model on the skeleton of groups and tree_edges with weights drawn at
    the given scale, and a corpus of n_docs documents of one to four words."""
    structure_ = Skeleton(groups=groups, tree_edges=tree_edges).to_structure()
    f, k = structure_.n_hidden, structure_.n_visible
    rng = np.random.default_rng(seed)
    w = np.where(structure_.mask(), rng.normal(0, scale, (f, k)), 0.0)
    model = SbmModel(structure_, w, rng.normal(0, scale, structure_.n_tree_edges),
                     rng.normal(0, scale / 2, f), rng.normal(0, 0.5, k))
    docs = []
    for _ in range(n_docs):
        words = np.sort(rng.choice(k, size=int(rng.integers(1, 5)), replace=False))
        docs.append(Document(words, rng.integers(1, 4, size=words.size)))
    return model, Corpus([f"w{i}" for i in range(k)], docs)


def deep_forest_model_and_corpus(scale):
    """Rooted at unit 0: the path 0-1-2-3-4 four edges deep, unit 2 with the
    three children 3, 5 and 6, and the isolated unit 7."""
    groups = [[0], [1], [2], [3, 4], [5], [6], [7, 8], [9]]
    return random_skeleton_model(groups, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6)],
                                 scale, n_docs=40, seed=23)


class TestCmiDeepForestOracle:
    @pytest.mark.parametrize("scale", [1.0, 30.0])
    def test_scores_match_enumeration(self, scale):
        # pairs up to four edges apart, across the three branches of unit 2,
        # and with the isolated unit, with saturated posteriors at the larger
        # scale
        model, corpus = deep_forest_model_and_corpus(scale)
        owner = model.structure.mask().argmax(axis=0)
        table = build_cmi_table(model, corpus)
        for j, (words, values) in enumerate(zip(table.words, table.values)):
            assert sorted(words.tolist()) == [v for v in range(10) if owner[v] != j]
            for v, score in zip(words.tolist(), values.tolist()):
                expected = enumerated_cmi(model, corpus, j, v, owner)
                assert estimate_cmi(model, corpus, j, v) == pytest.approx(expected, abs=1e-12)
                assert score == pytest.approx(expected, abs=1e-12)


def relabelled(model, perm):
    """The model with hidden unit j renamed perm[j], its groups, tree edges
    and weights carried along."""
    groups = [None] * model.n_hidden
    for j, g in enumerate(model.structure.groups):
        groups[perm[j]] = g
    tree = {(min(perm[j], perm[l]), max(perm[j], perm[l])): w
            for (j, l), w in zip(model.structure.tree_edges, model.Wt)}
    skeleton = Skeleton(groups=groups, tree_edges=list(tree))
    w, a = np.empty_like(model.W), np.empty_like(model.a)
    w[perm], a[perm] = model.W, model.a
    wt = [tree[edge] for edge in skeleton.tree_edges]
    return SbmModel(skeleton.to_structure(), w, wt, a, model.b)


class TestCmiRelabelling:
    """Renaming the hidden units changes the forest's preorder, not the
    scores: a mix-up of units and plan positions moves them."""

    @pytest.mark.parametrize("perm", [[7, 6, 5, 4, 3, 2, 1, 0], [5, 3, 0, 7, 1, 6, 2, 4]])
    def test_scores_follow_the_units(self, perm):
        model, corpus = forest_model_and_corpus(1.0)
        renamed = relabelled(model, perm)
        assert renamed.structure._plan.order.tolist() != list(range(8))
        table, renamed_table = build_cmi_table(model, corpus), build_cmi_table(renamed, corpus)
        for j in range(model.n_hidden):
            words, values = renamed_table.words[perm[j]], renamed_table.values[perm[j]]
            assert sorted(words.tolist()) == sorted(table.words[j].tolist())
            by_word = dict(zip(table.words[j].tolist(), table.values[j].tolist()))
            for v, score in zip(words.tolist(), values.tolist()):
                assert score == pytest.approx(by_word[v], abs=1e-12)
                assert estimate_cmi(renamed, corpus, perm[j], v) == pytest.approx(
                    by_word[v], abs=1e-12)


def budget_for_chunks(model, docs):
    """A CMI budget whose chunks and slices hold `docs` documents each: its
    quarter fits that many documents' sum-product pass."""
    f, n_edges, k = model.n_hidden, model.structure.n_tree_edges, model.n_visible
    return 32 * docs * (6 * f + 33 * n_edges + 2 * k)


class TestCmiChunking:
    """Chunks of one or a few documents give the table that one chunk of the
    whole corpus gives."""

    def models(self):
        model, corpus = forest_model_and_corpus(30.0)
        yield model, corpus
        skeleton = Skeleton(groups=[[0, 1, 2], [3, 4, 5, 6]], tree_edges=[(0, 1)])
        trained_corpus = TestSbmSfc().cross_pair_corpus(n_docs=400)
        yield train_tree_model(trained_corpus, skeleton, epochs=5), trained_corpus

    @pytest.mark.parametrize("docs", [1, 3])
    def test_small_chunks_keep_every_score(self, monkeypatch, docs):
        for model, corpus in self.models():
            whole = build_cmi_table(model, corpus)
            assert structure._chunk_rows(model.structure)[1] >= corpus.n_docs
            monkeypatch.setattr(structure, "_CMI_BUDGET", budget_for_chunks(model, docs))
            assert structure._chunk_rows(model.structure) == (docs, docs)
            chunked = build_cmi_table(model, corpus)
            monkeypatch.undo()
            for j in range(model.n_hidden):
                assert sorted(chunked.words[j].tolist()) == sorted(whole.words[j].tolist())
                by_word = dict(zip(whole.words[j].tolist(), whole.values[j].tolist()))
                for v, score in zip(chunked.words[j].tolist(), chunked.values[j].tolist()):
                    assert score == pytest.approx(by_word[v], abs=1e-12)


def train_tree_model(corpus, skeleton, seed=0, epochs=60):
    config = TrainConfig(epochs=epochs, cd_steps=2, learning_rate=0.02,
                         batch_size=50, seed=seed, weight_init_std=0.1,
                         visible_bias_init="log-frequency",
                         hidden_bias_lr_scale="auto")
    return sbm_train(corpus, skeleton.to_structure(), config)


class TestSbmSfc:
    def cross_pair_corpus(self, seed=5, n_docs=2500):
        """Two blocks with a planted cross correlation: whenever block A is
        active, word 6 (a block-B word) is forced into the document."""
        rng = rng_from(seed, 81)
        rows = []
        for _ in range(n_docs):
            row = [3]  # padding word in block B's range, always present
            a = rng.random() < 0.5
            b = rng.random() < 0.5
            if a:
                row += [0, 1, 2]
            if b:
                row += [4, 5, 6]
            if a and 6 not in row:
                row.append(6)
            rows.append(sorted(set(row)))
        return corpus_from_occurrence(rows, 7)

    def make_skeleton(self):
        return Skeleton(groups=[[0, 1, 2], [3, 4, 5, 6]], tree_edges=[(0, 1)])

    def test_m_zero_returns_skeleton_structure(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton, epochs=5)
        out = sbm_sfc(skeleton, tree_model, corpus, 0)
        assert out == skeleton.to_structure()

    def test_planted_cross_word_added_first(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton)
        table = build_cmi_table(tree_model, corpus)
        out = sbm_sfc(skeleton, tree_model, corpus, 1, cmi_table=table)
        assert 6 in out.visible_indices(0).tolist()
        # exhaustive check: 6 really is unit 0's top score
        assert table.scores[0][0][0] == 6

    def test_degree_accounting(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton, epochs=5)
        out = sbm_sfc(skeleton, tree_model, corpus, 2)
        assert len(out.visible_indices(0)) == 5
        assert len(out.visible_indices(1)) == 6

    def test_fraction_semantics(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton, epochs=5)
        out = sbm_sfc(skeleton, tree_model, corpus, 6 / 7)
        target = math.ceil(6 / 7 * 7)
        for j in range(2):
            assert len(out.visible_indices(j)) == target

    def test_monotone_prefix_property(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton, epochs=5)
        table = build_cmi_table(tree_model, corpus)
        prev = None
        for m in (0, 1, 2, 3):
            out = sbm_sfc(skeleton, tree_model, corpus, m, cmi_table=table)
            edges = out.visible_edge_set()
            if prev is not None:
                assert prev <= edges
                assert len(edges) == len(prev) + skeleton.n_hidden
            prev = edges

    def test_overlarge_m_clamped_with_warning(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton, epochs=5)
        with pytest.warns(UserWarning, match="requested"):
            out = sbm_sfc(skeleton, tree_model, corpus, 10)
        for j in range(2):
            assert len(out.visible_indices(j)) == 7

    def test_tree_model_structure_checked(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        other = Skeleton(groups=[[0, 1, 2, 3], [4, 5, 6]], tree_edges=[(0, 1)])
        tree_model = train_tree_model(corpus, other, epochs=2)
        with pytest.raises(ValueError, match="not trained on this skeleton"):
            sbm_sfc(skeleton, tree_model, corpus, 1)

    def test_per_unit_overrides(self):
        corpus = self.cross_pair_corpus()
        skeleton = self.make_skeleton()
        tree_model = train_tree_model(corpus, skeleton, epochs=5)
        out = sbm_sfc(skeleton, tree_model, corpus, [2, 0])
        assert len(out.visible_indices(0)) == 5
        assert len(out.visible_indices(1)) == 4

    def test_two_group_expansion_adds_both_cross_words(self):
        # skeleton with groups {0,1,2} and {3,4,5,6}; the last word of the
        # second group tracks the first group's activity and the first word
        # tracks the second group's, so expanding by one connection links
        # unit 0 to word 6 and unit 1 to word 0
        rng = rng_from(17, 82)
        rows = []
        for _ in range(2500):
            a = rng.random() < 0.5
            b = rng.random() < 0.5
            row = [3]  # constant padding word inside the second group
            if a:
                row += [0, 1, 2]
            if b:
                row += [4, 5, 6]
            if a and rng.random() < 0.5:
                row.append(6)
            if b and rng.random() < 0.5:
                row.append(0)
            rows.append(sorted(set(row)))
        corpus = corpus_from_occurrence(rows, 7)
        skeleton = Skeleton(groups=[[0, 1, 2], [3, 4, 5, 6]], tree_edges=[(0, 1)])
        tree_model = train_tree_model(corpus, skeleton)
        out = sbm_sfc(skeleton, tree_model, corpus, 1)
        assert 6 in out.visible_indices(0).tolist()
        assert 0 in out.visible_indices(1).tolist()
        assert out.tree_edges == [(0, 1)]


class TestSkeletonValidation:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(StructureError, match="assigned twice"):
            Skeleton(groups=[[0, 1], [1, 2]], tree_edges=[])

    def test_gap_rejected(self):
        with pytest.raises(StructureError, match="unassigned"):
            Skeleton(groups=[[0, 1], [3]], tree_edges=[])

    def test_cyclic_tree_rejected(self):
        with pytest.raises(StructureError, match="not a forest"):
            Skeleton(groups=[[0], [1], [2]],
                     tree_edges=[(0, 1), (1, 2), (0, 2)])


class TestMemory:
    """On short documents one dense (N, K) float64 copy of the corpus is large
    next to its nonzeros; no whole-corpus stage may allocate one."""

    n_docs, n_words, n_groups = 8000, 1000, 10

    @pytest.fixture(scope="class")
    def corpus(self):
        return sparse_topic_corpus(self.n_docs, 3, n_words=self.n_words,
                                   n_groups=self.n_groups, doc_len_range=(3, 12),
                                   activation_p=0.3).corpus

    def peak_bytes(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def dense_copy_bytes(self):
        return self.n_docs * self.n_words * 8

    def test_build_skeleton(self, corpus):
        peak = self.peak_bytes(lambda: build_skeleton(corpus))
        assert peak < self.dense_copy_bytes()

    def test_build_cmi_table(self, corpus):
        size = self.n_words // self.n_groups
        skeleton = Skeleton(
            groups=[range(g * size, (g + 1) * size) for g in range(self.n_groups)],
            tree_edges=[(g, g + 1) for g in range(self.n_groups - 1)],
        )
        model = init_sbm_model(corpus, skeleton.to_structure(), TrainConfig())
        peak = self.peak_bytes(lambda: build_cmi_table(model, corpus))
        assert peak < self.dense_copy_bytes()


def traced_peak(fn):
    """Peak bytes of traced allocation while fn runs, above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestCmiMemory:
    """The CMI stage holds a fixed budget of documents' working memory, so
    its peak does not grow with the corpus."""

    n_docs, n_words = TestMemory.n_docs, TestMemory.n_words

    @pytest.fixture(scope="class")
    def corpus(self):
        return sparse_topic_corpus(self.n_docs, 3, n_words=self.n_words,
                                   n_groups=TestMemory.n_groups, doc_len_range=(3, 12),
                                   activation_p=0.3).corpus

    def chain_model(self, corpus, f):
        size = self.n_words // f
        skeleton = Skeleton(groups=[range(g * size, (g + 1) * size) for g in range(f)],
                            tree_edges=[(g, g + 1) for g in range(f - 1)])
        return init_sbm_model(corpus, skeleton.to_structure(), TrainConfig())

    def test_peak_flat_in_documents(self, corpus):
        model = self.chain_model(corpus, 10)
        quarter = Corpus(corpus.vocab, corpus.docs[: self.n_docs // 4])
        small = traced_peak(lambda: build_cmi_table(model, quarter))
        large = traced_peak(lambda: build_cmi_table(model, corpus))
        assert abs(large - small) < structure._CMI_BUDGET

    def test_peak_within_budget_at_hundred_units(self, corpus):
        f = 100
        model = self.chain_model(corpus, f)
        accumulator = f * 4 * 2 * self.n_words * 8
        # each unit's out-of-group words and scores, int64 and float64
        table = f * (self.n_words - self.n_words // f) * 16
        peak = traced_peak(lambda: build_cmi_table(model, corpus))
        assert peak < structure._CMI_BUDGET + accumulator + table

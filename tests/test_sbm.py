import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import expit

from sparsebm import sbm
from sparsebm.corpus import Corpus, Document, load_uci_bow, load_vocab
from sparsebm.errors import FileFormatError, StructureError
from sparsebm.evaluation import exact_expectations, exact_log_prob, load_embeddings
from sparsebm.replicated_softmax import (
    TrainConfig,
    _softmax_rows,
    load_rs_model,
    rs_energy,
    rs_hidden_conditional,
)
from sparsebm.sbm import (
    SbmModel,
    SbmStructure,
    _batch_theta,
    _gibbs_hidden_sweep,
    _multinomial_rows,
    apply_mask,
    cd_gradients,
    init_sbm_model,
    load_sbm_model,
    load_structure,
    sbm_cd_gradients,
    sbm_cd_step,
    sbm_energy,
    sbm_fit,
    sbm_gibbs_hidden_conditional,
    sbm_train,
    sbm_tree_marginals,
    save_sbm_model,
    save_structure,
    tree_sum_product,
)
from sparsebm.structure import load_skeleton
from sparsebm.util import rng_from

from conftest import (
    brute_posterior,
    hidden_states,
    random_doc,
    random_sbm_model,
    random_structure,
)

DATA = Path(__file__).parent / "data"
# a reader for each kind of file in tests/data, and the skeleton reader
LOADERS = {
    "model.struct": load_structure,
    "model.sbm": load_sbm_model,
    "masked.rs": load_rs_model,
    "skeleton.txt": lambda path: load_skeleton(path, 5),
}


def chain_structure(f, k, wt=0.0):
    edges = [(j, kk) for j in range(f) for kk in range(k)]
    tree = [(j, j + 1) for j in range(f - 1)]
    s = SbmStructure(f, k, edges, tree)
    return s


def zero_sbm(f, k, tree=True):
    s = chain_structure(f, k) if tree else SbmStructure.full(f, k)
    return SbmModel(s, np.zeros((f, k)), np.zeros(s.n_tree_edges), np.zeros(f), np.zeros(k))


class TestStructure:
    def test_forest_validation(self):
        with pytest.raises(StructureError, match="not a forest"):
            SbmStructure(3, 2, [(0, 0), (1, 0), (2, 1)], [(0, 1), (1, 2), (0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(StructureError):
            SbmStructure(2, 2, [(0, 0), (1, 1)], [(1, 1)])

    def test_every_hidden_needs_a_visible_edge(self):
        with pytest.raises(StructureError, match="hidden unit 1 has no visible edge"):
            SbmStructure(2, 2, [(0, 0), (0, 1)], [])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(StructureError):
            SbmStructure(1, 2, [(0, 0), (0, 0)], [])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_visible_edge_checks_match_per_edge_loop(self, data):
        """The vectorised range, duplicate and placement checks against the
        per-edge loop they replace: the same mask, or the same message for
        the first faulty edge in input order."""
        f, k = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        edges = data.draw(st.lists(st.tuples(st.integers(-2, f + 1), st.integers(-2, k + 1)),
                                   max_size=10))
        expected = np.zeros((f, k), dtype=bool)
        for j, v in edges:
            if not 0 <= j < f:
                expected = f"hidden index {j} out of range"
            elif not 0 <= v < k:
                expected = f"visible index {v} out of range"
            elif expected[j, v]:
                expected = f"duplicate visible edge ({j}, {v})"
            else:
                expected[j, v] = True
                continue
            break
        if not isinstance(expected, str) and not expected.any(axis=1).all():
            expected = f"hidden unit {np.flatnonzero(~expected.any(axis=1))[0]} has no visible edge"
        if isinstance(expected, str):
            with pytest.raises(StructureError) as info:
                SbmStructure(f, k, edges, [])
            assert str(info.value) == expected
        else:
            assert np.array_equal(SbmStructure(f, k, edges, []).mask(), expected)
            assert np.array_equal(SbmStructure(f, k, np.array(edges), []).mask(), expected)

    def test_visible_edges_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            SbmStructure(2, 3, [(0, 0, 1), (1, 1, 2)], [])

    def test_mask_matches_edges(self):
        s = SbmStructure(2, 3, [(0, 0), (0, 2), (1, 1)], [(0, 1)])
        expected = np.array([[True, False, True], [False, True, False]])
        assert np.array_equal(s.mask(), expected)

    def test_components(self):
        s = SbmStructure(4, 2, [(j, 0) for j in range(4)], [(2, 3)])
        assert s.component.tolist() == [0, 1, 2, 2]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_traversal_against_component_oracle(self, data):
        """The one depth-first pass against scipy's components, distances
        and reachability: a graph without self loops or repeated edges is a
        forest exactly when E = F - C, and the preorder puts each subtree in
        one range of positions after its root."""
        f = data.draw(st.integers(1, 8))
        raw = data.draw(st.lists(st.tuples(st.integers(0, f - 1), st.integers(0, f - 1)),
                                 max_size=12))
        seen, tree = set(), []
        for j, l in raw:
            if j != l and (min(j, l), max(j, l)) not in seen:
                seen.add((min(j, l), max(j, l)))
                tree.append((j, l))
        ends = np.array(tree, dtype=np.int64).reshape(-1, 2).T
        graph = sp.csr_matrix((np.ones(len(tree)), (ends[0], ends[1])), shape=(f, f))
        n_trees, label = connected_components(graph, directed=False)
        visible = [(j, 0) for j in range(f)]
        if len(tree) != f - n_trees:
            with pytest.raises(StructureError, match="not a forest"):
                SbmStructure(f, 1, visible, tree)
            return
        s = SbmStructure(f, 1, visible, tree)
        root = [int(np.flatnonzero(label == label[j])[0]) for j in range(f)]
        assert s.component.tolist() == root
        level = shortest_path(graph, directed=False, unweighted=True)[root, range(f)]
        plan = s._plan
        assert sorted(e for _, _, e in plan.down_steps) == list(range(len(tree)))
        for p, c, e in plan.down_steps:
            assert (min(p, c), max(p, c)) == s.tree_edges[e]
            assert level[c] == level[p] + 1
            assert (plan.edge_parent[e], plan.edge_child[e]) == (p, c)
        assert sorted(plan.order.tolist()) == list(range(f))
        assert plan.position[plan.order].tolist() == list(range(f))
        assert [c for _, c, _ in plan.down_steps] == [
            j for j in plan.order.tolist() if s.component[j] != j]
        for p, c, _ in plan.down_steps:
            assert plan.position[p] < plan.position[c]
        # the edges pointed from parent to child reach exactly the subtree
        down = sp.csr_matrix((np.ones(len(tree)), (plan.edge_parent, plan.edge_child)),
                             shape=(f, f))
        reach = np.isfinite(shortest_path(down, directed=True, unweighted=True))
        for i, j in enumerate(plan.order.tolist()):
            assert sorted(plan.order[i:plan.end[i]].tolist()) == np.flatnonzero(reach[j]).tolist()
        colour = np.full(f, -1)
        for c, units in enumerate(plan.colours):
            assert units.tolist() == sorted(set(units.tolist()))
            colour[units] = c
        assert colour.min() >= 0
        assert all(colour[j] != colour[l] for j, l in s.tree_edges)

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        s = random_structure(rng, 4, 5)
        save_structure(s, tmp_path / "s.struct")
        loaded = load_structure(tmp_path / "s.struct")
        assert loaded == s


class TestEnergy:
    def test_zero_model(self):
        model = zero_sbm(2, 3)
        assert sbm_energy(model, Document([0], [2]), [1, 1]) == 0.0

    def test_tree_term_hand_computed(self):
        s = SbmStructure(2, 2, [(0, 0), (1, 1)], [(0, 1)])
        model = SbmModel(s, np.zeros((2, 2)), [1.0], np.zeros(2), np.zeros(2))
        doc = Document([0], [3])
        assert sbm_energy(model, doc, [1, 1]) == pytest.approx(-3.0, abs=1e-12)
        assert sbm_energy(model, doc, [1, 0]) == 0.0

    def test_reduces_to_rs_when_tree_weights_zero(self):
        rng = np.random.default_rng(1)
        from sparsebm.replicated_softmax import RsModel

        f, k = 3, 4
        s = SbmStructure.full(f, k)
        w = rng.normal(0, 1, (f, k))
        a = rng.normal(0, 1, f)
        b = rng.normal(0, 1, k)
        sbm = SbmModel(s, w, np.zeros(0), a, b)
        rs = RsModel(w, a, b)
        doc = random_doc(rng, k)
        for _ in range(5):
            h = rng.integers(0, 2, f).astype(float)
            assert sbm_energy(sbm, doc, h) == rs_energy(rs, doc, h)

    def test_full_reduction_hidden_conditional_bitwise(self):
        rng = np.random.default_rng(2)
        from sparsebm.replicated_softmax import RsModel

        f, k = 3, 4
        s = SbmStructure.full(f, k)
        w = rng.normal(0, 1, (f, k))
        a = rng.normal(0, 1, f)
        b = rng.normal(0, 1, k)
        sbm = SbmModel(s, w, np.zeros(0), a, b)
        rs = RsModel(w, a, b)
        doc = random_doc(rng, k)
        rs_p = rs_hidden_conditional(rs, doc)
        h = np.zeros(f)
        for j in range(f):
            assert sbm_gibbs_hidden_conditional(sbm, doc, h, j) == rs_p[j]


class TestGibbsConditional:
    def test_zero_model_half(self):
        model = zero_sbm(2, 2)
        assert sbm_gibbs_hidden_conditional(model, Document([0], [1]), [0, 0], 0) == 0.5

    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            model = random_sbm_model(rng, 2, 3)
            doc = random_doc(rng, 3)
            logw = None
            # P(h_0 = 1 | doc, h_1) from the enumerated joint
            from conftest import hidden_log_weights

            logw = hidden_log_weights(model, doc)
            states = hidden_states(2)
            for h1 in (0.0, 1.0):
                rows = [i for i in range(4) if states[i, 1] == h1]
                weights = np.exp(logw[rows] - logw[rows].max())
                p_row = {int(states[i, 0]): w for i, w in zip(rows, weights)}
                expected = p_row[1] / (p_row[0] + p_row[1])
                got = sbm_gibbs_hidden_conditional(model, doc, [0.0, h1], 0)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_isolated_unit_ignores_others(self):
        rng = np.random.default_rng(4)
        s = SbmStructure(2, 3, [(0, 0), (0, 1), (1, 2)], [])  # no tree edges
        w = np.where(s.mask(), rng.normal(0, 1, (2, 3)), 0.0)
        model = SbmModel(s, w, np.zeros(0), rng.normal(0, 1, 2), rng.normal(0, 1, 3))
        doc = random_doc(rng, 3)
        p0 = sbm_gibbs_hidden_conditional(model, doc, [0, 0], 0)
        p1 = sbm_gibbs_hidden_conditional(model, doc, [0, 1], 0)
        assert p0 == p1

    def test_out_of_range_word_refused_like_its_siblings(self):
        model = zero_sbm(2, 3)
        doc = Document([5], [1])
        message = "document references word index 5 >= K=3"
        for call in (lambda: sbm_gibbs_hidden_conditional(model, doc, [0, 0], 0),
                     lambda: sbm_energy(model, doc, [0, 0]),
                     lambda: sbm_tree_marginals(model, doc)):
            with pytest.raises(ValueError, match=message):
                call()


class TestTreeMarginals:
    def test_zero_model_chain(self):
        model = zero_sbm(3, 2)
        post = sbm_tree_marginals(model, Document([0], [1]))
        assert np.allclose(post.singleton, 0.5)
        for table in post.pairwise.values():
            assert np.allclose(table, 0.25)
        assert post.log_hidden_partition == pytest.approx(3 * np.log(2), abs=1e-12)

    def test_matches_enumeration_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            f = int(rng.integers(2, 8))
            k = int(rng.integers(2, 5))
            model = random_sbm_model(rng, f, k, scale=1.0)
            doc = random_doc(rng, k)
            joint, log_z = brute_posterior(model, doc)
            states = hidden_states(f)
            post = sbm_tree_marginals(model, doc)
            singles = joint @ states
            assert np.allclose(post.singleton, singles, atol=1e-10)
            assert post.log_hidden_partition == pytest.approx(log_z, abs=1e-10)
            for (j, l), table in post.pairwise.items():
                expected = np.zeros((2, 2))
                for s_idx in range(states.shape[0]):
                    expected[int(states[s_idx, j]), int(states[s_idx, l])] += joint[s_idx]
                assert np.allclose(table, expected, atol=1e-10)

    def test_pairwise_rows_reproduce_singletons(self):
        rng = np.random.default_rng(6)
        model = random_sbm_model(rng, 5, 4)
        doc = random_doc(rng, 4)
        post = sbm_tree_marginals(model, doc)
        for (j, l), table in post.pairwise.items():
            assert table.sum() == pytest.approx(1.0, abs=1e-12)
            assert table[1].sum() == pytest.approx(post.singleton[j], abs=1e-10)
            assert table[:, 1].sum() == pytest.approx(post.singleton[l], abs=1e-10)

    def test_factorizes_when_tree_weights_zero(self):
        rng = np.random.default_rng(7)
        s = chain_structure(3, 4)
        w = rng.normal(0, 1, (3, 4))
        model = SbmModel(s, w, np.zeros(2), rng.normal(0, 1, 3), rng.normal(0, 1, 4))
        doc = random_doc(rng, 4)
        post = sbm_tree_marginals(model, doc)
        h = np.zeros(3)
        for j in range(3):
            expected = sbm_gibbs_hidden_conditional(model, doc, h, j)
            assert post.singleton[j] == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("f", [3, 20, 150])
    def test_log_z_of_a_stack_equals_each_half_alone(self, f):
        # AIS scores one sample at two temperatures in one stacked pass, so
        # each row's log Z must not depend on the rows around it
        rng = np.random.default_rng(f)
        structure = random_structure(rng, f, 4, tree_p=0.9)
        e = structure.n_tree_edges
        parts = [(rng.normal(0, 3, (n, f)), rng.normal(0, 2, (n, e))) for n in (6, 6, 1)]
        theta = np.concatenate([t for t, _ in parts])
        edge_logw = np.concatenate([w for _, w in parts])
        _, _, stacked = tree_sum_product(structure, theta, edge_logw,
                                         want_marginals=False)
        alone = [tree_sum_product(structure, t, w, want_marginals=False)[2]
                 for t, w in parts]
        assert np.array_equal(stacked, np.concatenate(alone))

    @pytest.mark.parametrize("kind", ["random", "balanced"])
    def test_matches_enumeration_at_extreme_potentials(self, kind):
        # a star whose BFS parent 3 is the higher-indexed end of edges (1, 3)
        # and (2, 3), a second tree where 6 is the parent of 5, and the
        # isolated unit 7; node potentials up to +-800, edge log-weights up
        # to +-400. "balanced" offsets each unit by half its incident
        # weights, so large potentials nearly cancel and no state dominates
        f = 8
        tree = [(0, 3), (1, 3), (2, 3), (4, 6), (5, 6)]
        structure = SbmStructure(f, 1, [(j, 0) for j in range(f)], tree)
        rng = np.random.default_rng(23 if kind == "random" else 29)
        n = 12
        edge_logw = rng.uniform(-400, 400, (n, len(tree)))
        if kind == "random":
            theta = rng.uniform(-800, 800, (n, f))
        else:
            theta = rng.normal(0, 2, (n, f))
            for e, (j, l) in enumerate(structure.tree_edges):
                theta[:, j] -= edge_logw[:, e] / 2
                theta[:, l] -= edge_logw[:, e] / 2
        singleton, pairwise, logz = tree_sum_product(structure, theta, edge_logw)
        for out in (singleton, pairwise, logz):
            assert np.all(np.isfinite(out))
        states = hidden_states(f)
        doc = Document([0], [1])  # length 1: theta = a and edge_logw = Wt
        for i in range(n):
            model = SbmModel(structure, np.zeros((f, 1)), edge_logw[i], theta[i],
                             np.zeros(1))
            joint, log_z = brute_posterior(model, doc)
            singles = joint @ states
            assert np.allclose(singleton[i], singles, rtol=0, atol=1e-10)
            assert abs(logz[i] - log_z) <= 1e-12 * abs(log_z)
            # no entry is a difference, so tiny ones keep relative precision
            tiny = singles > 1e-300
            assert np.allclose(singleton[i][tiny], singles[tiny], rtol=1e-8, atol=0)
            for e, (j, l) in enumerate(structure.tree_edges):
                expected = np.zeros((2, 2))
                np.add.at(expected, (states[:, j].astype(int), states[:, l].astype(int)),
                          joint)
                assert np.allclose(pairwise[i, e], expected, rtol=0, atol=1e-10)
                tiny = expected > 1e-300
                assert np.allclose(pairwise[i, e][tiny], expected[tiny], rtol=1e-8, atol=0)

    @pytest.mark.parametrize("scale", [1.0, 800.0])
    def test_tree_less_structure_matches_expit_and_logaddexp(self, scale):
        # tree-less structures take the tree path with no up or down steps;
        # its 1 / (1 + e^-x) and softplus agree with scipy's expit and
        # numpy's logaddexp to the last bit or two, and never overflow
        rng = np.random.default_rng(31)
        structure = random_structure(rng, 9, 5, tree_p=0.0)
        theta = rng.normal(0, scale, (17, 9))
        singleton, pairwise, logz = tree_sum_product(structure, theta,
                                                     np.zeros((17, 0)))
        assert np.all(np.isfinite(singleton)) and np.all(np.isfinite(logz))
        expected = expit(theta)
        assert np.all(singleton[expected == 0.0] == 0.0)
        assert np.allclose(singleton, expected, rtol=1e-15, atol=0)
        assert pairwise.shape == (17, 0, 2, 2)
        assert np.allclose(logz, np.logaddexp(0.0, theta).sum(axis=1), rtol=1e-15, atol=0)
        _, _, alone = tree_sum_product(structure, theta, np.zeros((17, 0)),
                                       want_marginals=False)
        assert np.array_equal(alone, logz)


class TestGibbsChainEquilibrium:
    def test_long_chain_matches_enumerated_distribution(self):
        # fixed document, hidden-only Gibbs chain; compare the visit
        # frequencies of all hidden states to the enumerated conditional
        rng = np.random.default_rng(8)
        model = random_sbm_model(rng, 3, 3, scale=0.8)
        doc = Document([0, 2], [2, 1])
        target, _ = brute_posterior(model, doc)

        d = doc.length
        u = doc.to_dense(3)
        base = model.W @ u + d * model.a
        neighbors = [model.structure.neighbors(j) for j in range(3)]
        wt = model.Wt

        n_sweeps = 10**6
        burn = 5000
        uniforms = rng.random((n_sweeps, 3))
        h = np.zeros(3)
        counts = np.zeros(8)
        from scipy.special import expit

        for t in range(n_sweeps):
            for j in range(3):
                act = base[j]
                for other, e in neighbors[j]:
                    act += d * wt[e] * h[other]
                h[j] = 1.0 if uniforms[t, j] < expit(act) else 0.0
            if t >= burn:
                counts[int(h[0] + 2 * h[1] + 4 * h[2])] += 1
        n = counts.sum()
        freq = counts / n
        for s_idx in range(8):
            p = target[s_idx]
            sigma = np.sqrt(p * (1 - p) / n)
            # 3-sigma band inflated slightly for chain autocorrelation
            assert abs(freq[s_idx] - p) < max(4 * sigma, 5e-4), (
                s_idx, freq[s_idx], p)


    @pytest.mark.parametrize("beta", [1.0, 0.4])
    def test_package_sweep_matches_enumerated_distribution(self, beta):
        # many independent chains at fixed counts through the package's own
        # block sweep; unit 0 branches to 1, 2 and 3, 3 continues to 4, and
        # unit 5 is isolated. At beta < 1 the target is the posterior of the
        # model with W, Wt and a scaled by beta.
        import time

        t0 = time.time()
        rng = np.random.default_rng(12)
        f, k = 6, 4
        s = SbmStructure(f, k, [(j, j % k) for j in range(f)] + [(0, 3), (4, 1)],
                         [(0, 1), (0, 2), (0, 3), (3, 4)])
        w = np.where(s.mask(), rng.normal(0, 0.6, (f, k)), 0.0)
        wt = rng.normal(0, 0.5, s.n_tree_edges)
        a = rng.normal(0, 0.3, f)
        model = SbmModel(s, w, wt, a, np.zeros(k))
        doc = Document([0, 1, 3], [1, 2, 1])
        target, _ = brute_posterior(SbmModel(s, beta * w, beta * wt, beta * a,
                                             np.zeros(k)), doc)

        chains = 40000
        counts = np.tile(doc.to_dense(k), (chains, 1))
        lengths = counts.sum(axis=1)
        h = np.zeros((chains, f))
        sweep_rng = rng_from(0, 12)
        theta = _batch_theta(model, counts, lengths)[0]
        for _ in range(30):
            h = _gibbs_hidden_sweep(model, theta, lengths, h, sweep_rng, beta=beta)
        state = (h @ (2.0 ** np.arange(f))).astype(np.int64)
        freq = np.bincount(state, minlength=2**f) / chains
        sigma = np.sqrt(target * (1 - target) / chains)
        # independent chains: a 5-sigma band per state, plus 1e-3 slack
        assert np.all(np.abs(freq - target) < 5 * sigma + 1e-3), np.abs(freq - target).max()
        assert time.time() - t0 < 20.0


class _EdgeUniforms:
    """A generator stub whose uniforms alternate between the smallest and
    the largest value random() can return."""

    def random(self, size):
        return np.resize([0.0, 1.0 - 2.0**-53], size)


class TestMultinomialRows:
    def test_row_sums_equal_mixed_lengths(self):
        rng = np.random.default_rng(40)
        lengths = rng.integers(1, 300, 64).astype(np.float64)
        lengths[:3] = [1.0, 2.0, 1000.0]
        p = _softmax_rows(rng.normal(0, 2, (64, 50)))
        u = _multinomial_rows(rng_from(0, 40), lengths, p)
        assert u.shape == (64, 50) and u.dtype == np.float64
        assert np.array_equal(u.sum(axis=1), lengths)

    def test_zero_probability_words_never_drawn(self):
        rng = np.random.default_rng(41)
        p = rng.random((200, 8))
        zero = rng.random((200, 8)) < 0.4
        zero[:, 0] = zero[:, -1] = True
        zero[np.arange(200), rng.integers(1, 7, 200)] = False
        p[zero] = 0.0
        lengths = rng.integers(1, 60, 200).astype(np.float64)
        u = _multinomial_rows(rng_from(0, 41), lengths, p)
        assert np.all(u[zero] == 0.0)
        assert np.array_equal(u.sum(axis=1), lengths)

    @pytest.mark.parametrize("k", [6, 1000])
    def test_mean_counts_match_by_chi_square(self, k):
        # rows alternate between two distributions with mixed lengths; each
        # group's word totals are multinomial with the group's distribution
        from scipy.stats import chisquare

        rng = np.random.default_rng(42 + k)
        dists = _softmax_rows(rng.normal(0, 0.5, (2, k)))
        dists[1, 2] = 0.0
        dists[1] /= dists[1].sum()
        rows = 400
        group = np.arange(rows) % 2
        lengths = rng.integers(100, 400, rows).astype(np.float64)
        u = _multinomial_rows(rng_from(0, 42), lengths, dists[group])
        for g in (0, 1):
            totals = u[group == g].sum(axis=0)
            expected = lengths[group == g].sum() * dists[g]
            live = expected > 0
            assert np.all(totals[~live] == 0.0)
            _, p_value = chisquare(totals[live], expected[live])
            assert p_value > 1e-3, (g, p_value)

    def test_blocked_search_is_one_search_over_all_rows(self):
        # each searchsorted call covers a block of rows; the draws are those
        # of one search over every row's offset CDF, from the same uniforms
        rng = np.random.default_rng(44)
        rows = 3 * sbm._SEARCH_ROWS + 5
        w = rng.random((rows, 7)) ** 4
        w[rng.random((rows, 7)) < 0.3] = 0.0
        w[:, 3] += 1e-3
        lengths = rng.integers(1, 40, rows).astype(np.float64)
        u = _multinomial_rows(rng_from(0, 44), lengths, w)
        offsets = 2.0 * np.arange(rows)
        row = np.repeat(np.arange(rows), lengths.astype(np.int64))
        cdf = np.cumsum(w, axis=1)
        cdf = cdf / cdf[:, -1:] + offsets[:, None]
        keys = np.minimum(rng_from(0, 44).random(row.size) + offsets[row],
                          np.nextafter(offsets + 1.0, 0.0)[row])
        words = np.searchsorted(cdf.ravel(), np.sort(keys), side="right")
        assert np.array_equal(u, np.bincount(words, minlength=rows * 7).reshape(rows, 7))

    def test_draws_ignore_a_power_of_two_scale(self):
        # only the CDF is normalised, and scaling by 2^40 is exact
        rng = np.random.default_rng(43)
        w = rng.random((50, 30))
        w[rng.random((50, 30)) < 0.3] = 0.0
        w[:, 7] += 0.1
        lengths = rng.integers(1, 80, 50).astype(np.float64)
        plain = _multinomial_rows(rng_from(0, 43), lengths, w)
        scaled = _multinomial_rows(rng_from(0, 43), lengths, 2.0**40 * w)
        assert np.array_equal(plain, scaled)

    @pytest.mark.parametrize("p_row", [[0.0, 0.3, 0.0, 0.7, 0.0],
                                       [0.25, 0.25, 0.25, 0.25, 0.0]])
    def test_edge_uniforms_stay_in_their_own_row(self, p_row):
        # at 4096 rows the offsets 2r leave the uniforms about 13 fewer bits,
        # so 1 - 2^-53 + 2r rounds up to 2r + 1, the row's upper edge
        rows = 4096
        lengths = np.resize([1.0, 2.0, 3.0], rows)
        p = np.tile(p_row, (rows, 1))
        u = _multinomial_rows(_EdgeUniforms(), lengths, p)
        assert np.array_equal(u.sum(axis=1), lengths)
        # the draws take the stub's values in row order: a 0.0 lands on the
        # row's first live word, a 1 - 2^-53 on its last live word
        live = np.nonzero(p_row)[0]
        draw_row = np.repeat(np.arange(rows), lengths.astype(int))
        n_low = np.bincount(draw_row[::2], minlength=rows)
        assert np.array_equal(u[:, live[0]], n_low)
        assert np.array_equal(u[:, live[-1]], lengths - n_low)
        assert np.all(np.delete(u, live[[0, -1]], axis=1) == 0.0)


class TestCd:
    def test_zero_learning_rate_identity(self):
        rng = np.random.default_rng(9)
        model = random_sbm_model(rng, 3, 4)
        batch = [random_doc(rng, 4) for _ in range(3)]
        out = sbm_cd_step(model, batch, t=2, lr=0.0, rng=rng_from(0, 6))
        assert np.array_equal(out.W, model.W)
        assert np.array_equal(out.Wt, model.Wt)

    def test_gradients_masked(self):
        rng = np.random.default_rng(10)
        model = random_sbm_model(rng, 3, 4, edge_p=0.4)
        batch = [random_doc(rng, 4) for _ in range(3)]
        grads = sbm_cd_gradients(model, batch, t=2, rng=rng_from(0, 7))
        off = ~model.structure.mask()
        assert np.all(grads["W"][off] == 0.0)

    @pytest.mark.parametrize("tree", [True, False])
    def test_gradients_match_stepwise_reference(self, tree):
        # the negative phase written out step by step (hidden sweep, visible
        # softmax weights, multinomial draw, node potentials) from the same
        # stream; unit 0 branches to 1, 2 and 3 in the tree model
        rng = np.random.default_rng(19)
        f, k, t = 5, 6, 3
        s = SbmStructure(f, k, [(j, j % k) for j in range(f)] + [(0, 5), (2, 4), (4, 0)],
                         [(0, 1), (0, 2), (0, 3), (3, 4)] if tree else [])
        model = SbmModel(s, np.where(s.mask(), rng.normal(0, 0.5, (f, k)), 0.0),
                         rng.normal(0, 0.5, s.n_tree_edges), rng.normal(0, 0.3, f),
                         rng.normal(0, 0.3, k))
        counts = rng.integers(0, 4, (7, k)).astype(np.float64)
        counts[:, 0] += 1.0
        lengths = counts.sum(axis=1)
        got = cd_gradients(model, counts, lengths, t, rng_from(0, 13))

        ref_rng = rng_from(0, 13)
        theta, edge_logw = _batch_theta(model, counts, lengths)
        e_h, pairwise, _ = tree_sum_product(s, theta, edge_logw)
        h = np.zeros((counts.shape[0], f))
        for _ in range(t):
            h = _gibbs_hidden_sweep(model, theta, lengths, h, ref_rng)
            logits = model.b + h @ model.W
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            u = _multinomial_rows(ref_rng, lengths, weights)
            theta = _batch_theta(model, u, lengths)[0]
        h = _gibbs_hidden_sweep(model, theta, lengths, h, ref_rng)
        ej, el = s._edge_ends
        hh = h[:, ej] * h[:, el]
        n = counts.shape[0]
        grad_wt = (pairwise[:, :, 1, 1] * lengths[:, None]).sum(axis=0)
        grad_wt -= (hh * lengths[:, None]).sum(axis=0)
        expected = {
            "W": np.where(s.mask(), e_h.T @ counts - h.T @ u, 0.0) / n,
            "Wt": grad_wt / n,
            "a": (e_h.T @ lengths - h.T @ lengths) / n,
            "b": (counts.sum(axis=0) - u.sum(axis=0)) / n,
        }
        for name in ("W", "Wt", "a", "b"):
            assert np.array_equal(got[name], expected[name]), name

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        s = SbmStructure(2, 3, [(0, 0), (0, 1), (1, 1), (1, 2)], [(0, 1)])
        w = np.where(s.mask(), rng.normal(0, 0.7, (2, 3)), 0.0)
        model = SbmModel(s, w, rng.normal(0, 0.7, 1), rng.normal(0, 0.4, 2),
                         rng.normal(0, 0.4, 3))
        docs = [Document([0, 1], [1, 1]), Document([2], [2])]
        h = 1e-5

        def loglik(m):
            return sum(exact_log_prob(m, d) for d in docs)

        grad_w = np.zeros_like(model.W)
        grad_wt = np.zeros_like(model.Wt)
        grad_a = np.zeros_like(model.a)
        grad_b = np.zeros_like(model.b)
        for doc in docs:
            u = doc.to_dense(3)
            d = doc.length
            post = sbm_tree_marginals(model, doc)
            ex = exact_expectations(model, d)
            grad_w += np.outer(post.singleton, u) - ex["hu"]
            grad_a += d * (post.singleton - ex["h"])
            grad_b += u - ex["u"]
            for e, edge in enumerate(s.tree_edges):
                grad_wt[e] += d * (post.pairwise[edge][1, 1] - ex["hh"][e])
        grad_w = np.where(s.mask(), grad_w, 0.0)

        def fd(setter):
            up = model.copy()
            setter(up, h)
            down = model.copy()
            setter(down, -h)
            return (loglik(up) - loglik(down)) / (2 * h)

        for j in range(2):
            for k in range(3):
                if not s.mask()[j, k]:
                    continue
                got = fd(lambda m, eps, j=j, k=k: m.W.__setitem__((j, k), m.W[j, k] + eps))
                assert grad_w[j, k] == pytest.approx(got, rel=1e-5, abs=1e-8)
        for j in range(2):
            got = fd(lambda m, eps, j=j: m.a.__setitem__(j, m.a[j] + eps))
            assert grad_a[j] == pytest.approx(got, rel=1e-5, abs=1e-8)
        for k in range(3):
            got = fd(lambda m, eps, k=k: m.b.__setitem__(k, m.b[k] + eps))
            assert grad_b[k] == pytest.approx(got, rel=1e-5, abs=1e-8)
        got = fd(lambda m, eps: m.Wt.__setitem__(0, m.Wt[0] + eps))
        assert grad_wt[0] == pytest.approx(got, rel=1e-5, abs=1e-8)


class TestMask:
    def test_apply_mask_zeroes_off_structure(self):
        s = SbmStructure(2, 3, [(0, 0), (1, 2)], [])
        dense = np.arange(6, dtype=float).reshape(2, 3) + 1
        model = SbmModel(s, dense, np.zeros(0), np.zeros(2), np.zeros(3))
        apply_mask(model)
        assert model.W[0, 0] == 1.0
        assert model.W[1, 2] == 6.0
        assert model.off_structure_weight() == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        model = random_sbm_model(rng, 3, 4)
        once = apply_mask(model.copy())
        twice = apply_mask(once.copy())
        assert np.array_equal(once.W, twice.W)

    def test_conforming_model_unchanged(self):
        rng = np.random.default_rng(13)
        model = random_sbm_model(rng, 3, 4)
        before = model.W.copy()
        apply_mask(model)
        assert np.array_equal(model.W, before)

    def test_mask_invariant_after_training(self, tiny_corpus):
        rng = np.random.default_rng(14)
        s = random_structure(rng, 3, 3, edge_p=0.5)
        config = TrainConfig(epochs=3, cd_steps=1, learning_rate=0.1,
                             batch_size=3, seed=2, weight_init_std=0.05)
        model = sbm_train(tiny_corpus, s, config)
        assert model.off_structure_weight() == 0.0


class TestTrain:
    def test_zero_epochs(self, tiny_corpus):
        s = chain_structure(2, 3)
        config = TrainConfig(epochs=0, seed=1, weight_init_std=0.01)
        model = sbm_train(tiny_corpus, s, config)
        expected = init_sbm_model(tiny_corpus, s, config)
        assert np.array_equal(model.W, expected.W)
        assert np.all(model.Wt == 0.0)

    @pytest.mark.parametrize("field", ["epochs", "cd_steps", "batch_size", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_non_integer_setting_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate", "weight_init_std",
                                       "hidden_bias_lr_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_setting_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_k_mismatch(self, tiny_corpus):
        s = chain_structure(2, 5)
        with pytest.raises(ValueError, match="does not match"):
            sbm_train(tiny_corpus, s, TrainConfig(epochs=1))

    def test_fit_refuses_a_model_over_other_words_naming_both_sizes(self, tiny_corpus):
        # tiny_corpus has K=3; numpy's matmul used to fail first, naming neither
        with pytest.raises(ValueError, match=r"model K=5 .* vocabulary size 3"):
            sbm_fit(zero_sbm(2, 5), tiny_corpus, TrainConfig(epochs=1))

    def test_deterministic(self, tiny_corpus):
        s = chain_structure(2, 3)
        config = TrainConfig(epochs=2, cd_steps=1, learning_rate=0.05,
                             batch_size=3, seed=4, weight_init_std=0.01)
        a = sbm_train(tiny_corpus, s, config)
        b = sbm_train(tiny_corpus, s, config)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.Wt, b.Wt)

    def test_training_improves_exact_likelihood(self):
        rng = rng_from(21, 8)
        docs = []
        for _ in range(60):
            topic = rng.random() < 0.5
            words = [0, 1, 2] if topic else [3, 4, 5]
            picks = rng.choice(words, size=4)
            counts = np.bincount(picks, minlength=6)
            docs.append(Document(np.nonzero(counts)[0], counts[np.nonzero(counts)[0]]))
        corpus = Corpus([f"w{i}" for i in range(6)], docs)
        s = SbmStructure(
            3, 6,
            [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 0), (2, 5)],
            [(0, 1), (1, 2)],
        )
        config = TrainConfig(epochs=30, cd_steps=2, learning_rate=0.05,
                             batch_size=10, seed=6, weight_init_std=0.05)
        init = init_sbm_model(corpus, s, config)
        trained = sbm_train(corpus, s, config)
        holdout = corpus.docs[:10]
        ll_init = sum(exact_log_prob(init, d) for d in holdout)
        ll_trained = sum(exact_log_prob(trained, d) for d in holdout)
        assert ll_trained > ll_init


class TestModelSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        model = random_sbm_model(rng, 3, 5)
        save_sbm_model(model, tmp_path / "m.sbm")
        loaded = load_sbm_model(tmp_path / "m.sbm")
        assert loaded.structure == model.structure
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.Wt, model.Wt)
        assert np.array_equal(loaded.a, model.a)
        assert np.array_equal(loaded.b, model.b)

    @pytest.mark.parametrize("section, line", [
        ("dims", "F x"), ("visible_edges", "0 1 zz"), ("visible_edges", "0 x 0.5"),
        ("tree_edges", "0 1 zz"), ("tree_edges", "0"), ("a", "0.1 zz 0.3"),
        ("visible_edges", "0 1 nan"), ("tree_edges", "0 1 inf"),
        ("a", "0.1 1e400 0.3"), ("b", "nan 0 0 0 0"), ("b", "0 -inf 0 0 0"),
        ("visible_edges", "0 1_0 0.5"), ("tree_edges", "0 \u0661 0.5"),
        ("a", "0.1 1_0 0.3"), ("b", "\u0661 0 0 0 0"),
    ])
    def test_bad_number_names_file_and_line(self, tmp_path, section, line):
        path = tmp_path / "m.sbm"
        save_sbm_model(random_sbm_model(np.random.default_rng(16), 3, 5), path)
        lines = path.read_text().splitlines()
        lines[lines.index(f"[{section}]") + 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            load_sbm_model(path)
        assert "m.sbm" in str(exc.value) and repr(line) in str(exc.value)

    @pytest.mark.parametrize("field, value", [("F", 0), ("K", 0), ("F", -2)])
    @pytest.mark.parametrize("kind", ["model", "structure"])
    def test_dims_below_one_name_file_and_field(self, tmp_path, kind, field, value):
        rng = np.random.default_rng(18)
        path = tmp_path / f"{kind}.txt"
        if kind == "model":
            save_sbm_model(random_sbm_model(rng, 3, 5), path)
        else:
            save_structure(random_structure(rng, 3, 5), path)
        lines = path.read_text().splitlines()
        at = lines.index("[dims]") + 1 + "FK".index(field)
        assert lines[at].startswith(f"{field} ")
        lines[at] = f"{field} {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            (load_sbm_model if kind == "model" else load_structure)(path)
        assert f"{kind}.txt" in str(exc.value) and f"{field} is {value}" in str(exc.value)

    @pytest.mark.parametrize("section, line", [
        ("dims", "K 5.5"), ("visible_edges", "0 zz"), ("tree_edges", "0 1 2"),
    ])
    def test_bad_structure_line_names_file_and_line(self, tmp_path, section, line):
        path = tmp_path / "s.struct"
        save_structure(random_structure(np.random.default_rng(17), 3, 5), path)
        lines = path.read_text().splitlines()
        lines[lines.index(f"[{section}]") + 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            load_structure(path)
        assert "s.struct" in str(exc.value) and repr(line) in str(exc.value)

    @pytest.mark.parametrize("name, section, misspelled", [
        ("model.struct", "tree_edges", "tree-edges"),
        ("model.sbm", "tree_edges", "tree-edges"),
        ("masked.rs", "mask", "Mask"),
    ])
    def test_unknown_section_names_file_section_and_line(self, tmp_path, name, section,
                                                         misspelled):
        lines = (DATA / name).read_text().splitlines()
        at = lines.index(f"[{section}]")
        lines[at] = f"[{misspelled}]"
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            LOADERS[name](path)
        assert str(exc.value) == f"{path}: unknown section [{misspelled}] at line {at + 1}"

    @pytest.mark.parametrize("name", sorted(LOADERS))
    def test_file_that_is_not_utf8_is_refused_naming_it(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\x89PNG\r\n\x1a\n")
        with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: not UTF-8 text"):
            LOADERS[name](path)

    @pytest.mark.parametrize("reader, data", [
        ("docword", b"\x89PNG\r\n\x1a\n"),
        # past the first read of the file, so the bulk body read meets it
        ("docword", b"1\n2\n3001\n" + b"1 1 1\n" * 3000 + b"1 2 \xff\n"),
        ("vocab", b"\xff\xfea\x00\n\x00"),
        ("embeddings", b"\xff\xfea\x00 \x001\x00\n\x00"),
    ], ids=["docword-header", "docword-body", "vocab", "embeddings"])
    def test_corpus_or_embedding_file_not_utf8_is_refused_naming_it(self, tmp_path, reader,
                                                                    data):
        path = tmp_path / reader
        path.write_bytes(data)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        load = {"docword": lambda: load_uci_bow(path, vocab),
                "vocab": lambda: load_vocab(path),
                "embeddings": lambda: load_embeddings(path)}[reader]
        with pytest.raises(FileFormatError, match=f"{re.escape(str(path))}: not UTF-8 text"):
            load()

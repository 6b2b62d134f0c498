import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import logsumexp

from sparsebm.corpus import Document, docs_csr
from sparsebm.errors import FileFormatError, StructureError
from sparsebm import evaluation, sbm
from sparsebm.evaluation import (
    AisSchedule,
    EmbeddingTable,
    ais_log_z,
    default_schedule,
    exact_expectations,
    exact_log_z,
    interpretability_model,
    interpretability_unit,
    load_embeddings,
    log_p_star,
    perplexity,
    unit_top_words,
)
from sparsebm.replicated_softmax import RsModel
from sparsebm.sbm import (
    SbmModel,
    SbmStructure,
    _batch_theta,
    _gibbs_hidden_sweep,
    _multinomial_rows,
    tree_sum_product,
)
from sparsebm.util import log_mean_exp, rng_from

from conftest import (
    count_vector_expectations,
    random_doc,
    random_rs_model,
    random_sbm_model,
    token_level_log_z,
)


def zero_rs(f, k):
    return RsModel(np.zeros((f, k)), np.zeros(f), np.zeros(k))


def reference_ais_log_weights(model, doc_length, schedule, runs, rng):
    """AIS run weights with log p* evaluated on its own at each temperature,
    before and after every transition, from the counts of the sample."""
    return reference_ais_row_log_weights(
        model, np.full(runs, float(doc_length)), schedule, rng)


def reference_ais_row_log_weights(model, lengths, schedule, rng):
    """reference_ais_log_weights over a chain whose rows may differ in
    length: row r anneals a document of lengths[r] tokens."""

    def log_p_star(u, lengths, beta):
        theta, edge_logw = _batch_theta(model, u, lengths)
        _, _, logz = tree_sum_product(model.structure, beta * theta,
                                      beta * edge_logw, want_marginals=False)
        return u @ model.b + logz

    betas = schedule.betas()
    p0 = np.exp(model.b - model.b.max())
    runs = lengths.size
    u = _multinomial_rows(rng, lengths, np.tile(p0, (runs, 1)))
    h = np.zeros((runs, model.n_hidden))
    log_w = np.zeros(runs)
    lp_prev = log_p_star(u, lengths, betas[0])
    for k in range(1, betas.size):
        log_w += log_p_star(u, lengths, betas[k]) - lp_prev
        if k < betas.size - 1:
            theta = _batch_theta(model, u, lengths)[0]
            h = _gibbs_hidden_sweep(model, theta, lengths, h, rng, beta=betas[k])
            logits = model.b + betas[k] * (h @ model.W)
            weights = np.exp(logits - logits.max(axis=1, keepdims=True))
            u = _multinomial_rows(rng, lengths, weights)
            lp_prev = log_p_star(u, lengths, betas[k])
    return log_w


def tree_model(rng):
    """F=6, K=5: unit 0 branches to 1, 2 and 3; 3 continues to 4; 5 is
    isolated."""
    f, k = 6, 5
    s = SbmStructure(f, k, [(j, j % k) for j in range(f)] + [(0, 3), (4, 1)],
                     [(0, 1), (0, 2), (0, 3), (3, 4)])
    return SbmModel(s, np.where(s.mask(), rng.normal(0, 0.8, (f, k)), 0.0),
                    rng.normal(0, 0.5, 4), rng.normal(0, 0.3, f),
                    rng.normal(0, 0.5, k))


class TestSchedule:
    def test_default_counts(self):
        sched = default_schedule()
        assert sched.n_intermediate == 10000
        betas = sched.betas()
        assert betas.size == 10001
        assert betas[0] == 0.0
        assert betas[-1] == 1.0
        assert np.all(np.diff(betas) > 0)

    def test_segment_spacing(self):
        sched = default_schedule()
        betas = sched.betas()
        tail = betas[betas > 0.9]
        gaps = np.diff(tail)
        assert np.allclose(gaps, 0.1 / 6500, atol=1e-12)

    def test_uniform_single_segment(self):
        sched = AisSchedule([(0.0, 1.0, 100)])
        betas = sched.betas()
        assert betas.size == 101
        assert np.allclose(np.diff(betas), 0.01)

    def test_invalid_segments(self):
        with pytest.raises(ValueError):
            AisSchedule([(0.0, 0.5, 10)])  # does not reach 1
        with pytest.raises(ValueError):
            AisSchedule([(0.0, 1.0, 0)])
        with pytest.raises(ValueError):
            AisSchedule([(0.5, 1.0, 10)])  # does not start at 0

    @pytest.mark.parametrize("segments", [
        [(0.0, float("nan"), 5), (float("nan"), 1.0, 5)],
        [(0.0, 1.0, 5), (1.0, float("inf"), 5)],
        [(float("-inf"), 1.0, 5)],
    ])
    def test_non_finite_temperature_refused(self, segments):
        with pytest.raises(ValueError, match="non-finite temperature"):
            AisSchedule(segments)


class TestExactLogZ:
    def test_zero_model_closed_form(self):
        model = zero_rs(4, 5)
        assert exact_log_z(model, 3) == pytest.approx(
            4 * math.log(2) + 3 * math.log(5), abs=1e-12
        )

    def test_against_token_level_oracle_rs(self):
        rng = np.random.default_rng(0)
        model = random_rs_model(rng, 2, 3)
        for d in (1, 2):
            assert exact_log_z(model, d) == pytest.approx(
                token_level_log_z(model, d), abs=1e-10
            )

    def test_against_token_level_oracle_sbm(self):
        rng = np.random.default_rng(1)
        model = random_sbm_model(rng, 2, 3)
        for d in (1, 2):
            assert exact_log_z(model, d) == pytest.approx(
                token_level_log_z(model, d), abs=1e-10
            )

    def test_single_token_boundary(self):
        rng = np.random.default_rng(2)
        model = random_rs_model(rng, 2, 4)
        # D=1: every document is one word
        direct = []
        for k in range(4):
            direct.append(log_p_star(model, Document([k], [1])))
        direct = np.array(direct)
        m = direct.max()
        expected = m + np.log(np.exp(direct - m).sum())
        assert exact_log_z(model, 1) == pytest.approx(expected, abs=1e-10)

    def test_refuses_oversized(self):
        model = zero_rs(20, 50)
        with pytest.raises(ValueError, match="enumeration"):
            exact_log_z(model, 40)


def branching_tree_model(rng, scale=0.7):
    """F=5, K=4: unit 0 branches to 1, 2 and 3, and 3 continues to 4."""
    f, k = 5, 4
    s = SbmStructure(f, k, [(j, j % k) for j in range(f)] + [(0, 3), (2, 1), (4, 2)],
                     [(0, 1), (0, 2), (0, 3), (3, 4)])
    return SbmModel(s, np.where(s.mask(), rng.normal(0, scale, (f, k)), 0.0),
                    rng.normal(0, scale, 4), rng.normal(0, scale / 2, f),
                    rng.normal(0, scale / 2, k))


class TestClosedFormAgainstCountVectors:
    @pytest.mark.parametrize("doc_length", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("kind", ["tree", "rs"])
    def test_log_z_and_expectations_match_enumeration(self, kind, doc_length):
        rng = np.random.default_rng(31)
        if kind == "tree":
            model = branching_tree_model(rng)
        else:
            model = random_rs_model(rng, 4, 5)
        ref = count_vector_expectations(model, doc_length)
        assert abs(exact_log_z(model, doc_length) - ref["log_z"]) <= 1e-12
        ex = exact_expectations(model, doc_length)
        assert sorted(ex) == sorted(ref)
        assert abs(ex["log_z"] - ref["log_z"]) <= 1e-12
        for key in ("h", "u", "hu", "hh"):
            assert ex[key].shape == ref[key].shape, key
            assert np.allclose(ex[key], ref[key], rtol=0.0, atol=1e-12), key

    def test_array_of_lengths_matches_each_length(self):
        model = branching_tree_model(np.random.default_rng(32))
        lengths = np.array([1, 4, 9, 30])
        log_z = exact_log_z(model, lengths)
        assert isinstance(log_z, np.ndarray) and log_z.shape == (4,)
        for d, z in zip(lengths, log_z):
            assert z == exact_log_z(model, int(d))
        assert isinstance(exact_log_z(model, 3), float)

    def test_blocks_of_a_few_states_give_the_same_numbers(self, monkeypatch):
        model = branching_tree_model(np.random.default_rng(33))
        whole = exact_expectations(model, 6)
        # three states per block, so the 32 states span eleven blocks
        monkeypatch.setattr(evaluation, "_CHUNK_WORDS", 3 * model.n_visible)
        blocks = exact_expectations(model, 6)
        for key in whole:
            assert np.allclose(blocks[key], whole[key], rtol=0.0, atol=1e-12), key

    def test_limit_is_on_states_times_words(self):
        # 2^15 states x 1000 words is inside the limit, 2^16 x 1000 is not
        assert exact_log_z(zero_rs(15, 1000), 50) == pytest.approx(
            15 * math.log(2) + 50 * math.log(1000), abs=1e-9
        )
        with pytest.raises(ValueError, match="enumeration"):
            exact_log_z(zero_rs(16, 1000), 50)


class TestAis:
    def test_degenerate_schedule_zero_model(self):
        model = zero_rs(4, 5)
        sched = AisSchedule([(0.0, 1.0, 1)])
        est = ais_log_z(model, 3, sched, runs=20, rng=rng_from(0, 1))
        assert est.log_z_mean == pytest.approx(4 * math.log(2) + 3 * math.log(5), abs=1e-12)
        assert np.all(est.per_run_log_weights == 0.0)

    def test_run_weight_bookkeeping(self):
        model = zero_rs(2, 3)
        sched = AisSchedule([(0.0, 1.0, 5)])
        est = ais_log_z(model, 2, sched, runs=7, rng=rng_from(0, 2))
        assert est.per_run_log_weights.shape == (7,)
        assert est.doc_length == 2

    def test_estimate_invariant_log_mean_exp(self):
        from sparsebm.util import log_mean_exp

        rng_model = np.random.default_rng(9)
        model = random_rs_model(rng_model, 2, 4, scale=0.5)
        sched = AisSchedule([(0.0, 1.0, 30)])
        est = ais_log_z(model, 2, sched, runs=16, rng=rng_from(0, 9))
        rebuilt = est.log_z_base + log_mean_exp(est.per_run_log_weights)
        assert est.log_z_mean == pytest.approx(rebuilt, abs=1e-12)
        assert np.all(np.isfinite(est.per_run_log_weights))

    def test_matches_exact_within_two_se(self):
        rng_model = np.random.default_rng(3)
        model = random_rs_model(rng_model, 4, 5, scale=0.5)
        exact = exact_log_z(model, 3)
        sched = AisSchedule([(0.0, 0.5, 50), (0.5, 0.9, 150), (0.9, 1.0, 300)])
        hits = 0
        for seed in range(5):
            est = ais_log_z(model, 3, sched, runs=100, rng=rng_from(seed, 3))
            if abs(est.log_z_mean - exact) <= 2 * est.standard_error:
                hits += 1
        assert hits >= 4

    def test_sbm_ais_matches_exact(self):
        rng_model = np.random.default_rng(4)
        model = random_sbm_model(rng_model, 3, 4, scale=0.5)
        exact = exact_log_z(model, 3)
        sched = AisSchedule([(0.0, 0.5, 50), (0.5, 0.9, 150), (0.9, 1.0, 300)])
        est = ais_log_z(model, 3, sched, runs=100, rng=rng_from(0, 4))
        assert abs(est.log_z_mean - exact) <= 3 * est.standard_error

    @pytest.mark.parametrize("kind", ["sbm", "rs"])
    def test_matches_exact_at_paper_vocabulary_size(self, kind):
        # F=12, K=1000, D=50: the closed-form oracle reaches a realistic
        # vocabulary, where the K=5 cases above cannot look
        rng_model = np.random.default_rng(12)
        if kind == "sbm":
            model = random_sbm_model(rng_model, 12, 1000, scale=0.3)
        else:
            model = random_rs_model(rng_model, 12, 1000, scale=0.3)
        exact = exact_log_z(model, 50)
        sched = AisSchedule([(0.0, 0.5, 100), (0.5, 0.9, 200), (0.9, 1.0, 300)])
        est = ais_log_z(model, 50, sched, runs=100, rng=rng_from(0, 12))
        assert abs(est.log_z_mean - exact) <= 3 * est.standard_error

    def test_error_shrinks_with_more_runs(self):
        rng_model = np.random.default_rng(5)
        model = random_rs_model(rng_model, 3, 4, scale=0.6)
        exact = exact_log_z(model, 2)
        sched = AisSchedule([(0.0, 1.0, 200)])

        def mean_abs_err(runs, reps=20):
            errs = []
            for seed in range(reps):
                est = ais_log_z(model, 2, sched, runs=runs, rng=rng_from(seed, 5))
                errs.append(abs(est.log_z_mean - exact))
            return np.mean(errs)

        assert mean_abs_err(100) < mean_abs_err(10)

    @pytest.mark.parametrize("kind, segments", [
        ("tree", [(0.0, 0.5, 15), (0.5, 1.0, 25)]),
        ("rs", [(0.0, 0.5, 15), (0.5, 1.0, 25)]),
        ("tree", [(0.0, 1.0, 1)]),
    ])
    def test_run_weights_match_separate_evaluations_bitwise(self, kind, segments):
        rng = np.random.default_rng(21)
        if kind == "tree":
            # unit 0 branches to 1, 2 and 3; 3 continues to 4; 5 is isolated
            f, k = 6, 5
            s = SbmStructure(f, k, [(j, j % k) for j in range(f)] + [(0, 3), (4, 1)],
                             [(0, 1), (0, 2), (0, 3), (3, 4)])
            model = SbmModel(s, np.where(s.mask(), rng.normal(0, 0.8, (f, k)), 0.0),
                             rng.normal(0, 0.5, 4), rng.normal(0, 0.3, f),
                             rng.normal(0, 0.5, k))
        else:
            model = random_rs_model(rng, 20, 9, scale=0.3)
        sched = AisSchedule(segments)
        est = ais_log_z(model, 6, sched, runs=11, rng=rng_from(4, 8))
        ref = reference_ais_log_weights(model, 6, sched, 11, rng_from(4, 8))
        assert np.array_equal(est.per_run_log_weights, ref)


class TestAisOverLengths:
    """ais_log_z over an array of lengths: one chain matrix, rows (length,
    run) length-major."""

    @pytest.mark.parametrize("kind", ["tree", "rs"])
    def test_row_weights_match_mixed_length_reference_bitwise(self, kind):
        rng = np.random.default_rng(21)
        model = tree_model(rng) if kind == "tree" else random_rs_model(rng, 20, 9, scale=0.3)
        sched = AisSchedule([(0.0, 0.5, 15), (0.5, 1.0, 25)])
        doc_lengths = np.array([6, 1, 13])
        est = ais_log_z(model, doc_lengths, sched, runs=7, rng=rng_from(4, 8))
        ref = reference_ais_row_log_weights(
            model, np.repeat(doc_lengths, 7).astype(np.float64), sched, rng_from(4, 8))
        assert est.per_run_log_weights.shape == (21,)
        assert np.array_equal(est.per_run_log_weights, ref)
        assert np.array_equal(est.doc_length, doc_lengths)
        assert est.n_runs == 7

    def test_per_length_statistics(self):
        model = random_rs_model(np.random.default_rng(9), 3, 4, scale=0.5)
        sched = AisSchedule([(0.0, 1.0, 30)])
        doc_lengths = np.array([2, 5])
        est = ais_log_z(model, doc_lengths, sched, runs=16, rng=rng_from(0, 9))
        rows = est.per_run_log_weights.reshape(2, 16)
        for i, d in enumerate(doc_lengths):
            single = evaluation.AisEstimate(est.log_z_mean[i], est.log_z_base[i],
                                            rows[i], int(d))
            assert est.log_z_base[i] == 3 * math.log(2) + d * float(logsumexp(model.b))
            assert est.log_z_mean[i] == est.log_z_base[i] + log_mean_exp(rows[i])
            assert est.standard_errors[i] == single.standard_error
        assert isinstance(est.standard_error, float)
        assert est.standard_error == est.standard_errors.max()

    @pytest.mark.parametrize("kind", ["tree", "rs"])
    def test_one_length_array_is_the_int_call_bitwise(self, kind):
        rng = np.random.default_rng(5)
        model = tree_model(rng) if kind == "tree" else random_rs_model(rng, 4, 9, scale=0.4)
        sched = AisSchedule([(0.0, 0.5, 10), (0.5, 1.0, 20)])
        one = ais_log_z(model, 6, sched, runs=11, rng=rng_from(2, 7))
        array = ais_log_z(model, np.array([6]), sched, runs=11, rng=rng_from(2, 7))
        assert np.array_equal(array.per_run_log_weights, one.per_run_log_weights)
        assert array.log_z_mean.tolist() == [one.log_z_mean]
        assert array.log_z_base.tolist() == [one.log_z_base]
        assert array.standard_error == one.standard_error
        assert isinstance(one.log_z_mean, float) and one.doc_length == 6

    @pytest.mark.parametrize("doc_length, message", [
        (np.array([3, 3]), "distinct"),
        (np.array([0, 3]), "at least 1"),
        (np.array([2.5]), "whole numbers"),
        (np.array([], dtype=np.int64), "non-empty"),
        (np.array([[2, 3]]), "non-empty 1-d"),
    ])
    def test_bad_lengths_refused(self, doc_length, message):
        with pytest.raises(ValueError, match=message):
            ais_log_z(zero_rs(2, 3), doc_length, AisSchedule([(0.0, 1.0, 2)]),
                      runs=3, rng=rng_from(0))

    @pytest.mark.parametrize("kind", ["tree", "rs"])
    def test_per_length_estimates_within_two_se_of_exact(self, kind):
        # criterion 3's rate, 9 in 10 estimates within 2 standard errors,
        # over every (length, seed) of ten six-length chain matrices; asking
        # it of each length alone would fail a calibrated estimator about
        # two times in five
        rng_model = np.random.default_rng(3003)
        if kind == "tree":
            model = random_sbm_model(rng_model, 4, 5, scale=0.5)
        else:
            model = random_rs_model(rng_model, 4, 5, scale=0.5)
        doc_lengths = np.arange(1, 7)
        exact = exact_log_z(model, doc_lengths)
        sched = AisSchedule([(0.0, 0.5, 50), (0.5, 0.9, 150), (0.9, 1.0, 300)])
        hits = np.zeros(doc_lengths.size, dtype=int)
        for seed in range(10):
            est = ais_log_z(model, doc_lengths, sched, runs=100, rng=rng_from(seed, 3003))
            hits += np.abs(est.log_z_mean - exact) <= 2 * est.standard_errors
        assert hits.sum() >= 0.9 * 10 * doc_lengths.size, hits

    def test_length_groups_keep_every_chain_matrix_within_budget(self, monkeypatch):
        k, runs = 1000, 100
        budget = evaluation._AIS_CHAIN_WORDS
        model = random_rs_model(np.random.default_rng(1), 3, k, scale=0.1)
        lengths = list(range(150, 1250, 20))
        docs = [Document([0, 1], [d - 1, 1]) for d in lengths]
        shapes = []

        def recording(rng, row_lengths, w, plan=None):
            shapes.append((w.shape, int(row_lengths.sum())))
            return _multinomial_rows(rng, row_lengths, w, plan)

        calls = []

        def counting(model, doc_length, *args):
            calls.append(doc_length.tolist())
            return ais_log_z(model, doc_length, *args)

        monkeypatch.setattr(evaluation, "_multinomial_rows", recording)
        monkeypatch.setattr(sbm, "_multinomial_rows", recording)
        monkeypatch.setattr(evaluation, "ais_log_z", counting)
        _, log_z = evaluation.held_out_log_probs(
            model, docs, AisSchedule([(0.0, 1.0, 2)]), runs, rng_from(0, 1))
        assert sorted(log_z) == lengths
        assert [d for group in calls for d in group] == lengths
        assert len(calls) > 1
        assert len(shapes) == 2 * len(calls)
        for (rows, cols), tokens in shapes:
            assert cols == k
            assert rows * cols <= budget and tokens <= budget
        # a group ends only where the next length would cross the budget
        for group, after in zip(calls, calls[1:]):
            rows = (len(group) + 1) * runs
            assert rows * k > budget or runs * (sum(group) + after[0]) > budget

    def test_a_length_above_the_budget_gets_its_own_group(self):
        budget = evaluation._AIS_CHAIN_WORDS
        big = budget // 10 + 1
        assert evaluation._length_groups([1, big, big + 1, 2 * big], 10, 1) == [
            [1], [big], [big + 1], [2 * big]]
        assert evaluation._length_groups([3, 4], 1, 1) == [[3, 4]]


class TestPerplexity:
    def test_zero_model_scores_vocab_size(self):
        model = zero_rs(3, 7)
        docs = [Document([0, 3], [2, 1]), Document([5], [4])]
        ppl = perplexity(model, docs, log_z_fn=exact_log_z)
        assert ppl == pytest.approx(7.0, rel=1e-9)

    def test_exact_vs_ten_thousand_run_ais_within_one_percent(self):
        rng_model = np.random.default_rng(6)
        model = random_rs_model(rng_model, 3, 5, scale=0.5)
        docs = [random_doc(np.random.default_rng(i), 5, max_len=3) for i in range(6)]
        exact_ppl = perplexity(model, docs, log_z_fn=exact_log_z)
        sched = AisSchedule([(0.0, 0.5, 100), (0.5, 0.9, 300), (0.9, 1.0, 600)])
        ais_ppl = perplexity(model, docs, schedule=sched, runs=10000,
                             rng=rng_from(0, 6))
        assert ais_ppl == pytest.approx(exact_ppl, rel=0.01)

    def test_empty_docs_rejected(self):
        with pytest.raises(ValueError):
            perplexity(zero_rs(2, 3), [], log_z_fn=exact_log_z)

    def test_multinomial_flag_lowers_perplexity(self):
        model = zero_rs(2, 4)
        docs = [Document([0, 1], [2, 2])]
        base = perplexity(model, docs, log_z_fn=exact_log_z)
        with_coeff = perplexity(model, docs, log_z_fn=exact_log_z,
                                include_multinomial=True)
        assert with_coeff < base


class TestHeldOutInput:
    """Held-out documents that cannot be scored are refused by name."""

    def test_out_of_range_word_names_its_document(self):
        docs = [Document([0], [1]), Document([3], [1])]
        with pytest.raises(StructureError, match="document 1 references word index 3 >= K=3"):
            perplexity(zero_rs(2, 3), docs, log_z_fn=exact_log_z)

    def test_row_without_tokens_names_its_document(self):
        # rows 0 and 2 hold a token each, row 1 none
        csr = sp.csr_matrix((np.array([1, 2]), np.array([0, 2]), np.array([0, 1, 1, 2])),
                            shape=(3, 3))
        with pytest.raises(StructureError, match="document 1 has no tokens"):
            perplexity(zero_rs(2, 3), csr, log_z_fn=exact_log_z)


class TestHeldOutBlocks:
    """Blocks of one or a few documents give the scores that one block of
    every document gives."""

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("include_multinomial", [False, True])
    def test_small_blocks_keep_every_score(self, monkeypatch, rows, include_multinomial):
        rng = np.random.default_rng(34)
        model = random_sbm_model(rng, 4, 6)
        docs = [random_doc(rng, 6, max_len=9) for _ in range(10)]
        lengths = sorted({doc.length for doc in docs})
        log_z = dict(zip(lengths, exact_log_z(model, np.array(lengths))))
        whole = evaluation.per_document_log_probs(model, docs, log_z, include_multinomial)
        batches = []

        def counting(model, counts_matrix, lengths):
            batches.append(counts_matrix.shape[0])
            return log_p_star_batch(model, counts_matrix, lengths)

        log_p_star_batch = evaluation._log_p_star_batch
        monkeypatch.setattr(evaluation, "_log_p_star_batch", counting)
        monkeypatch.setattr(evaluation, "_CHUNK_WORDS", rows * model.n_visible)
        csr = docs_csr(docs, model.n_visible)
        for held_out in (docs, csr):
            blocks = evaluation.per_document_log_probs(model, held_out, log_z,
                                                       include_multinomial)
            assert np.allclose(blocks, whole, rtol=0.0, atol=1e-12)
        assert batches == 2 * [min(rows, 10 - start) for start in range(0, 10, rows)]


def heldout_csr(n_docs, n_words, seed):
    """Ten words a document, each counted 1-3 times: an offset and nine steps
    of 97, distinct modulo any n_words above 873."""
    rng = np.random.default_rng(seed)
    words = (rng.integers(0, n_words, n_docs)[:, None] + 97 * np.arange(10)) % n_words
    words.sort(axis=1)
    counts = rng.integers(1, 4, words.shape)
    indptr = np.arange(0, words.size + 1, 10)
    return sp.csr_matrix((counts.ravel(), words.ravel(), indptr), shape=(n_docs, n_words))


class TestHeldOutMemory:
    """Scoring forms one block of dense rows at a time, so its peak does not
    grow with the number of held-out documents beyond a few floats each."""

    n_words = 1000

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_peak_flat_in_documents(self):
        model = random_rs_model(np.random.default_rng(35), 3, self.n_words, scale=0.1)
        small, large = heldout_csr(2000, self.n_words, 0), heldout_csr(8000, self.n_words, 1)
        peaks = [self.traced_peak(lambda: perplexity(model, csr, log_z_fn=exact_log_z))
                 for csr in (small, large)]
        block = max(1, evaluation._CHUNK_WORDS // self.n_words) * self.n_words * 8
        # eight float64 or int64 arrays a document: lengths, scores and the
        # length-to-log-Z lookup's work
        per_document = 8 * 8 * large.shape[0]
        assert abs(peaks[1] - peaks[0]) < block + per_document


class TestEmbeddings:
    def test_load_basic(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0 0.0\ndog 0.0 1.0 0.0\n")
        table = load_embeddings(path)
        assert len(table) == 2
        assert table.dim == 3
        assert "cat" in table

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0 0.0\ndog 0.0 1.0\n")
        with pytest.raises(FileFormatError, match="dimension mismatch at line 2"):
            load_embeddings(path)

    def test_duplicate_keeps_last(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0\ncat 2.0\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_embeddings(path)
        assert table.get("cat")[0] == 2.0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty"):
            load_embeddings(path)

    @pytest.mark.parametrize("value", ["inf", "nan", "1_0", "x"])
    def test_bad_value_names_file_and_line(self, tmp_path, value):
        # Python's float() reads all but x, and 1_0 as 10.0
        path = tmp_path / "emb.txt"
        path.write_text(f"cat 1.0 0.0\n\ndog 0.0 {value}\n")
        with pytest.raises(FileFormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: unparseable or non-finite vector value at line 3"


class TestInterpretability:
    def make_model(self, weights):
        weights = np.asarray(weights, dtype=float)
        f, k = weights.shape
        return RsModel(weights, np.zeros(f), np.zeros(k))

    def test_identical_vectors_score_one(self):
        model = self.make_model([[3.0, 2.0, 0.1]])
        emb = EmbeddingTable({"a": np.array([1.0, 1.0]), "b": np.array([2.0, 2.0])}, 2)
        score = interpretability_unit(model, ["a", "b", "c"], 0, emb, top_n=2)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors_score_zero(self):
        model = self.make_model([[3.0, 2.0, 1.0]])
        emb = EmbeddingTable(
            {"a": np.array([1.0, 0.0, 0.0]), "b": np.array([0.0, 1.0, 0.0]),
             "c": np.array([0.0, 0.0, 1.0])},
            3,
        )
        score = interpretability_unit(model, ["a", "b", "c"], 0, emb, top_n=3)
        assert score == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_four_words(self):
        vecs = {
            "a": np.array([1.0, 0.0]),
            "b": np.array([1.0, 1.0]),
            "c": np.array([0.0, 1.0]),
            "d": np.array([-1.0, 0.0]),
        }
        emb = EmbeddingTable(vecs, 2)
        model = self.make_model([[4.0, 3.0, 2.0, 1.0]])
        words = ["a", "b", "c", "d"]
        pairs = []
        for i in range(4):
            for j in range(i + 1, 4):
                u, v = vecs[words[i]], vecs[words[j]]
                pairs.append(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        expected = float(np.mean(pairs))
        score = interpretability_unit(model, words, 0, emb, top_n=4)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_oov_words_skipped(self):
        emb = EmbeddingTable({"a": np.array([1.0, 0.0]), "d": np.array([1.0, 0.0])}, 2)
        model = self.make_model([[4.0, 3.0, 2.0, 1.0]])
        score = interpretability_unit(model, ["a", "b", "c", "d"], 0, emb, top_n=4)
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_fewer_than_two_survivors_scores_zero(self):
        emb = EmbeddingTable({"a": np.array([1.0])}, 1)
        model = self.make_model([[2.0, 1.0]])
        assert interpretability_unit(model, ["a", "b"], 0, emb, top_n=2) == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        vecs = {f"w{i}": rng.normal(size=3) for i in range(4)}
        emb1 = EmbeddingTable(vecs, 3)
        emb2 = EmbeddingTable({k: 7.5 * v for k, v in vecs.items()}, 3)
        model = self.make_model([rng.random(4)])
        vocab = [f"w{i}" for i in range(4)]
        s1 = interpretability_unit(model, vocab, 0, emb1, top_n=4)
        s2 = interpretability_unit(model, vocab, 0, emb2, top_n=4)
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_model_score_is_mean(self):
        emb = EmbeddingTable(
            {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 0.0]),
             "c": np.array([0.0, 1.0]), "d": np.array([0.0, 1.0])},
            2,
        )
        weights = [[5.0, 4.0, 0.1, 0.1], [0.1, 0.1, 5.0, 4.0]]
        model = self.make_model(weights)
        vocab = ["a", "b", "c", "d"]
        u0 = interpretability_unit(model, vocab, 0, emb, top_n=2)
        u1 = interpretability_unit(model, vocab, 1, emb, top_n=2)
        q = interpretability_model(model, vocab, emb, top_n=2)
        assert q == pytest.approx((u0 + u1) / 2, abs=1e-12)

    def test_single_unit_model(self):
        emb = EmbeddingTable({"a": np.array([1.0]), "b": np.array([1.0])}, 1)
        model = self.make_model([[2.0, 1.0]])
        q = interpretability_model(model, ["a", "b"], emb, top_n=2)
        assert q == interpretability_unit(model, ["a", "b"], 0, emb, top_n=2)

    def test_sbm_ranks_over_connected_words_only(self):
        s = SbmStructure(1, 4, [(0, 1), (0, 2)], [])
        w = np.zeros((1, 4))
        w[0, 1] = 0.5
        w[0, 2] = 5.0
        model = SbmModel(s, w, np.zeros(0), np.zeros(1), np.zeros(4))
        words = unit_top_words(model, ["a", "b", "c", "d"], 0, top_n=3)
        assert words == ["c", "b"]

    @pytest.mark.parametrize("top_n", [0, -2])
    def test_top_n_below_one_refused(self, top_n):
        model = self.make_model([[1.0, -1.0, 0.5]])
        with pytest.raises(ValueError, match="top_n"):
            unit_top_words(model, ["a", "b", "c"], 0, top_n=top_n)

    def test_tie_breaks_to_lower_index(self):
        model = self.make_model([[1.0, -1.0, 0.5]])
        words = unit_top_words(model, ["a", "b", "c"], 0, top_n=1)
        assert words == ["a"]

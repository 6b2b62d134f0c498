import math

import numpy as np
import pytest
from scipy.stats import chisquare

from sparsebm.corpus import Corpus, Document
from sparsebm.evaluation import exact_expectations, exact_log_prob
from sparsebm.replicated_softmax import (
    RsModel,
    TrainConfig,
    init_rs_model,
    load_rs_model,
    rs_cd_gradients,
    rs_cd_step,
    rs_energy,
    rs_hidden_conditional,
    rs_sample_visible,
    rs_train,
    rs_visible_softmax,
    save_rs_model,
)
from sparsebm.sbm import SbmModel, SbmStructure
from sparsebm.util import rng_from

from conftest import brute_posterior, hidden_states, random_doc, random_rs_model


def zero_model(f, k):
    return RsModel(np.zeros((f, k)), np.zeros(f), np.zeros(k))


class TestEnergy:
    def test_zero_model(self):
        model = zero_model(2, 3)
        assert rs_energy(model, Document([0, 2], [1, 2]), [1, 0]) == 0.0

    def test_hand_computed(self):
        model = RsModel([[1.0, 0.0]], [0.5], [0.0, 0.0])
        doc = Document([0], [2])
        assert rs_energy(model, doc, [1]) == pytest.approx(-3.0, abs=1e-12)

    def test_all_hidden_off(self):
        rng = np.random.default_rng(0)
        model = random_rs_model(rng, 3, 4)
        doc = Document([1, 3], [2, 1])
        expected = -(doc.counts @ model.b[doc.words])
        assert rs_energy(model, doc, [0, 0, 0]) == pytest.approx(expected, abs=1e-12)

    def test_linear_in_each_hidden_unit(self):
        rng = np.random.default_rng(1)
        model = random_rs_model(rng, 4, 5)
        doc = random_doc(rng, 5)
        u = doc.to_dense(5)
        d = doc.length
        for j in range(4):
            h0 = rng.integers(0, 2, size=4).astype(float)
            h1 = h0.copy()
            h0[j] = 0.0
            h1[j] = 1.0
            gap = rs_energy(model, doc, h1) - rs_energy(model, doc, h0)
            expected = -(model.W[j] @ u + d * model.a[j])
            assert gap == pytest.approx(expected, abs=1e-10)

    def test_dimension_mismatch(self):
        model = zero_model(2, 3)
        with pytest.raises(ValueError):
            rs_energy(model, Document([0], [1]), [1, 0, 1])
        with pytest.raises(ValueError):
            rs_energy(model, Document([5], [1]), [1, 0])


class TestHiddenConditional:
    def test_zero_model_gives_half(self):
        model = zero_model(3, 4)
        p = rs_hidden_conditional(model, Document([0], [2]))
        assert np.allclose(p, 0.5)

    def test_closed_form_logistic(self):
        model = RsModel([[math.log(3.0), 0.0]], [0.0], [0.0, 0.0])
        p = rs_hidden_conditional(model, Document([0], [1]))
        assert p[0] == pytest.approx(0.75, abs=1e-12)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            model = random_rs_model(rng, 3, 4, scale=2.0)
            p = rs_hidden_conditional(model, random_doc(rng, 4))
            assert np.all(p > 0) and np.all(p < 1)

    def test_factorization_against_enumeration(self):
        # the joint conditional over h must equal the product of marginals
        rng = np.random.default_rng(3)
        for _ in range(5):
            f = int(rng.integers(1, 5))
            model = random_rs_model(rng, f, 4)
            doc = random_doc(rng, 4)
            joint, _ = brute_posterior(model, doc)
            p = rs_hidden_conditional(model, doc)
            states = hidden_states(f)
            product = np.prod(np.where(states == 1, p, 1 - p), axis=1)
            assert np.allclose(joint, product, atol=1e-10)


class TestSampleVisible:
    def test_token_conservation(self):
        rng = rng_from(0, 1)
        model = zero_model(2, 4)
        doc = rs_sample_visible(model, [1, 0], 37, rng)
        assert doc.length == 37

    def test_uniform_under_zero_model(self):
        rng = rng_from(0, 2)
        model = zero_model(1, 4)
        counts = np.zeros(4)
        for _ in range(10):
            doc = rs_sample_visible(model, [0], 1000, rng)
            counts += doc.to_dense(4)
        _, p_value = chisquare(counts)
        assert p_value > 0.01

    def test_bias_gap_dominates(self):
        model = RsModel(np.zeros((1, 3)), np.zeros(1), np.array([10.0, -10.0, -10.0]))
        p = rs_visible_softmax(model, [0])
        assert p[0] > 1 - 1e-8
        rng = rng_from(0, 3)
        doc = rs_sample_visible(model, [0], 500, rng)
        assert doc.to_dict() == {0: 500}


class TestCdStep:
    def test_zero_learning_rate_is_identity(self):
        rng_model = np.random.default_rng(4)
        model = random_rs_model(rng_model, 2, 3)
        batch = [Document([0, 2], [1, 1]), Document([1], [2])]
        out = rs_cd_step(model, batch, t=2, lr=0.0, rng=rng_from(0, 4))
        assert np.array_equal(out.W, model.W)
        assert np.array_equal(out.a, model.a)
        assert np.array_equal(out.b, model.b)

    def test_fixed_point_zero_update(self):
        # single-word vocabulary: the chain reproduces the data exactly, so
        # the visible gradient vanishes, and the sampled negative hidden
        # states of the zero model average to the exact posterior 1/2, so
        # the W and a gradients vanish in the mean over seeds
        model = zero_model(2, 1)
        batch = [Document([0], [3]), Document([0], [3])]
        seeds = 400
        samples = {"W": [], "a": []}
        for seed in range(seeds):
            grads = rs_cd_gradients(model, batch, t=3, rng=rng_from(seed, 5))
            assert np.all(grads["b"] == 0.0)
            for name in samples:
                samples[name].append(grads[name].ravel())
        for name, values in samples.items():
            values = np.array(values)
            se = values.std(axis=0, ddof=1) / math.sqrt(seeds)
            assert np.all(se > 0.0), name
            assert np.all(np.abs(values.mean(axis=0)) < 4 * se), name

    def test_gradient_matches_finite_differences(self):
        # exact expectations replace the CD chain; compare against central
        # finite differences of the exact log likelihood
        rng = np.random.default_rng(6)
        model = random_rs_model(rng, 2, 3, scale=0.6)
        docs = [Document([0, 2], [1, 1]), Document([1], [2])]
        h = 1e-5

        def loglik(m):
            return sum(exact_log_prob(m, d) for d in docs)

        grad_w = np.zeros_like(model.W)
        grad_a = np.zeros_like(model.a)
        grad_b = np.zeros_like(model.b)
        for doc in docs:
            u = doc.to_dense(3)
            p_h = rs_hidden_conditional(model, doc)
            ex = exact_expectations(model, doc.length)
            grad_w += np.outer(p_h, u) - ex["hu"]
            grad_a += doc.length * (p_h - ex["h"])
            grad_b += u - ex["u"]

        for arr, grad in ((model.W, grad_w), (model.a, grad_a), (model.b, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                perturbed = model.copy()
                ref = {id(model.W): perturbed.W, id(model.a): perturbed.a,
                       id(model.b): perturbed.b}[id(arr)]
                ref[idx] += h
                up = loglik(perturbed)
                ref[idx] -= 2 * h
                down = loglik(perturbed)
                fd = (up - down) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


class TestTrain:
    def test_zero_epochs_returns_init(self, tiny_corpus):
        config = TrainConfig(epochs=0, seed=3, weight_init_std=0.01)
        model = rs_train(tiny_corpus, 2, config)
        expected = init_rs_model(tiny_corpus, 2, config)
        assert np.array_equal(model.W, expected.W)

    def test_deterministic(self, tiny_corpus):
        config = TrainConfig(epochs=2, cd_steps=1, batch_size=3, seed=11,
                             learning_rate=0.05, weight_init_std=0.01)
        a = rs_train(tiny_corpus, 2, config)
        b = rs_train(tiny_corpus, 2, config)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.a, b.a)
        assert np.array_equal(a.b, b.b)

    def test_same_model_as_sbm_train_on_the_full_structure(self, tiny_corpus):
        from sparsebm.sbm import sbm_train

        config = TrainConfig(epochs=3, cd_steps=2, batch_size=3, seed=5,
                             learning_rate=0.05, weight_init_std=0.05,
                             visible_bias_init="log-frequency")
        rs = rs_train(tiny_corpus, 2, config)
        sbm = sbm_train(tiny_corpus, SbmStructure.full(2, 3), config)
        for name in ("W", "a", "b"):
            assert np.array_equal(getattr(rs, name), getattr(sbm, name)), name

    def test_training_improves_exact_likelihood(self):
        # two clean topics over six words; exact likelihood via enumeration
        rng = rng_from(42, 7)
        docs = []
        for _ in range(60):
            topic = rng.random() < 0.5
            words = [0, 1, 2] if topic else [3, 4, 5]
            picks = rng.choice(words, size=4)
            counts = np.bincount(picks, minlength=6)
            docs.append(Document(np.nonzero(counts)[0], counts[np.nonzero(counts)[0]]))
        corpus = Corpus([f"w{i}" for i in range(6)], docs)
        holdout = corpus.docs[:10]
        gains = []
        for seed in range(12):
            config = TrainConfig(epochs=30, cd_steps=2, learning_rate=0.05,
                                 batch_size=10, seed=seed, weight_init_std=0.05)
            init = init_rs_model(corpus, 2, config)
            trained = rs_train(corpus, 2, config)
            gains.append(sum(exact_log_prob(trained, d) for d in holdout)
                         - sum(exact_log_prob(init, d) for d in holdout))
        # one short CD run can lose a little likelihood by chance, so judge
        # the seeds together; their mean gain is about 5 nats
        gains = np.array(gains)
        assert gains.mean() > 2.0, gains
        assert np.sum(gains > 0) >= 10, gains

    def test_log_frequency_bias_init(self, tiny_corpus):
        config = TrainConfig(epochs=0, seed=0, visible_bias_init="log-frequency")
        model = init_rs_model(tiny_corpus, 2, config)
        counts = tiny_corpus.total_counts().astype(float)
        expected = np.log((counts + 1) / (counts.sum() + 3))
        assert np.allclose(model.b, expected)

    def test_mask_enforced_during_fit(self, tiny_corpus):
        from sparsebm.replicated_softmax import rs_fit

        config = TrainConfig(epochs=2, cd_steps=1, batch_size=4, seed=1,
                             learning_rate=0.1, weight_init_std=0.05)
        model = init_rs_model(tiny_corpus, 2, config)
        mask = np.array([[True, False, True], [False, True, True]])
        masked = SbmModel(SbmStructure.from_mask(mask, []), np.where(mask, model.W, 0.0),
                          (), model.a, model.b)
        out = rs_fit(masked, tiny_corpus, config)
        assert np.array_equal(out.structure.mask(), mask)
        assert np.all(out.W[~mask] == 0.0)
        assert np.all(out.W[mask] != 0.0)


def masked_model(rng, mask, tree_edges=()):
    """A model with random parameters on the structure of a boolean mask."""
    mask = np.asarray(mask, dtype=bool)
    dense = random_rs_model(rng, *mask.shape)
    return SbmModel(SbmStructure.from_mask(mask, tree_edges), np.where(mask, dense.W, 0.0),
                    rng.normal(size=len(tree_edges)), dense.a, dense.b)


class TestMaskedSerialization:
    MASK = [[True, False, True], [False, True, True]]

    def test_pruned_file_loads_on_the_mask_structure(self, tmp_path, tiny_corpus):
        from sparsebm.pruning import save_pruned_rs
        from sparsebm.replicated_softmax import rs_fit

        model = masked_model(np.random.default_rng(4), self.MASK)
        save_pruned_rs(model, np.array(self.MASK), tmp_path / "m.rs")
        loaded = load_rs_model(tmp_path / "m.rs")
        assert loaded.structure == model.structure
        assert loaded.structure.n_tree_edges == 0
        # training the loaded model keeps the pruned weights at zero
        out = rs_fit(loaded, tiny_corpus, TrainConfig(epochs=2, batch_size=4, seed=1))
        assert np.all(out.W[~np.array(self.MASK)] == 0.0)

    def test_masked_model_round_trips_bit_for_bit(self, tmp_path):
        model = masked_model(np.random.default_rng(5), self.MASK)
        save_rs_model(model, tmp_path / "m.rs")
        assert "[mask]\n0 0\n0 2\n1 1\n1 2\n" in (tmp_path / "m.rs").read_text()
        loaded = load_rs_model(tmp_path / "m.rs")
        assert not isinstance(loaded, RsModel)
        assert loaded.structure == model.structure
        for name in ("W", "Wt", "a", "b"):
            assert np.array_equal(getattr(loaded, name), getattr(model, name))

    def test_full_structure_writes_no_mask(self, tmp_path):
        model = masked_model(np.random.default_rng(6), np.ones((2, 3)))
        save_rs_model(model, tmp_path / "m.rs")
        assert "[mask]" not in (tmp_path / "m.rs").read_text()
        loaded = load_rs_model(tmp_path / "m.rs")
        assert isinstance(loaded, RsModel)
        assert np.array_equal(loaded.W, model.W)

    def test_tree_couplings_refused(self, tmp_path):
        model = masked_model(np.random.default_rng(7), self.MASK, tree_edges=[(0, 1)])
        with pytest.raises(ValueError, match="tree couplings"):
            save_rs_model(model, tmp_path / "m.rs")
        assert not (tmp_path / "m.rs").exists()

    def test_weight_outside_the_structure_refused(self, tmp_path):
        model = masked_model(np.random.default_rng(8), self.MASK)
        model.W[1, 0] = 0.25
        with pytest.raises(ValueError, match=r"W\[1, 0\] = 0\.25 lies outside"):
            save_rs_model(model, tmp_path / "m.rs")
        assert not (tmp_path / "m.rs").exists()


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        model = random_rs_model(rng, 3, 4, scale=1.3)
        # make values awkward
        model.W[0, 0] = 1e-300
        model.W[1, 2] = -0.1 + 1e-17
        path = tmp_path / "m.rs"
        save_rs_model(model, path)
        loaded = load_rs_model(path)
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded.a, model.a)
        assert np.array_equal(loaded.b, model.b)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "m.rs"
        path.write_text("sparsebm other-kind 1\n[dims]\nF 1\nK 1\n")
        from sparsebm.errors import FileFormatError

        with pytest.raises(FileFormatError):
            load_rs_model(path)

    @pytest.mark.parametrize("section, line", [
        ("dims", "F x"), ("W", "0.1 zz 0.3 0.4"), ("b", "1e400x 0 0 0"),
        ("W", "0.1 nan 0.3 0.4"), ("a", "inf 0 0"), ("b", "1e400 0 0 0"),
    ])
    def test_bad_number_names_file_and_line(self, tmp_path, section, line):
        from sparsebm.errors import FileFormatError

        path = tmp_path / "m.rs"
        save_rs_model(random_rs_model(np.random.default_rng(9), 3, 4), path)
        lines = path.read_text().splitlines()
        lines[lines.index(f"[{section}]") + 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            load_rs_model(path)
        assert "m.rs" in str(exc.value) and repr(line) in str(exc.value)

    @pytest.mark.parametrize("field, value", [("F", 0), ("K", 0), ("K", -1)])
    def test_dims_below_one_name_file_and_field(self, tmp_path, field, value):
        from sparsebm.errors import FileFormatError

        path = tmp_path / "m.rs"
        save_rs_model(random_rs_model(np.random.default_rng(9), 3, 4), path)
        lines = path.read_text().splitlines()
        at = lines.index("[dims]") + 1 + "FK".index(field)
        assert lines[at].startswith(f"{field} ")
        lines[at] = f"{field} {value}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError) as exc:
            load_rs_model(path)
        assert "m.rs" in str(exc.value) and f"{field} is {value}" in str(exc.value)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RsModel(np.zeros((2, 3)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            RsModel(np.full((1, 1), np.nan), np.zeros(1), np.zeros(1))

import numpy as np
import pytest

from sparsebm.corpus import Corpus, Document
from sparsebm.errors import FileFormatError
from sparsebm.pruning import (
    PruneConfig,
    load_pruned_rs,
    prune_and_retrain,
    prune_step,
    save_iteration_log,
    save_pruned_rs,
)
from sparsebm.replicated_softmax import RsModel, TrainConfig, load_rs_model


def model_from_weights(weights):
    weights = np.asarray(weights, dtype=float)
    f, k = weights.shape
    return RsModel(weights, np.zeros(f), np.zeros(k))


class TestPruneStep:
    def test_magnitude_ranking(self):
        model = model_from_weights([[0.5, -0.9, 0.1]])
        mask = np.ones((1, 3), dtype=bool)
        out, new_mask = prune_step(model, mask, keep_per_unit=2)
        assert new_mask.tolist() == [[True, True, False]]
        assert out.W[0, 2] == 0.0
        assert out.W[0, 1] == -0.9

    def test_noop_when_keeping_all(self):
        model = model_from_weights([[0.3, 0.2], [0.1, 0.4]])
        mask = np.ones((2, 2), dtype=bool)
        out, new_mask = prune_step(model, mask, keep_per_unit=2)
        assert np.array_equal(out.W, model.W)
        assert new_mask.all()

    def test_tie_keeps_lower_index(self):
        model = model_from_weights([[0.3, -0.3]])
        mask = np.ones((1, 2), dtype=bool)
        _, new_mask = prune_step(model, mask, keep_per_unit=1)
        assert new_mask.tolist() == [[True, False]]

    def test_respects_existing_mask(self):
        model = model_from_weights([[0.9, 0.5, 0.1]])
        mask = np.array([[False, True, True]])
        out, new_mask = prune_step(model, mask, keep_per_unit=1)
        # 0.9 is already masked out, so 0.5 survives
        assert new_mask.tolist() == [[False, True, False]]

    def test_nested_kept_sets_without_retraining(self):
        rng = np.random.default_rng(0)
        model = model_from_weights(rng.normal(size=(3, 8)))
        mask = np.ones((3, 8), dtype=bool)
        kept = []
        work = model
        for keep in (6, 4, 2):
            work, mask = prune_step(work, mask, keep_per_unit=keep)
            kept.append(mask.copy())
        assert np.all(kept[1] <= kept[0])
        assert np.all(kept[2] <= kept[1])

    def test_precondition_violation(self):
        model = model_from_weights([[0.5, 0.1]])
        mask = np.array([[True, False]])
        with pytest.raises(ValueError):
            prune_step(model, mask, keep_per_unit=2)


class TestPruneAndRetrain:
    def make_inputs(self, tiny_corpus, target, fraction=0.4):
        config = PruneConfig(
            target_per_unit=target,
            prune_fraction=fraction,
            retrain_epochs_per_iter=1,
            train=TrainConfig(epochs=1, cd_steps=1, learning_rate=0.05,
                              batch_size=4, seed=3, weight_init_std=0.05),
        )
        rng = np.random.default_rng(1)
        model = model_from_weights(rng.normal(size=(2, 3)))
        return model, config

    def test_reaches_exact_target(self, tiny_corpus):
        model, config = self.make_inputs(tiny_corpus, target=1)
        result = prune_and_retrain(model, tiny_corpus, config)
        assert np.array_equal(result.mask.sum(axis=1), [1, 1])
        assert np.all(result.model.W[~result.mask] == 0.0)

    def test_schedule_geometry(self, tiny_corpus):
        model, config = self.make_inputs(tiny_corpus, target=1, fraction=0.4)
        result = prune_and_retrain(model, tiny_corpus, config)
        # K=3: ceil(0.6*3)=2, then max(1, ceil(0.6*2))=2 -> forced 1
        assert [count for _, count, _ in result.iterations] == [2, 1]
        assert result.total_epochs == 2

    def test_target_equal_to_k_is_noop(self, tiny_corpus):
        model, config = self.make_inputs(tiny_corpus, target=3)
        result = prune_and_retrain(model, tiny_corpus, config)
        assert result.iterations == []
        assert result.total_epochs == 0
        assert np.array_equal(result.model.W, model.W)

    def test_masked_entries_stay_zero_through_retraining(self, tiny_corpus):
        model, config = self.make_inputs(tiny_corpus, target=1)
        result = prune_and_retrain(model, tiny_corpus, config)
        assert np.all(result.model.W[~result.mask] == 0.0)
        # surviving weights moved under retraining
        assert not np.array_equal(result.model.W[result.mask],
                                  model.W[result.mask])

    def test_iteration_log_tsv(self, tiny_corpus, tmp_path):
        model, config = self.make_inputs(tiny_corpus, target=1)
        result = prune_and_retrain(model, tiny_corpus, config)
        save_iteration_log(result, tmp_path / "log.tsv")
        lines = (tmp_path / "log.tsv").read_text().strip().splitlines()
        assert lines[0] == "iter\tper_unit_count\tepochs"
        assert len(lines) == 1 + len(result.iterations)

    def test_model_over_other_words_refused_naming_both_sizes(self, tiny_corpus):
        model = model_from_weights(np.ones((2, 5)))
        with pytest.raises(ValueError, match=r"model K=5 .* vocabulary size 3"):
            prune_and_retrain(model, tiny_corpus, PruneConfig(target_per_unit=2))


class TestRepruning:
    """Pruning a pruned model starts from its own mask."""

    def make_inputs(self, target):
        rng = np.random.default_rng(4)
        docs = []
        for _ in range(30):
            words = np.sort(rng.choice(12, size=3, replace=False))
            docs.append(Document(words, rng.integers(1, 3, size=3)))
        corpus = Corpus([f"w{k}" for k in range(12)], docs)
        config = PruneConfig(
            target_per_unit=target,
            retrain_epochs_per_iter=1,
            train=TrainConfig(epochs=1, cd_steps=1, learning_rate=0.05,
                              batch_size=10, seed=3),
        )
        return model_from_weights(rng.normal(size=(2, 12))), corpus, config

    def test_repruned_mask_stays_inside_the_old_one(self):
        model, corpus, config = self.make_inputs(target=3)
        first = prune_and_retrain(model, corpus, config)
        config.target_per_unit = 2
        again = prune_and_retrain(first.model, corpus, config)
        assert [count for _, count, _ in again.iterations] == [2]
        assert np.array_equal(again.mask.sum(axis=1), [2, 2])
        assert np.all(again.mask <= first.mask)
        assert np.all(again.model.W[~first.mask] == 0.0)

    def test_target_above_the_pruned_count_refused(self):
        model, corpus, config = self.make_inputs(target=3)
        first = prune_and_retrain(model, corpus, config)
        config.target_per_unit = 5
        with pytest.raises(ValueError, match=r"target_per_unit=5 exceeds .* count 3"):
            prune_and_retrain(first.model, corpus, config)


class TestPrunedSerialization:
    def test_round_trip_with_mask(self, tmp_path):
        rng = np.random.default_rng(2)
        model = model_from_weights(rng.normal(size=(2, 4)))
        mask = rng.random((2, 4)) < 0.5
        model = RsModel(np.where(mask, model.W, 0.0), model.a, model.b)
        save_pruned_rs(model, mask, tmp_path / "m.rs")
        loaded, loaded_mask = load_pruned_rs(tmp_path / "m.rs")
        assert np.array_equal(loaded.W, model.W)
        assert np.array_equal(loaded_mask, mask)

    def test_plain_model_has_no_mask(self, tmp_path):
        from sparsebm.replicated_softmax import save_rs_model

        model = model_from_weights([[1.0, 2.0]])
        save_rs_model(model, tmp_path / "m.rs")
        loaded, mask = load_pruned_rs(tmp_path / "m.rs")
        assert mask is None
        assert np.array_equal(loaded.W, model.W)


class TestPrunedInputValidation:
    def write(self, path, mask_lines, w=((0.5, 0.0), (0.0, 0.25))):
        rows = "\n".join(" ".join(repr(x) for x in row) for row in w)
        path.write_text(
            "sparsebm rs-model 1\n[dims]\nF 2\nK 2\n"
            f"[W]\n{rows}\n[a]\n0.0 0.0\n[b]\n0.0 0.0\n"
            "[mask]\n" + "\n".join(mask_lines) + "\n"
        )
        return path

    def test_valid_mask_loads_on_its_structure(self, tmp_path):
        model, mask = load_pruned_rs(self.write(tmp_path / "m.rs", ["0 0", "1 1"]))
        assert mask.tolist() == [[True, False], [False, True]]
        assert np.array_equal(model.structure.mask(), mask)
        assert model.structure.n_tree_edges == 0

    def test_negative_index_rejected(self, tmp_path):
        path = self.write(tmp_path / "m.rs", ["0 0", "-1 1"])
        with pytest.raises(FileFormatError, match=r"m\.rs.*'-1 1'.*out of range"):
            load_pruned_rs(path)

    def test_index_past_the_end_rejected(self, tmp_path):
        path = self.write(tmp_path / "m.rs", ["0 0", "5 1"])
        with pytest.raises(FileFormatError, match=r"m\.rs.*'5 1'.*out of range"):
            load_pruned_rs(path)

    def test_repeated_entry_rejected(self, tmp_path):
        path = tmp_path / "m.rs"
        path.write_text(
            "sparsebm rs-model 1\n[dims]\nF 1\nK 2\n[W]\n0.5 0.0\n"
            "[a]\n0.0\n[b]\n0.0 0.0\n[mask]\n0 0\n0 0\n"
        )
        with pytest.raises(FileFormatError, match=r"m\.rs.*duplicate mask entry '0 0'"):
            load_rs_model(path)

    @pytest.mark.parametrize("entry", ["0 x", "0 1_0", "0", "0 1 1", "0 1.0"])
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = self.write(tmp_path / "m.rs", ["0 0", entry])
        with pytest.raises(FileFormatError) as exc:
            load_pruned_rs(path)
        assert str(exc.value) == f"{path}: malformed mask entry {entry!r}"

    def test_weight_outside_mask_rejected(self, tmp_path):
        path = self.write(tmp_path / "m.rs", ["0 0", "1 0"])
        with pytest.raises(FileFormatError, match=r"m\.rs.*W\[1, 1\].*outside the mask"):
            load_pruned_rs(path)


class TestPruneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PruneConfig(target_per_unit=0)
        with pytest.raises(ValueError):
            PruneConfig(target_per_unit=1, prune_fraction=1.5)
        with pytest.raises(ValueError):
            PruneConfig(target_per_unit=1, retrain_epochs_per_iter=0)
        with pytest.raises(ValueError):
            PruneConfig(target_per_unit=2.5)
        with pytest.raises(ValueError):
            PruneConfig(target_per_unit=True)
        with pytest.raises(ValueError):
            PruneConfig(target_per_unit=1, retrain_epochs_per_iter=1.5)

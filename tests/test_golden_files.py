"""Model and structure files written by an earlier version of the package,
read back by this one: each loads to the model it was written from, and
saving that model again gives the same bytes."""
from pathlib import Path

import numpy as np
import pytest

from sparsebm.pruning import load_pruned_rs, save_pruned_rs
from sparsebm.replicated_softmax import RsModel, load_rs_model, save_rs_model
from sparsebm.sbm import (
    SbmModel,
    SbmStructure,
    load_sbm_model,
    load_structure,
    save_sbm_model,
    save_structure,
)

DATA = Path(__file__).parent / "data"
MASK = np.array([[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]], dtype=bool)
TREE = [(0, 1), (1, 2)]


def expected_models():
    """The fixed-seed models the files in tests/data were written from."""
    rng = np.random.default_rng(13)
    w = rng.normal(size=(3, 5))
    a = rng.normal(size=3)
    b = rng.normal(size=5)
    wt = rng.normal(size=2)
    masked_w = np.where(MASK, w, 0.0)
    return {
        "dense.rs": RsModel(w, a, b),
        "masked.rs": SbmModel(SbmStructure.from_mask(MASK, []), masked_w, (), a, b),
        "model.sbm": SbmModel(SbmStructure.from_mask(MASK, TREE), masked_w, wt, a, b),
    }


def assert_same_model(loaded, expected):
    assert type(loaded) is type(expected)
    assert loaded.structure == expected.structure
    for name in ("W", "Wt", "a", "b"):
        assert np.array_equal(getattr(loaded, name), getattr(expected, name))


@pytest.mark.parametrize("name, load, save", [
    ("dense.rs", load_rs_model, save_rs_model),
    ("masked.rs", load_rs_model, save_rs_model),
    ("model.sbm", load_sbm_model, save_sbm_model),
])
def test_model_file_loads_and_saves_the_same_bytes(tmp_path, name, load, save):
    loaded = load(DATA / name)
    assert_same_model(loaded, expected_models()[name])
    save(loaded, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()


def test_structure_file_loads_and_saves_the_same_bytes(tmp_path):
    loaded = load_structure(DATA / "model.struct")
    assert loaded == SbmStructure.from_mask(MASK, TREE)
    save_structure(loaded, tmp_path / "model.struct")
    assert (tmp_path / "model.struct").read_bytes() == (DATA / "model.struct").read_bytes()


def test_pruned_wrappers_read_and_write_the_masked_file(tmp_path):
    model, mask = load_pruned_rs(DATA / "masked.rs")
    assert np.array_equal(mask, MASK)
    assert_same_model(model, expected_models()["masked.rs"])
    save_pruned_rs(model, mask, tmp_path / "masked.rs")
    assert (tmp_path / "masked.rs").read_bytes() == (DATA / "masked.rs").read_bytes()
    assert load_pruned_rs(DATA / "dense.rs")[1] is None

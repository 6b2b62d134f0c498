"""Replicated Softmax: an RBM over word counts with softmax visible tokens.

A document of length D is modelled by D softmax visible units sharing one
weight matrix; hidden biases scale with D. This is the sparse Boltzmann
machine with every hidden unit connected to every word and no hidden tree,
so the functions here are thin adapters over `sbm`, with their own random
streams, plus the "rs-model" file format.
"""
from __future__ import annotations

import numpy as np

from .corpus import Corpus, Document
from .sbm import (  # noqa: F401  (TrainConfig is re-exported)
    SbmModel,
    SbmStructure,
    TrainConfig,
    _check_hidden,
    _fmt,
    _init_model,
    _parse_dims,
    _parse_vector,
    _softmax_rows,
    read_sections,
    sbm_cd_gradients,
    sbm_cd_step,
    sbm_energy,
    sbm_fit,
    sbm_tree_marginals,
    write_sections,
)
from .util import rng_from

_INIT_STREAM = 21
_CD_STREAM = 22


class RsModel(SbmModel):
    """Dense Replicated Softmax parameters: an SbmModel over the full
    structure with no tree.

    W has shape (F, K): hidden-to-visible weights. a (F,) holds hidden
    biases, b (K,) visible biases. All parameters must be finite.
    """

    __slots__ = ()

    def __init__(self, W, a, b):
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        super().__init__(SbmStructure.full(a.size, b.size), W, (), a, b)


def _with_mask(model, mask):
    """The model over the tree-less structure of a boolean (F, K) mask."""
    if mask is None:
        return model
    return SbmModel(SbmStructure.from_mask(mask, []), model.W, (), model.a, model.b)


# a tree-less model has no tree term, so the SBM energy is the RS energy
# -sum_jk W_jk h_j u_k - sum_k u_k b_k - D sum_j h_j a_j
rs_energy = sbm_energy


def rs_hidden_conditional(model, doc: Document) -> np.ndarray:
    """P(h_j = 1 | document) for every hidden unit: sigma(W u + D a)."""
    return sbm_tree_marginals(model, doc).singleton


def rs_visible_softmax(model, h) -> np.ndarray:
    """Token distribution given hidden states: softmax(b + W^T h)."""
    h = _check_hidden(model, h)
    return _softmax_rows((model.b + h @ model.W)[None, :])[0]


def rs_sample_visible(model, h, d: int, rng: np.random.Generator) -> Document:
    """Draw a document of length d token-by-token from the softmax model."""
    if d < 1:
        raise ValueError("document length must be at least 1")
    p = rs_visible_softmax(model, h)
    counts = rng.multinomial(d, p)
    words = np.nonzero(counts)[0]
    return Document(words, counts[words])


def rs_cd_gradients(model, batch, t, rng, mean_field_negative=False):
    """Batch-averaged CD-T gradient estimates for W, a, b.

    Positive phase uses the exact factorized hidden conditional per
    document; the negative phase runs T full Gibbs steps (hidden sample,
    visible resample) initialised at the data.
    """
    grads = sbm_cd_gradients(model, batch, t, rng, mean_field_negative)
    return {name: grads[name] for name in ("W", "a", "b")}


# one CD-T update, returning a new model with off-structure weights zero
rs_cd_step = sbm_cd_step


def init_rs_model(corpus: Corpus, n_hidden: int, config: TrainConfig):
    """Fresh model: W ~ Normal(0, std^2), biases zero or log-frequency."""
    structure = SbmStructure.full(n_hidden, corpus.n_words)
    return _init_model(corpus, structure, config, rng_from(config.seed, _INIT_STREAM))


def rs_fit(
    model,
    corpus: Corpus,
    config: TrainConfig,
    epochs: int | None = None,
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
    epoch_offset: int = 0,
):
    """Run CD training epochs on a copy of the model and return it.

    A boolean mask restricts training to its connections, with every other
    weight held at exactly zero. epoch_offset shifts the minibatch shuffle
    stream so that resumed training (e.g. prune/retrain cycles) does not
    replay earlier epochs' batch orders.
    """
    if rng is None:
        rng = rng_from(config.seed, _CD_STREAM)
    return sbm_fit(_with_mask(model, mask), corpus, config, epochs, rng, epoch_offset)


def rs_train(corpus: Corpus, n_hidden: int, config: TrainConfig):
    """Initialise and CD-train a Replicated Softmax model."""
    if corpus.n_docs == 0:
        raise ValueError("corpus is empty")
    return rs_fit(init_rs_model(corpus, n_hidden, config), corpus, config)


# ---------------------------------------------------------------------------
# the rs-model file: dense W, a and b, plus optional extra sections


def save_rs_model(model, path, extra_sections=()) -> None:
    sections = [
        ("dims", [f"F {model.n_hidden}", f"K {model.n_visible}"]),
        ("W", [" ".join(_fmt(x) for x in row) for row in model.W]),
        ("a", [" ".join(_fmt(x) for x in model.a)]),
        ("b", [" ".join(_fmt(x) for x in model.b)]),
    ]
    sections.extend(extra_sections)
    write_sections(path, "rs-model", sections)


def load_rs_model(path, return_sections: bool = False):
    sections = read_sections(path, "rs-model")
    f, k = _parse_dims(sections, path, "F", "K")
    w = _parse_vector(sections, "W", f * k, path).reshape(f, k)
    a = _parse_vector(sections, "a", f, path)
    b = _parse_vector(sections, "b", k, path)
    model = RsModel(w, a, b)
    if return_sections:
        return model, sections
    return model

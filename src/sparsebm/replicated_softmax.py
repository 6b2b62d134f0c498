"""Replicated Softmax: an RBM over word counts with softmax visible tokens.

A document of length D is modelled by D softmax visible units sharing one
weight matrix; hidden biases scale with D. This is the sparse Boltzmann
machine with every hidden unit connected to every word and no hidden tree,
so the functions here are thin adapters over `sbm`, which trains it with the
SBM's own random streams, plus the "rs-model" file format, which also holds
the tree-less models of the pruning baseline.
"""
from __future__ import annotations

import numpy as np

from .corpus import Corpus, Document
from .errors import FileFormatError, StructureError
from .sbm import (  # noqa: F401  (TrainConfig is re-exported)
    SbmModel,
    SbmStructure,
    TrainConfig,
    _check_hidden,
    _first_faulty_pair,
    _parse_dims,
    _parse_edges,
    _parse_vector,
    init_sbm_model,
    read_sections,
    sbm_cd_gradients,
    sbm_cd_step,
    sbm_energy,
    sbm_fit,
    sbm_train,
    sbm_tree_marginals,
    write_sections,
)


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


# a tree-less model has no tree term, so the SBM energy is the RS energy
# -sum_jk W_jk h_j u_k - sum_k u_k b_k - D sum_j h_j a_j
rs_energy = sbm_energy


def rs_hidden_conditional(model, doc: Document) -> np.ndarray:
    """P(h_j = 1 | document) for every hidden unit: sigma(W u + D a)."""
    return sbm_tree_marginals(model, doc).singleton


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(shifted)
    return p / p.sum(axis=1, keepdims=True)


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


def rs_cd_gradients(model, batch, t, rng):
    """Batch-averaged CD-T gradient estimates for W, a, b.

    Positive phase uses the exact factorized hidden conditional per
    document; the negative phase runs T full Gibbs steps (hidden sample,
    visible resample) initialised at the data.
    """
    grads = sbm_cd_gradients(model, batch, t, rng)
    return {name: grads[name] for name in ("W", "a", "b")}


# one CD-T update, returning a new model with off-structure weights zero
rs_cd_step = sbm_cd_step


def init_rs_model(corpus: Corpus, n_hidden: int, config: TrainConfig):
    """Fresh model on the full structure, as init_sbm_model makes it."""
    return init_sbm_model(corpus, SbmStructure.full(n_hidden, corpus.n_words), config)


# CD epochs on a copy of the model; a model on a tree-less structure that
# lacks some connections (a pruned model) trains only those it has
rs_fit = sbm_fit


def rs_train(corpus: Corpus, n_hidden: int, config: TrainConfig):
    """sbm_train on the full structure over the corpus's words."""
    return sbm_train(corpus, SbmStructure.full(n_hidden, corpus.n_words), config)


# ---------------------------------------------------------------------------
# the rs-model file: dense W, a and b of a tree-less model, plus a [mask] of
# its structure's (j, k) pairs in row-major order when some unit lacks a word


def save_rs_model(model, path) -> None:
    """Write a tree-less model, with [mask] only when its structure is not
    full. Tree couplings and non-zero weights outside the structure, which
    the file could not give back, are refused."""
    mask = model.structure.mask()
    if model.structure.n_tree_edges:
        raise ValueError("an rs-model file cannot hold a model with tree couplings")
    off = np.argwhere((model.W != 0.0) & ~mask)
    if off.size:
        j, k = off[0]
        raise ValueError(f"weight W[{j}, {k}] = {float(model.W[j, k])!r} lies outside"
                         " the model's structure")
    sections = [
        ("dims", [f"F {model.n_hidden}", f"K {model.n_visible}"]),
        ("W", [" ".join(map(repr, row.tolist())) for row in model.W]),
        ("a", [" ".join(map(repr, model.a.tolist()))]),
        ("b", [" ".join(map(repr, model.b.tolist()))]),
    ]
    if not mask.all():
        sections.append(("mask", [f"{j} {k}" for j, k in np.argwhere(mask).tolist()]))
    write_sections(path, "rs-model", sections)


def load_rs_model(path):
    """An RsModel, or with [mask] the tree-less SbmModel on the mask's
    structure. Malformed, out-of-range or repeated mask entries, non-zero
    weights outside the mask and a unit with no entry are refused."""
    sections = read_sections(path, "rs-model")
    f, k = _parse_dims(sections, path, "F", "K")
    w = _parse_vector(sections, "W", f * k, path).reshape(f, k)
    a = _parse_vector(sections, "a", f, path)
    b = _parse_vector(sections, "b", k, path)
    if "mask" not in sections:
        return RsModel(w, a, b)
    (pairs,) = _parse_edges(sections, "mask", path, weighted=False)
    faulty = _first_faulty_pair(pairs, f, k)
    if faulty is not None:
        j, v = pairs[faulty].tolist()
        if 0 <= j < f and 0 <= v < k:
            raise FileFormatError(f"{path}: duplicate mask entry '{j} {v}'")
        raise FileFormatError(
            f"{path}: mask entry '{j} {v}' out of range for F={f}, K={k}"
        )
    try:
        structure = SbmStructure(f, k, pairs, [])
    except StructureError as exc:
        raise FileFormatError(f"{path}: [mask] {exc}") from None
    off = np.argwhere((w != 0.0) & ~structure.mask())
    if off.size:
        j, v = off[0]
        raise FileFormatError(
            f"{path}: weight W[{j}, {v}] = {float(w[j, v])!r} lies outside the mask"
        )
    return SbmModel(structure, w, (), a, b)

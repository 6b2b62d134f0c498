"""Shared fixtures and brute-force oracles for the test suite.

The oracles here enumerate states directly and never go through the fast
inference paths they are used to check.
"""
import itertools

import numpy as np
import pytest
from scipy.special import gammaln, logsumexp

from sparsebm.corpus import Corpus, Document
from sparsebm.replicated_softmax import RsModel
from sparsebm.sbm import SbmModel, SbmStructure


def hidden_states(n_hidden):
    """All binary hidden configurations as a (2^F, F) float array."""
    states = np.arange(2**n_hidden)[:, None]
    return ((states >> np.arange(n_hidden)[None, :]) & 1).astype(np.float64)


def model_energy_terms(model):
    """(W, a, b, tree_edges, Wt) for either model family."""
    if isinstance(model, SbmModel):
        return model.W, model.a, model.b, model.structure.tree_edges, model.Wt
    return model.W, model.a, model.b, [], np.zeros(0)


def hidden_log_weights(model, doc):
    """Unnormalized log p(h, doc) over all hidden states, by enumeration."""
    w, a, b, edges, wt = model_energy_terms(model)
    d = doc.length
    u = doc.to_dense(model.n_visible)
    states = hidden_states(model.n_hidden)
    theta = w @ u + d * a
    tree = np.zeros(states.shape[0])
    for e, (j, l) in enumerate(edges):
        tree += d * wt[e] * states[:, j] * states[:, l]
    return u @ b + states @ theta + tree


def brute_posterior(model, doc):
    """Exact P(h | doc) over all 2^F states plus the log hidden partition."""
    logw = hidden_log_weights(model, doc)
    base = (doc.to_dense(model.n_visible) @ model.b)
    hidden_only = logw - base
    m = hidden_only.max()
    weights = np.exp(hidden_only - m)
    z = weights.sum()
    return weights / z, float(m + np.log(z))


def token_level_log_z(model, doc_length):
    """Partition function by enumerating every token sequence and hidden
    state; independent of both the count-vector reference below and the
    package's closed form."""
    k = model.n_visible
    vals = []
    for seq in itertools.product(range(k), repeat=doc_length):
        counts = np.bincount(seq, minlength=k)
        doc = Document(np.nonzero(counts)[0], counts[np.nonzero(counts)[0]])
        vals.append(hidden_log_weights(model, doc))
    vals = np.concatenate(vals)
    m = vals.max()
    return float(m + np.log(np.exp(vals - m).sum()))


def compositions(total, parts):
    """All count vectors of the given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for first in range(total + 1):
        rest = compositions(total - first, parts - 1)
        block = np.empty((rest.shape[0], parts), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.concatenate(rows, axis=0)


def count_vector_expectations(model, doc_length):
    """E[h], E[u], E[h u^T], E[h_j h_l] per tree edge and log Z, by
    enumerating every (count vector, hidden state) pair, each count vector
    weighted by its multinomial coefficient so the sum runs over the
    token-sequence space."""
    w, a, b, edges, wt = model_energy_terms(model)
    comps = compositions(doc_length, model.n_visible).astype(np.float64)
    mlog = gammaln(doc_length + 1) - gammaln(comps + 1).sum(axis=1)
    states = hidden_states(model.n_hidden)
    theta = comps @ w.T + doc_length * a
    tree = np.zeros(states.shape[0])
    for e, (j, l) in enumerate(edges):
        tree += doc_length * wt[e] * states[:, j] * states[:, l]
    logits = (mlog + comps @ b)[:, None] + theta @ states.T + tree[None, :]
    log_z = logsumexp(logits)
    p = np.exp(logits - log_z)
    p_h = p.sum(axis=0)
    return {
        "h": p_h @ states,
        "u": p.sum(axis=1) @ comps,
        "hu": states.T @ (p.T @ comps),
        "hh": np.array([p_h @ (states[:, j] * states[:, l]) for j, l in edges]),
        "log_z": float(log_z),
    }


def random_rs_model(rng, n_hidden, n_visible, scale=0.7):
    return RsModel(
        rng.normal(0, scale, (n_hidden, n_visible)),
        rng.normal(0, scale / 2, n_hidden),
        rng.normal(0, scale / 2, n_visible),
    )


def random_structure(rng, n_hidden, n_visible, edge_p=0.6, tree_p=0.85):
    """Random sparse structure with a random forest over the hidden units."""
    tree = []
    for j in range(1, n_hidden):
        if rng.random() < tree_p:
            tree.append((int(rng.integers(0, j)), j))
    edges = [
        (j, k)
        for j in range(n_hidden)
        for k in range(n_visible)
        if rng.random() < edge_p
    ]
    covered = {j for j, _ in edges}
    for j in range(n_hidden):
        if j not in covered:
            edges.append((j, int(rng.integers(0, n_visible))))
    return SbmStructure(n_hidden, n_visible, edges, tree)


def random_sbm_model(rng, n_hidden, n_visible, scale=0.7, **kwargs):
    structure = random_structure(rng, n_hidden, n_visible, **kwargs)
    w = np.where(structure.mask(), rng.normal(0, scale, (n_hidden, n_visible)), 0.0)
    wt = rng.normal(0, scale, structure.n_tree_edges)
    a = rng.normal(0, scale / 2, n_hidden)
    b = rng.normal(0, scale / 2, n_visible)
    return SbmModel(structure, w, wt, a, b)


def random_doc(rng, n_visible, max_len=5):
    n_kinds = int(rng.integers(1, min(n_visible, 3) + 1))
    words = rng.choice(n_visible, size=n_kinds, replace=False)
    counts = rng.integers(1, max(2, max_len // n_kinds) + 1, size=n_kinds)
    return Document(words, counts)


@pytest.fixture
def tiny_corpus():
    docs = [
        Document([0, 2], [2, 1]),
        Document([1], [3]),
        Document([0, 1, 2], [1, 1, 1]),
        Document([2], [2]),
        Document([0], [1]),
        Document([1, 2], [2, 2]),
        Document([0, 1], [1, 2]),
    ]
    return Corpus(["alpha", "beta", "gamma"], docs, name="tiny")

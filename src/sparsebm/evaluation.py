"""Held-out evaluation: AIS partition estimation, exact small-scale oracles,
per-word perplexity, and the embedding-based interpretability score."""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, logsumexp

from .corpus import Document, dense_rows, docs_csr
from .errors import FileFormatError, StructureError
from .sbm import _batch_theta, _chain, _gibbs_step, _multinomial_rows, tree_sum_product
from .util import log_mean_exp


# ---------------------------------------------------------------------------
# annealing schedule


@dataclass
class AisSchedule:
    """Piecewise-uniform ladder of inverse temperatures from 0 to 1.

    Each (start, end, count) segment contributes count values spaced
    uniformly over (start, end], so betas() returns the leading 0 followed
    by sum-of-counts intermediate temperatures ending exactly at 1.
    """

    segments: tuple

    def __init__(self, segments):
        segments = tuple((float(s), float(e), int(c)) for s, e, c in segments)
        if not segments:
            raise ValueError("schedule needs at least one segment")
        prev = 0.0
        for s, e, c in segments:
            if not (math.isfinite(s) and math.isfinite(e)):
                raise ValueError(f"segment ({s}, {e}, {c}) has a non-finite temperature")
            if c < 1:
                raise ValueError("segment counts must be positive")
            if s < prev or e < s:
                raise ValueError("segments must be non-decreasing and contiguous")
            prev = e
        if segments[0][0] != 0.0 or segments[-1][1] != 1.0:
            raise ValueError("schedule must start at 0 and end at 1")
        object.__setattr__(self, "segments", segments)

    @property
    def n_intermediate(self) -> int:
        return sum(c for _, _, c in self.segments)

    def betas(self) -> np.ndarray:
        """All temperatures including the leading 0."""
        parts = [np.zeros(1)]
        for s, e, c in self.segments:
            parts.append(s + (e - s) * (np.arange(1, c + 1) / c))
        return np.concatenate(parts)


def default_schedule() -> AisSchedule:
    """10,000 intermediate distributions: 500 over (0, 0.5], 3,000 over
    (0.5, 0.9], 6,500 over (0.9, 1.0]."""
    return AisSchedule([(0.0, 0.5, 500), (0.5, 0.9, 3000), (0.9, 1.0, 6500)])


@dataclass
class AisEstimate:
    """Log partition estimate with per-run statistics.

    For one length, doc_length is an int and log_z_mean and log_z_base are
    floats; for several, each is an (L,) array in the lengths' order.
    per_run_log_weights is always 1-D: one weight per chain row, the runs of
    each length contiguous and in the lengths' order.
    """

    log_z_mean: float | np.ndarray
    log_z_base: float | np.ndarray
    per_run_log_weights: np.ndarray
    doc_length: int | np.ndarray

    @property
    def n_runs(self) -> int:
        """Runs per length."""
        return self.per_run_log_weights.size // np.size(self.doc_length)

    @property
    def standard_errors(self) -> np.ndarray:
        """(L,) delta-method standard errors of log Z, one per length."""
        rows = self.per_run_log_weights.reshape(np.size(self.doc_length), -1)
        return np.array([_delta_method_se(lw) for lw in rows])

    @property
    def standard_error(self) -> float:
        """Delta-method standard error of log Z from the run weights; for
        several lengths, the largest of their standard errors."""
        return float(self.standard_errors.max())


def _delta_method_se(lw) -> float:
    if lw.size < 2:
        return float("inf")
    m = lw.max()
    w = np.exp(lw - m)
    mean = w.mean()
    std = w.std(ddof=1)
    return float(std / (math.sqrt(lw.size) * mean))


# ---------------------------------------------------------------------------
# unnormalized visible marginals (hidden units summed out exactly)


def _log_p_star_batch(model, counts_matrix, lengths):
    """log sum_h exp(-E) for each row."""
    theta, edge_logw = _batch_theta(model, counts_matrix, lengths)
    _, _, logz_h = tree_sum_product(
        model.structure, theta, edge_logw, want_marginals=False
    )
    return counts_matrix @ model.b + logz_h


def log_p_star(model, doc: Document) -> float:
    """Unnormalized log probability of one document (token-sequence scale)."""
    u = dense_rows(docs_csr([doc], model.n_visible), slice(None))
    return float(_log_p_star_batch(model, u, u.sum(axis=1))[0])


# ---------------------------------------------------------------------------
# AIS


def ais_log_z(
    model,
    doc_length,
    schedule: AisSchedule,
    runs: int,
    rng: np.random.Generator,
) -> AisEstimate:
    """Annealed importance sampling estimate of log Z for one length class,
    or for each of a 1-D array of distinct lengths in one chain matrix.

    The base distribution keeps the visible biases and scales all other
    parameters to zero, so its partition function is available in closed
    form: F log 2 + D log sum_k exp(b_k). Each run anneals a sampled
    document through the schedule with one full Gibbs step (sbm._gibbs_step,
    CD's transition) per temperature; log Z is the base value plus the
    log-mean-exp of the run weights.

    With an array of lengths, the chain matrix has one row per (length,
    run), length-major, and every row takes the same step at each
    temperature; each length keeps its own base value, estimate and
    standard error (AisEstimate.standard_errors). The draws interleave
    across lengths, so an array call does not reproduce separate int calls
    from the same rng; a one-element array does reproduce the int call.

    Each visible sample's node potentials theta and its u @ b are computed
    once, when it is drawn. One log-Z-only sum-product pass over the
    stacked rows [beta_k theta; beta_k+1 theta] scores it at the two
    temperatures its weight term compares, and the sweep at beta_k reads
    the same theta.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    several = np.ndim(doc_length) > 0
    doc_lengths = np.atleast_1d(np.asarray(doc_length))
    if doc_lengths.ndim != 1 or doc_lengths.size == 0:
        raise ValueError("doc_length must be an int or a non-empty 1-d array")
    if np.any(doc_lengths < 1):
        raise ValueError("doc_length must be at least 1")
    if np.any(doc_lengths != np.floor(doc_lengths)):
        raise ValueError("doc_length must hold whole numbers")
    if np.unique(doc_lengths).size != doc_lengths.size:
        raise ValueError("doc_length must hold distinct lengths")
    f = model.n_hidden
    betas = schedule.betas()
    log_z_base = f * math.log(2.0) + doc_lengths * float(logsumexp(model.b))

    p0 = np.exp(model.b - model.b.max())
    lengths = np.repeat(doc_lengths.astype(np.float64), runs)
    rows = lengths.size
    chain = _chain(model, lengths)
    u = _multinomial_rows(rng, lengths, np.broadcast_to(p0, (rows, p0.size)), chain.draw)
    h = np.zeros((rows, f))

    theta, edge_logw = _batch_theta(model, u, lengths)
    n_edges = edge_logw.shape[1]
    ub = u @ model.b
    log_w = np.zeros(rows)
    for k in range(1, betas.size):
        # log p* of the current sample at beta_k-1 (rows :rows) and beta_k
        pair = betas[k - 1 : k + 1, None, None]
        _, _, logz_h = tree_sum_product(
            model.structure,
            (pair * theta).reshape(2 * rows, f),
            (pair * edge_logw).reshape(2 * rows, n_edges),
            want_marginals=False,
        )
        lp_prev = ub + logz_h[:rows]
        lp_here = ub + logz_h[rows:]
        log_w += lp_here - lp_prev
        if k < betas.size - 1:
            h, u, theta = _gibbs_step(model, chain, theta, h, rng, betas[k])
            ub = u @ model.b
    log_z_mean = log_z_base + [log_mean_exp(w) for w in log_w.reshape(-1, runs)]
    if several:
        return AisEstimate(log_z_mean, log_z_base, log_w, doc_lengths)
    return AisEstimate(float(log_z_mean[0]), float(log_z_base[0]), log_w, doc_length)


# ---------------------------------------------------------------------------
# exact oracle: the visible layer summed out in closed form

# refuse enumerations above this many hidden-state x word entries (2^F K),
# which still admits F=15 at K=1000 and F=19 at K=60
_MAX_STATE_WORDS = 2**25
# hidden-state (or held-out document) x word entries held in memory at once
_CHUNK_WORDS = 2**20


def _hidden_marginal_chunks(model):
    """The hidden marginal with the visible layer summed out, over all 2^F
    hidden states in blocks of at most _CHUNK_WORDS state-word entries.

    By the multinomial theorem a length-D document's token sequences sum
    out to exp(D g(h)), g(h) = a.h + sum_e Wt_e h_j h_l + logsumexp_k(b_k +
    (W^T h)_k), so Z_D = sum_h exp(D g(h)). Yields (states, g, p_vis) per
    block in state order (h_j of state s is bit j of s); p_vis rows are
    softmax(b + W^T h), so E[u | h] = D p_vis.
    """
    f, k = model.n_hidden, model.n_visible
    if 2**f * k > _MAX_STATE_WORDS:
        raise ValueError(
            f"exact enumeration of 2^{f} hidden states x {k} words is above"
            f" the 2^25 limit"
        )
    ej, el = model.structure._edge_ends
    step = max(1, _CHUNK_WORDS // k)
    for start in range(0, 2**f, step):
        index = np.arange(start, min(start + step, 2**f))
        states = ((index[:, None] >> np.arange(f)) & 1).astype(np.float64)
        # in place, so a block holds one (states, K) array
        p_vis = states @ model.W
        p_vis += model.b
        peak = p_vis.max(axis=1)
        p_vis -= peak[:, None]
        np.exp(p_vis, out=p_vis)
        norm = p_vis.sum(axis=1)
        p_vis /= norm[:, None]
        pairs = states[:, ej] * states[:, el]
        g = states @ model.a + pairs @ model.Wt + (peak + np.log(norm))
        yield states, g, p_vis


def exact_log_z(model, doc_length):
    """Exact log partition on the token-sequence scale, logsumexp_h D g(h):
    one pass over the hidden states, then one logsumexp per length. Takes an
    int (returns a float) or an array of lengths (returns an array). Refuses
    2^F K above 2^25, e.g. F above 15 at K=1000."""
    g = np.concatenate([g for _, g, _ in _hidden_marginal_chunks(model)])
    if np.ndim(doc_length) == 0:
        return float(logsumexp(doc_length * g))
    return np.array([logsumexp(d * g) for d in doc_length])


def exact_expectations(model, doc_length: int):
    """Exact model expectations used for gradient oracles.

    Returns a dict with E[h] (F,), E[u] (K,), E[h u^T] (F, K), E[h_j h_l]
    per tree edge (E,) and log Z, all under the model at the given document
    length, from p(h) = exp(D g(h) - log Z) and E[u | h] = D p_vis(h).
    """
    log_z = exact_log_z(model, doc_length)
    ej, el = model.structure._edge_ends
    e_h = np.zeros(model.n_hidden)
    e_hh = np.zeros(ej.size)
    e_hu = np.zeros((model.n_hidden, model.n_visible))
    e_u = np.zeros(model.n_visible)
    for states, g, p_vis in _hidden_marginal_chunks(model):
        p = np.exp(doc_length * g - log_z)
        e_h += p @ states
        e_hh += p @ (states[:, ej] * states[:, el])
        e_hu += (states.T * p) @ p_vis
        e_u += p @ p_vis
    return {"h": e_h, "u": doc_length * e_u, "hu": doc_length * e_hu, "hh": e_hh,
            "log_z": log_z}


def exact_log_prob(model, doc: Document, include_multinomial: bool = False) -> float:
    """Exact held-out log probability, for models within exact_log_z's limit."""
    lp, _ = held_out_log_probs(model, [doc], include_multinomial=include_multinomial,
                               log_z_fn=exact_log_z)
    return float(lp[0])


# ---------------------------------------------------------------------------
# perplexity


def _count_rows(docs, n_words: int):
    """(count CSR, row lengths) of held-out documents, a CSR or Documents (via
    docs_csr); refuses no documents at all and names a row without tokens."""
    csr = docs if sp.issparse(docs) else docs_csr(docs, n_words)
    if csr.shape[0] == 0:
        raise ValueError("docs must be non-empty")
    lengths = np.asarray(csr.sum(axis=1)).ravel()
    if lengths.min() < 1:
        raise StructureError(f"document {np.argmax(lengths < 1)} has no tokens")
    return csr, lengths


def per_document_log_probs(
    model, docs, log_z_by_length, include_multinomial: bool = False
) -> np.ndarray:
    """log P(doc) for each document given {length: log Z}. docs is an int64
    count CSR, one row per document (Corpus.count_csr()), or a list of
    Documents; dense rows are formed max(1, _CHUNK_WORDS // K) at a time."""
    csr, lengths = _count_rows(docs, model.n_visible)
    lp = np.empty(lengths.size)
    step = max(1, _CHUNK_WORDS // model.n_visible)
    for start in range(0, lp.size, step):
        rows = slice(start, start + step)
        lp[rows] = _log_p_star_batch(model, dense_rows(csr, rows), lengths[rows])
    distinct = np.unique(lengths)
    log_z = np.array([log_z_by_length[d] for d in distinct.tolist()])
    lp -= log_z[np.searchsorted(distinct, lengths)]
    if include_multinomial:
        # log D! - sum_w log c_w!, the number of token orderings
        lp += gammaln(lengths + 1.0) - np.add.reduceat(gammaln(csr.data + 1.0), csr.indptr[:-1])
    return lp


# entries of one AIS chain matrix held at once: its rows times K, and its
# tokens (runs times the summed lengths), each at most this many
_AIS_CHAIN_WORDS = 2**20


def _length_groups(lengths, runs: int, n_visible: int) -> list:
    """Consecutive groups of the ascending lengths whose AIS chain matrix
    keeps its rows x K and its tokens within _AIS_CHAIN_WORDS; a length
    above the budget on its own gets a group of its own."""
    groups, group, tokens = [], [], 0
    for d in lengths:
        rows = (len(group) + 1) * runs
        if group and (rows * n_visible > _AIS_CHAIN_WORDS
                      or (tokens + d) * runs > _AIS_CHAIN_WORDS):
            groups.append(group)
            group, tokens = [], 0
        group.append(d)
        tokens += d
    groups.append(group)
    return groups


def held_out_log_probs(
    model,
    docs,
    schedule: AisSchedule | None = None,
    runs: int = 100,
    rng: np.random.Generator | None = None,
    include_multinomial: bool = False,
    log_z_fn=None,
):
    """Per-document log probabilities and the per-length log Z behind them.

    One partition value is computed per distinct document length. By AIS,
    the ascending lengths are split into consecutive groups
    (_length_groups) and each group is one ais_log_z call, one chain matrix
    over all its lengths, every call drawing from rng in turn; at the
    benchmark's and the acceptance suite's sizes a model's lengths make a
    single group. Otherwise log Z comes from one call log_z_fn(model,
    lengths) with the array of sorted distinct lengths, returning one log Z
    per length, such as exact_log_z. Returns (log_probs, {length: log Z}).
    docs is an int64 count CSR (Corpus.count_csr()) or a list of Documents.
    """
    csr, row_lengths = _count_rows(docs, model.n_visible)
    lengths = np.unique(row_lengths).tolist()
    if log_z_fn is None:
        if schedule is None:
            schedule = default_schedule()
        if rng is None:
            raise ValueError("rng is required when estimating log Z with AIS")
        log_z_by_length = {}
        for group in _length_groups(lengths, runs, model.n_visible):
            est = ais_log_z(model, np.array(group), schedule, runs, rng)
            log_z_by_length.update(zip(group, est.log_z_mean.tolist()))
    else:
        log_z = log_z_fn(model, np.array(lengths))
        log_z_by_length = {d: float(z) for d, z in zip(lengths, log_z)}
    lp = per_document_log_probs(model, csr, log_z_by_length, include_multinomial)
    return lp, log_z_by_length


def per_word_perplexity(log_probs, lengths) -> float:
    """exp of minus the mean over documents of log P(doc) / length."""
    return float(np.exp(-np.mean(np.asarray(log_probs) / np.asarray(lengths))))


def perplexity(
    model,
    docs,
    schedule: AisSchedule | None = None,
    runs: int = 100,
    rng: np.random.Generator | None = None,
    include_multinomial: bool = False,
    log_z_fn=None,
) -> float:
    """Average per-word perplexity over held-out documents.

    One partition estimate is shared per distinct document length. log_z_fn
    overrides AIS with one call log_z_fn(model, lengths) on the array of
    sorted distinct lengths, e.g. exact_log_z. The multinomial
    token-permutation factor is off by default; with it off, the
    zero-weight model scores exactly the vocabulary size. docs is an int64
    count CSR (Corpus.count_csr()) or a list of Documents.
    """
    csr, lengths = _count_rows(docs, model.n_visible)
    lp, _ = held_out_log_probs(
        model, csr, schedule, runs, rng, include_multinomial, log_z_fn
    )
    return per_word_perplexity(lp, lengths)


# ---------------------------------------------------------------------------
# embeddings and interpretability


class EmbeddingTable:
    """Word vectors of one fixed dimension."""

    def __init__(self, vectors: dict, dim: int):
        self.vectors, self.dim = vectors, dim

    def __contains__(self, word) -> bool:
        return word in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def get(self, word):
        return self.vectors.get(word)


def load_embeddings(path) -> EmbeddingTable:
    """Parse "word v1 ... vd" lines; the first line fixes the dimension.

    Duplicate words keep the last occurrence (with a warning); inconsistent
    dimensions or unparseable values raise with the line number.
    """
    vectors: dict = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            parts = raw.split()
            if len(parts) < 2:
                raise FileFormatError(f"{path}: expected word and values at line {ln}")
            word = parts[0]
            try:
                values = np.array([float(tok) for tok in parts[1:]])
            except ValueError:
                raise FileFormatError(
                    f"{path}: unparseable vector value at line {ln}"
                ) from None
            if np.any(np.isnan(values)):
                raise FileFormatError(f"{path}: NaN vector value at line {ln}")
            if dim is None:
                dim = values.size
            elif values.size != dim:
                raise FileFormatError(f"{path}: dimension mismatch at line {ln}")
            if word in vectors:
                warnings.warn(f"duplicate embedding for {word!r}, keeping last")
            vectors[word] = values
    if not vectors:
        raise FileFormatError(f"{path}: embedding file is empty")
    return EmbeddingTable(vectors, dim)


def unit_top_words(model, vocab, j: int, top_n: int = 10):
    """The unit's top words by absolute weight, ties toward lower index.

    Only the unit's connected words compete, which for a pruned model are
    the words its mask keeps.
    """
    if not 0 <= j < model.n_hidden:
        raise ValueError(f"hidden index {j} out of range")
    if top_n < 1:
        raise ValueError(f"top_n must be at least 1, got {top_n!r}")
    candidates = model.structure.visible_indices(j)
    magnitude = np.abs(model.W[j, candidates])
    order = np.lexsort((candidates, -magnitude))
    return [vocab[candidates[i]] for i in order[:top_n]]


def _cosine(u, v) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return float("nan")
    return float(np.dot(u, v) / (nu * nv))


def interpretability_unit(
    model, vocab, j: int, emb: EmbeddingTable, top_n: int = 10
) -> float:
    """Mean pairwise cosine similarity of the unit's top-weighted words.

    Words missing from the table (or with a zero vector) are skipped; with
    fewer than two surviving words the score is 0.
    """
    words = unit_top_words(model, vocab, j, top_n)
    vecs = [emb.get(w) for w in words]
    vecs = [v for v in vecs if v is not None and np.linalg.norm(v) > 0.0]
    if len(vecs) < 2:
        return 0.0
    total = 0.0
    for u, v in itertools.combinations(vecs, 2):
        total += _cosine(u, v)
    return total / math.comb(len(vecs), 2)


def interpretability_model(
    model, vocab, emb: EmbeddingTable, top_n: int = 10
) -> float:
    """Model score: mean of the per-unit compactness over all hidden units."""
    scores = [
        interpretability_unit(model, vocab, j, emb, top_n)
        for j in range(model.n_hidden)
    ]
    return float(np.mean(scores))

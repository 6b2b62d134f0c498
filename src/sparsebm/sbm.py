"""Sparse Boltzmann Machines for word counts.

Each hidden unit connects to a subset of the visible (word) units, and the
hidden units themselves are coupled through a forest of pairwise weights.
The hidden posterior given a document is therefore tree-structured, so the
positive phase of contrastive divergence uses exact sum-product inference;
the negative phase runs Gibbs sampling with two-colour block hidden sweeps.

Replicated Softmax is the special case with every hidden unit connected to
every word and no tree; a magnitude-pruned RS model has a masked connection
set and no tree. Both run through the code here.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import Corpus, Document, dense_rows, docs_csr, minibatch_indices
from .errors import FileFormatError, StructureError
from .util import check_int, first_refused, read_columns, read_text, rng_from

_INIT_STREAM = 31
_CD_STREAM = 32


@dataclass
class TrainConfig:
    """Contrastive-divergence training settings.

    cd_steps is the number of full Gibbs steps T per update. epochs,
    cd_steps, batch_size and seed must be integers. visible_bias_init may be
    "zero" or "log-frequency" (add-one smoothed empirical log word
    frequencies).

    hidden_bias_lr_scale multiplies the step size of the parameters whose
    gradients carry the document-length factor (hidden biases and, for
    sparse models, tree couplings). "auto" uses 1 / mean document length,
    which stops those parameters from saturating hidden units before the
    weights have differentiated; 1.0 applies the raw gradients.
    """

    epochs: int = 50
    cd_steps: int = 10
    learning_rate: float = 0.01
    batch_size: int = 100
    seed: int = 0
    weight_init_std: float = 0.001
    visible_bias_init: str = "zero"
    hidden_bias_lr_scale: float | str = 1.0

    def __post_init__(self):
        check_int("epochs", self.epochs, 0)
        check_int("cd_steps", self.cd_steps, 1)
        check_int("batch_size", self.batch_size, 1)
        check_int("seed", self.seed)
        for name in ("learning_rate", "weight_init_std"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if self.visible_bias_init not in ("zero", "log-frequency"):
            raise ValueError(f"unknown visible_bias_init {self.visible_bias_init!r}")
        scale = self.hidden_bias_lr_scale
        if isinstance(scale, str):
            if scale != "auto":
                raise ValueError(f"hidden_bias_lr_scale must be a float or 'auto', got {scale!r}")
        elif not math.isfinite(scale) or scale <= 0:
            raise ValueError(f"hidden_bias_lr_scale must be finite and positive, got {scale!r}")


def _first_faulty_pair(pairs, n_rows: int, n_cols: int):
    """The index of the first (row, col) pair of an (n, 2) int array that lies
    outside n_rows x n_cols or repeats an earlier pair; None if there is none."""
    rows, cols = pairs.T
    in_range = (rows >= 0) & (rows < n_rows) & (cols >= 0) & (cols < n_cols)
    keys = np.where(in_range, rows * n_cols + cols, -1)
    repeat = np.ones(rows.size, dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    faulty = np.flatnonzero(~in_range | repeat)
    return int(faulty[0]) if faulty.size else None


class SbmStructure:
    """Connectivity of a sparse Boltzmann machine.

    visible_edges is the bipartite hidden-to-visible edge set, held as the
    (F, K) mask; tree_edges the forest of hidden-to-hidden couplings, kept
    as sorted (lower, higher) pairs. Every hidden unit must keep at least
    one visible edge; tree edges may leave the hidden graph disconnected (a
    forest) but never cyclic.

    A depth-first walk from each lowest unreached unit checks the forest,
    labels each component by its smallest unit and records the plan.
    """

    def __init__(self, n_hidden: int, n_visible: int, visible_edges, tree_edges):
        if n_hidden < 1 or n_visible < 1:
            raise ValueError("n_hidden and n_visible must be positive")
        if not isinstance(visible_edges, np.ndarray):
            visible_edges = list(visible_edges)
        edges = np.array(visible_edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("visible_edges must be (hidden, visible) pairs")
        faulty = _first_faulty_pair(edges, n_hidden, n_visible)
        if faulty is not None:
            j, k = (int(x) for x in edges[faulty])
            if not 0 <= j < n_hidden:
                raise StructureError(f"hidden index {j} out of range")
            if not 0 <= k < n_visible:
                raise StructureError(f"visible index {k} out of range")
            raise StructureError(f"duplicate visible edge ({j}, {k})")
        mask = np.zeros((int(n_hidden), int(n_visible)), dtype=bool)
        mask[edges[:, 0], edges[:, 1]] = True
        self._setup(mask, tree_edges)

    def _setup(self, mask, tree_edges):
        self.n_hidden, self.n_visible = mask.shape
        empty = np.flatnonzero(~mask.any(axis=1))
        if empty.size:
            raise StructureError(f"hidden unit {int(empty[0])} has no visible edge")
        self._mask = mask

        canon = set()
        for j, l in tree_edges:
            j, l = int(j), int(l)
            if j == l:
                raise StructureError(f"tree edge ({j}, {l}) is a self loop")
            if not (0 <= j < self.n_hidden and 0 <= l < self.n_hidden):
                raise StructureError(f"tree edge ({j}, {l}) out of range")
            j, l = min(j, l), max(j, l)
            if (j, l) in canon:
                raise StructureError(f"duplicate tree edge ({j}, {l})")
            canon.add((j, l))
        self.tree_edges = sorted(canon)
        self._edge_ends = np.array(self.tree_edges, dtype=np.int64).reshape(-1, 2).T

        self._neighbors = [[] for _ in range(self.n_hidden)]
        for e, (j, l) in enumerate(self.tree_edges):
            self._neighbors[j].append((l, e))
            self._neighbors[l].append((j, e))

        depth = [-1] * self.n_hidden
        self.component = np.empty(self.n_hidden, dtype=np.int64)
        order, down_steps = [], []  # down_steps: (parent, child, edge)
        for start in range(self.n_hidden):
            if depth[start] >= 0:
                continue
            depth[start] = 0
            stack = [(start, None)]
            while stack:
                node, step = stack.pop()
                order.append(node)
                self.component[node] = start
                if step is not None:
                    down_steps.append(step)
                # pushed in reverse, so children are taken in neighbour order
                for other, e in reversed(self._neighbors[node]):
                    if depth[other] < 0:
                        depth[other] = depth[node] + 1
                        stack.append((other, (node, other, e)))
        # without self loops or repeats, one down-step per edge means no cycle
        if len(down_steps) != self.n_tree_edges:
            raise StructureError("hidden graph is not a forest")
        size = [1] * self.n_hidden
        for p, c, _ in reversed(down_steps):
            size[p] += size[c]
        order = np.array(order, dtype=np.int64)
        position = np.empty_like(order)
        position[order] = np.arange(self.n_hidden)
        end = np.arange(self.n_hidden) + np.array(size)[order]
        depth = np.array(depth)
        # a parent is one level above its child
        ej, el = self._edge_ends
        edge_parent, edge_child = np.where(depth[ej] < depth[el], [ej, el], [el, ej])
        colours = [units for units in (np.flatnonzero(depth % 2 == 0),
                                       np.flatnonzero(depth % 2 == 1)) if units.size]
        self._plan = _BpPlan(down_steps, order, position, end, edge_parent, edge_child, colours)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mask(cls, mask, tree_edges) -> "SbmStructure":
        """Structure whose visible edges are the True entries of an (F, K) mask."""
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 2 or mask.size == 0:
            raise ValueError("mask must be a non-empty 2-d array")
        structure = cls.__new__(cls)
        structure._setup(mask, tree_edges)
        return structure

    @classmethod
    def full(cls, n_hidden: int, n_visible: int) -> "SbmStructure":
        """Fully connected bipartite structure with no tree edges."""
        if n_hidden < 1 or n_visible < 1:
            raise ValueError("n_hidden and n_visible must be positive")
        return cls.from_mask(np.ones((n_hidden, n_visible), dtype=bool), [])

    # -- views -------------------------------------------------------------

    @property
    def n_tree_edges(self) -> int:
        return len(self.tree_edges)

    def visible_indices(self, j: int) -> np.ndarray:
        return np.flatnonzero(self._mask[j])

    def degrees(self) -> np.ndarray:
        """Number of visible edges of each hidden unit."""
        return self._mask.sum(axis=1)

    def neighbors(self, j: int):
        """Tree neighbours of hidden unit j as (other, edge_index) pairs."""
        return self._neighbors[j]

    def visible_edge_set(self) -> set:
        return set(map(tuple, np.argwhere(self._mask).tolist()))

    def mask(self) -> np.ndarray:
        """Boolean (F, K) matrix, True on structure edges."""
        return self._mask

    def __eq__(self, other):
        if not isinstance(other, SbmStructure):
            return NotImplemented
        return self.tree_edges == other.tree_edges and np.array_equal(self._mask, other._mask)

    def __repr__(self):
        return (
            f"{type(self).__name__}(F={self.n_hidden}, K={self.n_visible},"
            f" visible_edges={int(self._mask.sum())}, tree_edges={self.n_tree_edges})"
        )


class _BpPlan(NamedTuple):
    """The hidden forest in depth-first preorder: roots ascending, each the
    lowest unit of its tree, and children in neighbour (edge) order, so
    every subtree and every tree is one range of positions. order[i] is the
    unit at position i and position[j] the position of unit j; the subtree
    at position i ends at end[i]. down_steps lists (parent, child, edge) in
    preorder of the child; edge_parent and edge_child orient each canonical
    edge the same way; colours holds the units of even and of odd depth,
    each ascending, and a tree edge always joins the two classes."""

    down_steps: list
    order: np.ndarray
    position: np.ndarray
    end: np.ndarray
    edge_parent: np.ndarray
    edge_child: np.ndarray
    colours: list


class SbmModel:
    """Parameters bound to an SbmStructure.

    W is stored dense (F, K); package operations keep every off-structure
    entry at exactly zero (apply_mask restores the invariant if outside code
    writes elsewhere). Wt holds one coupling weight per tree edge, in the
    structure's canonical edge order.
    """

    __slots__ = ("structure", "W", "Wt", "a", "b")

    def __init__(self, structure: SbmStructure, W, Wt, a, b):
        W = np.asarray(W, dtype=np.float64)
        Wt = np.asarray(Wt, dtype=np.float64).ravel()
        a = np.asarray(a, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        if W.shape != (structure.n_hidden, structure.n_visible):
            raise ValueError(
                f"W shape {W.shape} does not match structure"
                f" ({structure.n_hidden}, {structure.n_visible})"
            )
        if Wt.size != structure.n_tree_edges:
            raise ValueError(
                f"Wt holds {Wt.size} values, structure has"
                f" {structure.n_tree_edges} tree edges"
            )
        if a.size != structure.n_hidden or b.size != structure.n_visible:
            raise ValueError("bias vector sizes do not match structure")
        for name, arr in (("W", W), ("Wt", Wt), ("a", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        self.structure = structure
        self.W = W
        self.Wt = Wt
        self.a = a
        self.b = b

    @property
    def n_hidden(self) -> int:
        return self.structure.n_hidden

    @property
    def n_visible(self) -> int:
        return self.structure.n_visible

    def copy(self) -> "SbmModel":
        return SbmModel(
            self.structure, self.W.copy(), self.Wt.copy(), self.a.copy(), self.b.copy()
        )

    def off_structure_weight(self) -> float:
        """Sum of |W| over entries outside the structure; 0 when conforming."""
        return float(np.abs(np.where(self.structure.mask(), 0.0, self.W)).sum())

    def __repr__(self):
        return (
            f"SbmModel(F={self.n_hidden}, K={self.n_visible},"
            f" tree_edges={self.structure.n_tree_edges})"
        )


class TreePosterior:
    """Exact hidden posterior for one document.

    singleton[j] = P(h_j = 1 | doc); pairwise maps each canonical tree edge
    (j, l) to its 2x2 table P(h_j, h_l | doc); log_hidden_partition is
    log sum_h of the unnormalized hidden factor given the document.
    """

    __slots__ = ("singleton", "pairwise", "log_hidden_partition")

    def __init__(self, singleton, pairwise, log_hidden_partition):
        self.singleton = singleton
        self.pairwise = pairwise
        self.log_hidden_partition = log_hidden_partition


def apply_mask(model: SbmModel) -> SbmModel:
    """Zero every off-structure weight in place and return the model."""
    np.copyto(model.W, 0.0, where=~model.structure.mask())
    return model


def _check_hidden(model, h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64).ravel()
    if h.size != model.n_hidden:
        raise ValueError(f"hidden state length {h.size} != F={model.n_hidden}")
    if not np.all((h == 0) | (h == 1)):
        raise ValueError("hidden state entries must be 0 or 1")
    return h


def _check_doc(model, doc: Document):
    if doc.words.size and int(doc.words[-1]) >= model.n_visible:
        raise ValueError(
            f"document references word index {int(doc.words[-1])}"
            f" >= K={model.n_visible}"
        )


def sbm_energy(model: SbmModel, doc: Document, h) -> float:
    """Energy of a (document, hidden state) pair, including tree couplings.

    -sum_jk W_jk h_j u_k - sum_k u_k b_k - D sum_j h_j a_j
    - D sum_(j,l) Wt_jl h_j h_l, with u the word counts and D the length.
    """
    _check_doc(model, doc)
    h = _check_hidden(model, h)
    d = doc.length
    wu = model.W[:, doc.words] @ doc.counts.astype(np.float64)
    base = -(h @ wu) - doc.counts @ model.b[doc.words] - d * (h @ model.a)
    tree = 0.0
    for e, (j, l) in enumerate(model.structure.tree_edges):
        tree += model.Wt[e] * h[j] * h[l]
    return float(base - d * tree)


def sbm_gibbs_hidden_conditional(model: SbmModel, doc: Document, h, j: int) -> float:
    """P(h_j = 1 | doc, other hidden units) for the Gibbs sweep."""
    if not 0 <= j < model.n_hidden:
        raise ValueError(f"hidden index {j} out of range")
    _check_doc(model, doc)
    h = _check_hidden(model, h)
    d = doc.length
    act = model.W[j, doc.words] @ doc.counts.astype(np.float64) + d * model.a[j]
    for other, e in model.structure.neighbors(j):
        act += d * model.Wt[e] * h[other]
    return float(_sigmoid(act))


# ---------------------------------------------------------------------------
# batched sum-product on the hidden forest


def _softplus(x, out, tmp):
    """log(1 + e^x) into out, with tmp as work space. max(x, 0) +
    log1p(exp(-|x|)) never overflows and runs numpy's vectorised exp and
    log1p."""
    np.abs(x, out=tmp)
    np.negative(tmp, out=tmp)
    np.exp(tmp, out=tmp)
    np.log1p(tmp, out=tmp)
    np.maximum(x, 0.0, out=out)
    out += tmp
    return out


def _softplus_gap(pair, w, tmp, out):
    """out = softplus(x + w) - softplus(x) for x = pair[0], using pair and
    tmp, both (2, B), as work space."""
    np.add(pair[0], w, out=pair[1])
    _softplus(pair, pair, tmp)
    return np.subtract(pair[1], pair[0], out=out)


def _sigmoid(x):
    """The logistic 1 / (1 + e^-x); an exp that overflows gives the exact
    limit 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.negative(x)))


def _sigmoid_pair(x):
    """(sigmoid(x), sigmoid(-x)), each with its own exp, so neither is a
    difference."""
    return _sigmoid(x), _sigmoid(np.negative(x))


def tree_sum_product(
    structure: SbmStructure,
    theta: np.ndarray,
    edge_logw: np.ndarray,
    want_marginals: bool = True,
):
    """Sum-product over the hidden forest for a batch of documents.

    theta[n, j] is the log node potential for h_j = 1 (the h_j = 0 potential
    is 0); edge_logw[n, e] is the log edge potential for both endpoints on.

    Returns (singleton, pairwise, logz) where singleton is (B, F), pairwise
    (B, E, 2, 2) indexed by the canonical (lower, higher) edge endpoints, and
    logz (B,). Entries not requested come back as None. pairwise is a view
    of an edge-major (E, 2, 2, B) array. Every structure takes this one
    path: without tree edges there are no up or down steps, so a unit's
    marginal is sigmoid(theta), log Z the row sum of softplus(theta), and
    pairwise is (B, 0, 2, 2).

    Messages are log-odds, on unit-major (F, B) rows. Going up, delta_j is
    the log-odds of h_j given its subtree alone, and a child c sends its
    parent softplus(delta_c + w) - softplus(delta_c); log Z is the sum of
    softplus(delta_j) over all units. Going down, beta_j is the posterior
    log-odds of h_j. A pairwise table is the product of the parent's
    marginal and the child's conditional, e.g. P(h_p = 1, h_c = 1) =
    sigmoid(beta_p) sigmoid(delta_c + w), so tiny entries keep their
    relative precision.
    """
    b = theta.shape[0]
    n_edges = structure.n_tree_edges
    plan = structure._plan

    delta = np.array(theta.T, order="C")
    w = np.ascontiguousarray(edge_logw.T)
    msg = np.empty((n_edges, b))
    pair = np.empty((2, b))
    tmp = np.empty((2, b))
    for p, c, e in reversed(plan.down_steps):
        pair[0] = delta[c]
        delta[p] += _softplus_gap(pair, w[e], tmp, msg[e])

    # a contiguous per-row sum, so a row's log Z never depends on the rows
    # batched with it
    sp = _softplus(delta, np.empty_like(delta), np.empty_like(delta))
    logz = np.ascontiguousarray(sp.T).sum(axis=1)
    if not want_marginals:
        return None, None, logz

    beta = delta.copy()
    for p, c, e in plan.down_steps:
        np.subtract(beta[p], msg[e], out=pair[0])
        beta[c] += _softplus_gap(pair, w[e], tmp, tmp[0])
    on = _sigmoid(beta)
    singleton = np.ascontiguousarray(on.T)

    parent, child = plan.edge_parent, plan.edge_child
    x = np.empty((2, n_edges, b))  # the child's log-odds given h_p = 0, 1
    np.take(delta, child, axis=0, out=x[0])
    np.add(x[0], w, out=x[1])
    c_on, c_off = _sigmoid_pair(x)
    # sigmoid(-beta) only where a tree edge uses it
    p_on, p_off = on[parent], _sigmoid(np.negative(beta[parent]))
    # tab[e, h_p, h_c]: rows are the parent's state
    tab = np.empty((n_edges, 2, 2, b))
    np.multiply(p_off, c_off[0], out=tab[:, 0, 0])
    np.multiply(p_off, c_on[0], out=tab[:, 0, 1])
    np.multiply(p_on, c_off[1], out=tab[:, 1, 0])
    np.multiply(p_on, c_on[1], out=tab[:, 1, 1])
    flip = np.flatnonzero(parent > child)
    tab[flip] = tab[flip].transpose(0, 2, 1, 3)
    return singleton, tab.transpose(3, 0, 1, 2), logz


def _batch_theta(model: SbmModel, counts_matrix: np.ndarray, lengths: np.ndarray):
    """Node and edge log potentials (theta, edge_logw) for a count batch."""
    theta = counts_matrix @ model.W.T + lengths[:, None] * model.a
    return theta, lengths[:, None] * model.Wt[None, :]


def sbm_tree_marginals(model: SbmModel, doc: Document) -> TreePosterior:
    """Exact singleton and pairwise hidden marginals for one document."""
    _check_doc(model, doc)
    d = doc.length
    theta = model.W[:, doc.words] @ doc.counts.astype(np.float64) + d * model.a
    edge_logw = (d * model.Wt)[None, :]
    singleton, pairwise, logz = tree_sum_product(model.structure, theta[None, :], edge_logw)
    tables = {
        edge: pairwise[0, e] for e, edge in enumerate(model.structure.tree_edges)
    }
    return TreePosterior(singleton[0], tables, float(logz[0]))


# ---------------------------------------------------------------------------
# contrastive divergence


# rows whose CDFs one searchsorted call searches
_SEARCH_ROWS = 128


def _multinomial_plan(lengths):
    """The constants of _multinomial_rows that depend on the row lengths
    only: the row offsets, each key's offset and upper edge, and where each
    block of _SEARCH_ROWS rows starts and ends among the sorted keys."""
    offsets = 2.0 * np.arange(lengths.size)
    counts = lengths.astype(np.int64)
    row = np.repeat(np.arange(lengths.size), counts)
    ends = np.concatenate([[0], np.cumsum(counts)])
    bounds = np.append(ends[::_SEARCH_ROWS], ends[-1])
    return offsets, offsets[row], np.nextafter(offsets + 1.0, 0.0)[row], bounds


def _multinomial_rows(rng, lengths, w, plan=None):
    """One multinomial count vector per row of w: row r of the (B, K) float
    result holds lengths[r] draws from the distribution w[r] / sum(w[r]).

    w holds non-negative weights, each row with a positive sum; only the
    CDF is normalised, so w and any positive multiple of it give the same
    draws wherever the scaling is exact, as it is for a power of two.

    Inverse CDF over all rows at once: row r's normalised CDF is offset to
    [2r, 2r+1], and sum(lengths) uniforms get the same offsets and are
    sorted, so one searchsorted (which carries its lower bound from key to
    key) per block of _SEARCH_ROWS rows and one bincount place every draw;
    the blocks give the draws of a single search over all rows, and keep
    each search within a short stretch of the CDF, which took 10-20% off a
    (1550, 60) AIS chain's draw. A key lands on word k only where
    the CDF rises there, so a zero-probability word is never drawn; a key
    whose offset sum rounds up to 2r+1 is clamped just below that edge, so
    every row keeps exactly its own lengths[r] draws. plan is
    _multinomial_plan(lengths), built here when not given.
    """
    n_rows, k = w.shape
    offsets, key_offsets, key_upper, bounds = plan or _multinomial_plan(lengths)
    cdf = np.cumsum(w, axis=1)
    cdf /= cdf[:, -1:]
    cdf += offsets[:, None]
    keys = rng.random(key_offsets.size)
    keys += key_offsets
    np.minimum(keys, key_upper, out=keys)
    keys.sort()
    u = np.empty((n_rows, k))
    for r, start, stop in zip(range(0, n_rows, _SEARCH_ROWS), bounds[:-1], bounds[1:]):
        block = cdf[r:r + _SEARCH_ROWS]
        words = np.searchsorted(block.ravel(), keys[start:stop], side="right")
        u[r:r + _SEARCH_ROWS] = np.bincount(words, minlength=block.size).reshape(block.shape)
    return u


def _coupling_columns(model):
    """For each colour of the block sweep, the columns of the symmetric
    (F, F) tree-coupling matrix at its units; None without tree edges."""
    structure = model.structure
    if not structure.n_tree_edges:
        return None
    ej, el = structure._edge_ends
    coupling = np.zeros((model.n_hidden, model.n_hidden))
    coupling[ej, el] = model.Wt
    coupling[el, ej] = model.Wt
    return [coupling[:, units] for units in structure._plan.colours]


def _gibbs_hidden_sweep(model, theta, lengths, h, rng, beta=1.0, columns=None):
    """One Gibbs sweep over the hidden units, updating h in place.

    theta holds the node potentials of the current visible sample, as
    _batch_theta computes them; it is read, never written. Tree edges only
    join units of opposite depth parity, so the units of one colour are
    independent given the other colour, and each colour is drawn exactly in
    one vectorised step (chromatic Gibbs): even depths first, units
    ascending within a colour. A model without tree edges has a single
    colour, so its sweep is one factorised draw of all units. columns is
    _coupling_columns(model), built here when not given.
    """
    if columns is None:
        columns = _coupling_columns(model)
    for c, units in enumerate(model.structure._plan.colours):
        unit_act = theta[:, units]  # an index array, so this is a copy
        if columns is not None:
            unit_act += lengths[:, None] * (h @ columns[c])
        p = _sigmoid(beta * unit_act)
        h[:, units] = rng.random(p.shape) < p
    return h


class _Chain(NamedTuple):
    """What a Gibbs chain over fixed parameters and document lengths reuses
    at every step: the lengths, the sweep's coupling columns, the lengths
    times the hidden biases, and the multinomial draw's plan."""

    lengths: np.ndarray
    columns: list | None
    length_a: np.ndarray
    draw: tuple


def _chain(model, lengths) -> _Chain:
    return _Chain(lengths, _coupling_columns(model), lengths[:, None] * model.a,
                  _multinomial_plan(lengths))


def _gibbs_step(model, chain, theta, h, rng, beta=1.0):
    """One full Gibbs step at inverse temperature beta, the transition that
    CD runs at beta = 1 and AIS once per intermediate temperature.

    A hidden sweep given the node potentials theta of the current visible
    sample (updating h in place), then a visible sample from
    softmax(b + beta W^T h), drawn by _multinomial_rows from the
    unnormalised weights exp(logits - row max): the sampler's CDF division
    is the only normalisation. chain is
    _chain(model, lengths) for the rows' document lengths. Returns
    (h, u, theta) with the new sample's counts and node potentials, the
    theta of _batch_theta; the edge potentials depend on the lengths only,
    so callers build them once.
    """
    h = _gibbs_hidden_sweep(model, theta, chain.lengths, h, rng, beta, chain.columns)
    logits = model.b + beta * (h @ model.W)
    logits -= logits.max(axis=1, keepdims=True)
    u = _multinomial_rows(rng, chain.lengths, np.exp(logits, out=logits), chain.draw)
    return h, u, u @ model.W.T + chain.length_a


def cd_gradients(model, counts_matrix, lengths, t, rng):
    """Batch-averaged CD-T gradients for W, Wt, a, b of a dense count batch.

    lengths holds the row sums of counts_matrix. The positive phase uses
    exact tree posteriors; the negative phase runs T Gibbs steps from the
    data, and its final hidden statistic is a state sampled given the final
    visible sample. Hidden and tree-coupling gradients carry the per-document length factor.
    The W gradient is restricted to structure edges.
    """
    u = counts_matrix
    n = u.shape[0]
    theta, edge_logw = _batch_theta(model, u, lengths)
    e_h, pairwise, _ = tree_sum_product(model.structure, theta, edge_logw)
    chain = _chain(model, lengths)
    h_neg = np.zeros(theta.shape)
    for _ in range(t):
        h_neg, u_neg, theta = _gibbs_step(model, chain, theta, h_neg, rng)
    h_neg = _gibbs_hidden_sweep(model, theta, lengths, h_neg, rng, columns=chain.columns)
    ej, el = model.structure._edge_ends
    hh_neg = h_neg[:, ej] * h_neg[:, el]
    grad_w = np.where(model.structure.mask(), e_h.T @ u - h_neg.T @ u_neg, 0.0)
    grad_wt = (pairwise[:, :, 1, 1] * lengths[:, None]).sum(axis=0)
    grad_wt -= (hh_neg * lengths[:, None]).sum(axis=0)
    return {
        "W": grad_w / n,
        "Wt": grad_wt / n,
        "a": (e_h.T @ lengths - h_neg.T @ lengths) / n,
        "b": (u.sum(axis=0) - u_neg.sum(axis=0)) / n,
    }


def sbm_cd_gradients(model, batch, t, rng):
    """cd_gradients for a list of documents."""
    if t < 1:
        raise ValueError("cd_steps must be at least 1")
    u = dense_rows(docs_csr(batch, model.n_visible), slice(None))
    return cd_gradients(model, u, u.sum(axis=1), t, rng)


def _apply_gradients(model, grads, lr, lr_h):
    """Gradient ascent in place: W and b at step lr, the length-scaled Wt and
    a at lr_h; off-structure weights are zeroed again. Returns the model."""
    model.W += lr * grads["W"]
    model.Wt += lr_h * grads["Wt"]
    model.a += lr_h * grads["a"]
    model.b += lr * grads["b"]
    return apply_mask(model)


def sbm_cd_step(model: SbmModel, batch, t: int, lr: float,
                rng: np.random.Generator) -> SbmModel:
    """One CD-T update; returns a new model with the mask re-applied."""
    grads = sbm_cd_gradients(model, batch, t, rng)
    return _apply_gradients(model.copy(), grads, lr, lr)


def _bias_lr_factor(config: TrainConfig, corpus: Corpus) -> float:
    if config.hidden_bias_lr_scale == "auto":
        total = int(corpus.count_csr().data.sum())
        return 1.0 / max(1.0, total / max(1, corpus.n_docs))
    return float(config.hidden_bias_lr_scale)


def init_sbm_model(corpus: Corpus, structure: SbmStructure, config: TrainConfig) -> SbmModel:
    """Fresh model: on-structure W ~ Normal(0, std^2), tree weights and hidden
    biases zero, visible biases zero or log-frequency."""
    rng = rng_from(config.seed, _INIT_STREAM)
    w = rng.normal(
        0.0, config.weight_init_std, size=(structure.n_hidden, structure.n_visible)
    )
    w = np.where(structure.mask(), w, 0.0)
    if config.visible_bias_init == "log-frequency":
        counts = corpus.total_counts().astype(np.float64)
        b = np.log((counts + 1.0) / (counts.sum() + corpus.n_words))
    else:
        b = np.zeros(corpus.n_words)
    return SbmModel(structure, w, np.zeros(structure.n_tree_edges),
                    np.zeros(structure.n_hidden), b)


def sbm_fit(
    model: SbmModel,
    corpus: Corpus,
    config: TrainConfig,
    epochs: int | None = None,
    rng: np.random.Generator | None = None,
    epoch_offset: int = 0,
) -> SbmModel:
    """CD training epochs on a copy of the model; mask holds throughout.

    epoch_offset shifts the minibatch shuffle stream so that resumed
    training (e.g. prune/retrain cycles) does not replay earlier epochs'
    batch orders.
    """
    if model.n_visible != corpus.n_words:
        raise ValueError(
            f"model K={model.n_visible} does not match corpus vocabulary size"
            f" {corpus.n_words}"
        )
    if epochs is None:
        epochs = config.epochs
    if rng is None:
        rng = rng_from(config.seed, _CD_STREAM)
    work = apply_mask(model.copy())
    lr = config.learning_rate
    lr_h = lr * _bias_lr_factor(config, corpus)
    for epoch in range(epochs):
        batches = minibatch_indices(
            corpus.n_docs, config.batch_size, config.seed, epoch_offset + epoch
        )
        for idx in batches:
            u = corpus.dense_rows(idx)
            grads = cd_gradients(work, u, u.sum(axis=1), config.cd_steps, rng)
            _apply_gradients(work, grads, lr, lr_h)
    return work


def sbm_train(corpus: Corpus, structure: SbmStructure, config: TrainConfig) -> SbmModel:
    """Initialise and CD-train a sparse Boltzmann machine."""
    if structure.n_visible != corpus.n_words:
        raise ValueError(
            f"structure K={structure.n_visible} does not match corpus"
            f" vocabulary size {corpus.n_words}"
        )
    if corpus.n_docs == 0:
        raise ValueError("corpus is empty")
    return sbm_fit(init_sbm_model(corpus, structure, config), corpus, config)


# ---------------------------------------------------------------------------
# serialization: versioned plain-text sections, bit-exact float round trip

_MAGIC = "sparsebm"
_SECTIONS = {"sbm-structure": ("dims", "visible_edges", "tree_edges"),
             "sbm-model": ("dims", "visible_edges", "tree_edges", "a", "b"),
             "rs-model": ("dims", "W", "a", "b", "mask")}


def file_kind(path):
    """The word after "sparsebm" that starts a file ("" if none), else None."""
    words = read_text(path, first_line=True).split()
    return " ".join(words[1:2]) if words[:1] == [_MAGIC] else None


def write_sections(path, kind: str, sections) -> None:
    """Write "sparsebm <kind> 1" followed by [name] sections of lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_MAGIC} {kind} 1\n")
        for name, lines in sections:
            fh.write(f"[{name}]\n")
            for line in lines:
                fh.write(line + "\n")


def read_sections(path, expected_kind: str):
    """{section_name: text} of a "sparsebm <expected_kind> 1" file. A section
    the kind does not hold is refused; blank lines are left to the section
    parsers, which skip them."""
    # a literal "\n[" starts the pattern, so the search skips ahead between sections
    pre, *parts = re.split(r"\n\[(.*)\]$", read_text(path), flags=re.MULTILINE)
    first, _, before = pre.partition("\n")
    header = first.split()
    if len(header) != 3 or header[0] != _MAGIC:
        raise FileFormatError(f"{path}: not a {_MAGIC} file")
    kind, version = header[1:]
    if kind != expected_kind:
        raise FileFormatError(
            f"{path}: expected kind {expected_kind!r}, found {kind!r}"
        )
    if version != "1":
        raise FileFormatError(f"{path}: unsupported format version {version}")
    if before.strip():
        ln = 2 + before[: len(before) - len(before.lstrip())].count("\n")
        raise FileFormatError(f"{path}: content before any section at line {ln}")
    sections: dict[str, str] = {}
    ln = 2 + pre.count("\n")  # the line of each section's [name]
    for name, part in zip(parts[::2], parts[1::2]):
        if name in sections or name not in _SECTIONS[kind]:
            problem = "duplicate" if name in sections else "unknown"
            raise FileFormatError(f"{path}: {problem} section [{name}] at line {ln}")
        sections[name] = part
        ln += part.count("\n") + 1
    return sections


def _parse_section(sections, name, dtype, noun, path):
    """read_columns of one section, which is empty when missing: a row per line
    of (field, type) pairs or, for a vector, a row per value, so its line
    breaks do not matter and no long row is copied at 4 bytes a character. A
    refused section is named by its first bad line."""
    lines = sections.get(name, "").split("\n")
    rows = lines if isinstance(dtype, list) else (tok for line in lines for tok in line.split())
    cols = read_columns(rows, dtype)
    if cols is None:
        raise FileFormatError(f"{path}: {noun} {lines[first_refused(lines, dtype)]!r}")
    return cols


def _parse_dims(sections, path, *names):
    dtype = [("name", "U32"), ("value", np.int64)]
    keys, values = _parse_section(sections, "dims", dtype, "malformed dims line", path)
    dims = dict(zip(keys.tolist(), values.tolist()))
    for name in names:
        if name not in dims:
            raise FileFormatError(f"{path}: [dims] missing {name}")
        if dims[name] < 1:
            raise FileFormatError(f"{path}: [dims] {name} is {dims[name]}, want at least 1")
    return tuple(dims[n] for n in names)


def _parse_vector(sections, name, size, path):
    (values,) = _parse_section(sections, name, np.float64, f"bad number in [{name}] line", path)
    if values.size != size:
        raise FileFormatError(
            f"{path}: [{name}] holds {values.size} values, expected {size}"
        )
    return values


def _parse_edges(sections, name, path, weighted):
    """[pairs] of an edge section as (n, 2) int64 or, when weighted, [pairs,
    weights] with the float64 weight that ends each line."""
    dtype = [("pair", np.int64, 2)] + [("w", np.float64)] * weighted
    noun = "mask entry" if name == "mask" else name.replace("_edges", " edge")
    return _parse_section(sections, name, dtype, f"malformed {noun}", path)


def save_structure(structure: SbmStructure, path) -> None:
    sections = [
        ("dims", [f"F {structure.n_hidden}", f"K {structure.n_visible}"]),
        (
            "visible_edges",
            [
                f"{j} {k}"
                for j, k in np.argwhere(structure.mask()).tolist()
            ],
        ),
        ("tree_edges", [f"{j} {l}" for j, l in structure.tree_edges]),
    ]
    write_sections(path, "sbm-structure", sections)


def load_structure(path) -> SbmStructure:
    sections = read_sections(path, "sbm-structure")
    f, k = _parse_dims(sections, path, "F", "K")
    (visible,) = _parse_edges(sections, "visible_edges", path, weighted=False)
    (tree,) = _parse_edges(sections, "tree_edges", path, weighted=False)
    return SbmStructure(f, k, visible, tree)


def save_sbm_model(model: SbmModel, path) -> None:
    s = model.structure
    sections = [
        ("dims", [f"F {model.n_hidden}", f"K {model.n_visible}"]),
        (
            "visible_edges",
            [
                f"{j} {k} {w!r}"
                for (j, k), w in zip(np.argwhere(s.mask()).tolist(), model.W[s.mask()].tolist())
            ],
        ),
        (
            "tree_edges",
            [
                f"{j} {l} {w!r}"
                for (j, l), w in zip(s.tree_edges, model.Wt.tolist())
            ],
        ),
        ("a", [" ".join(map(repr, model.a.tolist()))]),
        ("b", [" ".join(map(repr, model.b.tolist()))]),
    ]
    write_sections(path, "sbm-model", sections)


def load_sbm_model(path) -> SbmModel:
    sections = read_sections(path, "sbm-model")
    f, k = _parse_dims(sections, path, "F", "K")
    visible, weights = _parse_edges(sections, "visible_edges", path, weighted=True)
    tree, tree_weights = _parse_edges(sections, "tree_edges", path, weighted=True)
    structure = SbmStructure(f, k, visible, tree)
    w = np.zeros((f, k))
    w[visible[:, 0], visible[:, 1]] = weights
    # the structure keeps its tree edges as sorted (lower, higher) pairs
    wt = tree_weights[np.lexsort((tree.max(axis=1), tree.min(axis=1)))]
    a = _parse_vector(sections, "a", f, path)
    b = _parse_vector(sections, "b", k, path)
    return SbmModel(structure, w, wt, a, b)

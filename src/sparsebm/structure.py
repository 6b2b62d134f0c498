"""Structure learning for sparse Boltzmann machines.

A two-stage greedy grouping over word-occurrence indicators produces a
skeleton (one hidden unit per word group plus a spanning tree over the
groups); externally produced skeletons can be loaded from a simple text
format. The skeleton is then expanded by connecting each hidden unit to the
out-of-group words carrying the highest conditional mutual information,
estimated from exact posteriors of a tree model trained on the skeleton.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .errors import FileFormatError, StructureError
from .sbm import SbmModel, SbmStructure, _batch_theta, tree_sum_product
from .util import check_int, first_refused, read_columns, read_text

# 99% quantile of chi-squared with one degree of freedom; 2*N*MI of two
# independent binary variables is asymptotically chi-squared(1), so this
# screens out estimation noise when deciding whether a dependence is real.
_CHI2_99_DF1 = 6.6348966010212145


class Skeleton(SbmStructure):
    """Disjoint word groups covering 0..K-1, one per hidden unit, plus a
    forest over the units: an SbmStructure whose mask partitions the words.
    provenance is "built" from data or "loaded" from a file."""

    def __init__(self, groups, tree_edges, provenance: str = "built"):
        groups = [sorted(int(v) for v in g) for g in groups]
        seen = set()
        for j, g in enumerate(groups):
            if not g:
                raise StructureError(f"hidden unit {j} has an empty group")
            for v in g:
                if v in seen:
                    raise StructureError(f"visible {v} assigned twice")
                seen.add(v)
        k = max(seen) + 1 if seen else 0
        for v in range(k):
            if v not in seen:
                raise StructureError(f"visible {v} unassigned")
        super().__init__(len(groups), k, [(j, v) for j, g in enumerate(groups) for v in g],
                         tree_edges)
        self.provenance = provenance

    @classmethod
    def from_mask(cls, mask, tree_edges, provenance: str = "built") -> "Skeleton":
        """The skeleton whose groups are the True entries of each row of an
        (F, K) mask, built through the group checks, so every column must be
        True in exactly one row."""
        mask = np.array(mask, dtype=bool)
        if mask.ndim != 2 or mask.size == 0:
            raise ValueError("mask must be a non-empty 2-d array")
        skeleton = cls([np.flatnonzero(row) for row in mask], tree_edges, provenance)
        if skeleton.n_visible < mask.shape[1]:
            # the group checks see words up to the last assigned one only
            raise StructureError(f"visible {skeleton.n_visible} unassigned")
        return skeleton

    @property
    def groups(self) -> list:
        """Each hidden unit's words, ascending."""
        return [np.flatnonzero(row) for row in self.mask()]

    def owner_of(self) -> np.ndarray:
        """Array mapping each visible index to its group's hidden unit."""
        return self.mask().argmax(axis=0)

    def to_structure(self) -> SbmStructure:
        """The skeleton itself, which is already an SbmStructure."""
        return self


@dataclass
class CmiTable:
    """Per hidden unit, its out-of-group words (an int64 array) and their
    scores (float64), by descending score and ascending word on ties."""

    words: list
    values: list

    @property
    def scores(self) -> list:
        """Per hidden unit, [(visible index, score), ...] in table order."""
        return [self.top(j, None) for j in range(len(self.words))]

    def top(self, j: int, m):
        """Unit j's first m (visible index, score) pairs; all when m is None."""
        return list(zip(self.words[j][:m].tolist(), self.values[j][:m].tolist()))


# ---------------------------------------------------------------------------
# pairwise mutual information over binary indicators


# rows of the K x K MI matrix formed at once
_MI_BLOCK = 128


def pairwise_binary_mi(indicators) -> np.ndarray:
    """MI in nats between all pairs of binary columns; diagonal zeroed.

    indicators is an (N, K) 0/1 array or sparse matrix. The co-occurrence
    counts come from one sparse product, whose cost is the sum over rows of
    the squared row counts, and the four MI terms are formed a block of rows
    at a time. Every count is an integer, exact in float64, so neither the
    sparse product nor the blocking changes a bit of the result.
    """
    x = sp.csr_matrix(indicators, dtype=np.float64)
    n, k = x.shape
    n11 = (x.T @ x).toarray()
    n1 = np.bincount(x.indices, weights=x.data, minlength=k)
    pa1 = n1 / n
    pa0 = 1.0 - pa1
    mi = np.zeros((k, k))
    for lo in range(0, k, _MI_BLOCK):
        rows = slice(lo, min(lo + _MI_BLOCK, k))
        p11 = n11[rows] / n
        p10 = (n1[rows, None] - n11[rows]) / n
        p01 = (n1[None, :] - n11[rows]) / n
        p00 = 1.0 - p11 - p10 - p01
        for pab, pa, pb in (
            (p11, pa1[rows, None], pa1[None, :]),
            (p10, pa1[rows, None], pa0[None, :]),
            (p01, pa0[rows, None], pa1[None, :]),
            (p00, pa0[rows, None], pa0[None, :]),
        ):
            denom = pa * pb
            with np.errstate(divide="ignore", invalid="ignore"):
                term = pab * np.log(pab / denom)
            term[~np.isfinite(term)] = 0.0
            mi[rows] += term
    np.fill_diagonal(mi, 0.0)
    return np.maximum(mi, 0.0, out=mi)


def _greedy_groups(mi: np.ndarray, max_size: int, floor: float):
    """Seed with the strongest unassigned pair, grow by highest average MI.

    Growth stops at max_size or when no candidate clears the floor; members
    left over when no seed pair clears the floor become singletons.
    """
    k = mi.shape[0]
    if max_size < 2:
        return [[v] for v in range(k)]
    unassigned = np.ones(k, dtype=bool)
    groups = []
    # mi over pairs of distinct unassigned words, -inf elsewhere
    work = mi.astype(np.float64)
    np.fill_diagonal(work, -np.inf)

    def assign(v):
        unassigned[v] = False
        work[v, :] = -np.inf
        work[:, v] = -np.inf

    while unassigned.sum() >= 2:
        flat = int(np.argmax(work))
        i, j = divmod(flat, k)
        if work[i, j] <= floor:
            break
        group = [min(i, j), max(i, j)]
        assign(i)
        assign(j)
        while len(group) < max_size:
            cand = np.nonzero(unassigned)[0]
            if cand.size == 0:
                break
            avg = mi[np.ix_(cand, group)].mean(axis=1)
            best = int(np.argmax(avg))
            if avg[best] <= floor:
                break
            group.append(int(cand[best]))
            assign(group[-1])
        groups.append(sorted(group))
    for v in np.nonzero(unassigned)[0]:
        groups.append([int(v)])
    return groups


def _max_spanning_tree(mi: np.ndarray):
    """Kruskal over the complete graph, ties toward the lower index pair."""
    k = mi.shape[0]
    edges = sorted(
        ((j, l) for j in range(k) for l in range(j + 1, k)),
        key=lambda e: (-mi[e[0], e[1]], e[0], e[1]),
    )
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for j, l in edges:
        rj, rl = find(j), find(l)
        if rj != rl:
            parent[rj] = rl
            out.append((j, l))
            if len(out) == k - 1:
                break
    return sorted(out)


def _any_present(occ, sets) -> sp.csr_matrix:
    """Sparse 0/1 (N, len(sets)) indicators: does a document hold any word
    of each set."""
    words = np.concatenate(sets)
    owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
    member = sp.csr_matrix(
        (np.ones(words.size), (words, owner)), shape=(occ.shape[1], len(sets))
    )
    hits = occ @ member
    hits.data[:] = 1.0
    return hits


def check_skeleton_settings(where="", *, island_max, supergroup_max, mi_floor) -> None:
    """Refuse bad build_skeleton settings, each named as where + its name."""
    check_int(f"{where}island_max", island_max, 1)
    check_int(f"{where}supergroup_max", supergroup_max, 1)
    if mi_floor != "auto" and (
        isinstance(mi_floor, bool) or not isinstance(mi_floor, numbers.Real)
        or math.isnan(mi_floor)
    ):
        raise ValueError(f"{where}mi_floor must be 'auto' or a number that is not NaN,"
                         f" got {mi_floor!r}")


def build_skeleton(
    corpus: Corpus,
    *,
    island_max: int = 7,
    supergroup_max: int = 5,
    mi_floor="auto",
) -> Skeleton:
    """Two-level greedy grouping of word-occurrence indicators.

    Words are binarized to presence indicators, gathered greedily into
    islands of at most island_max strongly dependent words, and islands are
    merged the same way into supergroups of at most supergroup_max islands.
    Each supergroup becomes one hidden unit owning the union of its islands'
    words; the hidden tree is a maximum spanning tree over the supergroup
    indicators' pairwise MI. Constant words (present in every document or
    none) carry no signal and are appended to the smallest group at the end.

    island_max and supergroup_max are integers of at least 1; below 2 every
    word (island) stays on its own. mi_floor="auto" uses a 99% chi-squared
    significance threshold on 2*N*MI, which rejects the positive bias of
    empirical MI between independent variables; a number that is not NaN
    fixes the floor directly.
    """
    check_skeleton_settings(island_max=island_max, supergroup_max=supergroup_max,
                            mi_floor=mi_floor)
    if corpus.n_words < 2:
        raise ValueError("need at least two words to build a skeleton")
    n = corpus.n_docs
    if n < 2:
        raise ValueError("need at least two documents to build a skeleton")
    floor = _CHI2_99_DF1 / (2.0 * n) if mi_floor == "auto" else float(mi_floor)

    occ = corpus.occurrence_csr()
    df = corpus.doc_frequencies()
    informative = np.nonzero((df > 0) & (df < n))[0]
    degenerate = np.nonzero((df == 0) | (df == n))[0]
    if informative.size == 0:
        raise StructureError("corpus has no informative words")

    mi_words = pairwise_binary_mi(occ[:, informative])
    island_local = _greedy_groups(mi_words, island_max, floor)
    islands = [[int(informative[i]) for i in local] for local in island_local]
    mi_islands = pairwise_binary_mi(_any_present(occ, islands))
    supergroup_islands = _greedy_groups(mi_islands, supergroup_max, floor)

    groups = [
        sorted(v for isl in sg for v in islands[isl]) for sg in supergroup_islands
    ]

    # attach constant words to the smallest group, lowest index on ties
    group_ind = _any_present(occ, groups)
    for v in degenerate:
        sizes = [len(g) for g in groups]
        target = int(np.argmin(sizes))
        groups[target] = sorted(groups[target] + [int(v)])

    if len(groups) > 1:
        tree = _max_spanning_tree(pairwise_binary_mi(group_ind))
    else:
        tree = []
    return Skeleton(groups=groups, tree_edges=tree, provenance="built")


# ---------------------------------------------------------------------------
# skeleton text format


def save_skeleton(skeleton: Skeleton, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for j, g in enumerate(skeleton.groups):
            fh.write(f"{j}: " + " ".join(str(int(v)) for v in g) + "\n")
        fh.write("[tree]\n")
        for j, l in skeleton.tree_edges:
            fh.write(f"{j} {l}\n")


def load_skeleton(path, n_visible: int) -> Skeleton:
    """Parse "j: v v v ..." group lines followed by a [tree] section.

    Validates the disjoint-cover and forest invariants; violations raise a
    StructureError naming the problem.
    """
    # (line number, [j, v, ...] tokens) of each group line, and of each tree
    # line its number and text
    group_rows, edge_rows = [], []
    in_tree = False
    for ln, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "[tree]":
            in_tree = True
        elif in_tree:
            edge_rows.append((ln, line))
        else:
            head, colon, rest = line.partition(":")
            if not colon or len(head.split()) != 1:
                raise FileFormatError(f"{path}: expected 'j: v v ...' at line {ln}")
            group_rows.append((ln, [head] + rest.split()))
    # one value per row, so groups of any size read in one call
    values = read_columns([tok for _, row in group_rows for tok in row], np.int64)
    if values is None:
        bad = first_refused([" ".join(row) for _, row in group_rows], np.int64)
        raise FileFormatError(f"{path}: unparseable group line at line {group_rows[bad][0]}")
    group_lines, flat = {}, iter(values[0].tolist())
    for ln, row in group_rows:
        j, *members = [next(flat) for _ in row]
        if j in group_lines:
            raise FileFormatError(f"{path}: duplicate group {j} at line {ln}")
        group_lines[j] = members
    edge = [("pair", np.int64, 2)]
    tree = read_columns([line for _, line in edge_rows], edge)
    if tree is None:
        bad = first_refused([line for _, line in edge_rows], edge)
        raise FileFormatError(f"{path}: malformed tree edge at line {edge_rows[bad][0]}")
    if not group_lines:
        raise FileFormatError(f"{path}: no groups found")
    n_hidden = max(group_lines) + 1
    for j in range(n_hidden):
        if j not in group_lines:
            raise StructureError(f"hidden unit {j} has no group line")
    groups = [group_lines[j] for j in range(n_hidden)]
    for g in groups:
        for v in g:
            if not 0 <= v < n_visible:
                raise StructureError(f"visible index {v} out of range")
    skeleton = Skeleton(groups=groups, tree_edges=tree[0], provenance="loaded")
    # Skeleton checks the cover of 0..max; words above the largest index are
    # checked here
    if skeleton.n_visible < n_visible:
        raise StructureError(f"visible {skeleton.n_visible} unassigned")
    return skeleton


# ---------------------------------------------------------------------------
# conditional mutual information


def _cmi(joint: np.ndarray) -> np.ndarray:
    """CMI over the last three axes (hidden, conditioner, word) of joint.

    Each 2x2x2 block is normalised to a distribution first; zero cells
    contribute zero. Natural log.
    """
    p = joint / joint.sum(axis=(-3, -2, -1), keepdims=True)
    p_zp = p.sum(axis=(-3, -1), keepdims=True)
    block = np.divide(p, p_zp, out=np.zeros_like(p), where=p_zp > 0)  # p(z, v | z')
    indep = block.sum(axis=-1, keepdims=True) * block.sum(axis=-3, keepdims=True)
    ratio = np.divide(block, indep, out=np.ones_like(p), where=p > 0)
    return (p * np.log(ratio)).sum(axis=(-3, -2, -1))


def cmi_from_joint(joint: np.ndarray) -> float:
    """CMI of axes (hidden, word | conditioner) from a 2x2x2 joint.

    joint[z, z', v] holds p(hidden=z, conditioner=z', word=v); zero cells
    contribute zero. Natural log.
    """
    joint = np.asarray(joint, dtype=np.float64)
    if joint.shape != (2, 2, 2):
        raise ValueError("joint must be a 2x2x2 array")
    if joint.sum() <= 0:
        raise ValueError("joint must have positive mass")
    return float(_cmi(joint))


def _skeleton_owner(structure: SbmStructure) -> np.ndarray:
    """Owner map for a skeleton-shaped structure (a partition of the words)."""
    mask = structure.mask()
    owners = mask.sum(axis=0)
    for bad, what in ((owners > 1, "has several hidden owners"), (owners == 0, "unowned")):
        if bad.any():
            raise ValueError("tree model structure is not a skeleton:"
                             f" visible {int(np.argmax(bad))} {what}")
    return mask.argmax(axis=0)


def _posteriors(model: SbmModel, counts):
    """Marginals and edge conditionals of a chunk of count rows (CSR), from
    one sum-product pass: on[:, i] = P(h_j = 1) for the unit j at plan
    position i, shape (B, F); step[:, 0, e] = (P(head on | tail off),
    P(head on | tail on) - P(head on | tail off)) down tree edge e, from
    the plan's parent (the tail) to its child (the head), and step[:, 1, e]
    the same back up; shape (B, 2, E, 2)."""
    plan = model.structure._plan
    lengths = np.asarray(counts.sum(axis=1), dtype=np.float64).ravel()
    theta, edge_logw = _batch_theta(model, counts, lengths)
    singleton, pairwise, _ = tree_sum_product(model.structure, theta, edge_logw)
    # tables[:, way, e, h_tail, h_head]; a tail state of no mass gets
    # conditionals 0
    flip = (plan.edge_parent > plan.edge_child)[:, None, None]
    down = np.where(flip, pairwise.swapaxes(-1, -2), pairwise)
    tables = np.stack([down, down.swapaxes(-1, -2)], axis=1)
    mass = tables.sum(axis=-1)
    step = np.divide(tables[..., 1], mass, out=np.zeros_like(mass), where=mass > 0)
    step[..., 1] -= step[..., 0]
    return singleton[:, plan.order], step


def _pair_joints(plan, on, step, joint) -> np.ndarray:
    """joint[o, :, j] = P(h_o = 1, h_j = 1 | doc) for every pair of units, by
    position in the structure's plan: the (F, B, F) float64 array joint,
    overwritten. With the marginals it gives each pair's whole 2x2 joint.

    The posterior is Markov on the tree: a unit x separating o from j gives
    P(h_o = 1, h_j = 1) = P(h_o = 1 | h_x = 0) P(h_j = 1)
    + (P(h_o = 1 | h_x = 1) - P(h_o = 1 | h_x = 0)) P(h_x = 1, h_j = 1).
    In preorder every subtree and every tree is one range of columns. So
    one step per tree edge and direction extends the row of the edge's
    tail to its head, over the columns j that the tail separates from the
    head: going up, a parent's row over the child's subtree; going down, a
    child's whole row from its parent's, after which the columns of the
    child's own subtree are put back. A root's row outside its tree is the
    product of the two marginals, which every step down keeps a product of
    marginals. That is 2E vectorised steps, and one step per tree.
    """
    b, f = on.shape
    at, end = plan.position.tolist(), plan.end.tolist()
    units = np.arange(f)
    joint[units, :, units] = on.T
    start = 0
    while start < f:  # each tree, its root first
        for cols in (slice(0, start), slice(end[start], f)):
            joint[start, :, cols] = on[:, start, None] * on[:, cols]
        start = end[start]
    term = np.empty((b, f))
    for p, c, e in reversed(plan.down_steps):
        parent, child = at[p], at[c]
        cols = slice(child, end[child])
        np.multiply(joint[child, :, cols], step[:, 1, e, 1, None], out=joint[parent, :, cols])
        joint[parent, :, cols] += np.multiply(on[:, cols], step[:, 1, e, 0, None],
                                              out=term[:, cols])
    for p, c, e in plan.down_steps:
        parent, child = at[p], at[c]
        own = slice(child, end[child])
        kept = joint[child, :, own].copy()
        np.multiply(joint[parent], step[:, 0, e, 1, None], out=joint[child])
        joint[child] += np.multiply(on, step[:, 0, e, 0, None], out=term)
        joint[child, :, own] = kept
    return joint


# Bytes of working memory the CMI stage holds for its documents at any one
# time, whatever the corpus size; _chunk_rows turns it into documents.
_CMI_BUDGET = 8 << 20
_CMI_SCORE_BLOCK = 8  # units per _cmi call, which makes temporaries of its input's size


def _chunk_rows(structure: SbmStructure):
    """(chunk, slice) document counts that keep the CMI stage in budget.

    A chunk's sum-product pass takes about 6F + 33E + 2K floats a document
    (potentials, messages, edge tables and the densest counts), in a
    quarter of the budget. A slice's pair table takes F^2 floats a
    document, in the other three quarters. A chunk is a whole number of
    slices.
    """
    f, n_edges, k = structure.n_hidden, structure.n_tree_edges, structure.n_visible
    quarter = _CMI_BUDGET // 32
    chunk = max(1, quarter // (6 * f + 33 * n_edges + 2 * k))
    rows = max(1, min(chunk, 3 * quarter // (f * f)))
    return chunk // rows * rows, rows


def _chunk_joints(model: SbmModel, corpus: Corpus):
    """(counts, on, joint) for consecutive slices of the corpus: a slice's
    CSR count rows, marginals and pair table (_pair_joints). joint is one
    (F, S, F) array for every slice, S the largest slice; a slice of b < S
    documents fills joint[:, :b] only."""
    csr = corpus.count_csr()
    plan = model.structure._plan
    chunk, rows = _chunk_rows(model.structure)
    f = model.n_hidden
    joint = np.empty((f, min(rows, corpus.n_docs), f))
    for start in range(0, corpus.n_docs, chunk):
        counts = csr[start:start + chunk]
        on, step = _posteriors(model, counts)
        for lo in range(0, counts.shape[0], rows):
            part = slice(lo, lo + rows)
            b = on[part].shape[0]
            _pair_joints(plan, on[part], step[part], joint[:, :b])
            yield counts[part], on[part], joint


def _cells(both_on, first_on, second_on, count):
    """The 2x2 table [h_first, h_second] from the mass with both units on,
    with each unit on, and in all; the last two axes of the result."""
    table = np.stack([count - first_on - second_on + both_on, second_on - both_on,
                      first_on - both_on, both_on], axis=-1)
    return table.reshape(table.shape[:-1] + (2, 2))


def build_cmi_table(tree_model: SbmModel, corpus: Corpus) -> CmiTable:
    """Score every (hidden unit, out-of-group word) pair.

    For each pair, the joint over (posterior of the unit, posterior of the
    word's owner, word presence) is accumulated over all documents and fed
    through the CMI formula. Posteriors come from one exact sum-product pass
    over the tree model per chunk of documents, and every pair of units'
    joint from O(F) vectorised steps per slice of a chunk (_pair_joints),
    both sized to a fixed memory budget (_CMI_BUDGET). One sparse product
    per slice adds each document's joints against the words it holds; the
    absent half is the total joint less the present half.
    """
    structure = tree_model.structure
    owner = _skeleton_owner(structure)
    f = structure.n_hidden
    k = structure.n_visible
    plan = structure._plan
    place = plan.position[owner]

    # over the documents holding word v, with o the owner of v and units at
    # their plan positions: both[v, j] sums P(h_o = 1, h_j = 1), alone[v, j]
    # sums P(h_j = 1); over all documents, total[o, j] sums P(h_o = 1,
    # h_j = 1) and marginal[j] sums P(h_j = 1)
    both, alone = np.zeros((k, f)), np.zeros((k, f))
    total, marginal = np.zeros((f, f)), np.zeros(f)
    for counts, on, joint in _chunk_joints(tree_model, corpus):
        b, stride = counts.shape[0], joint.shape[1]
        docs = np.repeat(np.arange(b), np.diff(counts.indptr))
        words = counts.indices
        ones = np.ones(counts.nnz)
        # row v of `pick` selects row (owner of v, doc) of the table for each
        # document holding word v, row v of `seen` that document
        pick = sp.csr_matrix((ones, (words, place[words] * stride + docs)),
                             shape=(k, f * stride))
        seen = sp.csr_matrix((ones, (words, docs)), shape=(k, b))
        both += pick @ joint.reshape(f * stride, f)
        alone += seen @ on
        total += joint[:, :b].sum(axis=1)
        marginal += on.sum(axis=0)

    held_by = corpus.doc_frequencies().astype(np.float64)
    owner_on = alone[np.arange(k), place]
    score = np.empty((f, k))
    for lo in range(0, f, _CMI_SCORE_BLOCK):
        units = plan.position[lo:lo + _CMI_SCORE_BLOCK]
        # [word, unit, h_unit, h_owner], clipped where differences of sums
        # of probabilities leave a rounding error below zero
        present = np.maximum(_cells(both[:, units], alone[:, units], owner_on[:, None],
                                    held_by[:, None]), 0.0)
        whole = _cells(total[place][:, units], marginal[units][None, :],
                       marginal[place][:, None], float(corpus.n_docs))
        absent = np.maximum(whole - present, 0.0)
        # axes (unit, word, h_unit, h_owner, presence)
        score[lo:lo + units.size] = _cmi(np.stack([absent, present], axis=-1).swapaxes(0, 1))
    words, values = [], []
    for j in range(f):
        candidates = np.flatnonzero(owner != j)
        ranked = candidates[np.lexsort((candidates, -score[j, candidates]))]
        words.append(ranked)
        values.append(score[j, ranked])
    return CmiTable(words, values)


def estimate_cmi(tree_model: SbmModel, corpus: Corpus, j: int, v: int) -> float:
    """Conditional mutual information between hidden unit j and word v given
    the unit owning v, estimated over the corpus."""
    structure = tree_model.structure
    owner = _skeleton_owner(structure)
    if not 0 <= v < structure.n_visible:
        raise ValueError(f"visible index {v} out of range")
    if not 0 <= j < structure.n_hidden:
        raise ValueError(f"hidden index {j} out of range")
    jp = int(owner[v])
    if jp == j:
        raise ValueError(f"word {v} belongs to hidden unit {j}'s own group")
    at, at_owner = structure._plan.position[j], structure._plan.position[jp]
    joint = np.zeros((2, 2, 2))
    for counts, on, table in _chunk_joints(tree_model, corpus):
        pair = np.maximum(_cells(table[at_owner, :counts.shape[0], at], on[:, at],
                                 on[:, at_owner], 1.0), 0.0)
        occ = (counts[:, [v]].toarray().ravel() > 0).astype(np.float64)
        joint[:, :, 0] += np.einsum("bxy,b->xy", pair, 1.0 - occ)
        joint[:, :, 1] += np.einsum("bxy,b->xy", pair, occ)
    return cmi_from_joint(joint)


def save_cmi_table(table: CmiTable, path) -> None:
    """TSV dump: hidden, visible, score."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hidden\tvisible\tscore\n")
        for j, (words, values) in enumerate(zip(table.words, table.values)):
            fh.write("".join(f"{j}\t{v}\t{score!r}\n"
                             for v, score in zip(words.tolist(), values.tolist())))


# ---------------------------------------------------------------------------
# skeleton expansion


def resolve_new_edges(skeleton: Skeleton, m) -> list:
    """Per-unit counts of new connections from an int, fraction or sequence.

    A float in (0, 1) is a target total-degree fraction: each unit ends with
    ceil(m * K) visible connections. An int adds that many edges to every
    unit; a sequence gives per-unit counts directly.
    """
    k = skeleton.n_visible
    if isinstance(m, float):
        if not 0.0 < m < 1.0:
            raise ValueError("fractional target must lie in (0, 1)")
        target = int(np.ceil(m * k))
        return [max(0, target - g.size) for g in skeleton.groups]
    if isinstance(m, (int, np.integer)):
        if m < 0:
            raise ValueError("new-connection count must be non-negative")
        return [int(m)] * skeleton.n_hidden
    counts = [int(x) for x in m]
    if len(counts) != skeleton.n_hidden:
        raise ValueError("per-unit counts must cover every hidden unit")
    if any(c < 0 for c in counts):
        raise ValueError("new-connection counts must be non-negative")
    return counts


def sbm_sfc(
    skeleton: Skeleton,
    tree_model: SbmModel,
    corpus: Corpus,
    m=0.2,
    cmi_table: CmiTable | None = None,
) -> SbmStructure:
    """Expand a skeleton by the highest-CMI out-of-group words per unit.

    m may be a per-unit count of new connections, a target total-degree
    fraction of the vocabulary (default 0.2), or a per-unit sequence.
    Requests beyond the available out-of-group words are clamped with a
    warning. The hidden tree is copied from the skeleton unchanged.
    """
    if tree_model.structure != skeleton:
        raise ValueError("tree model was not trained on this skeleton")
    if corpus.n_words != skeleton.n_visible:
        raise ValueError("corpus vocabulary does not match the skeleton")
    per_unit = resolve_new_edges(skeleton, m)
    if cmi_table is None:
        cmi_table = build_cmi_table(tree_model, corpus)
    k = skeleton.n_visible
    edges = []
    for j, g in enumerate(skeleton.groups):
        available = k - g.size
        want = per_unit[j]
        if want > available:
            warnings.warn(
                f"hidden unit {j}: requested {want} new edges,"
                f" only {available} words available"
            )
            want = available
        edges.extend((j, int(v)) for v in g)
        edges.extend((j, int(v)) for v in cmi_table.words[j][:want])
    return SbmStructure(skeleton.n_hidden, k, edges, skeleton.tree_edges)

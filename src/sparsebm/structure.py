"""Structure learning for sparse Boltzmann machines.

A two-stage greedy grouping over word-occurrence indicators produces a
skeleton (one hidden unit per word group plus a spanning tree over the
groups); externally produced skeletons can be loaded from a simple text
format. The skeleton is then expanded by connecting each hidden unit to the
out-of-group words carrying the highest conditional mutual information,
estimated from exact posteriors of a tree model trained on the skeleton.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .corpus import Corpus
from .errors import FileFormatError, StructureError
from .sbm import SbmModel, SbmStructure, _batch_theta, tree_sum_product

# 99% quantile of chi-squared with one degree of freedom; 2*N*MI of two
# independent binary variables is asymptotically chi-squared(1), so this
# screens out estimation noise when deciding whether a dependence is real.
_CHI2_99_DF1 = 6.6348966010212145


@dataclass
class Skeleton:
    """Disjoint word groups plus a forest over the groups' hidden units."""

    groups: list
    tree_edges: list
    provenance: str = "built"

    def __post_init__(self):
        self.groups = [np.array(sorted(int(v) for v in g), dtype=np.int64) for g in self.groups]
        self.tree_edges = sorted(
            (min(int(j), int(l)), max(int(j), int(l))) for j, l in self.tree_edges
        )
        seen = {}
        for j, g in enumerate(self.groups):
            if g.size == 0:
                raise StructureError(f"hidden unit {j} has an empty group")
            for v in g:
                if int(v) in seen:
                    raise StructureError(f"visible {int(v)} assigned twice")
                seen[int(v)] = j
        k = max(seen) + 1 if seen else 0
        for v in range(k):
            if v not in seen:
                raise StructureError(f"visible {v} unassigned")
        # forest check is delegated to SbmStructure, which owns that invariant
        self.to_structure()

    @property
    def n_hidden(self) -> int:
        return len(self.groups)

    @property
    def n_visible(self) -> int:
        return sum(g.size for g in self.groups)

    def owner_of(self) -> np.ndarray:
        """Array mapping each visible index to its group's hidden unit."""
        owner = np.full(self.n_visible, -1, dtype=np.int64)
        for j, g in enumerate(self.groups):
            owner[g] = j
        return owner

    def to_structure(self) -> SbmStructure:
        return SbmStructure.from_groups(self.groups, self.tree_edges, self.n_visible)


@dataclass
class CmiTable:
    """Per hidden unit, candidate words sorted by descending score."""

    scores: list  # list over hidden units of [(visible index, score), ...]

    def top(self, j: int, m: int):
        return self.scores[j][:m]


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


def build_skeleton(
    corpus: Corpus,
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

    mi_floor="auto" uses a 99% chi-squared significance threshold on 2*N*MI,
    which rejects the positive bias of empirical MI between independent
    variables; a float fixes the floor directly.
    """
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
    group_lines = {}
    tree = []
    in_tree = False
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == "[tree]":
                in_tree = True
                continue
            if in_tree:
                try:
                    j, l = map(int, line.split())
                except ValueError:
                    raise FileFormatError(
                        f"{path}: malformed tree edge at line {ln}"
                    ) from None
                tree.append((j, l))
            else:
                if ":" not in line:
                    raise FileFormatError(
                        f"{path}: expected 'j: v v ...' at line {ln}"
                    )
                head, _, rest = line.partition(":")
                try:
                    j = int(head)
                    members = [int(tok) for tok in rest.split()]
                except ValueError:
                    raise FileFormatError(
                        f"{path}: unparseable group line at line {ln}"
                    ) from None
                if j in group_lines:
                    raise FileFormatError(f"{path}: duplicate group {j} at line {ln}")
                group_lines[j] = members
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
    skeleton = Skeleton(groups=groups, tree_edges=tree, provenance="loaded")
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
    owner = np.full(structure.n_visible, -1, dtype=np.int64)
    for j in range(structure.n_hidden):
        for v in structure.visible_indices(j):
            if owner[v] != -1:
                raise ValueError(
                    "tree model structure is not a skeleton: visible"
                    f" {int(v)} has several hidden owners"
                )
            owner[v] = j
    if np.any(owner < 0):
        missing = int(np.nonzero(owner < 0)[0][0])
        raise ValueError(
            f"tree model structure is not a skeleton: visible {missing} unowned"
        )
    return owner


def _pair_joints(model: SbmModel, counts: np.ndarray, conditioners):
    """P(h_j, h_jp | doc) for every unit j, from one sum-product pass.

    Yields (jp, joint) per conditioner jp, joint of shape (F, 2, 2, B) with
    axes (j, h_j, h_jp, doc). The posterior is Markov on the tree, so inside
    jp's tree the joint chains the edge conditionals P(h_y | h_x) =
    pairwise / marginal outward from jp; units in other trees are
    independent of jp, their joint the product of the two marginals. The
    one joint buffer is refilled for each conditioner: use it before the
    next.
    """
    structure = model.structure
    theta, edge_logw = _batch_theta(model, counts, counts.sum(axis=1))
    singleton, pairwise, _ = tree_sum_product(structure, theta, edge_logw)
    # keep the document axis contiguous: the walks make ~F^2 passes over it
    p_on = np.ascontiguousarray(singleton.T)
    marginal = np.stack([1.0 - p_on, p_on], axis=1)  # (F, 2, B)
    tables = np.ascontiguousarray(np.moveaxis(pairwise, 0, -1))  # (E, h_lo, h_hi, B)
    cond = {}  # (x, y) -> P(h_y | h_x), axes (h_x, h_y, doc)
    for e, (lo, hi) in enumerate(structure.tree_edges):
        for x, y, tab in ((lo, hi, tables[e]), (hi, lo, tables[e].transpose(1, 0, 2))):
            mass = tab.sum(axis=1, keepdims=True)
            cond[x, y] = np.divide(tab, mass, out=np.zeros_like(tab), where=mass > 0)
    eye = np.eye(2)[:, :, None]
    joint = np.empty((structure.n_hidden, 2, 2, counts.shape[0]))
    term = np.empty(joint.shape[1:])
    for jp in conditioners:
        outside = np.flatnonzero(structure.component != structure.component[jp])
        if outside.size:
            joint[outside] = marginal[outside, :, None, :] * marginal[jp][None, None, :, :]
        joint[jp] = eye * marginal[jp][:, None, :]
        walk = [(jp, -1)]
        for x, parent in walk:
            for y, _ in structure.neighbors(x):
                if y != parent:
                    c = cond[x, y]
                    np.multiply(c[0, :, None], joint[x, 0, None], out=joint[y])
                    np.multiply(c[1, :, None], joint[x, 1, None], out=term)
                    joint[y] += term
                    walk.append((y, x))
        yield jp, joint


_CMI_CHUNK = 2048


def _count_chunks(corpus: Corpus):
    """Dense count blocks of _CMI_CHUNK documents, one at a time, in order."""
    for start in range(0, corpus.n_docs, _CMI_CHUNK):
        yield corpus.dense_rows(slice(start, start + _CMI_CHUNK))


def build_cmi_table(tree_model: SbmModel, corpus: Corpus) -> CmiTable:
    """Score every (hidden unit, out-of-group word) pair.

    For each pair, the joint over (posterior of the unit, posterior of the
    word's owner, word presence) is accumulated over all documents and fed
    through the CMI formula. Posteriors come from one exact sum-product pass
    over the tree model per chunk of documents.
    """
    structure = tree_model.structure
    owner = _skeleton_owner(structure)
    f = structure.n_hidden
    k = structure.n_visible

    # acc[j, (h_j, h_owner), absent/present, v]: posterior mass of unit j
    # and the owner of word v against v's presence
    acc = np.zeros((f, 4, 2, k))
    for counts in _count_chunks(corpus):
        for jp, joint in _pair_joints(tree_model, counts, range(f)):
            members = structure.visible_indices(jp)
            present = counts[:, members] > 0
            # one product for the absent and the present columns
            both = np.concatenate([~present, present], axis=1).astype(np.float64)
            acc[:, :, :, members] += (joint.reshape(4 * f, -1) @ both).reshape(f, 4, 2, -1)

    score = _cmi(acc.reshape(f, 2, 2, 2, k).transpose(0, 4, 1, 2, 3))
    scores = []
    for j in range(f):
        words = np.flatnonzero(owner != j)
        ranked = words[np.lexsort((words, -score[j, words]))]
        scores.append(list(zip(ranked.tolist(), score[j, ranked].tolist())))
    return CmiTable(scores=scores)


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
    joint = np.zeros((2, 2, 2))
    for counts in _count_chunks(corpus):
        _, pair = next(_pair_joints(tree_model, counts, [jp]))
        occ = (counts[:, v] > 0).astype(np.float64)
        joint[:, :, 0] += pair[j] @ (1.0 - occ)
        joint[:, :, 1] += pair[j] @ occ
    return cmi_from_joint(joint)


def save_cmi_table(table: CmiTable, path) -> None:
    """TSV dump: hidden, visible, score."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hidden\tvisible\tscore\n")
        for j, rows in enumerate(table.scores):
            for v, score in rows:
                fh.write(f"{j}\t{v}\t{score!r}\n")


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
    if tree_model.structure != skeleton.to_structure():
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
        edges.extend((j, v) for v, _ in cmi_table.top(j, want))
    return SbmStructure(skeleton.n_hidden, k, edges, skeleton.tree_edges)

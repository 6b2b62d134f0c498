"""Synthetic sparse-topic corpora with known group structure.

Documents are generated from a small set of word groups: each document
activates a random subset of groups and draws its tokens from the active
groups' words plus uniform background noise. Optional planted cross-group
correlations inject a target word whenever a foreign source group is
active, giving known ground truth for structure-expansion checks.
"""
from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document, save_uci_bow
from .util import rng_from

_GEN_STREAM = 51


@dataclass
class SyntheticCorpus:
    corpus: Corpus
    word_group: np.ndarray  # group id per word
    planted: list  # (source_group, target_word) pairs
    group_words: list  # word indices per group


def split_groups(n_words: int, n_groups: int):
    """Near-equal contiguous partition of word indices into groups."""
    base = n_words // n_groups
    extra = n_words % n_groups
    groups = []
    start = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(np.arange(start, start + size))
        start += size
    return groups


def _word_groups(n_words, n_groups, doc_len_range, planted):
    """The set-up both generators share: check the settings, then
    (groups, word_group, planted) with planted as (group, word) int pairs,
    each group in [0, n_groups) and each word in [0, n_words) outside that
    group."""
    if n_groups < 1 or n_words < n_groups:
        raise ValueError("need at least one word per group")
    lo, hi = doc_len_range
    if lo < 1 or hi < lo:
        raise ValueError("bad document length range")
    groups = split_groups(n_words, n_groups)
    word_group = np.empty(n_words, dtype=np.int64)
    for g, members in enumerate(groups):
        word_group[members] = g
    planted = [(int(g), int(w)) for g, w in planted or []]
    for g, w in planted:
        if not 0 <= g < n_groups:
            raise ValueError(f"planted pair ({g}, {w}): group {g} is outside [0, {n_groups})")
        if not 0 <= w < n_words:
            raise ValueError(f"planted pair ({g}, {w}): word {w} is outside [0, {n_words})")
        if word_group[w] == g:
            raise ValueError(f"planted pair ({g}, {w}): word {w} already belongs to group {g}")
    return groups, word_group, planted


def _synthetic(docs, groups, word_group, planted, name) -> SyntheticCorpus:
    vocab = [f"w{k:03d}" for k in range(word_group.size)]
    return SyntheticCorpus(Corpus(vocab, docs, name=name), word_group, planted, groups)


def sparse_topic_corpus(
    n_docs: int,
    seed: int,
    n_words: int = 60,
    n_groups: int = 8,
    doc_len_range=(20, 50),
    activation_p: float = 0.25,
    pair_coupling: float = 0.0,
    background: float = 0.05,
    planted=None,
    planted_rate: float = 0.35,
    name: str = "synthetic",
) -> SyntheticCorpus:
    """Generate a corpus with block-structured word co-occurrence.

    Groups activate independently with probability activation_p; documents
    whose draw activates nothing become pure background noise, which keeps
    the activations exactly independent. With pair_coupling > 0,
    consecutive group pairs (0,1), (2,3), ... re-use the partner's state
    with that probability, giving the hidden layer real correlations to
    model. planted is a list of (source_group, target_word) pairs; whenever
    the source group is active, the target word is injected into the
    document with probability planted_rate, creating a cross-group
    dependence that the word's own group cannot explain.
    """
    groups, word_group, planted = _word_groups(n_words, n_groups, doc_len_range, planted)
    lo, hi = doc_len_range
    rng = rng_from(seed, _GEN_STREAM)

    base_uniform = np.full(n_words, 1.0 / n_words)
    docs = []
    for _ in range(n_docs):
        z = rng.random(n_groups) < activation_p
        for t in range(0, n_groups - 1, 2):
            if rng.random() < pair_coupling:
                z[t + 1] = z[t]
        active = np.nonzero(z)[0]
        if active.size:
            mix = np.zeros(n_words)
            for g in active:
                members = groups[g]
                mix[members] += 1.0 / (active.size * members.size)
            p = background * base_uniform + (1.0 - background) * mix
        else:
            p = base_uniform
        d = int(rng.integers(lo, hi + 1))
        counts = rng.multinomial(d, p)
        for g, w in planted:
            if z[g] and rng.random() < planted_rate:
                counts[w] += 1
        words = np.nonzero(counts)[0]
        docs.append(Document(words, counts[words]))

    return _synthetic(docs, groups, word_group, planted, name)


def boltzmann_corpus(
    n_docs: int,
    seed: int,
    n_words: int = 60,
    n_groups: int = 8,
    doc_len_range=(20, 50),
    group_weight: float = 2.5,
    tree_weight: float = 0.02,
    planted=None,
    planted_weight: float = 1.4,
    target_activation: float = 0.25,
    name: str = "synthetic-bm",
):
    """Sample documents from a ground-truth sparse Boltzmann machine.

    The true model has one hidden unit per word group with group_weight on
    its own words, a chain of tree couplings, and optional planted edges
    from a hidden unit to a word outside its group. Hidden biases are
    calibrated per unit so every group's activation rate is close to
    target_activation at the middle document length; without this, the
    softmax normalizer term lets larger groups monopolise the hidden
    prior. Sampling is exact: the hidden prior, with the visible layer
    summed out in closed form, is enumerated per document length, then
    tokens are drawn from the conditional softmax.

    Returns (SyntheticCorpus, SbmModel) with the generating model attached.
    """
    from .evaluation import _hidden_marginal_chunks
    from .sbm import SbmModel, SbmStructure

    groups, word_group, planted = _word_groups(n_words, n_groups, doc_len_range, planted)
    lo, hi = doc_len_range
    rng = rng_from(seed, _GEN_STREAM, 2)

    edges = [(g, int(k)) for g, members in enumerate(groups) for k in members]
    edges += planted
    tree = [(g, g + 1) for g in range(n_groups - 1)]
    structure = SbmStructure(n_groups, n_words, edges, tree)

    w_mat = np.zeros((n_groups, n_words))
    for g, members in enumerate(groups):
        w_mat[g, members] = group_weight
    for g, w in planted:
        w_mat[g, w] = planted_weight
    wt = np.full(len(tree), tree_weight)
    b = np.zeros(n_words)

    # the hidden marginal without the bias term, a.h, which the calibration
    # below adds per state
    unbiased = SbmModel(structure, w_mat, wt, np.zeros(n_groups), b)
    states, free, p_vis = map(np.concatenate, zip(*_hidden_marginal_chunks(unbiased)))

    def hidden_prior(d, a_vec):
        logits = d * (states @ a_vec + free)
        logits -= logits.max()
        p = np.exp(logits)
        return p / p.sum()

    # coordinate-wise bisection of each unit's bias toward the target rate
    # at the middle length
    mid = (lo + hi) / 2.0
    a = np.full(n_groups, -5.0)
    for _ in range(8):
        for g in range(n_groups):
            g_lo, g_hi = -20.0, 5.0
            for _ in range(40):
                a[g] = 0.5 * (g_lo + g_hi)
                if (hidden_prior(mid, a) @ states)[g] > target_activation:
                    g_hi = a[g]
                else:
                    g_lo = a[g]

    truth = SbmModel(structure, w_mat, wt, a, b)

    hidden_dist = {d: hidden_prior(d, a) for d in range(lo, hi + 1)}

    docs = []
    for _ in range(n_docs):
        d = int(rng.integers(lo, hi + 1))
        s = int(rng.choice(states.shape[0], p=hidden_dist[d]))
        counts = rng.multinomial(d, p_vis[s])
        words = np.nonzero(counts)[0]
        docs.append(Document(words, counts[words]))

    return _synthetic(docs, groups, word_group, planted, name), truth


def planted_pair(spec: str):
    """The --plant type: "source_group:target_word" as an int pair."""
    g, w = spec.split(":")
    return int(g), int(w)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="write a synthetic sparse-topic corpus as UCI docword/vocab files"
    )
    parser.add_argument("prefix", help="output prefix; writes PREFIX.docword.txt and PREFIX.vocab.txt")
    parser.add_argument("--docs", type=int, default=3300)
    parser.add_argument("--words", type=int, default=60)
    parser.add_argument("--groups", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--plant", action="append", default=[], type=planted_pair,
        help="source_group:target_word planted correlation, repeatable; the group"
             " must be in [0, groups) and the word in [0, words), outside that group",
    )
    args = parser.parse_args(argv)
    try:
        made = sparse_topic_corpus(
            args.docs, args.seed, n_words=args.words, n_groups=args.groups,
            planted=args.plant,
        )
    except ValueError as err:
        parser.error(str(err))
    save_uci_bow(made.corpus, f"{args.prefix}.docword.txt", f"{args.prefix}.vocab.txt")
    print(f"wrote {made.corpus.n_docs} docs over {made.corpus.n_words} words")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

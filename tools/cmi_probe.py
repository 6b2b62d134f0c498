"""Time and memory of the CMI table (`structure.build_cmi_table`) as F grows.

For each number of word groups F, the probe generates a `sparse_topic_corpus`
(K words, documents of 100-400 tokens, the structure-k1000 corpus family),
builds its skeleton, trains the tree model for one epoch and then builds the
CMI table twice: once untraced, for its wall time, and once under
tracemalloc, for the peak of traced allocation above the call's start. With
several document counts it reports each, so a peak that grows with the
corpus shows.

    PYTHONPATH=src python tools/cmi_probe.py                 # F=100, 300 at 4,000 docs
    PYTHONPATH=src python tools/cmi_probe.py --small         # a few seconds
    PYTHONPATH=src python tools/cmi_probe.py --groups 100 --docs 1000 4000

Every line printed is one (F, documents) case. The probe writes no file.
"""
import argparse
import time
import tracemalloc

from sparsebm.sbm import TrainConfig, sbm_train
from sparsebm.structure import build_cmi_table, build_skeleton
from sparsebm.synthetic import sparse_topic_corpus


def probe(n_groups, n_docs, n_words, doc_len, seed):
    corpus = sparse_topic_corpus(n_docs, seed, n_words=n_words, n_groups=n_groups,
                                 doc_len_range=doc_len, activation_p=0.05).corpus
    skeleton = build_skeleton(corpus, island_max=-(-n_words // n_groups),
                              supergroup_max=1, mi_floor=0.01)
    config = TrainConfig(epochs=1, cd_steps=1, learning_rate=0.005, batch_size=100,
                         seed=seed, visible_bias_init="log-frequency",
                         hidden_bias_lr_scale="auto")
    model = sbm_train(corpus, skeleton.to_structure(), config)
    start = time.perf_counter()
    build_cmi_table(model, corpus)
    wall = time.perf_counter() - start
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_cmi_table(model, corpus)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return skeleton.n_hidden, wall, peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--groups", type=int, nargs="+", default=[100, 300],
                        help="word groups of the generated corpus (default 100 300)")
    parser.add_argument("--docs", type=int, nargs="+", default=[4000],
                        help="documents per corpus (default 4000)")
    parser.add_argument("--words", type=int, default=1000, help="vocabulary size K")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--small", action="store_true",
                        help="F=10 and 30 at K=200, 200 and 800 documents of 20-80 tokens")
    args = parser.parse_args(argv)
    doc_len = (100, 400)
    if args.small:
        args.groups, args.docs, args.words, doc_len = [10, 30], [200, 800], 200, (20, 80)
    for n_groups in args.groups:
        for n_docs in args.docs:
            f, wall, peak = probe(n_groups, n_docs, args.words, doc_len, args.seed)
            print(f"groups {n_groups} F {f} docs {n_docs} K {args.words}:"
                  f" cmi table {wall:.2f} s, tracemalloc peak {peak / 2**20:.1f} MB",
                  flush=True)


if __name__ == "__main__":
    main()

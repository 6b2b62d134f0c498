"""Save and load times of the input, model and structure files at benchmark
shapes.

The probe builds seven objects with random parameters (seed 0) and times
the writer and the reader of each, best of 9 calls (3 with --small):

- structure: an sbm-structure with F units, K words, 200 visible edges a
  unit (20,000 edges, as structure-k1000's expanded.struct) and a random
  spanning tree over the units;
- tree model: an sbm-model on a skeleton, each word in one of F equal
  groups, with a spanning tree (ais-k1000's tree.sbm);
- dense rs: an F x K rs-model (ais-k1000's dense.rs);
- pruned rs: an rs-model whose [mask] keeps 200 words of each unit;
- corpus: a UCI docword/vocab pair of 20,000 documents over K words, each
  holding 10-59 distinct words with counts of 1-3 (the shape of
  tools/eval_probe.py's held-out set at 20,000 documents);
- skeleton: the tree model's F groups and spanning tree as a skeleton file;
- embeddings: a K-word table of 50 values a word.

F=100 and K=1000; --small uses F=20, K=200, 40 words a unit and 1,000
documents. Each load is checked to give back the object saved. Set
OPENBLAS_NUM_THREADS=1 to compare runs.

    PYTHONPATH=src python tools/io_probe.py              # benchmark shapes
    PYTHONPATH=src python tools/io_probe.py --small      # a few seconds

Every line printed is one file. The files go to a temporary directory that
is removed at the end.
"""
import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from sparsebm.corpus import Corpus, Document, load_uci_bow, save_uci_bow
from sparsebm.evaluation import EmbeddingTable, load_embeddings
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
from sparsebm.structure import Skeleton, load_skeleton, save_skeleton


def random_tree(rng, n):
    """A random spanning tree over n units: each unit after the first joins
    an earlier one."""
    return [(int(rng.integers(j)), j) for j in range(1, n)]


def per_unit_mask(rng, f, k, per_unit):
    mask = np.zeros((f, k), dtype=bool)
    for j in range(f):
        mask[j, rng.choice(k, per_unit, replace=False)] = True
    return mask


def save_corpus(corpus, path):
    save_uci_bow(corpus, path, path.with_name("heldout.vocab.txt"))


def load_corpus(path):
    return load_uci_bow(path, path.with_name("heldout.vocab.txt"))[0]


def save_embeddings(table, path):
    path.write_text("".join(f"{word} {' '.join(map(repr, vector.tolist()))}\n"
                            for word, vector in table.vectors.items()), encoding="utf-8")


def cases(f, k, per_unit, n_docs):
    """(name, file name, object, save, load, same) for each probed file."""
    rng = np.random.default_rng(0)
    structure = SbmStructure.from_mask(per_unit_mask(rng, f, k, per_unit), random_tree(rng, f))
    skeleton = Skeleton.from_mask(np.arange(k) // -(-k // f) == np.arange(f)[:, None],
                                  random_tree(rng, f))
    tree = SbmModel(skeleton, np.where(skeleton.mask(), rng.normal(0, 0.1, (f, k)), 0.0),
                    rng.normal(0, 0.1, f - 1), rng.normal(0, 0.1, f), rng.normal(0, 1, k))
    dense = RsModel(rng.normal(0, 0.1, (f, k)), rng.normal(0, 0.1, f), rng.normal(0, 1, k))
    mask = per_unit_mask(rng, f, k, per_unit)
    pruned = SbmModel(SbmStructure.from_mask(mask, []), np.where(mask, dense.W, 0.0), (),
                      dense.a, dense.b)
    words = [f"w{i}" for i in range(k)]
    corpus = Corpus(words, [Document(rng.choice(k, size, replace=False), rng.integers(1, 4, size))
                            for size in rng.integers(10, 60, n_docs)])
    embeddings = EmbeddingTable(dict(zip(words, rng.normal(0, 1, (k, 50)))), 50)

    def same_model(a, b):
        return a.structure == b.structure and all(
            np.array_equal(getattr(a, n), getattr(b, n)) for n in ("W", "Wt", "a", "b"))

    return [
        ("structure", "expanded.struct", structure, save_structure, load_structure,
         lambda a, b: a == b),
        ("tree model", "tree.sbm", tree, save_sbm_model, load_sbm_model, same_model),
        ("dense rs", "dense.rs", dense, save_rs_model, load_rs_model, same_model),
        ("pruned rs", "pruned.rs", (pruned, mask),
         lambda obj, path: save_pruned_rs(obj[0], obj[1], path), load_pruned_rs,
         lambda a, b: same_model(a[0], b[0]) and np.array_equal(a[1], b[1])),
        ("corpus", "heldout.docword.txt", corpus, save_corpus, load_corpus,
         lambda a, b: a.vocab == b.vocab and (a.count_csr() != b.count_csr()).nnz == 0),
        ("skeleton", "skeleton.txt", skeleton, save_skeleton,
         lambda path: load_skeleton(path, k), lambda a, b: a == b),
        ("embeddings", "embeddings.txt", embeddings, save_embeddings, load_embeddings,
         lambda a, b: a.dim == b.dim and list(a.vectors) == list(b.vectors) and all(
             np.array_equal(a.vectors[w], b.vectors[w]) for w in a.vectors)),
    ]


def best_ms(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


# (F, K, visible edges a unit, documents, timed calls) at benchmark shapes and with --small
SHAPES = {False: (100, 1000, 200, 20000, 9), True: (20, 200, 40, 1000, 3)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true",
                        help="F=20, K=200, 1,000 documents, 3 repeats")
    f, k, per_unit, n_docs, repeats = SHAPES[parser.parse_args(argv).small]
    with tempfile.TemporaryDirectory() as scratch:
        for name, file_name, obj, save, load, same in cases(f, k, per_unit, n_docs):
            path = Path(scratch) / file_name
            save_ms = best_ms(lambda: save(obj, path), repeats)
            if not same(load(path), obj):
                raise SystemExit(f"{path}: loading did not give back the {name} saved")
            load_ms = best_ms(lambda: load(path), repeats)
            lines = path.read_text().count("\n")
            print(f"{name} F {f} K {k}: {file_name} {lines} lines,"
                  f" save {save_ms:.1f} ms, load {load_ms:.1f} ms", flush=True)


if __name__ == "__main__":
    main()

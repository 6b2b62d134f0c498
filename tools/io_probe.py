"""Save and load times of the model and structure files at benchmark shapes.

The probe builds four objects with random parameters (seed 0) and times
the writer and the reader of each, best of 9 calls (3 with --small):

- structure: an sbm-structure with F units, K words, 200 visible edges a
  unit (20,000 edges, as structure-k1000's expanded.struct) and a random
  spanning tree over the units;
- tree model: an sbm-model on a skeleton, each word in one of F equal
  groups, with a spanning tree (ais-k1000's tree.sbm);
- dense rs: an F x K rs-model (ais-k1000's dense.rs);
- pruned rs: an rs-model whose [mask] keeps 200 words of each unit.

F=100 and K=1000; --small uses F=20, K=200 and 40 words a unit. Each load
is checked to give back the object saved. Set OPENBLAS_NUM_THREADS=1 to
compare runs.

    PYTHONPATH=src python tools/io_probe.py              # benchmark shapes
    PYTHONPATH=src python tools/io_probe.py --small      # a second or two

Every line printed is one file. The files go to a temporary directory that
is removed at the end.
"""
import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

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


def random_tree(rng, n):
    """A random spanning tree over n units: each unit after the first joins
    an earlier one."""
    return [(int(rng.integers(j)), j) for j in range(1, n)]


def per_unit_mask(rng, f, k, per_unit):
    mask = np.zeros((f, k), dtype=bool)
    for j in range(f):
        mask[j, rng.choice(k, per_unit, replace=False)] = True
    return mask


def cases(f, k, per_unit):
    """(name, file name, object, save, load, same) for each probed file."""
    rng = np.random.default_rng(0)
    structure = SbmStructure.from_mask(per_unit_mask(rng, f, k, per_unit), random_tree(rng, f))
    skeleton = SbmStructure.from_mask(np.arange(k) // -(-k // f) == np.arange(f)[:, None],
                                      random_tree(rng, f))
    tree = SbmModel(skeleton, np.where(skeleton.mask(), rng.normal(0, 0.1, (f, k)), 0.0),
                    rng.normal(0, 0.1, f - 1), rng.normal(0, 0.1, f), rng.normal(0, 1, k))
    dense = RsModel(rng.normal(0, 0.1, (f, k)), rng.normal(0, 0.1, f), rng.normal(0, 1, k))
    mask = per_unit_mask(rng, f, k, per_unit)
    pruned = SbmModel(SbmStructure.from_mask(mask, []), np.where(mask, dense.W, 0.0), (),
                      dense.a, dense.b)

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
    ]


def best_ms(call, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


# (F, K, visible edges a unit, timed calls) at benchmark shapes and with --small
SHAPES = {False: (100, 1000, 200, 9), True: (20, 200, 40, 3)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true", help="F=20, K=200, 3 repeats")
    f, k, per_unit, repeats = SHAPES[parser.parse_args(argv).small]
    with tempfile.TemporaryDirectory() as scratch:
        for name, file_name, obj, save, load, same in cases(f, k, per_unit):
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

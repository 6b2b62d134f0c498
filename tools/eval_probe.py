"""Memory and time of held-out scoring (`sparsebm eval --exact`) as the
number of documents grows.

For each document count the probe writes a synthetic held-out set (K=1000
words; each document holds 10-59 distinct words, chosen uniformly, with
counts of 1-3) and an F=12 unit Replicated Softmax model with random weights,
all drawn from seed 0. It then runs two fresh Python processes on those
files: one that only loads the corpus and the model, and one that runs
`sparsebm eval --exact` on them. Each reports its wall time and its VmHWM
(peak resident memory, from /proc/self/status, so Linux only); eval's VmHWM
less the load's is what scoring adds over loading. Set
OPENBLAS_NUM_THREADS=1 to compare runs.

    PYTHONPATH=src python tools/eval_probe.py                  # 5,000, 20,000, 50,000 docs
    PYTHONPATH=src python tools/eval_probe.py --small          # a few seconds
    PYTHONPATH=src python tools/eval_probe.py --docs 50000 200000

Every line printed is one document count. The files go to a temporary
directory that is removed at the end.
"""
import argparse
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from sparsebm import cli
from sparsebm.corpus import Corpus, Document, load_uci_bow, save_uci_bow
from sparsebm.replicated_softmax import RsModel, load_rs_model, save_rs_model

# vocabulary size K, hidden units F (2^F K at most 2^25) and the seed of every draw
N_WORDS, N_HIDDEN, SEED = 1000, 12, 0


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_inputs(out: Path, n_docs: int):
    """A held-out corpus <out>/heldout_<n_docs> and the model <out>/model.rs."""
    rng = np.random.default_rng(SEED)
    model = RsModel(rng.normal(0.0, 0.1, (N_HIDDEN, N_WORDS)),
                    rng.normal(0.0, 0.1, N_HIDDEN), rng.normal(0.0, 1.0, N_WORDS))
    save_rs_model(model, out / "model.rs")
    docs = []
    for size in rng.integers(10, 60, n_docs):
        docs.append(Document(rng.choice(N_WORDS, size, replace=False),
                             rng.integers(1, 4, size)))
    corpus = Corpus([f"w{i}" for i in range(N_WORDS)], docs)
    prefix = out / f"heldout_{n_docs}"
    save_uci_bow(corpus, f"{prefix}.docword.txt", f"{prefix}.vocab.txt")
    return prefix, corpus.count_csr().nnz


def child(mode: str, prefix: str, model_path: str, output: str) -> None:
    """Load, or eval, in this fresh process; print wall seconds and VmHWM."""
    start = time.perf_counter()
    if mode == "load":
        load_rs_model(model_path)
        load_uci_bow(f"{prefix}.docword.txt", f"{prefix}.vocab.txt")
    else:
        argv = ["eval", "--model", model_path, "--docs", prefix, "--exact", "-o", output]
        code = cli.cmd_dispatch(argv)
        if code:
            sys.exit(code)
    print(f"{time.perf_counter() - start:.3f} {vm_hwm_mb():.1f}")


def run_child(mode: str, prefix: Path, model_path: Path, output: Path):
    result = subprocess.run(
        [sys.executable, __file__, "--child", mode, str(prefix), str(model_path),
         str(output)],
        check=True, capture_output=True, text=True,
    )
    wall, hwm = result.stdout.split()[-2:]
    return float(wall), float(hwm)


def probe(out: Path, n_docs: int) -> str:
    prefix, nnz = write_inputs(out, n_docs)
    model_path = out / "model.rs"
    load_s, load_mb = run_child("load", prefix, model_path, out / "unused.tsv")
    eval_s, eval_mb = run_child("eval", prefix, model_path, out / f"eval_{n_docs}.tsv")
    return (f"docs {n_docs} K {N_WORDS} F {N_HIDDEN} nnz {nnz}:"
            f" load {load_s:.2f} s VmHWM {load_mb:.0f} MB;"
            f" eval --exact {eval_s:.2f} s VmHWM {eval_mb:.0f} MB;"
            f" eval less load {eval_mb - load_mb:.0f} MB")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--docs", type=int, nargs="+", default=[5000, 20000, 50000],
                        help="held-out documents per case (default 5000 20000 50000)")
    parser.add_argument("--small", action="store_true", help="1,000 and 4,000 documents")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return
    if args.small:
        args.docs = [1000, 4000]
    with tempfile.TemporaryDirectory() as scratch:
        for n_docs in args.docs:
            print(probe(Path(scratch), n_docs), flush=True)


if __name__ == "__main__":
    main()

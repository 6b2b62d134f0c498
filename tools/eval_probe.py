"""Memory and time of held-out scoring (`sparsebm eval --exact`) as the
number of documents grows.

For each document count the probe writes a synthetic held-out set (K words;
each document holds 10-59 distinct words, chosen uniformly, with counts of
1-3) and an F-unit Replicated Softmax model with random weights. It then runs
two fresh Python processes on those files: one that only loads the corpus
and the model, and one that runs `sparsebm eval --exact` on them. Each reports
its wall time and its VmHWM (peak resident memory, from /proc/self/status,
so Linux only); eval's VmHWM less the load's is what scoring adds over
loading. Set OPENBLAS_NUM_THREADS=1 to compare runs.

    PYTHONPATH=src python tools/eval_probe.py                  # 5,000, 20,000, 50,000 docs
    PYTHONPATH=src python tools/eval_probe.py --small          # a few seconds
    PYTHONPATH=src python tools/eval_probe.py --docs 5000 --dir /tmp/probe

Every line printed is one document count. The files go to a temporary
directory that is removed at the end, or to --dir, which is kept, with each
eval TSV as eval_<docs>.tsv.
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


def vm_hwm_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def write_inputs(out: Path, n_docs: int, n_words: int, n_hidden: int, seed: int):
    """A held-out corpus <out>/heldout_<n_docs> and the model <out>/model.rs."""
    rng = np.random.default_rng(seed)
    model = RsModel(rng.normal(0.0, 0.1, (n_hidden, n_words)),
                    rng.normal(0.0, 0.1, n_hidden), rng.normal(0.0, 1.0, n_words))
    save_rs_model(model, out / "model.rs")
    docs = []
    for size in rng.integers(10, 60, n_docs):
        docs.append(Document(rng.choice(n_words, size, replace=False),
                             rng.integers(1, 4, size)))
    corpus = Corpus([f"w{i}" for i in range(n_words)], docs)
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


def probe(out: Path, n_docs: int, n_words: int, n_hidden: int, seed: int) -> str:
    prefix, nnz = write_inputs(out, n_docs, n_words, n_hidden, seed)
    model_path = out / "model.rs"
    load_s, load_mb = run_child("load", prefix, model_path, out / "unused.tsv")
    eval_s, eval_mb = run_child("eval", prefix, model_path, out / f"eval_{n_docs}.tsv")
    return (f"docs {n_docs} K {n_words} F {n_hidden} nnz {nnz}:"
            f" load {load_s:.2f} s VmHWM {load_mb:.0f} MB;"
            f" eval --exact {eval_s:.2f} s VmHWM {eval_mb:.0f} MB;"
            f" eval less load {eval_mb - load_mb:.0f} MB")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--docs", type=int, nargs="+", default=[5000, 20000, 50000],
                        help="held-out documents per case (default 5000 20000 50000)")
    parser.add_argument("--words", type=int, default=1000, help="vocabulary size K")
    parser.add_argument("--hidden", type=int, default=12,
                        help="hidden units F of the model (2^F K at most 2^25)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", type=Path, default=None,
                        help="write and keep the files here (default: a temporary directory)")
    parser.add_argument("--small", action="store_true", help="1,000 and 4,000 documents")
    parser.add_argument("--child", nargs=4, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(*args.child)
        return
    if args.small:
        args.docs = [1000, 4000]
    with tempfile.TemporaryDirectory() as scratch:
        out = args.dir or Path(scratch)
        out.mkdir(parents=True, exist_ok=True)
        for n_docs in args.docs:
            print(probe(out, n_docs, args.words, args.hidden, args.seed), flush=True)


if __name__ == "__main__":
    main()

"""The benchmark's workloads.

Each workload makes its inputs from the seed (`setup`), names the sparsebm
CLI commands one measured run executes (`commands`), and checks what a run
wrote (`check`). Field defaults are the benchmark's sizes; the smoke test
builds the same classes at tiny sizes. See README.md for why each workload
exists.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

from sparsebm.corpus import save_uci_bow
from sparsebm.replicated_softmax import TrainConfig, rs_train, save_rs_model
from sparsebm.sbm import load_sbm_model, load_structure, save_sbm_model, sbm_train
from sparsebm.structure import build_skeleton, load_skeleton
from sparsebm.synthetic import boltzmann_corpus, sparse_topic_corpus, split_groups

CMI_FLOOR = -1e-9


# ---------------------------------------------------------------------------
# shared helpers


def sha256_files(base: Path, names) -> dict:
    out = {}
    for name in sorted(names):
        h = hashlib.sha256()
        with open(base / name, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out


def artifact_hashes(out_dir: Path) -> dict:
    """sha256 of every file a run wrote, manifests excepted (they hold wall times)."""
    names = [str(p.relative_to(out_dir)) for p in out_dir.rglob("*")
             if p.is_file() and not p.name.endswith(".manifest.json")]
    return sha256_files(out_dir, names)


def _positive_finite(x):
    return math.isfinite(x) and x > 0


def read_report(path: Path) -> dict:
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        variant, _f, _degree, ppl = line.split("\t")
        rows[variant] = float(ppl)
    return rows


def read_cmi(path: Path) -> dict:
    """unit -> [(word, score)] in file order (best first)."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        j, v, score = line.split("\t")
        rows.setdefault(int(j), []).append((int(v), float(score)))
    return rows


def check_cmi(cmi: dict, groups) -> list:
    """Scores >= -1e-9 and exactly one row per (unit, out-of-group word)."""
    problems = []
    k = sum(len(g) for g in groups)
    low = [(j, v, s) for j, rows in cmi.items() for v, s in rows if not s >= CMI_FLOOR]
    if low:
        problems.append(f"cmi.tsv: {len(low)} scores below {CMI_FLOOR}, first {low[0]}")
    for j, g in enumerate(groups):
        own = {int(v) for v in g}
        want = sorted(set(range(k)) - own)
        got = sorted(v for v, _ in cmi.get(j, []))
        if got != want:
            problems.append(f"cmi.tsv: unit {j} has {len(got)} rows, want one per"
                            f" out-of-group word ({len(want)})")
            break
    extra = set(cmi) - set(range(len(groups)))
    if extra:
        problems.append(f"cmi.tsv: rows for unknown units {sorted(extra)[:5]}")
    return problems


# the acceptance suite's training settings, epochs aside
TRAIN_DEFAULTS = {"cd_steps": 5, "learning_rate": 0.005, "batch_size": 100,
                  "weight_init_std": 0.1, "visible_bias_init": "log-frequency",
                  "hidden_bias_lr_scale": "auto"}


def pipeline_command(work: Path, run_dir: str, seed: int, n_train: int, n_test: int,
                     island_max: int, epochs: int, **sections) -> list:
    """Write a pipeline config for one run and return its CLI arguments."""
    config = {
        "corpus": {"docword": "corpus.docword.txt", "vocab": "corpus.vocab.txt"},
        "split": {"n_train": n_train, "n_test": n_test, "seed": seed},
        "skeleton": {"island_max": island_max, "supergroup_max": 1, "mi_floor": 0.01},
        "train_defaults": {**TRAIN_DEFAULTS, "epochs": epochs},
        "expand": {"fraction": 0.2},
        **sections,
        "seed": seed,
        "out_dir": f"{run_dir}/out",
    }
    path = f"{run_dir}/pipeline.json"
    (work / path).write_text(json.dumps(config, indent=1), encoding="utf-8")
    return [["pipeline", "--config", path]]


# ---------------------------------------------------------------------------
# pipeline-k60


@dataclass
class PipelineWorkload:
    """`sparsebm pipeline` on the acceptance-suite config, all four variants."""

    name: str = "pipeline-k60"
    n_docs: int = 3300
    n_train: int = 3000
    n_test: int = 300
    n_words: int = 60
    n_groups: int = 8
    planted: tuple = ((0, 9), (2, 25))
    island_max: int = 8
    epochs: int = 10
    ais_runs: int = 50
    schedule: tuple = ((0.0, 0.5, 20), (0.5, 0.9, 40), (0.9, 1.0, 60))

    variants = ("rs_plus", "rs_plus_sfc", "rs_plus_pruned", "sbm_sfc")
    quality_names = tuple(f"ppl_{v}" for v in sorted(variants))

    def setup(self, work: Path, seed: int) -> dict:
        made, _ = boltzmann_corpus(self.n_docs, seed=seed, n_words=self.n_words,
                                   n_groups=self.n_groups, planted=list(self.planted))
        save_uci_bow(made.corpus, work / "corpus.docword.txt", work / "corpus.vocab.txt")
        return {"inputs": ["corpus.docword.txt", "corpus.vocab.txt"]}

    def commands(self, work: Path, seed: int, run_dir: str) -> list:
        return pipeline_command(
            work, run_dir, seed, self.n_train, self.n_test, self.island_max, self.epochs,
            eval={"ais_runs": self.ais_runs,
                  "schedule": [list(s) for s in self.schedule], "seed": seed},
            variants=list(self.variants),
        )

    def check(self, out: Path, meta: dict):
        problems = []
        report = read_report(out / "report.tsv")
        if sorted(report) != sorted(self.variants):
            problems.append(f"report.tsv variants {sorted(report)}")
        quality = {}
        for variant, ppl in report.items():
            if not _positive_finite(ppl):
                problems.append(f"report.tsv: {variant} perplexity {ppl}")
            quality[f"ppl_{variant}"] = ppl
        off = load_sbm_model(out / "sbm_sfc.sbm").off_structure_weight()
        if off != 0.0:
            problems.append(f"sbm_sfc.sbm: off-structure weight {off!r}, want 0")
        skeleton = load_skeleton(out / "skeleton.txt", self.n_words)
        problems += check_cmi(read_cmi(out / "cmi.tsv"), skeleton.groups)
        return problems, quality


# ---------------------------------------------------------------------------
# paper-scale corpus family shared by structure-k1000 and ais-k1000


@dataclass
class _TopicCorpus:
    n_words: int = 1000
    n_groups: int = 100
    doc_len: tuple = (100, 400)
    activation_p: float = 0.05
    island_max: int = 10

    def planted(self):
        """One out-of-group word per group: the last word of the next group."""
        groups = split_groups(self.n_words, self.n_groups)
        return [(g, int(groups[(g + 1) % self.n_groups][-1]))
                for g in range(self.n_groups)]

    def make(self, n_docs, seed, planted=True, doc_len=None):
        return sparse_topic_corpus(
            n_docs, seed, n_words=self.n_words, n_groups=self.n_groups,
            doc_len_range=doc_len or self.doc_len, activation_p=self.activation_p,
            planted=self.planted() if planted else None,
        )


@dataclass
class StructureWorkload(_TopicCorpus):
    """The structure stages of `sparsebm pipeline` at paper scale, no variants."""

    name: str = "structure-k1000"
    n_docs: int = 1750
    n_test: int = 10
    epochs: int = 2

    quality_names = ("planted_top2_recall",)

    def setup(self, work: Path, seed: int) -> dict:
        made = self.make(self.n_docs, seed)
        save_uci_bow(made.corpus, work / "corpus.docword.txt", work / "corpus.vocab.txt")
        return {"inputs": ["corpus.docword.txt", "corpus.vocab.txt"],
                "planted": made.planted,
                "sources": [int(made.group_words[g][0]) for g, _ in made.planted]}

    def commands(self, work: Path, seed: int, run_dir: str) -> list:
        return pipeline_command(
            work, run_dir, seed, self.n_docs - self.n_test, self.n_test,
            self.island_max, self.epochs, variants=[],
        )

    def check(self, out: Path, meta: dict):
        problems = []
        skeleton = load_skeleton(out / "skeleton.txt", self.n_words)
        expanded = load_structure(out / "expanded.struct")
        for what, got in (("skeleton", skeleton.n_hidden), ("expanded", expanded.n_hidden)):
            if got != self.n_groups:
                problems.append(f"{what}: F={got}, want {self.n_groups}")
        if expanded.n_visible != self.n_words:
            problems.append(f"expanded: K={expanded.n_visible}, want {self.n_words}")
        cmi = read_cmi(out / "cmi.tsv")
        problems += check_cmi(cmi, skeleton.groups)
        owner = skeleton.owner_of()
        hits = 0
        for (_g, word), source in zip(meta["planted"], meta["sources"]):
            unit = int(owner[source])
            top2 = [v for v, _ in cmi.get(unit, [])[:2]]
            hits += int(owner[word]) != unit and word in top2
        recall = hits / len(meta["planted"])
        if recall <= 0:
            problems.append("no planted word among its source unit's top-2 CMI")
        return problems, {"planted_top2_recall": recall}


# ---------------------------------------------------------------------------
# ais-k1000


@dataclass
class AisWorkload(_TopicCorpus):
    """`sparsebm eval` of a skeleton SBM and a dense RS model at F=100, K=1000."""

    name: str = "ais-k1000"
    n_train: int = 1750
    # brief CD-1 training, enough that AIS does not anneal towards a uniform model
    sbm_epochs: int = 2
    sbm_lr: float = 0.2
    rs_epochs: int = 3
    rs_lr: float = 0.02
    n_heldout: int = 200
    heldout_len: tuple = (250, 251)
    ais_runs: int = 50
    schedule: str = "0:0.5:50,0.5:0.9:100,0.9:1:150"

    models = {"sbm_tree": "tree.sbm", "rs_plus": "dense.rs"}
    quality_names = ("ppl_rs_plus", "ppl_sbm_tree")

    def setup(self, work: Path, seed: int) -> dict:
        corpus = self.make(self.n_train, seed).corpus
        skeleton = build_skeleton(corpus, island_max=self.island_max,
                                  supergroup_max=1, mi_floor=0.01)
        if skeleton.n_hidden != self.n_groups:
            raise RuntimeError(f"skeleton has F={skeleton.n_hidden}, want {self.n_groups}")

        def config(epochs, lr):
            return TrainConfig(**{**TRAIN_DEFAULTS, "epochs": epochs, "cd_steps": 1,
                                  "learning_rate": lr, "seed": seed})

        save_sbm_model(sbm_train(corpus, skeleton.to_structure(),
                                 config(self.sbm_epochs, self.sbm_lr)),
                       work / self.models["sbm_tree"])
        save_rs_model(rs_train(corpus, skeleton.n_hidden, config(self.rs_epochs, self.rs_lr)),
                      work / self.models["rs_plus"])
        # Held-out documents take two lengths only, since AIS runs once per
        # length; many documents keep the perplexity steady across seeds.
        heldout = self.make(self.n_heldout, seed + 1_000_003, planted=False,
                            doc_len=self.heldout_len).corpus
        save_uci_bow(heldout, work / "heldout.docword.txt", work / "heldout.vocab.txt")
        return {"inputs": [*self.models.values(), "heldout.docword.txt",
                           "heldout.vocab.txt"]}

    def commands(self, work: Path, seed: int, run_dir: str) -> list:
        (work / run_dir / "out").mkdir()
        return [
            ["eval", "--model", path, "--docs", "heldout",
             "--ais-runs", str(self.ais_runs), "--schedule", self.schedule,
             "--seed", str(seed), "-o", f"{run_dir}/out/eval_{label}.tsv"]
            for label, path in sorted(self.models.items())
        ]

    def check(self, out: Path, meta: dict):
        problems = []
        quality = {}
        for label in sorted(self.models):
            lines = (out / f"eval_{label}.tsv").read_text(encoding="utf-8").splitlines()
            rows = [ln for ln in lines[1:] if not ln.startswith("#")]
            if len(rows) != self.n_heldout:
                problems.append(f"eval_{label}.tsv: {len(rows)} rows, want {self.n_heldout}")
            ppl = float(lines[-1].split("\t")[1]) if lines[-1].startswith("# perplexity") \
                else float("nan")
            if not _positive_finite(ppl):
                problems.append(f"eval_{label}.tsv: perplexity {ppl}")
            quality[f"ppl_{label}"] = ppl
        return problems, quality


WORKLOADS = {w.name: w for w in (PipelineWorkload(), StructureWorkload(), AisWorkload())}

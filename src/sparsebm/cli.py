"""Command-line front end.

Subcommands cover the full workflow: prepare a corpus, build or load a
skeleton, train the skeleton tree model, expand it by conditional mutual
information, train sparse and dense models, prune a dense baseline, and
evaluate perplexity and interpretability. The pipeline command runs the
whole sequence from a JSON config with content-addressed stage caching.

Exit codes: 0 success, 1 usage error, 2 data or model error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import evaluation, pruning, structure as structure_mod
from . import replicated_softmax as rs_mod
from . import sbm as sbm_mod
from .errors import SparsebmError
from .sbm import TrainConfig
from .util import check_int, rng_from

_EVAL_STREAM = 61


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# small helpers


def _corpus_paths(prefix):
    return Path(f"{prefix}.docword.txt"), Path(f"{prefix}.vocab.txt")


def _load_uci(docword, vocab):
    corpus, dropped = corpus_mod.load_uci_bow(docword, vocab)
    if dropped:
        print(f"note: dropped {dropped} empty documents from {docword}", file=sys.stderr)
    return corpus


def _load_corpus(prefix):
    return _load_uci(*_corpus_paths(prefix))


def _model_kind(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
    if len(header) != 3:
        raise SparsebmError(f"{path}: not a sparsebm model file")
    return header[1]


def _load_any_model(path):
    """Sniff the file kind and load the model; a pruned RS model comes back
    on its mask's structure."""
    kind = _model_kind(path)
    if kind == "rs-model":
        return pruning.load_pruned_rs(path)[0]
    if kind == "sbm-model":
        return sbm_mod.load_sbm_model(path)
    raise SparsebmError(f"{path}: unsupported model kind {kind!r}")


def _check_vocab(model, model_path, corpus):
    """Refuse a model and a corpus over different vocabulary sizes."""
    if model.n_visible != corpus.n_words:
        raise SparsebmError(
            f"model {model_path} has K={model.n_visible} words but corpus"
            f" {corpus.name} has K={corpus.n_words}"
        )


def _load_any_structure(path, n_visible):
    """Accepts sbm-structure files and skeleton text files over n_visible words."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().split()
    if first[:1] == ["sparsebm"]:
        return sbm_mod.load_structure(path)
    return structure_mod.load_skeleton(path, n_visible).to_structure()


def _parse_schedule(spec):
    """An AIS schedule from 'default', comma-joined start:end:count segments
    or a list of [start, end, count] triples (the pipeline config's form)."""
    if spec == "default":
        return evaluation.default_schedule()
    segments = [p.split(":") for p in spec.split(",")] if isinstance(spec, str) else spec
    try:
        return evaluation.AisSchedule(segments)
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad AIS schedule {spec!r}, want start:end:count segments: {exc}"
        ) from None


def _positive_int(value):
    """A count of at least 1, from command-line text or a config value."""
    if isinstance(value, str) and value.strip().isdigit():
        value = int(value)
    if type(value) is not int or value < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {value!r}")
    return value


def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@functools.lru_cache(maxsize=None)
def _code_digest():
    """sha256 over the package's Python sources, so cached pipeline stages
    are never reused across code that may compute different numbers."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def _config_hash(config, input_paths):
    """Settings objects (TrainConfig, PruneConfig, AisSchedule) hash as
    their fields."""
    payload = {
        "config": config,
        "inputs": {str(p): _file_sha256(p) for p in input_paths},
        "version": __version__,
        "code": _code_digest(),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=vars).encode("utf-8")
    ).hexdigest()


def write_manifest(output_path, command, config, seed, inputs, outputs, wall_time):
    manifest = {
        "command": command,
        "config_hash": _config_hash(config, inputs),
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_time_s": wall_time,
    }
    path = Path(str(output_path) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _train_config_from_args(args):
    return TrainConfig(
        epochs=args.epochs,
        cd_steps=args.cd_steps,
        learning_rate=args.lr,
        batch_size=args.batch_size,
        seed=args.seed,
        weight_init_std=args.weight_init_std,
        visible_bias_init=args.visible_bias_init,
        hidden_bias_lr_scale=(
            "auto" if args.bias_lr_scale == "auto" else float(args.bias_lr_scale)
        ),
    )


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--cd-steps", type=int, default=10)
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--batch-size", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--weight-init-std", type=float, default=0.001)
    parser.add_argument("--visible-bias-init", choices=["zero", "log-frequency"],
                        default="zero")
    parser.add_argument("--bias-lr-scale", default="1.0",
                        help="hidden-bias step multiplier, a float or 'auto'")


# ---------------------------------------------------------------------------
# workflow steps, each called by its subcommand and its pipeline stage; a
# stage hashes exactly the keyword-only settings it passes (see _run_stage)


def _prepare(docword, vocab, out, *, select_k, select_method, seed, n_train,
             n_val, n_test):
    """Load a corpus, keep its select_k best words and write it under out as
    full.*, or split with split_manifest.txt. Returns it and the files written."""
    corpus = _load_uci(docword, vocab)
    if select_k is not None:
        corpus = corpus_mod.select_vocab(corpus, select_k, select_method)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    def emit(name, part):
        paths = _corpus_paths(out / name)
        corpus_mod.save_uci_bow(part, *paths)
        outputs.extend(paths)

    if n_train is None:
        emit("full", corpus)
        return corpus, outputs
    split = corpus_mod.split_corpus(corpus, seed, n_train, n_val, n_test)
    emit("train", split.train)
    if n_val:
        emit("validation", split.validation)
    if n_test:
        emit("test", split.test)
    corpus_mod.save_split_manifest(split, out / "split_manifest.txt")
    outputs.append(out / "split_manifest.txt")
    return corpus, outputs


def _skeleton(corpus, output, *, island_max, supergroup_max, mi_floor):
    skeleton = structure_mod.build_skeleton(
        corpus, island_max=island_max, supergroup_max=supergroup_max,
        mi_floor="auto" if mi_floor == "auto" else float(mi_floor),
    )
    structure_mod.save_skeleton(skeleton, output)
    return skeleton


def _train_sbm(corpus, structure, output, *, train):
    sbm_mod.save_sbm_model(sbm_mod.sbm_train(corpus, structure, train), output)


def _train_rs(corpus, output, *, hidden, train):
    rs_mod.save_rs_model(rs_mod.rs_train(corpus, hidden, train), output)


def _expand(corpus, skeleton, tree_model_path, output, cmi_out, *, add, fraction):
    """Returns the expanded structure and the files written."""
    tree_model = sbm_mod.load_sbm_model(tree_model_path)
    _check_vocab(tree_model, tree_model_path, corpus)
    table = structure_mod.build_cmi_table(tree_model, corpus)
    m = float(fraction) if add is None else int(add)
    expanded = structure_mod.sbm_sfc(skeleton, tree_model, corpus, m, cmi_table=table)
    sbm_mod.save_structure(expanded, output)
    outputs = [output]
    if cmi_out:
        structure_mod.save_cmi_table(table, cmi_out)
        outputs.append(cmi_out)
    return expanded, outputs


def _prune(model, corpus, output, log_out, *, prune):
    """Returns the prune result and the files written."""
    result = pruning.prune_and_retrain(model, corpus, prune)
    pruning.save_pruned_rs(result.model, result.mask, output)
    outputs = [output]
    if log_out:
        pruning.save_iteration_log(result, log_out)
        outputs.append(log_out)
    return result, outputs


def _held_out_docs(corpus, max_docs, seed):
    """All documents, or max_docs drawn without replacement, in corpus order."""
    docs = list(corpus.docs)
    if max_docs is not None and max_docs < len(docs):
        picker = rng_from(seed, _EVAL_STREAM, 7)
        idx = picker.choice(len(docs), size=max_docs, replace=False)
        docs = [docs[i] for i in sorted(idx)]
    return docs


def _write_report(test_prefix, output, *, models, schedule, ais_runs, seed,
                  max_docs, include_multinomial):
    """One report row per variant, all scored on the same held-out documents."""
    docs = _held_out_docs(_load_corpus(test_prefix), max_docs, seed)
    rows = []
    for idx, (variant, path) in enumerate(sorted(models.items())):
        model = _load_any_model(path)
        lp, _ = evaluation.held_out_log_probs(
            model, docs, schedule, ais_runs, rng_from(seed, _EVAL_STREAM, idx),
            include_multinomial,
        )
        mean_degree = float(model.structure.degrees().mean())
        rows.append((variant, model.n_hidden, mean_degree,
                     evaluation.per_word_perplexity(lp, docs)))
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("variant\tF\tmean_visible_degree\ttest_perplexity\n")
        for variant, f, deg, ppl in rows:
            fh.write(f"{variant}\t{f}\t{deg!r}\t{ppl!r}\n")
            print(f"  {variant}: F={f} degree={deg:.1f} perplexity={ppl:.3f}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args):
    t0 = time.time()
    config = {
        "select_k": args.select_k, "select_method": args.select_method,
        "seed": args.seed, "n_train": args.train, "n_val": args.val,
        "n_test": args.test,
    }
    corpus, outputs = _prepare(args.docword, args.vocab, args.output, **config)
    write_manifest(Path(args.output) / "prepare", "prepare", config, args.seed,
                   [args.docword, args.vocab], outputs, time.time() - t0)
    print(f"prepared {corpus.n_docs} documents over {corpus.n_words} words"
          f" in {args.output}")
    return 0


def cmd_skeleton(args):
    t0 = time.time()
    config = {"island_max": args.island_max, "supergroup_max": args.supergroup_max,
              "mi_floor": args.mi_floor}
    skeleton = _skeleton(_load_corpus(args.corpus), args.output, **config)
    write_manifest(args.output, "skeleton", config, 0,
                   list(_corpus_paths(args.corpus)), [args.output],
                   time.time() - t0)
    print(f"skeleton: {skeleton.n_hidden} hidden units,"
          f" {len(skeleton.tree_edges)} tree edges -> {args.output}")
    return 0


def cmd_train_rs(args):
    t0 = time.time()
    config = {"hidden": args.hidden, "train": _train_config_from_args(args)}
    _train_rs(_load_corpus(args.corpus), args.output, **config)
    write_manifest(args.output, "train-rs", config, args.seed,
                   list(_corpus_paths(args.corpus)), [args.output],
                   time.time() - t0)
    print(f"trained RS model F={args.hidden} -> {args.output}")
    return 0


def cmd_train_sbm(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    struct = _load_any_structure(args.structure, corpus.n_words)
    config = {"train": _train_config_from_args(args)}
    _train_sbm(corpus, struct, args.output, **config)
    write_manifest(args.output, "train-sbm", config, args.seed,
                   [*_corpus_paths(args.corpus), args.structure], [args.output],
                   time.time() - t0)
    print(f"trained SBM F={struct.n_hidden} -> {args.output}")
    return 0


def cmd_expand(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    skeleton = structure_mod.load_skeleton(args.skeleton, corpus.n_words)
    config = {"add": args.add, "fraction": args.fraction}
    expanded, outputs = _expand(corpus, skeleton, args.tree_model, args.output,
                                args.cmi_out, **config)
    degrees = expanded.degrees()
    write_manifest(args.output, "expand", config, 0,
                   [*_corpus_paths(args.corpus), args.skeleton, args.tree_model],
                   outputs, time.time() - t0)
    print(f"expanded structure: per-unit degree min={min(degrees)}"
          f" max={max(degrees)} -> {args.output}")
    return 0


def cmd_prune(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    if _model_kind(args.model) != "rs-model":
        raise SparsebmError("prune expects an RS model")
    model, _ = pruning.load_pruned_rs(args.model)
    _check_vocab(model, args.model, corpus)
    if args.target is not None:
        target = args.target
    else:
        target = int(np.ceil(args.target_fraction * model.n_visible))
    config = {"prune": pruning.PruneConfig(
        target_per_unit=target, prune_fraction=args.prune_fraction,
        retrain_epochs_per_iter=args.retrain_epochs,
        train=_train_config_from_args(args),
    )}
    result, outputs = _prune(model, corpus, args.output, args.log_out, **config)
    write_manifest(args.output, "prune", config, args.seed,
                   [*_corpus_paths(args.corpus), args.model], outputs,
                   time.time() - t0)
    print(f"pruned to {target} connections per unit over {result.total_epochs}"
          f" retraining epochs -> {args.output}")
    return 0


def cmd_eval(args):
    t0 = time.time()
    model = _load_any_model(args.model)
    corpus = _load_corpus(args.docs)
    _check_vocab(model, args.model, corpus)
    docs = _held_out_docs(corpus, args.max_docs, args.seed)
    lp, _ = evaluation.held_out_log_probs(
        model, docs, args.schedule, args.ais_runs,
        rng_from(args.seed, _EVAL_STREAM), args.include_multinomial,
        evaluation.exact_log_z if args.exact else None,
    )
    ppl = evaluation.per_word_perplexity(lp, docs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("doc_id\tD\tlog_p\tper_word_ppl\n")
            for i, (doc_lp, doc) in enumerate(zip(lp, docs)):
                fh.write(
                    f"{i}\t{doc.length}\t{float(doc_lp)!r}"
                    f"\t{float(np.exp(-doc_lp / doc.length))!r}\n"
                )
            fh.write(f"# documents\t{len(docs)}\n")
            fh.write(f"# perplexity\t{ppl!r}\n")
        write_manifest(args.output, "eval",
                       {"ais_runs": args.ais_runs, "schedule": args.schedule,
                        "exact": args.exact, "max_docs": args.max_docs,
                        "include_multinomial": args.include_multinomial},
                       args.seed, [args.model, *_corpus_paths(args.docs)],
                       [args.output], time.time() - t0)
    print(f"perplexity {ppl!r} over {len(docs)} documents")
    return 0


def cmd_interpret(args):
    t0 = time.time()
    model = _load_any_model(args.model)
    vocab_path = Path(args.vocab)
    if not vocab_path.exists():
        vocab_path = _corpus_paths(args.vocab)[1]
    with open(vocab_path, encoding="utf-8") as fh:
        vocab = [line.strip() for line in fh if line.strip()]
    if len(vocab) != model.n_visible:
        raise SparsebmError(
            f"vocabulary size {len(vocab)} does not match model K={model.n_visible}"
        )
    emb = evaluation.load_embeddings(args.embeddings)
    rows = []
    for j in range(model.n_hidden):
        words = evaluation.unit_top_words(model, vocab, j, args.top_n)
        score = evaluation.interpretability_unit(model, vocab, j, emb, args.top_n)
        rows.append((j, score, words))
    overall = evaluation.interpretability_model(model, vocab, emb, args.top_n)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write("unit\tscore\ttop_words\n")
            for j, score, words in rows:
                fh.write(f"{j}\t{score!r}\t{' '.join(words)}\n")
            fh.write(f"# model_score\t{overall!r}\n")
        write_manifest(args.output, "interpret", {"top_n": args.top_n}, 0,
                       [args.model, vocab_path, args.embeddings], [args.output],
                       time.time() - t0)
    print(f"interpretability {overall!r} over {model.n_hidden} units")
    return 0


# ---------------------------------------------------------------------------
# pipeline


def _stage_fresh(out_path, expected_hash):
    try:
        with open(f"{out_path}.manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return Path(out_path).exists() and manifest.get("config_hash") == expected_hash


def _run_stage(name, out_path, config, seed, inputs, force, step):
    """Run step(**config) unless the cached output matches the hash of config
    and the input files. Returns whether the step ran."""
    if not force and _stage_fresh(out_path, _config_hash(config, inputs)):
        print(f"[{name}] cached")
        return False
    t0 = time.time()
    try:
        step(**config)
    except (SparsebmError, ValueError, OSError) as exc:
        raise SparsebmError(f"pipeline stage {name!r} failed: {exc}") from exc
    write_manifest(out_path, name, config, seed, inputs, [out_path],
                   time.time() - t0)
    print(f"[{name}] done in {time.time() - t0:.1f}s")
    return True


_VARIANTS = ("rs_plus", "rs_plus_sfc", "rs_plus_pruned", "sbm_sfc")
_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
# the keys each pipeline config section may hold: those its step reads
_CONFIG_KEYS = {
    "corpus": {"docword", "vocab", "select_k", "select_method"},
    "split": {"n_train", "n_val", "n_test", "seed"},
    "skeleton": {"island_max", "supergroup_max", "mi_floor"},
    "train_defaults": _TRAIN_KEYS,
    "tree_train": _TRAIN_KEYS,
    "train": _TRAIN_KEYS,
    "expand": {"add", "fraction"},
    "prune": {"target_per_unit", "prune_fraction", "retrain_epochs_per_iter"},
    "eval": {"schedule", "ais_runs", "seed", "max_docs", "include_multinomial"},
}


def _check_config_keys(cfg):
    """Refuse a key no step reads, a variant name no stage builds and an
    expand section that sets both its sizes, so a typo or a conflict fails
    before any stage runs instead of falling back to a default."""

    def check(where, keys, known):
        unknown = sorted(set(keys) - set(known))
        if unknown:
            raise SparsebmError(
                f"pipeline config {where} has unknown key {unknown[0]!r};"
                f" known keys: {', '.join(sorted(known))}"
            )

    check("top level", cfg, {"out_dir", "seed", "variants", *_CONFIG_KEYS})
    for section, known in _CONFIG_KEYS.items():
        values = cfg.get(section, {})
        if not isinstance(values, dict):
            raise SparsebmError(f"pipeline config section {section!r} must be an object")
        check(f"section {section!r}", values, known)
    if {"add", "fraction"} <= set(cfg.get("expand", {})):
        raise SparsebmError(
            "pipeline config section 'expand' sets both 'add' and 'fraction';"
            " set one of them"
        )
    variants = cfg.get("variants", list(_VARIANTS))
    if not isinstance(variants, list):
        raise SparsebmError("pipeline config variants must be a list")
    for name in variants:
        if name not in _VARIANTS:
            raise SparsebmError(
                f"pipeline config variants: unknown variant {name!r};"
                f" known variants: {', '.join(_VARIANTS)}"
            )
    return variants


def cmd_pipeline(args):
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SparsebmError("pipeline config must be a JSON object")
    for key in ("corpus", "out_dir", "seed"):
        if key not in cfg:
            raise SparsebmError(f"pipeline config is missing {key!r}")
    variants = _check_config_keys(cfg)
    split_cfg = cfg.get("split", {})
    eval_cfg = cfg.get("eval", {})
    for name, section in (("seed", cfg), ("split.seed", split_cfg), ("eval.seed", eval_cfg)):
        try:
            check_int(f"pipeline config {name}", section.get("seed", 0))
        except ValueError as exc:
            raise SparsebmError(str(exc)) from None
    seed = cfg["seed"]
    force = args.force

    corpus_cfg = cfg["corpus"]
    docword = Path(corpus_cfg["docword"])
    vocab = Path(corpus_cfg["vocab"])
    if not docword.exists():
        raise SparsebmError(f"corpus file {docword} does not exist")
    for key in ("n_train", "n_test"):
        if type(split_cfg.get(key)) is not int or split_cfg[key] < 1:
            raise SparsebmError(f"pipeline config needs split.{key}, an integer >= 1")

    def settings(cls, section, values):
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise SparsebmError(f"bad {section!r} config: {exc}") from exc

    def train_config(section):
        return settings(TrainConfig, section, {
            "seed": seed, **cfg.get("train_defaults", {}), **cfg.get(section, {}),
        })

    def prune_config(default_target):
        return settings(pruning.PruneConfig, "prune", {
            "target_per_unit": default_target, **cfg.get("prune", {}), "train": main_cfg,
        })

    tree_cfg = train_config("tree_train")
    main_cfg = train_config("train")
    prune_config(1)  # fail before any stage; the default target needs the expanded structure

    eval_params = {"seed": eval_cfg.get("seed", seed),
                   "include_multinomial": eval_cfg.get("include_multinomial", False)}
    for key, parse, default in (("schedule", _parse_schedule, "default"),
                                ("ais_runs", _positive_int, 100),
                                ("max_docs", _positive_int, None)):
        value = eval_cfg.get(key, default)
        try:
            eval_params[key] = None if value is None else parse(value)
        except argparse.ArgumentTypeError as exc:
            raise SparsebmError(f"pipeline config eval.{key}: {exc}") from None

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    train_prefix = out / "train"
    test_prefix = out / "test"
    train_files = list(_corpus_paths(train_prefix))

    _run_stage(
        "corpus", train_files[0],
        {"select_k": corpus_cfg.get("select_k"),
         "select_method": corpus_cfg.get("select_method", "frequency"),
         "seed": split_cfg.get("seed", seed), "n_train": split_cfg["n_train"],
         "n_val": split_cfg.get("n_val", 0), "n_test": split_cfg["n_test"]},
        seed, [docword, vocab], force,
        functools.partial(_prepare, docword, vocab, out),
    )
    train_corpus = _load_corpus(train_prefix)

    skel_cfg = cfg.get("skeleton", {})
    skeleton_path = out / "skeleton.txt"
    _run_stage(
        "skeleton", skeleton_path,
        {"island_max": skel_cfg.get("island_max", 7),
         "supergroup_max": skel_cfg.get("supergroup_max", 5),
         "mi_floor": skel_cfg.get("mi_floor", "auto")},
        seed, train_files, force,
        functools.partial(_skeleton, train_corpus, skeleton_path),
    )
    skeleton = structure_mod.load_skeleton(skeleton_path, train_corpus.n_words)

    tree_model_path = out / "tree_model.sbm"
    _run_stage(
        "tree-model", tree_model_path, {"train": tree_cfg}, seed,
        [*train_files, skeleton_path], force,
        functools.partial(_train_sbm, train_corpus, skeleton.to_structure(),
                          tree_model_path),
    )

    expand_cfg = cfg.get("expand", {})
    expanded_path = out / "expanded.struct"
    _run_stage(
        "expand", expanded_path,
        {"add": expand_cfg.get("add"), "fraction": expand_cfg.get("fraction", 0.2)},
        seed, [*train_files, skeleton_path, tree_model_path], force,
        functools.partial(_expand, train_corpus, skeleton, tree_model_path,
                          expanded_path, out / "cmi.tsv"),
    )
    expanded = sbm_mod.load_structure(expanded_path)
    on_expanded = [*train_files, expanded_path]

    model_paths = {}
    if "sbm_sfc" in variants:
        path = model_paths["sbm_sfc"] = out / "sbm_sfc.sbm"
        _run_stage("sbm-sfc", path, {"train": main_cfg}, seed, on_expanded, force,
                   functools.partial(_train_sbm, train_corpus, expanded, path))
    rs_path = out / "rs_plus.rs"
    if "rs_plus" in variants or "rs_plus_pruned" in variants:
        _run_stage("rs-plus", rs_path, {"hidden": expanded.n_hidden, "train": main_cfg},
                   seed, on_expanded, force,
                   functools.partial(_train_rs, train_corpus, rs_path))
        if "rs_plus" in variants:
            model_paths["rs_plus"] = rs_path
    if "rs_plus_sfc" in variants:
        path = model_paths["rs_plus_sfc"] = out / "rs_plus_sfc.sbm"
        no_tree = sbm_mod.SbmStructure.from_mask(expanded.mask(), [])
        _run_stage("rs-plus-sfc", path, {"train": main_cfg}, seed, on_expanded, force,
                   functools.partial(_train_sbm, train_corpus, no_tree, path))
    if "rs_plus_pruned" in variants:
        path = model_paths["rs_plus_pruned"] = out / "rs_plus_pruned.rs"
        prune = prune_config(int(expanded.degrees().max()))
        _run_stage(
            "rs-plus-pruned", path, {"prune": prune}, seed, [*train_files, rs_path],
            force, lambda prune: _prune(_load_any_model(rs_path), train_corpus, path,
                                        out / "prune_log.tsv", prune=prune),
        )

    report_path = out / "report.tsv"
    eval_params["models"] = {v: str(p) for v, p in model_paths.items()}
    _run_stage("eval", report_path, eval_params, eval_params["seed"],
               [*sorted(model_paths.values()), *_corpus_paths(test_prefix)], force,
               functools.partial(_write_report, test_prefix, report_path))
    print(f"pipeline complete: {report_path}")
    return 0


# ---------------------------------------------------------------------------
# dispatch


def build_parser():
    parser = _Parser(prog="sparsebm", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("prepare", help="load, filter and split a UCI corpus")
    p.add_argument("--docword", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--select-k", type=int, default=None)
    p.add_argument("--select-method", choices=["frequency", "tfidf"],
                   default="frequency")
    p.add_argument("--train", type=int, default=None)
    p.add_argument("--val", type=int, default=0)
    p.add_argument("--test", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("skeleton", help="build a two-level skeleton from data")
    p.add_argument("--corpus", required=True, help="corpus prefix")
    p.add_argument("--island-max", type=int, default=7)
    p.add_argument("--supergroup-max", type=int, default=5)
    p.add_argument("--mi-floor", default="auto")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("train-rs", help="train a dense Replicated Softmax model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--hidden", type=int, required=True)
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train_rs)

    p = sub.add_parser("train-sbm", help="train a sparse Boltzmann machine")
    p.add_argument("--corpus", required=True)
    p.add_argument("--structure", required=True,
                   help="sbm-structure file or skeleton file")
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train_sbm)

    p = sub.add_parser("expand", help="add highest-CMI connections to a skeleton")
    p.add_argument("--corpus", required=True)
    p.add_argument("--skeleton", required=True)
    p.add_argument("--tree-model", required=True)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--fraction", type=float, default=0.2,
                      help="target per-unit degree as a fraction of K")
    size.add_argument("--add", type=int, default=None,
                      help="fixed number of new connections per unit")
    p.add_argument("--cmi-out", default=None, help="write the CMI table as TSV")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("prune", help="magnitude-prune and retrain an RS model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--target", type=int, default=None)
    target.add_argument("--target-fraction", type=float, default=0.2)
    p.add_argument("--prune-fraction", type=float, default=0.2)
    p.add_argument("--retrain-epochs", type=int, default=1)
    _add_train_flags(p)
    p.add_argument("--log-out", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="held-out perplexity via AIS")
    p.add_argument("--model", required=True)
    p.add_argument("--docs", required=True, help="corpus prefix of held-out docs")
    p.add_argument("--ais-runs", type=_positive_int, default=100)
    p.add_argument("--schedule", type=_parse_schedule, default="default",
                   help="'default' or comma-joined start:end:count segments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-docs", type=_positive_int, default=None)
    p.add_argument("--include-multinomial", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="use the exact closed-form log Z instead of AIS"
                        " (needs 2^F*K <= 2^25, e.g. F <= 15 at K=1000)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("interpret", help="embedding-based interpretability score")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True, help="vocab file or corpus prefix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("pipeline", help="run the full workflow from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--force", action="store_true", help="ignore cached stages")
    p.set_defaults(func=cmd_pipeline)

    return parser


def cmd_dispatch(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SparsebmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    return sys.exit(cmd_dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

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
from .util import rng_from

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


def _load_corpus(prefix):
    docword, vocab = _corpus_paths(prefix)
    corpus, dropped = corpus_mod.load_uci_bow(docword, vocab)
    if dropped:
        print(f"note: dropped {dropped} empty documents from {docword}", file=sys.stderr)
    return corpus


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


def _load_any_structure(path, n_visible=None):
    """Accepts sbm-structure files and skeleton text files."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().split()
    if first[:1] == ["sparsebm"]:
        return sbm_mod.load_structure(path)
    if n_visible is None:
        raise SparsebmError(
            f"{path}: skeleton files need the vocabulary size; pass a corpus"
        )
    return structure_mod.load_skeleton(path, n_visible).to_structure()


def _parse_schedule(spec):
    if spec == "default":
        return evaluation.default_schedule()
    segments = []
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise _UsageError(f"bad schedule segment {part!r}, want start:end:count")
        segments.append((float(fields[0]), float(fields[1]), int(fields[2])))
    return evaluation.AisSchedule(segments)


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
    payload = {
        "config": config,
        "inputs": {str(p): _file_sha256(p) for p in input_paths},
        "version": __version__,
        "code": _code_digest(),
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
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
# subcommands


def cmd_prepare(args):
    t0 = time.time()
    corpus, dropped = corpus_mod.load_uci_bow(args.docword, args.vocab)
    if dropped:
        print(f"dropped {dropped} empty documents", file=sys.stderr)
    if args.select_k is not None:
        corpus = corpus_mod.select_vocab(corpus, args.select_k, args.select_method)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []

    def emit(name, part):
        docword, vocab = _corpus_paths(out / name)
        corpus_mod.save_uci_bow(part, docword, vocab)
        outputs.extend([docword, vocab])

    if args.train is not None:
        split = corpus_mod.split_corpus(
            corpus, args.seed, args.train, args.val, args.test
        )
        emit("train", split.train)
        if args.val:
            emit("validation", split.validation)
        if args.test:
            emit("test", split.test)
        manifest_path = out / "split_manifest.txt"
        corpus_mod.save_split_manifest(split, manifest_path)
        outputs.append(manifest_path)
    else:
        emit("full", corpus)
    config = {
        "select_k": args.select_k,
        "select_method": args.select_method,
        "train": args.train, "val": args.val, "test": args.test,
        "seed": args.seed,
    }
    write_manifest(out / "prepare", "prepare", config, args.seed,
                   [args.docword, args.vocab], outputs, time.time() - t0)
    print(f"prepared {corpus.n_docs} documents over {corpus.n_words} words in {out}")
    return 0


def cmd_skeleton(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    floor = "auto" if args.mi_floor == "auto" else float(args.mi_floor)
    skeleton = structure_mod.build_skeleton(
        corpus, island_max=args.island_max, supergroup_max=args.supergroup_max,
        mi_floor=floor,
    )
    structure_mod.save_skeleton(skeleton, args.output)
    config = {
        "island_max": args.island_max,
        "supergroup_max": args.supergroup_max,
        "mi_floor": args.mi_floor,
    }
    write_manifest(args.output, "skeleton", config, 0,
                   list(_corpus_paths(args.corpus)), [args.output],
                   time.time() - t0)
    print(f"skeleton: {skeleton.n_hidden} hidden units,"
          f" {len(skeleton.tree_edges)} tree edges -> {args.output}")
    return 0


def cmd_train_rs(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    config = _train_config_from_args(args)
    model = rs_mod.rs_train(corpus, args.hidden, config)
    rs_mod.save_rs_model(model, args.output)
    write_manifest(args.output, "train-rs",
                   {"hidden": args.hidden, **config.__dict__}, args.seed,
                   list(_corpus_paths(args.corpus)), [args.output],
                   time.time() - t0)
    print(f"trained RS model F={args.hidden} -> {args.output}")
    return 0


def cmd_train_sbm(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    struct = _load_any_structure(args.structure, corpus.n_words)
    config = _train_config_from_args(args)
    model = sbm_mod.sbm_train(corpus, struct, config)
    sbm_mod.save_sbm_model(model, args.output)
    write_manifest(args.output, "train-sbm", config.__dict__, args.seed,
                   [*_corpus_paths(args.corpus), args.structure], [args.output],
                   time.time() - t0)
    print(f"trained SBM F={struct.n_hidden} -> {args.output}")
    return 0


def cmd_expand(args):
    t0 = time.time()
    corpus = _load_corpus(args.corpus)
    skeleton = structure_mod.load_skeleton(args.skeleton, corpus.n_words)
    tree_model = sbm_mod.load_sbm_model(args.tree_model)
    if args.add is not None:
        m = args.add
    else:
        m = args.fraction
    table = structure_mod.build_cmi_table(tree_model, corpus)
    expanded = structure_mod.sbm_sfc(skeleton, tree_model, corpus, m, cmi_table=table)
    sbm_mod.save_structure(expanded, args.output)
    outputs = [args.output]
    if args.cmi_out:
        structure_mod.save_cmi_table(table, args.cmi_out)
        outputs.append(args.cmi_out)
    degrees = expanded.degrees()
    config = {"fraction": args.fraction, "add": args.add}
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
    if args.target is not None:
        target = args.target
    else:
        target = int(np.ceil(args.target_fraction * model.n_visible))
    config = pruning.PruneConfig(
        target_per_unit=target,
        prune_fraction=args.prune_fraction,
        retrain_epochs_per_iter=args.retrain_epochs,
        train=_train_config_from_args(args),
    )
    result = pruning.prune_and_retrain(model, corpus, config)
    pruning.save_pruned_rs(result.model, result.mask, args.output)
    outputs = [args.output]
    if args.log_out:
        pruning.save_iteration_log(result, args.log_out)
        outputs.append(args.log_out)
    write_manifest(args.output, "prune",
                   {"target": target, "prune_fraction": args.prune_fraction,
                    "retrain_epochs": args.retrain_epochs}, args.seed,
                   [*_corpus_paths(args.corpus), args.model], outputs,
                   time.time() - t0)
    print(f"pruned to {target} connections per unit over {result.total_epochs}"
          f" retraining epochs -> {args.output}")
    return 0


def cmd_eval(args):
    t0 = time.time()
    model = _load_any_model(args.model)
    corpus = _load_corpus(args.docs)
    docs = list(corpus.docs)
    if args.max_docs is not None and args.max_docs < len(docs):
        picker = rng_from(args.seed, _EVAL_STREAM, 7)
        idx = picker.choice(len(docs), size=args.max_docs, replace=False)
        docs = [docs[i] for i in sorted(idx)]
    lp, _ = evaluation.held_out_log_probs(
        model, docs, _parse_schedule(args.schedule), args.ais_runs,
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
    vocab = [line.strip() for line in open(vocab_path, encoding="utf-8") if line.strip()]
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


def _stage_fresh(out_path, manifest_path, expected_hash, force):
    if force:
        return False
    if not Path(out_path).exists() or not Path(manifest_path).exists():
        return False
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return False
    return manifest.get("config_hash") == expected_hash


def _run_stage(name, out_path, config, seed, inputs, force, builder):
    """Run builder() unless the cached output matches the config hash."""
    expected = _config_hash(config, inputs)
    manifest_path = Path(str(out_path) + ".manifest.json")
    if _stage_fresh(out_path, manifest_path, expected, force):
        print(f"[{name}] cached")
        return False
    t0 = time.time()
    try:
        builder()
    except (SparsebmError, ValueError, OSError) as exc:
        raise SparsebmError(f"pipeline stage {name!r} failed: {exc}") from exc
    write_manifest(out_path, name, config, seed, inputs, [out_path],
                   time.time() - t0)
    print(f"[{name}] done in {time.time() - t0:.1f}s")
    return True


def cmd_pipeline(args):
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    for key in ("corpus", "out_dir", "seed"):
        if key not in cfg:
            raise SparsebmError(f"pipeline config is missing {key!r}")
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    seed = int(cfg["seed"])
    force = args.force
    variants = cfg.get(
        "variants", ["rs_plus", "rs_plus_sfc", "rs_plus_pruned", "sbm_sfc"]
    )

    corpus_cfg = cfg["corpus"]
    docword = Path(corpus_cfg["docword"])
    vocab = Path(corpus_cfg["vocab"])
    if not docword.exists():
        raise SparsebmError(f"corpus file {docword} does not exist")

    split_cfg = cfg.get("split", {})
    if "n_train" not in split_cfg:
        raise SparsebmError("pipeline config is missing split.n_train")
    train_prefix = out / "train"
    test_prefix = out / "test"

    def build_corpus():
        corpus, dropped = corpus_mod.load_uci_bow(docword, vocab)
        if corpus_cfg.get("select_k"):
            corpus = corpus_mod.select_vocab(
                corpus, corpus_cfg["select_k"],
                corpus_cfg.get("select_method", "frequency"),
            )
        split = corpus_mod.split_corpus(
            corpus, split_cfg.get("seed", seed), split_cfg["n_train"],
            split_cfg.get("n_val", 0), split_cfg.get("n_test", 0),
        )
        corpus_mod.save_uci_bow(split.train, *_corpus_paths(train_prefix))
        corpus_mod.save_uci_bow(split.test, *_corpus_paths(test_prefix))
        corpus_mod.save_split_manifest(split, out / "split_manifest.txt")

    _run_stage("corpus", _corpus_paths(train_prefix)[0],
               {"corpus": corpus_cfg, "split": split_cfg}, seed,
               [docword, vocab], force, build_corpus)

    train_corpus = _load_corpus(train_prefix)
    test_corpus = _load_corpus(test_prefix)

    skel_cfg = cfg.get("skeleton", {})
    skeleton_path = out / "skeleton.txt"

    def build_skeleton():
        skeleton = structure_mod.build_skeleton(
            train_corpus,
            island_max=skel_cfg.get("island_max", 7),
            supergroup_max=skel_cfg.get("supergroup_max", 5),
            mi_floor=skel_cfg.get("mi_floor", "auto"),
        )
        structure_mod.save_skeleton(skeleton, skeleton_path)

    _run_stage("skeleton", skeleton_path, skel_cfg, seed,
               list(_corpus_paths(train_prefix)), force, build_skeleton)
    skeleton = structure_mod.load_skeleton(skeleton_path, train_corpus.n_words)

    def train_config(section, default_seed):
        base = dict(cfg.get("train_defaults", {}))
        base.update(cfg.get(section, {}))
        base.setdefault("seed", default_seed)
        try:
            return TrainConfig(**base)
        except TypeError as exc:
            raise SparsebmError(f"bad training config in {section!r}: {exc}") from exc

    tree_model_path = out / "tree_model.sbm"
    tree_cfg = train_config("tree_train", seed)

    def build_tree_model():
        model = sbm_mod.sbm_train(train_corpus, skeleton.to_structure(), tree_cfg)
        sbm_mod.save_sbm_model(model, tree_model_path)

    _run_stage("tree-model", tree_model_path, tree_cfg.__dict__, seed,
               [*_corpus_paths(train_prefix), skeleton_path], force,
               build_tree_model)

    expand_cfg = cfg.get("expand", {"fraction": 0.2})
    expanded_path = out / "expanded.struct"

    def build_expanded():
        tree_model = sbm_mod.load_sbm_model(tree_model_path)
        if "add" in expand_cfg:
            m = int(expand_cfg["add"])
        else:
            m = float(expand_cfg.get("fraction", 0.2))
        table = structure_mod.build_cmi_table(tree_model, train_corpus)
        expanded = structure_mod.sbm_sfc(
            skeleton, tree_model, train_corpus, m, cmi_table=table
        )
        sbm_mod.save_structure(expanded, expanded_path)
        structure_mod.save_cmi_table(table, out / "cmi.tsv")

    _run_stage("expand", expanded_path, expand_cfg, seed,
               [*_corpus_paths(train_prefix), skeleton_path, tree_model_path],
               force, build_expanded)
    expanded = sbm_mod.load_structure(expanded_path)
    n_hidden = expanded.n_hidden

    model_paths = {}
    main_cfg = train_config("train", seed)
    if "sbm_sfc" in variants:
        path = out / "sbm_sfc.sbm"
        _run_stage(
            "sbm-sfc", path, main_cfg.__dict__, seed,
            [*_corpus_paths(train_prefix), expanded_path], force,
            lambda: sbm_mod.save_sbm_model(
                sbm_mod.sbm_train(train_corpus, expanded, main_cfg), path
            ),
        )
        model_paths["sbm_sfc"] = path
    if "rs_plus" in variants or "rs_plus_pruned" in variants:
        path = out / "rs_plus.rs"
        _run_stage(
            "rs-plus", path, {**main_cfg.__dict__, "hidden": n_hidden}, seed,
            [*_corpus_paths(train_prefix), expanded_path], force,
            lambda: rs_mod.save_rs_model(
                rs_mod.rs_train(train_corpus, n_hidden, main_cfg), path
            ),
        )
        if "rs_plus" in variants:
            model_paths["rs_plus"] = path
    if "rs_plus_sfc" in variants:
        path = out / "rs_plus_sfc.sbm"
        no_tree = sbm_mod.SbmStructure.from_mask(expanded.mask(), [])
        _run_stage(
            "rs-plus-sfc", path, main_cfg.__dict__, seed,
            [*_corpus_paths(train_prefix), expanded_path], force,
            lambda: sbm_mod.save_sbm_model(
                sbm_mod.sbm_train(train_corpus, no_tree, main_cfg), path
            ),
        )
        model_paths["rs_plus_sfc"] = path
    if "rs_plus_pruned" in variants:
        path = out / "rs_plus_pruned.rs"
        prune_cfg_in = cfg.get("prune", {})
        target = prune_cfg_in.get("target_per_unit", int(expanded.degrees().max()))

        def build_pruned():
            model = _load_any_model(out / "rs_plus.rs")
            config = pruning.PruneConfig(
                target_per_unit=target,
                prune_fraction=prune_cfg_in.get("prune_fraction", 0.2),
                retrain_epochs_per_iter=prune_cfg_in.get(
                    "retrain_epochs_per_iter", 1
                ),
                train=main_cfg,
            )
            result = pruning.prune_and_retrain(model, train_corpus, config)
            pruning.save_pruned_rs(result.model, result.mask, path)
            pruning.save_iteration_log(result, out / "prune_log.tsv")

        _run_stage(
            "rs-plus-pruned", path,
            {**prune_cfg_in, "target": target}, seed,
            [*_corpus_paths(train_prefix), out / "rs_plus.rs"], force,
            build_pruned,
        )
        model_paths["rs_plus_pruned"] = path

    eval_cfg = cfg.get("eval", {})
    schedule_spec = eval_cfg.get("schedule", "default")
    if isinstance(schedule_spec, list):
        schedule = evaluation.AisSchedule(
            [tuple(seg) for seg in schedule_spec]
        )
    else:
        schedule = _parse_schedule(schedule_spec)
    runs = eval_cfg.get("ais_runs", 100)
    eval_seed = eval_cfg.get("seed", seed)
    max_docs = eval_cfg.get("max_docs")
    docs = list(test_corpus.docs)
    if max_docs is not None and max_docs < len(docs):
        picker = rng_from(eval_seed, _EVAL_STREAM, 7)
        idx = picker.choice(len(docs), size=max_docs, replace=False)
        docs = [docs[i] for i in sorted(idx)]

    report_path = out / "report.tsv"
    eval_inputs = sorted(model_paths.values())
    eval_hash_cfg = {"schedule": schedule_spec, "runs": runs,
                     "seed": eval_seed, "max_docs": max_docs,
                     "variants": sorted(model_paths)}

    def build_report():
        rows = []
        for idx, (variant, path) in enumerate(sorted(model_paths.items())):
            model = _load_any_model(path)
            lp, _ = evaluation.held_out_log_probs(
                model, docs, schedule, runs, rng_from(eval_seed, _EVAL_STREAM, idx),
                eval_cfg.get("include_multinomial", False),
            )
            mean_degree = float(model.structure.degrees().mean())
            rows.append((variant, model.n_hidden, mean_degree,
                         evaluation.per_word_perplexity(lp, docs)))
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write("variant\tF\tmean_visible_degree\ttest_perplexity\n")
            for variant, f, deg, ppl in rows:
                fh.write(f"{variant}\t{f}\t{deg!r}\t{ppl!r}\n")
        for variant, f, deg, ppl in rows:
            print(f"  {variant}: F={f} degree={deg:.1f} perplexity={ppl:.3f}")

    _run_stage("eval", report_path, eval_hash_cfg, eval_seed, eval_inputs,
               force, build_report)
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
    p.add_argument("--fraction", type=float, default=0.2,
                   help="target per-unit degree as a fraction of K")
    p.add_argument("--add", type=int, default=None,
                   help="fixed number of new connections per unit")
    p.add_argument("--cmi-out", default=None, help="write the CMI table as TSV")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("prune", help="magnitude-prune and retrain an RS model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--target-fraction", type=float, default=0.2)
    p.add_argument("--prune-fraction", type=float, default=0.2)
    p.add_argument("--retrain-epochs", type=int, default=1)
    _add_train_flags(p)
    p.add_argument("--log-out", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="held-out perplexity via AIS")
    p.add_argument("--model", required=True)
    p.add_argument("--docs", required=True, help="corpus prefix of held-out docs")
    p.add_argument("--ais-runs", type=int, default=100)
    p.add_argument("--schedule", default="default",
                   help="'default' or comma-joined start:end:count segments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-docs", type=int, default=None)
    p.add_argument("--include-multinomial", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="use exact enumeration instead of AIS (tiny models)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("interpret", help="embedding-based interpretability score")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True, help="vocab file or corpus prefix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--top-n", type=int, default=10)
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SparsebmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    return sys.exit(cmd_dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

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
import inspect
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
from .util import check_int, read_text, rng_from

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


def _load_any_model(path):
    """An rs-model file by its reader, a pruned one on its mask's structure;
    any other file by the sbm-model reader, which names a wrong kind."""
    if sbm_mod.file_kind(path) == "rs-model":
        return rs_mod.load_rs_model(path)
    return sbm_mod.load_sbm_model(path)


def _check_vocab(model, model_path, corpus):
    """Refuse a model and a corpus over different vocabulary sizes."""
    if model.n_visible != corpus.n_words:
        raise SparsebmError(
            f"model {model_path} has K={model.n_visible} words but corpus"
            f" {corpus.name} has K={corpus.n_words}"
        )


def _load_any_structure(path, n_visible):
    """Accepts sbm-structure files and skeleton text files over n_visible words."""
    if sbm_mod.file_kind(path) is None:
        return structure_mod.load_skeleton(path, n_visible)
    return sbm_mod.load_structure(path)


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


def _positive_int(text):
    """A count of at least 1, from command-line text."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return int(text)


def _auto_or_float(text):
    """'auto' or a float, from command-line text."""
    try:
        return text if text == "auto" else float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"want a float or 'auto', got {text!r}") from None


def _defaults(declaration):
    """The settings a declaration names, with their defaults: the fields of a
    settings dataclass that have one, or a step's keyword-only parameters."""
    if dataclasses.is_dataclass(declaration):
        return {f.name: f.default for f in dataclasses.fields(declaration)
                if f.default is not dataclasses.MISSING}
    params = inspect.signature(declaration).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def _from_args(args, declaration):
    """The settings of declaration as parsed from the command line."""
    return {name: getattr(args, name) for name in _defaults(declaration)}


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


def _add_train_flags(parser):
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--cd-steps", type=int)
    parser.add_argument("--lr", type=float, dest="learning_rate", metavar="LR")
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--weight-init-std", type=float)
    parser.add_argument("--visible-bias-init", choices=["zero", "log-frequency"])
    parser.add_argument("--bias-lr-scale", type=_auto_or_float,
                        dest="hidden_bias_lr_scale", metavar="BIAS_LR_SCALE",
                        help="hidden-bias step multiplier, a float or 'auto'")
    parser.set_defaults(**_defaults(TrainConfig))


# ---------------------------------------------------------------------------
# workflow steps, each run through _run_stage by its subcommand and its
# pipeline stage; a step prints a one-line summary and returns the files it
# wrote, and its stage hashes exactly the keyword-only settings it passes.
# Those settings and their defaults are declared once, by the step's
# keyword-only parameters, or by build_skeleton, TrainConfig and PruneConfig;
# the flags, the pipeline keys and their defaults are read from there


def _prepare(docword, vocab, out, *, select_k=None, select_method="frequency",
             seed=0, n_train=None, n_val=0, n_test=0):
    """Load a corpus, keep its select_k best words and write it under out as
    full.*, or split with split_manifest.txt."""
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
    else:
        split = corpus_mod.split_corpus(corpus, seed, n_train, n_val, n_test)
        emit("train", split.train)
        if n_val:
            emit("validation", split.validation)
        if n_test:
            emit("test", split.test)
        corpus_mod.save_split_manifest(split, out / "split_manifest.txt")
        outputs.append(out / "split_manifest.txt")
    print(f"prepared {corpus.n_docs} documents over {corpus.n_words} words in {out}")
    return outputs


def _skeleton(corpus, output, **settings):
    skeleton = structure_mod.build_skeleton(corpus, **settings)
    structure_mod.save_skeleton(skeleton, output)
    print(f"skeleton: {skeleton.n_hidden} hidden units,"
          f" {len(skeleton.tree_edges)} tree edges -> {output}")
    return [output]


def _train_sbm(corpus, structure, output, *, train):
    sbm_mod.save_sbm_model(sbm_mod.sbm_train(corpus, structure, train), output)
    print(f"trained SBM F={structure.n_hidden} -> {output}")
    return [output]


def _train_rs(corpus, output, *, hidden, train):
    rs_mod.save_rs_model(rs_mod.rs_train(corpus, hidden, train), output)
    print(f"trained RS model F={hidden} -> {output}")
    return [output]


def _expand(corpus, skeleton, tree_model_path, output, cmi_out, *, add=None,
            fraction=0.2):
    tree_model = sbm_mod.load_sbm_model(tree_model_path)
    _check_vocab(tree_model, tree_model_path, corpus)
    table = structure_mod.build_cmi_table(tree_model, corpus)
    # float: an int m would mean a count of connections to add per unit
    m = float(fraction) if add is None else add
    expanded = structure_mod.sbm_sfc(skeleton, tree_model, corpus, m, cmi_table=table)
    sbm_mod.save_structure(expanded, output)
    outputs = [output]
    if cmi_out:
        structure_mod.save_cmi_table(table, cmi_out)
        outputs.append(cmi_out)
    degrees = expanded.degrees()
    print(f"expanded structure: per-unit degree min={min(degrees)}"
          f" max={max(degrees)} -> {output}")
    return outputs


def _prune(model_path, corpus, output, log_out, *, prune):
    model = rs_mod.load_rs_model(model_path)
    _check_vocab(model, model_path, corpus)
    result = pruning.prune_and_retrain(model, corpus, prune)
    rs_mod.save_rs_model(result.model, output)
    outputs = [output]
    if log_out:
        pruning.save_iteration_log(result, log_out)
        outputs.append(log_out)
    print(f"pruned to {prune.target_per_unit} connections per unit over"
          f" {result.total_epochs} retraining epochs -> {output}")
    return outputs


def _held_out_docs(corpus, max_docs, seed):
    """The count CSR rows of all documents, or of max_docs drawn without
    replacement, in corpus order."""
    csr = corpus.count_csr()
    if max_docs is None or max_docs >= corpus.n_docs:
        return csr
    picker = rng_from(seed, _EVAL_STREAM, 7)
    return csr[np.sort(picker.choice(corpus.n_docs, size=max_docs, replace=False))]


def _score(model_path, docs_prefix, *, ais_runs=100, schedule="default", exact=False,
           max_docs=None, include_multinomial=False, seed=0):
    """(model, document lengths, per-document log-probabilities, per-word
    perplexity) of a model file on held-out documents; every model's AIS
    draws from rng_from(seed, _EVAL_STREAM). schedule is an AisSchedule; its
    default is the text that --schedule and the config key parse."""
    model = _load_any_model(model_path)
    corpus = _load_corpus(docs_prefix)
    _check_vocab(model, model_path, corpus)
    docs = _held_out_docs(corpus, max_docs, seed)
    lp, _ = evaluation.held_out_log_probs(
        model, docs, schedule, ais_runs, rng_from(seed, _EVAL_STREAM),
        include_multinomial, evaluation.exact_log_z if exact else None,
    )
    lengths = np.asarray(docs.sum(axis=1)).ravel()
    return model, lengths, lp, evaluation.per_word_perplexity(lp, lengths)


def _eval(model_path, docs_prefix, output, **settings):
    """_score's per-document log-probabilities, written to output if given,
    and its perplexity."""
    _, lengths, lp, ppl = _score(model_path, docs_prefix, **settings)
    if output:
        rows = zip(lengths.tolist(), lp.tolist(), np.exp(-lp / lengths).tolist())
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("doc_id\tD\tlog_p\tper_word_ppl\n")
            fh.writelines(f"{i}\t{d}\t{p!r}\t{q!r}\n" for i, (d, p, q) in enumerate(rows))
            fh.write(f"# documents\t{lengths.size}\n")
            fh.write(f"# perplexity\t{ppl!r}\n")
    print(f"perplexity {ppl!r} over {lengths.size} documents")
    return [output] if output else []


def _interpret(model_path, vocab_path, embeddings, output, *, top_n=10):
    """Each unit's top words and embedding score, written to output if given,
    and the model's score."""
    model = _load_any_model(model_path)
    vocab = corpus_mod.load_vocab(vocab_path)
    if len(vocab) != model.n_visible:
        raise SparsebmError(
            f"vocabulary {vocab_path} has {len(vocab)} words but model {model_path}"
            f" has K={model.n_visible}"
        )
    emb = evaluation.load_embeddings(embeddings)
    overall = evaluation.interpretability_model(model, vocab, emb, top_n)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write("unit\tscore\ttop_words\n")
            for j in range(model.n_hidden):
                words = evaluation.unit_top_words(model, vocab, j, top_n)
                score = evaluation.interpretability_unit(model, vocab, j, emb, top_n)
                fh.write(f"{j}\t{score!r}\t{' '.join(words)}\n")
            fh.write(f"# model_score\t{overall!r}\n")
    print(f"interpretability {overall!r} over {model.n_hidden} units")
    return [output] if output else []


def _write_report(test_prefix, output, *, models, **settings):
    """One report row per variant, each perplexity what eval prints for its
    model with the same settings."""
    rows = []
    for variant, path in sorted(models.items()):
        model, _, _, ppl = _score(path, test_prefix, **settings)
        rows.append((variant, model.n_hidden,
                     float(model.structure.degrees().mean()), ppl))
    with open(output, "w", encoding="utf-8") as fh:
        fh.write("variant\tF\tmean_visible_degree\ttest_perplexity\n")
        for variant, f, deg, ppl in rows:
            fh.write(f"{variant}\t{f}\t{deg!r}\t{ppl!r}\n")
            print(f"  {variant}: F={f} degree={deg:.1f} perplexity={ppl:.3f}")
    return [output]


def _stage_fresh(manifest_path, expected_hash):
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        # a cache that cannot be read or decoded is stale
        return False
    digests = manifest.get("output_sha256", {})
    return (manifest.get("config_hash") == expected_hash
            and all(Path(p).exists() and _file_sha256(p) == digests.get(p)
                    for p in manifest.get("outputs", [])))


def _run_stage(name, out_path, config, seed, inputs, force, step):
    """Run step(**config) and record the files it returns, with the hash of
    config, the input files and the code, in out_path.manifest.json; without
    out_path nothing is recorded. Unless forced, the step is skipped when that
    manifest holds the same hash and every file it lists exists with the
    sha256 it records. Returns whether the step ran."""
    manifest_path = None if out_path is None else Path(f"{out_path}.manifest.json")
    config_hash = None if manifest_path is None else _config_hash(config, inputs)
    if not force and _stage_fresh(manifest_path, config_hash):
        print(f"[{name}] cached")
        return False
    t0 = time.time()
    try:
        outputs = step(**config)
    except (SparsebmError, ValueError, OSError) as exc:
        raise SparsebmError(f"stage {name!r} failed: {exc}") from exc
    wall_time = time.time() - t0
    if manifest_path is not None:
        manifest = {
            "command": name, "config_hash": config_hash, "seed": seed,
            "inputs": [str(p) for p in inputs], "outputs": [str(p) for p in outputs],
            "output_sha256": {str(p): _file_sha256(p) for p in outputs},
            "wall_time_s": wall_time,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"[{name}] done in {wall_time:.1f}s")
    return True


# ---------------------------------------------------------------------------
# subcommands: each runs its step once, always, and records a manifest only
# when it writes to -o


def cmd_prepare(args):
    _run_stage(
        "prepare", Path(args.output) / "prepare", _from_args(args, _prepare),
        args.seed, [args.docword, args.vocab], True,
        functools.partial(_prepare, args.docword, args.vocab, args.output),
    )


def cmd_skeleton(args):
    _run_stage(
        "skeleton", args.output, _from_args(args, structure_mod.build_skeleton),
        0, _corpus_paths(args.corpus), True,
        functools.partial(_skeleton, _load_corpus(args.corpus), args.output),
    )


def cmd_train_rs(args):
    _run_stage(
        "train-rs", args.output,
        {"hidden": args.hidden, "train": TrainConfig(**_from_args(args, TrainConfig))},
        args.seed, _corpus_paths(args.corpus), True,
        functools.partial(_train_rs, _load_corpus(args.corpus), args.output),
    )


def cmd_train_sbm(args):
    corpus = _load_corpus(args.corpus)
    structure = _load_any_structure(args.structure, corpus.n_words)
    _run_stage(
        "train-sbm", args.output, {"train": TrainConfig(**_from_args(args, TrainConfig))},
        args.seed, [*_corpus_paths(args.corpus), args.structure], True,
        functools.partial(_train_sbm, corpus, structure, args.output),
    )


def cmd_expand(args):
    corpus = _load_corpus(args.corpus)
    skeleton = structure_mod.load_skeleton(args.skeleton, corpus.n_words)
    _run_stage(
        "expand", args.output, _from_args(args, _expand), 0,
        [*_corpus_paths(args.corpus), args.skeleton, args.tree_model], True,
        functools.partial(_expand, corpus, skeleton, args.tree_model, args.output,
                          args.cmi_out),
    )


def cmd_prune(args):
    corpus = _load_corpus(args.corpus)
    target = args.target
    if target is None:  # the model's K, which _prune checks against the corpus
        target = int(np.ceil(args.target_fraction * corpus.n_words))
    prune = pruning.PruneConfig(
        target_per_unit=target, train=TrainConfig(**_from_args(args, TrainConfig)),
        **_from_args(args, pruning.PruneConfig),
    )
    _run_stage(
        "prune", args.output, {"prune": prune}, args.seed,
        [*_corpus_paths(args.corpus), args.model], True,
        functools.partial(_prune, args.model, corpus, args.output, args.log_out),
    )


def cmd_eval(args):
    _run_stage(
        "eval", args.output, _from_args(args, _score), args.seed,
        [args.model, *_corpus_paths(args.docs)], True,
        functools.partial(_eval, args.model, args.docs, args.output),
    )


def cmd_interpret(args):
    vocab_path = Path(args.vocab)
    if not vocab_path.exists():
        vocab_path = _corpus_paths(args.vocab)[1]
    _run_stage(
        "interpret", args.output, _from_args(args, _interpret), 0,
        [args.model, vocab_path, args.embeddings], True,
        functools.partial(_interpret, args.model, vocab_path, args.embeddings,
                          args.output),
    )


# ---------------------------------------------------------------------------
# pipeline


_VARIANTS = ("rs_plus", "rs_plus_sfc", "rs_plus_pruned", "sbm_sfc")
_TRAIN_KEYS = set(_defaults(TrainConfig))
# split holds the settings of _prepare that split_corpus reads
_SPLIT_KEYS = set(inspect.signature(corpus_mod.split_corpus).parameters) - {"corpus"}
# the keys each pipeline config section may hold: those its step reads, less
# PruneConfig's train, which the train section sets, and _score's exact, as
# the report always runs AIS
_CONFIG_KEYS = {
    "corpus": {"docword", "vocab", *set(_defaults(_prepare)) - _SPLIT_KEYS},
    "split": _SPLIT_KEYS,
    "skeleton": set(_defaults(structure_mod.build_skeleton)),
    "train_defaults": _TRAIN_KEYS,
    "tree_train": _TRAIN_KEYS,
    "train": _TRAIN_KEYS,
    "expand": set(_defaults(_expand)),
    "prune": {f.name for f in dataclasses.fields(pruning.PruneConfig)} - {"train"},
    "eval": set(_defaults(_score)) - {"exact"},
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
    cfg = json.loads(read_text(args.config))
    if not isinstance(cfg, dict):
        raise SparsebmError("pipeline config must be a JSON object")
    for key in ("corpus", "out_dir", "seed"):
        if key not in cfg:
            raise SparsebmError(f"pipeline config is missing {key!r}")
    variants = _check_config_keys(cfg)
    seed = cfg["seed"]
    force = args.force
    # each section over the defaults its step declares; the split and eval
    # seeds default to the top-level one
    prepare = {**_defaults(_prepare), "seed": seed, **cfg["corpus"], **cfg.get("split", {})}
    skeleton_cfg = {**_defaults(structure_mod.build_skeleton), **cfg.get("skeleton", {})}
    expand_cfg = {**_defaults(_expand), **cfg.get("expand", {})}
    eval_params = {**_defaults(_score), "seed": seed, **cfg.get("eval", {})}

    if not {"docword", "vocab"} <= prepare.keys():
        raise SparsebmError("pipeline config corpus needs 'docword' and 'vocab'")
    docword = Path(prepare.pop("docword"))
    vocab = Path(prepare.pop("vocab"))
    if not docword.exists():
        raise SparsebmError(f"corpus file {docword} does not exist")
    optional = (("corpus.select_k", prepare["select_k"], 1),
                ("expand.add", expand_cfg["add"], 0),
                ("eval.max_docs", eval_params["max_docs"], 1))
    ints = [("seed", seed, None), ("split.seed", prepare["seed"], None),
            ("split.n_train", prepare["n_train"], 1), ("split.n_val", prepare["n_val"], 0),
            ("split.n_test", prepare["n_test"], 1), ("eval.seed", eval_params["seed"], None),
            ("eval.ais_runs", eval_params["ais_runs"], 1),
            *(check for check in optional if check[1] is not None)]
    try:
        for name, value, minimum in ints:
            check_int(f"pipeline config {name}", value, minimum)
        structure_mod.check_skeleton_settings("pipeline config skeleton.", **skeleton_cfg)
    except ValueError as exc:
        raise SparsebmError(str(exc)) from None
    if prepare["select_method"] not in corpus_mod.SELECT_METHODS:
        raise SparsebmError(f"pipeline config corpus.select_method must be one of"
                            f" {corpus_mod.SELECT_METHODS}, got {prepare['select_method']!r}")
    if type(eval_params["include_multinomial"]) is not bool:
        raise SparsebmError("pipeline config eval.include_multinomial must be true or"
                            f" false, got {eval_params['include_multinomial']!r}")
    try:
        eval_params["schedule"] = _parse_schedule(eval_params["schedule"])
    except argparse.ArgumentTypeError as exc:
        raise SparsebmError(f"pipeline config eval.schedule: {exc}") from None

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

    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    train_prefix = out / "train"
    test_prefix = out / "test"
    train_files = list(_corpus_paths(train_prefix))

    _run_stage("corpus", train_files[0], prepare, seed, [docword, vocab], force,
               functools.partial(_prepare, docword, vocab, out))
    train_corpus = _load_corpus(train_prefix)

    skeleton_path = out / "skeleton.txt"
    _run_stage("skeleton", skeleton_path, skeleton_cfg, seed, train_files, force,
               functools.partial(_skeleton, train_corpus, skeleton_path))
    skeleton = structure_mod.load_skeleton(skeleton_path, train_corpus.n_words)

    tree_model_path = out / "tree_model.sbm"
    _run_stage(
        "tree-model", tree_model_path, {"train": tree_cfg}, seed,
        [*train_files, skeleton_path], force,
        functools.partial(_train_sbm, train_corpus, skeleton, tree_model_path),
    )

    expanded_path = out / "expanded.struct"
    _run_stage(
        "expand", expanded_path, expand_cfg,
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
        _run_stage("rs-plus-pruned", path, {"prune": prune}, seed,
                   [*train_files, rs_path], force,
                   functools.partial(_prune, rs_path, train_corpus, path,
                                     out / "prune_log.tsv"))

    report_path = out / "report.tsv"
    eval_params["models"] = {v: str(p) for v, p in model_paths.items()}
    _run_stage("eval", report_path, eval_params, eval_params["seed"],
               [*sorted(model_paths.values()), *_corpus_paths(test_prefix)], force,
               functools.partial(_write_report, test_prefix, report_path))
    print(f"pipeline complete: {report_path}")


# ---------------------------------------------------------------------------
# dispatch


def build_parser():
    parser = _Parser(prog="sparsebm", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("prepare", help="load, filter and split a UCI corpus")
    p.add_argument("--docword", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--select-k", type=int)
    p.add_argument("--select-method", choices=corpus_mod.SELECT_METHODS)
    p.add_argument("--train", type=int, dest="n_train", metavar="TRAIN")
    p.add_argument("--val", type=int, dest="n_val", metavar="VAL")
    p.add_argument("--test", type=int, dest="n_test", metavar="TEST")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=cmd_prepare, **_defaults(_prepare))

    p = sub.add_parser("skeleton", help="build a two-level skeleton from data")
    p.add_argument("--corpus", required=True, help="corpus prefix")
    p.add_argument("--island-max", type=int)
    p.add_argument("--supergroup-max", type=int)
    p.add_argument("--mi-floor", type=_auto_or_float)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_skeleton, **_defaults(structure_mod.build_skeleton))

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
    size.add_argument("--fraction", type=float,
                      help="target per-unit degree as a fraction of K")
    size.add_argument("--add", type=int,
                      help="fixed number of new connections per unit")
    p.add_argument("--cmi-out", default=None, help="write the CMI table as TSV")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_expand, **_defaults(_expand))

    p = sub.add_parser("prune", help="magnitude-prune and retrain an RS model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    target = p.add_mutually_exclusive_group()
    target.add_argument("--target", type=int, default=None)
    target.add_argument("--target-fraction", type=float, default=0.2)
    p.add_argument("--prune-fraction", type=float)
    p.add_argument("--retrain-epochs", type=int, dest="retrain_epochs_per_iter",
                   metavar="RETRAIN_EPOCHS")
    _add_train_flags(p)
    p.add_argument("--log-out", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_prune, **_defaults(pruning.PruneConfig))

    p = sub.add_parser("eval", help="held-out perplexity via AIS")
    p.add_argument("--model", required=True)
    p.add_argument("--docs", required=True, help="corpus prefix of held-out docs")
    p.add_argument("--ais-runs", type=_positive_int)
    p.add_argument("--schedule", type=_parse_schedule,
                   help="'default' or comma-joined start:end:count segments")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-docs", type=_positive_int)
    p.add_argument("--include-multinomial", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="use the exact closed-form log Z instead of AIS"
                        " (needs 2^F*K <= 2^25, e.g. F <= 15 at K=1000)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_eval, **_defaults(_score))

    p = sub.add_parser("interpret", help="embedding-based interpretability score")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True, help="vocab file or corpus prefix")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--top-n", type=_positive_int)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_interpret, **_defaults(_interpret))

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
        args.func(args)
    except (SparsebmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    sys.exit(cmd_dispatch(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()

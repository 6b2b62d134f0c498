import json

import numpy as np
import pytest

from sparsebm.cli import cmd_dispatch
from sparsebm.corpus import save_uci_bow
from sparsebm.synthetic import sparse_topic_corpus


@pytest.fixture(scope="module")
def small_corpus_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    made = sparse_topic_corpus(
        400, seed=0, n_words=12, n_groups=2, doc_len_range=(5, 10),
        background=0.08,
    )
    prefix = tmp / "small"
    save_uci_bow(made.corpus, f"{prefix}.docword.txt", f"{prefix}.vocab.txt")
    return tmp, prefix


def run(argv):
    return cmd_dispatch([str(a) for a in argv])


class TestDispatch:
    def test_unknown_command_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_prints_usage(self, capsys):
        assert run([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "subcommand" in capsys.readouterr().out or True

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = run(["skeleton", "--corpus", tmp_path / "nope", "-o", tmp_path / "s"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "prepare", "skeleton", "train-rs", "train-sbm", "expand", "prune",
        "eval", "interpret", "pipeline",
    ])
    def test_every_command_has_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--schedule", "0:1:x"), ("--schedule", "0:1"), ("--schedule", "0:0.5:5"),
        ("--schedule", "0:nan:5,nan:1:5"), ("--schedule", "0:1:5,1:inf:5"),
        ("--max-docs", "-3"), ("--max-docs", "0"), ("--ais-runs", "0"),
    ])
    def test_bad_eval_setting_is_usage_error_naming_it(self, flag, value, tmp_path,
                                                       capsys):
        code = run(["eval", "--model", tmp_path / "m.sbm", "--docs", tmp_path / "d",
                    flag, value])
        assert code == 1
        err = capsys.readouterr().err
        assert flag in err and value in err

    @pytest.mark.parametrize("command, first, second", [
        (["expand", "--corpus", "c", "--skeleton", "s", "--tree-model", "t"],
         ["--add", "3"], ["--fraction", "0.2"]),
        (["prune", "--corpus", "c", "--model", "m"],
         ["--target", "3"], ["--target-fraction", "0.2"]),
    ])
    def test_exclusive_size_flags_are_usage_error_naming_both(
            self, command, first, second, tmp_path, capsys):
        for pair in (first + second, second + first):
            assert run([*command, *pair, "-o", tmp_path / "out"]) == 1
            err = capsys.readouterr().err
            assert first[0] in err and second[0] in err
        assert not (tmp_path / "out").exists()

    def test_size_flag_defaults(self):
        from sparsebm.cli import build_parser

        parser = build_parser()
        expand = parser.parse_args(["expand", "--corpus", "c", "--skeleton", "s",
                                    "--tree-model", "t", "-o", "o"])
        assert (expand.add, expand.fraction) == (None, 0.2)
        prune = parser.parse_args(["prune", "--corpus", "c", "--model", "m", "-o", "o"])
        assert (prune.target, prune.target_fraction) == (None, 0.2)

    def test_bad_pruned_model_is_data_error(self, tmp_path, capsys):
        model = tmp_path / "bad.rs"
        model.write_text(
            "sparsebm rs-model 1\n[dims]\nF 1\nK 2\n[W]\n0.5 0.0\n"
            "[a]\n0.0\n[b]\n0.0 0.0\n[mask]\n5 1\n"
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n")
        emb = tmp_path / "emb.txt"
        emb.write_text("a 1.0 0.0\nb 0.0 1.0\n")
        code = run(["interpret", "--model", model, "--vocab", vocab,
                    "--embeddings", emb])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.rs" in err and "out of range" in err


class TestVocabularyMismatch:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """K=6 RS and tree models, and K=4 and K=8 corpora with skeletons."""
        from sparsebm.replicated_softmax import RsModel, save_rs_model
        from sparsebm.sbm import SbmModel, SbmStructure, save_sbm_model

        tmp = tmp_path_factory.mktemp("vocab")
        rng = np.random.default_rng(0)
        save_rs_model(RsModel(rng.normal(0, 0.1, (2, 6)), np.zeros(2), np.zeros(6)),
                      tmp / "k6.rs")
        tree = SbmStructure(2, 6, [(j // 3, j) for j in range(6)], [(0, 1)])
        save_sbm_model(SbmModel(tree, np.where(tree.mask(), 0.1, 0.0), [0.1],
                                np.zeros(2), np.zeros(6)), tmp / "k6.sbm")
        for k in (4, 8):
            made = sparse_topic_corpus(30, seed=0, n_words=k, n_groups=2,
                                       doc_len_range=(3, 6))
            save_uci_bow(made.corpus, tmp / f"k{k}.docword.txt", tmp / f"k{k}.vocab.txt")
            groups = [" ".join(str(v) for v in g) for g in (range(k // 2), range(k // 2, k))]
            (tmp / f"k{k}.skel").write_text(f"0: {groups[0]}\n1: {groups[1]}\n[tree]\n0 1\n")
        return tmp

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("command", ["eval", "prune", "expand"])
    def test_model_and_corpus_vocabularies_must_match(self, files, command, k, capsys):
        corpus = files / f"k{k}"
        model = files / ("k6.sbm" if command == "expand" else "k6.rs")
        out = files / f"out-{command}-{k}"
        argv = {
            "eval": ["eval", "--model", model, "--docs", corpus, "--ais-runs", 2,
                     "--schedule", "0:1:2", "-o", out],
            "prune": ["prune", "--corpus", corpus, "--model", model, "--target", 1,
                      "-o", out],
            "expand": ["expand", "--corpus", corpus, "--skeleton", files / f"k{k}.skel",
                       "--tree-model", model, "-o", out],
        }[command]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert model.name in err and f"k{k}.docword.txt" in err
        assert "K=6" in err and f"K={k}" in err
        assert not out.exists()


class TestPrepare:
    def test_prepare_splits_and_manifests(self, small_corpus_files, tmp_path):
        tmp, prefix = small_corpus_files
        out = tmp_path / "prep"
        code = run([
            "prepare", "--docword", f"{prefix}.docword.txt",
            "--vocab", f"{prefix}.vocab.txt",
            "--train", 300, "--test", 100, "--seed", 5, "-o", out,
        ])
        assert code == 0
        assert (out / "train.docword.txt").exists()
        assert (out / "test.vocab.txt").exists()
        assert (out / "split_manifest.txt").exists()
        manifest = json.loads((out / "prepare.manifest.json").read_text())
        assert manifest["command"] == "prepare"
        assert manifest["seed"] == 5
        assert manifest["wall_time_s"] >= 0


@pytest.fixture(scope="module")
def workdir(small_corpus_files, tmp_path_factory):
    tmp, prefix = small_corpus_files
    out = tmp_path_factory.mktemp("work")
    assert run([
        "prepare", "--docword", f"{prefix}.docword.txt",
        "--vocab", f"{prefix}.vocab.txt",
        "--train", 320, "--test", 80, "--seed", 1, "-o", out,
    ]) == 0
    return out


class TestWorkflow:
    def test_skeleton_train_expand_eval(self, workdir):
        train = workdir / "train"
        assert run([
            "skeleton", "--corpus", train, "--island-max", 6,
            "--supergroup-max", 1, "--mi-floor", "0.01",
            "-o", workdir / "skel.txt",
        ]) == 0
        assert run([
            "train-sbm", "--corpus", train, "--structure", workdir / "skel.txt",
            "--epochs", 20, "--cd-steps", 2, "--lr", "0.01",
            "--batch-size", 40, "--seed", 7, "--weight-init-std", "0.1",
            "--visible-bias-init", "log-frequency", "--bias-lr-scale", "auto",
            "-o", workdir / "tree.sbm",
        ]) == 0
        assert run([
            "expand", "--corpus", train, "--skeleton", workdir / "skel.txt",
            "--tree-model", workdir / "tree.sbm", "--fraction", "0.5",
            "--cmi-out", workdir / "cmi.tsv", "-o", workdir / "expanded.struct",
        ]) == 0
        assert (workdir / "cmi.tsv").read_text().startswith("hidden\tvisible\tscore")
        assert run([
            "train-sbm", "--corpus", train, "--structure",
            workdir / "expanded.struct", "--epochs", 10, "--cd-steps", 2,
            "--seed", 7, "--weight-init-std", "0.1", "-o", workdir / "model.sbm",
        ]) == 0
        assert run([
            "eval", "--model", workdir / "model.sbm", "--docs", workdir / "test",
            "--ais-runs", 10, "--schedule", "0:0.5:20,0.5:1:40", "--seed", 3,
            "-o", workdir / "eval.tsv",
        ]) == 0
        lines = (workdir / "eval.tsv").read_text().splitlines()
        assert lines[0] == "doc_id\tD\tlog_p\tper_word_ppl"
        assert any(line.startswith("# perplexity") for line in lines)

    def test_train_rs_prune_and_interpret(self, workdir, tmp_path):
        train = workdir / "train"
        assert run([
            "train-rs", "--corpus", train, "--hidden", 3, "--epochs", 5,
            "--cd-steps", 1, "--seed", 2, "--weight-init-std", "0.05",
            "-o", workdir / "dense.rs",
        ]) == 0
        assert run([
            "prune", "--corpus", train, "--model", workdir / "dense.rs",
            "--target", 4, "--retrain-epochs", 1, "--epochs", 1,
            "--cd-steps", 1, "--seed", 2, "--log-out", workdir / "prune.tsv",
            "-o", workdir / "pruned.rs",
        ]) == 0
        from sparsebm.pruning import load_pruned_rs

        model, mask = load_pruned_rs(workdir / "pruned.rs")
        assert mask.sum(axis=1).tolist() == [4, 4, 4]
        emb = tmp_path / "emb.txt"
        lines = []
        rng = np.random.default_rng(0)
        for k in range(12):
            vec = " ".join(repr(float(x)) for x in rng.normal(size=4))
            lines.append(f"w{k:03d} {vec}")
        emb.write_text("\n".join(lines) + "\n")
        assert run([
            "interpret", "--model", workdir / "pruned.rs", "--vocab",
            workdir / "train", "--embeddings", emb, "--top-n", 4,
            "-o", workdir / "interp.tsv",
        ]) == 0
        text = (workdir / "interp.tsv").read_text()
        assert text.startswith("unit\tscore\ttop_words")
        assert "# model_score" in text


    @pytest.mark.parametrize("command", ["train-rs", "train-sbm"])
    @pytest.mark.parametrize("flag, value, named", [
        ("--lr", "nan", "learning_rate"), ("--lr", "-1", "learning_rate"),
        ("--weight-init-std", "inf", "weight_init_std"),
        ("--bias-lr-scale", "nan", "hidden_bias_lr_scale"),
        ("--bias-lr-scale", "inf", "hidden_bias_lr_scale"),
    ])
    def test_bad_train_setting_is_data_error_naming_it(self, workdir, tmp_path, capsys,
                                                       command, flag, value, named):
        from sparsebm.sbm import SbmStructure, save_structure

        structure = tmp_path / "full.structure"
        save_structure(SbmStructure.full(2, 12), structure)
        size = ["--hidden", 2] if command == "train-rs" else ["--structure", structure]
        out = tmp_path / "model"
        assert run([command, *size, "--corpus", workdir / "train", "--epochs", 1,
                    flag, value, "-o", out]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_interpret_top_n_below_one_is_usage_error(self, tmp_path, capsys, value):
        code = run(["interpret", "--model", tmp_path / "m.rs", "--vocab", tmp_path / "v",
                    "--embeddings", tmp_path / "e", "--top-n", value])
        assert code == 1
        err = capsys.readouterr().err
        assert "--top-n" in err and value in err

    def test_prune_above_a_pruned_models_budget_is_data_error(self, workdir, tmp_path,
                                                            capsys):
        train = workdir / "train"
        common = ["--retrain-epochs", 1, "--epochs", 1, "--cd-steps", 1, "--seed", 2]
        assert run([
            "train-rs", "--corpus", train, "--hidden", 3, "--epochs", 2,
            "--cd-steps", 1, "--seed", 2, "-o", tmp_path / "dense.rs",
        ]) == 0
        assert run(["prune", "--corpus", train, "--model", tmp_path / "dense.rs",
                    "--target", 3, *common, "-o", tmp_path / "p3.rs"]) == 0
        capsys.readouterr()
        assert run(["prune", "--corpus", train, "--model", tmp_path / "p3.rs",
                    "--target", 5, *common, "-o", tmp_path / "p5.rs"]) == 2
        err = capsys.readouterr().err
        assert "target_per_unit=5" in err and "count 3" in err
        assert not (tmp_path / "p5.rs").exists()


class TestPipeline:
    def make_config(self, prefix, out_dir, seed=3):
        return {
            "corpus": {"docword": f"{prefix}.docword.txt",
                       "vocab": f"{prefix}.vocab.txt"},
            "split": {"n_train": 320, "n_test": 80, "seed": seed},
            "skeleton": {"island_max": 6, "supergroup_max": 1, "mi_floor": 0.01},
            "train_defaults": {
                "epochs": 10, "cd_steps": 2, "learning_rate": 0.01,
                "batch_size": 40, "weight_init_std": 0.1,
                "visible_bias_init": "log-frequency",
                "hidden_bias_lr_scale": "auto",
            },
            "expand": {"fraction": 0.5},
            "eval": {"ais_runs": 5, "schedule": [[0.0, 0.5, 20], [0.5, 1.0, 40]],
                     "seed": seed},
            "variants": ["rs_plus", "sbm_sfc", "rs_plus_sfc", "rs_plus_pruned"],
            "seed": seed,
            "out_dir": str(out_dir),
        }

    def test_pipeline_end_to_end_and_caching(self, small_corpus_files,
                                             tmp_path, capsys):
        _, prefix = small_corpus_files
        out_dir = tmp_path / "run"
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(self.make_config(prefix, out_dir)))
        assert run(["pipeline", "--config", config_path]) == 0
        report = (out_dir / "report.tsv").read_text()
        assert report.startswith("variant\tF\t")
        assert "sbm_sfc" in report and "rs_plus_pruned" in report
        capsys.readouterr()
        # rerun must hit every cache
        assert run(["pipeline", "--config", config_path]) == 0
        output = capsys.readouterr().out
        assert output.count("cached") >= 8

    def test_pipeline_reruns_stages_after_code_change(self, small_corpus_files,
                                                      tmp_path, capsys, monkeypatch):
        from sparsebm import cli

        _, prefix = small_corpus_files
        config = self.make_config(prefix, tmp_path / "run")
        config["variants"] = ["rs_plus"]
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 0
        capsys.readouterr()
        assert run(["pipeline", "--config", config_path]) == 0
        output = capsys.readouterr().out
        assert output.count("cached") == 6 and "done in" not in output
        monkeypatch.setattr(cli, "_code_digest", lambda: "0" * 64)
        assert run(["pipeline", "--config", config_path]) == 0
        output = capsys.readouterr().out
        assert "cached" not in output and output.count("done in") == 6

    def test_pipeline_reruns_a_stage_when_a_setting_it_reads_changes(
            self, small_corpus_files, tmp_path, capsys):
        _, prefix = small_corpus_files
        config = self.make_config(prefix, tmp_path / "run")
        config["variants"] = ["rs_plus"]
        del config["split"]["seed"]  # the split then uses the top-level seed
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 0
        capsys.readouterr()
        config["eval"]["include_multinomial"] = True
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 0
        output = capsys.readouterr().out
        assert output.count("cached") == 5 and output.count("done in") == 1
        assert "[eval] done in" in output
        config["seed"] = 4
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 0
        assert "[corpus] done in" in capsys.readouterr().out

    @pytest.mark.parametrize("section, values, named", [
        ("eval", {"schedule": [[0.0, 1.0]]}, "eval.schedule"),
        ("eval", {"schedule": "0:1:x"}, "eval.schedule"),
        ("eval", {"ais_runs": 0}, "eval.ais_runs"),
        ("eval", {"max_docs": -3}, "eval.max_docs"),
        ("eval", {"max_docs": 2.5}, "eval.max_docs"),
        ("split", {"n_train": 320}, "split.n_test"),
        ("split", {"n_train": 320, "n_test": 0}, "split.n_test"),
        ("train", {"batch_size": 0}, "'train'"),
        ("train_defaults", {"epochs": 2.5}, "epochs"),
        ("train", {"learning_rate": float("nan")}, "learning_rate"),
        ("tree_train", {"weight_init_std": float("inf")}, "weight_init_std"),
        ("train_defaults", {"hidden_bias_lr_scale": float("nan")}, "hidden_bias_lr_scale"),
        ("eval", {"schedule": [[0.0, float("nan"), 5], [float("nan"), 1.0, 5]]},
         "eval.schedule"),
        ("tree_train", {"cd_steps": True}, "'tree_train'"),
        ("prune", {"target_per_unit": 2.5}, "'prune'"),
        ("prune", {"prune_fraction": 1.5}, "'prune'"),
        (None, {"seed": 2.5}, "config seed"),
        (None, {"seed": True}, "config seed"),
        (None, {"seed": "3"}, "config seed"),
        ("split", {"n_train": 320, "n_test": 80, "seed": 2.5}, "split.seed"),
        ("eval", {"seed": "3"}, "eval.seed"),
    ])
    def test_pipeline_bad_setting_fails_before_stages(self, small_corpus_files,
                                                      tmp_path, capsys, section,
                                                      values, named):
        _, prefix = small_corpus_files
        config = self.make_config(prefix, tmp_path / "run")
        if section is None:
            config.update(values)
        else:
            config[section] = values
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "[corpus]" not in captured.out
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value, named", [
        ("eval", "ais_run", 3, ["'eval'", "'ais_run'"]),
        ("expand", "fracton", 0.9, ["'expand'", "'fracton'"]),
        ("split", "sed", 1, ["'split'", "'sed'"]),
        ("skeleton", "island", 6, ["'skeleton'", "'island'"]),
        ("train_defaults", "epoch", 3, ["'train_defaults'", "'epoch'"]),
        ("train", "momentum", 0.9, ["'train'", "'momentum'"]),
        ("train_defaults", "weight_decay", 0.01, ["'train_defaults'", "'weight_decay'"]),
        ("tree_train", "mean_field_negative", True,
         ["'tree_train'", "'mean_field_negative'"]),
        ("prune", "train", {}, ["'prune'", "'train'"]),
        (None, "varients", ["sbm_sfc"], ["top level", "'varients'"]),
        (None, "variants", ["sbm-sfc"], ["variants", "'sbm-sfc'"]),
    ])
    def test_pipeline_unknown_key_or_variant_fails_before_stages(
            self, small_corpus_files, tmp_path, capsys, section, key, value, named):
        _, prefix = small_corpus_files
        config = self.make_config(prefix, tmp_path / "run")
        target = config if section is None else config.setdefault(section, {})
        target[key] = value
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 2
        captured = capsys.readouterr()
        for word in named:
            assert word in captured.err
        assert "[corpus]" not in captured.out
        assert not (tmp_path / "run").exists()

    def test_pipeline_expand_add_and_fraction_fail_before_stages(
            self, small_corpus_files, tmp_path, capsys):
        _, prefix = small_corpus_files
        config = self.make_config(prefix, tmp_path / "run")
        config["expand"] = {"add": 2, "fraction": 0.5}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 2
        captured = capsys.readouterr()
        assert "'add'" in captured.err and "'fraction'" in captured.err
        assert "[corpus]" not in captured.out
        assert not (tmp_path / "run").exists()

    def test_pipeline_missing_corpus_fails_before_stages(self, tmp_path, capsys):
        cfg = {
            "corpus": {"docword": str(tmp_path / "ghost.txt"),
                       "vocab": str(tmp_path / "ghost2.txt")},
            "seed": 0,
            "out_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["pipeline", "--config", path]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_pipeline_failure_names_the_stage(self, tmp_path, capsys):
        # one-word vocabulary: the skeleton stage cannot run
        from sparsebm.corpus import Corpus, Document

        corpus = Corpus(["only"], [Document([0], [2]) for _ in range(20)])
        prefix = tmp_path / "mono"
        save_uci_bow(corpus, f"{prefix}.docword.txt", f"{prefix}.vocab.txt")
        cfg = {
            "corpus": {"docword": f"{prefix}.docword.txt",
                       "vocab": f"{prefix}.vocab.txt"},
            "split": {"n_train": 15, "n_test": 5, "seed": 0},
            "seed": 0,
            "out_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["pipeline", "--config", path]) == 2
        assert "stage 'skeleton' failed" in capsys.readouterr().err

    def test_pipeline_report_matches_exact_oracle(self, small_corpus_files,
                                                  tmp_path):
        # dual route: the report's AIS perplexity against the enumeration
        # oracle on the same held-out documents
        from sparsebm.cli import _load_any_model
        from sparsebm.corpus import load_uci_bow
        from sparsebm.evaluation import exact_log_z, perplexity

        _, prefix = small_corpus_files
        out_dir = tmp_path / "run"
        config = self.make_config(prefix, out_dir, seed=6)
        config["variants"] = ["sbm_sfc"]
        config["eval"] = {"ais_runs": 30,
                          "schedule": [[0.0, 0.5, 50], [0.5, 1.0, 150]],
                          "seed": 6}
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(config))
        assert run(["pipeline", "--config", config_path]) == 0
        report = (out_dir / "report.tsv").read_text().splitlines()[1]
        ais_ppl = float(report.split("\t")[3])
        model = _load_any_model(out_dir / "sbm_sfc.sbm")
        test_corpus, _ = load_uci_bow(out_dir / "test.docword.txt",
                                      out_dir / "test.vocab.txt")
        exact_ppl = perplexity(model, test_corpus.docs, log_z_fn=exact_log_z)
        assert ais_ppl == pytest.approx(exact_ppl, rel=0.03)

    def test_pipeline_reproducibility(self, small_corpus_files, tmp_path):
        _, prefix = small_corpus_files
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = tmp_path / "a.json"
        cfg_b = tmp_path / "b.json"
        config = self.make_config(prefix, out_a)
        cfg_a.write_text(json.dumps(config))
        config["out_dir"] = str(out_b)
        cfg_b.write_text(json.dumps(config))
        assert run(["pipeline", "--config", cfg_a]) == 0
        assert run(["pipeline", "--config", cfg_b]) == 0
        for name in ("sbm_sfc.sbm", "rs_plus.rs", "rs_plus_sfc.sbm",
                     "rs_plus_pruned.rs", "report.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

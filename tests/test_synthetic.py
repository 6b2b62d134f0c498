import re

import pytest

from sparsebm.synthetic import boltzmann_corpus, main, sparse_topic_corpus


class TestPlantedPairs:
    @pytest.mark.parametrize("pair, message", [
        ((0, -1), "word -1 is outside [0, 60)"),
        ((0, 99), "word 99 is outside [0, 60)"),
        ((-1, 3), "group -1 is outside [0, 8)"),
        ((9, 3), "group 9 is outside [0, 8)"),
        ((0, 0), "word 0 already belongs to group 0"),
    ])
    def test_refused_naming_the_pair(self, pair, message):
        expected = re.escape(f"planted pair {pair}: {message}")
        with pytest.raises(ValueError, match=expected):
            sparse_topic_corpus(20, 0, planted=[pair])
        with pytest.raises(ValueError, match=expected):
            boltzmann_corpus(20, 0, planted=[pair])

    def test_pair_at_the_edges_accepted(self):
        made = sparse_topic_corpus(20, 0, planted=[(7, 0), (0, 59)])
        assert made.planted == [(7, 0), (0, 59)]


@pytest.mark.parametrize("n_docs, message", [
    (-3, "n_docs must be at least 0, got -3"),
    (2.5, "n_docs must be an integer, got 2.5"),
])
@pytest.mark.parametrize("generate", [sparse_topic_corpus, boltzmann_corpus])
def test_bad_document_count_refused_naming_it(generate, n_docs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(n_docs, 0)


class TestCli:
    def test_writes_both_files(self, tmp_path, capsys):
        assert main([str(tmp_path / "demo"), "--docs", "50", "--plant", "0:9"]) == 0
        assert (tmp_path / "demo.docword.txt").read_text().startswith("50\n60\n")
        assert len((tmp_path / "demo.vocab.txt").read_text().split()) == 60
        assert "wrote 50 docs over 60 words" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, named", [
        ("0-9", "argument --plant: invalid planted_pair value: '0-9'"),
        ("x:1", "argument --plant: invalid planted_pair value: 'x:1'"),
        ("1:2:3", "argument --plant: invalid planted_pair value: '1:2:3'"),
        ("0:0", "planted pair (0, 0): word 0 already belongs to group 0"),
        ("0:99", "planted pair (0, 99): word 99 is outside [0, 60)"),
        ("9:3", "planted pair (9, 3): group 9 is outside [0, 8)"),
    ])
    def test_bad_plant_is_a_usage_error(self, tmp_path, capsys, spec, named):
        with pytest.raises(SystemExit) as info:
            main([str(tmp_path / "demo"), "--docs", "50", f"--plant={spec}"])
        assert info.value.code == 2
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_negative_docs_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main([str(tmp_path / "demo"), "--docs", "-5"])
        assert info.value.code == 2
        assert "n_docs must be at least 0, got -5" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

"""Smoke test of the benchmark on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_smoke.py

Checks metric names and units against BENCHMARK.json, the self-time
arithmetic on a hand-made span tree, that every workload at tiny size runs
traced and untraced with all checks passing, and that the benchmark fails
without printing a result when the checkout has no sources.
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, AisWorkload, PipelineWorkload, StructureWorkload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m for m in SPEC["per_layer"]}


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME_RE.fullmatch(m["name"]), m
        assert UNIT_RE.fullmatch(m["unit"]), m
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert E2E["setup_s"]["bound"] == max(m["bound"] for m in E2E.values())


def _tree(rows):
    return [spans.Span(*row) for row in rows]


def test_self_time_arithmetic():
    # A[0,10] has children B[1,4] and C[3,6], which overlap, and E[8,12],
    # which runs past A's end; B has child D[2,3].
    tree = _tree([
        ("cli.cmd_dispatch", 0.0, 10.0, -1, 0),
        ("structure.build_cmi_table", 1.0, 4.0, 0, 0),
        ("sbm.tree_sum_product", 2.0, 3.0, 1, 0, {"batch": 7, "hidden": 3}),
        ("sbm.tree_sum_product", 3.0, 6.0, 0, 0, {"batch": 5, "hidden": 3}),
        ("corpus.load_uci_bow", 8.0, 12.0, 0, 0),
    ])
    # A covers [1,6] and [8,10] by children: 10 - 5 - 2 = 3
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 3.0, 4.0]
    m = spans.layer_metrics(tree)
    assert m["cli.self_s"] == 3.0
    assert m["structure.cmi_table_s"] == 3.0
    assert m["structure.cmi_self_s"] == 2.0
    assert m["structure.cmi_bp_calls"] == 1.0
    assert m["sbm.bp_calls"] == 2.0
    assert m["sbm.bp_s"] == 4.0
    assert m["sbm.bp_us"] == pytest.approx(2e6)
    assert m["sbm.bp_batch"] == 6.0
    assert m["corpus.load_s"] == 4.0
    assert set(m) | {"trace.overhead_pct"} == set(LAYERS)


TINY = [
    PipelineWorkload(n_docs=330, n_train=300, n_test=30, n_words=12, n_groups=3,
                     planted=((0, 5),), island_max=4, epochs=1, ais_runs=5,
                     schedule=((0.0, 0.5, 2), (0.5, 0.9, 2), (0.9, 1.0, 3))),
    StructureWorkload(n_words=60, n_groups=6, doc_len=(40, 80), activation_p=0.2,
                      n_docs=1210, n_test=10, epochs=4),
    AisWorkload(n_words=40, n_groups=4, doc_len=(20, 40), activation_p=0.3,
                n_train=300, n_heldout=4, heldout_len=(20, 21), ais_runs=5,
                schedule="0:0.5:2,0.5:0.9:2,0.9:1:3"),
]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workload_runs_and_checks(workload, tmp_path):
    report = run.measure(workload, seed=3, seconds=0.1, trace=True, work=tmp_path)
    correct, attempted, failed, e2e, quality, layers = run.summarize(report, trace=True)
    problems = [p for r in report["runs"] for p in r["problems"]]
    assert correct and failed == 0 and attempted == 2, problems
    assert set(e2e) == set(E2E)
    assert set(quality) == set(workload.quality_names)
    assert set(layers) == set(LAYERS)
    for name, value in {**e2e, **quality, **layers}.items():
        assert NAME_RE.fullmatch(name) and math.isfinite(value), (name, value)
    for name, value in {**e2e, **quality}.items():
        assert value > 0, name
    # the traced run wrote the same artifacts as the untraced one
    assert report["runs"][0]["hashes"] == report["runs"][1]["hashes"]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "pipeline-k60",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""sparsebm benchmark: one workload at one seed.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
checkout's `src/sparsebm`. The run

1. makes the workload's inputs from the seed at least three times, and
   until three seconds have gone, and reports the median as `setup_s` (the
   copies must be byte-identical);
2. runs the workload's sparsebm commands, each run in a fresh process with
   BLAS threads pinned to 1, one run after another until `--seconds` would
   be exceeded (at least one run; with `--trace 1`, untraced and traced runs
   alternate and at least one of each is made);
3. checks every run's outputs and counts a run as failed when a check fails
   or its artifact bytes differ from the first run's;
4. prints the environment, one line per metric with its unit, and as the
   last line a JSON object with `correct`, `attempted`, `failed` and
   `metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
   of the traced runs with `--trace 1`.

Scratch files go to `.bench_work/<workload>/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up repeats: a cheap set-up is repeated more, so its median is steadier.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 15
SETUP_MIN_S = 3.0
MAX_RUNS = 50
CHILD_TIMEOUT_S = 150
# Seed reserved for confirming a claimed gain; never used while tuning a change.
CLAIM_SEED = 9973


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, env):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: env.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
        "claim_seed": CLAIM_SEED,
    }


def baseline_rss_mb(env):
    """Peak RSS of a process that only imports numpy, scipy and sparsebm."""
    code = ("import resource, numpy, scipy, sparsebm;"
            " print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return int(out.stdout.strip()) / 1024.0


def run_once(workload, work, seed, index, traced, meta, env, first_hashes):
    from workloads import artifact_hashes

    run_dir = f"run{index}"
    (work / run_dir).mkdir()
    spec = {
        "src": str(SRC),
        "commands": workload.commands(work, seed, run_dir),
        "trace": traced,
        "run_id": index,
        "result_out": str(work / run_dir / "result.json"),
        "spans_out": str(work / run_dir / "spans.json"),
    }
    spec_path = work / run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    t0 = time.perf_counter()
    with open(work / run_dir / "child.log", "w", encoding="utf-8") as log:
        try:
            returncode = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            returncode = None
    elapsed = time.perf_counter() - t0

    run = {"index": index, "traced": traced, "elapsed_s": elapsed, "problems": [],
           "quality": {}, "hashes": {}, "result": None}
    if returncode != 0:
        why = "timed out" if returncode is None else f"exited {returncode}"
        run["problems"].append(f"run process {why}, see {run_dir}/child.log")
        return run
    run["result"] = result = json.loads(Path(spec["result_out"]).read_text())
    if any(code != 0 for code in result["exit_codes"]):
        run["problems"].append(f"command exit codes {result['exit_codes']}")
        return run
    if result["ais_nonfinite"]:
        run["problems"].append(
            f"{result['ais_nonfinite']} of {result['ais_calls']} AIS calls had"
            " non-finite run weights")
    out = work / run_dir / "out"
    try:
        problems, run["quality"] = workload.check(out, meta)
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    run["problems"] += problems
    run["hashes"] = artifact_hashes(out)
    if first_hashes is not None and run["hashes"] != first_hashes:
        differ = sorted(k for k in set(run["hashes"]) | set(first_hashes)
                        if run["hashes"].get(k) != first_hashes.get(k))
        run["problems"].append(f"artifact bytes differ from the first run: {differ}")
    return run


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "sparsebm" / "__init__.py").is_file():
        print(f"error: no sparsebm sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    report = measure(workload, args.seed, args.seconds, bool(args.trace),
                     WORK_ROOT / workload.name)
    return emit(report, units, bool(args.trace))


def child_env():
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def measure(workload, seed, seconds, trace, work):
    """Set up, run and check one workload; returns the full report dict."""
    from workloads import sha256_files

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    report = {"workload": workload.name, "work_dir": str(work),
              "environment": environment(seed, env), "baseline_rss_mb": baseline_rss_mb(env)}

    setup_s = []
    setup_hashes = []
    while len(setup_s) < SETUP_MAX_REPEATS and (
            len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_MIN_S):
        t0 = time.perf_counter()
        meta = workload.setup(work, seed)
        setup_s.append(time.perf_counter() - t0)
        setup_hashes.append(sha256_files(work, meta["inputs"]))
    report["setup_s"] = setup_s
    report["setup_identical"] = all(h == setup_hashes[0] for h in setup_hashes)

    runs = []
    t_loop = time.perf_counter()
    while len(runs) < MAX_RUNS:
        traced = trace and len(runs) % 2 == 1
        first = runs[0]["hashes"] if runs and runs[0]["hashes"] else None
        runs.append(run_once(workload, work, seed, len(runs), traced, meta, env, first))
        spent = time.perf_counter() - t_loop
        typical = median(r["elapsed_s"] for r in runs)
        if (not trace or len(runs) >= 2) and spent + typical > seconds:
            break
    report["runs"] = runs
    return report


def summarize(report, trace):
    """(correct, attempted, failed, end-to-end metrics, quality, per-layer metrics).

    Quality figures (perplexities, planted-word recall) depend on the workload,
    so they are reported beside the end-to-end metrics, not among them: every
    end-to-end metric is measured on every workload.
    """
    runs = report["runs"]
    ok = [r for r in runs if r["result"] is not None
          and all(c == 0 for c in r["result"]["exit_codes"])]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    failed = sum(1 for r in runs if r["problems"])
    e2e = {}
    quality = {}
    if untraced:
        e2e["setup_s"] = median(report["setup_s"])
        e2e["wall_s"] = median(r["result"]["wall_s"] for r in untraced)
        e2e["peak_rss_mb"] = median(r["result"]["peak_rss_mb"] for r in untraced)
        clean = [r for r in untraced if not r["problems"]] or untraced
        quality = dict(clean[0]["quality"])
    layers = {}
    if trace and traced and untraced:
        for name in traced[0]["result"]["layers"]:
            layers[name] = median(r["result"]["layers"][name] for r in traced)
        wall_traced = median(r["result"]["wall_s"] for r in traced)
        layers["trace.overhead_pct"] = 100.0 * (wall_traced / e2e["wall_s"] - 1.0)
    correct = failed == 0 and report["setup_identical"] and bool(untraced)
    return correct, len(runs), failed, e2e, quality, layers


def emit(report, units, trace):
    correct, attempted, failed, e2e, quality, layers = summarize(report, trace)
    with open(Path(report["work_dir"]) / "report.json", "w", encoding="utf-8") as fh:
        json.dump({**report, "end_to_end": e2e, "quality": quality, "per_layer": layers},
                  fh, indent=1, default=str)
    print(f"workload {report['workload']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"baseline_rss_mb {report['baseline_rss_mb']:.1f} MB"
          " (a process that only imports numpy, scipy and sparsebm)")
    print("setup_s runs " + " ".join(f"{s:.3f}" for s in report["setup_s"])
          + f"; inputs identical: {report['setup_identical']}")
    for r in report["runs"]:
        wall = r["result"]["wall_s"] if r["result"] else float("nan")
        verdict = "ok" if not r["problems"] else "FAILED: " + "; ".join(r["problems"])
        print(f"run {r['index']} {'traced' if r['traced'] else 'untraced'}"
              f" wall_s {wall:.3f} {verdict}")
    shown = dict(e2e)
    shown.update(layers)
    for name, value in shown.items():
        print(f"metric {name} {value!r} {units[name]}")
    for name, value in quality.items():
        print(f"quality {name} {value!r} (first clean run; same on every run of this seed)")
    print(f"correct {correct}: {attempted - failed} of {attempted} runs passed every check")
    if not e2e or (trace and not layers):
        print("error: no run completed; no metrics to report", file=sys.stderr)
        return 1
    chosen = layers if trace else e2e
    metrics = {name: {"value": value, "unit": units[name]} for name, value in chosen.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured run of a workload, in a fresh process.

Usage: python3 child.py SPEC.json

The spec gives the sparsebm source directory, the CLI argument lists to run
in order, whether to record layer spans, and where to write the result. The
result holds each command's exit code, the wall time of the commands (the
interpreter start and imports excluded), this process's peak RSS, the AIS
run-weight check, and, when traced, the per-layer metrics. Spans of a
traced run are written next to the result.
"""
import json
import resource
import sys
import time


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import spans
    from sparsebm import cli

    tracer = spans.Tracer(run_id=spec["run_id"])
    spans.install(tracer, spans.LAYER_FUNCTIONS if spec["trace"] else spans.CHECK_FUNCTIONS)
    codes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in spec["commands"]:
        codes.append(cli.cmd_dispatch(argv))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    ais_calls, ais_nonfinite = spans.ais_check(tracer.spans)
    result = {
        "exit_codes": codes,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "ais_calls": ais_calls,
        "ais_nonfinite": ais_nonfinite,
    }
    if spec["trace"]:
        result["layers"] = spans.layer_metrics(tracer.spans)
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump([s.to_list() for s in tracer.spans], fh)
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

"""Layer spans recorded from outside the sparsebm package.

`install` rebinds each function in LAYER_FUNCTIONS, in every loaded
sparsebm module that holds a reference to it, to a wrapper that records a
span: name, start, end, parent span, run id and a few attributes taken from
the call's arguments or result. Spans stay in memory until the process
writes them out. `layer_metrics` turns one run's spans into the per-layer
metrics named in BENCHMARK.json.

The package's layers are its modules. `_gibbs_hidden_sweep` and
`_softmax_rows` are wrapped although their names are private, because
`evaluation` and `sbm` import them across module boundaries.
"""
from __future__ import annotations

import functools
import sys
import time
from statistics import median

import numpy as np


def _bp_attrs(args, kwargs, result):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return {"batch": theta.shape[0], "hidden": theta.shape[1]}


def _ais_attrs(args, kwargs, result):
    schedule = args[2] if len(args) > 2 else kwargs["schedule"]
    lw = np.asarray(result.per_run_log_weights, dtype=np.float64)
    finite = bool(np.all(np.isfinite(lw)))
    attrs = {"steps": schedule.n_intermediate, "runs": lw.size, "finite": finite}
    if finite:
        w = np.exp(lw - lw.max())
        attrs["ess_ratio"] = float(w.sum() ** 2 / (w @ w) / lw.size)
        attrs["log_z_se"] = result.standard_error
    return attrs


def _prune_attrs(args, kwargs, result):
    return {"epochs": result.total_epochs}


def _stage_attrs(args, kwargs, result):
    return {"ran": bool(result)}


# (module, function, attribute extractor or None)
LAYER_FUNCTIONS = [
    ("corpus", "load_uci_bow", None),
    ("corpus", "save_uci_bow", None),
    ("corpus", "split_corpus", None),
    ("corpus", "save_split_manifest", None),
    ("structure", "build_skeleton", None),
    ("structure", "save_skeleton", None),
    ("structure", "load_skeleton", None),
    ("structure", "build_cmi_table", None),
    ("structure", "save_cmi_table", None),
    ("structure", "sbm_sfc", None),
    ("sbm", "sbm_train", None),
    ("sbm", "tree_sum_product", _bp_attrs),
    ("sbm", "_gibbs_hidden_sweep", None),
    ("sbm", "save_sbm_model", None),
    ("sbm", "load_sbm_model", None),
    ("sbm", "save_structure", None),
    ("sbm", "load_structure", None),
    ("replicated_softmax", "rs_train", None),
    ("replicated_softmax", "_softmax_rows", None),
    ("replicated_softmax", "save_rs_model", None),
    ("replicated_softmax", "load_rs_model", None),
    ("pruning", "prune_and_retrain", _prune_attrs),
    ("pruning", "save_pruned_rs", None),
    ("pruning", "load_pruned_rs", None),
    ("evaluation", "ais_log_z", _ais_attrs),
    ("evaluation", "per_document_log_probs", None),
    ("cli", "cmd_dispatch", None),
    ("cli", "_run_stage", _stage_attrs),
]

# Untraced runs wrap only AIS, to check every run weight is finite.
CHECK_FUNCTIONS = [f for f in LAYER_FUNCTIONS if f[1] == "ais_log_z"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "attrs")

    def __init__(self, name, start, end, parent, run, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.attrs = attrs or {}

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.run, self.attrs]


class Tracer:
    """In-memory span recorder; parent links follow the call stack."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs_fn=None):
        spans = self.spans
        stack = self._stack
        run = self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, clock(), None, stack[-1] if stack else -1, run)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if attrs_fn is not None:
                span.attrs = attrs_fn(args, kwargs, result)
            return result

        return wrapper


def install(tracer, functions):
    """Rebind each listed function wherever a sparsebm module references it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "sparsebm" or n.startswith("sparsebm."))]
    for module_name, func_name, attrs_fn in functions:
        home = sys.modules[f"sparsebm.{module_name}"]
        original = getattr(home, func_name)
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original, attrs_fn)
        for module in modules:
            if module.__dict__.get(func_name) is original:
                setattr(module, func_name, wrapper)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        intervals = sorted(
            (max(spans[k].start, s.start), min(spans[k].end, s.end)) for k in kids
        )
        covered = 0.0
        cur_start = cur_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def _under(spans, i, ancestor_name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == ancestor_name:
            return True
        p = spans[p].parent
    return False


def _med(values):
    return float(median(values)) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one run, keyed by the names in BENCHMARK.json."""
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(*names):
        return float(sum(spans[i].end - spans[i].start for i in idx(*names)))

    def self_total(*names):
        return float(sum(selfs[i] for i in idx(*names)))

    def per_call_us(name):
        return _med([(spans[i].end - spans[i].start) * 1e6 for i in idx(name)])

    def attr_med(name, key):
        return _med([spans[i].attrs[key] for i in idx(name) if key in spans[i].attrs])

    bp = "sbm.tree_sum_product"
    ais = "evaluation.ais_log_z"
    cli_names = ("cli.cmd_dispatch", "cli._run_stage")
    ais_step_us = [
        (spans[i].end - spans[i].start) * 1e6 / spans[i].attrs["steps"]
        for i in idx(ais) if spans[i].attrs.get("steps")
    ]
    return {
        "corpus.load_s": total("corpus.load_uci_bow"),
        "corpus.save_s": total("corpus.save_uci_bow", "corpus.save_split_manifest"),
        "structure.skeleton_s": total("structure.build_skeleton"),
        "structure.cmi_table_s": total("structure.build_cmi_table"),
        "structure.cmi_self_s": self_total("structure.build_cmi_table"),
        "structure.cmi_bp_calls": float(sum(
            1 for i in idx(bp) if _under(spans, i, "structure.build_cmi_table"))),
        "structure.sfc_s": total("structure.sbm_sfc"),
        "structure.io_s": total("structure.save_skeleton", "structure.load_skeleton",
                                "structure.save_cmi_table"),
        "sbm.train_s": total("sbm.sbm_train"),
        "sbm.bp_calls": float(len(idx(bp))),
        "sbm.bp_s": total(bp),
        "sbm.bp_us": per_call_us(bp),
        "sbm.bp_batch": attr_med(bp, "batch"),
        "sbm.bp_hidden": attr_med(bp, "hidden"),
        "sbm.gibbs_sweep_calls": float(len(idx("sbm._gibbs_hidden_sweep"))),
        "sbm.gibbs_sweep_s": total("sbm._gibbs_hidden_sweep"),
        "sbm.gibbs_sweep_us": per_call_us("sbm._gibbs_hidden_sweep"),
        "sbm.model_io_s": total("sbm.save_sbm_model", "sbm.load_sbm_model",
                                "sbm.save_structure", "sbm.load_structure"),
        "replicated_softmax.train_s": total("replicated_softmax.rs_train"),
        "replicated_softmax.model_io_s": total("replicated_softmax.save_rs_model",
                                               "replicated_softmax.load_rs_model"),
        "replicated_softmax.softmax_calls": float(len(idx("replicated_softmax._softmax_rows"))),
        "replicated_softmax.softmax_s": total("replicated_softmax._softmax_rows"),
        "replicated_softmax.softmax_us": per_call_us("replicated_softmax._softmax_rows"),
        "pruning.prune_s": total("pruning.prune_and_retrain"),
        "pruning.retrain_epochs": float(sum(
            spans[i].attrs.get("epochs", 0) for i in idx("pruning.prune_and_retrain"))),
        "evaluation.ais_calls": float(len(idx(ais))),
        "evaluation.ais_s": total(ais),
        "evaluation.ais_step_us": _med(ais_step_us),
        "evaluation.ais_self_s": self_total(ais),
        "evaluation.ais_ess_ratio": attr_med(ais, "ess_ratio"),
        "evaluation.ais_log_z_se": attr_med(ais, "log_z_se"),
        "evaluation.logprob_s": total("evaluation.per_document_log_probs"),
        "cli.self_s": self_total(*cli_names),
        "cli.stages_run": float(sum(
            1 for i in idx("cli._run_stage") if spans[i].attrs.get("ran"))),
    }


def ais_check(spans):
    """(calls, calls with a non-finite run weight) over the AIS spans."""
    calls = [s for s in spans if s.name == "evaluation.ais_log_z"]
    return len(calls), sum(1 for s in calls if not s.attrs.get("finite", False))

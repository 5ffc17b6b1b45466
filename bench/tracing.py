"""Span tracer for the benchmark's traced passes.

The tracer wraps the public callables of every ``osgd`` module from the
outside: each wrapped call becomes a span (name, start, end, parent span,
run id).  Names bound with ``from ... import`` are patched where they are
used (``optimizers.topq_positions``, ``ordered_loss.q_argmax``,
``config.gen_rings_2d``, ...) and model/objective methods are patched on
the class, so every call into a layer is seen once.  ``uninstall`` puts
the original objects back.

A run is one ``harness.run_single`` or one call the benchmark makes into
the library; spans are kept in memory and appended to the span file when
their run ends.  Aggregates (calls, inclusive and self time, per-call
durations, rows) are kept online, split by the nearest enclosing caller:
``step`` under an optimizer step, ``eval`` under epoch-end evaluation,
``other`` elsewhere.
"""
from __future__ import annotations

import time
from collections import defaultdict

STEP = "optimizers.step"
EVAL = "harness.eval"
RUN = "harness.run_single"

# Per-call work counters, keyed by layer name: f(args, result) -> rows.
_ROW_COUNTERS = {
    "objectives.forward": lambda args, result: len(args[2]),
    "objectives.backward": lambda args, result: len(args[2]),
    "ordered_loss.rank_selection_counts": lambda args, result: result[1],
}


def trace_targets():
    """(owner, attribute, layer name) for every callable the tracer wraps."""
    from osgd import (analysis, coeffs, config, data, harness, objectives,
                      optimizers, ordered_loss, selection)
    return [
        (optimizers, "osgd_step", STEP),
        (optimizers, "minibatch_sgd_step", STEP),
        (optimizers, "ordered_adam_step", STEP),
        (optimizers, "adam_step", STEP),
        (optimizers, "topq_positions", "selection.topq_positions"),
        (selection, "topq_positions", "selection.topq_positions"),
        (selection, "q_argmax", "selection.q_argmax"),
        (ordered_loss, "q_argmax", "selection.q_argmax"),
        (selection, "rank_by_loss", "selection.rank_by_loss"),
        (ordered_loss, "rank_by_loss", "selection.rank_by_loss"),
        (selection, "sample_minibatch", "selection.sample_minibatch"),
        (objectives.Objective, "per_example_losses",
         "objectives.per_example_losses"),
        (objectives.Objective, "weighted_grad", "objectives.weighted_grad"),
        (objectives.FeedforwardModel, "forward", "objectives.forward"),
        (objectives.FeedforwardModel, "backward", "objectives.backward"),
        (objectives.Objective, "regularizer", "objectives.regularizer"),
        (harness, "run_experiment", "harness.run_experiment"),
        (harness, "run_single", RUN),
        (harness, "_evaluate_epoch", EVAL),
        (harness, "_gamma_approx", "harness.gamma_cache"),
        (harness, "write_records_csv", "harness.write_csv"),
        (harness, "write_summary_csv", "harness.write_csv"),
        (harness, "run_verification_suite", "harness.run_verification_suite"),
        (harness, "build_dataset", "config.build_dataset"),
        (config, "build_dataset", "config.build_dataset"),
        (harness, "build_objective", "config.build_objective"),
        (config, "build_objective", "config.build_objective"),
        (config, "load_config", "config.load_config"),
        (harness, "gen_clusters_2d", "data.gen_clusters_2d"),
        (config, "gen_clusters_2d", "data.gen_clusters_2d"),
        (data, "gen_clusters_2d", "data.gen_clusters_2d"),
        (config, "gen_rings_2d", "data.gen_rings_2d"),
        (data, "gen_rings_2d", "data.gen_rings_2d"),
        (config, "split_dataset", "data.split_dataset"),
        (data, "split_dataset", "data.split_dataset"),
        (config, "load_cache", "data.load_cache"),
        (data, "load_cache", "data.load_cache"),
        (data, "save_cache", "data.save_cache"),
        (config, "load_semeion", "data.load_semeion"),
        (data, "load_semeion", "data.load_semeion"),
        (config, "load_idx", "data.load_idx"),
        (data, "load_idx", "data.load_idx"),
        (coeffs, "gamma_weights", "coeffs.gamma_weights"),
        (coeffs, "gamma_weight_numerators", "coeffs.gamma_weight_numerators"),
        (coeffs, "gamma_weights_float", "coeffs.gamma_weights_float"),
        (coeffs, "gamma_rescaled_curve", "coeffs.gamma_rescaled_curve"),
        (ordered_loss, "loss_profile", "ordered_loss.loss_profile"),
        (ordered_loss, "rank_selection_counts",
         "ordered_loss.rank_selection_counts"),
        (ordered_loss, "expected_step_bruteforce",
         "ordered_loss.expected_step_bruteforce"),
        (ordered_loss, "lq_subgradient", "ordered_loss.lq_subgradient"),
        (analysis, "zero_one_error", "analysis.zero_one_error"),
        (analysis, "relative_improvement", "analysis.relative_improvement"),
    ]


class _Frame:
    __slots__ = ("id", "parent", "name", "run", "ctx", "start", "child_ns",
                 "opens_run")

    def __init__(self, id_, parent, name, run, ctx, start, opens_run):
        self.id, self.parent, self.name, self.run = id_, parent, name, run
        self.ctx, self.start, self.child_ns = ctx, start, 0
        self.opens_run = opens_run


class LayerStats:
    """Online aggregate for one (layer, caller) pair."""

    __slots__ = ("calls", "total_ns", "self_ns", "rows", "errors", "durs")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.rows = self.errors = 0
        self.durs = []


class Tracer:
    """Patches the library, records spans, and restores it on uninstall."""

    def __init__(self, span_path=None):
        self.span_path = span_path
        self.stats = defaultdict(LayerStats)   # (name, ctx) -> LayerStats
        self._stack = []
        self._next_id = 1
        self._next_run = 1
        self._pending = defaultdict(list)      # run id -> finished spans
        self._patches = []
        if span_path is not None:
            with open(span_path, "w") as fh:
                fh.write("span,parent,run,name,start_ns,end_ns\n")

    # -- patching ---------------------------------------------------------

    def install(self, targets=None):
        for owner, attr, name in targets or trace_targets():
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        count_rows = _ROW_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1].name == name:
                # a layer delegating to itself (minibatch_sgd_step ->
                # osgd_step) stays one span
                return fn(*args, **kwargs)
            frame = tracer._open(name)
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rows = count_rows(args, result) if ok and count_rows else 0
                tracer._close(frame, rows, ok)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        stack = self._stack
        parent = stack[-1] if stack else None
        opens_run = parent is None or name == RUN
        if opens_run:
            run = self._next_run
            self._next_run += 1
        else:
            run = parent.run
        if name == STEP:
            ctx = "step"
        elif name == EVAL:
            ctx = "eval"
        else:
            ctx = parent.ctx if parent is not None else "other"
        frame = _Frame(self._next_id, parent.id if parent else 0, name, run,
                       ctx, 0, opens_run)
        self._next_id += 1
        stack.append(frame)
        frame.start = time.perf_counter_ns()
        return frame

    def _close(self, frame, rows, ok):
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        dur = end - frame.start
        if stack:
            stack[-1].child_ns += dur
        st = self.stats[(frame.name, frame.ctx)]
        st.calls += 1
        st.total_ns += dur
        st.self_ns += dur - frame.child_ns
        st.rows += rows
        st.errors += not ok
        st.durs.append(dur)
        self._pending[frame.run].append(
            (frame.id, frame.parent, frame.run, frame.name, frame.start, end))
        if frame.opens_run:
            self._flush(frame.run)

    def _flush(self, run):
        spans = self._pending.pop(run, ())
        if self.span_path is None or not spans:
            return
        with open(self.span_path, "a") as fh:
            fh.writelines(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n"
                          for s in spans)

    # -- summaries --------------------------------------------------------

    def layer_table(self):
        """Per layer: calls, rows, inclusive/self seconds, p50/p99 in us,
        plus the same split by caller under ``by_caller``."""
        by_name = defaultdict(dict)
        for (name, ctx), st in self.stats.items():
            by_name[name][ctx] = st
        table = {}
        for name, parts in by_name.items():
            total = LayerStats()
            for st in parts.values():
                total.calls += st.calls
                total.total_ns += st.total_ns
                total.self_ns += st.self_ns
                total.rows += st.rows
                total.errors += st.errors
                total.durs.extend(st.durs)
            entry = _summary(total)
            entry["by_caller"] = {ctx: _summary(st) for ctx, st in parts.items()}
            table[name] = entry
        return table


def _summary(st):
    durs = sorted(st.durs)
    return {
        "calls": st.calls,
        "rows": st.rows,
        "errors": st.errors,
        "s": st.total_ns / 1e9,
        "self_s": st.self_ns / 1e9,
        "p50_us": _percentile(durs, 0.50) / 1e3,
        "p99_us": _percentile(durs, 0.99) / 1e3,
    }


def _percentile(sorted_vals, p):
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, int(p * len(sorted_vals)))
    return float(sorted_vals[idx])


MODULES = ("optimizers", "objectives", "selection", "harness", "config",
           "data", "coeffs", "ordered_loss", "analysis")
_NO_CALLS = {"calls": 0, "rows": 0, "errors": 0, "s": 0.0, "self_s": 0.0,
             "p50_us": 0.0, "p99_us": 0.0}


def layer_metrics(table, gamma_cache):
    """Named per-layer metrics of one traced pass: name -> (value, unit).

    Times listed here are non-zero on every workload; layers that only
    some workloads call are listed by count, and their times are in the
    full layer table.  Shares have the time in ``harness.run_single`` as
    base; the gamma-cache hit ratio has the epoch-end evaluations as base.
    """
    def get(name, caller=None):
        entry = table.get(name, _NO_CALLS)
        return entry.get("by_caller", {}).get(caller, _NO_CALLS) if caller \
            else entry

    step = get(STEP)
    fwd_step, fwd_eval = get("objectives.forward", "step"), \
        get("objectives.forward", "eval")
    bwd_step = get("objectives.backward", "step")
    topq = get("selection.topq_positions")
    run_s = get(RUN)["s"]
    eval_s = get(EVAL)["s"]
    loop_s = run_s - eval_s - get("config.build_objective")["s"]
    evals = gamma_cache["hits"] + gamma_cache["misses"]
    m = {
        "optimizers.step.calls": (step["calls"], "count"),
        "optimizers.step.p50_us": (step["p50_us"], "us"),
        "optimizers.step.p99_us": (step["p99_us"], "us"),
        "optimizers.step.self_s": (step["self_s"], "s"),
        "objectives.forward.step.calls": (fwd_step["calls"], "count"),
        "objectives.forward.step.rows": (fwd_step["rows"], "count"),
        "objectives.forward.step.s": (fwd_step["s"], "s"),
        "objectives.forward.eval.calls": (fwd_eval["calls"], "count"),
        "objectives.forward.eval.rows": (fwd_eval["rows"], "count"),
        "objectives.forward.eval.s": (fwd_eval["s"], "s"),
        "objectives.backward.step.calls": (bwd_step["calls"], "count"),
        "objectives.backward.step.rows": (bwd_step["rows"], "count"),
        "objectives.backward.step.s": (bwd_step["s"], "s"),
        "objectives.forward_rows_per_step": (
            fwd_step["rows"] / step["calls"] if step["calls"] else 0.0, "rows"),
        "objectives.regularizer.calls": (get("objectives.regularizer")["calls"],
                                         "count"),
        "objectives.regularizer.s": (get("objectives.regularizer")["s"], "s"),
        "selection.topq_positions.calls": (topq["calls"], "count"),
        "selection.topq_positions.s": (topq["s"], "s"),
        "selection.topq_positions.p50_us": (topq["p50_us"], "us"),
        "selection.q_argmax.calls": (get("selection.q_argmax")["calls"],
                                     "count"),
        "harness.eval.s": (eval_s, "s"),
        "harness.eval.share": (eval_s / run_s if run_s else 0.0, "ratio"),
        "harness.step_loop.s": (loop_s, "s"),
        "harness.step_loop.share": (loop_s / run_s if run_s else 0.0, "ratio"),
        "harness.gamma_cache.evals": (evals, "count"),
        "harness.gamma_cache.hit_ratio": (
            gamma_cache["hits"] / evals if evals else 0.0, "ratio"),
        "harness.write_csv.calls": (get("harness.write_csv")["calls"], "count"),
        "analysis.zero_one_error.calls": (get("analysis.zero_one_error")["calls"],
                                          "count"),
        "analysis.zero_one_error.s": (get("analysis.zero_one_error")["s"], "s"),
        "ordered_loss.loss_profile.calls": (
            get("ordered_loss.loss_profile")["calls"], "count"),
        "ordered_loss.loss_profile.s": (get("ordered_loss.loss_profile")["s"],
                                        "s"),
        "ordered_loss.rank_selection_counts.subsets": (
            get("ordered_loss.rank_selection_counts")["rows"], "count"),
        "coeffs.gamma_weights.calls": (get("coeffs.gamma_weights")["calls"],
                                       "count"),
        "coeffs.gamma_weights.s": (get("coeffs.gamma_weights")["s"], "s"),
        "config.build_dataset.calls": (get("config.build_dataset")["calls"],
                                       "count"),
        "config.load_config.calls": (get("config.load_config")["calls"],
                                     "count"),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = (sum(entry["self_s"]
                                     for name, entry in table.items()
                                     if name.startswith(module + ".")), "s")
    return m

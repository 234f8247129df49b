"""Spans around the program's public functions, for the per-layer metrics.

The tracer rebinds every module-level name in ``tsf.*`` that refers to a
traced function (``from .dataset import format_value`` copies included),
records one span per call and restores the originals on ``uninstall``.
Spans stay in memory until the traced pass ends and are then written out
(``write_spans``). A function that a later refactor removed is listed in
``absent`` and its metrics read 0.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from time import perf_counter

# (layer, attribute path in tsf.<layer>) of every traced public function
TARGETS = (
    ("dataset", "load_csv"),
    ("dataset", "slice_windows"),
    ("dataset", "format_value"),
    ("neighbors", "build_pool"),
    ("neighbors", "top_k"),
    ("prompting", "assemble"),
    ("prompting", "load_template"),
    ("llmgateway", "Gateway.complete"),
    ("llmgateway", "load_fixtures"),
    ("llmgateway", "bundle_hash"),
    ("parsing", "parse_prediction"),
    ("evaluation", "aggregate"),
    ("evaluation", "emit_report"),
    ("runner", "run"),
    ("runner", "bundles_for_run"),
    ("cli", "main"),
)

PER_LAYER = (
    # (metric, unit, better)
    ("dataset.load_csv_s", "s", "lower"),
    ("dataset.slice_windows_calls", "count", "lower"),
    ("dataset.slice_windows_s", "s", "lower"),
    ("dataset.format_value_calls", "count", "lower"),
    ("dataset.format_value_s", "s", "lower"),
    ("dataset.format_value_distinct_ratio", "ratio", "higher"),
    ("neighbors.build_pool_calls", "count", "lower"),
    ("neighbors.build_pool_s", "s", "lower"),
    ("neighbors.pool_candidates", "count", "lower"),
    ("neighbors.top_k_calls", "count", "lower"),
    ("neighbors.top_k_s", "s", "lower"),
    ("neighbors.top_k_znorm_s", "s", "lower"),
    ("neighbors.search_distinct_ratio", "ratio", "higher"),
    ("prompting.assemble_calls", "count", "lower"),
    ("prompting.assemble_s", "s", "lower"),
    ("prompting.load_template_calls", "count", "lower"),
    ("prompting.load_template_s", "s", "lower"),
    ("prompting.prompt_bytes_per_window", "bytes/window", "lower"),
    ("llmgateway.complete_calls", "count", "lower"),
    ("llmgateway.complete_s", "s", "lower"),
    ("llmgateway.load_fixtures_s", "s", "lower"),
    ("llmgateway.bundle_hash_calls", "count", "lower"),
    ("llmgateway.bundle_hash_s", "s", "lower"),
    ("llmgateway.replay_misses", "count", "lower"),
    ("parsing.parse_prediction_calls", "count", "lower"),
    ("parsing.parse_prediction_s", "s", "lower"),
    ("evaluation.aggregate_s", "s", "lower"),
    ("evaluation.emit_report_s", "s", "lower"),
    ("evaluation.report_bytes", "bytes", "lower"),
    ("runner.run_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("runner.executors_created", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.windows", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


def _window_of(obj):
    """Window id of an EvalWindow or PromptBundle argument, else None."""
    wid = getattr(obj, "window_id", None)
    if isinstance(wid, str):
        return wid
    sid = getattr(obj, "series_id", None)
    start = getattr(obj, "context_start", None)
    if sid is not None and start is not None:
        return f"{sid}:{start}"
    return None


class Tracer:
    """Records (id, name, start, end, parent, window, tag) spans.

    A span opened on a thread with no open span of its own (a dispatch
    worker) takes as parent the innermost open span of the thread that
    installed the tracer, which is blocked waiting for that worker.
    """

    def __init__(self):
        self.spans = []
        self.absent = []
        self.format_value_inputs = set()
        self.searches = set()
        self.pool_candidates = 0
        self.prompt_bytes = 0
        self.report_bytes = 0
        self.executors_created = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            top = stack[-1] if stack else None
            if top is None and stack is not tracer._main_stack:
                try:
                    top = tracer._main_stack[-1]
                except IndexError:
                    top = None
            window = None
            for a in args[:3]:
                window = _window_of(a)
                if window is not None:
                    break
            if window is None and top is not None:
                window = top[1]
            sid = next(tracer._ids)
            stack.append((sid, window))
            tag = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tag = "raised:" + type(e).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if probe is not None and tag is None:
                    tag = probe(args, kwargs, result)
                tracer.spans.append(
                    (sid, name, start, end, top[0] if top else None, window, tag)
                )
            return result

        return traced

    # probes run after a successful call and may return a tag for the span

    def _probe_format_value(self, args, kwargs, result):
        self.format_value_inputs.add((args, tuple(sorted(kwargs.items()))))

    def _probe_build_pool(self, args, kwargs, result):
        self.pool_candidates += len(result)

    def _probe_top_k(self, args, kwargs, result):
        try:
            bound = self._top_k_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            znorm = bool(bound.arguments.get("znorm", False))
            target = bound.arguments.get("target", args[0] if args else None)
        except TypeError:
            return None
        self.searches.add((getattr(target, "series_id", None),
                           getattr(target, "context_start", None), znorm))
        return "znorm" if znorm else None

    def _probe_assemble(self, args, kwargs, result):
        self.prompt_bytes += len(result.system.encode("utf-8"))
        self.prompt_bytes += len(result.user.encode("utf-8"))

    def _probe_emit_report(self, args, kwargs, result):
        path = kwargs.get("path", args[2] if len(args) > 2 else None)
        if path is not None and os.path.exists(path):
            self.report_bytes += os.path.getsize(path)

    def install(self):
        """Rebind the traced functions in every loaded ``tsf`` module."""
        self._main_stack = self._stack()
        probes = {
            "dataset.format_value": self._probe_format_value,
            "neighbors.build_pool": self._probe_build_pool,
            "neighbors.top_k": self._probe_top_k,
            "prompting.assemble": self._probe_assemble,
            "evaluation.emit_report": self._probe_emit_report,
        }
        found = []
        for layer, attr in TARGETS:
            modname = f"tsf.{layer}"
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            fn = getattr(owner, fname, None)
            if not callable(fn):
                self.absent.append(f"{modname}.{attr}")
                continue
            found.append((f"{layer}.{fname}", owner if owner_name else None, fname, fn))

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tsf" or n.startswith("tsf."))]
        for name, cls, fname, fn in found:
            if name == "neighbors.top_k":
                self._top_k_sig = inspect.signature(fn)
            wrapper = self._wrap(name, fn, probes.get(name))
            if cls is not None:  # a method: rebind it on its class
                self._restore.append((cls, fname, fn))
                setattr(cls, fname, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)

        pool_cls = concurrent.futures.ThreadPoolExecutor
        pool_init = pool_cls.__init__

        def counting_init(executor, *args, **kwargs):
            self.executors_created += 1
            pool_init(executor, *args, **kwargs)

        self._restore.append((pool_cls, "__init__", pool_init))
        pool_cls.__init__ = counting_init

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write_spans(self, path: str) -> None:
        """One JSON object per span; the file appears whole or not at all."""
        fields = ("id", "name", "start", "end", "parent", "window", "tag")
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(fields, span))) + "\n")
        os.replace(tmp, path)

    def metrics(self, windows: int, overhead_pct: float) -> dict:
        """Per-layer metrics over every recorded span, keyed as PER_LAYER."""
        calls = {}
        total = {}
        for _sid, name, start, end, _parent, _window, _tag in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
        znorm_s = sum(end - start for _, name, start, end, _, _, tag in self.spans
                      if name == "neighbors.top_k" and tag == "znorm")
        misses = sum(1 for _, name, *_, tag in self.spans
                     if name == "llmgateway.complete" and tag == "raised:ReplayMiss")
        fv_calls = calls.get("dataset.format_value", 0)
        searches = calls.get("neighbors.top_k", 0)
        assembles = calls.get("prompting.assemble", 0)
        out = {
            "dataset.load_csv_s": total.get("dataset.load_csv", 0.0),
            "dataset.slice_windows_calls": calls.get("dataset.slice_windows", 0),
            "dataset.slice_windows_s": total.get("dataset.slice_windows", 0.0),
            "dataset.format_value_calls": fv_calls,
            "dataset.format_value_s": total.get("dataset.format_value", 0.0),
            "dataset.format_value_distinct_ratio":
                len(self.format_value_inputs) / fv_calls if fv_calls else 0.0,
            "neighbors.build_pool_calls": calls.get("neighbors.build_pool", 0),
            "neighbors.build_pool_s": total.get("neighbors.build_pool", 0.0),
            "neighbors.pool_candidates": self.pool_candidates,
            "neighbors.top_k_calls": searches,
            "neighbors.top_k_s": total.get("neighbors.top_k", 0.0),
            "neighbors.top_k_znorm_s": znorm_s,
            "neighbors.search_distinct_ratio":
                len(self.searches) / searches if searches else 0.0,
            "prompting.assemble_calls": assembles,
            "prompting.assemble_s": total.get("prompting.assemble", 0.0),
            "prompting.load_template_calls": calls.get("prompting.load_template", 0),
            "prompting.load_template_s": total.get("prompting.load_template", 0.0),
            "prompting.prompt_bytes_per_window":
                self.prompt_bytes / assembles if assembles else 0.0,
            "llmgateway.complete_calls": calls.get("llmgateway.complete", 0),
            "llmgateway.complete_s": total.get("llmgateway.complete", 0.0),
            "llmgateway.load_fixtures_s": total.get("llmgateway.load_fixtures", 0.0),
            "llmgateway.bundle_hash_calls": calls.get("llmgateway.bundle_hash", 0),
            "llmgateway.bundle_hash_s": total.get("llmgateway.bundle_hash", 0.0),
            "llmgateway.replay_misses": misses,
            "parsing.parse_prediction_calls": calls.get("parsing.parse_prediction", 0),
            "parsing.parse_prediction_s": total.get("parsing.parse_prediction", 0.0),
            "evaluation.aggregate_s": total.get("evaluation.aggregate", 0.0),
            "evaluation.emit_report_s": total.get("evaluation.emit_report", 0.0),
            "evaluation.report_bytes": self.report_bytes,
            "runner.run_s": total.get("runner.run", 0.0),
            "runner.self_s": self._self_time("runner.run"),
            "runner.executors_created": self.executors_created,
            "cli.main_s": total.get("cli.main", 0.0),
            "trace.windows": windows,
            "trace.overhead_pct": overhead_pct,
        }
        return out

    def _self_time(self, name: str) -> float:
        """Duration of the named spans minus the part their children cover."""
        children = {}
        for sid, _n, start, end, parent, _w, _t in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        self_s = 0.0
        for sid, n, start, end, _p, _w, _t in self.spans:
            if n != name:
                continue
            covered = 0.0
            cur_s = cur_e = None
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, start), min(e, end)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            self_s += (end - start) - covered
        return self_s

"""Spans around the program's layer boundaries, recorded from outside it.

The tracer replaces a function in the module that calls it, under the
name that module looks it up by (for example `mimo_ee.report.optimize_exact`
is what the sweep calls), so the program runs unchanged. Each call leaves
a span: name, layer, start, end, parent span and request id. Spans stay
in memory; `layer_metrics` turns them into per-layer numbers.

A span opened on a pool thread has no parent on its own thread. It takes
as parent the innermost span open on the request's thread, which is the
call that started the pool.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    request: int | None
    info: object = None   # what `layer_metrics` needs from the result


def _optimum(opt):
    lo, hi = opt.k_range_searched
    return hi - lo + 1, opt.k_star, opt.pruned_at is not None


def _relaxed(res):
    return res.solver_diag.refine_iters


def _rows(rows):
    return len(rows)


def _channel_groups(pairs):
    """Draws and ZF resamples; configs sharing (m, k, trials, seed) share draws."""
    groups = {}
    for cfg, res in pairs:
        key = (cfg.m, cfg.k, cfg.trials, cfg.seed)
        groups[key] = max(groups.get(key, 0), res.resampled)
    return (sum(trials for _, _, trials, _ in groups),
            sum(groups.values()))


# (module, attribute, layer the function belongs to, result summary)
BOUNDARIES = (
    ("mimo_ee.cli", "sweep_records", "report", _rows),
    ("mimo_ee.cli", "validation_records", "report", None),
    ("mimo_ee.cli", "trajectory_records", "report", None),
    ("mimo_ee.cli", "threshold_record", "report", None),
    ("mimo_ee.cli", "render_csv", "report", None),
    ("mimo_ee.cli", "render_json", "report", None),
    ("mimo_ee.report", "optimize_exact", "integer_opt", _optimum),
    ("mimo_ee.report", "minimize_relaxed", "relaxation", _relaxed),
    ("mimo_ee.asymptotics", "minimize_relaxed", "relaxation", _relaxed),
    ("mimo_ee.report", "trajectory_zeta", "asymptotics", None),
    ("mimo_ee.report", "trajectory_point", "asymptotics", None),
    ("mimo_ee.report", "trajectory_limit", "asymptotics", None),
    ("mimo_ee.report", "rate_thresholds", "asymptotics", None),
    ("mimo_ee.report", "mrc_upper_bound_check", "asymptotics", None),
    ("mimo_ee.report", "bound_gap_sweep", "montecarlo", _channel_groups),
    # one slab of trials on a pool thread, and its Box-Muller step
    ("mimo_ee.montecarlo", "_process_slab", "montecarlo", None),
    ("mimo_ee.montecarlo", "channel_from_uniforms", "montecarlo", None),
)

# called once or twice per K searched: counted, too hot for a span each
COUNTED = (("mimo_ee.integer_opt", "evaluate_efficiency", "efficiency.calls"),)

LAYERS = ("cli", "report", "integer_opt", "relaxation", "asymptotics",
          "montecarlo")
REQUEST_SPAN = "mimo_ee.cli.main"


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._count_lock = threading.Lock()
        self._patched: list[tuple[object, str, Callable]] = []
        self.absent: list[str] = []   # boundaries the program no longer has

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, fn, name, layer, summary, args, kwargs):
        sid = next(self._ids)
        stack = self._stack()
        origin = stack or self._request_stack
        parent = origin[-1] if origin else None
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            info = summary(result) if summary and result is not None else None
            self.spans.append(Span(sid, parent, name, layer, start, end,
                                   self.request, info))

    def call_request(self, request: int, fn, *args):
        """Run one request, `fn(*args)`, under a root span of the cli layer."""
        self.request = request
        self._request_stack = self._stack()
        return self._call(fn, REQUEST_SPAN, "cli", None, args, {})

    def __enter__(self) -> "Tracer":
        for module_name, attr, layer, summary in BOUNDARIES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            name = f"{module_name}.{attr}"
            if fn is None:
                self.absent.append(name)
                continue

            def traced(*args, _fn=fn, _name=name, _layer=layer,
                       _summary=summary, **kwargs):
                return self._call(_fn, _name, _layer, _summary, args, kwargs)

            self._patch(module, attr, traced)
        for module_name, attr, key in COUNTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            self.counts[key] = 0
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue

            def counted(*args, _fn=fn, _key=key, **kwargs):
                with self._count_lock:
                    self.counts[_key] += 1
                return _fn(*args, **kwargs)

            self._patch(module, attr, counted)
        return self

    def _patch(self, module, attr, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __exit__(self, *exc) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer busy time, self time, counts and ratios from the spans.

    A layer root is a span whose parent lies in another layer. busy_s is
    the wall time covered by a layer's roots. self_s is that time minus
    the wall time covered by the spans of other layers nested under the
    roots, so spans running at once on two threads count once. thread_s
    sums the roots' durations and counts two threads twice.
    """
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}

    def root_of(s: Span) -> Span:
        while s.parent in by_id and by_id[s.parent].layer == s.layer:
            s = by_id[s.parent]
        return s

    foreign: dict[int, list[tuple[float, float]]] = {}
    roots: dict[str, list[Span]] = {layer: [] for layer in LAYERS}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is None or parent.layer != s.layer:
            roots[s.layer].append(s)
        if parent is not None and parent.layer != s.layer:
            foreign.setdefault(root_of(parent).sid, []).append(
                (s.start, s.end))

    def uncovered(rs: list[Span]) -> float:
        # children run inside their parent's call, so they lie within rs
        return (union_length((r.start, r.end) for r in rs)
                - union_length(iv for r in rs for iv in foreign.get(r.sid, ())))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (
            union_length((r.start, r.end) for r in roots[layer]), "s")
        out[f"{layer}.self_s"] = (uncovered(roots[layer]), "s")

    requests = len(roots["cli"])
    out["cli.self_ms_per_request"] = (
        ratio(1e3 * out["cli.self_s"][0], requests), "ms")

    sweeps = named("mimo_ee.cli.sweep_records")
    rows = sum(s.info for s in sweeps if s.info is not None)
    report_relaxed = named("mimo_ee.report.minimize_relaxed")
    out["report.render_s"] = (
        sum(s.end - s.start for s in named("mimo_ee.cli.render_csv")
            + named("mimo_ee.cli.render_json")), "s")
    out["report.sweep_self_s"] = (uncovered(sweeps), "s")
    out["report.relaxed_calls_per_row"] = (
        ratio(len(report_relaxed), rows), "calls/row")

    exact = [s for s in roots["integer_opt"] if s.info is not None]
    k_evaluated = sum(s.info[0] for s in exact)
    exact_thread_s = sum(s.end - s.start for s in roots["integer_opt"])
    efficiency_calls = tracer.counts["efficiency.calls"]
    out["integer_opt.calls"] = (len(roots["integer_opt"]), "count")
    out["integer_opt.thread_s"] = (exact_thread_s, "s")
    out["integer_opt.k_evaluated"] = (k_evaluated, "count")
    out["integer_opt.us_per_k"] = (ratio(1e6 * exact_thread_s, k_evaluated),
                                   "us")
    out["integer_opt.overshoot"] = (
        ratio(k_evaluated, sum(s.info[1] for s in exact)), "ratio")
    out["integer_opt.certified_ratio"] = (
        ratio(sum(s.info[2] for s in exact), len(exact)), "ratio")
    out["efficiency.calls"] = (efficiency_calls, "count")
    out["efficiency.calls_per_k"] = (ratio(efficiency_calls, k_evaluated),
                                     "calls/K")

    relaxed = roots["relaxation"]
    out["relaxation.calls"] = (len(relaxed), "count")
    out["relaxation.ms_per_call"] = (
        ratio(1e3 * sum(s.end - s.start for s in relaxed), len(relaxed)),
        "ms")
    out["relaxation.refine_iters_per_call"] = (
        ratio(sum(s.info for s in relaxed if s.info is not None),
              len(relaxed)), "iters/call")

    out["asymptotics.calls"] = (len(roots["asymptotics"]), "count")

    slabs = named("mimo_ee.montecarlo._process_slab")
    boxmuller = named("mimo_ee.montecarlo.channel_from_uniforms")
    sweeps_mc = [s for s in roots["montecarlo"] if s.info is not None]
    boxmuller_s = sum(s.end - s.start for s in boxmuller)
    out["montecarlo.slabs"] = (len(slabs), "count")
    out["montecarlo.boxmuller_s"] = (boxmuller_s, "s")
    out["montecarlo.other_s"] = (
        sum(s.end - s.start for s in slabs) - boxmuller_s, "s")
    out["montecarlo.draws"] = (sum(s.info[0] for s in sweeps_mc), "count")
    out["montecarlo.resampled"] = (sum(s.info[1] for s in sweeps_mc), "count")
    return out

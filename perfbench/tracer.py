"""Spans around calls into the program's layers, recorded from outside.

The program's source carries no instrumentation.  :func:`install`
wraps a fixed set of public layer functions (and two cache/journal
classes) for the duration of a traced run: every call becomes a span
(name, start, end, parent) kept in memory, plus counts recorded at the
same boundary.  Functions imported by name into other modules are
re-bound there too, so a wrapper sees the call whichever module makes
it.  A layer's self time is its spans' duration minus the part covered
by child spans.

Only the calling process is traced: work that pool workers or the sweep
daemon do is invisible here, which is why pooled workloads replay their
grid serially under the tracer to attribute kernel time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._mu = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._mu:
            index = len(self.spans)
            parent = stack[-1] if stack else -1
            self.spans.append((name, time.perf_counter(), 0.0, parent))
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            end = time.perf_counter()
            with self._mu:
                name_, start, _, parent_ = self.spans[index]
                self.spans[index] = (name_, start, end, parent_)

    def count(self, name: str, amount: float = 1) -> None:
        with self._mu:
            self.counts[name] += amount

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[index]
        return dict(out)

    def covered(self) -> float:
        """Seconds covered by top-level spans (the sum of all self times)."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _wrap_span(tracer: Tracer, name: str, fn: Callable, on_result=None) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if on_result is not None:
            on_result(result, args)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_family(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    def wrapper(family, trace, *args, **kwargs):
        with tracer.span(f"{layer}.{family.kind}"):
            result = fn(family, trace, *args, **kwargs)
        tracer.count(f"{layer}.{family.kind}.lane_branches", len(family) * len(trace))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the traced layer entry points; returns the function that unwraps them."""
    from repro.analysis import aliasing, bias, interference, summary
    from repro.service.client import ServiceClient
    from repro.sim import fused, journal, runner

    undo: list = []
    count = tracer.count

    def families(result, args):
        count("sim.fused.families", len(result))

    def accesses(result, args):
        count("analysis.accesses", int(args[0].result.num_branches))

    functions = [
        (fused.plan_families, _wrap_span(tracer, "sim.fused.plan", fused.plan_families, families)),
        (fused.family_rates, _wrap_family(tracer, "sim.fused.family_rates", fused.family_rates)),
        (fused.family_detailed, _wrap_family(tracer, "sim.fused.family_detailed", fused.family_detailed)),
        (bias.pc_code_stream, _wrap_span(tracer, "analysis.bias.pc_code_stream", bias.pc_code_stream)),
        (bias.analyze_substreams, _wrap_span(tracer, "analysis.bias.analyze_substreams", bias.analyze_substreams)),
        (bias.counter_bias_table, _wrap_span(tracer, "analysis.bias.counter_bias_table", bias.counter_bias_table)),
        (interference.count_class_changes, _wrap_span(tracer, "analysis.interference.count_class_changes", interference.count_class_changes)),
        (aliasing.aliasing_stats, _wrap_span(tracer, "analysis.aliasing", aliasing.aliasing_stats)),
        (aliasing.sharing_decomposition, _wrap_span(tracer, "analysis.aliasing", aliasing.sharing_decomposition)),
        (summary.summarize_detailed, _wrap_span(tracer, "analysis.summary", summary.summarize_detailed, accesses)),
    ]
    for original, replacement in functions:
        _rebind(original, replacement, undo)

    cache_cls = runner.ResultCache
    journal_cls = journal.SweepJournal

    def computed(result, args):
        count("sim.runner.cells_computed", len(args[2]))

    def journal_lines(result, args):
        count("sim.journal.lines", result)

    get = cache_cls.get

    def counting_get(self, spec, tkey):
        hit = get(self, spec, tkey)
        if hit is not None:
            count("sim.runner.cache_hits")
        return hit

    # The daemon's submit reply says how many of the job's cells were
    # already cached; the public ``submit`` returns only the job id.
    request = ServiceClient._request

    def counting_request(self, payload):
        response = request(self, payload)
        if payload.get("op") == "submit" and response.get("ok"):
            count("service.cells_requested", response["total_cells"])
            count("service.cache_hits", response["resumed_cells"])
        return response

    methods = [
        (cache_cls, "get", counting_get),
        (cache_cls, "put_many", _wrap_span(tracer, "sim.runner.cache_put", cache_cls.put_many, computed)),
        (cache_cls, "flush", _wrap_span(tracer, "sim.runner.cache_flush", cache_cls.flush)),
        (journal_cls, "record_many", _wrap_span(tracer, "sim.journal.record", journal_cls.record_many, journal_lines)),
        (ServiceClient, "_request", counting_request),
        (ServiceClient, "submit", _wrap_span(tracer, "service.client.submit", ServiceClient.submit)),
    ]
    for cls, attr, replacement in methods:
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall

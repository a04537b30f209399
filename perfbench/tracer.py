"""In-memory span recorder wrapped around the public functions of isacpilot.

Every public function of the traced modules is replaced, under every module
name that binds it, by a wrapper that records one span per call: name,
start, end and the index of the enclosing span.  ``from x import f`` makes a
second binding of ``f`` in the importing module, so ``gradients.comm_state``
and ``cli.roc_curve`` are patched as well as ``metrics.comm_state`` and
``evaluation.roc_curve``; all bindings of one function share one wrapper and
one span name, ``<defining module>.<function>``.

Spans stay in memory; statistics are computed once the traced work is done.
A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

# modules whose public functions are traced, as named in span names
TRACED_MODULES = ("channel", "config", "metrics", "gradients", "optimizer", "evaluation", "cli")


class SpanRecorder:
    """Collects spans ``(name, start, end, parent)`` and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []
        self._patched: list = []
        self._hooks: dict = {}

    # -- recording -------------------------------------------------------

    def add_hook(self, name: str, hook) -> None:
        """Call ``hook(recorder, args, kwargs, result)`` after each call of ``name``.

        Hooks run outside the span, so their cost is not charged to it.
        """
        self._hooks[name] = hook

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            hook = self._hooks.get(name)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> list:
        """Wrap every public function of the traced modules in all its bindings.

        Returns the ``(module name, attribute, span name)`` bindings patched.
        """
        modules = {"": package}
        for short in TRACED_MODULES:
            modules[short] = importlib.import_module(f"{package.__name__}.{short}")
        prefix = package.__name__ + "."
        wrappers: dict = {}
        patched = []
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith(prefix) or home[len(prefix):] not in TRACED_MODULES:
                    continue
                span_name = f"{home[len(prefix):]}.{value.__name__}"
                if id(value) not in wrappers:
                    wrappers[id(value)] = self.wrap(span_name, value)
                setattr(module, attr, wrappers[id(value)])
                self._patched.append((module, attr, value))
                patched.append((module.__name__, attr, span_name))
        return patched

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _positional(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_optimizer(recorder, args, kwargs, trace) -> None:
    config = _positional(args, kwargs, 2, "config")
    recorder.count("optimizer.iterations", trace.n_iterations)
    # stopped by rel_tol rather than by max_iters
    recorder.count("optimizer.converged", float(trace.n_iterations < config.max_iters))


def _count_trials(recorder, args, kwargs, result) -> None:
    shape = getattr(_positional(args, kwargs, 0, "observations"), "shape", ())
    recorder.count("evaluation.gmm_mmse_batch.trials", shape[0] if len(shape) == 2 else 1)


def _count_bytes(recorder, args, kwargs, result) -> None:
    recorder.count("cli.emit_table.bytes", os.path.getsize(_positional(args, kwargs, 1, "path")))


def add_work_counters(recorder: SpanRecorder) -> None:
    """Count optimizer iterations and stops, estimator trials and CSV bytes."""
    recorder.add_hook("optimizer.optimize_pgd", _count_optimizer)
    recorder.add_hook("evaluation.gmm_mmse_batch", _count_trials)
    recorder.add_hook("cli.emit_table", _count_bytes)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per-span duration minus the part of its interval its children cover."""
    children: dict = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(index, ()) if min(e, end) > max(s, start)
        ]
        result.append((end - start) - _covered(clipped))
    return result


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of an ascending list, q in [0, 100]."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def span_stats(spans) -> dict:
    """Per span name: calls, busy_s (union of its intervals), self_s, p50_us, p90_us."""
    selfs = self_times(spans)
    by_name: dict = {}
    for (name, start, end, _), self_s in zip(spans, selfs):
        entry = by_name.setdefault(name, {"intervals": [], "self_s": 0.0})
        entry["intervals"].append((start, end))
        entry["self_s"] += self_s
    stats = {}
    for name, entry in by_name.items():
        durations = sorted(e - s for s, e in entry["intervals"])
        stats[name] = {
            "calls": len(durations),
            "busy_s": _covered(entry["intervals"]),
            "self_s": entry["self_s"],
            "p50_us": _percentile(durations, 50.0) * 1e6,
            "p90_us": _percentile(durations, 90.0) * 1e6,
        }
    return stats


def covered_by(spans, predicate) -> float:
    """Wall time covered by the spans whose name satisfies ``predicate``."""
    return _covered([(s, e) for name, s, e, _ in spans if predicate(name)])

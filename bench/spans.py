"""In-memory call tracing of the ``approxinv`` layers, installed from the
benchmark's own files.

Every public module-level function of a layer module is wrapped, and every
``approxinv`` module that rebinds it with ``from .x import y`` gets the same
wrapper, so a call is recorded whichever name it goes through.  The
scenario runners in ``scenarios.REGISTRY`` are private functions, so they
are wrapped in the registry as ``scenarios.<name>``.  A span is
``(name, parent, start, end, raised)``; its id is its index in the list.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli", "scenarios", "core", "wiener", "c0", "disk", "operators", "banach_module",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            raised = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end, raised)

        return traced

    def install(self, package: str = "approxinv") -> None:
        """Wrap the package's public functions; the package must already be
        imported."""
        modules = [
            module
            for key, module in list(sys.modules.items())
            if module is not None and (key == package or key.startswith(package + "."))
        ]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        registry = sys.modules[f"{package}.scenarios"].REGISTRY
        for name, spec in list(registry.items()):
            registry[name] = dataclasses.replace(
                spec, run=self.wrap(spec.run, f"scenarios.{name}")
            )


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for sid, (name, parent, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(end - start - covered)
    return result


def summarize(spans: list[tuple]) -> dict:
    """Totals over all spans: per function name ``calls``, ``self_s`` and
    ``errors``, and per scenario the ``run_scenario`` span minus its
    ``write_csv`` children."""
    selfs = self_times(spans)
    functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "errors": 0})
    scenario_s: dict[str, float] = defaultdict(float)
    kids: dict[int, list[int]] = defaultdict(list)
    for sid, (name, parent, start, end, raised) in enumerate(spans):
        entry = functions[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[sid]
        entry["errors"] += int(raised)
        if parent >= 0:
            kids[parent].append(sid)
    for sid, (name, _, start, end, _) in enumerate(spans):
        if name != "cli.run_scenario":
            continue
        scenario = None
        span_s = end - start
        for kid in kids.get(sid, ()):
            kid_name, _, kid_start, kid_end, _ = spans[kid]
            if kid_name == "cli.write_csv":
                span_s -= kid_end - kid_start
            elif layer_of(kid_name) == "scenarios":
                scenario = kid_name.split(".", 1)[1]
        if scenario is not None:
            scenario_s[scenario] += span_s
    return {"functions": dict(functions), "scenarios": dict(scenario_s)}

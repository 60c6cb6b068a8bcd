"""Span tracer that wraps cfmac's public functions from outside the package.

``Tracer.install`` replaces every public function in every ``cfmac`` module
namespace that binds it (``rate_bounds.delta``, ``code_sim.info_density_tables``
and so on) with a wrapper that records a span: name, start, end, parent span
and the benchmark step (request) it belongs to.  Calls between functions of
one module go through the module globals, so they are traced too.  Spans stay
in memory and are written once, at the end.  The package source is not
modified.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from pathlib import Path

# Result fields a span keeps, per traced function: exact counts the library
# computes but the CLI does not print.
OBSERVE = {
    "channel.sum_capacity": lambda r: {"iterations": r.iterations},
    "rate_bounds.rate_report": lambda r: {
        "thm3_budget_exhausted": "thm3_budget_exhausted" in r.flags
    },
}

NAME, START, END, PARENT, REQUEST, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request: str | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        observe = OBSERVE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if observe is not None:
                rec[INFO] = observe(result)
            return result

        return traced

    def install(self, modules) -> None:
        """Wrap the public functions bound in ``modules``, one wrapper per function."""
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("cfmac."):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrappers[obj])

    def dump(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "request", "info")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time spent in other layers below it.

    A same-layer child's own layer time is folded into its parent, so the
    value at the outermost span of a layer is that layer's self time for the
    call, and the values of spans nested in the same layer count again inside
    their parent.  Parents precede children in the list.
    """
    plain = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            plain[s[PARENT]] -= s[END] - s[START]
    own = list(plain)
    for i in range(len(spans) - 1, -1, -1):
        p = spans[i][PARENT]
        if p >= 0 and layer(spans[p][NAME]) == layer(spans[i][NAME]):
            own[p] += own[i]
    return own


def ancestors(spans: list[list], i: int):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]

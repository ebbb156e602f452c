"""In-memory span tracing around the public entry points of each JxVM layer.

Only the traced run installs these wrappers; untraced runs import this
module for :class:`NullTracer` alone and execute the program unpatched.

A span is ``(id, name, start, end, parent, op, thread)``.  Spans nest
per thread; a span opened inside an operation (a cold run, a warehouse
slice, a session) carries that operation's id, so every span of one
slice or one session shares it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable

#: (module, attribute, span name) for module-level functions.  Every
#: loaded ``repro`` module that bound the same function object (e.g.
#: ``repro.mutation.pipeline.compile_source``) is patched too, so the
#: wrapper sits where each caller looks the name up.
FUNCTIONS = [
    ("repro.lang", "compile_source", "lang.compile"),
    ("repro.mutation.pipeline", "build_mutation_plan", "mutation.plan"),
    ("repro.profiling.method_profiler", "profile_methods",
     "profiling.methods"),
    ("repro.mutation.state_fields", "derive_state_fields",
     "mutation.state_fields"),
    ("repro.mutation.hot_states", "derive_hot_states", "mutation.hot_states"),
    ("repro.mutation.lifetime", "analyze_lifetime_constants",
     "mutation.lifetime"),
    ("repro.vm.shapes", "install_shapes", "vm.shapes.install"),
]

#: (module, class, method, span name) for methods, patched on the class.
METHODS = [
    ("repro.profiling.value_profiler", "ValueProfiler", "run",
     "profiling.values"),
    ("repro.vm.runtime", "VM", "__init__", "vm.build"),
    ("repro.vm.linker", "Linker", "link", "vm.link"),
    ("repro.bytecode.quicken", "Quickener", "quicken_all",
     "bytecode.quicken"),
    ("repro.mutation.manager", "MutationManager", "attach", "mutation.attach"),
    ("repro.opt.pipeline", "OptCompiler", "compile", "opt.compile"),
    ("repro.opt.pipeline", "OptCompiler", "compile_osr_continuation",
     "opt.osr_compile"),
    ("repro.server.codespace", "CodeSpace", "__init__",
     "server.codespace_build"),
    ("repro.server.codespace", "CodeSpace", "create_session",
     "server.create_session"),
    ("repro.server.session", "Session", "run", "server.session_run"),
]

#: Layer that owns the self time of each span name; everything no
#: top-level span covers is ``other``.
LAYER_OF = {
    "import": "import",
    "lang.compile": "lang",
    "mutation.plan": "offline",
    "profiling.methods": "offline",
    "profiling.values": "offline",
    "mutation.state_fields": "offline",
    "mutation.hot_states": "offline",
    "mutation.lifetime": "offline",
    "vm.build": "vm_build",
    "vm.link": "vm_build",
    "vm.shapes.install": "vm_build",
    "bytecode.quicken": "vm_build",
    "mutation.attach": "vm_build",
    "opt.compile": "opt",
    "opt.osr_compile": "opt",
    "server.codespace_build": "server",
    "server.create_session": "server",
    "server.session_run": "exec",
    "op": "exec",
}
LAYERS = ("import", "lang", "offline", "vm_build", "opt", "exec", "server",
          "other")
COMPILE_SPANS = ("opt.compile", "opt.osr_compile")


def _bytecode_instrs(unit: Any) -> int:
    return sum(len(m.code) for c in unit.classes.values()
               for m in c.methods.values())


#: Counts read from a wrapped call's result: span name -> (metric, fn).
RESULT_COUNTERS = {"lang.compile": ("lang.bytecode_instrs", _bytecode_instrs)}


class NullTracer:
    """The untraced run: spans cost one ``nullcontext``."""

    enabled = False

    def span(self, name: str, op: bool = False):
        return contextlib.nullcontext()


class Tracer:
    """Records spans in memory; :meth:`dump` writes them out at the end."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: bool = False):
        """Open a span; ``op=True`` starts a new operation id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "op": next(self._ops) if op else (parent["op"] if parent
                                              else None),
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, fn: Callable, name: str) -> Callable:
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                key, count = counter
                with self._lock:
                    self.counts[key] = self.counts.get(key, 0) + count(result)
            return result

        return traced

    def install(self) -> None:
        """Patch every entry point in :data:`FUNCTIONS` and
        :data:`METHODS` (their modules must be importable)."""
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            traced = self.wrap(original, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, traced)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    # -- reduction --------------------------------------------------------

    def summary(self, wall_start: float, wall_end: float) -> dict[str, float]:
        """Inclusive seconds per span name, self seconds per layer,
        ``exec.self_s`` and the top-level coverage of the wall time."""
        spans = [s for s in self.spans if s["end"] is not None]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        calls: dict[str, int] = {}
        for s in spans:
            dur = s["end"] - s["start"]
            out[f"{s['name']}_s"] = out.get(f"{s['name']}_s", 0.0) + dur
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            layer_self[LAYER_OF[s["name"]]] += dur - child_time.get(s["id"],
                                                                    0.0)
        # Execution self time: operation spans minus the compiles they
        # triggered (the other children are server bookkeeping or
        # execution themselves).
        by_id = {s["id"]: s for s in spans}
        compile_in_ops = 0.0
        for s in spans:
            if s["name"] in COMPILE_SPANS and s["op"] is not None:
                if not _has_compile_ancestor(s, by_id):
                    compile_in_ops += s["end"] - s["start"]
        ops_total = out.get("op_s", 0.0)
        out["exec.self_s"] = ops_total - compile_in_ops
        covered = _union([(s["start"], s["end"]) for s in spans
                          if s["parent"] is None])
        wall = wall_end - wall_start
        layer_self["other"] = max(0.0, wall - covered)
        for layer, secs in layer_self.items():
            out[f"self.{layer}_s"] = secs
        out["trace.coverage"] = covered / wall if wall > 0 else 0.0
        out["lang.calls"] = float(calls.get("lang.compile", 0))
        out.update((k, float(v)) for k, v in self.counts.items())
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _has_compile_ancestor(span: dict, by_id: dict[int, dict]) -> bool:
    parent = by_id.get(span["parent"])
    while parent is not None:
        if parent["name"] in COMPILE_SPANS:
            return True
        parent = by_id.get(parent["parent"])
    return False


def _union(intervals: list[tuple[float, float]]) -> float:
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

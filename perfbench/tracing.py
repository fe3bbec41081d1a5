"""Benchmark-side spans: wrap public entry points of the ``repro`` layers.

The benchmark measures the program from outside.  In a traced run it swaps
selected functions and methods for thin wrappers that open one span per call
on a private ``repro.obs.trace.Tracer`` (never the process-global one, so the
program's own instrumentation stays off), and swaps the originals back when
the run leaves a traced block.  Nothing under ``src/`` changes.

Each span carries the id of the operation it belongs to as its ``op``
attribute.  The id travels in a context variable, so a build that
``asyncio.to_thread`` moves to a worker thread still carries the id of the
request that caused it.  Every wrapped entry point is synchronous, so the
tracer's thread-local parent stack links nested spans correctly.  A layer's
*self time* is its span's duration minus the time its direct child spans
cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
from pathlib import Path
from typing import Any, Callable

#: Operation id of the op in flight in this context (None during set-up).
CURRENT_OP: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: Spans kept in memory.  A 20-second traced run records well under a tenth
#: of this; the run info reports the count (``spans_recorded``).
CAPACITY = 1 << 20

#: (span name, module, attribute path) for every entry point the traced run
#: wraps.  A target whose module the workload never imported is skipped:
#: that layer is bypassed, and importing it would only add noise.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("modules.load", "repro.modules.loader", "loads_module"),
    ("core.matrix_init", "repro.core.traffic_matrix", "TrafficMatrix.__init__"),
    ("game.level_build", "repro.game.warehouse", "WarehouseLevel.__init__"),
    ("game.place_packets", "repro.game.warehouse", "WarehouseLevel.place_packets"),
    ("gdscript.instantiate", "repro.gdscript.interpreter", "GDScriptClass.instantiate"),
    ("render.scene_ascii", "repro.game.warehouse", "render_scene_ascii"),
    ("render.matrix_2d", "repro.render.ascii2d", "render_matrix_2d"),
    ("game.quiz", "repro.game.session", "present_question"),
    ("game.quiz", "repro.game.session", "judge_answer"),
    ("scenarios.build", "repro.scenarios.spec", "ScenarioSpec.build"),
    ("graphs.layers", "repro.scenarios.spec", "ScenarioSpec.layer_matrices"),
    ("graphs.overlay", "repro.graphs.compose", "overlay"),
    ("scenarios.cache_get", "repro.scenarios.cache", "ScenarioCache.get"),
    ("scenarios.delta", "repro.scenarios.service", "apply_delta"),
    ("store.put", "repro.store.store", "ScenarioStore.put"),
    ("store.get", "repro.store.store", "ScenarioStore.get"),
)


class SpanRecorder:
    """Patches the entry points in and out; summarises the recorded spans."""

    def __init__(self) -> None:
        self.tracer: Any = None  # a private Tracer, made by ``resolve``
        #: id(spec) -> op id, so service-side spans find the request they serve
        self.op_of_object: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self.installed = False

    def span(self, name: str) -> Any:
        return self.tracer.span(name, op=CURRENT_OP.get())

    def wrap(self, name: str, fn: Callable[..., Any], bind_op: bool) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if bind_op and len(args) > 1:
                op = recorder.op_of_object.get(id(args[1]))
                if op is not None:
                    # left set on purpose: the build that follows this lookup
                    # in the same service task belongs to the same request
                    CURRENT_OP.set(op)
            with recorder.tracer.span(name, op=CURRENT_OP.get()):
                return fn(*args, **kwargs)

        return traced

    # -- patching ------------------------------------------------------- #

    def resolve(self) -> None:
        """Make the tracer and the patch list from the modules this process
        imported."""
        from repro.obs.trace import Tracer

        self.tracer = Tracer(CAPACITY)
        self._patches = []
        for name, module_name, path in TARGETS:
            if module_name not in sys.modules:
                continue
            owner: Any = importlib.import_module(module_name)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self.wrap(name, original, bind_op=name == "scenarios.cache_get")
            self._patches.append((owner, attr, original, wrapper))

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _original, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)
            self.installed = False

    # -- summaries ------------------------------------------------------ #

    def records(self) -> list[Any]:
        return [] if self.tracer is None else self.tracer.spans()

    @staticmethod
    def _op(record: Any) -> int | None:
        return dict(record.attrs).get("op")

    def self_times(self, ops: set[int]) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds), over set-up spans and the given ops."""
        records = self.records()
        child_ns: dict[int, int] = {}
        for r in records:
            if r.parent_id is not None:
                child_ns[r.parent_id] = child_ns.get(r.parent_id, 0) + r.dur_ns
        out: dict[str, tuple[int, float]] = {}
        for r in records:
            op = self._op(r)
            if op is not None and op not in ops:
                continue
            calls, total = out.get(r.name, (0, 0.0))
            out[r.name] = (calls + 1, total + (r.dur_ns - child_ns.get(r.span_id, 0)) / 1e9)
        return out

    def calls(self, name: str, ops: set[int]) -> int:
        """Spans named *name* inside the given ops."""
        return sum(1 for r in self.records() if r.name == name and self._op(r) in ops)

    def op_durations(self, names: set[str]) -> dict[int, float]:
        """op -> summed seconds of top-level spans with one of *names*."""
        out: dict[int, float] = {}
        for r in self.records():
            op = self._op(r)
            if op is not None and r.parent_id is None and r.name in names:
                out[op] = out.get(op, 0.0) + r.dur_ns / 1e9
        return out

    def dump(self, path: Path) -> None:
        """Write every span as Chrome ``trace_event`` JSON (one file per run)."""
        from repro.obs.trace import write_trace_json

        write_trace_json(self.records(), path)

"""Boundary tracer: spans around the calls into each layer of ``repro``.

The tracer wraps a fixed set of layer entry points (:data:`HOOKS`) from
outside the program. Each wrapped call opens a span; when it closes, its
duration minus the time its child spans covered is added to its layer's
self time. Only per-layer aggregates are kept (in memory, for the life
of the tracer), so a traced run costs two clock reads and a list push
and pop per boundary crossing, whatever its length.

Functions that experiments import by name (``from ..bench.model_probe
import characterize_model``) are bound in several module namespaces;
patching only the defining module would miss the copies, so every
``repro`` module that holds the original object is patched, and every
patch is undone by :meth:`Installation.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Marker attribute set on every wrapper the tracer installs.
WRAPPER_MARK = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Hook:
    """One layer boundary: a class method or a module-level function."""

    layer: str
    module: str
    owner: str | None  # class name; None for a module-level function
    name: str


#: Layer boundaries, named after the ``repro`` modules they enter.
#: ``MemoryModel.access`` is split at run time: calls on the Mess
#: simulator count as ``core``, all others as ``memmodels``.
HOOKS = (
    Hook("cpu.engine", "repro.cpu.engine", "Engine", "run"),
    Hook("cpu.hierarchy", "repro.cpu.hierarchy", "MemoryHierarchy", "access"),
    Hook(
        "cpu.hierarchy.prime",
        "repro.cpu.hierarchy",
        "MemoryHierarchy",
        "prime_write_steady_state",
    ),
    Hook("dram", "repro.dram.controller", "DramController", "submit"),
    Hook("memmodels", "repro.memmodels.base", "MemoryModel", "access"),
    Hook("bench.harness", "repro.bench.harness", "MessBenchmark", "measure_point"),
    Hook("bench.probe", "repro.bench.model_probe", None, "characterize_model"),
    Hook("traces", "repro.traces.driver", None, "replay_trace"),
    Hook("traces", "repro.traces.driver", None, "synthesize_mess_trace"),
    Hook("scenario", "repro.scenario.core", "Scenario", "materialize"),
)

LAYERS = tuple(dict.fromkeys([hook.layer for hook in HOOKS] + ["core"]))


@dataclass
class Tracer:
    """Span stack plus per-layer aggregates."""

    clock: Callable[[], float] = time.perf_counter
    self_s: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    # open spans: [layer, start, time covered by children]
    _stack: list[list] = field(default_factory=list)

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @property
    def open_spans(self) -> int:
        return len(self._stack)


def _span_wrapper(tracer: Tracer, layer: str, fn: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(*args, **kwargs):
        enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_()

    return wrapper


def _memory_model_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    from repro.core.simulator import MessMemorySimulator

    layer_of: dict[type, str] = {}
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(self, *args, **kwargs):
        kind = type(self)
        layer = layer_of.get(kind)
        if layer is None:
            layer = "core" if issubclass(kind, MessMemorySimulator) else "memmodels"
            layer_of[kind] = layer
        enter(layer)
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_()

    return wrapper


def _dram_wrapper(tracer: Tracer, fn: Callable) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(self, *args, **kwargs):
        census = self.stats.row_buffer
        hits, total = census.hits, census.total
        enter("dram")
        try:
            return fn(self, *args, **kwargs)
        finally:
            exit_()
            tracer.add("dram.row_hits", census.hits - hits)
            tracer.add("dram.row_accesses", census.total - total)

    return wrapper


def cache_census(hierarchy) -> dict[str, int]:
    """Hit/miss totals of a hierarchy's L1, L2 (3-level only) and LLC."""
    levels = hierarchy.levels
    chosen = {"l1": levels[0], "llc": levels[-1]}
    if len(levels) == 3:
        chosen["l2"] = levels[1]
    census: dict[str, int] = {}
    for name, caches in chosen.items():
        census[f"{name}.hits"] = sum(cache.stats.hits for cache in caches)
        census[f"{name}.accesses"] = sum(
            cache.stats.hits + cache.stats.misses for cache in caches
        )
    census["writebacks"] = sum(cache.stats.writebacks for cache in levels[-1])
    return census


def _engine_wrapper(
    tracer: Tracer, fn: Callable, hierarchies: weakref.WeakKeyDictionary
) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit

    def wrapper(self, *args, **kwargs):
        hierarchy = hierarchies.get(self)
        before = cache_census(hierarchy) if hierarchy is not None else None
        enter("cpu.engine")
        try:
            events = fn(self, *args, **kwargs)
        finally:
            exit_()
        tracer.add("cpu.engine.events", events)
        if hierarchy is not None:
            for name, value in cache_census(hierarchy).items():
                tracer.add(f"cpu.hierarchy.{name}", value - before.get(name, 0))
        return events

    return wrapper


def _system_init_wrapper(
    fn: Callable, hierarchies: weakref.WeakKeyDictionary
) -> Callable:
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        hierarchies[self.engine] = self.hierarchy

    return wrapper


class Installation:
    """The wrappers of one tracer, installed into the loaded program."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.patches: list[tuple[object, str, object]] = []
        self._hierarchies: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _patch(self, owner: object, name: str, original, wrapper) -> None:
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, WRAPPER_MARK, True)
        setattr(owner, name, wrapper)
        self.patches.append((owner, name, original))

    def _wrapper_for(self, hook: Hook, original) -> Callable:
        if hook.layer == "cpu.engine":
            return _engine_wrapper(self.tracer, original, self._hierarchies)
        if hook.layer == "dram":
            return _dram_wrapper(self.tracer, original)
        if hook.layer == "memmodels":
            return _memory_model_wrapper(self.tracer, original)
        return _span_wrapper(self.tracer, hook.layer, original)

    def install(self) -> None:
        if self.patches:
            raise RuntimeError("tracer already installed")
        for hook in HOOKS:
            module = importlib.import_module(hook.module)
            if hook.owner is not None:
                cls = getattr(module, hook.owner)
                original = cls.__dict__[hook.name]
                self._patch(cls, hook.name, original, self._wrapper_for(hook, original))
                continue
            original = getattr(module, hook.name)
            wrapper = self._wrapper_for(hook, original)
            for holder in bound_holders(original):
                self._patch(holder, hook.name, original, wrapper)
        system_cls = importlib.import_module("repro.cpu.system").System
        original = system_cls.__dict__["__init__"]
        self._patch(
            system_cls,
            "__init__",
            original,
            _system_init_wrapper(original, self._hierarchies),
        )

    def uninstall(self) -> None:
        while self.patches:
            owner, name, original = self.patches.pop()
            setattr(owner, name, original)


def bound_holders(function) -> list:
    """Every loaded ``repro`` module whose namespace binds ``function``."""
    holders = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if module.__dict__.get(function.__name__) is function:
            holders.append(module)
    return holders


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers still reachable from ``repro``'s namespaces."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(module.__dict__.items()):
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{name}.{attr}")
            elif isinstance(value, type) and value.__module__ == name:
                found.extend(
                    f"{name}.{attr}.{member}"
                    for member, inner in vars(value).items()
                    if getattr(inner, WRAPPER_MARK, False)
                )
    return found


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install the tracer's wrappers for the duration of a block."""
    installation = Installation(tracer)
    try:
        installation.install()
        yield tracer
    finally:
        installation.uninstall()

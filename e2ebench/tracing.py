"""Span tracing for the benchmark's traced run, installed from outside ``src``.

Every span is a wrapper the benchmark patches onto a layer boundary of
the ``repro`` package for the duration of one run (see
:func:`install`).  A span's self time is its duration minus the time
its child spans cover; summing self time by layer splits the traced
wall time without double counting.  Spans are folded into per-name
totals as they close (count, inclusive time, self time) instead of being
kept one by one: a traced 20-commit run at n = 202 closes about ten
million spans, which would not fit the memory budget as records.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from contextlib import contextmanager

#: Layers in report order, each with the module prefixes it owns.
#: ``other`` takes everything else (the experiment runner's callbacks,
#: the benchmark's own scheduled closures).
LAYERS = (
    ("sim", ("repro.net.simulator",)),
    ("net", ("repro.net.network", "repro.net.stats", "repro.net.message")),
    ("pbft", ("repro.pbft",)),
    ("core", ("repro.core",)),
    ("chain", ("repro.chain",)),
    ("geo", ("repro.geo",)),
    ("verify", ("repro.verify",)),
    ("workloads", ("repro.workloads",)),
    ("eventlog", ("repro.common.eventlog",)),
    ("crypto", ("repro.crypto",)),
    ("codec", ("repro.codec",)),
    ("other", ()),
)
LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Packages whose every public function and method gets a span: the
#: layers that have no single entry point of their own.
_PACKAGE_LAYERS = ("repro.geo", "repro.crypto", "repro.codec")


def layer_of_module(module: str) -> str:
    """The layer that owns *module* (``other`` when none does)."""
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


class Tracer:
    """Collects spans into per-name ``[calls, inclusive_s, self_s]`` totals."""

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.layer_of: dict[str, str] = {}
        self._stack: list[list[float]] = []
        #: receive-queue waits (simulated seconds), one per arriving message
        self.queue_waits: list[float] = []

    def reset(self) -> None:
        """Zero every total (call between set-up and the timed run)."""
        for stat in self.totals.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        self.queue_waits.clear()

    def wrap(self, name: str, layer: str, fn):
        """*fn* wrapped in a span called *name*, owned by *layer*."""
        if getattr(fn, "_e2e_span", None) is not None:
            return fn
        stat = self.totals.setdefault(name, [0, 0.0, 0.0])
        self.layer_of[name] = layer
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += spent
                stat[2] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent

        span._e2e_span = name
        span.__wrapped__ = fn
        return span

    def wrap_callback(self, fn):
        """Span for a simulator callback or handler, named after its code."""
        target = getattr(fn, "func", fn)  # functools.partial
        target = getattr(target, "__func__", target)  # bound method
        if getattr(target, "_e2e_span", None) is not None:
            return fn  # already a span at class level
        module = getattr(target, "__module__", None) or ""
        name = getattr(target, "__qualname__", type(target).__name__)
        return self.wrap(f"{module}:{name}", layer_of_module(module), fn)

    def calls(self, name: str) -> int:
        """How many spans called *name* closed since the last reset."""
        stat = self.totals.get(name)
        return stat[0] if stat is not None else 0

    def layer_self(self) -> dict[str, float]:
        """Self seconds summed per layer (every layer present, maybe 0)."""
        out = dict.fromkeys(LAYER_NAMES, 0.0)
        for name, stat in self.totals.items():
            out[self.layer_of[name]] += stat[2]
        return out

    def report(self) -> None:
        """Write the 25 heaviest spans by self time to stderr."""
        rows = sorted(self.totals.items(), key=lambda kv: -kv[1][2])[:25]
        print(f"{'span':60s} {'layer':9s} {'calls':>10s} {'self_s':>9s} {'incl_s':>9s}",
              file=sys.stderr)
        for name, (calls, incl, own) in rows:
            if calls:
                print(f"{name[:60]:60s} {self.layer_of[name]:9s} {calls:10d} "
                      f"{own:9.3f} {incl:9.3f}", file=sys.stderr)


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _boundaries():
    """``(class, method, layer)`` for every named layer boundary."""
    from repro.chain.ledger import Ledger
    from repro.chain.mempool import Mempool
    from repro.common.eventlog import EventLog
    from repro.core.node import GPBFTNode
    from repro.net.network import SimulatedNetwork
    from repro.net.simulator import Simulator
    from repro.pbft.client import PBFTClient
    from repro.pbft.replica import PBFTReplica
    from repro.workloads.streams import AggregatedArrivals

    return (
        (Simulator, "run", "sim"),
        (Simulator, "schedule", "sim"),
        (Simulator, "schedule_at", "sim"),
        (SimulatedNetwork, "send", "net"),
        (SimulatedNetwork, "multicast", "net"),
        # the receive half of the message path has no public entry;
        # without a span its cost would land in the event loop
        (SimulatedNetwork, "_process", "net"),
        (PBFTReplica, "receive", "pbft"),
        (PBFTClient, "receive", "pbft"),
        (PBFTClient, "submit", "pbft"),
        (PBFTClient, "_retry", "pbft"),
        (GPBFTNode, "submit_transaction", "core"),
        (Ledger, "append", "chain"),
        (Mempool, "add", "chain"),
        (EventLog, "append", "eventlog"),
        (AggregatedArrivals, "_candidate", "workloads"),
    )


def _package_functions(package: str):
    """Public functions and methods defined in *package*'s modules."""
    pkg = importlib.import_module(package)
    modules = [pkg] + [importlib.import_module(info.name) for info in
                       pkgutil.iter_modules(pkg.__path__, package + ".")]
    functions, methods = [], []
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions.append((module, name, obj))
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        methods.append((obj, attr, member))
    return functions, methods


@contextmanager
def install(tracer: Tracer):
    """Patch every span onto the ``repro`` package; undo on exit.

    Handlers passed to ``SimulatedNetwork.register``, callbacks passed
    to ``Simulator.schedule``/``schedule_at`` and ``EventLog``
    subscribers are wrapped as they are handed over, so the span
    carries the layer of the code that really runs.
    """
    from repro.common.eventlog import EventLog
    from repro.net.network import SimulatedNetwork
    from repro.net.simulator import Simulator

    patches = _Patches()
    try:
        for cls, method, layer in _boundaries():
            patches.set(cls, method, tracer.wrap(
                f"{cls.__name__}.{method}", layer, cls.__dict__[method]))

        register = SimulatedNetwork.__dict__["register"]
        subscribe = EventLog.__dict__["subscribe"]
        schedule = Simulator.schedule
        schedule_at = Simulator.schedule_at

        def traced_register(self, node_id, handler):
            return register(self, node_id, tracer.wrap_callback(handler))

        def traced_subscribe(self, callback):
            return subscribe(self, tracer.wrap_callback(callback))

        def traced_schedule(self, delay, callback, *args):
            return schedule(self, delay, tracer.wrap_callback(callback), *args)

        def traced_schedule_at(self, at, callback, *args):
            return schedule_at(self, at, tracer.wrap_callback(callback), *args)

        patches.set(SimulatedNetwork, "register", traced_register)
        patches.set(EventLog, "subscribe", traced_subscribe)
        patches.set(Simulator, "schedule", traced_schedule)
        patches.set(Simulator, "schedule_at", traced_schedule_at)

        arrive = SimulatedNetwork.__dict__["_arrive"]
        waits = tracer.queue_waits

        def measured_arrive(self, envelope):
            # the wait this message will sit in dst's receive queue
            waits.append(self.queue_depth_s(envelope.dst))
            return arrive(self, envelope)

        patches.set(SimulatedNetwork, "_arrive", tracer.wrap(
            "SimulatedNetwork._arrive", "net", measured_arrive))

        for package in _PACKAGE_LAYERS:
            layer = layer_of_module(package)
            functions, methods = _package_functions(package)
            for cls, attr, member in methods:
                patches.set(cls, attr, tracer.wrap(
                    f"{cls.__module__}.{cls.__qualname__}.{attr}", layer, member))
            by_id = {id(fn): tracer.wrap(f"{module.__name__}.{name}", layer, fn)
                     for module, name, fn in functions}
            # rebind every ``from ... import fn`` copy in loaded modules
            for modname, module in list(sys.modules.items()):
                if not modname.startswith("repro") or module is None:
                    continue
                for name, obj in list(vars(module).items()):
                    wrapped = by_id.get(id(obj))
                    if wrapped is not None:
                        patches.set(module, name, wrapped)
        yield tracer
    finally:
        patches.undo()

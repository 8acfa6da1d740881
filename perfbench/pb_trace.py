"""Per-layer span tracer for the traced benchmark run.

The tracer wraps each layer's public entry points at class level, from the
benchmark's own files, and records one span per call: entry-point name,
start, end and parent span, all in host CPU nanoseconds
(``time.process_time_ns``).  Nothing inside ``src/`` changes and no
simulator event is added, so a traced run fires exactly the schedule of an
untraced one.

Generator entry points (``XrdmaContext.connect``, ``XrdmaChannel.pump``,
``BlockServer.write_block`` ...) are timed per resume: each time the
simulator resumes the generator, a span opens around the step and closes
at the next ``yield``.  The time a generator spends running is therefore
charged to its own layer; the time it spends suspended is not charged to
anything, and the event loop that resumes it keeps only its own share.

A layer's self time is the sum over its spans of span time minus the time
of direct child spans.  ``sim`` is what remains of ``Simulator.run`` and
``Simulator.run_until_event``: the event loop plus every piece of code no
other layer claims.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, class, methods); ``"*"`` means every public method.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Simulator", ("run", "run_until_event")),
    ("rnic", "repro.rnic.nic", "Rnic", ("post_send", "kick", "receive")),
    ("topology", "repro.topology.link", "EgressPort",
     ("enqueue", "send_immediate")),
    ("switching", "repro.switching.switch", "Switch",
     ("receive", "pause_port")),
    ("transport", "repro.transport.dcqcn", "DcqcnRateLimiter",
     ("on_cnp", "reserve")),
    ("transport", "repro.transport.dcqcn", "CnpGovernor",
     ("should_send_cnp",)),
    ("verbs", "repro.verbs.api", "VerbsContext", ("*",)),
    ("verbs", "repro.verbs.cm", "CmAgent", ("connect",)),
    ("ctrlplane", "repro.ctrlplane.qpcache", "QpCache", ("get", "put")),
    ("ctrlplane", "repro.ctrlplane.mrcache", "MrRegCache",
     ("lookup", "acquire")),
    ("xrdma", "repro.xrdma.context", "XrdmaContext",
     ("send_msg", "send_request", "send_response", "polling", "connect",
      "close_channel")),
    ("xrdma", "repro.xrdma.channel", "XrdmaChannel",
     ("pump", "on_receive", "on_send_completion")),
    ("xrdma", "repro.xrdma.flowctl", "FlowController",
     ("post", "on_completion")),
    ("xrdma", "repro.xrdma.memcache", "MemCache", ("alloc", "free")),
    ("apps", "repro.apps.pangu", "BlockServer", ("write_block",)),
    ("serving", "repro.serving.windows", "WindowedRecorder",
     ("on_offered", "on_completed")),
    ("serving", "repro.serving.arrivals", "PoissonArrivals",
     ("next_gap_ns",)),
)

#: Layers in report order.  ``sim`` is first: it holds the root spans.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _m, _c, _n in ENTRY_POINTS))


def _targets() -> List[Tuple[str, type, str]]:
    """(layer, class, method name) for every entry point."""
    # repro.ctrlplane cannot be imported before repro.xrdma (circular).
    importlib.import_module("repro.xrdma")
    out = []
    for layer, module, cls_name, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        if methods == ("*",):
            methods = tuple(name for name, value in vars(cls).items()
                            if not name.startswith("_")
                            and inspect.isfunction(value))
        for name in methods:
            out.append((layer, cls, name))
    return out


class Tracer:
    """Span recorder plus the class-level wrappers that feed it.

    Use as a context manager around building and running one repetition::

        with Tracer() as tracer:
            ...build the cluster...
            tracer.start()
            ...measured region...
            tracer.stop()
        tracer.self_ns_by_layer()

    Installing before the cluster is built matters: some hot loops hoist a
    bound method once (``poll_cq = self.verbs.poll_cq``), and that binding
    must be the wrapped one.  Spans are recorded only between
    :meth:`start` and :meth:`stop`.
    """

    def __init__(self, clock: Callable[[], int] = time.process_time_ns,
                 targets: Optional[List[Tuple[str, type, str]]] = None):
        self.clock = clock
        self._targets = targets
        self.names: List[str] = []          #: entry-point name per name id
        self.layer_of: List[str] = []       #: layer per name id
        #: flat span records: name id, start ns, end ns, parent index
        self.spans = array("q")
        self.calls: Counter = Counter()     #: entry-point name -> calls
        self.counters: Dict[str, float] = {}
        self.channels: Dict[int, Any] = {}  #: channels seen by pump
        #: simulated clock of the traced cluster (set by the runner)
        self.now: Callable[[], int] = lambda: 0
        self._dues: List[int] = []          #: open-loop arrivals not sent
        self.active = False
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------ recording
    def start(self) -> None:
        """Begin recording (the measured region starts)."""
        self.active = True

    def stop(self) -> None:
        """Stop recording; every span must be closed by now."""
        self.active = False
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")

    def _enter(self, name_id: int) -> int:
        index = len(self.spans) >> 2
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((name_id, self.clock(), 0, parent))
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[(index << 2) + 2] = self.clock()
        self._stack.pop()

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # ------------------------------------------------------------- wrapping
    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if tracer.active:
                    tracer.calls[name] += 1
                inner = fn(*args, **kwargs)
                value: Any = None
                error: Optional[BaseException] = None
                while True:
                    index = tracer._enter(name_id) if tracer.active else -1
                    try:
                        if error is None:
                            target = inner.send(value)
                        else:
                            thrown, error = error, None
                            target = inner.throw(thrown)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        if index >= 0:
                            tracer._exit(index)
                            if hook is not None:
                                hook(tracer, args, None)
                    try:
                        value = yield target
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # rethrown into inner
                        error = exc
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            index = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    def __enter__(self) -> "Tracer":
        targets = self._targets if self._targets is not None else _targets()
        for layer, cls, method in targets:
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            name = f"{cls.__name__}.{method}"
            setattr(cls, method, self._wrap(name, original))
            self.layer_of.append(layer)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()
        self.active = False

    # ------------------------------------------------------------ reporting
    @property
    def n_spans(self) -> int:
        return len(self.spans) >> 2

    def self_ns_by_layer(self) -> Dict[str, int]:
        """Self time per layer: span time minus direct-child span time."""
        spans = self.spans
        n = len(spans) >> 2
        child_ns = [0] * n
        for index in range(n):
            parent = spans[(index << 2) + 3]
            if parent >= 0:
                base = index << 2
                child_ns[parent] += spans[base + 2] - spans[base + 1]
        out = {layer: 0 for layer in LAYERS}
        for index in range(n):
            base = index << 2
            layer = self.layer_of[spans[base]]
            out[layer] = out.get(layer, 0) + (
                spans[base + 2] - spans[base + 1] - child_ns[index])
        return out

    def root_ns(self) -> int:
        """Total time of spans with no parent (the traced region's spans)."""
        spans = self.spans
        return sum(spans[base + 2] - spans[base + 1]
                   for base in range(0, len(spans), 4)
                   if spans[base + 3] < 0)

    def calls_in_layer(self, layer: str) -> int:
        return sum(count for name, count in self.calls.items()
                   if self.layer_of[self.names.index(name)] == layer)


# ------------------------------------------------------------------ hooks
# Counters read where the work happens: called after the wrapped entry
# point returns (after each resume, for generators), with its arguments.

def _enqueue_hook(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.peak("topology.peak_queue_bytes", args[0].queued_bytes)


def _flow_post_hook(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.peak("xrdma.flowctl_queued_peak", args[0].queued)


def _cache_hook(kind: str) -> Callable[[Tracer, tuple, Any], None]:
    def hook(tracer: Tracer, _args: tuple, result: Any) -> None:
        tracer.add(f"{kind}.{'hits' if result is not None else 'misses'}")
    return hook


def _send_hook(channel_of: Callable[[tuple], Any]
               ) -> Callable[[Tracer, tuple, Any], None]:
    def hook(tracer: Tracer, args: tuple, _result: Any) -> None:
        tracer.add("xrdma.app_msgs")
        if channel_of(args).protocol.is_large(args[2]):
            tracer.add("xrdma.rendezvous_msgs")
    return hook


def _pump_hook(tracer: Tracer, args: tuple, _result: Any) -> None:
    channel = args[0]
    tracer.channels[id(channel)] = channel


def _arrival_hook(tracer: Tracer, args: tuple, gap: Any) -> None:
    tracer._dues.append(args[1] + gap)


def _offered_hook(tracer: Tracer, _args: tuple, _result: Any) -> None:
    # The arrival being offered is the earliest one already due.
    now = tracer.now()
    due = min((due for due in tracer._dues if due <= now), default=now)
    if due in tracer._dues:
        tracer._dues.remove(due)
    tracer.peak("serving.gen_late_ns", now - due)


_HOOKS: Dict[str, Callable[[Tracer, tuple, Any], None]] = {
    "PoissonArrivals.next_gap_ns": _arrival_hook,
    "WindowedRecorder.on_offered": _offered_hook,
    "EgressPort.enqueue": _enqueue_hook,
    "FlowController.post": _flow_post_hook,
    "QpCache.get": _cache_hook("qp_cache"),
    "MrRegCache.lookup": _cache_hook("mr_cache"),
    # send_request delegates to send_msg, so only send_msg counts requests.
    "XrdmaContext.send_msg": _send_hook(lambda args: args[1]),
    "XrdmaContext.send_response": _send_hook(lambda args: args[1].channel),
    "XrdmaChannel.pump": _pump_hook,
}

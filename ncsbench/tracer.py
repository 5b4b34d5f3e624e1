"""Outside-in tracer: spans around the library's layer entry points.

Nothing under ``src/`` knows this module exists.  ``install`` replaces
each entry point listed in :data:`POINTS` with a timing wrapper, under
the exact name its caller looks it up by (a module global such as
``repro.errorcontrol.selective_repeat.segment_message``, or a class
attribute such as ``Sdu.encode_into``), and ``uninstall`` puts the
library's own object back.  A run with tracing off never calls
``install``, so it executes the library untouched.

Each wrapped call is a span on a thread-local stack.  A span records
its name, start, end and parent.  CPU time comes from
``time.thread_time_ns`` (the calling thread only); a span's *self* CPU
is its CPU time minus that of the wrapped calls it made, and its
``wall - cpu`` is time the call spent blocked: on a lock, a condition,
a socket or the interpreter lock.  Per-name totals are kept exactly; the spans
themselves are kept in memory up to a cap and written out once, at the
end of the run.
"""

from __future__ import annotations

import importlib
import json
import threading
from time import perf_counter_ns, thread_time_ns
from typing import Callable, Dict, List, Optional

#: Spans kept in memory for the trace file; totals stay exact past it.
SPAN_CAP = 50_000


def _one(args, result, child_items):
    return 1


def _len_first_arg(args, result, child_items):
    return len(args[0])


def _frames_received(args, result, child_items):
    if isinstance(result, list):
        return len(result)
    return 0 if result is None else 1


def _len_result(args, result, child_items):
    return len(result)


def _transmits(args, result, child_items):
    return len(result.transmits)


def _child_items(args, result, child_items):
    return child_items


#: Class- and module-level entry points, as
#: ``(module, class or None, attribute, span name, item counter)``.
#: The item counter turns a call's arguments or result into a count
#: (frames, SDUs, transmissions) kept beside the span totals.
POINTS = (
    ("repro.core.connection", "Connection", "send", "core.send", None),
    ("repro.core.connection", "Connection", "recv", "core.recv",
     _frames_received),
    ("repro.core.handles", "SendHandle", "wait", "core.handle_wait", None),
    ("repro.threadpkg.kernel", "KernelChannel", "put",
     "threadpkg.channel_put", None),
    ("repro.threadpkg.kernel", "KernelChannel", "get",
     "threadpkg.channel_get", None),
    ("repro.threadpkg.kernel", "KernelChannel", "try_get",
     "threadpkg.channel_get", None),
    ("repro.pressure.budget", "MemoryBudget", "try_reserve",
     "pressure.reserve", None),
    ("repro.pressure.budget", "MemoryBudget", "force_reserve",
     "pressure.reserve", None),
    ("repro.pressure.budget", "MemoryBudget", "reserve_blocking",
     "pressure.reserve", None),
    ("repro.errorcontrol.selective_repeat", "SelectiveRepeatSender", "send",
     "errorcontrol.send", _transmits),
    ("repro.errorcontrol.selective_repeat", "SelectiveRepeatSender",
     "on_control", "errorcontrol.on_control", _transmits),
    ("repro.errorcontrol.selective_repeat", "SelectiveRepeatSender",
     "on_timer", "errorcontrol.on_timer", _transmits),
    ("repro.errorcontrol.selective_repeat", "SelectiveRepeatReceiver",
     "on_sdu", "errorcontrol.on_sdu", None),
    # Bound by name into the error-control module, so that is where the
    # caller looks it up.
    ("repro.errorcontrol.selective_repeat", None, "segment_message",
     "protocol.segment", _len_result),
    ("repro.protocol.headers", "Sdu", "encode", "protocol.encode", None),
    ("repro.protocol.headers", "Sdu", "encode_into", "protocol.encode", None),
    ("repro.protocol.headers", "Sdu", "decode", "protocol.decode", None),
    ("repro.protocol.segmentation", "Reassembler", "add",
     "protocol.reassemble", None),
    ("repro.flowcontrol.credit", "CreditSender", "pull", "flowcontrol.pull",
     _len_result),
    ("repro.flowcontrol.credit", "CreditSender", "on_control",
     "flowcontrol.on_control", None),
    ("repro.flowcontrol.credit", "CreditReceiver", "on_sdu_batch",
     "flowcontrol.rx_batch", None),
    ("repro.eventplane.endpoint", "EventEndpoint", "on_readable",
     "eventplane.dispatch.read", _child_items),
    ("repro.eventplane.endpoint", "EventEndpoint", "on_writable",
     "eventplane.dispatch.write", None),
    ("repro.core.node", "Node", "control_send", "node.control_send", None),
    ("repro.core.node", "Node", "connect", "node.connect", None),
    ("repro.core.node", "Node", "accept", "node.accept", None),
    ("repro.core.node", "Node", "close", "node.close", None),
    ("repro.obs.recorder", "FlightRecorder", "record", "obs.record", None),
)

#: Data-interface methods, wrapped per instance so that the control
#: links (the same SCI class) stay outside the ``interfaces`` layer.
INSTANCE_POINTS = (
    ("send", "interfaces.send", _one),
    ("send_many", "interfaces.send", _len_first_arg),
    ("queue_frames", "interfaces.send", _len_first_arg),
    ("recv", "interfaces.recv", _frames_received),
    ("try_recv", "interfaces.recv", _frames_received),
    ("recv_many", "interfaces.recv", _frames_received),
)


def static_targets() -> List[tuple]:
    """``(owner, attribute)`` for every class- or module-level point."""
    targets = []
    for module_name, class_name, attr, _, _ in POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        targets.append((owner, attr))
    return targets


class Totals:
    """Exact per-name totals of finished spans."""

    __slots__ = ("calls", "wall_ns", "cpu_ns", "self_cpu_ns", "items",
                 "empty")

    def __init__(self):
        self.calls = 0
        self.wall_ns = 0
        self.cpu_ns = 0
        #: CPU time minus that of the wrapped calls made inside.
        self.self_cpu_ns = 0
        self.items = 0
        #: Calls whose item count was zero (e.g. a receive that got nothing).
        self.empty = 0

    def merge(self, other: "Totals") -> None:
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))

    def as_dict(self) -> dict:
        return {field: getattr(self, field) for field in self.__slots__}


class _Frame:
    __slots__ = ("span_id", "child_cpu", "child_items")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_cpu = 0
        self.child_items = 0


class _ThreadState:
    """One thread's span stack and per-name totals."""

    def __init__(self, index: int):
        self.index = index
        self.stack: List[_Frame] = []
        self.next_id = 0
        self.totals: Dict[str, Totals] = {}


class Tracer:
    """Installs the wrappers, collects spans, reports per-name totals."""

    def __init__(self):
        self._local = threading.local()
        self._states_lock = threading.Lock()
        self._states: List[_ThreadState] = []
        #: Kept spans: (thread, id, parent id or -1, name, start ns,
        #: end ns, self cpu ns).
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: (owner, attribute, replaced object; None for an instance
        #: override, which ``uninstall`` deletes).
        self._installed: List[tuple] = []

    # -- installing ---------------------------------------------------------

    def install(self, instances=()) -> None:
        """Wrap every point in :data:`POINTS`, and the data-interface
        methods of each object in ``instances``."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for (owner, attr), point in zip(static_targets(), POINTS):
            name, count = point[3], point[4]
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, count))
            else:
                wrapped = self.wrap(raw, name, count)
            self._installed.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        for instance in instances:
            for attr, name, count in INSTANCE_POINTS:
                bound = getattr(instance, attr, None)
                if bound is None:
                    continue
                self._installed.append((instance, attr, None))
                setattr(instance, attr, self.wrap(bound, name, count))

    def uninstall(self) -> None:
        """Put back every object ``install`` replaced."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            if raw is None:
                delattr(owner, attr)  # instance override: class method shows
            else:
                setattr(owner, attr, raw)

    # -- spans --------------------------------------------------------------

    def _new_state(self) -> _ThreadState:
        with self._states_lock:
            state = _ThreadState(len(self._states))
            self._states.append(state)
        self._local.state = state
        return state

    def wrap(self, fn: Callable, name: str, count=None) -> Callable:
        """A function that runs ``fn`` inside a span called ``name``.

        A call that ends in an exception (a channel ``get`` that timed
        out, say) is recorded as ``<name>.raised``, apart from the calls
        that did their work.
        """
        tracer = self
        local = self._local
        raised = name + ".raised"

        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or tracer._new_state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = _Frame(state.next_id)
            state.next_id += 1
            stack.append(frame)
            # CPU clock outside the wall clock: a span's wait (wall - cpu)
            # then never absorbs the cost of reading the CPU clock.
            start_cpu = thread_time_ns()
            start_wall = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._finish(state, frame, parent, raised, start_wall,
                               start_cpu, None)
                raise
            items = (
                count(args, result, frame.child_items)
                if count is not None else None
            )
            tracer._finish(state, frame, parent, name, start_wall, start_cpu,
                           items)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _finish(self, state, frame, parent, name, start_wall, start_cpu,
                items) -> None:
        end_wall = perf_counter_ns()
        cpu = thread_time_ns() - start_cpu
        wall = end_wall - start_wall
        state.stack.pop()
        self_cpu = cpu - frame.child_cpu
        if parent is not None:
            parent.child_cpu += cpu
            if items:
                parent.child_items += items
        # Only this thread writes its totals; ``take`` swaps the dict
        # whole, so at worst a span finishing during the swap is lost.
        totals = state.totals.get(name)
        if totals is None:
            totals = state.totals[name] = Totals()
        totals.calls += 1
        totals.wall_ns += wall
        totals.cpu_ns += cpu
        totals.self_cpu_ns += self_cpu
        if items is not None:
            totals.items += items
            if items == 0:
                totals.empty += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((
                state.index, frame.span_id,
                parent.span_id if parent is not None else -1,
                name, start_wall, end_wall, self_cpu,
            ))
        else:
            self.spans_dropped += 1

    # -- results ------------------------------------------------------------

    def take(self) -> Dict[str, Totals]:
        """Per-name totals of spans finished since the last ``take``."""
        merged: Dict[str, Totals] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            totals, state.totals = state.totals, {}
            for name, part in totals.items():
                merged.setdefault(name, Totals()).merge(part)
        return merged

    def write(self, path: str, header: Optional[dict] = None) -> None:
        """Write the kept spans (and ``header``) as one JSON document."""
        spans = list(self.spans)
        names = sorted({span[3] for span in spans})
        index = {name: i for i, name in enumerate(names)}
        document = {
            "header": header or {},
            "span_fields": ["thread", "id", "parent", "name", "start_ns",
                            "end_ns", "self_cpu_ns"],
            "names": names,
            "spans": [
                [t, i, p, index[n], s, e, c] for t, i, p, n, s, e, c in spans
            ],
            "spans_dropped": self.spans_dropped,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))

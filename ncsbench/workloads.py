"""The benchmark's workloads: node set-up, closed-loop traffic, checking.

Every workload drives a live node pair in this one process through the
library's public API only: ``Node``, ``Node.connect``/``accept``,
``Connection.send``/``recv`` and ``SendHandle.wait``.  Payloads come
from the workload seed and are generated before any timing starts;
each one carries its sequence number in its first eight bytes, and
every delivery is compared byte for byte with what was sent, so a
corrupted, reordered, duplicated or missing message is a failure.

Why each workload exists (see ``README.md`` in this directory):

* ``rpc-1k`` - fixed per-message costs: one SDU, one ACK and one credit
  PDU per message, an event-loop dispatch per hop.
* ``stream-1m`` - per-byte costs: 256 SDUs per message through
  segmentation, the codec, credit flow control and reassembly.
* ``mixed`` - both at once on the threaded plane over HPI, sharing the
  control plane, the interpreter lock and the loopback condition.  Both
  loops there are paced, so the round trips measure what bulk traffic
  costs them rather than a saturated interpreter lock.
"""

from __future__ import annotations

import random
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro import ConnectionConfig, Node, NodeConfig

RPC_BYTES = 1024
STREAM_BYTES = 1 << 20  # 256 SDUs at the default 4 KB SDU size
#: Messages a stream keeps outstanding.
STREAM_WINDOW = 4
#: Longest any single receive or completion wait may take before the
#: operation counts as failed.
OP_TIMEOUT = 30.0
#: Distinct seeded bodies per payload kind; the sequence number in each
#: message's header keeps every message distinct anyway.
RPC_POOL = 64
STREAM_POOL = 8

_SEQ = struct.Struct(">Q")


@dataclass(frozen=True)
class Workload:
    name: str
    data_plane: str
    interface: str
    #: Loop kinds, one connection (and one load thread) each.
    loops: Tuple[str, ...]
    #: Loop kind -> most messages per second it starts.  A kind not
    #: named here sends as fast as its messages complete.
    rates: Dict[str, float] = field(default_factory=dict)


WORKLOADS = {
    "rpc-1k": Workload("rpc-1k", "event", "sci", ("rpc",)),
    "stream-1m": Workload("stream-1m", "event", "sci", ("stream",)),
    # About 40 % of the bytes the threaded plane moves over HPI when
    # nothing paces the stream, and a request every 4 ms beside them.
    "mixed": Workload("mixed", "threaded", "hpi", ("stream", "rpc"),
                      rates={"stream": 32, "rpc": 250}),
}


class Payloads:
    """Seeded message bodies; message ``seq`` is its header + a body."""

    def __init__(self, seed: str, size: int, pool: int):
        rng = random.Random(seed)
        self.size = size
        self._bodies = [rng.randbytes(size - _SEQ.size) for _ in range(pool)]

    def message(self, seq: int) -> bytes:
        return _SEQ.pack(seq) + self._bodies[seq % len(self._bodies)]

    def matches(self, seq: int, data) -> bool:
        """True when ``data`` is exactly message ``seq``."""
        return (
            isinstance(data, bytes)
            and len(data) == self.size
            and data.startswith(_SEQ.pack(seq))
            and data.endswith(self._bodies[seq % len(self._bodies)])
        )


class _Loop:
    """Counters and pacing shared by both loop kinds (each loop has one
    thread).

    Paced (``rate`` given), a loop starts a message no sooner than
    ``1 / rate`` seconds after it started the previous one.  A message
    that is late is not made up for, so a stall never turns into a
    burst of catch-up traffic.
    """

    def __init__(self, client, server, payloads: Payloads,
                 rate: Optional[float] = None):
        self.client = client
        self.server = server
        self.payloads = payloads
        self.seq = 0
        self.attempted = 0
        self.failed = 0
        #: Verified deliveries and their payload bytes.
        self.delivered = 0
        self.delivered_bytes = 0
        #: Round-trip samples in nanoseconds.
        self.rtts: List[int] = []
        self.errors: List[str] = []
        #: Set after a timeout or exception: the loop stops, because the
        #: connection can no longer be trusted to line up with ``seq``.
        self.broken = False
        self._interval = 1.0 / rate if rate else 0.0
        #: When the next message may start (paced only).
        self._due = 0.0

    def _fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(what)

    def _verify(self, seq: int, data) -> bool:
        if data is None:
            raise TimeoutError(f"message {seq} not delivered in {OP_TIMEOUT}s")
        if not self.payloads.matches(seq, data):
            self._fail(f"message {seq}: delivered bytes differ from sent")
            return False
        return True

    def _count_ok(self, nbytes: int) -> None:
        self.delivered += 1
        self.delivered_bytes += nbytes

    def run_until(self, deadline: float) -> None:
        while not self.broken and perf_counter() < deadline:
            try:
                self.step()
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                self.broken = True
                self._fail(f"{type(exc).__name__}: {exc}", self.unsettled())

    def _started(self) -> None:
        """Note that a message was started now."""
        if self._interval:
            self._due = perf_counter() + self._interval

    def _wait_due(self) -> None:
        if self._interval:
            time.sleep(max(0.0, self._due - perf_counter()))

    def drain(self) -> None:
        """Finish whatever is still in flight (no new sends)."""

    def unsettled(self) -> int:
        return 0


class RpcLoop(_Loop):
    """One thread plays both ends: request, receive, echo, receive reply.

    The round trip is timed from the request's send to the reply,
    stamped before the reply is checked; both send handles must then
    complete before the next request (a closed loop with one request
    outstanding).
    """

    def __init__(self, client, server, payloads: Payloads,
                 tamper: Optional[Callable[[bytes], bytes]] = None,
                 rate: Optional[float] = None):
        super().__init__(client, server, payloads, rate)
        #: Test hook: rewrites the echo before the server sends it.
        self.tamper = tamper
        self._pending = 0

    def step(self) -> None:
        seq = self.seq
        self.seq += 1
        message = self.payloads.message(seq)
        self._wait_due()
        start = perf_counter_ns()
        self._started()
        self.attempted += 1
        self._pending = 1
        request_handle = self.client.send(message)
        request = self.server.recv(timeout=OP_TIMEOUT)
        request_ok = self._verify(seq, request)
        if not request_ok:
            self._pending -= 1
        reply = request if self.tamper is None else self.tamper(request)
        self.attempted += 1
        self._pending += 1
        reply_handle = self.server.send(reply)
        echoed = self.client.recv(timeout=OP_TIMEOUT)
        end = perf_counter_ns()
        reply_ok = self._verify(seq, echoed)
        if not reply_ok:
            self._pending -= 1
        for handle in (request_handle, reply_handle):
            if not handle.wait(OP_TIMEOUT):
                raise TimeoutError(f"send of message {seq} not acknowledged")
        self._pending = 0
        if request_ok:
            self._count_ok(len(request))
        if reply_ok:
            self._count_ok(len(echoed))
            self.rtts.append(end - start)

    def unsettled(self) -> int:
        return self._pending


class StreamLoop(_Loop):
    """One thread keeps up to ``STREAM_WINDOW`` messages outstanding and
    receives them, in order, at the peer; unpaced, it sends whenever
    fewer are outstanding.

    The round trip of a message is its send to its handle's completion
    (the peer's all-clear acknowledgment), stamped before the delivery
    is checked.  Unpaced, with three messages ahead of it, that is
    mostly their transfer time, so it tracks goodput.
    """

    def __init__(self, client, server, payloads: Payloads,
                 rate: Optional[float] = None):
        super().__init__(client, server, payloads, rate)
        self._inflight: deque = deque()
        #: 1 while a popped message is received but not yet judged.
        self._current = 0

    def _fill(self) -> None:
        while (len(self._inflight) < STREAM_WINDOW
               and perf_counter() >= self._due):
            seq = self.seq
            self.seq += 1
            self.attempted += 1
            start = perf_counter_ns()
            self._started()
            handle = self.client.send(self.payloads.message(seq))
            self._inflight.append((seq, handle, start))

    def _complete_one(self) -> None:
        seq, handle, start = self._inflight.popleft()
        self._current = 1
        data = self.server.recv(timeout=OP_TIMEOUT)
        acked = data is not None and handle.wait(OP_TIMEOUT)
        end = perf_counter_ns()
        ok = self._verify(seq, data)
        if not ok:
            self._current = 0
        if not acked:
            raise TimeoutError(f"send of message {seq} not acknowledged")
        self._current = 0
        if ok:
            self._count_ok(len(data))
            self.rtts.append(end - start)

    def step(self) -> None:
        self._fill()
        if self._inflight:
            self._complete_one()
        else:
            self._wait_due()

    def drain(self) -> None:
        while self._inflight and not self.broken:
            try:
                self._complete_one()
            except Exception as exc:  # noqa: BLE001 - recorded as a failure
                self.broken = True
                self._fail(f"{type(exc).__name__}: {exc}", self.unsettled())

    def unsettled(self) -> int:
        return len(self._inflight) + self._current


class Session:
    """One node pair with the workload's connections, first round trip
    done.  Constructing it is what ``setup_s`` measures."""

    def __init__(self, workload: Workload, tag: str, seed: int):
        self.workload = workload
        self.nodes: List[Node] = []
        #: (client end, server end) per connection, in ``loops`` order.
        self.pairs: List[tuple] = []
        self.probes: List[RpcLoop] = []
        try:
            for role in ("client", "server"):
                self.nodes.append(Node(NodeConfig(
                    name=f"{workload.name}-{role}-{tag}",
                    data_plane=workload.data_plane,
                )))
            client_node, server_node = self.nodes
            config = ConnectionConfig(interface=workload.interface)
            for _ in workload.loops:
                client = client_node.connect(
                    server_node.address, config, peer_name=server_node.name
                )
                server = server_node.accept(timeout=OP_TIMEOUT)
                if server is None:
                    raise TimeoutError("connection not accepted")
                self.pairs.append((client, server))
            probe_payloads = Payloads(f"{seed}:probe", RPC_BYTES, 1)
            for client, server in self.pairs:
                probe = RpcLoop(client, server, probe_payloads)
                self.probes.append(probe)
                probe.step()
        except BaseException:
            self.close()
            raise

    def data_interfaces(self) -> list:
        return [end.interface for pair in self.pairs for end in pair]

    def connections(self) -> list:
        return [end for pair in self.pairs for end in pair]

    def event_loops(self) -> list:
        if self.workload.data_plane != "event":
            return []
        return [node.event_loop() for node in self.nodes]

    def close(self) -> None:
        for node in self.nodes:
            node.close()


def make_loops(session: Session, seed: int,
               tamper: Optional[Callable[[bytes], bytes]] = None) -> list:
    """The workload's traffic loops over the session's connections."""
    loops = []
    for kind, (client, server) in zip(session.workload.loops, session.pairs):
        rate = session.workload.rates.get(kind)
        if kind == "rpc":
            payloads = Payloads(f"{seed}:rpc", RPC_BYTES, RPC_POOL)
            loops.append(RpcLoop(client, server, payloads, tamper, rate))
        else:
            payloads = Payloads(f"{seed}:stream", STREAM_BYTES, STREAM_POOL)
            loops.append(StreamLoop(client, server, payloads, rate))
    return loops


def start_loops(loops: list, deadline: float) -> list:
    """Start one load thread per loop, each running until ``deadline``."""
    threads = [
        threading.Thread(target=loop.run_until, args=(deadline,),
                         name=f"load-{index}", daemon=True)
        for index, loop in enumerate(loops)
    ]
    for thread in threads:
        thread.start()
    return threads


def join_loops(threads: list, deadline: float) -> None:
    for thread in threads:
        # Every operation in a loop is bounded by OP_TIMEOUT.
        thread.join(max(0.0, deadline - perf_counter()) + 4 * OP_TIMEOUT)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not stop")


def run_loops(loops: list, deadline: float) -> None:
    """Run every loop until ``deadline``, one load thread per loop."""
    join_loops(start_loops(loops, deadline), deadline)

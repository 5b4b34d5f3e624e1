"""One benchmark run: set-ups, then traffic and idle phases.

A run opens ``TRAFFIC_SESSIONS`` node-pair sessions in turn, each
carrying an equal slice of ``seconds``: warm-up, measured traffic, then
an idle phase with the connections open.  Before each of them it builds
and closes ``SETUP_REPEATS`` more sessions that carry no traffic.  Every
session's set-up is timed, and ``setup_s`` is the lower quartile of
those times.

An untraced run (``trace=False``) measures the end-to-end metrics and
never touches the library.  A traced run measures the per-layer
metrics: each traffic slice is an untraced window followed by a traced
one of equal length, so the CPU cost per KB of the two sides gives the
tracer's own overhead, and the per-layer totals come from the traced
windows only.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional

from repro.bench.persist import git_sha

from ncsbench.tracer import Totals, Tracer
from ncsbench.workloads import (
    WORKLOADS,
    Session,
    join_loops,
    make_loops,
    run_loops,
    start_loops,
)

#: Sessions each carrying an equal slice of the traffic and of the
#: idle phase: some costs, idle CPU most of all, settle differently from
#: one node pair to the next, so one pair per run would turn that
#: difference into run-to-run noise.
TRAFFIC_SESSIONS = 16
#: Sessions built and closed again before each traffic session.  A
#: set-up takes milliseconds, but a burst of hypervisor steal stretches
#: it several times, so ``setup_s`` is the lower quartile of many,
#: spread over the whole run rather than bunched at its start.
SETUP_REPEATS = 1
#: Share of a session's slice of ``seconds`` spent on traffic; the rest
#: is its idle phase.  A traced run splits the traffic into an untraced
#: and a traced window of equal length.
TRAFFIC_SHARE = 0.8
#: Traffic before any measurement, on top of ``seconds``: credit
#: allotments grow, lazy state fills.
WARMUP_SHARE = 0.2
#: Traffic and idle figures come from the sub-windows ``quietest``
#: picks.  Short sub-windows let it find the gaps between bursts of
#: steal even when the host steals a quarter of the run.
SUB_WINDOW_S = 0.05
#: ``quietest`` keeps the sub-windows whose steal is at or below this
#: quantile of the run's sub-window steal.
QUIET_QUANTILE = 0.1

KB = 1000
MB = 1_000_000


@dataclass
class Window:
    """What the traffic loops did between two instants."""

    wall: float = 0.0
    cpu: float = 0.0
    delivered: int = 0
    delivered_bytes: int = 0
    rtts: List[int] = field(default_factory=list)
    #: Hypervisor steal seconds, of the CPUs the run may use, during
    #: the window.
    steal: float = 0.0

    def add(self, other: "Window") -> None:
        self.steal += other.steal
        self.wall += other.wall
        self.cpu += other.cpu
        self.delivered += other.delivered
        self.delivered_bytes += other.delivered_bytes
        self.rtts.extend(other.rtts)

    def cpu_us_per_kb(self) -> float:
        return self.cpu * 1e6 / max(self.delivered_bytes / KB, 1e-9)

    def goodput_mbps(self) -> float:
        return self.delivered_bytes / max(self.wall, 1e-9) / MB


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: name -> value, in the units ``BENCHMARK.json`` declares.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Printed for a reader, not compared between runs.
    notes: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]; 0 without samples
    (only a run whose loops broke has none, and that run has failed)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def steal_seconds() -> float:
    """Hypervisor steal time so far (``/proc/stat``) of the CPUs the
    calling thread may run on."""
    names = {f"cpu{cpu}" for cpu in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if fields and fields[0] in names and len(fields) > 8:
                    ticks += int(fields[8])
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def _mark(loops: list, rtt_loop) -> tuple:
    return (
        perf_counter(), process_time(),
        sum(loop.delivered for loop in loops),
        sum(loop.delivered_bytes for loop in loops),
        len(rtt_loop.rtts),
        steal_seconds(),
    )


def _measure(loops: list, seconds: float, rtt_loop) -> List[Window]:
    """Run the loops for ``seconds``; one :class:`Window` per sub-window.

    The main thread only samples counters at sub-window boundaries; the
    loops run on their own load threads throughout.
    """
    start = perf_counter()
    deadline = start + seconds
    threads = start_loops(loops, deadline)
    windows = []
    count = max(1, round(seconds / SUB_WINDOW_S))
    try:
        mark = _mark(loops, rtt_loop)
        for index in range(1, count + 1):
            boundary = start + seconds * index / count
            time.sleep(max(0.0, boundary - perf_counter()))
            now = _mark(loops, rtt_loop)
            windows.append(Window(
                wall=now[0] - mark[0],
                cpu=now[1] - mark[1],
                delivered=now[2] - mark[2],
                delivered_bytes=now[3] - mark[3],
                rtts=rtt_loop.rtts[mark[4]:now[4]],
                steal=now[5] - mark[5],
            ))
            mark = now
    finally:
        join_loops(threads, deadline)
    return windows


def _total(windows: List[Window]) -> Window:
    total = Window()
    for window in windows:
        total.add(window)
    return total


def _idle(seconds: float) -> List[Window]:
    """Sub-windows of an idle phase: sleep, and see what the process burns."""
    windows = []
    count = max(1, round(seconds / SUB_WINDOW_S))
    for _ in range(count):
        wall0, cpu0, steal0 = perf_counter(), process_time(), steal_seconds()
        time.sleep(seconds / count)
        windows.append(Window(
            wall=perf_counter() - wall0,
            cpu=process_time() - cpu0,
            steal=steal_seconds() - steal0,
        ))
    return windows


def quietest(windows: List[Window]) -> List[Window]:
    """The ``windows`` whose steal is at or below the run's
    ``QUIET_QUANTILE`` of sub-window steal, in their original order.

    Steal is time the hypervisor ran someone else on this run's CPUs;
    it stretches every wall-clock figure without being the program's
    cost, and it comes in bursts, so the least-stolen sub-windows
    measure the program and not its neighbours.  Ties are all kept: on
    a quiet host most sub-windows show no steal, and then every session
    contributes rather than whichever came first.
    """
    limit = percentile([window.steal for window in windows], QUIET_QUANTILE)
    return [window for window in windows if window.steal <= limit]


#: Library counters read around each traced window; the connection
#: counters come from ``Connection.metrics_totals()``, the rest from
#: ``EventLoop.stats()``.
_CONN_COUNTERS = (
    "fc_tx_credit_stalls", "fc_tx_stall_seconds", "pressure_admission_waits",
)
_LOOP_COUNTERS = ("loops", "wakeups", "dispatches")


def _counters(session) -> Dict[str, float]:
    counts = dict.fromkeys(_CONN_COUNTERS + _LOOP_COUNTERS, 0.0)
    for connection in session.connections():
        totals = connection.metrics_totals()
        for key in _CONN_COUNTERS:
            counts[key] += totals.get(key, 0)
    for loop in session.event_loops():
        stats = loop.stats()
        counts["loops"] += stats["loops"]
        counts["wakeups"] += stats["wakeups"]
        counts["dispatches"] += (
            stats["read_dispatches"] + stats["write_dispatches"]
            + stats["queue_dispatches"]
        )
    return counts


def _traced_traffic(session, loops, seconds, rtt_loop, tracer) -> tuple:
    """An untraced then a traced window, ``seconds`` in all.

    Returns the untraced and traced :class:`Window` totals, the span
    totals of the traced window, and the library counters' deltas over
    the traced window.
    """
    plain = _total(_measure(loops, seconds / 2, rtt_loop))
    before = _counters(session)
    tracer.install(instances=session.data_interfaces())
    tracer.take()  # drop spans that straddled the switch
    try:
        traced = _total(_measure(loops, seconds / 2, rtt_loop))
    finally:
        tracer.uninstall()
    after = _counters(session)
    deltas = {key: after[key] - before[key] for key in after}
    return plain, traced, tracer.take(), deltas


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tamper: Optional[Callable[[bytes], bytes]] = None,
        trace_path: Optional[str] = None) -> Result:
    """Run one workload; see the module docstring for the phases."""
    workload = WORKLOADS[workload_name]
    result = Result()
    steal0 = steal_seconds()
    tracer = Tracer() if trace else None
    share = seconds / TRAFFIC_SESSIONS
    traffic_s = share * TRAFFIC_SHARE

    setup_times = []
    all_loops = []
    measured: List[Window] = []
    idle: List[Window] = []
    plain, traced = Window(), Window()
    traced_totals: Dict[str, Totals] = {}
    counters = dict.fromkeys(_CONN_COUNTERS + _LOOP_COUNTERS, 0.0)
    setup_totals: Dict[str, Totals] = {}
    session = None

    def open_session(tag: str) -> Session:
        start = perf_counter()
        opened = Session(workload, f"{seed}-{tag}", seed)
        setup_times.append(perf_counter() - start)
        all_loops.extend(opened.probes)
        return opened

    try:
        for index in range(TRAFFIC_SESSIONS):
            # Set-ups without traffic; a traced run times the node
            # calls in them (connect, accept, close).
            if tracer is not None:
                tracer.install()
            try:
                for repeat in range(SETUP_REPEATS):
                    open_session(f"{index}.{repeat}").close()
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    for name, totals in tracer.take().items():
                        setup_totals.setdefault(name, Totals()).merge(totals)

            session = open_session(str(index))
            loops = make_loops(session, seed, tamper)
            all_loops.extend(loops)
            rtt_loop = next(
                (loop for kind, loop in zip(workload.loops, loops)
                 if kind == "rpc"),
                loops[0],
            )
            run_loops(loops, perf_counter() + share * WARMUP_SHARE)
            if tracer is None:
                measured.extend(_measure(loops, traffic_s, rtt_loop))
            else:
                plain_part, traced_part, totals_part, deltas = (
                    _traced_traffic(session, loops, traffic_s, rtt_loop,
                                    tracer)
                )
                plain.add(plain_part)
                traced.add(traced_part)
                for name, totals in totals_part.items():
                    traced_totals.setdefault(name, Totals()).merge(totals)
                for key, value in deltas.items():
                    counters[key] += value
            for loop in loops:
                loop.drain()
            # The idle phase: connections open, no traffic.
            idle.extend(_idle(share - traffic_s))
            session.close()
            session = None
    finally:
        if session is not None:
            session.close()

    for loop in all_loops:
        result.attempted += loop.attempted
        result.failed += loop.failed
        result.errors.extend(loop.errors)
    steal = steal_seconds() - steal0

    if tracer is None:
        # A sub-window without a round trip can only follow a failure.
        usable = [window for window in measured if window.rtts]
        timed = quietest(usable)
        quiet_idle = _total(quietest(idle))
        all_rtts_us = [ns / 1e3 for ns in _total(measured).rtts]

        def median_of(value) -> float:
            return statistics.median(value(window) for window in timed) \
                if timed else 0.0

        result.metrics = {
            "setup_s": percentile(setup_times, 0.25),
            "rtt_p50_us": median_of(lambda w: percentile(w.rtts, 0.50) / 1e3),
            "rtt_p90_us": median_of(lambda w: percentile(w.rtts, 0.90) / 1e3),
            # Pooled: a sub-window holds a few whole messages of a
            # stream, too few for a per-window rate to be smooth.
            "goodput_MBps": _total(timed).goodput_mbps(),
            "cpu_us_per_KB": _total(timed).cpu_us_per_kb(),
            # Pooled, not a median: each node pair settles at its own
            # idle level, and a median would jump between those levels.
            "idle_cpu_pct": quiet_idle.cpu / quiet_idle.wall * 100,
        }
        result.notes = {
            "rtt_p99_us": percentile(all_rtts_us, 0.99),
            "rtt_samples": len(all_rtts_us),
            "sub_windows_used": len(timed),
            "sub_windows": len(measured),
            "goodput_all_MBps": _total(measured).goodput_mbps(),
            "messages_per_s":
                _total(measured).delivered / _total(measured).wall,
            "error_rate": result.failed / max(result.attempted, 1),
        }
    else:
        overhead = (
            traced.cpu_us_per_kb() / plain.cpu_us_per_kb() - 1.0
        ) * 100
        result.metrics = layer_metrics(
            traced_totals, traced, counters, setup_totals, overhead, steal,
        )
        result.notes = {
            "traced_messages": traced.delivered,
            "untraced_cpu_us_per_KB": plain.cpu_us_per_kb(),
            "traced_cpu_us_per_KB": traced.cpu_us_per_kb(),
            "spans_kept": len(tracer.spans),
            "spans_dropped": tracer.spans_dropped,
            "error_rate": result.failed / max(result.attempted, 1),
        }
    result.provenance = {
        "git_sha": git_sha() or "unknown",
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "steal_s": round(steal, 3),
    }
    if tracer is not None and trace_path is not None:
        tracer.write(trace_path, header={
            "provenance": result.provenance,
            "totals": {
                name: totals.as_dict()
                for name, totals in sorted(traced_totals.items())
            },
        })
    return result


def layer_metrics(totals: Dict[str, Totals], traced: Window,
                  counters: Dict[str, float],
                  setup_totals: Dict[str, Totals], overhead_pct: float,
                  steal_s: float) -> Dict[str, float]:
    """Per-layer metrics, per delivered message unless the name says
    otherwise (``_s``, ``_frac``, ``_pct``, ``frames_per_send``)."""
    per_msg = 1.0 / max(traced.delivered, 1)
    zero = Totals()

    def get(*names) -> Totals:
        merged = Totals()
        for name in names:
            merged.merge(totals.get(name, zero))
        return merged

    def calls(*names) -> float:
        return get(*names).calls * per_msg

    def cpu_us(*names) -> float:
        return get(*names).self_cpu_ns / 1e3 * per_msg

    def wait_us(*names) -> float:
        # Whole calls: how long callers were blocked in them.  Clock
        # reading can leave a pure-CPU call a few ns below 0.
        part = get(*names)
        return max(0, part.wall_ns - part.cpu_ns) / 1e3 * per_msg

    def mean_wall_s(source: Dict[str, Totals], name: str) -> float:
        part = source.get(name, zero)
        return part.wall_ns / 1e9 / part.calls if part.calls else 0.0

    first_tx = get("errorcontrol.send").items
    retransmits = get("errorcontrol.on_control", "errorcontrol.on_timer").items
    sends = get("interfaces.send")
    recvs = get("interfaces.recv")
    reads = get("eventplane.dispatch.read")
    attributed = sum(part.self_cpu_ns for part in totals.values()) / 1e9
    return {
        "core.send.cpu_us": cpu_us("core.send"),
        "core.recv.wait_us": wait_us("core.recv"),
        "core.handle_wait.wait_us": wait_us("core.handle_wait"),
        "threadpkg.channel_put.calls": calls("threadpkg.channel_put"),
        "threadpkg.channel_get.calls": calls("threadpkg.channel_get"),
        "threadpkg.channel_get.wait_us": wait_us("threadpkg.channel_get"),
        "pressure.reserve.calls": calls("pressure.reserve"),
        "pressure.reserve.cpu_us": cpu_us("pressure.reserve"),
        "pressure.admission_waits":
            counters["pressure_admission_waits"] * per_msg,
        "errorcontrol.send.cpu_us": cpu_us("errorcontrol.send"),
        "errorcontrol.on_control.calls": calls("errorcontrol.on_control"),
        "errorcontrol.on_control.cpu_us": cpu_us("errorcontrol.on_control"),
        "errorcontrol.on_sdu.cpu_us": cpu_us("errorcontrol.on_sdu"),
        "errorcontrol.retransmits": retransmits * per_msg,
        "errorcontrol.useful_frac":
            first_tx / (first_tx + retransmits) if first_tx else 0.0,
        "protocol.sdus": get("protocol.segment").items * per_msg,
        "protocol.segment.cpu_us": cpu_us("protocol.segment"),
        "protocol.encode.cpu_us": cpu_us("protocol.encode"),
        "protocol.decode.cpu_us": cpu_us("protocol.decode"),
        "protocol.reassemble.cpu_us": cpu_us("protocol.reassemble"),
        "flowcontrol.pull.calls": calls("flowcontrol.pull"),
        "flowcontrol.pull.cpu_us": cpu_us("flowcontrol.pull"),
        "flowcontrol.on_control.calls": calls("flowcontrol.on_control"),
        "flowcontrol.rx_batch.cpu_us": cpu_us("flowcontrol.rx_batch"),
        "flowcontrol.stalls": counters["fc_tx_credit_stalls"] * per_msg,
        "flowcontrol.stall_frac":
            counters["fc_tx_stall_seconds"] / max(traced.wall, 1e-9),
        "interfaces.send.calls": sends.calls * per_msg,
        "interfaces.frames_per_send":
            sends.items / sends.calls if sends.calls else 0.0,
        "interfaces.send.cpu_us": cpu_us("interfaces.send"),
        "interfaces.recv.calls": recvs.calls * per_msg,
        "interfaces.recv.cpu_us": cpu_us("interfaces.recv"),
        "interfaces.recv.wait_us": wait_us("interfaces.recv"),
        "interfaces.recv.empty_frac":
            recvs.empty / recvs.calls if recvs.calls else 0.0,
        "eventplane.loops": counters["loops"] * per_msg,
        "eventplane.wakeups": counters["wakeups"] * per_msg,
        "eventplane.dispatches": counters["dispatches"] * per_msg,
        "eventplane.dispatch.cpu_us":
            cpu_us("eventplane.dispatch.read", "eventplane.dispatch.write"),
        "eventplane.dispatch.empty_frac":
            reads.empty / reads.calls if reads.calls else 0.0,
        "node.control_send.calls": calls("node.control_send"),
        "node.control_send.cpu_us": cpu_us("node.control_send"),
        "node.connect_s": mean_wall_s(setup_totals, "node.connect"),
        "node.accept_s": mean_wall_s(setup_totals, "node.accept"),
        "node.close_s": mean_wall_s(setup_totals, "node.close"),
        "obs.record.calls": calls("obs.record"),
        "obs.record.cpu_us": cpu_us("obs.record"),
        "trace.overhead_pct": overhead_pct,
        "trace.attributed_frac": attributed / max(traced.cpu, 1e-9),
        "run.steal_s": steal_s,
    }

"""The benchmark's own tests.  From the repository root:

    python3 -m pytest ncsbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from collections import deque

import pytest

from ncsbench import bench
from ncsbench import run as run_cli
from ncsbench.tracer import INSTANCE_POINTS, Tracer, static_targets
from ncsbench.workloads import RPC_BYTES, Payloads, RpcLoop, StreamLoop

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    SPEC = json.load(_spec)


def _cli(workload, trace, cwd=ROOT, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "ncsbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    # A malformed fault plan would fail set-up if run.py let NCS_*
    # variables through to the library.
    proc = _cli(workload, trace, env_extra={"NCS_FAULTS": "no such fault"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    declared = {entry["name"]: entry["unit"] for entry in section}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name in declared:
        assert f"  {name} " in proc.stdout  # the human-readable table too
    provenance = next(line for line in proc.stdout.splitlines()
                      if line.startswith("provenance "))
    assert len(json.loads(provenance.split(" ", 1)[1])["cpus"]) == 1
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_flipped_reply_byte_is_counted_as_a_failure():
    flipped = []

    def flip_first_reply(data):
        if flipped:
            return data
        flipped.append(True)
        damaged = bytearray(data)
        damaged[RPC_BYTES // 2] ^= 0x01
        return bytes(damaged)

    result = bench.run("rpc-1k", 7, 1, False,
                       tamper=flip_first_reply)
    assert flipped
    assert result.failed == 1
    assert not result.correct
    assert result.attempted > 2


def test_any_mismatch_makes_the_command_exit_nonzero(monkeypatch, capsys):
    real_run = bench.run

    def tampering_run(*args, **kwargs):
        return real_run(*args, tamper=lambda data: data[:-1] + b"?", **kwargs)

    monkeypatch.setattr(bench, "run", tampering_run)
    code = run_cli.main(["--workload", "rpc-1k", "--seed", "7",
                         "--seconds", "1", "--trace", "0"])
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_payload_check_catches_flips_reorders_and_truncation():
    payloads = Payloads("7:rpc", RPC_BYTES, 4)
    message = payloads.message(5)
    assert len(message) == RPC_BYTES and payloads.matches(5, message)
    damaged = bytearray(message)
    damaged[600] ^= 0x80
    assert not payloads.matches(5, bytes(damaged))
    assert not payloads.matches(6, message)  # reordered or duplicated
    assert not payloads.matches(5, message[:-1])
    assert not payloads.matches(5, None)
    assert Payloads("7:rpc", RPC_BYTES, 4).message(5) == message
    assert Payloads("8:rpc", RPC_BYTES, 4).message(5) != message


def test_quiet_sub_windows_keep_every_session_when_none_is_stolen():
    # Three sub-windows from each of eight sessions, none with steal.
    windows = [bench.Window(steal=0.0, rtts=[session])
               for session in range(8) for _ in range(3)]
    kept = bench.quietest(windows)
    assert {window.rtts[0] for window in kept} == set(range(8))
    stolen = windows[5]
    stolen.steal = 0.2
    assert all(window is not stolen for window in bench.quietest(windows))
    assert len(bench.quietest(windows)) == len(windows) - 1


class _Done:
    def wait(self, timeout=None):
        return True


class _End:
    """One end of an in-memory connection that delivers at once."""

    def __init__(self):
        self.inbox = deque()
        self.peer = None

    def send(self, data):
        self.peer.inbox.append(data)
        return _Done()

    def recv(self, timeout=None):
        return self.inbox.popleft() if self.inbox else None


def _ends():
    client, server = _End(), _End()
    client.peer, server.peer = server, client
    return client, server


@pytest.mark.parametrize("kind", [RpcLoop, StreamLoop])
def test_a_paced_loop_starts_no_more_than_its_rate(kind):
    seconds = 0.3
    counts = {}
    for rate in (100, None):
        loop = kind(*_ends(), Payloads("7:x", 64, 4), rate=rate)
        loop.run_until(time.perf_counter() + seconds)
        loop.drain()
        assert loop.failed == 0 and not loop.broken
        counts[rate] = loop.seq
    # One message at the start, then at most one per 1/rate seconds.
    assert 0.6 * seconds * 100 <= counts[100] <= seconds * 100 + 1
    assert counts[None] > 10 * counts[100]


def _library_objects():
    return [(owner, attr, vars(owner)[attr]) for owner, attr in static_targets()]


def _recording_sessions(monkeypatch):
    sessions = []

    class Recording(bench.Session):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(bench, "Session", Recording)
    return sessions


def _assert_untouched(before, sessions):
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
    assert sessions
    for session in sessions:
        for interface in session.data_interfaces():
            for attr, _, _ in INSTANCE_POINTS:
                assert attr not in vars(interface), attr


def test_untraced_run_installs_no_wrappers(monkeypatch):
    before = _library_objects()
    sessions = _recording_sessions(monkeypatch)

    def no_tracer(*args, **kwargs):
        raise AssertionError("an untraced run built a tracer")

    monkeypatch.setattr(bench, "Tracer", no_tracer)
    result = bench.run("rpc-1k", 7, 1, False)
    assert result.correct
    _assert_untouched(before, sessions)


def test_traced_run_restores_every_wrapped_attribute(monkeypatch, tmp_path):
    before = _library_objects()
    sessions = _recording_sessions(monkeypatch)
    result = bench.run("rpc-1k", 7, 1, True,
                       trace_path=str(tmp_path / "trace.json"))
    assert result.correct
    assert result.metrics["protocol.sdus"] == pytest.approx(1.0, rel=0.05)
    assert result.metrics["interfaces.frames_per_send"] >= 1.0
    _assert_untouched(before, sessions)
    with open(tmp_path / "trace.json") as handle:
        written = json.load(handle)
    assert written["spans"] and "protocol.segment" in written["names"]


def _busy(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_excludes_wrapped_children():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: _busy(0.002), "leaf")

    def parent_body():
        _busy(0.001)
        leaf()
        leaf()

    tracer.wrap(parent_body, "parent")()
    totals = tracer.take()
    parent, child = totals["parent"], totals["leaf"]
    assert child.calls == 2 and parent.calls == 1
    assert parent.self_cpu_ns == parent.cpu_ns - child.cpu_ns
    assert parent.cpu_ns >= child.cpu_ns
    assert child.self_cpu_ns >= 2 * 2_000_000
    assert 1_000_000 <= parent.self_cpu_ns < child.self_cpu_ns
    spans = {span[3]: span for span in tracer.spans}
    assert spans["parent"][2] == -1
    assert all(span[2] == spans["parent"][1]
               for span in tracer.spans if span[3] == "leaf")


def test_a_call_that_raises_is_recorded_apart():
    tracer = Tracer()
    failing = tracer.wrap(lambda: 1 / 0, "div")
    with pytest.raises(ZeroDivisionError):
        failing()
    assert set(tracer.take()) == {"div.raised"}


def test_without_library_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "ncsbench"), tmp_path / "ncsbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("rpc-1k", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

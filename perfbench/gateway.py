"""gateway_mix: open-loop HTTP load against one gateway process.

The gateway is ``repro.net.serve_forever`` in its own interpreter (a
child process of this one that ends when its standard input does),
backed by a ``ResultStore`` pre-seeded with real solves.  This process
runs two sender threads, each with its own keep-alive
``GatewayClient``, that send ``POST /v1/solve`` requests at their
scheduled times whether or not earlier ones were answered.  A request's
latency runs from its scheduled send time to its decoded result, so a
stall also charges the requests queued behind it.
"""

from __future__ import annotations

import json
import queue
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro import SolveSpec
from repro.net import GatewayClient
from repro.net.client import parse_metrics_text
from repro.serve import load_attempts, load_run_record
from repro.session import ResultStore, plan_entry

from perfbench import inputs
from perfbench.calibrate import Sampler
from perfbench.common import Outcome, array_digest, median, percentile, pressure_problem
from perfbench.tracing import CLIENT_HOOKS, SERVER_HOOKS, Recorder, install

BACKEND = "wse"
SPEC = SolveSpec.from_kwargs(engine="fused", preconditioner="jacobi", rel_tol=1e-5)
SENDERS = 2
RATE = 16.0
STORE_SIZE = 400
BOOT_TIMEOUT = 60.0
#: A request normally takes milliseconds; these bound a hung gateway.
REQUEST_TIMEOUT = 10.0
DEADLINE_SLACK = 30.0
#: Prefix of the gateway process's messages on its standard output.
MARK = "perfbench-gateway "
RUN_PY = Path(__file__).resolve().parent / "run.py"


def _target(member: inputs.Member):
    name, params = member
    return repro.scenario(name, **dict(params))


def warm_up_target(index: int):
    """A tiny input outside every measured set (one per gateway boot)."""
    return repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=2, seed=index + 1)


# -- the gateway process --------------------------------------------------------


def _say(kind: str, payload: dict[str, Any]) -> None:
    print(MARK + json.dumps({kind: payload}, default=str), flush=True)


def child_main(store: str, records: str, traced: bool) -> int:
    """Gateway process entry: hooks first when traced, then serve_forever.

    Orders arrive on standard input, one a line: ``reset`` marks the end
    of the warm-up (spans recorded before it are dropped, so the
    per-layer figures cover measured requests only), and the end of
    input stops the gateway, so it never outlives the process that
    started it.  The address and the final report go to standard output
    as ``MARK`` lines.
    """
    from repro.net import serve_forever

    recorder = Recorder()
    if traced:
        install(SERVER_HOOKS, recorder)
    stop = threading.Event()

    def follow_orders() -> None:
        for line in sys.stdin:
            if line.strip() == "reset":
                recorder.spans.clear()
        stop.set()

    threading.Thread(target=follow_orders, daemon=True).start()
    stats = serve_forever(
        store=store, records=records, run_id="gateway",
        ready=lambda info: _say("ready", info), stop=stop,
    )
    _say("report", {
        "stats": stats,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": recorder.summary(),
        "missing": recorder.missing,
    })
    return 0


class GatewayProcess:
    """One gateway child process: boot, address, reset marker, clean
    shutdown.  Closing its standard input stops it; :meth:`close` then
    waits for it to end (killing it if it hangs)."""

    def __init__(self, store: Path, records: Path, traced: bool):
        self._command = [
            sys.executable, str(RUN_PY), "--gateway-child", str(store), str(records),
            "--trace", str(int(traced)),
        ]
        self.process: subprocess.Popen | None = None
        self._messages: queue.Queue[dict[str, Any] | None] = queue.Queue()
        self._reader: threading.Thread | None = None
        self.records = records / "gateway"
        self.info: dict[str, Any] = {}

    def _read(self) -> None:
        for line in self.process.stdout:
            if line.startswith(MARK):
                self._messages.put(json.loads(line[len(MARK):]))
        self._messages.put(None)  # the gateway closed its output

    def _message(self, kind: str) -> dict[str, Any]:
        message = self._messages.get(timeout=BOOT_TIMEOUT)
        if message is None or kind not in message:
            raise RuntimeError(f"the gateway process ended without its {kind} message")
        return message[kind]

    def start(self) -> dict[str, Any]:
        self.process = subprocess.Popen(
            self._command, cwd=RUN_PY.parent.parent, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, name="gateway-output", daemon=True)
        self._reader.start()
        self.info = self._message("ready")
        return self.info

    def client(self) -> GatewayClient:
        return GatewayClient(self.info["host"], self.info["port"], timeout=REQUEST_TIMEOUT)

    def reset(self) -> None:
        self.process.stdin.write("reset\n")
        self.process.stdin.flush()

    def close(self) -> dict[str, Any]:
        """Stop the gateway and wait for it; returns its final report."""
        if self.process is None:
            return {}
        try:
            self.process.stdin.close()
        except OSError:  # the gateway already died
            pass
        try:
            report = self._message("report")
        except (queue.Empty, RuntimeError):
            report = {}
        try:
            self.process.wait(timeout=BOOT_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self._reader.join()
        self.process.stdout.close()
        return report


def boot(store: Path, records: Path, traced: bool, warm_index: int):
    """Boot a gateway and make its warm-up call; returns (gateway, seconds)."""
    start = time.perf_counter()
    gateway = GatewayProcess(store, records, traced)
    try:
        gateway.start()
        client = gateway.client()
        try:
            client.solve(warm_up_target(warm_index), backend=BACKEND, spec=SPEC)
        finally:
            client.close()
    except BaseException:
        gateway.close()
        raise
    return gateway, time.perf_counter() - start


def preseed(plan: inputs.GatewayPlan, directory: Path) -> float:
    """Fill a store with real solves of every pre-seeded key."""
    start = time.perf_counter()
    store = ResultStore(directory)
    for key in plan.store_keys:
        target = _target(plan.member(key))
        result = repro.solve(target, backend=BACKEND, spec=SPEC)
        store.save(plan_entry(target, SPEC, BACKEND), result)
    return time.perf_counter() - start


# -- the load generator ---------------------------------------------------------


@dataclass
class Sent:
    index: int
    latency: float  # scheduled send time to decoded result (inf if failed)
    conn_wait: float  # due, but every connection was busy
    late: float  # the idle sender woke up after the due time
    error: str | None = None
    digest: str | None = None
    pressure: np.ndarray | None = None
    iterations: int = 0
    converged: bool = False


def _send(
    gateway: GatewayProcess, plan: inputs.GatewayPlan, sampler: Sampler
) -> tuple[list[Sent], float, float]:
    """Run the schedule; returns (per-request records, start, end).

    While the senders run, this thread takes a calibration sample about
    once a second.  Requests still unsent ``DEADLINE_SLACK`` seconds
    after the last due time count as failed."""
    requests = plan.requests
    sent: list[Sent | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    deadline = start + requests[-1].due + DEADLINE_SLACK

    def sender() -> None:
        client = gateway.client()
        try:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests) or time.perf_counter() > deadline:
                    return
                due = start + requests[i].due
                now = time.perf_counter()
                idle = now < due
                if idle:
                    time.sleep(due - now)
                began = time.perf_counter()
                record = Sent(
                    i, float("inf"),
                    conn_wait=0.0 if idle else began - due,
                    late=began - due if idle else 0.0,
                )
                try:
                    result = client.solve(
                        _target(plan.member(requests[i].key)), backend=BACKEND, spec=SPEC,
                    )
                except Exception as exc:  # noqa: BLE001 - a failed request
                    record.error = f"{type(exc).__name__}: {exc}"
                else:
                    record.latency = time.perf_counter() - due
                    record.pressure = result.pressure
                    record.iterations = int(result.iterations)
                    record.converged = bool(result.converged)
                    record.digest = array_digest(result.pressure) + (
                        f":{record.iterations}:{record.converged}"
                    )
                sent[i] = record
        finally:
            client.close()

    threads = [threading.Thread(target=sender, name=f"sender-{k}") for k in range(SENDERS)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        sampler.tick()
        threads[0].join(timeout=0.1)
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    return [
        s if s is not None else Sent(i, float("inf"), 0.0, 0.0, error="not sent by the deadline")
        for i, s in enumerate(sent)
    ], start, end


@dataclass
class Phase:
    sent: list[Sent]
    wall: float
    report: dict[str, Any]
    server_seconds: tuple[float, float]  # /v1/solve handler (sum, count)
    records: Path
    since: float  # wall-clock start of the schedule


def _phase(
    plan: inputs.GatewayPlan, root: Path, seed_store: Path, traced: bool,
    recorder: Recorder | None, sampler: Sampler,
) -> tuple[Phase, float]:
    """Copy the pre-seeded store, boot, warm up, run the schedule, stop."""
    store = root / "store"
    shutil.copytree(seed_store, store)
    gateway, boot_s = boot(store, root / "records", traced, warm_index=0)
    try:
        gateway.reset()
        hooks = install(CLIENT_HOOKS, recorder) if recorder is not None else None
        since = time.time()
        try:
            sent, start, end = _send(gateway, plan, sampler)
        finally:
            if hooks is not None:
                hooks.remove()
        client = gateway.client()
        try:
            values = parse_metrics_text(client.metrics())
        finally:
            client.close()
    finally:
        report = gateway.close()
    label = '{route="/v1/solve"}'
    server = (
        values.get(f"repro_http_request_seconds_sum{label}", 0.0),
        values.get(f"repro_http_request_seconds_count{label}", 0.0),
    )
    return Phase(sent, end - start, report, server, gateway.records, since), boot_s


def _check(plan: inputs.GatewayPlan, phase: Phase, outcome: Outcome,
           first: dict[int, Sent]) -> None:
    """Count failed requests: errors, bad pressures, changed answers."""
    requests = plan.requests
    for record in phase.sent:
        outcome.attempted += 1
        key = requests[record.index].key
        if record.error is not None:
            outcome.fail(f"request {record.index} (key {key}): {record.error}")
            continue
        problem = pressure_problem(record.pressure, plan.shape)
        if problem is not None:
            outcome.fail(f"request {record.index} (key {key}): {problem}")
            continue
        earlier = first.setdefault(key, record)
        if earlier.digest != record.digest:
            outcome.fail(
                f"request {record.index} (key {key}) answered differently than "
                f"request {earlier.index}"
            )


def _check_sample(plan: inputs.GatewayPlan, first: dict[int, Sent], outcome: Outcome) -> None:
    """Seeded sample: the gateway's answer equals an in-process solve."""
    for key in plan.sample:
        answer = first.get(key)
        if answer is None:
            continue
        local = repro.solve(_target(plan.member(key)), backend=BACKEND, spec=SPEC)
        if not (
            np.array_equal(local.pressure, answer.pressure)
            and local.iterations == answer.iterations
            and local.converged == answer.converged
        ):
            outcome.fail(f"key {key}: gateway answer differs from an in-process solve")


def _latencies(phase: Phase) -> list[float]:
    return [s.latency for s in phase.sent]


def _end_to_end(phase: Phase, slowdown: float = 1.0) -> dict[str, float]:
    """Latencies at the reference host speed (see calibrate); the rates
    follow the offered load, not the host, so they stay as measured."""
    ok = sum(1 for s in phase.sent if s.error is None)
    latencies = _latencies(phase)
    return {
        "solves_per_s": ok / phase.wall,
        "steps_per_s": ok / phase.wall,
        "req_latency_s_p50": percentile(latencies, 50) / slowdown,
        "req_latency_s_p99": percentile(latencies, 99) / slowdown,
    }


def _queue_waits(phase: Phase) -> list[float]:
    """Submit to attempt start, from the run's own durable records."""
    try:
        requests = load_run_record(phase.records)["requests"]
        attempts = load_attempts(phase.records)
    except (OSError, ValueError, KeyError):
        return []
    waits = []
    for line in attempts:
        record = requests.get(str(line.get("request_id")))
        if record is None or record["submitted_at"] < phase.since or line.get("attempt") != 1:
            continue
        lane = line.get("lane") or {}
        duration = line["elapsed_seconds"] * (lane.get("size", 1) if lane.get("fused") else 1)
        waits.append(line["ts"] - duration - record["submitted_at"])
    return waits


def _layer_metrics(phase: Phase, untraced: Phase, recorder: Recorder,
                   outcome: Outcome) -> dict[str, float]:
    server = phase.report.get("spans", {})
    client = recorder.summary()
    stats = phase.report.get("stats", {})
    n = max(len(phase.sent), 1)
    submitted = max(stats.get("submitted", 1) - 1, 1)  # minus the warm-up
    executed = max(stats.get("executed", 1) - 1, 0)

    def span(source: dict, name: str, key: str = "total_ms") -> float:
        return source.get(name, {}).get(key, 0.0)

    def per_call(source: dict, name: str) -> float:
        calls = span(source, name, "calls")
        return span(source, name) / calls if calls else 0.0

    waits = _queue_waits(phase)
    server_sum, server_count = phase.server_seconds
    latency_sum = sum(s.latency for s in phase.sent if s.error is None)
    named = (
        sum(s.conn_wait for s in phase.sent) + server_sum
        + (span(client, "net.client_decode") + span(client, "net.client_json")) / 1e3
    )
    metrics = {
        "net.server_ms": 1e3 * server_sum / server_count if server_count else 0.0,
        "net.decode_ms": span(server, "net.decode") / n,
        "net.encode_ms": span(server, "net.encode") / n,
        "net.response_kb": span(client, "net.client_json", "value") / 1e3 / n,
        "net.client_decode_ms": span(client, "net.client_decode") / n,
        "serve.submit_ms": per_call(server, "serve.submit"),
        "serve.hit_share.memory": stats.get("cache_hits_memory", 0) / submitted,
        "serve.hit_share.store": stats.get("cache_hits_store", 0) / submitted,
        "serve.dedup_share": stats.get("dedup_hits", 0) / submitted,
        "serve.executed_share": executed / submitted,
        "serve.queue_wait_ms": 1e3 * median(waits) if waits else 0.0,
        "session.store_save_ms": per_call(server, "session.store_save"),
        "session.store_load_ms": per_call(server, "session.store_load"),
        "backends.solve_ms": span(server, "backends.solve") / executed if executed else 0.0,
        "loadgen.conn_wait_ms_p99": 1e3 * percentile([s.conn_wait for s in phase.sent], 99),
        "loadgen.late_ms_p99": 1e3 * percentile([s.late for s in phase.sent], 99),
        "trace.other_share": max(0.0, 1.0 - named / latency_sum) if latency_sum else 0.0,
        "trace.overhead_share": (
            percentile(_latencies(phase), 50) / percentile(_latencies(untraced), 50) - 1.0
        ),
    }
    if not waits:
        outcome.notes["serve.queue_wait_ms"] = "run.json/attempts.jsonl held no attempts"
    missing = {**phase.report.get("missing", {}), **recorder.missing}
    for layer, names in LAYER_OF.items():
        source = client if layer.startswith("net.client") else server
        if layer in missing:
            reason = missing[layer]
        elif span(source, layer, "calls") == 0:
            reason = f"{layer} made no calls"
            outcome.fail(f"layer {layer} recorded no calls on gateway_mix")
        else:
            continue
        for metric in names:
            outcome.notes[metric] = reason
    return metrics


#: Every span the gateway workload reads, and the metrics each feeds;
#: all of them must record calls on every run.
LAYER_OF = {
    "net.decode": ("net.decode_ms",),
    "net.encode": ("net.encode_ms",),
    "net.client_json": ("net.response_kb",),
    "net.client_decode": ("net.client_decode_ms",),
    "serve.submit": ("serve.submit_ms",),
    "session.store_save": ("session.store_save_ms",),
    "session.store_load": ("session.store_load_ms",),
    "backends.solve": ("backends.solve_ms",),
}


def run(seed: int, seconds: float, trace: bool, scratch: Path, setup_s: list[float],
        import_s: float) -> Outcome:
    """Pre-seed, boot, measure and check one gateway_mix run.

    Appends the measured gateway's set-up (imports, boot, warm-up) to
    ``setup_s``.
    """
    outcome = Outcome()
    plan = inputs.gateway_plan(seed, seconds, rate=RATE, store_size=STORE_SIZE)
    seed_store = scratch / "seed-store"
    outcome.info["preseed_s"] = preseed(plan, seed_store)
    sampler = Sampler()
    phase, boot_s = _phase(plan, scratch / "untraced", seed_store, False, None, sampler)
    setup_s.append(import_s + boot_s)
    first: dict[int, Sent] = {}
    _check(plan, phase, outcome, first)
    _check_sample(plan, first, outcome)
    slowdown = sampler.slowdown()
    outcome.metrics.update(_end_to_end(phase, slowdown))
    outcome.metrics["peak_rss_mb"] = phase.report.get("peak_rss_mib", 0.0)
    outcome.info.update(
        host_slowdown=slowdown, kernels=sampler.medians(), raw=_end_to_end(phase),
        requests=len(phase.sent), wall_s=phase.wall,
        stats=phase.report.get("stats", {}),
        kinds={k: sum(1 for r in plan.requests if r.kind == k) for k in ("new", "store", "repeat")},
    )
    if not phase.report:
        outcome.fail("the gateway process sent no final report")
    if trace:
        recorder = Recorder()
        traced, _ = _phase(plan, scratch / "traced", seed_store, True, recorder, Sampler())
        _check(plan, traced, outcome, first)
        outcome.metrics.update(_layer_metrics(traced, phase, recorder, outcome))
        outcome.info["server_spans"] = traced.report.get("spans", {})
        outcome.info["client_spans"] = recorder.summary()
    return outcome


def probe_setup(scratch: Path, import_s: float) -> float:
    """One more boot plus warm-up on an empty store (the --setup-probe)."""
    gateway, boot_s = boot(scratch / "store", scratch / "records", False, warm_index=1)
    gateway.close()
    return import_s + boot_s

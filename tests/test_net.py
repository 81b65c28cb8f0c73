"""Network-tier tests (ISSUE 10): the gateway and everything under it.

Covers the metrics registry and its Prometheus rendering, RFC 6455
framing fed at awkward byte offsets, the wire codecs (including the
bit-exact SolveResult round trip), the multi-writer-safe ResultStore,
and end-to-end HTTP/WebSocket exchanges against a live gateway —
including a connection killed mid-transient that resumes over the
wire, and the three-surface counter agreement
(``/metrics`` == ``stats()`` == ``run.json``).
"""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

import repro
from helpers import make_problem
from repro.backends import SolveResult, StepResult, get_backend
from repro.net import (
    GatewayClient,
    GatewayError,
    MetricsRegistry,
    ServiceMetrics,
    parse_metrics_text,
)
from repro.net import websocket as ws
from repro.net import wire
from repro.net.metrics import SUMMARY_METRICS
from repro.net.server import Gateway
from repro.scenarios.base import scenario
from repro.serve import SolveService, load_run_record
from repro.serve.records import SUMMARY_COUNTERS
from repro.session import ResultStore, plan_entry
from repro.spec import SolveSpec
from repro.util.errors import ConfigurationError

SPEC = SolveSpec.from_kwargs(rel_tol=1e-7)
SCENARIO = scenario("quarter_five_spot", nx=10, ny=10)


def run(coro):
    return asyncio.run(coro)


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        hits = registry.counter("hits_total", "Hits.", ("tier",))
        depth = registry.gauge("depth", "Depth.")
        lat = registry.histogram("latency_seconds", "Latency.", buckets=(0.1, 1.0))
        hits.inc(tier="memory")
        hits.inc(2, tier="store")
        depth.set(7)
        lat.observe(0.05)
        lat.observe(0.5)
        assert hits.value(tier="memory") == 1
        assert hits.value(tier="store") == 2
        assert depth.value() == 7
        text = registry.render()
        assert '# TYPE hits_total counter' in text
        assert 'hits_total{tier="memory"} 1' in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="+Inf"} 2' in text
        assert 'latency_seconds_count 2' in text

    def test_registration_is_idempotent_but_typed(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "X.")
        assert registry.counter("x_total", "X.") is first
        with pytest.raises(ConfigurationError):
            registry.gauge("x_total", "X.")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("y_total", "Y.", ("tier",))
        with pytest.raises(ConfigurationError):
            counter.inc(backend="wse")
        with pytest.raises(ConfigurationError):
            counter.inc()  # label missing entirely

    def test_service_metrics_summary_covers_every_counter(self):
        metrics = ServiceMetrics()
        assert set(metrics.summary()) == set(SUMMARY_COUNTERS)
        assert set(SUMMARY_METRICS) == set(SUMMARY_COUNTERS)
        for name in SUMMARY_COUNTERS:
            metrics.bump(name)
        assert all(v == 1 for v in metrics.summary().values())

    def test_parse_metrics_text_roundtrip(self):
        metrics = ServiceMetrics()
        metrics.bump("submitted", 3)
        metrics.bump("cache_hits_memory", 2)
        metrics.inflight.set(1)
        values = parse_metrics_text(metrics.render())
        assert values["repro_requests_submitted_total"] == 3
        assert values['repro_cache_hits_total{tier="memory"}'] == 2
        assert values["repro_inflight_requests"] == 1


# -- websocket framing --------------------------------------------------------


class TestWebSocketFraming:
    def test_rfc6455_sample_accept_key(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            ws.accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("size", [0, 5, 125, 126, 65535, 65536])
    @pytest.mark.parametrize("mask", [False, True])
    def test_roundtrip_all_length_encodings(self, size, mask):
        payload = bytes(range(256)) * (size // 256 + 1)
        payload = payload[:size]
        encoded = ws.encode_frame(ws.OP_BINARY, payload, mask=mask)
        frames = ws.FrameDecoder().feed(encoded)
        assert len(frames) == 1
        assert frames[0].opcode == ws.OP_BINARY
        assert frames[0].payload == payload

    def test_byte_at_a_time_feed(self):
        encoded = ws.encode_frame(ws.OP_TEXT, b'{"n":1}', mask=True)
        decoder = ws.FrameDecoder()
        frames = []
        for index in range(len(encoded)):
            frames.extend(decoder.feed(encoded[index:index + 1]))
        assert [f.payload for f in frames] == [b'{"n":1}']

    def test_multiple_frames_in_one_feed(self):
        data = (
            ws.encode_frame(ws.OP_TEXT, b"one")
            + ws.encode_frame(ws.OP_TEXT, b"two")
            + ws.encode_frame(ws.OP_PING, b"hb")
        )
        frames = ws.FrameDecoder().feed(data)
        assert [(f.opcode, f.payload) for f in frames] == [
            (ws.OP_TEXT, b"one"), (ws.OP_TEXT, b"two"), (ws.OP_PING, b"hb"),
        ]

    def test_server_rejects_unmasked_client_data(self):
        decoder = ws.FrameDecoder(require_masked=True)
        with pytest.raises(ws.WebSocketError):
            decoder.feed(ws.encode_frame(ws.OP_TEXT, b"naked"))
        # control frames may legally be unmasked? no — but close frames
        # from our own server-side encode path never hit this decoder.

    def test_fragmented_and_oversized_control_rejected(self):
        with pytest.raises(ws.WebSocketError):
            ws.encode_frame(ws.OP_PING, b"x" * 126)
        fragmented = bytearray(ws.encode_frame(ws.OP_TEXT, b"frag"))
        fragmented[0] &= 0x7F  # clear FIN
        with pytest.raises(ws.WebSocketError):
            ws.FrameDecoder().feed(bytes(fragmented))

    def test_close_frame_parse(self):
        frames = ws.FrameDecoder().feed(ws.encode_close(1000, "done"))
        assert ws.parse_close(frames[0]) == (1000, "done")


# -- wire codecs --------------------------------------------------------------


class TestWireCodecs:
    def test_parse_solve_payload_name_target(self):
        target, backend, spec = wire.parse_solve_payload(
            {"target": "quarter_five_spot", "backend": "wse",
             "options": {"rel_tol": 1e-6}}
        )
        assert target == "quarter_five_spot"
        assert backend == "wse"
        assert spec.tolerance.rel_tol == 1e-6

    def test_parse_solve_payload_parameterized_target(self):
        target, backend, spec = wire.parse_solve_payload(
            {"target": {"scenario": "quarter_five_spot",
                        "params": {"nx": 6, "ny": 5}}}
        )
        assert target.name == "quarter_five_spot"
        assert target.params == {"nx": 6, "ny": 5}
        assert backend == "reference"

    def test_parse_solve_payload_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown request field"):
            wire.parse_solve_payload({"target": "x", "sepc": {}})

    @pytest.mark.parametrize("field", ["resume", "last_step"])
    def test_parse_solve_payload_rejects_stream_fields(self, field):
        with pytest.raises(ConfigurationError, match="unknown request field"):
            wire.parse_solve_payload({"target": "x", field: 0})

    def test_parse_solve_payload_rejects_spec_plus_options(self):
        with pytest.raises(ConfigurationError, match="not both"):
            wire.parse_solve_payload({
                "target": "x", "spec": SPEC.to_dict(),
                "options": {"rel_tol": 1e-3},
            })

    def test_spec_dict_roundtrips_fingerprint(self):
        _, _, spec = wire.parse_solve_payload(
            {"target": "x", "spec": SPEC.to_dict()}
        )
        assert spec.fingerprint() == SPEC.fingerprint()

    def test_raw_problems_do_not_travel(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            wire.target_to_wire(make_problem(3, 3, 2))

    def test_wire_fingerprint_matches_in_process(self):
        # The content address must be identical no matter which side of
        # the wire computed it — that is what makes the ETag the cache key.
        payload = json.loads(wire.encode_json({
            "target": wire.target_to_wire(SCENARIO),
            "backend": "reference",
            "spec": SPEC.to_dict(),
        }))
        target, backend, spec = wire.parse_solve_payload(payload)
        local = plan_entry(SCENARIO, SPEC, "reference")
        remote = plan_entry(target, spec, backend)
        assert remote.fingerprint == local.fingerprint

    def test_solve_result_roundtrip_bit_exact(self):
        result = repro.solve(make_problem(4, 4, 2), backend="reference", spec=SPEC)
        clone = SolveResult.from_dict(json.loads(
            wire.encode_json(result.to_dict())
        ))
        np.testing.assert_array_equal(clone.pressure, result.pressure)
        assert clone.pressure.dtype == result.pressure.dtype
        assert clone.iterations == result.iterations
        assert clone.converged == result.converged
        assert clone.residual_history == result.residual_history

    def test_step_result_roundtrip(self):
        step = StepResult(
            step=3, time=1.5, dt=0.5,
            pressure=np.linspace(0, 1, 8, dtype=np.float32).reshape(2, 2, 2),
            iterations=9, converged=True, residual_history=[1.0, 0.1],
            elapsed_seconds=0.01, backend="wse", telemetry={"time_kind": "model"},
        )
        clone = StepResult.from_dict(json.loads(wire.encode_json(step.to_dict())))
        assert clone.step == 3 and clone.dt == 0.5
        np.testing.assert_array_equal(clone.pressure, step.pressure)

    def test_error_payload_carries_taxonomy(self):
        payload = wire.error_payload(ConfigurationError("bad knob"))
        assert payload["error"]["category"] == "config"
        assert wire.status_for_error(ConfigurationError("x")) == 400
        assert wire.status_for_error(RuntimeError("x")) == 500


# -- multi-writer ResultStore -------------------------------------------------


def _fake_result(seed=0):
    rng = np.random.default_rng(seed)
    return SolveResult(
        pressure=rng.random((3, 3, 2), dtype=np.float64),
        iterations=5, converged=True, residual_history=[1.0, 0.01],
        elapsed_seconds=0.001, backend="reference", telemetry={},
    )


class TestResultStoreMultiWriter:
    def test_interleaved_put_loses_nothing(self, tmp_path):
        # Two store instances over one root (two gateways sharing a
        # cache): with the old blind manifest rewrite, whichever flushed
        # second erased the other's record.
        store_a = ResultStore(tmp_path)
        store_b = ResultStore(tmp_path)  # loads the (empty) manifest now
        entry_a = plan_entry(make_problem(3, 3, 2, seed=1), SPEC, "reference")
        entry_b = plan_entry(make_problem(3, 3, 2, seed=2), SPEC, "reference")
        store_a.save(entry_a, _fake_result(1))
        store_b.save(entry_b, _fake_result(2))

        on_disk = ResultStore(tmp_path).keys()
        assert {entry_a.fingerprint, entry_b.fingerprint} <= set(on_disk)
        # Both instances see both records without re-instantiation.
        for store in (store_a, store_b):
            assert store.has(entry_a.fingerprint)
            assert store.has(entry_b.fingerprint)
        fresh = ResultStore(tmp_path)
        np.testing.assert_array_equal(
            fresh.load(entry_a.fingerprint).pressure, _fake_result(1).pressure
        )

    def test_concurrent_writers_under_threads(self, tmp_path):
        # Hammer one root from many threads through *separate* store
        # instances; every record must survive the melee.
        entries = [
            (plan_entry(make_problem(3, 3, 2, seed=s), SPEC, "reference"),
             _fake_result(s))
            for s in range(12)
        ]

        def work(pair):
            entry, result = pair
            ResultStore(tmp_path).save(entry, result)

        threads = [threading.Thread(target=work, args=(p,)) for p in entries]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        survivors = ResultStore(tmp_path).keys()
        assert set(survivors) == {entry.fingerprint for entry, _ in entries}

    def test_reader_sees_other_writers_flush(self, tmp_path):
        reader = ResultStore(tmp_path)
        entry = plan_entry(make_problem(4, 3, 2), SPEC, "reference")
        assert not reader.contains(entry.fingerprint)
        ResultStore(tmp_path).save(entry, _fake_result())
        assert reader.contains(entry.fingerprint)  # stat-triggered reload
        assert reader.get(entry.fingerprint)["backend"] == "reference"

    def test_clear_simulation_not_resurrected_by_reload(self, tmp_path):
        store = ResultStore(tmp_path)
        fingerprint = "f" * 8
        step = StepResult(
            step=1, time=0.5, dt=0.5,
            pressure=np.zeros((2, 2, 2)), iterations=1, converged=True,
            residual_history=[0.1], elapsed_seconds=0.0, backend="wse",
            telemetry={},
        )
        store.save_simulation_step(fingerprint, step, meta={"n_steps": 4})
        assert store.simulation_steps_completed(fingerprint) == 1
        store.clear_simulation(fingerprint)
        assert store.simulation_steps_completed(fingerprint) == 0

    def test_duplicate_step_append_race_is_a_no_op(self, tmp_path, monkeypatch):
        # Two producers append step 2 of one fingerprint and both finish
        # their temp writes before either renames: the loser must return
        # quietly, not crash on a temp file the winner renamed away.
        store = ResultStore(tmp_path)
        fingerprint = "e" * 8

        def step(n):
            return StepResult(
                step=n, time=0.5 * n, dt=0.5,
                pressure=np.full((2, 2, 2), float(n)), iterations=1,
                converged=True, residual_history=[0.1], elapsed_seconds=0.0,
                backend="wse", telemetry={},
            )

        store.save_simulation_step(fingerprint, step(1), meta={"n_steps": 3})
        both_written = threading.Barrier(2)
        savez = np.savez_compressed

        def savez_then_wait(*args, **kwargs):
            savez(*args, **kwargs)
            both_written.wait(timeout=10)

        monkeypatch.setattr(np, "savez_compressed", savez_then_wait)
        errors: list[BaseException] = []

        def append():
            try:
                store.save_simulation_step(fingerprint, step(2))
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        threads = [threading.Thread(target=append) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        monkeypatch.undo()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.simulation_steps_completed(fingerprint) == 2
        [first, second] = store.load_simulation_steps(fingerprint)
        np.testing.assert_array_equal(second.pressure, step(2).pressure)
        leftovers = [p.name for p in (tmp_path / f"{fingerprint}.steps").iterdir()]
        assert sorted(leftovers) == ["00001.npz", "00002.npz"]


# -- gateway end-to-end -------------------------------------------------------


def _client_thread(fn, *args):
    """Run blocking client work off the event loop."""
    return asyncio.to_thread(fn, *args)


class TestGatewayHttp:
    def test_solve_over_the_wire_matches_in_process(self):
        async def main():
            async with SolveService() as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            return client.solve(
                                SCENARIO, backend="reference", spec=SPEC
                            )
                    remote = await _client_thread(work, gateway.port)
            local = repro.solve(SCENARIO, backend="reference", spec=SPEC)
            np.testing.assert_array_equal(remote.pressure, local.pressure)
            assert remote.converged

        run(main())

    def test_etag_304_and_cache_hit(self):
        async def main():
            async with SolveService() as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            first = client.solve(
                                SCENARIO, backend="reference", spec=SPEC
                            )
                            etag = client.last_etag
                            replay = client.solve(
                                SCENARIO, backend="reference", spec=SPEC,
                                if_none_match=etag,
                            )
                            again = client.solve(
                                SCENARIO, backend="reference", spec=SPEC
                            )
                            return first, etag, replay, again
                    first, etag, replay, again = await _client_thread(
                        work, gateway.port
                    )
                    assert first is not None and replay is None
                    entry = plan_entry(SCENARIO, SPEC, "reference")
                    assert etag == f'"{entry.fingerprint}"'
                    np.testing.assert_array_equal(
                        again.pressure, first.pressure
                    )
                    stats = service.stats()
                    assert stats["executed"] == 1
                    assert stats["cache_hits_memory"] == 1  # the third call

        run(main())

    def test_error_surfaces_typed(self):
        async def main():
            async with SolveService() as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            errors = {}
                            try:
                                client.solve("no_such_scenario")
                            except GatewayError as exc:
                                errors["scenario"] = exc
                            try:
                                client.solve(SCENARIO, backend="bogus")
                            except GatewayError as exc:
                                errors["backend"] = exc
                            try:
                                client._request("GET", "/v1/nope")
                                status, _, _ = client._request("GET", "/v1/nope")
                                errors["404"] = status
                            except Exception:  # pragma: no cover
                                pass
                            status405, _, _ = client._request("GET", "/v1/solve")
                            errors["405"] = status405
                            return errors
                    errors = await _client_thread(work, gateway.port)
                    assert errors["scenario"].status == 400
                    assert errors["scenario"].category == "config"
                    assert errors["backend"].status == 400
                    assert errors["404"] == 404
                    assert errors["405"] == 405

        run(main())

    def test_concurrent_clients_dedup_to_one_solve(self):
        async def main():
            async with SolveService() as service:
                async with Gateway(service) as gateway:
                    def one(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            return client.solve(
                                SCENARIO, backend="reference", spec=SPEC
                            )
                    results = await asyncio.gather(
                        *[_client_thread(one, gateway.port) for _ in range(8)]
                    )
                    stats = service.stats()
                    assert stats["submitted"] == 8
                    # One genuine solve; everything else a cache tier.
                    assert stats["executed"] == 1
                    served = (
                        stats["cache_hits_memory"] + stats["cache_hits_store"]
                        + stats["dedup_hits"]
                    )
                    assert served == 7
            for result in results[1:]:
                np.testing.assert_array_equal(
                    result.pressure, results[0].pressure
                )

        run(main())

    def test_healthz_and_metrics_agree_with_stats(self, tmp_path):
        async def main():
            async with SolveService(
                records=tmp_path, run_id="agree"
            ) as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            health = client.healthz()
                            client.solve(SCENARIO, backend="reference", spec=SPEC)
                            client.solve(SCENARIO, backend="reference", spec=SPEC)
                            return health, client.metrics_values()
                    health, metrics = await _client_thread(work, gateway.port)
                    assert health["status"] == "ok"
                    assert health["run_id"] == "agree"
                    stats = service.stats()
            # All three surfaces: live stats, /metrics text, run.json.
            record = load_run_record(tmp_path / "agree")
            assert metrics["repro_requests_submitted_total"] == 2
            for surface in (stats, record["summary"]):
                assert surface["submitted"] == 2
                assert surface["executed"] == 1
                assert surface["cache_hits_memory"] == 1
            assert metrics["repro_solves_executed_total"] == 1
            assert metrics['repro_cache_hits_total{tier="memory"}'] == 1
            assert metrics['repro_http_requests_total{route="/v1/solve",status="200"}'] == 2

        run(main())


class TestGatewayStream:
    OPTIONS = dict(n_steps=5, dt=0.5, rel_tol=1e-6)

    def test_stream_matches_in_process_simulate(self, tmp_path):
        async def main():
            async with SolveService(store=tmp_path) as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            return list(client.stream(
                                SCENARIO, backend="wse", **self.OPTIONS
                            ))
                    steps = await _client_thread(work, gateway.port)
            assert [s.step for s in steps] == [1, 2, 3, 4, 5]
            local = repro.simulate(SCENARIO, backend="wse", **self.OPTIONS).steps
            for over_wire, in_process in zip(steps, local):
                np.testing.assert_allclose(
                    over_wire.pressure, in_process.pressure,
                    rtol=1e-12, atol=1e-12,
                )

        run(main())

    def test_second_stream_resumes_from_store(self, tmp_path):
        async def main():
            async with SolveService(store=tmp_path) as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            list(client.stream(
                                SCENARIO, backend="wse", **self.OPTIONS
                            ))
                            return list(client.stream(
                                SCENARIO, backend="wse", **self.OPTIONS
                            ))
                    replay = await _client_thread(work, gateway.port)
                    stats = service.stats()
            assert [s.step for s in replay] == [1, 2, 3, 4, 5]
            assert all(s.telemetry.get("from_store") for s in replay)
            assert stats["streamed_steps"] == 5
            assert stats["resumed_steps"] == 5

        run(main())

    def test_killed_mid_transient_resumes_over_the_wire(
        self, tmp_path, monkeypatch
    ):
        """The satellite: cut the socket mid-stream; the client reconnects
        with ``last_step`` and the gateway resumes from the durable step
        stack — the consumer sees every step exactly once."""
        cut_after = 2
        reached = threading.Event()  # the client has read cut_after steps
        cut = threading.Event()  # every live connection is aborted
        backend = type(get_backend("wse"))
        simulate = backend.simulate
        streams: list[int] = []

        def held(self, problem, spec=None, **kwargs):
            # The first stream computes no step past the cut before the
            # cut, so the server cannot push steps ahead of it.
            first = not streams
            streams.append(kwargs.get("start_step", 0))
            for step in simulate(self, problem, spec, **kwargs):
                yield step
                if first and step.step == cut_after:
                    assert cut.wait(timeout=10)

        monkeypatch.setattr(backend, "simulate", held)

        async def main():
            async with SolveService(store=tmp_path) as service:
                async with Gateway(service) as gateway:
                    seen: list[int] = []
                    proceed = threading.Event()

                    def work(port):
                        client = GatewayClient(
                            "127.0.0.1", port, retries=5, retry_backoff=0.05
                        )
                        for step in client.stream(
                            SCENARIO, backend="wse", **self.OPTIONS
                        ):
                            seen.append(step.step)
                            if len(seen) == cut_after:
                                reached.set()
                                proceed.wait(timeout=10)
                        client.close()
                        return seen

                    task = asyncio.ensure_future(
                        _client_thread(work, gateway.port)
                    )
                    assert await _client_thread(reached.wait, 10)
                    # Kill every live connection out from under the client.
                    for writer in list(gateway._connections):
                        writer.transport.abort()
                    cut.set()
                    proceed.set()
                    steps = await task
                    stats = service.stats()

            assert steps == [1, 2, 3, 4, 5], steps
            # The reconnect replayed the stored prefix server-side (the
            # wire skipped it), then computed the rest.
            assert stats["resumed_steps"] >= cut_after
            assert stats["streamed_steps"] + stats["resumed_steps"] >= 5

        run(main())

    @pytest.mark.parametrize("fields", [
        {"last_step": "two"}, {"last_step": -1}, {"last_step": True},
        {"resume": "false"}, {"resume": 0},
    ], ids=[
        "last_step-string", "last_step-negative", "last_step-bool",
        "resume-string", "resume-int",
    ])
    def test_malformed_opening_frame_is_a_config_error(self, fields):
        async def main():
            async with SolveService() as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        request = {
                            "target": wire.target_to_wire(SCENARIO),
                            "backend": "wse", "options": self.OPTIONS,
                            **fields,
                        }
                        with GatewayClient("127.0.0.1", port) as client:
                            with pytest.raises(GatewayError) as caught:
                                list(client._stream_once(
                                    request, fields.get("last_step", 0)
                                ))
                            return caught.value
                    error = await _client_thread(work, gateway.port)
                    assert service.stats()["streams"] == 0
            assert error.category == "config"
            assert f'"{next(iter(fields))}"' in str(error)

        run(main())

    def test_plain_get_on_stream_route_is_426(self):
        async def main():
            async with SolveService() as service:
                async with Gateway(service) as gateway:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            status, _, body = client._request(
                                "GET", "/v1/stream"
                            )
                            return status, body
                    status, body = await _client_thread(work, gateway.port)
                    assert status == 426
                    assert b"websocket" in body.lower()

        run(main())


class TestMultiGatewaySharedStore:
    def test_second_gateway_serves_first_gateways_solve(self, tmp_path):
        # Two services (think: two gateway processes) over one store
        # root; the second must answer from the store tier, not resolve.
        async def main():
            async with SolveService(store=tmp_path / "shared") as service_a:
                async with Gateway(service_a) as gateway_a:
                    def work(port):
                        with GatewayClient("127.0.0.1", port) as client:
                            return client.solve(
                                SCENARIO, backend="reference", spec=SPEC
                            )
                    first = await _client_thread(work, gateway_a.port)
            async with SolveService(store=tmp_path / "shared") as service_b:
                async with Gateway(service_b) as gateway_b:
                    second = await _client_thread(work, gateway_b.port)
                    stats = service_b.stats()
            assert stats["executed"] == 0
            assert stats["cache_hits_store"] == 1
            np.testing.assert_array_equal(second.pressure, first.pressure)

        run(main())

"""ServiceFrontend over real sockets: backpressure, errors, shutdown."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service import (
    LiveEngineSession,
    ServiceFrontend,
    encode_frame,
    live_scenario,
)
from repro.service.frontend import _Pending


def make_session(seed: int = 9) -> LiveEngineSession:
    return LiveEngineSession(live_scenario(seed=seed, initial_size=80, max_size=256))


async def connect(frontend: ServiceFrontend):
    return await asyncio.open_connection("127.0.0.1", frontend.port)


async def rpc(reader, writer, frame):
    """Send one request frame and read one response line."""
    writer.write(encode_frame(frame))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=5)
    assert line, "server closed the connection"
    return json.loads(line)


async def close_writer(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


class TestRequestResponse:
    def test_ping_and_sample_round_trip(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                pong = await rpc(reader, writer, {"op": "ping", "id": 1})
                assert pong["ok"] and pong["result"] == {"pong": True}
                assert pong["id"] == 1
                assert pong["latency_ms"] >= 0
                sampled = await rpc(reader, writer, {"op": "sample", "id": "s"})
                assert sampled["ok"]
                assert "node_id" in sampled["result"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_responses_matched_by_id_when_pipelined(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                for index in range(20):
                    writer.write(encode_frame({"op": "sample", "id": index}))
                await writer.drain()
                seen = set()
                for _ in range(20):
                    line = await asyncio.wait_for(reader.readline(), timeout=5)
                    response = json.loads(line)
                    assert response["ok"]
                    seen.add(response["id"])
                assert seen == set(range(20))
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_malformed_request_answers_error_and_connection_survives(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                writer.write(b"this is not json\n")
                await writer.drain()
                bad = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                assert bad["ok"] is False
                assert bad["error"] == "bad_request"
                unknown = await rpc(reader, writer, {"op": "teleport", "id": 2})
                assert unknown["error"] == "unknown_op"
                assert unknown["id"] == 2
                # The same connection still serves valid requests.
                pong = await rpc(reader, writer, {"op": "ping", "id": 3})
                assert pong["ok"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_oversized_frame_answers_bad_request_and_closes(self, caplog):
        """A line past the StreamReader limit is refused, never a traceback."""
        from repro.service.frontend import MAX_FRAME_BYTES

        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                oversized = json.dumps({"op": "ping", "id": 1, "pad": "x" * 70 * 1024})
                assert len(oversized) > MAX_FRAME_BYTES
                writer.write(oversized.encode("utf-8") + b"\n")
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
                assert reply["ok"] is False
                assert reply["error"] == "bad_request"
                assert str(MAX_FRAME_BYTES) in reply["message"]
                # ...and the server hangs up on that connection.
                assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                await close_writer(writer)
                # A fresh connection is still served.
                reader, writer = await connect(frontend)
                pong = await rpc(reader, writer, {"op": "ping", "id": 2})
                assert pong["ok"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        with caplog.at_level("ERROR", logger="asyncio"):
            asyncio.run(scenario())
        assert "Unhandled exception" not in caplog.text
        assert not [r for r in caplog.records if r.exc_info]

    def test_engine_rejection_is_failed_not_fatal(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                response = await rpc(
                    reader, writer, {"op": "leave", "id": 1, "node_id": 10**9}
                )
                assert response["ok"] is False
                assert response["error"] == "failed"
                pong = await rpc(reader, writer, {"op": "ping", "id": 2})
                assert pong["ok"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_status_includes_queue_stats(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0, max_queue=7)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                await rpc(reader, writer, {"op": "ping", "id": 0})
                status = await rpc(reader, writer, {"op": "status", "id": 1})
                queue = status["result"]["queue"]
                assert queue["bound"] == 7
                assert queue["accepted"] >= 2
                assert queue["rejected"] == 0
                assert queue["depth"] >= 0
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())


class TestBackpressure:
    def test_full_queue_fast_fails_with_overloaded(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0, max_queue=1)
            await frontend.start()
            try:
                # Pin the queue at "full" so admission (not pump speed)
                # decides the outcome: the overloaded fast-path must answer
                # without the request ever reaching the engine.
                frontend.queue.offer = lambda item, lane=0: False
                reader, writer = await connect(frontend)
                events_before = frontend.session.events_applied
                response = await rpc(reader, writer, {"op": "join", "id": 1})
                assert response["ok"] is False
                assert response["error"] == "overloaded"
                assert "full" in response["message"]
                assert frontend.session.events_applied == events_before
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_real_overload_rejects_beyond_bound(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0, max_queue=2)
            await frontend.start()
            try:
                # Park the pump: it is awaiting the current wakeup event, so
                # swapping in a fresh one means offers no longer wake it and
                # requests pile up against the real bound.
                parked_wakeup = frontend.queue._wakeup
                frontend.queue._wakeup = asyncio.Event()
                reader, writer = await connect(frontend)
                for index in range(5):
                    writer.write(encode_frame({"op": "ping", "id": index}))
                await writer.drain()
                # Only the overloaded rejections answer immediately.
                rejected = []
                for _ in range(3):
                    line = await asyncio.wait_for(reader.readline(), timeout=5)
                    rejected.append(json.loads(line))
                assert all(r["error"] == "overloaded" for r in rejected)
                assert {r["id"] for r in rejected} == {2, 3, 4}
                assert frontend.queue.rejected == 3
                await close_writer(writer)
                # Un-park the pump so stop() can drain the two admitted
                # requests (their connection is gone; responses are dropped).
                parked_wakeup.set()
            finally:
                await frontend.stop()
            assert frontend.session.operations.get("ping", 0) == 2

        asyncio.run(scenario())


class TestShutdown:
    def test_shutdown_op_stops_serve_loop(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            serve = asyncio.ensure_future(frontend.serve_until_shutdown())
            reader, writer = await connect(frontend)
            response = await rpc(reader, writer, {"op": "shutdown", "id": 1})
            assert response["ok"] and response["result"] == {"stopping": True}
            await asyncio.wait_for(serve, timeout=5)
            assert frontend.shutdown_reason == "client shutdown request"
            assert frontend.session.closed
            await close_writer(writer)

        asyncio.run(scenario())

    def test_stop_drains_admitted_requests(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            loop = asyncio.get_running_loop()
            admitted = [
                _Pending(frame={"op": "join", "id": index}, future=loop.create_future())
                for index in range(5)
            ]
            for pending in admitted:
                assert frontend.queue.offer(pending)
            # Stop immediately: everything already admitted must still be
            # executed and resolved before the session seals its trace.
            await frontend.stop()
            for pending in admitted:
                assert pending.future.done()
                assert pending.future.result()["ok"]
            assert frontend.session.events_applied == 5

        asyncio.run(scenario())

    def test_requests_after_close_answer_shutting_down(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)
                await rpc(reader, writer, {"op": "ping", "id": 1})
                frontend.queue.close()
                response = await rpc(reader, writer, {"op": "ping", "id": 2})
                assert response["error"] == "shutting_down"
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            await frontend.stop()
            await frontend.stop()
            assert frontend.session.closed

        asyncio.run(scenario())


class TestEngineFailure:
    def test_write_path_exception_is_fatal_and_seals_trace(self, tmp_path):
        """An engine error mid-event fails the batch and stops the server."""
        from repro.trace import TraceReader, replay_trace

        path = str(tmp_path / "crash.jsonl")

        async def scenario():
            session = make_session()
            session.attach_trace(path)
            frontend = ServiceFrontend(session, port=0)
            await frontend.start()
            reader, writer = await connect(frontend)
            first = await rpc(reader, writer, {"op": "join", "id": "warm"})
            assert first["ok"]

            def broken(event):
                raise RuntimeError("engine fault")

            session.engine.apply_event = broken
            for index in range(6):
                writer.write(encode_frame({"op": "join", "id": index}))
            await writer.drain()
            responses = []
            for _ in range(6):
                line = await asyncio.wait_for(reader.readline(), timeout=5)
                assert line, "connection hung instead of failing the request"
                responses.append(json.loads(line))
            assert all(not r["ok"] for r in responses)
            assert all(r["error"] in ("failed", "shutting_down") for r in responses)
            assert "engine fault" in responses[0]["message"]
            await close_writer(writer)
            with pytest.raises(RuntimeError, match="engine fault"):
                await frontend.stop()
            assert session.closed

        asyncio.run(scenario())
        assert TraceReader(path).end_frame() is None
        assert replay_trace(path).ok

    def test_read_failure_answers_failed_and_keeps_serving(self):
        async def scenario():
            session = make_session()
            frontend = ServiceFrontend(session, port=0)
            await frontend.start()
            try:
                reader, writer = await connect(frontend)

                def broken():
                    raise RuntimeError("sampler fault")

                session._sampling.sample = broken
                response = await rpc(reader, writer, {"op": "sample", "id": 1})
                assert response["error"] == "failed"
                assert "sampler fault" in response["message"]
                joined = await rpc(reader, writer, {"op": "join", "id": 2})
                assert joined["ok"]
                await close_writer(writer)
            finally:
                await frontend.stop()

        asyncio.run(scenario())


class TestConstruction:
    def test_max_batch_must_be_positive(self):
        session = make_session()
        try:
            with pytest.raises(ValueError):
                ServiceFrontend(session, max_batch=0)
        finally:
            session.close()


class TestLoadGenerator:
    def test_operation_stats_classification(self):
        from repro.service import OperationStats

        stats = OperationStats()
        stats.record({"ok": True}, 1.0)
        stats.record({"ok": False, "error": "overloaded"}, 2.0)
        stats.record({"ok": False, "error": "failed"}, 3.0)
        assert (stats.ok, stats.overloaded, stats.failed) == (1, 1, 1)
        view = stats.as_dict()
        assert view["p50_ms"] == 2.0

    def test_load_report_aggregates_and_ok(self):
        from repro.service import LoadReport, OperationStats

        good = OperationStats(sent=10, ok=8, overloaded=2)
        report = LoadReport(
            offered_rate=100.0, duration=2.0, per_operation={"sample": good}
        )
        assert report.sent == 10
        assert report.achieved_rate == 4.0
        assert report.ok  # overloads are expected under load, not failures
        good.missing = 1
        assert not report.ok
        assert "sample" in report.summary_table()

    def test_run_load_against_live_frontend(self):
        from repro.service import run_load
        from repro.workloads.arrivals import PoissonArrivals

        async def scenario():
            frontend = ServiceFrontend(make_session(), port=0)
            await frontend.start()
            try:
                arrivals = PoissonArrivals(
                    rate=300.0,
                    duration=1.0,
                    mix={"sample": 0.7, "join": 0.2, "leave": 0.1},
                    seed=6,
                ).schedule()
                report = await run_load(
                    "127.0.0.1",
                    frontend.port,
                    arrivals,
                    offered_rate=300.0,
                    connections=2,
                    response_timeout=10.0,
                )
            finally:
                await frontend.stop()
            return report, len(arrivals)

        report, scheduled = asyncio.run(scenario())
        assert report.sent == scheduled
        assert report.ok, (report.failed, report.missing)
        assert report.completed == scheduled
        assert report.succeeded + report.overloaded == scheduled
        sampled = report.per_operation["sample"]
        assert sampled.latency.count == sampled.ok + sampled.overloaded + sampled.failed
        assert sampled.as_dict()["p99_ms"] >= sampled.as_dict()["p50_ms"]

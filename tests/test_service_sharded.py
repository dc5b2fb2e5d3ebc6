"""The sharded live-service backend: worker-count equivalence, read lane,
worker death, serve-trace replay.

The load-bearing property here is the determinism contract of
``docs/SERVICE.md``: a sharded session's responses, recorded trace and
composite state hash are a pure function of the admitted request sequence —
independent of the worker-process count (``workers=1`` is the inline
oracle) and of how the pump chunked requests into windows.  Reads ride a
separate RNG stream, so interleaving them must leave the write lane
bit-identical.
"""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.service import (
    LiveEngineSession,
    ServiceFrontend,
    ShardedLiveSession,
    encode_frame,
    live_scenario,
    sharded_live_scenario,
)
from repro.service.protocol import ProtocolError
from repro.shard import ShardWorkerError, replay_sharded_trace
from repro.shard.worker import ProcessTransport
from repro.trace import TraceReader, replay_trace
from repro.trace.hashing import state_hash

#: Small enough to run fast, large enough to respect the per-shard slice
#: floor (two target clusters per shard at max_size=256).
SIZES = dict(initial_size=200, max_size=256)


def make_session(seed: int = 9, workers: int = 1, **overrides) -> ShardedLiveSession:
    params = dict(SIZES)
    params.update(overrides)
    return ShardedLiveSession(
        sharded_live_scenario(seed=seed, **params), workers=workers
    )


def pump(session: ShardedLiveSession, frames, chunk: int = 8):
    """Run a request stream the way the windowed frontend pump does.

    Splits the stream into pump batches of ``chunk`` requests, windows the
    writes of each batch, serves ready reads during the window and deferred
    ones after it.  Returns per-frame outcomes in stream order (result
    dicts, or the ``ProtocolError`` for rejected writes).
    """
    outcomes = [None] * len(frames)
    for base in range(0, len(frames), chunk):
        batch = list(enumerate(frames[base : base + chunk], start=base))
        writes = [(i, f) for i, f in batch if f["op"] in ("join", "leave")]
        reads = [(i, f) for i, f in batch if f["op"] not in ("join", "leave")]
        handle = session.begin_window([f for _, f in writes]) if writes else None
        deferred = []
        for i, frame in reads:
            if handle is not None and not session.read_ready(frame["op"]):
                deferred.append((i, frame))
            else:
                outcomes[i] = session.execute(frame)
        if handle is not None:
            for (i, _), outcome in zip(writes, session.finish_window(handle)):
                outcomes[i] = outcome
        for i, frame in deferred:
            outcomes[i] = session.execute(frame)
    return outcomes


def normalise(outcome):
    """One comparable value per outcome (errors compare by code+message).

    Status responses name the worker count and the recording path — the two
    fields that *should* differ across deployments of the same logical run —
    so those are dropped before comparison.
    """
    if isinstance(outcome, ProtocolError):
        return ("error", outcome.code, outcome.message)
    if isinstance(outcome, dict):
        return {k: v for k, v in outcome.items() if k not in ("workers", "recording")}
    return outcome


# The op alphabet the equivalence property draws request streams from.
OPS = st.sampled_from(
    ["join", "join", "byzantine-join", "leave", "sample", "status", "broadcast"]
)


def frames_from_ops(ops):
    frames = []
    for index, op in enumerate(ops):
        if op == "byzantine-join":
            frames.append({"op": "join", "id": index, "role": "byzantine"})
        else:
            frames.append({"op": op, "id": index})
    return frames


class TestWorkerCountEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(ops=st.lists(OPS, min_size=1, max_size=40), seed=st.integers(1, 50))
    def test_responses_trace_and_hash_identical_across_worker_counts(
        self, tmp_path_factory, ops, seed
    ):
        """W in {1, 2, 4}: same requests -> same bits, W=1 is the oracle."""
        frames = frames_from_ops(ops)
        results = {}
        for workers in (1, 2, 4):
            path = str(
                tmp_path_factory.mktemp("eq") / f"w{workers}.jsonl"
            )
            session = make_session(seed=seed, workers=workers)
            try:
                session.attach_trace(path, index_every=10)
                outcomes = pump(session, frames, chunk=8)
                state = session.state_hash()
            finally:
                session.close()
            with open(path, "rb") as handle:
                results[workers] = (
                    [normalise(o) for o in outcomes],
                    state,
                    handle.read(),
                )
        assert results[2] == results[1]
        assert results[4] == results[1]

    def test_chunking_does_not_change_events_or_hash(self):
        """Windows are barrier-aligned: pump chunk size is invisible."""
        frames = frames_from_ops(["join"] * 30 + ["leave"] * 10 + ["join"] * 30)
        streams = {}
        for chunk in (1, 7, 64):
            session = make_session(seed=4)
            try:
                outcomes = pump(session, frames, chunk=chunk)
                streams[chunk] = ([normalise(o) for o in outcomes], session.state_hash())
            finally:
                session.close()
        assert streams[7] == streams[1]
        assert streams[64] == streams[1]

    def test_writes_match_classic_single_engine_session(self):
        """The classic session is the oracle for the write lane's responses.

        Joins and leaves (anonymous ones included — both backends draw the
        leaver from the same ``seed + 4`` stream over the same registry
        sampling array) must agree on the assigned node, the time step and
        the network size.  Cluster observables legitimately differ: shard
        engines partition the population.  The classic run interleaves
        samples, which draw from the ``seed + 5`` read stream on both
        backends and so must not move any anonymous leaver.
        """
        frames = frames_from_ops(
            ["join"] * 40 + ["leave", "join", "leave", "byzantine-join"] * 10
        )
        classic = LiveEngineSession(live_scenario(seed=11, **SIZES))
        expected = []
        for frame in frames:
            result = classic.execute(frame)
            classic.execute({"op": "sample", "id": "read"})
            expected.append(
                (result["node_id"], result["time_step"], result["network_size"])
            )
        classic.close()

        session = make_session(seed=11)
        try:
            outcomes = pump(session, frames, chunk=16)
        finally:
            session.close()
        got = [(o["node_id"], o["time_step"], o["network_size"]) for o in outcomes]
        assert got == expected


def make_classic_session(seed: int = 9) -> LiveEngineSession:
    return LiveEngineSession(live_scenario(seed=seed, **SIZES))


def session_state_hash(session) -> str:
    if isinstance(session, LiveEngineSession):
        return state_hash(session.engine)
    return session.state_hash()


class TestReadLane:
    # Test ids: s = sharded, c = classic session.
    @pytest.mark.parametrize("make", [make_session, make_classic_session], ids=["s", "c"])
    def test_interleaved_reads_leave_write_lane_bit_identical(self, tmp_path, make):
        """Samples between writes perturb neither the trace nor the hash.

        The frontend drains the two lanes separately, so a write batch is
        composed of writes only — reads that arrived among them are served
        around the same window.  With identical write batching, the mixed
        run's trace must equal the writes-only run's trace byte for byte,
        on both backends: each keeps its reads on a private stream.
        """
        writes = frames_from_ops(["join"] * 25 + ["leave"] * 5 + ["join"] * 10)
        # Reads attached to the write index they arrive after.
        reads_after = {
            index: [{"op": "sample", "id": f"r{index}"}]
            + ([{"op": "status", "id": f"s{index}"}] if index % 7 == 0 else [])
            for index in range(0, len(writes), 3)
        }

        def run(with_reads: bool, path: str):
            session = make(seed=21)
            write_outcomes = []
            try:
                session.attach_trace(path, index_every=10)
                for base in range(0, len(writes), 8):
                    batch = writes[base : base + 8]
                    reads = []
                    if with_reads:
                        for index in range(base, base + len(batch)):
                            reads.extend(reads_after.get(index, ()))
                    handle = session.begin_window(batch)
                    deferred = []
                    for frame in reads:
                        if session.read_ready(frame["op"]):
                            session.execute(frame)
                        else:
                            deferred.append(frame)
                    write_outcomes.extend(session.finish_window(handle))
                    for frame in deferred:
                        session.execute(frame)
                state = session_state_hash(session)
            finally:
                session.close()
            with open(path, "rb") as handle:
                return [normalise(o) for o in write_outcomes], state, handle.read()

        plain = run(False, str(tmp_path / "plain.jsonl"))
        mixed = run(True, str(tmp_path / "mixed.jsonl"))
        assert mixed == plain

    def test_status_serves_during_inflight_window_sample_defers(self):
        """status/ping never block on a window; a stale model defers sample."""
        session = make_session(seed=5)
        try:
            handle = session.begin_window(
                [{"op": "join", "id": i} for i in range(6)]
            )
            # Window dispatched, not collected: status must not round-trip.
            assert session.read_ready("status") and session.read_ready("ping")
            status = session.execute({"op": "status"})
            assert status["network_size"] == SIZES["initial_size"] + 6
            assert not session.read_ready("sample")
            assert not session.read_ready("broadcast")
            session.finish_window(handle)
            # Boundary: the model may refresh now (one worker round trip).
            sample = session.execute({"op": "sample"})
            assert session.read_ready("sample")
            assert sample["messages"] > 0 and sample["rounds"] > 0
        finally:
            session.close()

    def test_reads_draw_from_their_own_stream(self):
        """The read RNG is private: reads do not consume the write stream."""
        plain = make_session(seed=31)
        mixed = make_session(seed=31)
        try:
            frames = frames_from_ops(["join"] * 10 + ["leave"] * 4)
            plain_out = pump(plain, frames, chunk=4)
            mixed_out = []
            for frame in frames:
                mixed.execute({"op": "sample"})
                mixed_out.append(mixed.execute(frame))
            # Anonymous-leave picks agree despite the interleaved sampling.
            assert [normalise(o) for o in mixed_out] == [
                normalise(o) for o in plain_out
            ]
        finally:
            plain.close()
            mixed.close()


class TestShardedSessionValidation:
    def test_rejects_scenario_with_workload(self):
        scenario = sharded_live_scenario(seed=1, **SIZES)
        scenario.workload = {"kind": "uniform"}
        with pytest.raises(ConfigurationError, match="workload"):
            ShardedLiveSession(scenario)

    def test_rejects_unsharded_scenario(self):
        with pytest.raises(ConfigurationError, match="shards"):
            ShardedLiveSession(live_scenario(seed=1, **SIZES))

    def test_join_at_max_size_fails_cleanly(self):
        session = make_session(seed=2, initial_size=240, max_size=256)
        try:
            outcomes = pump(session, [{"op": "join", "id": i} for i in range(40)])
            errors = [o for o in outcomes if isinstance(o, ProtocolError)]
            applied = [o for o in outcomes if not isinstance(o, ProtocolError)]
            assert len(applied) == 16 and len(errors) == 24
            assert all(e.code == "failed" for e in errors)
            assert session.network_size == 256
        finally:
            session.close()

    def test_contact_cluster_join_rejected(self):
        session = make_session(seed=2)
        try:
            with pytest.raises(ProtocolError, match="contact_cluster"):
                session.execute({"op": "join", "contact_cluster": 0})
        finally:
            session.close()

    def test_named_leave_then_rejoin_round_trip(self):
        session = make_session(seed=2)
        try:
            joined = session.execute({"op": "join"})
            gone = session.execute({"op": "leave", "node_id": joined["node_id"]})
            assert gone["node_id"] == joined["node_id"]
            with pytest.raises(ProtocolError, match="not active"):
                session.execute({"op": "leave", "node_id": joined["node_id"]})
            back = session.execute({"op": "join", "node_id": joined["node_id"]})
            assert back["node_id"] == joined["node_id"]
        finally:
            session.close()


class TestServeTraceReplay:
    def test_recorded_sharded_serve_trace_replays_bit_identically(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        session = make_session(seed=13, workers=2)
        try:
            session.attach_trace(path, index_every=20)
            pump(
                session,
                frames_from_ops(
                    ["join"] * 50 + ["leave"] * 20 + ["sample"] * 5 + ["join"] * 30
                ),
                chunk=16,
            )
            applied = session.events_applied
            recorded_hash = session.state_hash()
        finally:
            session.close()

        report = replay_trace(path)
        assert report.ok
        assert applied > 90  # a handful of tail joins rejected at max_size
        assert report.events_applied == applied
        assert report.hash_checks >= 1
        assert report.final_hash == recorded_hash

        report_direct = replay_sharded_trace(path)
        assert report_direct.ok and report_direct.final_hash == recorded_hash

    def test_replay_detects_tampered_event(self, tmp_path):
        path = str(tmp_path / "serve.jsonl")
        session = make_session(seed=13)
        try:
            session.attach_trace(path)
            pump(session, frames_from_ops(["join"] * 20))
        finally:
            session.close()
        lines = open(path, "r", encoding="utf-8").read().splitlines()
        frame = json.loads(lines[3])
        assert frame["t"] == "ev"
        frame["sz"] += 1  # a recorded observable the replay must re-derive
        lines[3] = json.dumps(frame)
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        report = replay_trace(path)
        assert not report.ok and report.divergence is not None


async def _connect(frontend):
    return await asyncio.open_connection("127.0.0.1", frontend.port)


async def _rpc(reader, writer, frame, timeout=10):
    writer.write(encode_frame(frame))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=timeout)
    assert line, "server closed the connection"
    return json.loads(line)


class TestWorkerDeath:
    def test_worker_dying_mid_load_fails_requests_and_seals_trace(self, tmp_path):
        """Kill a worker under live load: every in-flight request is answered
        with error code ``failed`` (never a hung connection), the trace is
        sealed crashed-shape, and the frontend's stop re-raises the death."""
        path = str(tmp_path / "crash.jsonl")

        async def scenario():
            session = ShardedLiveSession(
                sharded_live_scenario(seed=17, **SIZES), workers=2
            )
            session.attach_trace(path)
            frontend = ServiceFrontend(session, port=0)
            await frontend.start()
            reader, writer = await _connect(frontend)
            # Prove the service is healthy, then kill one worker process.
            first = await _rpc(reader, writer, {"op": "join", "id": "warm"})
            assert first["ok"]
            transport = session.coordinator._transports[0]
            assert isinstance(transport, ProcessTransport)
            transport._process.kill()
            transport._process.join(timeout=5)
            # Requests racing the death must all be *answered*.
            for index in range(12):
                writer.write(encode_frame({"op": "join", "id": index}))
            await writer.drain()
            responses = []
            for _ in range(12):
                line = await asyncio.wait_for(reader.readline(), timeout=10)
                assert line, "connection hung instead of failing the request"
                responses.append(json.loads(line))
            failed = [r for r in responses if not r["ok"]]
            assert failed, "worker death produced no failed responses"
            assert all(r["error"] in ("failed", "shutting_down") for r in failed)
            writer.close()
            with pytest.raises(ShardWorkerError):
                await frontend.stop()
            assert session.closed

        asyncio.run(scenario())
        # The crash path flushes but writes no end frame: the crashed-run
        # shape replay tolerates up to the last complete frame.
        trace = TraceReader(path)
        assert trace.end_frame() is None
        assert replay_trace(path).ok

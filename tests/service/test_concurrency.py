"""Concurrency: many threads, many sessions, nothing lost or torn.

The acceptance bar for the service is a 3-worker loopback run
sustaining >= 8 concurrent sessions with zero lost metric increments.
These tests drive the registry and the full TCP service from N client
threads and then check *exact* balances: every request accounted for in
the per-session ledgers, every period committed exactly once, snapshot
invariants never violated mid-flight.
"""

from __future__ import annotations

import random
import socket
import sys
import threading

from repro.core.dlr import DLR
from repro.errors import AdmissionRejected
from repro.protocol.transport import encode_frame, recv_frame
from repro.service import (
    KeyService,
    ServiceClient,
    SessionRegistry,
    StaleSessionError,
)

SESSIONS = 8
REQUESTS_PER_SESSION = 3


def run_in_threads(workers):
    """Start one thread per worker behind a barrier, join them, and
    re-raise the first failure (a failed worker must fail the test)."""
    barrier = threading.Barrier(len(workers))
    failures = []

    def wrap(fn):
        def runner():
            barrier.wait()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


class TestRegistryUnderThreads:
    def test_parallel_decrypts_keep_every_ledger_balanced(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=SESSIONS)
        jobs = []
        for i in range(SESSIONS):
            session = registry.create("t", f"k{i}", seed=i)
            rng = random.Random(1000 + i)
            scheme = DLR(session.public_key.params)
            pairs = []
            for _ in range(REQUESTS_PER_SESSION):
                message = session.group.random_gt(rng)
                pairs.append((message, scheme.encrypt(session.public_key, message, rng)))
            jobs.append((session, pairs))

        def worker_for(session, pairs):
            def worker():
                for message, ciphertext in pairs:
                    record = session.serve_decrypt(ciphertext)
                    assert record.plaintext == message

            return worker

        run_in_threads([worker_for(s, p) for s, p in jobs])

        for session, pairs in jobs:
            assert session.requests_served == REQUESTS_PER_SESSION
            assert session.next_period == REQUESTS_PER_SESSION
        assert registry.resident_count() == SESSIONS

    def test_snapshot_stays_consistent_during_churn(self, tmp_path):
        """A reader polling ``snapshot()`` while writers create, serve,
        and evict must never observe a violated invariant."""
        registry = SessionRegistry(tmp_path, capacity=4)
        stop = threading.Event()

        def churn(base):
            def worker():
                rng = random.Random(base)
                for i in range(6):
                    name = f"k{base}-{i}"
                    session = registry.create("t", name, seed=base * 100 + i)
                    scheme = DLR(session.public_key.params)
                    message = session.group.random_gt(rng)
                    ciphertext = scheme.encrypt(session.public_key, message, rng)
                    try:
                        session.serve_decrypt(ciphertext)
                    except Exception:
                        # The LRU sweep may evict this session between
                        # create and serve; staleness is the reader's
                        # churn, not a consistency violation.
                        pass

            return worker

        observations = []

        def reader():
            while not stop.is_set():
                snap = registry.snapshot()
                observations.append(snap)
                assert snap["resident_count"] == len(snap["resident"])
                assert snap["resident_count"] <= snap["capacity"]
                names = [f"{r['tenant']}/{r['key']}" for r in snap["resident"]]
                assert names == sorted(names)
                assert len(set(names)) == len(names)
                for row in snap["resident"]:
                    assert row["next_period"] >= 0
                    assert row["requests_served"] >= 0

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        try:
            run_in_threads([churn(base) for base in range(1, 4)])
        finally:
            stop.set()
            reader_thread.join()
        assert observations, "reader never got a snapshot in"
        # Conservation: every created session is either resident or on disk.
        assert len(registry.known_keys()) == 18

    def test_eviction_churn_loses_no_periods(self, tmp_path):
        """Aggressive capacity (2 slots, 6 keys) forces constant
        evict/rehydrate churn; each key's on-disk period counter must
        still land exactly on its request count."""
        registry = SessionRegistry(tmp_path, capacity=2)
        keys = [f"k{i}" for i in range(6)]
        for i, name in enumerate(keys):
            registry.create("t", name, seed=i)

        def worker_for(name, base):
            def worker():
                rng = random.Random(base)
                for _ in range(REQUESTS_PER_SESSION):
                    while True:
                        try:
                            session = registry.get("t", name)
                        except AdmissionRejected:
                            continue  # all slots busy; try again
                        scheme = DLR(session.public_key.params)
                        message = session.group.random_gt(rng)
                        ciphertext = scheme.encrypt(session.public_key, message, rng)
                        try:
                            record = session.serve_decrypt(ciphertext)
                        except StaleSessionError:
                            continue  # evicted between lookup and lock
                        break
                    assert record.plaintext == message

            return worker

        # Serve each key from its own thread; only 2 can be resident.
        workers = [worker_for(name, 10 + i) for i, name in enumerate(keys)]
        run_in_threads(workers)
        # No period lost or double-committed despite the churn: each
        # key's durable counter lands exactly on its request count.
        for name in keys:
            assert registry.get("t", name).next_period == REQUESTS_PER_SESSION


class TestServiceLoopback:
    def test_three_workers_eight_sessions_zero_lost_increments(self, tmp_path):
        """The ISSUE acceptance run: 3 workers, 8 concurrent client
        streams (one session each), exact metric balance at the end."""
        registry = SessionRegistry(tmp_path, capacity=SESSIONS)
        with KeyService(registry, workers=3, client_timeout=30.0) as service:

            def stream(i):
                def worker():
                    with ServiceClient(service.address, timeout=30.0) as client:
                        pk = client.open_key("t", f"k{i}", seed=i)
                        rng = random.Random(500 + i)
                        for _ in range(REQUESTS_PER_SESSION):
                            message = pk.group.random_gt(rng)
                            recovered, _ = client.encrypt_and_decrypt(
                                "t", f"k{i}", message, rng
                            )
                            assert recovered == message

                return worker

            run_in_threads([stream(i) for i in range(SESSIONS)])

            metrics = service.metrics
            assert (
                metrics.counter_value("service.requests", op="open", outcome="ok")
                == SESSIONS
            )
            assert (
                metrics.counter_value("service.requests", op="decrypt", outcome="ok")
                == SESSIONS * REQUESTS_PER_SESSION
            )
            assert metrics.counter_value("service.sessions_created") == SESSIONS
            assert metrics.gauge("service.sessions_active").value == SESSIONS
            snap = registry.snapshot()
            assert snap["resident_count"] == SESSIONS
            for row in snap["resident"]:
                assert row["requests_served"] == REQUESTS_PER_SESSION
                assert row["next_period"] == REQUESTS_PER_SESSION
            # Latency histogram observed every request exactly once
            # (merged across the per-tenant series).
            decrypt_hist = metrics.merged_histogram(
                "service.request_seconds", op="decrypt"
            ).to_dict()
            assert decrypt_hist["count"] == SESSIONS * REQUESTS_PER_SESSION
            # An unloaded loopback run never rejects, times out, sheds,
            # expires a deadline or replays: a nonzero count means the
            # admission or retry plumbing fired with no reason to.
            assert metrics.counter_value("service.rejections") == 0
            assert metrics.counter_value("service.client_timeouts") == 0
            sheds = metrics.counters_named("service.sheds")
            assert sum(counter.value for _labels, counter in sheds) == 0
            assert metrics.counter_value("service.deadline_exceeded") == 0
            assert metrics.counter_value("service.replayed_decrypts") == 0
        # Shutdown evicted everything; the gauge must balance to zero, and
        # the drain checkpointed every resident session.
        assert metrics.gauge("service.sessions_active").value == 0
        assert metrics.counter_value("service.drain_checkpoint_failures") == 0

    def test_two_clients_one_key_serialized_not_corrupted(self, tmp_path):
        """Contending clients on the *same* key are serialized by the
        session lock: both see correct plaintexts, periods interleave
        without gaps or duplicates."""
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=3, client_timeout=30.0) as service:
            with ServiceClient(service.address, timeout=30.0) as opener:
                opener.open_key("t", "shared", seed=42)
            periods = []
            periods_lock = threading.Lock()

            def contender(i):
                def worker():
                    with ServiceClient(service.address, timeout=30.0) as client:
                        pk = client.public_key("t", "shared")
                        rng = random.Random(i)
                        for _ in range(3):
                            message = pk.group.random_gt(rng)
                            recovered, period = client.encrypt_and_decrypt(
                                "t", "shared", message, rng
                            )
                            assert recovered == message
                            with periods_lock:
                                periods.append(period)

                return worker

            run_in_threads([contender(i) for i in range(2)])
        assert sorted(periods) == list(range(6))


class TestLoopUnderSwitching:
    def test_pipelined_bursts_answered_in_order_and_counted_once(self, tmp_path):
        """More client threads than cores, a short switch interval, and
        each client writes a burst of frames before reading: the loop
        answers every frame once, in order, alternating inline ops and
        pool ops on one connection."""
        clients, bursts, burst = 6, 5, 4
        registry = SessionRegistry(tmp_path, capacity=4)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with KeyService(registry, workers=4, client_timeout=30.0) as service:
                registry.create("t", "k", seed=1)

                def stream():
                    with socket.create_connection(service.address, timeout=30.0) as sock:
                        for _ in range(bursts):
                            ops = ["ping", "describe"] * (burst // 2)
                            sock.sendall(
                                b"".join(
                                    encode_frame({"op": op, "tenant": "t", "key": "k"}, b"")
                                    for op in ops
                                )
                            )
                            for op in ops:
                                header, _ = recv_frame(sock, "client", timeout=30.0)
                                assert header["ok"] is True
                                assert ("next_period" in header) == (op == "describe")

                run_in_threads([stream] * clients)
            # Counted once each; stop() waited for every worker.
            assert service.requests_handled == clients * bursts * burst
        finally:
            sys.setswitchinterval(previous)

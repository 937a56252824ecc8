"""The resilience layer: deadlines, shedding, replay cache, retrying client."""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from repro.core.dlr import DLR
from repro.errors import (
    DeadlineExceeded,
    ParameterError,
    PeerDisconnected,
    RetryExhausted,
    ServiceError,
    ServiceOverloaded,
    TransportTimeout,
    WireFormatError,
)
from repro.protocol.transport import encode_frame, recv_frame
from repro.runtime.policy import RetryPolicy
from repro.service import (
    Deadline,
    KeyService,
    ResponseCache,
    ServiceClient,
    SessionRegistry,
)
from repro.service.resilience import (
    deadline_from_header,
    find_deadline_exceeded,
    is_idempotent,
    validated_request_id,
)
from repro.utils import persist


class TestDeadline:
    def test_after_counts_down_on_the_given_clock(self):
        now = [0.0]
        deadline = Deadline.after(1.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(1.0)
        assert not deadline.expired
        now[0] = 2.0
        assert deadline.expired
        assert deadline.remaining() == pytest.approx(-1.0)

    def test_negative_budget_is_clamped_to_already_expired(self):
        deadline = Deadline.after(-5.0, clock=lambda: 0.0)
        assert deadline.expired

    def test_check_raises_typed_with_location(self):
        deadline = Deadline.after(0.0, clock=lambda: 10.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("at admission")
        assert excinfo.value.code == "deadline-exceeded"
        assert "at admission" in str(excinfo.value)

    def test_step_hook_names_the_protocol_step(self):
        deadline = Deadline(at=0.0, clock=lambda: 1.0)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.step_hook("dec1")
        assert "protocol step 'dec1'" in str(excinfo.value)

    def test_header_parse_absent_is_none(self):
        assert deadline_from_header({"op": "decrypt"}) is None

    def test_header_parse_accepts_numbers(self):
        deadline = deadline_from_header({"deadline": 2}, clock=lambda: 0.0)
        assert deadline.remaining() == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", ["soon", True, None, -1.0, [3]])
    def test_header_parse_rejects_malformed(self, bad):
        header = {"deadline": bad}
        if bad is None:
            assert deadline_from_header(header) is None
            return
        with pytest.raises(WireFormatError):
            deadline_from_header(header)

    def test_find_deadline_exceeded_walks_the_cause_chain(self):
        root = DeadlineExceeded("too late", where="step")
        try:
            try:
                raise root
            except DeadlineExceeded as inner:
                raise RuntimeError("rollback wrapper") from inner
        except RuntimeError as wrapped:
            assert find_deadline_exceeded(wrapped) is root
        assert find_deadline_exceeded(RuntimeError("unrelated")) is None


class TestIdempotencyMatrix:
    @pytest.mark.parametrize("op", ["ping", "describe", "stats", "health"])
    def test_light_reads_are_idempotent(self, op):
        assert is_idempotent(op, {})

    @pytest.mark.parametrize("op", ["open", "refresh", "evict", "decrypt"])
    def test_mutating_ops_are_not(self, op):
        assert not is_idempotent(op, {})

    def test_decrypt_with_request_id_is_idempotent(self):
        assert is_idempotent("decrypt", {"request_id": "abc-1"})

    @pytest.mark.parametrize("bad", [None, "", 123, "x" * 200])
    def test_request_id_validation(self, bad):
        with pytest.raises(ParameterError):
            validated_request_id(bad)
        assert validated_request_id("ok-1") == "ok-1"


class TestResponseCache:
    def test_round_trip_and_miss(self):
        cache = ResponseCache(4)
        cache.put(("t", "k", "r1"), {"period": 0}, b"bits")
        assert cache.get(("t", "k", "r1")) == ({"period": 0}, b"bits")
        assert cache.get(("t", "k", "r2")) is None

    def test_lru_bound_evicts_oldest(self):
        cache = ResponseCache(2)
        cache.put(("a",), {}, b"1")
        cache.put(("b",), {}, b"2")
        assert cache.get(("a",)) is not None  # refresh recency
        cache.put(("c",), {}, b"3")
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) is not None
        assert len(cache) == 2

    def test_put_copies_fields(self):
        cache = ResponseCache(2)
        fields = {"period": 0}
        cache.put(("a",), fields, b"")
        fields["period"] = 99
        assert cache.get(("a",))[0] == {"period": 0}

    def test_capacity_validated(self):
        with pytest.raises(ParameterError):
            ResponseCache(0)

    def test_claim_refuses_a_duplicate_until_put_or_release(self):
        cache = ResponseCache(2)
        assert cache.claim(("a",)) is None  # the caller now holds the claim
        with pytest.raises(ServiceOverloaded) as excinfo:
            cache.claim(("a",))
        assert excinfo.value.retry_after > 0
        cache.put(("a",), {"period": 0}, b"1")
        assert cache.claim(("a",)) == ({"period": 0}, b"1")
        assert cache.claim(("b",)) is None
        cache.release(("b",))
        assert cache.claim(("b",)) is None  # a failed request's retry runs


def _ciphertext_envelope(public_key, rng):
    message = public_key.group.random_gt(rng)
    ciphertext = DLR(public_key.params).encrypt(public_key, message, rng)
    return message, persist.dumps("ciphertext", ciphertext).encode("utf-8")


class TestDeadlineOverWire:
    def test_expired_deadline_answered_at_admission(self, service, client):
        client.open_key("acme", "dl", seed=1)
        header, _ = client.request("refresh", tenant="acme", key="dl", deadline=0.0)
        assert header["ok"] is False
        assert header["code"] == "deadline-exceeded"
        assert service.metrics.counter_value("service.deadline_exceeded") == 1
        # nothing ran: the key's period counter never moved
        assert service.registry.get("acme", "dl").next_period == 0

    def test_light_ops_ignore_the_deadline_gate(self, client):
        header, _ = client.request("ping", deadline=0.0)
        assert header["ok"] is True

    def test_malformed_deadline_is_bad_request(self, client):
        client.open_key("acme", "mal", seed=2)
        header, _ = client.request("refresh", tenant="acme", key="mal", deadline="soon")
        assert header["code"] == "bad-request"

    def test_mid_protocol_expiry_rolls_back_and_stays_serviceable(self, registry):
        session = registry.create("acme", "mid", seed=7)
        rng = random.Random(1)
        message = session.public_key.group.random_gt(rng)
        ciphertext = DLR(session.public_key.params).encrypt(
            session.public_key, message, rng
        )
        # A clock that survives the lock-wait check, then jumps past the
        # deadline before the first protocol step.
        calls = {"n": 0}

        def clock():
            calls["n"] += 1
            return 0.0 if calls["n"] <= 1 else 100.0

        with pytest.raises(DeadlineExceeded) as excinfo:
            session.serve_decrypt(ciphertext, deadline=Deadline(at=1.0, clock=clock))
        assert "protocol step" in str(excinfo.value)
        # The period rolled back cleanly: nothing committed, nothing
        # frozen, and the step hook did not leak onto the transport.
        assert session.next_period == 0
        assert not session.frozen
        assert session.supervisor.transport.step_hook is None
        record = session.serve_decrypt(ciphertext)
        assert record.period == 0
        assert session.next_period == 1

    def test_expiry_while_waiting_for_the_session_lock(self, registry):
        session = registry.create("acme", "queue", seed=8)
        rng = random.Random(2)
        message = session.public_key.group.random_gt(rng)
        ciphertext = DLR(session.public_key.params).encrypt(
            session.public_key, message, rng
        )
        with pytest.raises(DeadlineExceeded) as excinfo:
            session.serve_decrypt(ciphertext, deadline=Deadline.after(0.0))
        assert "session lock" in str(excinfo.value)
        assert session.next_period == 0


class TestReplayCache:
    def test_same_request_id_replays_instead_of_burning_a_period(
        self, service, client, registry
    ):
        client.open_key("acme", "rk", seed=3)
        public_key = client.public_key("acme", "rk")
        message, envelope = _ciphertext_envelope(public_key, random.Random(9))
        first, body1 = client.request(
            "decrypt", envelope, tenant="acme", key="rk", request_id="req-1"
        )
        assert first["ok"] is True and "replayed" not in first
        second, body2 = client.request(
            "decrypt", envelope, tenant="acme", key="rk", request_id="req-1"
        )
        assert second["ok"] is True
        assert second["replayed"] is True
        assert second["period"] == first["period"] == 0
        assert body2 == body1
        assert service.metrics.counter_value("service.replayed_decrypts") == 1
        # only one period (and one leakage charge) was burned
        assert registry.get("acme", "rk").next_period == 1

    def test_without_request_id_each_call_burns_a_period(
        self, service, client, registry
    ):
        client.open_key("acme", "nr", seed=4)
        public_key = client.public_key("acme", "nr")
        _, envelope = _ciphertext_envelope(public_key, random.Random(10))
        for expected_period in (0, 1):
            header, _ = client.request("decrypt", envelope, tenant="acme", key="nr")
            assert header["ok"] is True
            assert header["period"] == expected_period
        assert registry.get("acme", "nr").next_period == 2

    def test_duplicate_in_flight_is_refused_not_run(self, tmp_path):
        """Two concurrent decrypts with one request id burn one period:
        the one that finds the id claimed is answered ``overloaded`` and
        its retry replays the original's response."""
        registry = SessionRegistry(tmp_path / "state", capacity=4)
        with KeyService(registry, workers=2, client_timeout=10.0) as service:
            with ServiceClient(service.address, timeout=10.0) as setup:
                public_key = setup.open_key("acme", "dup", seed=5)
            message, envelope = _ciphertext_envelope(public_key, random.Random(11))
            clients = [
                ServiceClient(service.address, timeout=10.0, retry=None)
                for _ in range(2)
            ]
            answers: list[tuple[ServiceClient, dict]] = []
            answered = threading.Condition()

            def send(client):
                header, _ = client.request(
                    "decrypt", envelope, tenant="acme", key="dup", request_id="dup-1"
                )
                with answered:
                    answers.append((client, header))
                    answered.notify_all()

            session = registry.get("acme", "dup")
            session.lock.acquire()  # whichever decrypt runs first waits here
            held = True
            threads = [threading.Thread(target=send, args=(c,)) for c in clients]
            try:
                for thread in threads:
                    thread.start()
                with answered:
                    assert answered.wait_for(lambda: answers, timeout=5.0), (
                        "the duplicate waited behind the original"
                    )
                refused_client, refused = answers[0]
                assert refused["ok"] is False
                assert refused["code"] == "overloaded"
                assert refused["retry-after"] > 0
                session.lock.release()
                held = False
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                original = next(h for c, h in answers if c is not refused_client)
                assert original["ok"] is True and original["period"] == 0

                retry, body = refused_client.request(
                    "decrypt", envelope, tenant="acme", key="dup", request_id="dup-1"
                )
                assert retry["ok"] is True
                assert retry["replayed"] is True
                assert retry["period"] == 0
                assert body == message.to_bits().to_bytes()
            finally:
                if held:
                    session.lock.release()
                for client in clients:
                    client.close()
            assert service.metrics.counter_value("service.replayed_decrypts") == 1
            assert registry.get("acme", "dup").next_period == 1

    def test_a_failed_request_releases_its_request_id(self, client, registry):
        public_key = client.open_key("acme", "rel", seed=6)
        message, envelope = _ciphertext_envelope(public_key, random.Random(12))
        header, _ = client.request(
            "decrypt", b"not a ciphertext", tenant="acme", key="rel", request_id="r-9"
        )
        assert header["code"] == "bad-request"
        header, body = client.request(
            "decrypt", envelope, tenant="acme", key="rel", request_id="r-9"
        )
        assert header["ok"] is True and "replayed" not in header
        assert body == message.to_bits().to_bytes()
        assert registry.get("acme", "rel").next_period == 1

    @pytest.mark.parametrize("bad", [123, "", "x" * 200])
    def test_invalid_request_id_is_bad_request(self, client, bad):
        header, _ = client.request(
            "decrypt", b"{}", tenant="acme", key="missing", request_id=bad
        )
        assert header["code"] == "bad-request"


class TestStaleGroupRegression:
    def test_decode_runs_inside_the_reresolve_loop(
        self, service, client, registry, monkeypatch
    ):
        """An eviction between lookup and decode must not hand the
        rehydrated session a ciphertext decoded for its evicted twin."""
        client.open_key("acme", "stale", seed=5)
        public_key = client.public_key("acme", "stale")
        message, envelope = _ciphertext_envelope(public_key, random.Random(11))

        import repro.service.server as server_mod

        decoded_into = []
        real_loads = server_mod.persist.loads

        def spying_loads(text, group=None):
            decoded_into.append(group)
            return real_loads(text, group)

        monkeypatch.setattr(server_mod.persist, "loads", spying_loads)

        resolved = []
        real_get = registry.get

        def racing_get(tenant, key_id):
            session = real_get(tenant, key_id)
            resolved.append(session)
            if len(resolved) == 1:
                # The LRU sweep wins the race: the object the worker
                # holds is evicted before it can take the session lock.
                registry.evict(tenant, key_id)
            return session

        monkeypatch.setattr(registry, "get", racing_get)

        fields, body = service._op_decrypt(
            {"op": "decrypt", "tenant": "acme", "key": "stale", "request_id": "r-1"},
            envelope,
        )
        assert fields["period"] == 0
        # The stale resolve was decoded-then-abandoned; the decode ran
        # again against the session that actually served.
        assert len(resolved) == 2 and resolved[1] is not resolved[0]
        assert len(decoded_into) == 2
        assert decoded_into[1] is resolved[1].group


def _wait_until(predicate, *, timeout: float = 5.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {message}"
        time.sleep(0.01)


class TestLoadShedding:
    def test_overload_serves_light_ops_and_sheds_heavy(self, tmp_path):
        registry = SessionRegistry(tmp_path / "state", capacity=8)
        service = KeyService(registry, workers=1, backlog=1, client_timeout=5.0)
        held = False
        threads: list[threading.Thread] = []
        try:
            service.start()
            with ServiceClient(service.address, timeout=5.0) as setup:
                public_key = setup.open_key("acme", "busy", seed=1)
            session = registry.get("acme", "busy")
            # Hold the key's lock: one decrypt runs on the lone worker and
            # one waits for it -- workers + backlog heavy requests.
            session.lock.acquire()
            held = True
            recovered: list[bool] = []

            def decrypt(seed):
                message, envelope = _ciphertext_envelope(public_key, random.Random(seed))
                with ServiceClient(service.address, timeout=10.0, retry=None) as c:
                    header, body = c.request("decrypt", envelope, tenant="acme", key="busy")
                recovered.append(header["ok"] and body == message.to_bits().to_bytes())

            threads = [threading.Thread(target=decrypt, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            _wait_until(
                lambda: service.health_status() == "overloaded",
                message="the heavy queue to fill",
            )
            with ServiceClient(service.address, timeout=5.0, retry=None) as light:
                # Light ops still answered: health stays observable.
                assert light.ping()
                assert light.health()["status"] == "overloaded"
                # Heavy ops shed with the typed code and a backoff hint.
                header, _ = light.request(
                    "open", tenant="acme", key="shed", scheme="dlr", seed=1
                )
                assert header["code"] == "overloaded"
                assert header["retry-after"] > 0
                with pytest.raises(ServiceError) as excinfo:
                    light.open_key("acme", "shed2", seed=2)
                assert excinfo.value.code == "overloaded"
                assert (
                    service.metrics.counter_value("service.sheds", mode="overload") >= 2
                )
            # Load gone: the queued work completes, the service recovers
            # to ready and serves again.
            session.lock.release()
            held = False
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert recovered == [True, True]
            _wait_until(
                lambda: service.health_status() == "ready",
                message="the workers to hand their connections back",
            )
            with ServiceClient(service.address, timeout=5.0) as healthy:
                assert healthy.health()["status"] == "ready"
                healthy.open_key("acme", "after", seed=3)
        finally:
            if held:
                session.lock.release()
            for thread in threads:
                thread.join(timeout=30.0)
            service.stop()


class _StubServer:
    """A scripted frame server for client-behavior tests.

    ``script`` is consumed one entry per received request: ``"close"``
    drops the connection without answering; a dict is sent as the
    response header.  When the script runs out, ``final`` applies to
    every further request.  Received headers are recorded.
    """

    def __init__(self, script, final=None):
        self.script = list(script)
        self.final = final if final is not None else {"ok": True}
        self.received: list[dict] = []
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.2)
        self.address = self._listener.getsockname()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _next_action(self, header):
        with self._lock:
            self.received.append(header)
            return self.script.pop(0) if self.script else self.final

    def _run(self):
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            connection.settimeout(5.0)
            try:
                while True:
                    header, _ = recv_frame(connection, "stub", timeout=5.0)
                    action = self._next_action(header)
                    if action == "close":
                        break
                    connection.sendall(encode_frame(dict(action), b""))
            except Exception:
                pass
            finally:
                connection.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stopping.set()
        self._thread.join()
        self._listener.close()


def _fast_policy(attempts: int = 4) -> RetryPolicy:
    # Nonzero base so backoffs are observable via the injected sleep
    # (a zero pause is skipped); the sleep itself is a recorder, so no
    # test actually waits.
    return RetryPolicy(max_attempts=attempts, base_backoff=0.01, jitter=0.0)


class TestClientClassification:
    def test_stalled_server_surfaces_as_transport_timeout(self):
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            with ServiceClient(
                listener.getsockname(), timeout=0.3, retry=None
            ) as client:
                with pytest.raises(TransportTimeout):
                    client.request("ping")
        finally:
            listener.close()

    def test_dropped_connection_surfaces_as_peer_disconnected(self):
        with _StubServer(["close"]) as stub:
            with ServiceClient(stub.address, timeout=5.0, retry=None) as client:
                with pytest.raises(PeerDisconnected):
                    client.request("ping")

    def test_refused_connection_surfaces_as_peer_disconnected(self):
        probe = socket.create_server(("127.0.0.1", 0))
        address = probe.getsockname()
        probe.close()
        with pytest.raises(PeerDisconnected):
            ServiceClient(address, timeout=1.0, retry=None)


class TestRetryingClient:
    def test_idempotent_op_reconnects_and_replays(self):
        sleeps: list[float] = []
        with _StubServer(["close", "close"]) as stub:
            with ServiceClient(
                stub.address,
                timeout=5.0,
                retry=_fast_policy(),
                retry_seed=7,
                sleep=sleeps.append,
            ) as client:
                assert client.ping()
        assert len(sleeps) == 2  # two drops, two backoffs, then success
        assert [h["op"] for h in stub.received] == ["ping", "ping", "ping"]

    def test_retry_exhausted_carries_the_attempt_history(self):
        with _StubServer([], final="close") as stub:
            with ServiceClient(
                stub.address,
                timeout=5.0,
                retry=_fast_policy(3),
                retry_seed=7,
                sleep=lambda _s: None,
            ) as client:
                with pytest.raises(RetryExhausted) as excinfo:
                    client.ping()
        error = excinfo.value
        assert error.code == "connection-lost"
        assert error.op == "ping"
        assert len(error.attempts) == 3
        assert all(a["fault"] == "PeerDisconnected" for a in error.attempts)

    def test_non_idempotent_op_is_never_replayed_after_a_drop(self):
        with _StubServer([], final="close") as stub:
            with ServiceClient(
                stub.address, timeout=5.0, retry=_fast_policy(), retry_seed=7
            ) as client:
                with pytest.raises(RetryExhausted) as excinfo:
                    client.call("open", tenant="acme", key="k", scheme="dlr")
        assert len(excinfo.value.attempts) == 1
        assert "non-idempotent" in str(excinfo.value)
        assert [h["op"] for h in stub.received] == ["open"]

    def test_retryable_code_retried_for_any_op_honoring_retry_after(self):
        sleeps: list[float] = []
        shed = {
            "ok": False,
            "code": "overloaded",
            "error": "saturated",
            "retry-after": 0.07,
        }
        with _StubServer([shed]) as stub:
            with ServiceClient(
                stub.address,
                timeout=5.0,
                retry=_fast_policy(),
                retry_seed=7,
                sleep=sleeps.append,
            ) as client:
                # open is non-idempotent, but a shed guarantees nothing
                # ran server-side, so the retry is safe.
                header, _ = client.call("open", tenant="acme", key="k")
        assert header["ok"] is True
        assert sleeps == [pytest.approx(0.07)]

    def test_deadline_is_stamped_and_restamped_with_remaining_budget(self):
        shed = {"ok": False, "code": "draining", "error": "bye", "retry-after": 0.0}
        with _StubServer([shed]) as stub:
            with ServiceClient(
                stub.address,
                timeout=5.0,
                retry=_fast_policy(),
                retry_seed=7,
                sleep=lambda _s: None,
            ) as client:
                client.call("ping", deadline=5.0)
        first, second = stub.received
        assert 0.0 <= second["deadline"] <= first["deadline"] <= 5.0

    def test_exhausted_deadline_stops_retries(self):
        shed = {"ok": False, "code": "overloaded", "error": "saturated"}
        with _StubServer([], final=shed) as stub:
            with ServiceClient(
                stub.address,
                timeout=5.0,
                retry=_fast_policy(),
                retry_seed=7,
                sleep=lambda _s: None,
            ) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.call("ping", deadline=0.0)
        assert excinfo.value.code == "overloaded"
        # one attempt: the budget was already gone, so no retry happened
        assert len(stub.received) == 1

    def test_retry_disabled_surfaces_the_first_failure(self):
        with _StubServer(["close"]) as stub:
            with ServiceClient(stub.address, timeout=5.0, retry=None) as client:
                with pytest.raises(RetryExhausted) as excinfo:
                    client.call("ping")
        assert len(excinfo.value.attempts) == 1

    def test_request_ids_are_deterministic_under_a_seed(self):
        with _StubServer([]) as stub:
            with ServiceClient(stub.address, retry_seed=42) as one, ServiceClient(
                stub.address, retry_seed=42
            ) as two, ServiceClient(stub.address, retry_seed=43) as other:
                assert one.next_request_id() == two.next_request_id()
                assert one.next_request_id() != other.next_request_id()

    def test_unseeded_clients_never_share_request_ids(self):
        """Two unseeded clients on one key must not collide in the
        replay cache (one would be answered with the other's plaintext)."""
        with _StubServer([]) as stub:
            with ServiceClient(stub.address) as one, ServiceClient(stub.address) as two:
                assert one.next_request_id() != two.next_request_id()

"""KeyService wire behavior: error codes, rejection, silent clients."""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro.errors import AdmissionRejected, ServiceError
from repro.protocol.transport import encode_frame, recv_frame
from repro.service import KeyService, ServiceClient, SessionKey, SessionRegistry


class TestRequestErrors:
    def test_ping(self, client):
        assert client.ping()

    def test_unknown_op_is_bad_request(self, client):
        header, _ = client.request("frobnicate")
        assert header["ok"] is False
        assert header["code"] == "bad-request"

    def test_unknown_key_code(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.describe("acme", "missing")
        assert excinfo.value.code == "unknown-key"

    def test_invalid_tenant_name_is_bad_request(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("describe", tenant="../escape", key="k")
        assert excinfo.value.code == "bad-request"

    def test_duplicate_open_is_bad_request(self, client):
        client.open_key("acme", "dup", seed=1)
        with pytest.raises(ServiceError) as excinfo:
            client.open_key("acme", "dup", seed=1)
        assert excinfo.value.code == "bad-request"

    def test_garbage_ciphertext_is_bad_request(self, client):
        client.open_key("acme", "k", seed=1)
        with pytest.raises(ServiceError) as excinfo:
            client.call("decrypt", b"not json at all", tenant="acme", key="k")
        assert excinfo.value.code == "bad-request"

    def test_worker_survives_errors(self, client):
        """The same connection keeps serving after failed requests."""
        for _ in range(3):
            header, _ = client.request("nope")
            assert header["code"] == "bad-request"
        assert client.ping()

    def test_corrupt_checkpoint_code(self, service, client, registry):
        client.open_key("acme", "hurt", seed=1)
        assert client.evict("acme", "hurt")
        path = registry.checkpoint_path(SessionKey("acme", "hurt"))
        path.write_text("{ truncated")
        with pytest.raises(ServiceError) as excinfo:
            client.describe("acme", "hurt")
        assert excinfo.value.code == "checkpoint-corrupt"


    @pytest.mark.parametrize("damage", ["gt-element", "not-utf8", "next-period", "scheme"])
    def test_damaged_checkpoint_code(self, client, registry, damage):
        client.open_key("acme", "hurt", seed=1)
        assert client.evict("acme", "hurt")
        path = registry.checkpoint_path(SessionKey("acme", "hurt"))
        data = json.loads(path.read_text())
        if damage == "gt-element":
            data["public_key"]["z"] = "0" * len(data["public_key"]["z"])
        elif damage == "next-period":
            data["next_period"] = -1
        elif damage == "scheme":
            data["scheme"] = "mystery"
        text = json.dumps(data).encode("utf-8")
        path.write_bytes(b"\xff" + text if damage == "not-utf8" else text)
        with pytest.raises(ServiceError) as excinfo:
            client.describe("acme", "hurt")
        assert excinfo.value.code == "checkpoint-corrupt"


class TestRejection:
    def test_frozen_session_rejected_over_wire(self, service, client, registry):
        client.open_key("acme", "cold", seed=1)
        registry.get("acme", "cold").supervisor.frozen = True
        pk = client.public_key("acme", "cold")
        rng = random.Random(5)
        message = pk.group.random_gt(rng)
        with pytest.raises(AdmissionRejected) as excinfo:
            client.encrypt_and_decrypt("acme", "cold", message, rng)
        assert excinfo.value.code == "rejected"
        assert "frozen" in excinfo.value.reason
        assert service.metrics.counter_value("service.rejections") == 1


class TestSilentClient:
    def test_silent_client_times_out_and_frees_the_worker(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=1, client_timeout=0.5) as service:
            # A mute connection parks the single worker...
            mute = socket.create_connection(service.address, timeout=5.0)
            try:
                # ...until the client timeout drops it: the *same lone
                # worker* must come back and serve a real client.
                with ServiceClient(service.address, timeout=5.0) as real:
                    assert real.ping()
                # The server closed the mute connection on its side.
                mute.settimeout(5.0)
                assert mute.recv(1) == b""
            finally:
                mute.close()
            assert service.metrics.counter_value("service.client_timeouts") == 1

    def test_half_frame_then_silence_is_dropped(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=2, client_timeout=0.5) as service:
            torn = socket.create_connection(service.address, timeout=5.0)
            try:
                frame = encode_frame({"op": "ping"}, b"")
                torn.sendall(frame[: len(frame) // 2])  # half a request, then silence
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if service.metrics.counter_value("service.client_timeouts"):
                        break
                    time.sleep(0.05)
                assert service.metrics.counter_value("service.client_timeouts") == 1
            finally:
                torn.close()


class TestIdleConnections:
    """Connections that send nothing, or half a frame, hold no worker."""

    def test_idle_keepalive_clients_do_not_delay_a_ping(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=4, client_timeout=30.0) as service:
            idle = [ServiceClient(service.address, timeout=5.0) for _ in range(4)]
            try:
                for keepalive in idle:
                    assert keepalive.ping()  # then parked between requests
                with ServiceClient(service.address, timeout=2.0, retry=None) as fifth:
                    assert fifth.ping()
                    with pytest.raises(ServiceError) as excinfo:
                        fifth.describe("acme", "missing")  # a pool op
                    assert excinfo.value.code == "unknown-key"
            finally:
                for keepalive in idle:
                    keepalive.close()

    def test_half_frame_sender_does_not_delay_other_clients(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=1, client_timeout=30.0) as service:
            torn = socket.create_connection(service.address, timeout=5.0)
            try:
                frame = encode_frame({"op": "ping"}, b"")
                torn.sendall(frame[: len(frame) // 2])
                with ServiceClient(service.address, timeout=2.0, retry=None) as other:
                    assert other.ping()
                    with pytest.raises(ServiceError) as excinfo:
                        other.describe("acme", "missing")
                    assert excinfo.value.code == "unknown-key"
                # The torn request completes late and is still answered.
                torn.sendall(frame[len(frame) // 2 :])
                header, _ = recv_frame(torn, "client", timeout=5.0)
                assert header == {"ok": True}
            finally:
                torn.close()
            assert service.metrics.counter_value("service.client_timeouts") == 0


class TestLightOpsDuringRegistryWork:
    """The loop answers ``health``, ``stats`` and ``ping`` itself, so
    none of them may wait on a registry writer."""

    def test_light_ops_answer_while_an_evict_waits_on_a_busy_key(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with KeyService(registry, workers=2, client_timeout=30.0) as service:
            with ServiceClient(service.address, timeout=30.0) as opener:
                opener.open_key("acme", "busy", seed=1)
            session = registry.get("acme", "busy")
            # A request in flight on the key: the evict below occupies a
            # worker while it waits for this session lock.
            session.lock.acquire()
            evicted: list[bool] = []

            def evict():
                with ServiceClient(service.address, timeout=30.0, retry=None) as a:
                    evicted.append(a.evict("acme", "busy"))

            thread = threading.Thread(target=evict)
            try:
                thread.start()
                deadline = time.monotonic() + 10.0
                with ServiceClient(service.address, timeout=2.0, retry=None) as c:
                    while c.health()["busy_workers"] < 1:
                        assert time.monotonic() < deadline, "evict never started"
                        time.sleep(0.01)
                for op in ("health", "stats", "ping"):
                    with ServiceClient(service.address, timeout=2.0, retry=None) as c:
                        start = time.monotonic()
                        getattr(c, op)()
                        assert time.monotonic() - start < 0.5, op
            finally:
                session.lock.release()
                thread.join(30.0)
            assert evicted == [True]
            with ServiceClient(service.address, timeout=5.0) as after:
                assert after.health()["sessions_resident"] == 0


class TestStats:
    def test_stats_roundtrip(self, client):
        client.open_key("acme", "k", seed=1)
        stats = client.stats()
        assert stats["registry"]["resident_count"] == 1
        assert (
            "service.requests{op=open,outcome=ok,tenant=acme}"
            in stats["metrics"]["counters"]
        )
        # The stats request itself is only counted after its response
        # ships, so it sees every *prior* request (here: the open).
        assert stats["requests_handled"] == 1
        # The field arithmetic is always plain ints: nothing to report.
        assert "backend" not in stats
        assert not any(
            gauge.startswith("backend.") for gauge in stats["metrics"]["gauges"]
        )

    def test_health_reports_the_kernel_backend(self, client):
        from repro.groups import native

        health = client.health()
        assert health["kernels"] == native.kernel_backend()
        assert "backend" not in health
        with native._python_kernels():
            assert client.health()["kernels"] == "python"

"""SessionRegistry: lifecycle, eviction/rehydration, admission control."""

from __future__ import annotations

import os
import random
import stat

import pytest

from repro.core.dlr import DLR
from repro.errors import AdmissionRejected, CheckpointError, ParameterError
from repro.leakage.oracle import LeakageBudget, LeakageOracle
from repro.service import SessionRegistry, StaleSessionError
from repro.service.session import ManagedSession, SessionKey


def fresh_session(registry, tenant="acme", key="k1", seed=7):
    return registry.create(tenant, key, seed=seed)


def encrypt_for(session, seed=1):
    rng = random.Random(seed)
    message = session.group.random_gt(rng)
    scheme = DLR(session.public_key.params)
    return message, scheme.encrypt(session.public_key, message, rng)


class TestLifecycle:
    def test_create_serves_decrypts(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        message, ciphertext = encrypt_for(session)
        record = session.serve_decrypt(ciphertext)
        assert record.plaintext == message
        assert record.period == 0
        assert session.next_period == 1

    def test_create_twice_rejected(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        fresh_session(registry)
        with pytest.raises(ParameterError, match="already exists"):
            fresh_session(registry)

    def test_checkpoint_written_at_create(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        assert registry.checkpoint_path(session.key).exists()

    def test_invalid_names_rejected(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        for tenant, key in [("../up", "k"), ("t", "a/b"), ("", "k"), ("t", ".hidden")]:
            with pytest.raises(ParameterError, match="invalid"):
                registry.create(tenant, key)

    def test_unknown_key_raises_keyerror(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        with pytest.raises(KeyError):
            registry.get("acme", "never-created")


class TestDurability:
    def test_serve_decrypt_fsyncs_checkpoint_directory_before_returning(
        self, tmp_path, monkeypatch
    ):
        """A reply leaves only after its period's checkpoint rename is
        durable: the new shares replace the ones that leaked this period,
        and a power loss must not bring those back."""
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        _, ciphertext = encrypt_for(session)
        path = registry.checkpoint_path(session.key)
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                events.append(("dir-fsync", info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        session.serve_decrypt(ciphertext)
        assert ("replace", str(path)) in events
        last_replace = max(
            i for i, event in enumerate(events) if event == ("replace", str(path))
        )
        assert ("dir-fsync", path.parent.stat().st_ino) in events[last_replace + 1 :]


class TestEvictionRehydration:
    def test_evict_then_get_rehydrates_and_continues(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        message, ciphertext = encrypt_for(session)
        session.serve_decrypt(ciphertext)

        assert registry.evict("acme", "k1")
        assert registry.resident_count() == 0

        revived = registry.get("acme", "k1")
        assert revived is not session
        # The refresh preserved pk, so the same ciphertext still decrypts,
        # and the period counter continues where the checkpoint left off.
        record = revived.serve_decrypt(ciphertext)
        assert record.plaintext == message
        assert record.period == 1

    def test_evicted_session_object_is_stale(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        _, ciphertext = encrypt_for(session)
        registry.evict("acme", "k1")
        with pytest.raises(StaleSessionError):
            session.serve_decrypt(ciphertext)

    def test_evict_missing_returns_false(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        assert registry.evict("acme", "nope") is False

    def test_capacity_evicts_lru(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=2)
        a = registry.create("t", "a", seed=1)
        b = registry.create("t", "b", seed=2)
        _, ct = encrypt_for(b)
        b.serve_decrypt(ct)  # a is now least recently used
        registry.create("t", "c", seed=3)
        assert registry.resident_count() == 2
        assert a.evicted
        assert not b.evicted
        # a's state survived on disk and rehydrates on demand
        assert "t/a" in registry.known_keys()
        assert registry.get("t", "a").next_period == 0

    def test_rehydration_counts_in_metrics(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        fresh_session(registry)
        registry.evict("acme", "k1")
        registry.get("acme", "k1")
        assert registry.metrics.counter_value("service.rehydrations") == 1
        assert registry.metrics.counter_value("service.evictions") == 1

    def test_rehydration_decodes_the_checkpoint_once(self, tmp_path, monkeypatch):
        import repro.service.registry as registry_mod
        from repro.groups import preset_params

        loads = []
        real_load = registry_mod.load_checkpoint

        def counting_load(*args, **kwargs):
            loads.append(1)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(registry_mod, "load_checkpoint", counting_load)
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        message, ciphertext = encrypt_for(session)
        registry.evict("acme", "k1")
        revived = registry.get("acme", "k1")
        assert loads == [1]
        # Decoded straight into the preset group: elements interoperate
        # with ciphertexts made against the original session's group.
        assert revived.group.params is preset_params(32)
        assert revived.serve_decrypt(ciphertext).plaintext == message

    def test_corrupt_checkpoint_surfaces_checkpoint_error(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        registry.evict("acme", "k1")
        path = registry.checkpoint_path(session.key)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(CheckpointError):
            registry.get("acme", "k1")

    def test_evict_all_drains(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=8)
        for i in range(3):
            registry.create("t", f"k{i}", seed=i)
        assert registry.evict_all() == 3
        assert registry.resident_count() == 0
        assert registry.metrics.gauge("service.sessions_active").value == 0


class TestAdmissionControl:
    def test_busy_session_rejects_nonblocking_evict(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        with session.lock:
            with pytest.raises(AdmissionRejected, match="busy"):
                registry.evict("acme", "k1", wait=False)

    def test_capacity_with_all_sessions_busy_rejects(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=1)
        session = fresh_session(registry)
        with session.lock:  # resident and mid-request
            with pytest.raises(AdmissionRejected, match="capacity"):
                registry.create("acme", "k2", seed=8)

    def test_exhausted_budget_rejects_before_protocol(self, tmp_path, small_params):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        # Drain P1's current-period budget the way retries would.
        oracle = LeakageOracle(LeakageBudget(b0=0, b1=8, b2=8))
        oracle.charge_retry(1, 8)
        session.supervisor.oracle = oracle
        assert "exhausted" in session.admission_error()
        _, ciphertext = encrypt_for(session)
        with pytest.raises(AdmissionRejected, match="exhausted"):
            session.serve_decrypt(ciphertext)

    def test_frozen_session_rejects_with_reason(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        session.supervisor.frozen = True
        assert "frozen" in session.admission_error()
        _, ciphertext = encrypt_for(session)
        with pytest.raises(AdmissionRejected, match="frozen"):
            session.serve_decrypt(ciphertext)

    def test_healthy_session_admits(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        assert session.admission_error() is None


class TestSnapshot:
    def test_snapshot_shape(self, tmp_path):
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        _, ciphertext = encrypt_for(session)
        session.serve_decrypt(ciphertext)
        snap = registry.snapshot()
        assert snap["capacity"] == 4
        assert snap["resident_count"] == 1
        (row,) = snap["resident"]
        assert row["tenant"] == "acme" and row["key"] == "k1"
        assert row["next_period"] == 1
        assert row["requests_served"] == 1
        assert row["frozen"] is False
        assert set(row["budget_remaining"]) == {"P1", "P2"}
        assert snap["known_keys"] == ["acme/k1"]

    def test_view_is_json_shaped(self, tmp_path):
        import json

        registry = SessionRegistry(tmp_path, capacity=4)
        fresh_session(registry)
        json.dumps(registry.snapshot())  # must not raise


class TestSessionKey:
    def test_ordering_and_str(self):
        assert str(SessionKey("t", "k")) == "t/k"
        assert SessionKey("a", "b") < SessionKey("a", "c") < SessionKey("b", "a")


class TestLogBound:
    def test_long_running_session_keeps_the_log_bounded(self, tmp_path):
        """A served session drops the log rows of committed periods, so
        memory does not grow with the number of requests served."""
        registry = SessionRegistry(tmp_path, capacity=4)
        session = fresh_session(registry)
        message, ciphertext = encrypt_for(session)
        log = session.supervisor.log
        for request in range(200):
            if request % 50 == 49:
                record = session.serve_decrypt_batch([ciphertext, ciphertext])
                assert record.plaintexts == [message, message]
            else:
                assert session.serve_decrypt(ciphertext).plaintext == message
            assert log.attempts == [] and log.periods == []
        assert session.next_period == 200

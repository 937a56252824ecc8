"""Unit + protocol regressions for the DLRIBE extract cache.

The :class:`~repro.ibe.extract_cache.IdentityKeyCache` decides when a
batch extraction may *reuse* device-resident identity shares instead of
re-running the 2-party extraction protocol, and when those shares must
be dropped (LRU bound) or stop being vouched for (identity refresh,
master rotation).  The protocol-level tests here pin the
leakage-ledger-aware invalidation contract from the issue: a cached
token goes stale the moment the identity's shares rotate, and a master
refresh marks *every* cached extraction stale at once.
"""

import random

import pytest

from repro.core.keys import PublicKey
from repro.errors import ParameterError
from repro.ibe.dlr_ibe import DLRIBE, _id_slot
from repro.ibe.extract_cache import IdentityKeyCache
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport

N_ID = 4


@pytest.fixture()
def dibe(small_params):
    return DLRIBE(small_params, n_id=N_ID)


@pytest.fixture()
def setup(dibe):
    return dibe.setup(random.Random(1))


def fresh_devices(dibe, setup, seed=2):
    rng = random.Random(seed)
    p1 = Device("P1", dibe.group, rng)
    p2 = Device("P2", dibe.group, rng)
    dibe.install(p1, p2, setup.share1, setup.share2)
    return p1, p2, InMemoryTransport()


class TestCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ParameterError):
            IdentityKeyCache(0)
        with pytest.raises(ParameterError):
            IdentityKeyCache(-3)

    def test_record_and_lru_order(self):
        cache = IdentityKeyCache(8)
        for name in ("a", "b", "c"):
            assert cache.record(name) is None
        assert cache.identities() == ["a", "b", "c"]
        cache.touch("a")
        assert cache.identities() == ["b", "c", "a"]
        # Touching an absent identity is a no-op, not an insert.
        cache.touch("ghost")
        assert "ghost" not in cache

    def test_eviction_returns_lru_victim(self):
        cache = IdentityKeyCache(2)
        cache.record("a")
        cache.record("b")
        assert cache.record("c") == "a"
        assert cache.identities() == ["b", "c"]
        assert cache.stats()["evictions"] == 1

    def test_re_record_does_not_evict(self):
        cache = IdentityKeyCache(2)
        cache.record("a")
        cache.record("b")
        assert cache.record("a") is None
        assert cache.identities() == ["b", "a"]

    def test_generation_token_staleness(self):
        cache = IdentityKeyCache(4)
        cache.record("alice")
        token = cache.token("alice")
        assert token is not None and cache.is_current(token)
        cache.record("alice")  # rotation mints a new generation
        assert not cache.is_current(token)
        assert cache.is_current(cache.token("alice"))

    def test_epoch_invalidates_everything(self):
        cache = IdentityKeyCache(4)
        cache.record("alice")
        cache.record("bob")
        token = cache.token("bob")
        assert cache.advance_epoch() == 1
        assert not cache.is_fresh("alice")
        assert not cache.is_fresh("bob")
        assert cache.token("alice") is None
        assert not cache.is_current(token)
        # Re-recording re-stamps under the new epoch.
        cache.record("alice")
        assert cache.is_fresh("alice")

    def test_invalidate_and_stats(self):
        cache = IdentityKeyCache(4)
        cache.record("alice")
        assert cache.invalidate("alice")
        assert not cache.invalidate("alice")
        assert cache.is_fresh("alice") is False  # counted as a miss
        stats = cache.stats()
        assert stats["size"] == 0
        assert stats["misses"] == 1
        assert len(cache) == 0


class TestExtractBatchCache:
    def test_batch_extracts_dedupe_and_decrypt(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        done = dibe.extract_batch(
            setup.public_params, p1, p2, channel, ["alice", "bob", "alice"]
        )
        assert done == ["alice", "bob"]
        for identity in done:
            message = dibe.group.random_gt(rng)
            ct = dibe.encrypt_to(setup.public_params, identity, message, rng)
            assert (
                dibe.decrypt_protocol_id(p1, p2, channel, identity, ct) == message
            )

    def test_second_batch_skips_cached(self, dibe, setup):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_batch(setup.public_params, p1, p2, channel, ["alice", "bob"])
        assert (
            dibe.extract_batch(setup.public_params, p1, p2, channel, ["alice", "bob"])
            == []
        )
        # skip_cached=False forces the re-extraction through.
        assert dibe.extract_batch(
            setup.public_params, p1, p2, channel, ["alice"], skip_cached=False
        ) == ["alice"]

    def test_batch_erases_transients(self, dibe, setup):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_batch(setup.public_params, p1, p2, channel, ["alice", "bob"])
        for slot in ("ext.r", "ext.sk_comm", "ext.a_next"):
            assert not p1.secret.has(slot)

    def test_lru_eviction_erases_device_slots(self, small_params, rng):
        dibe = DLRIBE(small_params, n_id=N_ID, extract_cache_size=2)
        setup = dibe.setup(random.Random(1))
        p1, p2, channel = fresh_devices(dibe, setup)
        pp = setup.public_params
        dibe.extract_batch(pp, p1, p2, channel, ["alice", "bob"])
        assert p1.secret.has(_id_slot(1, "alice"))
        dibe.extract_batch(pp, p1, p2, channel, ["carol"])
        # alice was least-recently-used: both devices dropped her shares.
        assert not p1.secret.has(_id_slot(1, "alice"))
        assert not p2.secret.has(_id_slot(2, "alice"))
        assert "alice" not in dibe.extract_cache
        assert p1.secret.has(_id_slot(1, "bob"))
        # bob and carol still decrypt after the eviction.
        for identity in ("bob", "carol"):
            message = dibe.group.random_gt(rng)
            ct = dibe.encrypt_to(pp, identity, message, rng)
            assert (
                dibe.decrypt_protocol_id(p1, p2, channel, identity, ct) == message
            )


class TestRetainedSharesInTheLeakageView:
    """Identity shares stay resident across master periods, so those
    periods' leakage functions must see them: in the continual-memory
    model a device's leakage input is its whole secret memory."""

    def test_snapshots_hold_cached_identities_and_not_evicted_ones(
        self, small_params, rng
    ):
        dibe = DLRIBE(small_params, n_id=N_ID, extract_cache_size=3)
        setup = dibe.setup(random.Random(1))
        p1, p2, channel = fresh_devices(dibe, setup)
        pp = setup.public_params
        master_key = PublicKey(dibe.params, pp.z)

        def master_period():
            message = dibe.group.random_gt(rng)
            ct = dibe.encrypt(master_key, message, rng)
            record = dibe.run_period(p1, p2, channel, ct)
            assert record.plaintext == message
            return record.snapshots

        def assert_view(snapshots, cached):
            assert sorted(snapshots) == [
                (1, "normal"), (1, "refresh"), (2, "normal"), (2, "refresh")
            ]
            for (index, _), snapshot in snapshots.items():
                device = p1 if index == 1 else p2
                slots = {_id_slot(index, identity) for identity in cached}
                held = {name for name in snapshot.names() if name.startswith("id.")}
                assert held == slots
                for slot in slots:
                    # An essential slot: it is in the leakage input bits.
                    assert slot not in snapshot.derived
                    assert snapshot.get(slot) == device.secret.read(slot)

        extracted = ["alice", "bob", "carol"]
        assert dibe.extract_batch(pp, p1, p2, channel, extracted) == extracted
        # The master refresh: a whole master period, decrypt and rotate.
        assert_view(master_period(), extracted)
        # A fourth identity evicts the least-recently-used one.
        assert dibe.extract_batch(pp, p1, p2, channel, ["dave"]) == ["dave"]
        assert dibe.extract_cache.identities() == ["bob", "carol", "dave"]
        assert_view(master_period(), ["bob", "carol", "dave"])


class TestInvalidationRegressions:
    """The issue-named regressions: cached entries must be invalidated
    on refresh, never served stale."""

    def test_identity_refresh_rotates_generation_token(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        pp = setup.public_params
        dibe.extract_protocol(pp, p1, p2, channel, "alice")
        token = dibe.extract_cache.token("alice")
        assert token is not None
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(pp, "alice", message, rng)

        dibe.refresh_identity_protocol(pp, p1, p2, channel, "alice")

        # The old witness is stale, the rotated shares still decrypt.
        assert not dibe.extract_cache.is_current(token)
        assert dibe.extract_cache.is_current(dibe.extract_cache.token("alice"))
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message

    def test_master_refresh_advances_epoch_and_forces_reextract(
        self, dibe, setup, rng
    ):
        p1, p2, channel = fresh_devices(dibe, setup)
        pp = setup.public_params
        dibe.extract_batch(pp, p1, p2, channel, ["alice", "bob"])
        epoch_before = dibe.extract_cache.epoch

        dibe.refresh_protocol(p1, p2, channel)

        assert dibe.extract_cache.epoch == epoch_before + 1
        assert not dibe.extract_cache.is_fresh("alice")
        # The next batch re-extracts everything, then vouches again.
        assert dibe.extract_batch(pp, p1, p2, channel, ["alice", "bob"]) == [
            "alice",
            "bob",
        ]
        assert dibe.extract_cache.is_fresh("alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(pp, "alice", message, rng)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message

    def test_identity_period_rotates_generation_not_epoch(self, dibe, setup, rng):
        """An identity period ends in an identity refresh -- a *per-key*
        rotation (new generation), not a master rotation (same epoch)."""
        p1, p2, channel = fresh_devices(dibe, setup)
        pp = setup.public_params
        dibe.extract_protocol(pp, p1, p2, channel, "alice")
        token = dibe.extract_cache.token("alice")
        epoch_before = dibe.extract_cache.epoch
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(pp, "alice", message, rng)
        record = dibe.run_identity_period(pp, p1, p2, channel, "alice", ct)
        assert record.plaintext == message
        assert dibe.extract_cache.epoch == epoch_before
        assert not dibe.extract_cache.is_current(token)
        assert dibe.extract_cache.is_current(dibe.extract_cache.token("alice"))

    def test_failed_extraction_not_cached(self, dibe, setup, monkeypatch):
        p1, p2, channel = fresh_devices(dibe, setup)
        pp = setup.public_params

        def boom(*args, **kwargs):
            raise RuntimeError("wire cut")

        monkeypatch.setattr(dibe, "_run_engine", boom)
        with pytest.raises(RuntimeError):
            dibe.extract_protocol(pp, p1, p2, channel, "alice")
        assert "alice" not in dibe.extract_cache
        with pytest.raises(RuntimeError):
            dibe.extract_batch(pp, p1, p2, channel, ["bob", "carol"])
        assert "bob" not in dibe.extract_cache
        assert "carol" not in dibe.extract_cache

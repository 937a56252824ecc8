"""Protocol tests for DLRIBE (paper section 4.2)."""

import random

import pytest

from repro.errors import ProtocolError
from repro.ibe.dlr_ibe import DLRIBE
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


class TestSetup:
    def test_public_params_consistent(self, dibe, setup):
        pp = setup.public_params
        assert pp.z == dibe.group.pair(pp.g1, pp.g2)
        assert pp.n_id == N_ID

    def test_master_shares_reconstruct_msk(self, dibe, setup):
        msk = setup.share1.phi
        for a_i, s_i in zip(setup.share1.a, setup.share2.s):
            msk = msk / (a_i ** s_i)
        assert dibe.group.pair(dibe.group.g, msk) == setup.public_params.z


class TestExtraction:
    def test_extract_and_decrypt(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message

    def test_extraction_leaves_master_shares(self, dibe, setup):
        p1, p2, channel = fresh_devices(dibe, setup)
        before1, before2 = dibe.share1_of(p1), dibe.share2_of(p2)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        assert dibe.share1_of(p1) == before1
        assert dibe.share2_of(p2) == before2

    def test_extraction_erases_transients(self, dibe, setup):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        for slot in ("ext.r", "ext.sk_comm", "ext.a_next"):
            assert not p1.secret.has(slot)

    def test_wrong_identity_garbles(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "bob")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "bob", ct) != message

    def test_reference_matches_protocol(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        via_protocol = dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct)
        via_reference = dibe.reference_decrypt_id(
            dibe.identity_share1_of(p1, "alice"),
            dibe.identity_share2_of(p2, "alice"),
            ct,
        )
        assert via_protocol == via_reference == message

    def test_lone_extraction_is_a_batch_of_one(self, dibe, setup):
        pp = setup.public_params

        def run(extract):
            p1, p2, channel = fresh_devices(dibe, setup)
            before = dibe.group.counter.as_dict()
            extract(p1, p2, channel)
            after = dibe.group.counter.as_dict()
            return (
                channel.transcript_bits(),
                {name: after[name] - before[name] for name in after},
                p1.rng.getstate(),
                p2.rng.getstate(),
                dibe.identity_share1_of(p1, "alice"),
                dibe.identity_share2_of(p2, "alice"),
            )

        lone = run(lambda p1, p2, ch: dibe.extract_protocol(pp, p1, p2, ch, "alice"))
        batch = run(
            lambda p1, p2, ch: dibe.extract_batch(
                pp, p1, p2, ch, ["alice"], skip_cached=False
            )
        )
        assert lone == batch

    def test_missing_identity_share_detected(self, dibe, setup):
        p1, p2, channel = fresh_devices(dibe, setup)
        with pytest.raises(ProtocolError):
            dibe.identity_share1_of(p1, "ghost")


class TestIdentityRefresh:
    def test_refresh_preserves_decryption(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        for _ in range(3):
            dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")
            assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message

    def test_refresh_changes_all_components(self, dibe, setup, rng):
        """Identity refresh re-randomizes the BB exponents (r_pub), the
        a-vector, Psi, and P2's scalars."""
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        old1 = dibe.identity_share1_of(p1, "alice")
        old2 = dibe.identity_share2_of(p2, "alice")
        dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")
        new1 = dibe.identity_share1_of(p1, "alice")
        new2 = dibe.identity_share2_of(p2, "alice")
        assert new1.r_pub != old1.r_pub
        assert new1.a != old1.a
        assert new1.psi != old1.psi
        assert new2 != old2

    def test_master_refresh_then_new_extraction(self, dibe, setup, rng):
        """Master shares refresh via the inherited DLR protocol; later
        extractions still produce working identity keys."""
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.refresh_protocol(p1, p2, channel)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message

    def test_interleaved_master_and_identity_refresh(self, dibe, setup, rng):
        p1, p2, channel = fresh_devices(dibe, setup)
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        message = dibe.group.random_gt(rng)
        ct = dibe.encrypt_to(setup.public_params, "alice", message, rng)
        dibe.refresh_protocol(p1, p2, channel)
        dibe.refresh_identity_protocol(setup.public_params, p1, p2, channel, "alice")
        dibe.refresh_protocol(p1, p2, channel)
        assert dibe.decrypt_protocol_id(p1, p2, channel, "alice", ct) == message


class TestLeakageSurface:
    def test_identity_operations_under_phases(self, dibe, setup, rng):
        """Extraction/decryption run inside leakage phases: snapshots
        capture the identity shares + protocol secrets (Remark 4.1's
        leakage applies to both master and identity key material)."""
        p1, p2, channel = fresh_devices(dibe, setup)
        snap1 = p1.secret.open_phase("extract")
        snap2 = p2.secret.open_phase("extract")
        dibe.extract_protocol(setup.public_params, p1, p2, channel, "alice")
        p1.secret.close_phase()
        p2.secret.close_phase()
        assert "ext.sk_comm" in snap1.names()
        assert "ext.r" in snap1.names()
        assert f"id.alice.sk2" in snap2.names()

"""Tests for multiple decryptions per time period (section 3.3 extension)."""

import dataclasses
import random

import pytest

from repro.core.dlr import DLR
from repro.core.optimal import OptimalDLR
from repro.errors import ProtocolError
from repro.protocol.device import Device
from repro.protocol.engine import ProtocolEngine, Send
from repro.protocol.transport import InMemoryTransport


def _one_period(scheme_cls, params, *, batch):
    """Everything one period on one ciphertext produced, from seed 1234."""
    scheme = scheme_cls(params)
    rng = random.Random(1234)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    channel = InMemoryTransport()
    message = scheme.group.random_gt(rng)
    ciphertext = scheme.encrypt(generation.public_key, message, rng)
    if batch:
        record = scheme.run_period_multi(p1, p2, channel, [ciphertext])
        plaintexts = record.plaintexts
    else:
        record = scheme.run_period(p1, p2, channel, ciphertext)
        plaintexts = [record.plaintext]
    stats = scheme.last_stats
    return {
        "message": message,
        "plaintexts": plaintexts,
        "transcript": channel.transcript_bits(0),
        "bits_by_label": channel.bits_by_label(0),
        "snapshots": {key: snap.to_bits() for key, snap in record.snapshots.items()},
        "ops": [stats.ops_for_party(party).as_dict() for party in (1, 2)],
        "steps": [(step.party, step.kind) for step in stats.steps],
    }


def _relabel(steps, old, new):
    """Re-yield a step generator's operations, renaming ``Send(old)``."""
    value = None
    while True:
        try:
            op = steps.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(op, Send) and op.label == old:
            op = Send(new, op.payload)
        value = yield op


@pytest.fixture()
def scheme(small_params):
    return DLR(small_params)


@pytest.fixture()
def setting(scheme):
    rng = random.Random(1)
    generation = scheme.generate(rng)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generation.share1, generation.share2)
    return generation, p1, p2, InMemoryTransport(), rng


class TestMultiDecryption:
    def test_all_plaintexts_correct(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        messages = [scheme.group.random_gt(rng) for _ in range(4)]
        ciphertexts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert record.plaintexts == messages

    def test_zero_decryptions_is_a_pure_refresh(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        old_share2 = scheme.share2_of(p2)
        record = scheme.run_period_multi(p1, p2, channel, [])
        assert record.plaintexts == []
        assert scheme.share2_of(p2) != old_share2
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(generation.public_key, message, rng)
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message

    def test_single_matches_run_period(self, small_params):
        """A batch of one is ``run_period`` with ``dec.0.`` labels: same
        plaintext, wire bits, snapshots, per-party ops and step kinds."""
        for scheme_cls in (DLR, OptimalDLR):
            single = _one_period(scheme_cls, small_params, batch=False)
            batch = _one_period(scheme_cls, small_params, batch=True)
            assert batch["plaintexts"] == single["plaintexts"] == [single["message"]]
            for view in ("transcript", "snapshots", "ops", "steps"):
                assert batch[view] == single[view], (scheme_cls.__name__, view)
            relabelled = {
                label.replace("dec.0.", "dec.", 1): bits
                for label, bits in batch["bits_by_label"].items()
            }
            assert relabelled == single["bits_by_label"]

    def test_snapshot_shape_unchanged(self, scheme, setting):
        """More decryptions per period do NOT grow the leakage input:
        the only secrets are the share and one sk_comm, regardless of
        how many ciphertexts were served."""
        generation, p1, p2, channel, rng = setting
        few = scheme.run_period_multi(
            p1, p2, channel,
            [scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)],
        )
        many = scheme.run_period_multi(
            p1, p2, channel,
            [scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
             for _ in range(4)],
        )
        for key in few.snapshots:
            assert few.snapshots[key].size_bits() == many.snapshots[key].size_bits()

    def test_refresh_still_happens(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        before1 = scheme.share1_of(p1)
        ciphertexts = [
            scheme.encrypt(generation.public_key, scheme.group.random_gt(rng), rng)
            for _ in range(2)
        ]
        scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert scheme.share1_of(p1) != before1
        assert channel.current_period == 1

    def test_consecutive_multi_periods(self, scheme, setting):
        generation, p1, p2, channel, rng = setting
        for t in range(2):
            messages = [scheme.group.random_gt(rng) for _ in range(2)]
            ciphertexts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]
            record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
            assert record.plaintexts == messages
            assert record.period == t


class TestStrictLabels:
    @pytest.mark.parametrize("scheme_cls", [DLR, OptimalDLR])
    def test_unexpected_label_aborts_and_rolls_back(
        self, small_params, scheme_cls, monkeypatch
    ):
        """P2 receives each batch message by its exact label: a stray
        ``dec.0.note`` where ``dec.0.output`` belongs aborts the period
        instead of being skipped, and nothing rotates."""
        scheme = scheme_cls(small_params)
        rng = random.Random(5)
        generation = scheme.generate(rng)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = InMemoryTransport()
        before = scheme.snapshot_shares(p1, p2)
        messages = [scheme.group.random_gt(rng) for _ in range(2)]
        ciphertexts = [scheme.encrypt(generation.public_key, m, rng) for m in messages]

        run = ProtocolEngine.run

        def relabelling_run(engine, spec):
            party1 = spec.party1
            spec = dataclasses.replace(
                spec, party1=lambda: _relabel(party1(), "dec.0.output", "dec.0.note")
            )
            return run(engine, spec)

        monkeypatch.setattr(ProtocolEngine, "run", relabelling_run)
        with pytest.raises(ProtocolError, match="dec.0.note"):
            scheme.run_period_multi(p1, p2, channel, ciphertexts)
        monkeypatch.undo()

        assert channel.current_period == 0
        assert scheme.snapshot_shares(p1, p2) == before
        record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        assert record.plaintexts == messages

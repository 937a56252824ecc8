"""Tests for JSON persistence of key material and ciphertexts."""

import json
import os
import random
import stat

import pytest

from repro.core.dlr import DLR
from repro.errors import ParameterError
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils import persist


@pytest.fixture(scope="module")
def material(small_params):
    scheme = DLR(small_params)
    generation = scheme.generate(random.Random(1))
    message = small_params.group.random_gt(random.Random(2))
    ciphertext = scheme.encrypt(generation.public_key, message, random.Random(3))
    return scheme, generation, message, ciphertext


class TestRoundtrips:
    def test_public_key_self_contained(self, material):
        scheme, generation, message, _ = material
        text = persist.dumps("public_key", generation.public_key)
        restored = persist.loads(text)  # no group needed
        assert restored.z == generation.public_key.z
        assert restored.params.lam == scheme.params.lam
        assert restored.params.group.p == scheme.group.p

    def test_restored_public_key_encrypts_decryptably(self, material):
        """A public key restored on another 'machine' (fresh group object)
        produces ciphertexts the original shares decrypt."""
        scheme, generation, message, _ = material
        restored_pk = persist.loads(persist.dumps("public_key", generation.public_key))
        fresh_scheme = DLR(restored_pk.params)
        ciphertext = fresh_scheme.encrypt(
            restored_pk, _transplant_gt(restored_pk.params.group, message), random.Random(4)
        )
        # Move the ciphertext back into the original group's world.
        moved = persist.loads(
            persist.dumps("ciphertext", ciphertext), scheme.group
        )
        plaintext = scheme.reference_decrypt(generation.share1, generation.share2, moved)
        assert plaintext == message

    def test_share1_roundtrip(self, material):
        scheme, generation, _, _ = material
        text = persist.dumps("share1", generation.share1)
        restored = persist.loads(text, scheme.group)
        assert restored == generation.share1

    def test_share2_roundtrip(self, material):
        scheme, generation, _, _ = material
        text = persist.dumps("share2", generation.share2)
        restored = persist.loads(text, scheme.group)
        assert restored == generation.share2

    def test_ciphertext_roundtrip(self, material):
        scheme, generation, message, ciphertext = material
        restored = persist.loads(
            persist.dumps("ciphertext", ciphertext), scheme.group
        )
        assert restored == ciphertext
        assert scheme.reference_decrypt(generation.share1, generation.share2, restored) == message

    def test_restored_shares_run_protocols(self, material):
        scheme, generation, message, ciphertext = material
        share1 = persist.loads(persist.dumps("share1", generation.share1), scheme.group)
        share2 = persist.loads(persist.dumps("share2", generation.share2), scheme.group)
        rng = random.Random(5)
        p1 = Device("P1", scheme.group, rng)
        p2 = Device("P2", scheme.group, rng)
        scheme.install(p1, p2, share1, share2)
        channel = InMemoryTransport()
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message
        scheme.refresh_protocol(p1, p2, channel)
        assert scheme.decrypt_protocol(p1, p2, channel, ciphertext) == message


class TestValidation:
    def test_unknown_kind_rejected(self, material):
        with pytest.raises(ParameterError):
            persist.dumps("master_key", object())

    def test_loads_unknown_kind_rejected(self, material):
        scheme, *_ = material
        with pytest.raises(ParameterError):
            persist.loads(json.dumps({"kind": "junk", "data": {}}), scheme.group)

    def test_share_needs_group(self, material):
        _, generation, _, _ = material
        text = persist.dumps("share2", generation.share2)
        with pytest.raises(ParameterError):
            persist.loads(text)

    def test_version_check(self, material):
        _, generation, _, _ = material
        envelope = json.loads(persist.dumps("public_key", generation.public_key))
        envelope["data"]["params"]["version"] = 99
        with pytest.raises(ParameterError):
            persist.loads(json.dumps(envelope))

    def test_corrupt_element_rejected(self, material):
        from repro.errors import GroupError

        scheme, generation, _, ciphertext = material
        envelope = json.loads(persist.dumps("ciphertext", ciphertext))
        # Flip the x coordinate to garbage.
        length, _, payload = envelope["data"]["a"].partition(":")
        corrupted = hex(int.from_bytes(bytes.fromhex(payload), "big") ^ 0b1100)[2:]
        envelope["data"]["a"] = f"{length}:{corrupted.zfill(len(payload))}"
        with pytest.raises(GroupError):
            persist.loads(json.dumps(envelope), scheme.group)


def _transplant_gt(group, element):
    """Re-create a GT element inside a different group object with the
    same parameters (simulating a second process)."""
    from repro.groups.encoding import decode_gt

    return decode_gt(group, element.to_bits())


class TestAtomicWrite:
    @staticmethod
    def _record_durable_ops(monkeypatch):
        """Record every fsync (file or directory, by inode) and replace."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            events.append(("fsync", kind, info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", str(dst), None))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return events

    def test_file_fsync_then_replace_then_directory_fsync(self, tmp_path, monkeypatch):
        """The rename is made durable too: a power loss after the write
        returns cannot bring back the previous file."""
        target = tmp_path / "state.json"
        target.write_text("old")
        events = self._record_durable_ops(monkeypatch)
        persist.atomic_write_text(target, "new")
        assert [event[:2] for event in events] == [
            ("fsync", "file"),
            ("replace", str(target)),
            ("fsync", "dir"),
        ]
        assert events[2][2] == tmp_path.stat().st_ino
        assert target.read_text() == "new"

    def test_directory_descriptor_closed_when_its_fsync_fails(self, tmp_path, monkeypatch):
        real_fsync, real_close = os.fsync, os.close
        opened, closed = [], []

        def fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                opened.append(fd)
                raise OSError("directory fsync failed")
            real_fsync(fd)

        def close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "close", close)
        with pytest.raises(OSError, match="directory fsync failed"):
            persist.atomic_write_text(tmp_path / "state.json", "new")
        assert len(opened) == 1 and opened[0] in closed


#: Every step of ``atomic_write_text`` that can fail, in order.
CRASH_POINTS = ("write", "flush", "file_fsync", "replace", "dir_open", "dir_fsync")
#: The points at which the replace has already happened.
AFTER_REPLACE = ("dir_open", "dir_fsync")


class TestAtomicWriteCrashPoints:
    """An ``OSError`` injected at each step in turn propagates, and the
    destination holds the whole old text up to the replace and the whole
    new text after it -- never a torn mix -- with no descriptor leaked."""

    @staticmethod
    def _inject(monkeypatch, point):
        """Fail ``point``; return the directory descriptors opened and
        the descriptors closed."""
        real_open, real_fsync, real_replace = open, os.fsync, os.replace
        real_os_open, real_close = os.open, os.close
        opened, closed = [], []

        def crash(name):
            if name == point:
                raise OSError(f"injected {name} failure")

        class Handle:
            def __init__(self, handle):
                self._handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._handle.close()

            def write(self, text):
                if point == "write":
                    # A torn temp file: half the text lands, then the error.
                    self._handle.write(text[: len(text) // 2])
                crash("write")
                return self._handle.write(text)

            def flush(self):
                crash("flush")
                self._handle.flush()

            def fileno(self):
                return self._handle.fileno()

        def fsync(fd):
            crash("dir_fsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file_fsync")
            real_fsync(fd)

        def replace(src, dst):
            crash("replace")
            real_replace(src, dst)

        def os_open(path, flags, *args):
            crash("dir_open")
            fd = real_os_open(path, flags, *args)
            opened.append(fd)
            return fd

        def close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(persist, "open", lambda *a, **k: Handle(real_open(*a, **k)), raising=False)
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(os, "open", os_open)
        monkeypatch.setattr(os, "close", close)
        return opened, closed

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_leaves_old_or_new_text(self, tmp_path, monkeypatch, point):
        target = tmp_path / "state.json"
        old, new = "old-" * 2000, "new+" * 3000
        target.write_text(old)
        opened, closed = self._inject(monkeypatch, point)
        with pytest.raises(OSError, match=f"injected {point} failure"):
            persist.atomic_write_text(target, new)
        monkeypatch.undo()
        assert target.read_text() == (new if point in AFTER_REPLACE else old)
        assert all(fd in closed for fd in opened)
        if point == "dir_fsync":
            assert len(opened) == 1
        # A retry after the crash completes over whatever it left behind.
        persist.atomic_write_text(target, new)
        assert target.read_text() == new
        assert sorted(path.name for path in tmp_path.iterdir()) == ["state.json"]

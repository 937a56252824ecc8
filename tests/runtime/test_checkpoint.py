"""Unit tests for durable session checkpoints."""

import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlr import DLR
from repro.errors import CheckpointError, ParameterError
from repro.runtime import (
    SessionState,
    load_checkpoint,
    save_checkpoint,
)
from repro.runtime.checkpoint import dump_state, load_state


@pytest.fixture()
def state(small_params):
    scheme = DLR(small_params)
    generation = scheme.generate(random.Random(4))
    return SessionState(
        scheme="dlr",
        seed=99,
        periods_total=5,
        next_period=2,
        public_key=generation.public_key,
        share1=generation.share1,
        share2=generation.share2,
    )


class TestStateValidation:
    def test_unknown_scheme_rejected(self, state):
        with pytest.raises(ParameterError):
            SessionState("mystery", 0, 1, 0, state.public_key, state.share1, state.share2)

    def test_next_period_out_of_range_rejected(self, state):
        with pytest.raises(ParameterError):
            SessionState("dlr", 0, 3, 4, state.public_key, state.share1, state.share2)

    def test_progress_properties(self, state):
        assert not state.complete
        assert state.remaining_periods == 3


class TestRoundTrip:
    def test_self_contained_round_trip(self, state, tmp_path):
        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.scheme == "dlr"
        assert loaded.seed == 99
        assert loaded.next_period == 2
        # Elements round-trip bit-exactly (fresh group, equal encodings).
        assert loaded.share2.s == state.share2.s
        assert loaded.share1.phi.to_bits() == state.share1.phi.to_bits()
        assert loaded.public_key.z.to_bits() == state.public_key.z.to_bits()

    def test_shares_stay_functional_after_round_trip(self, state, tmp_path):
        """A resumed session must decrypt: reconstruct from the loaded
        shares and check against a fresh encryption."""
        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        scheme = DLR(loaded.public_key.params)
        rng = random.Random(1)
        message = scheme.group.random_gt(rng)
        ciphertext = scheme.encrypt(loaded.public_key, message, rng)
        assert scheme.reference_decrypt(loaded.share1, loaded.share2, ciphertext) == message

    def test_load_into_existing_group(self, state, tmp_path):
        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        group = state.public_key.group
        loaded = load_checkpoint(path, group=group)
        # Elements decode into *that* group, so they interoperate.
        assert loaded.public_key.group is group
        assert loaded.share1.phi * group.g  # no GroupError

    def test_load_into_mismatched_group_rejected(self, state, tmp_path):
        from repro.groups import preset_group

        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        with pytest.raises(ParameterError):
            load_checkpoint(path, group=preset_group(16))

    def test_unsupported_version_rejected(self, state):
        data = dump_state(state)
        data["version"] = 999
        with pytest.raises(ParameterError):
            load_state(data)


class TestAtomicity:
    def test_no_temp_file_left_behind(self, state, tmp_path):
        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        save_checkpoint(path, state)  # overwrite path too
        assert [p.name for p in tmp_path.iterdir()] == ["session.json"]

    def test_checkpoint_is_valid_json_after_overwrite(self, state, tmp_path):
        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        state.next_period = 3
        save_checkpoint(path, state)
        assert json.loads(path.read_text())["next_period"] == 3


class TestCorruptCheckpoints:
    """Damage on disk surfaces as a classified, clearly-messaged
    CheckpointError (fatal), never a raw JSONDecodeError/KeyError."""

    def _saved(self, state, tmp_path):
        path = tmp_path / "session.json"
        save_checkpoint(path, state)
        return path

    def test_truncated_file_raises_checkpoint_error(self, state, tmp_path):
        path = self._saved(state, tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.path == path

    def test_empty_file_raises_checkpoint_error(self, state, tmp_path):
        path = tmp_path / "session.json"
        path.write_text("")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_object_payload_raises_checkpoint_error(self, state, tmp_path):
        path = tmp_path / "session.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_field_raises_checkpoint_error(self, state, tmp_path):
        path = self._saved(state, tmp_path)
        data = json.loads(path.read_text())
        del data["share1"]
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        assert "KeyError" in str(excinfo.value)

    def test_undecodable_element_raises_checkpoint_error(self, state, tmp_path):
        path = self._saved(state, tmp_path)
        data = json.loads(path.read_text())
        data["public_key"]["z"] = "zz-not-hex"
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file_keeps_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "never-written.json")

    def test_corruption_is_classified_fatal(self, state, tmp_path):
        """The service must abort rehydration, not hot-loop retries."""
        from repro.runtime import FATAL, classify_fault

        path = self._saved(state, tmp_path)
        path.write_text(path.read_text()[:40])
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert classify_fault(exc) == FATAL
        else:  # pragma: no cover
            raise AssertionError("corrupt checkpoint loaded")

    def test_version_mismatch_stays_parameter_error(self, state, tmp_path):
        path = self._saved(state, tmp_path)
        data = json.loads(path.read_text())
        data["version"] = 999
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError):
            load_checkpoint(path)


@lru_cache(maxsize=1)
def saved_checkpoint() -> bytes:
    from repro.core.params import DLRParams
    from repro.groups import preset_group

    scheme = DLR(DLRParams(group=preset_group(32), lam=32))
    generation = scheme.generate(random.Random(8))
    state = SessionState(
        "dlr", 3, 6, 2, generation.public_key, generation.share1, generation.share2
    )
    return json.dumps(dump_state(state), indent=2).encode("utf-8")


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "session.json"


def loads_or_raises_typed(path) -> None:
    try:
        load_checkpoint(path)
    except (CheckpointError, ParameterError):
        pass


class TestDamagedCheckpointFuzz:
    """Any truncation or byte flip of a saved checkpoint either loads or
    raises ``CheckpointError``/``ParameterError`` -- never a raw
    ``GroupError``, ``UnicodeDecodeError`` or ``TypeError``."""

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4096))
    def test_truncations(self, scratch_file, cut):
        data = saved_checkpoint()
        scratch_file.write_bytes(data[: cut % len(data)])
        loads_or_raises_typed(scratch_file)

    @settings(max_examples=120, deadline=None)
    @given(
        flips=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
            min_size=1,
            max_size=3,
        )
    )
    def test_byte_flips(self, scratch_file, flips):
        data = bytearray(saved_checkpoint())
        for position, mask in flips:
            data[position % len(data)] ^= mask
        scratch_file.write_bytes(bytes(data))
        loads_or_raises_typed(scratch_file)

"""Durable supervisor checkpoints: kill -9 at any instant, resume later.

A checkpoint is the *committed* session state -- the shares as of the
last fully completed time period plus the period counter and the
session seed.  It is written through
:func:`repro.utils.persist.atomic_write_text` after every committed
period, so a supervisor killed mid-lifecycle (even mid-write) resumes
from a complete, mutually consistent share pair; the interrupted period
simply re-runs.

The format is self-contained: the embedded public key carries the
pairing parameters, so :func:`load_checkpoint` rebuilds the exact
bilinear group with no side channel.  Only *committed* share material
is ever checkpointed -- staged/pending shares and protocol secrets
never touch disk.  For schemes whose P1 state is derived (OptimalDLR's
``sk_comm`` + public encrypted share, DLRIBE's identity keys) the
checkpoint stores the underlying plain shares; re-installation
re-derives the rest deterministically from the resume seed.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from repro.core.keys import PublicKey, Share1, Share2
from repro.core.params import DLRParams
from repro.errors import CheckpointError, GroupError, ParameterError
from repro.utils import persist

CHECKPOINT_VERSION = 1

#: Registered scheme kinds a checkpoint can name.
SCHEME_KINDS = ("dlr", "optimal", "dlribe")


@dataclass
class SessionState:
    """The committed state of one supervised multi-period session."""

    scheme: str
    seed: int
    periods_total: int
    next_period: int
    public_key: PublicKey
    share1: Share1
    share2: Share2

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_KINDS:
            raise ParameterError(f"unknown scheme kind {self.scheme!r}")
        if not 0 <= self.next_period <= self.periods_total:
            raise ParameterError(
                f"next_period {self.next_period} outside [0, {self.periods_total}]"
            )

    @property
    def complete(self) -> bool:
        return self.next_period >= self.periods_total

    @property
    def remaining_periods(self) -> int:
        return self.periods_total - self.next_period


def dump_state(state: SessionState) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "scheme": state.scheme,
        "seed": state.seed,
        "periods_total": state.periods_total,
        "next_period": state.next_period,
        "public_key": persist.dump_public_key(state.public_key),
        "share1": persist.dump_share1(state.share1),
        "share2": persist.dump_share2(state.share2),
    }


def load_state(data: dict, group=None) -> SessionState:
    """Rebuild a session state.

    With ``group=None`` the embedded parameters rebuild a fresh
    bilinear group (fully self-contained).  Passing an existing group
    decodes every element into *that* group instead -- required when the
    resumed session must interoperate with element-holding objects that
    already live in it (e.g. a DLRIBE scheme's public parameters) --
    after checking the checkpoint was written under the same pairing
    parameters.  ``group`` may also be a callable that maps the
    checkpoint's pairing parameters to such a group, or to ``None`` for
    a fresh one.

    Damage to the data raises :class:`~repro.errors.CheckpointError`; a
    version or group mismatch stays a
    :class:`~repro.errors.ParameterError`.
    """
    if not isinstance(data, dict):
        raise CheckpointError(
            f"checkpoint payload must be a JSON object, got {type(data).__name__}"
        )
    if data.get("version") != CHECKPOINT_VERSION:
        raise ParameterError("unsupported checkpoint version")
    try:
        pk_data = data["public_key"]
        params = persist.load_params(pk_data["params"])
        if callable(group):
            group = group(params.group.params)
        if group is not None:
            if group.params != params.group.params:
                raise ParameterError(
                    "checkpoint pairing parameters do not match the supplied group"
                )
            params = DLRParams(group=group, lam=params.lam)
        public_key = PublicKey(params, persist._gt_from_hex(params.group, pk_data["z"]))
        share1 = persist.load_share1(params.group, data["share1"])
        share2 = persist.load_share2(data["share2"])
        fields = (data["scheme"], data["seed"], data["periods_total"], data["next_period"])
    except (KeyError, TypeError, ValueError, IndexError, GroupError) as exc:
        # A field is missing, the wrong shape, or un-decodable: the
        # *file* is corrupt, which is a deterministic (fatal) runtime
        # fault, never a raw KeyError crashing a rehydrating worker.
        raise CheckpointError(
            f"checkpoint is structurally invalid ({type(exc).__name__}: {exc})"
        ) from exc
    try:
        return SessionState(*fields, public_key, share1, share2)
    except (ParameterError, TypeError) as exc:
        raise CheckpointError(f"checkpoint state is invalid ({exc})") from exc


def save_checkpoint(path: str | pathlib.Path, state: SessionState) -> None:
    """Atomically persist ``state`` (crash-safe: old or new, never torn)."""
    persist.atomic_write_text(path, json.dumps(dump_state(state), indent=2))


def load_checkpoint(path: str | pathlib.Path, group=None) -> SessionState:
    """Load a checkpoint file, raising classified faults on damage.

    A truncated, empty, or otherwise non-JSON file surfaces as
    :class:`~repro.errors.CheckpointError` (fatal in the runtime
    taxonomy) with the path in the message -- never a raw
    ``json.JSONDecodeError``.  A missing file keeps raising
    ``FileNotFoundError``: absence is an addressing error, not damage.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} is unreadable ({exc})", path=path
        ) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is corrupt: not valid JSON at "
            f"line {exc.lineno} column {exc.colno} (truncated write or "
            "damaged file)",
            path=path,
        ) from exc
    try:
        return load_state(data, group=group)
    except CheckpointError as exc:
        if exc.path is None:
            exc.path = path
            exc.args = (f"checkpoint {path}: {exc.args[0]}",)
        raise

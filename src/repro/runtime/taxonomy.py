"""Fault taxonomy: what a supervisor may retry, and what it must not.

A retry loop that retries *any* ``ProtocolError`` hot-loops on
deterministic failures like a ``WireFormatError`` on a malformed frame,
which can never succeed on a re-run, handing the adversary a fresh
partial transcript on every pointless attempt until the attempt cap.
The supervisor classifies first:

``transient``
    The channel misbehaved but the protocol state rolled back cleanly:
    an injected fault, a read/write timeout (silent peer), a peer that
    dropped its endpoint.  Retrying can succeed; each retry's partial
    transcript is charged to the period's leakage budget.

``fatal``
    Deterministic or state-level failure: bad parameters, a protocol
    driven out of order, a leakage budget violation.  Retrying
    reproduces the failure bit-for-bit -- abort immediately and surface
    the original exception unwrapped.

``poisoned``
    Bytes on the public wire did not decode (or a ciphertext failed its
    integrity checks): the transcript itself is suspect -- possibly
    adversarial -- so the supervisor aborts *and quarantines the
    period's transcript* into the session log for offline analysis.

Classification looks through ``RefreshAborted`` wrappers (a rollback is
an outcome, not a cause) and walks the ``__cause__`` chain, so a
transient fault that surfaced wrapped in scheme-level errors is still
retried, and a poisoned decode buried under an abort is still
quarantined.
"""

from __future__ import annotations

from repro.errors import (
    CheckpointError,
    DeadlineExceeded,
    DecryptionError,
    FaultInjected,
    GroupError,
    LeakageBudgetExceeded,
    ParameterError,
    PeerDisconnected,
    ProtocolError,
    RefreshAborted,
    TransportTimeout,
    WireFormatError,
)

TRANSIENT = "transient"
FATAL = "fatal"
POISONED = "poisoned"
CLASSIFICATIONS = (TRANSIENT, FATAL, POISONED)

#: Faults a retry can clear: the channel hiccuped, the state rolled back.
_TRANSIENT_TYPES = (FaultInjected, TransportTimeout, PeerDisconnected)
#: Bytes that reached the public wire are suspect: abort + quarantine.
_POISONED_TYPES = (WireFormatError, DecryptionError)
#: Deterministic / state-level failures: retrying reproduces them.  A
#: corrupt checkpoint is fatal for the same reason a bad parameter is:
#: re-reading the same damaged bytes can never succeed.  An expired
#: request deadline is fatal *to the supervisor* -- the period rolled
#: back and nobody is waiting for a retry of this request -- though the
#: service answers it with a retryable wire code (the client may retry
#: under a fresh deadline).
_FATAL_TYPES = (
    LeakageBudgetExceeded,
    ParameterError,
    GroupError,
    CheckpointError,
    DeadlineExceeded,
)


def root_cause(exc: BaseException) -> BaseException:
    """The deepest exception in ``exc``'s ``__cause__`` chain."""
    seen: set[int] = set()
    while exc.__cause__ is not None and id(exc) not in seen:
        seen.add(id(exc))
        exc = exc.__cause__
    return exc


def classify_fault(exc: BaseException) -> str:
    """Map an exception to ``transient`` / ``fatal`` / ``poisoned``.

    ``RefreshAborted`` is transparent: the rollback already restored
    consistent shares, so the *cause* of the abort decides.  A bare
    ``RefreshAborted`` with no recorded cause is transient (the period
    can simply be re-run against the rolled-back shares).
    """
    node: BaseException | None = exc
    seen: set[int] = set()
    while node is not None and id(node) not in seen:
        seen.add(id(node))
        if isinstance(node, RefreshAborted):
            node = node.__cause__
            continue
        if isinstance(node, _POISONED_TYPES):
            return POISONED
        if isinstance(node, _TRANSIENT_TYPES):
            return TRANSIENT
        if isinstance(node, _FATAL_TYPES):
            return FATAL
        if isinstance(node, ProtocolError):
            # Label mismatch, deadlock, mis-driven protocol: deterministic.
            return FATAL
        node = node.__cause__
    return TRANSIENT if isinstance(exc, RefreshAborted) else FATAL


def fault_name(exc: BaseException) -> str:
    """Canonical short name of a fault for the session log."""
    return type(exc).__name__

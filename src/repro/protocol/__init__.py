"""Two-device runtime: memory regions, devices, transports, the engine.

The paper's model (section 3) views each device's memory as a *public*
region (public key, public randomness, protocol inputs/outputs) and a
*secret* region (key share, secret randomness, intermediate computation).
Leakage functions are applied to the secret region; the adversary sees
the public region and the full communication transcript for free.

This package supplies those moving parts; the schemes in
:mod:`repro.core` are written as per-device step generators driven by
the :class:`~repro.protocol.engine.ProtocolEngine` over a pluggable
:class:`~repro.protocol.transport.Transport` (``InMemoryTransport``,
fault-injecting ``FaultyTransport``, or ``SocketTransport`` with the
parties in separate threads).
"""

from repro.protocol.device import Device
from repro.protocol.engine import (
    Commit,
    ProtocolEngine,
    ProtocolSpec,
    Recv,
    ReceivedMessage,
    Send,
    StagedShare,
    StepStat,
    TranscriptStats,
)
from repro.protocol.faults import FaultRule, FaultyTransport
from repro.protocol.memory import MemoryRegion, PhaseSnapshot
from repro.protocol.transport import InMemoryTransport, Message, SocketTransport, Transport

__all__ = [
    "Commit",
    "Device",
    "FaultRule",
    "FaultyTransport",
    "InMemoryTransport",
    "MemoryRegion",
    "Message",
    "PhaseSnapshot",
    "ProtocolEngine",
    "ProtocolSpec",
    "Recv",
    "ReceivedMessage",
    "Send",
    "SocketTransport",
    "StagedShare",
    "StepStat",
    "Transport",
    "TranscriptStats",
]

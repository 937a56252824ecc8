"""Persistence: JSON-compatible dictionaries for every piece of key
material and ciphertext, with full reconstruction.

A downstream deployment needs to move public keys and ciphertexts
between machines and park device shares in (suitably protected) storage
between sessions.  Formats are versioned dictionaries of hex strings;
``dumps``/``loads`` wrap them as JSON text.

Reconstruction is self-contained: the serialized public key embeds the
pairing parameters ``(n, p, q, h)`` and the scheme parameters ``lam``,
so ``load_public_key`` rebuilds the exact bilinear group (the generator
is derived deterministically from the parameters, see
:mod:`repro.groups.bilinear`).
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any

from repro.core.keys import Ciphertext, PublicKey, Share1, Share2
from repro.core.params import DLRParams
from repro.errors import ParameterError
from repro.groups.bilinear import BilinearGroup, G1Element, GTElement
from repro.groups.encoding import decode_g1, decode_g1_batch, decode_gt
from repro.groups.pairing_params import PairingParams
from repro.utils.bits import BitString

FORMAT_VERSION = 1


def _element_hex(element: G1Element | GTElement) -> str:
    bits = element.to_bits()
    return f"{len(bits)}:{bits.to_bytes().hex()}"


def _bits_from_hex(text: str) -> BitString:
    length_text, _, payload = text.partition(":")
    length = int(length_text)
    value = int.from_bytes(bytes.fromhex(payload), "big")
    return BitString(value, length)  # raises if the payload overflows


def _g1_from_hex(group: BilinearGroup, text: str) -> G1Element:
    return decode_g1(group, _bits_from_hex(text))


def _gt_from_hex(group: BilinearGroup, text: str) -> GTElement:
    return decode_gt(group, _bits_from_hex(text))


# ---------------------------------------------------------------------------
# parameters + public key
# ---------------------------------------------------------------------------


def dump_params(params: DLRParams) -> dict[str, Any]:
    pairing = params.group.params
    return {
        "version": FORMAT_VERSION,
        "n": pairing.n,
        "p": hex(pairing.p),
        "q": hex(pairing.q),
        "h": pairing.h,
        "lam": params.lam,
    }


def load_params(data: dict[str, Any]) -> DLRParams:
    if data.get("version") != FORMAT_VERSION:
        raise ParameterError("unsupported serialization version")
    pairing = PairingParams(
        n=data["n"], p=int(data["p"], 16), q=int(data["q"], 16), h=data["h"]
    )
    return DLRParams(group=BilinearGroup(pairing), lam=data["lam"])


def dump_public_key(public_key: PublicKey) -> dict[str, Any]:
    return {
        "params": dump_params(public_key.params),
        "z": _element_hex(public_key.z),
    }


def load_public_key(data: dict[str, Any]) -> PublicKey:
    params = load_params(data["params"])
    return PublicKey(params, _gt_from_hex(params.group, data["z"]))


# ---------------------------------------------------------------------------
# shares
# ---------------------------------------------------------------------------


def dump_share1(share: Share1) -> dict[str, Any]:
    return {
        "a": [_element_hex(e) for e in share.a],
        "phi": _element_hex(share.phi),
    }


def load_share1(group: BilinearGroup, data: dict[str, Any]) -> Share1:
    # a and phi share one subgroup-check vector.
    *a, phi = decode_g1_batch(
        group, [_bits_from_hex(text) for text in (*data["a"], data["phi"])]
    )
    return Share1(a=tuple(a), phi=phi)


def dump_share2(share: Share2) -> dict[str, Any]:
    return {"s": [hex(v) for v in share.s], "p": hex(share.p)}


def load_share2(data: dict[str, Any]) -> Share2:
    return Share2(
        s=tuple(int(v, 16) for v in data["s"]), p=int(data["p"], 16)
    )


# ---------------------------------------------------------------------------
# ciphertexts
# ---------------------------------------------------------------------------


def dump_ciphertext(ciphertext: Ciphertext) -> dict[str, Any]:
    return {"a": _element_hex(ciphertext.a), "b": _element_hex(ciphertext.b)}


def load_ciphertext(group: BilinearGroup, data: dict[str, Any]) -> Ciphertext:
    return Ciphertext(
        a=_g1_from_hex(group, data["a"]), b=_gt_from_hex(group, data["b"])
    )


def dump_ciphertext_batch(ciphertexts: list[Ciphertext]) -> dict[str, Any]:
    return {"items": [dump_ciphertext(ciphertext) for ciphertext in ciphertexts]}


def load_ciphertext_batch(
    group: BilinearGroup, data: dict[str, Any]
) -> list[Ciphertext]:
    return [load_ciphertext(group, item) for item in data["items"]]


# ---------------------------------------------------------------------------
# durable writes
# ---------------------------------------------------------------------------


def atomic_write_text(path: str | pathlib.Path, text: str) -> None:
    """Write ``text`` to ``path`` so a crash leaves either the old file
    or the new one -- never a torn half-write.

    The text lands in a sibling temp file which is fsynced and then
    ``os.replace``d over the destination (atomic on POSIX).  This is
    what makes supervisor checkpoints safe against ``kill -9``: a
    resumed session always reads a complete, internally consistent
    checkpoint.

    The parent directory is fsynced after the rename, so the rename
    itself survives power loss.  Without that, a restart could resume
    on the pre-refresh shares of a period that already leaked, and
    leaking on them again would exceed that period's budget.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


# ---------------------------------------------------------------------------
# JSON text wrappers
# ---------------------------------------------------------------------------

_DUMPERS = {
    "public_key": dump_public_key,
    "share1": dump_share1,
    "share2": dump_share2,
    "ciphertext": dump_ciphertext,
    "ciphertext_batch": dump_ciphertext_batch,
}


def dumps(kind: str, value: Any) -> str:
    """Serialize a known object kind to JSON text."""
    if kind not in _DUMPERS:
        raise ParameterError(f"unknown kind {kind!r}")
    return json.dumps({"kind": kind, "data": _DUMPERS[kind](value)}, indent=2)


def loads(text: str, group: BilinearGroup | None = None) -> Any:
    """Deserialize JSON text produced by :func:`dumps`.

    ``group`` is required for kinds that reference group elements without
    embedding parameters (shares, ciphertexts); public keys are
    self-contained.
    """
    envelope = json.loads(text)
    kind = envelope.get("kind")
    data = envelope.get("data")
    if kind == "public_key":
        return load_public_key(data)
    if group is None:
        raise ParameterError(f"deserializing {kind!r} requires the group")
    if kind == "share1":
        return load_share1(group, data)
    if kind == "share2":
        return load_share2(data)
    if kind == "ciphertext":
        return load_ciphertext(group, data)
    if kind == "ciphertext_batch":
        return load_ciphertext_batch(group, data)
    raise ParameterError(f"unknown kind {kind!r}")

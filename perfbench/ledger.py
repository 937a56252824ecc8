"""Fold a traced run into per-layer metrics and a self-time ledger.

Inputs are plain data, so the folding is testable without a server:

* ``requests`` -- the timed client requests, each a dict with
  ``start``/``end`` (the ``ServiceClient.decrypt*`` call), ``inner``
  (seconds spent inside ``ServiceClient.request``, the framed round
  trip) and ``plaintexts``;
* ``roots``/``spans`` -- what ``serve_traced.py`` recorded in the
  server (see :class:`serve_traced.SpanRecorder` for the tuple layout);
* ``server_spans`` -- the server's own ``serve --trace`` JSONL records.

All clocks are ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore shared by the client and server processes.  The
window is ``[first request start, last request end]``; server roots
that start inside it belong to the timed requests.

Ledger rows are per request, in ms, and partition the round trip::

    service    client envelope encode + reply decode (roundtrip - inner)
               + server dispatch (service.request span - roots)
               + self time of SessionRegistry.get and serve_decrypt*
    runtime    self time of run_request*, checkpoint save and load
    core       self time of DLR.run_period* and HPSKE.encrypt
    utils      WireCodec encode/decode
    groups     multiexp, pairing and sampling kernels
    unattributed   roundtrip - the rows above: socket transit and frame
                   receive on both sides, which no span covers
"""

from __future__ import annotations

from fractions import Fraction

LEDGER_LAYERS = ("service", "runtime", "core", "utils", "groups")

#: Counter fields summed into each exact per-plaintext count.
OP_GROUPS = {
    "groups.pairings_per_plaintext": ("pairings", "pairings_precomp"),
    "groups.multiexp_terms_per_plaintext": ("g_multiexp", "gt_multiexp"),
    "groups.samples_per_plaintext": ("g_samples", "gt_samples"),
}

#: The exact counts two runs of one seed must reproduce.
EXACT_COUNTS = ("protocol.bits_per_plaintext", *OP_GROUPS)

SPAN_ID, SPAN_PARENT, SPAN_ROOT, SPAN_NAME, SPAN_START, SPAN_END, SPAN_SELF = range(7)


def _exact_counts(roots: dict[int, dict]) -> dict[str, Fraction]:
    """Per-plaintext counts over the given serve roots, as fractions."""
    plaintexts = sum(root.get("plaintexts", 0) for root in roots.values())
    if plaintexts == 0:
        raise ValueError("no plaintexts served in the timed window")
    bits = sum(root["counts"].get("transcript_bits", 0) for root in roots.values())
    counts = {"protocol.bits_per_plaintext": Fraction(bits, plaintexts)}
    for metric, fields in OP_GROUPS.items():
        total = sum(
            root.get("ops", {}).get(field, 0) for root in roots.values() for field in fields
        )
        counts[metric] = Fraction(total, plaintexts)
    return counts


def _window_roots(roots: dict[int, dict], spans: list, window: tuple[float, float]) -> set[int]:
    """Ids of the roots that start inside the timed window."""
    begin, end = window
    return {
        span[SPAN_ID]
        for span in spans
        if span[SPAN_PARENT] is None and begin <= span[SPAN_START] <= end
    }


def fold(
    requests: list[dict],
    roots: dict[int, dict],
    spans: list,
    server_spans: list[dict],
) -> dict:
    """Return ``{metric name: value}`` for every per-layer metric except
    ``telemetry.trace_overhead_frac`` (which needs the untraced run)."""
    n_requests = len(requests)
    n_plaintexts = sum(request["plaintexts"] for request in requests)
    if n_requests == 0:
        raise ValueError("no timed requests to fold")
    window = (
        min(request["start"] for request in requests),
        max(request["end"] for request in requests),
    )
    selected = _window_roots(roots, spans, window)
    mine = [span for span in spans if span[SPAN_ROOT] in selected]
    serve_roots = {
        root_id: roots[root_id] for root_id in selected if roots[root_id]["name"] == "service.serve"
    }
    if sum(root.get("plaintexts", 0) for root in serve_roots.values()) != n_plaintexts:
        raise ValueError("server roots in the window do not match the timed requests")

    def total(name: str) -> float:
        return sum(span[SPAN_END] - span[SPAN_START] for span in mine if span[SPAN_NAME] == name)

    def calls(name: str) -> int:
        return sum(1 for span in mine if span[SPAN_NAME] == name)

    def self_time(prefix: str) -> float:
        return sum(span[SPAN_SELF] for span in mine if span[SPAN_NAME].startswith(prefix))

    per_request = 1000.0 / n_requests
    per_plaintext = 1000.0 / n_plaintexts
    roundtrip = sum(request["end"] - request["start"] for request in requests)
    inner = sum(request["inner"] for request in requests)
    root_time = sum(
        span[SPAN_END] - span[SPAN_START] for span in mine if span[SPAN_PARENT] is None
    )
    registry_get = total("service.registry_get")
    serve = total("service.serve")

    def server_total(name: str) -> float:
        return sum(
            record["end"] - record["start"]
            for record in server_spans
            if record.get("name") == name and window[0] <= record["start"] <= window[1]
        )

    # only the timed decrypt* requests reach the server inside the window
    dispatch = server_total("service.request")

    # registry gets whose span has a checkpoint-load child rehydrated
    gets = {span[SPAN_ID] for span in mine if span[SPAN_NAME] == "service.registry_get"}
    missed = {
        span[SPAN_PARENT]
        for span in mine
        if span[SPAN_NAME] == "runtime.checkpoint_load" and span[SPAN_PARENT] in gets
    }
    request_spans = {span[SPAN_ID]: span for span in mine if span[SPAN_NAME] == "runtime.request"}
    in_period = sum(
        span[SPAN_END] - span[SPAN_START]
        for span in mine
        if span[SPAN_NAME] == "core.run_period" and span[SPAN_PARENT] in request_spans
    )
    commit = sum(span[SPAN_END] - span[SPAN_START] for span in request_spans.values()) - in_period

    def root_count(name: str) -> int:
        return sum(roots[root_id]["counts"].get(name, 0) for root_id in selected)

    ledger = {layer: self_time(f"{layer}.") for layer in LEDGER_LAYERS}
    ledger["service"] += (roundtrip - inner) + (dispatch - root_time)
    metrics = {
        "service.roundtrip_ms": roundtrip * per_request,
        "service.wire_ms": (roundtrip - registry_get - serve) * per_request,
        "service.registry_get_ms": registry_get * per_request,
        "service.registry_hit_ratio": (len(gets) - len(missed)) / len(gets),
        "service.rehydrations_per_request": len(missed) / n_requests,
        "service.queue_wait_ms": server_total("service.queue_wait") * per_request,
        "service.lock_wait_ms": server_total("service.lock_wait") * per_request,
        "runtime.commit_ms": commit * per_request,
        "runtime.checkpoint_save_ms": total("runtime.checkpoint_save") * per_request,
        "runtime.checkpoint_saves_per_request": calls("runtime.checkpoint_save") / n_requests,
        "runtime.checkpoint_load_ms": total("runtime.checkpoint_load") * per_request,
        "runtime.checkpoint_loads_per_request": calls("runtime.checkpoint_load") / n_requests,
        "runtime.retries_per_request": root_count("retries") / n_requests,
        "core.run_period_ms": total("core.run_period") * per_plaintext,
        "core.hpske_encrypt_ms": total("core.hpske_encrypt") * per_plaintext,
        "utils.codec_ms": self_time("utils.codec") * per_plaintext,
        "groups.multiexp_ms": self_time("groups.multiexp") * per_plaintext,
        "groups.pairing_ms": self_time("groups.pairing") * per_plaintext,
        "groups.sampling_ms": self_time("groups.sampling") * per_plaintext,
        "parallel.map_calls": root_count("parallel.map_calls") / n_requests,
        "parallel.pool_chunks": root_count("parallel.pool_chunks") / n_requests,
    }
    for name, value in _exact_counts(serve_roots).items():
        metrics[name] = float(value)
    for layer, seconds in ledger.items():
        metrics[f"ledger.{layer}_ms"] = seconds * per_request
    metrics["unattributed_ms"] = (roundtrip - sum(ledger.values())) * per_request
    return metrics

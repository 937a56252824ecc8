"""Key-service benchmark: hot, batched and cold decrypt traffic.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot-single --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each run launches ``repro-dlr serve`` in its own process at the service
defaults (4 workers, registry capacity 64, no process pool, leakage-
budget admission on) and drives it closed-loop from this process over
two ``ServiceClient`` connections, each owning a disjoint set of
``dlr`` keys (n=32, lam=32).  Every ciphertext is encrypted during set-
up; timing starts after each key has served one warm-up period.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from a traced server (``perfbench/serve_traced.py``)
and checks that two traced runs of one seed give identical exact
counts.  See ``perfbench/README.md`` for the metric definitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is nonzero on any wrong plaintext, error reply, timeout or broken
service invariant.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CONNECTIONS = 2
#: Servers per untraced run, each set up and timed for a third of the
#: run; ``setup_s`` and ``server_peak_rss_mb`` are medians over them.
SETUPS = 3
KEY_BITS = 32
LAM = 32
#: Server registry capacity (the ``repro-dlr serve`` default).
CAPACITY = 64
#: The tail is the highest percentile with this many samples above it,
#: i.e. the (TAIL_ABOVE + 1)-th largest latency.
TAIL_ABOVE = 10
REQUEST_TIMEOUT = 60.0
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    keys_per_connection: int
    batch: int  # 1 = one ``decrypt`` per request


#: Why each workload exists: ``perfbench/README.md`` and ``BENCHMARK.json``.
WORKLOADS = {
    "hot-single": Workload("hot-single", 4, 1),
    "batch-16": Workload("batch-16", 4, 16),
    # 2 x 64 keys: twice the registry capacity, so every request misses
    "cold-churn": Workload("cold-churn", 64, 1),
}

#: ``--tiny``: the self-test scale.  Same shapes, smaller numbers; the
#: cold workload keeps its 2x-capacity ratio through a smaller registry.
TINY_KEYS = {"hot-single": 2, "batch-16": 2, "cold-churn": 4}
TINY_BATCH = 4
TINY_CAPACITY = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "decrypt_p50_ms": "ms",
    "decrypt_tail_ms": "ms",
    "plaintexts_per_s": "1/s",
    "server_peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark could not run (not a correctness failure)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile that still has
    :data:`TAIL_ABOVE` samples above it.  A fixed percentile ladder
    would switch rungs between runs whose sample counts straddle a rung,
    so the percentile follows the sample count instead and is reported
    with it."""
    if len(samples) <= TAIL_ABOVE:
        raise BenchmarkError(
            f"only {len(samples)} latency samples: the tail needs more than "
            f"{TAIL_ABOVE}; run longer"
        )
    ordered = sorted(samples)
    return 100.0 * (len(ordered) - TAIL_ABOVE) / len(ordered), ordered[-TAIL_ABOVE - 1]


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_JOBS", None)  # --jobs unset: no process pool
    env.pop("REPRO_BACKEND", None)
    return env


class Server:
    """One ``repro-dlr serve`` process with its files under ``directory``."""

    def __init__(self, directory: pathlib.Path, *, traced: bool, capacity: int) -> None:
        self.directory = directory
        self.checkpoints = directory / "checkpoints"
        self.announce = directory / "announce"
        self.spans = directory / "spans.jsonl"
        self.trace = directory / "server-trace.jsonl"
        self.stdout = directory / "server.out"
        self.stderr = directory / "server.err"
        serve = [
            "serve",
            "--checkpoint-dir", str(self.checkpoints),
            "--port", "0",
            "--announce", str(self.announce),
        ]
        if capacity != CAPACITY:
            serve += ["--capacity", str(capacity)]
        if traced:
            command = [
                sys.executable, str(ROOT / "perfbench" / "serve_traced.py"),
                "--spans", str(self.spans), "--",
                *serve, "--trace", str(self.trace),
            ]
        else:
            command = [sys.executable, "-m", "repro.cli", *serve]
        shutil.rmtree(directory, ignore_errors=True)  # no stale announce or keys
        directory.mkdir(parents=True)
        with open(self.stdout, "wb") as out, open(self.stderr, "wb") as err:
            self.process = subprocess.Popen(
                command, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=server_env(), cwd=str(ROOT),
            )

    def wait_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while not self.announce.exists():
            if self.process.poll() is not None:
                raise BenchmarkError(
                    f"server exited with {self.process.returncode} before it was ready: "
                    + self.stderr.read_text(errors="replace")[-2000:]
                )
            if time.monotonic() > deadline:
                raise BenchmarkError("server did not announce its address in time")
            time.sleep(0.005)
        host, port = self.announce.read_text().split()
        return host, int(port)

    def peak_rss_mb(self) -> float:
        status = pathlib.Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM not reported for the server process")

    def stop(self) -> tuple[int, dict]:
        """SIGTERM (graceful drain), wait, and parse the exit summary."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=SERVER_STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise BenchmarkError("server did not drain in time; killed") from None
        text = self.stdout.read_text(errors="replace")
        start = text.find("\n{")
        summary = {}
        if start >= 0:
            summary, _ = json.JSONDecoder().raw_decode(text[start + 1:])
        return code, summary

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()

    def backend(self) -> str:
        for line in self.stdout.read_text(errors="replace").splitlines():
            if line.startswith("serving on") and "backend " in line:
                return line.rsplit("backend ", 1)[1].rstrip(")")
        return "unknown"


# ---------------------------------------------------------------------------
# The generator: one connection per stream
# ---------------------------------------------------------------------------


class Stream:
    """One client connection owning a disjoint set of keys (one tenant)."""

    def __init__(self, index: int, workload: Workload, seed: int, keys: int, batch: int) -> None:
        self.tenant = f"c{index}"
        self.batch = batch
        self.keys = [f"k{number:03d}" for number in range(keys)]
        random.Random(f"perfbench/{workload.name}/{seed}/{self.tenant}/order").shuffle(self.keys)
        self.seed = seed
        self.client = None
        self.params = None  # the keys' DLRParams, known once one is open
        #: key -> [(ciphertexts, expected plaintexts)], cycled per request
        self.traffic: dict[str, list[tuple[list, list]]] = {}
        self.sent: dict[str, int] = {}  # op -> requests sent
        self.ok_by_key: dict[str, int] = {key: 0 for key in self.keys}
        self.errors: list[str] = []
        self.samples: list[dict] = []
        self._cursor = 0
        self._inner = 0.0

    # -- set-up ---------------------------------------------------------------

    def connect(self, address, *, trace_inner: bool) -> None:
        from repro.service import ServiceClient

        self.client = ServiceClient(
            address, timeout=REQUEST_TIMEOUT, retry=None, retry_seed=f"{self.seed}/{self.tenant}"
        )
        if trace_inner:
            request = self.client.request

            def timed_request(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return request(*args, **kwargs)
                finally:
                    self._inner += time.perf_counter() - start

            self.client.request = timed_request

    def prepare(self, batches_per_key: int) -> None:
        """Open, encrypt for and warm up each key in the timed phase's
        order.  Warming a key right after opening it keeps set-up from
        rehydrating keys the registry evicted while later keys opened."""
        from repro.core.dlr import DLR

        for key in self.keys:
            self._count("open")
            public_key = self.client.open_key(self.tenant, key, n=KEY_BITS, lam=LAM)
            self.params = public_key.params
            scheme = DLR(public_key.params)
            rng = random.Random(f"perfbench/{self.seed}/{self.tenant}/{key}/traffic")
            batches = []
            for _ in range(batches_per_key):
                messages = [public_key.group.random_gt(rng) for _ in range(self.batch)]
                ciphertexts = [scheme.encrypt(public_key, message, rng) for message in messages]
                batches.append((ciphertexts, messages))
            self.traffic[key] = batches
            self.request(key, batches[0], record=False)

    def perturb_expected(self) -> None:
        """Self-test hook: corrupt the plaintext the next request expects."""
        key = self.keys[0]
        ciphertexts, messages = self.traffic[key][0]
        bad = list(messages)
        bad[0] = bad[0] * bad[0]
        self.traffic[key][0] = (ciphertexts, bad)

    # -- requests -------------------------------------------------------------

    def _count(self, op: str) -> None:
        self.sent[op] = self.sent.get(op, 0) + 1

    def next_request(self) -> None:
        key = self.keys[self._cursor % len(self.keys)]
        round_index = self._cursor // len(self.keys)
        batches = self.traffic[key]
        self._cursor += 1
        self.request(key, batches[round_index % len(batches)], record=True)

    def request(self, key: str, traffic: tuple[list, list], *, record: bool) -> None:
        ciphertexts, messages = traffic
        op = "decrypt" if self.batch == 1 else "decrypt_batch"
        self._count(op)
        self._inner = 0.0
        start = time.perf_counter()
        try:
            if self.batch == 1:
                plaintexts = [self.client.decrypt(self.tenant, key, ciphertexts[0])]
            else:
                plaintexts = self.client.decrypt_batch(self.tenant, key, ciphertexts)
            called = time.perf_counter()
            ok = plaintexts == messages
            error = None if ok else f"{self.tenant}/{key}: wrong plaintext"
        except Exception as exc:  # every failure mode counts as failed
            called = time.perf_counter()
            ok, error = False, f"{self.tenant}/{key}: {type(exc).__name__}: {exc}"
        checked = time.perf_counter()
        if ok:
            self.ok_by_key[key] += 1
        else:
            self.errors.append(error)
        if record:
            self.samples.append({
                "start": start, "end": called, "checked": checked, "ok": ok,
                "inner": self._inner, "plaintexts": len(messages),
            })

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


def run_streams(streams: list[Stream], action) -> None:
    """Run ``action(stream)`` on every stream concurrently; re-raise the
    first exception (set-up failures are benchmark errors)."""
    failures: list[BaseException] = []

    def target(stream):
        try:
            action(stream)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)

    threads = [threading.Thread(target=target, args=(stream,)) for stream in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]


# ---------------------------------------------------------------------------
# One server lifetime: set-up, timed phase, drain, gate
# ---------------------------------------------------------------------------


@dataclass
class Config:
    workload: Workload
    seed: int
    seconds: float
    keys: int
    batch: int
    capacity: int
    perturb: bool = False


def set_up(config: Config, directory: pathlib.Path, *, traced: bool) -> tuple[Server, list[Stream], float]:
    """Launch the server and bring it to the timed phase's start line:
    keys opened, ciphertexts encrypted, one warm-up period per key."""
    batches_per_key = 2
    started = time.perf_counter()
    server = Server(directory, traced=traced, capacity=config.capacity)
    streams = [
        Stream(index, config.workload, config.seed, config.keys, config.batch)
        for index in range(CONNECTIONS)
    ]
    try:
        address = server.wait_ready()
        run_streams(streams, lambda stream: stream.connect(address, trace_inner=traced))
        run_streams(streams, lambda stream: stream.prepare(batches_per_key))
    except BaseException:
        for stream in streams:
            stream.close()
        server.kill()
        raise
    return server, streams, time.perf_counter() - started


def timed_phase(streams: list[Stream], seconds: float) -> float:
    """Closed loop on every stream until ``seconds`` have passed; each
    stream finishes its request in flight.  Returns the start time."""
    go = threading.Event()
    start_line = []

    def loop(stream: Stream) -> None:
        go.wait()
        stop_at = start_line[0] + seconds
        while time.perf_counter() < stop_at:
            stream.next_request()

    threads = [threading.Thread(target=loop, args=(stream,)) for stream in streams]
    for thread in threads:
        thread.start()
    start_line.append(time.perf_counter())
    go.set()
    for thread in threads:
        thread.join()
    return start_line[0]


def parse_labels(text: str) -> tuple[str, dict]:
    if "{" not in text:
        return text, {}
    name, inner = text[:-1].split("{", 1)
    return name, dict(part.split("=", 1) for part in inner.split(",") if part)


def budget_breaches(stats: dict, streams: list[Stream]) -> list[str]:
    """Leakage budgets against a figure the client derives itself.

    The service answers no leakage queries and no request retries, so
    every resident session's oracle must hold its full per-period bounds
    ``theorem_b1``/``theorem_b2`` of the key's parameters, and each
    tenant's ``service.budget_remaining_bits`` gauge must read those
    bounds times its number of resident sessions, with no retry bits."""
    bounds = {}
    for stream in streams:
        params = stream.params
        bounds[stream.tenant] = {"P1": params.theorem_b1(), "P2": params.theorem_b2()}
    breaches = []
    resident: dict[str, int] = {}
    for row in stats["registry"]["resident"]:
        tenant = row["tenant"]
        resident[tenant] = resident.get(tenant, 0) + 1
        if row.get("budget_remaining") != bounds.get(tenant):
            breaches.append(
                f"{tenant}/{row['key']}: oracle budget {row.get('budget_remaining')}, "
                f"expected {bounds.get(tenant)}"
            )
    expected = {
        (tenant, device): count * bounds[tenant][device]
        for tenant, count in resident.items()
        for device in ("P1", "P2")
    }
    observed: dict[tuple[str, str], float] = {}
    retry_bits = 0.0
    for text, value in stats["metrics"]["gauges"].items():
        name, labels = parse_labels(text)
        if name == "service.budget_remaining_bits":
            observed[(labels["tenant"], labels["device"])] = value
        elif name == "service.budget_retry_bits":
            retry_bits += value
    for slot in sorted(set(expected) | set(observed)):
        if expected.get(slot, 0) != observed.get(slot, 0):
            breaches.append(
                f"budget gauge {slot} reads {observed.get(slot)}, expected "
                f"{expected.get(slot)}"
            )
    if retry_bits:
        breaches.append(f"{retry_bits} retry bits charged")
    if not expected:
        breaches.append("no resident session reports a leakage budget")
    return breaches


def service_breaches(streams, code: int, summary: dict, server: Server) -> list[str]:
    """The post-drain invariants: a clean exit with no drain checkpoint
    failures; zero sheds, deadline expiries and replays; every request
    the client sent counted once in ``service.requests`` (no lost
    increments); and, per key, committed periods equal to OK replies
    (one period per request, batches included)."""
    breaches = []
    if code != 0:
        breaches.append(f"server exited with code {code}")
    if summary.get("drain_failures"):
        breaches.append(f"drain checkpoint failures: {summary['drain_failures']}")
    counters = summary.get("counters", {})
    served: dict[tuple[str, str], int] = {}
    served_ok: dict[tuple[str, str], int] = {}
    for text, value in counters.items():
        name, labels = parse_labels(text)
        if name == "service.requests":
            slot = (labels.get("op"), labels.get("tenant"))
            served[slot] = served.get(slot, 0) + value
            if labels.get("outcome") == "ok":
                served_ok[slot] = served_ok.get(slot, 0) + value
        for bad in (
            "service.sheds", "service.deadline_exceeded", "service.replayed_decrypts",
            "service.drain_checkpoint_failures",
        ):
            if name == bad and value:
                breaches.append(f"{text} = {value}")
    expected: dict[tuple[str, str], int] = {}
    for stream in streams:
        for op, count in stream.sent.items():
            expected[(op, stream.tenant)] = count
    expected[("stats", "-")] = 1  # serve_once's one tenant-less request
    for slot in sorted(set(expected) | set(served), key=str):
        if expected.get(slot, 0) != served.get(slot, 0):
            breaches.append(
                f"service.requests{slot}: client sent {expected.get(slot, 0)}, "
                f"server counted {served.get(slot, 0)}"
            )
    handled = summary.get("requests_handled")
    if handled != sum(expected.values()):
        breaches.append(f"requests_handled {handled} != {sum(expected.values())} sent")
    for stream in streams:
        ok_total = sum(stream.ok_by_key.values())
        for op in ("decrypt", "decrypt_batch"):
            if (op, stream.tenant) in served_ok and served_ok[(op, stream.tenant)] != ok_total:
                breaches.append(
                    f"{stream.tenant}: {ok_total} OK replies but the server counted "
                    f"{served_ok[(op, stream.tenant)]} OK {op}"
                )
        for key, ok in stream.ok_by_key.items():
            path = server.checkpoints / stream.tenant / f"{key}.ckpt.json"
            periods = json.loads(path.read_text())["next_period"]
            if periods != ok:
                breaches.append(
                    f"{stream.tenant}/{key}: {periods} committed periods for {ok} OK requests"
                )
    return breaches


@dataclass
class Lifetime:
    """What one server lifetime produced."""

    setup_s: float
    streams: list
    start_line: float
    breaches: list
    rss_mb: float
    backend: str
    server: Server

    def errors(self) -> list[str]:
        """One entry per failed request and per broken invariant."""
        return [error for stream in self.streams for error in stream.errors] + self.breaches


def serve_once(config: Config, directory: pathlib.Path, *, traced: bool) -> Lifetime:
    """Set up one server, time it, gate it and stop it."""
    server, streams, setup_s = set_up(config, directory, traced=traced)
    breaches: list[str] = []
    try:
        if config.perturb:
            streams[0].perturb_expected()
        start_line = timed_phase(streams, config.seconds)
        stats = streams[0].client.stats()
        breaches += budget_breaches(stats, streams)
        rss_mb = server.peak_rss_mb()
    except BaseException:
        for stream in streams:
            stream.close()
        server.kill()
        raise
    for stream in streams:
        stream.close()
    code, summary = server.stop()
    breaches += service_breaches(streams, code, summary, server)
    return Lifetime(setup_s, streams, start_line, breaches, rss_mb, server.backend(), server)


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_samples(life: Lifetime) -> list[dict]:
    samples = [sample for stream in life.streams for sample in stream.samples]
    if not samples:
        raise BenchmarkError("no request completed in the timed phase")
    return samples


def throughput(lives: list[Lifetime]) -> tuple[float, float]:
    """``(verified plaintexts per second, timed seconds)`` over the timed
    phases of ``lives``; each phase ends when its last request in flight
    is checked."""
    verified = elapsed = 0.0
    for life in lives:
        samples = timed_samples(life)
        verified += sum(sample["plaintexts"] for sample in samples if sample["ok"])
        elapsed += max(sample["checked"] for sample in samples) - life.start_line
    return verified / elapsed, elapsed


def latency_metrics(lives: list[Lifetime]) -> tuple[dict, dict]:
    """The end-to-end metrics, pooling the timed phases of ``lives``."""
    latencies = [
        (sample["checked"] - sample["start"]) * 1000.0
        for life in lives
        for sample in timed_samples(life)
    ]
    percentile, tail_ms = tail(latencies)
    rate, elapsed = throughput(lives)
    metrics = {
        "setup_s": statistics.median(life.setup_s for life in lives),
        "decrypt_p50_ms": statistics.median(latencies),
        "decrypt_tail_ms": tail_ms,
        "plaintexts_per_s": rate,
        "server_peak_rss_mb": statistics.median(life.rss_mb for life in lives),
    }
    detail = {
        "backend": lives[-1].backend,
        "setup_s_each": [life.setup_s for life in lives],
        "tail_percentile": percentile,
        "tail_samples_above": TAIL_ABOVE,
        "latency_samples": len(latencies),
        "timed_seconds": elapsed,
    }
    return metrics, detail


def run_untraced(config: Config, work: pathlib.Path, setups: int) -> tuple[dict, dict, list, list]:
    """``setups`` servers, each set up and then timed for an equal share
    of ``config.seconds``.  Spreading the timed phase over every set-up
    (and over that many server processes) lets one slow spell of a
    shared host weigh less than it would on one contiguous phase."""
    share = replace(config, seconds=config.seconds / setups)
    lives = [serve_once(share, work / f"setup{index}", traced=False) for index in range(setups)]
    errors = [error for life in lives for error in life.errors()]
    metrics, detail = latency_metrics(lives)
    samples = [sample for life in lives for sample in timed_samples(life)]
    return metrics, detail, samples, errors


def read_spans(path: pathlib.Path) -> tuple[dict, list]:
    roots, spans = {}, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if isinstance(record, list):
                spans.append(tuple(record))
            else:
                roots[record.pop("root")] = record
    return roots, spans


def read_server_trace(path: pathlib.Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def traced_lifetime(config: Config, directory: pathlib.Path) -> tuple[dict, float, list, list]:
    """One traced server: ``(per-layer metrics, plaintexts_per_s, errors,
    timed samples)``."""
    import ledger

    life = serve_once(config, directory, traced=True)
    errors = life.errors()
    samples = timed_samples(life)
    roots, spans = read_spans(life.server.spans)
    try:
        metrics = ledger.fold(samples, roots, spans, read_server_trace(life.server.trace))
    except ValueError as exc:
        raise BenchmarkError(f"cannot fold the trace: {exc}") from exc
    return metrics, throughput([life])[0], errors, samples


def run_traced(config: Config, work: pathlib.Path) -> tuple[dict, dict, list, list]:
    import ledger

    untraced, detail, _, errors = run_untraced(config, work / "untraced", setups=1)
    metrics, traced_rate, traced_errors, traced_samples = traced_lifetime(config, work / "traced")
    errors += traced_errors
    # The same seed again, shorter: exact counts must not move.
    repeat = replace(config, seconds=max(1.0, config.seconds / 4), perturb=False)
    repeated, _, repeat_errors, _ = traced_lifetime(repeat, work / "traced-repeat")
    errors += repeat_errors
    for name in ledger.EXACT_COUNTS:
        if metrics[name] != repeated[name]:
            errors.append(
                f"exact count {name} is not repeatable: {metrics[name]} vs {repeated[name]}"
            )
    metrics["telemetry.trace_overhead_frac"] = 1.0 - traced_rate / untraced["plaintexts_per_s"]
    detail["traced_requests"] = len(traced_samples)
    detail["traced_plaintexts_per_s"] = traced_rate
    detail["untraced_plaintexts_per_s"] = untraced["plaintexts_per_s"]
    detail["ledger_sum_ms"] = sum(
        value for name, value in metrics.items() if name.startswith("ledger.")
    ) + metrics["unattributed_ms"]
    return metrics, detail, traced_samples, errors


PER_LAYER_UNITS = {
    "service.roundtrip_ms": "ms/req",
    "service.wire_ms": "ms/req",
    "service.registry_get_ms": "ms/req",
    "service.registry_hit_ratio": "ratio",
    "service.rehydrations_per_request": "count/req",
    "service.queue_wait_ms": "ms/req",
    "service.lock_wait_ms": "ms/req",
    "runtime.commit_ms": "ms/req",
    "runtime.checkpoint_save_ms": "ms/req",
    "runtime.checkpoint_saves_per_request": "count/req",
    "runtime.checkpoint_load_ms": "ms/req",
    "runtime.checkpoint_loads_per_request": "count/req",
    "runtime.retries_per_request": "count/req",
    "core.run_period_ms": "ms/pt",
    "core.hpske_encrypt_ms": "ms/pt",
    "protocol.bits_per_plaintext": "bits/pt",
    "utils.codec_ms": "ms/pt",
    "groups.multiexp_ms": "ms/pt",
    "groups.pairing_ms": "ms/pt",
    "groups.sampling_ms": "ms/pt",
    "groups.pairings_per_plaintext": "count/pt",
    "groups.multiexp_terms_per_plaintext": "count/pt",
    "groups.samples_per_plaintext": "count/pt",
    "parallel.map_calls": "count/req",
    "parallel.pool_chunks": "count/req",
    "telemetry.trace_overhead_frac": "ratio",
    "ledger.service_ms": "ms/req",
    "ledger.runtime_ms": "ms/req",
    "ledger.core_ms": "ms/req",
    "ledger.utils_ms": "ms/req",
    "ledger.groups_ms": "ms/req",
    "unattributed_ms": "ms/req",
}


def config_for(args, workload: Workload) -> Config:
    if args.tiny:
        return Config(workload, args.seed, args.seconds, TINY_KEYS[workload.name],
                      TINY_BATCH if workload.batch > 1 else 1, TINY_CAPACITY, args.perturb_expected)
    return Config(workload, args.seed, args.seconds, workload.keys_per_connection,
                  workload.batch, CAPACITY, args.perturb_expected)


def run_workload(args, workload: Workload) -> dict:
    config = config_for(args, workload)
    # The last run of each workload and mode leaves its server files here.
    work = WORK / f"{workload.name}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        metrics, detail, samples, errors = run_traced(config, work)
        units = PER_LAYER_UNITS
    else:
        setups = 1 if args.tiny else SETUPS
        metrics, detail, samples, errors = run_untraced(config, work, setups)
        units = END_TO_END_UNITS
    # One error per failed request (timed or warm-up) or broken invariant.
    attempted = len(samples)
    failed = len(errors)
    report(workload, args, metrics, units, detail, attempted, failed, errors)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(workload, args, metrics, units, detail, attempted, failed, errors) -> None:
    print(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}): {attempted} requests sent, {failed} failed")
    for name in units:
        line = f"  {name:38s} {metrics[name]:12.4f} {units[name]}"
        if name == "decrypt_tail_ms":
            line += (f"  (p{detail['tail_percentile']:.1f} of {detail['latency_samples']} samples, "
                     f"{detail['tail_samples_above']} above)")
        print(line)
    print("  meta " + json.dumps(detail, sort_keys=True))
    for error in errors[:20]:
        print(f"  FAIL {error}")
    if len(errors) > 20:
        print(f"  ... and {len(errors) - 20} more failures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test scale: fewer keys, smaller batch and registry, one set-up")
    parser.add_argument("--perturb-expected", action="store_true",
                        help="self-test hook: corrupt one expected plaintext")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            results.append(run_workload(args, WORKLOADS[name]))
        except BenchmarkError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(results[-1]), flush=True)
    return 0 if all(result["correct"] and not result["failed"] for result in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())

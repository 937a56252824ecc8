"""Command-line interface for the DLR scheme.

Key material and ciphertexts travel as the JSON envelopes of
:mod:`repro.utils.persist`.  The two "devices" are files on disk in this
demo driver -- a real deployment would keep share files on separate
hardware and run the protocol messages over a network.

Commands::

    repro-dlr keygen  -n 64 --lam 128 --out-dir keys/
    repro-dlr encrypt --pk keys/public_key.json --message <hex|-> --out ct.json
    repro-dlr decrypt --pk keys/public_key.json --share1 keys/share1.json \
                      --share2 keys/share2.json --ciphertext ct.json
    repro-dlr refresh --pk keys/public_key.json --share1 ... --share2 ... [--in-place]
    repro-dlr supervise --pk keys/public_key.json --share1 ... --share2 ... \
                        --periods 10 --seed 7 --checkpoint session.ckpt.json
    repro-dlr supervise --resume --checkpoint session.ckpt.json
    repro-dlr serve   --checkpoint-dir service-state/ --workers 4 --port 0 \
                      --announce service.addr
    repro-dlr trace   trace.jsonl --top 10
    repro-dlr metrics --log session.json
    repro-dlr info    --pk keys/public_key.json

``supervise`` drives a whole multi-period lifecycle through the
:mod:`repro.runtime` session supervisor: classified retries, durable
checkpoints after every committed period (kill the process at any
instant and ``--resume`` continues from the checkpoint), and a
structured session log (``--log``).  With ``--trace`` the lifecycle is
span-traced to JSONL (digest it with ``trace``); with ``--budget``
retries are charged against the Theorem 4.1 leakage budget and the
dashboard is printed (and embedded per period in ``--log``, which
``metrics`` renders).

``encrypt`` takes a GT element produced by ``random-message``; use
``random-message`` to mint one (printed as hex, decryption prints the
same hex back).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys

from repro.core.dlr import DLR
from repro.core.params import DLRParams
from repro.groups.encoding import decode_gt
from repro.groups.pairing_params import generate_params
from repro.groups.bilinear import BilinearGroup
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport
from repro.utils import persist
from repro.utils.bits import BitString


def _write(path: pathlib.Path, text: str) -> None:
    path.write_text(text)
    print(f"wrote {path}")


def _load_public_key(path: str):
    return persist.loads(pathlib.Path(path).read_text())


def cmd_keygen(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    group = BilinearGroup(generate_params(args.n, rng))
    params = DLRParams(group=group, lam=args.lam)
    scheme = DLR(params)
    generation = scheme.generate(rng)
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "public_key.json", persist.dumps("public_key", generation.public_key))
    _write(out / "share1.json", persist.dumps("share1", generation.share1))
    _write(out / "share2.json", persist.dumps("share2", generation.share2))
    print(
        f"generated: n={params.n}, lambda={params.lam}, "
        f"kappa={params.kappa}, ell={params.ell}, "
        f"b1={params.theorem_b1()} bits/period"
    )
    return 0


def cmd_random_message(args: argparse.Namespace) -> int:
    public_key = _load_public_key(args.pk)
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    message = public_key.group.random_gt(rng)
    print(message.to_bits().to_bytes().hex())
    return 0


def cmd_encrypt(args: argparse.Namespace) -> int:
    public_key = _load_public_key(args.pk)
    group = public_key.group
    hex_text = sys.stdin.read().strip() if args.message == "-" else args.message
    width = group.gt_element_bits()
    message = decode_gt(
        group, BitString(int.from_bytes(bytes.fromhex(hex_text), "big"), width)
    )
    rng = random.Random(args.seed) if args.seed is not None else random.Random()
    scheme = DLR(public_key.params)
    ciphertext = scheme.encrypt(public_key, message, rng)
    _write(pathlib.Path(args.out), persist.dumps("ciphertext", ciphertext))
    return 0


def _devices_for(public_key, share1, share2, seed=None):
    rng = random.Random(seed) if seed is not None else random.Random()
    group = public_key.group
    scheme = DLR(public_key.params)
    device1 = Device("P1", group, rng)
    device2 = Device("P2", group, rng)
    scheme.install(device1, device2, share1, share2)
    return scheme, device1, device2


def cmd_decrypt(args: argparse.Namespace) -> int:
    public_key = _load_public_key(args.pk)
    group = public_key.group
    share1 = persist.loads(pathlib.Path(args.share1).read_text(), group)
    share2 = persist.loads(pathlib.Path(args.share2).read_text(), group)
    ciphertext = persist.loads(pathlib.Path(args.ciphertext).read_text(), group)
    scheme, device1, device2 = _devices_for(public_key, share1, share2, args.seed)
    plaintext = scheme.decrypt_protocol(device1, device2, InMemoryTransport(), ciphertext)
    print(plaintext.to_bits().to_bytes().hex())
    return 0


def cmd_refresh(args: argparse.Namespace) -> int:
    public_key = _load_public_key(args.pk)
    group = public_key.group
    share1_path = pathlib.Path(args.share1)
    share2_path = pathlib.Path(args.share2)
    share1 = persist.loads(share1_path.read_text(), group)
    share2 = persist.loads(share2_path.read_text(), group)
    scheme, device1, device2 = _devices_for(public_key, share1, share2, args.seed)
    scheme.refresh_protocol(device1, device2, InMemoryTransport())
    new_share1 = scheme.share1_of(device1)
    new_share2 = scheme.share2_of(device2)
    suffix = "" if args.in_place else ".refreshed"
    _write(share1_path.with_name(share1_path.name + suffix) if suffix else share1_path,
           persist.dumps("share1", new_share1))
    _write(share2_path.with_name(share2_path.name + suffix) if suffix else share2_path,
           persist.dumps("share2", new_share2))
    print("shares refreshed (public key unchanged)")
    return 0


def cmd_supervise(args: argparse.Namespace) -> int:
    import time

    from repro.core.optimal import OptimalDLR
    from repro.ibe.dlr_ibe import DLRIBE
    from repro.protocol.transport import SocketTransport
    from repro.runtime import RetryPolicy, SessionSupervisor
    from repro.telemetry import Tracer, install_tracer

    if args.wire == "socket":
        transport = SocketTransport(timeout=args.timeout)
    else:
        transport = InMemoryTransport()
    policy = RetryPolicy(max_attempts=args.max_attempts)

    def on_commit(state) -> None:
        # Flushed so a parent process (or a human tail) can watch
        # progress in real time -- the kill/resume harness relies on it.
        print(
            f"period {state.next_period - 1} committed "
            f"({state.remaining_periods} remaining)",
            flush=True,
        )
        if args.pace > 0:
            time.sleep(args.pace)

    if args.resume:
        if args.checkpoint is None:
            print("--resume requires --checkpoint", file=sys.stderr)
            return 2
        supervisor = SessionSupervisor.resume(
            args.checkpoint, transport, policy=policy, on_period_commit=on_commit
        )
        print(
            f"resumed {supervisor.state.scheme} session at period "
            f"{supervisor.state.next_period}/{supervisor.state.periods_total}",
            flush=True,
        )
    else:
        for required in ("pk", "share1", "share2"):
            if getattr(args, required) is None:
                print(f"--{required} is required unless --resume", file=sys.stderr)
                return 2
        public_key = _load_public_key(args.pk)
        group = public_key.group
        share1 = persist.loads(pathlib.Path(args.share1).read_text(), group)
        share2 = persist.loads(pathlib.Path(args.share2).read_text(), group)
        scheme_cls = {"dlr": DLR, "optimal": OptimalDLR, "dlribe": DLRIBE}[args.scheme]
        supervisor = SessionSupervisor.start(
            scheme_cls(public_key.params),
            transport,
            public_key=public_key,
            share1=share1,
            share2=share2,
            periods=args.periods,
            seed=args.seed,
            checkpoint_path=args.checkpoint,
            policy=policy,
            on_period_commit=on_commit,
        )
    if args.budget:
        from repro.leakage.oracle import LeakageBudget, LeakageOracle

        params = supervisor.state.public_key.params
        supervisor.oracle = LeakageOracle(
            LeakageBudget(b0=0, b1=params.theorem_b1(), b2=params.theorem_b2())
        )
    tracer = None
    if args.trace is not None:
        tracer = Tracer()
        previous = install_tracer(tracer)
    try:
        result = supervisor.run()
    finally:
        if tracer is not None:
            install_tracer(previous)
    if tracer is not None:
        tracer.export_jsonl(args.trace)
        print(f"wrote {args.trace}")
    if args.log is not None:
        persist.atomic_write_text(args.log, result.log.to_json())
        print(f"wrote {args.log}")
    if supervisor.oracle is not None:
        from repro.telemetry import budget_dashboard, render_budget_dashboard

        print(render_budget_dashboard(budget_dashboard(supervisor.oracle)))
    print(json.dumps(result.log.to_dict()["summary"], indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the multi-session key service until interrupted.

    ``--announce FILE`` writes ``host port`` once the listener is bound
    (the port is ephemeral with ``--port 0``), so test harnesses and
    init scripts can wait for the file instead of polling the socket.
    ``--max-requests N`` drains and exits after N requests -- the knob
    the CLI test and the bench harness use for bounded runs.

    SIGTERM / SIGINT trigger a graceful drain: stop accepting, finish
    in-flight requests within ``--drain-deadline`` seconds, flush every
    resident session's checkpoint, and exit -- nonzero only if a
    checkpoint flush failed (the deployment's durable state could not
    be proven complete).
    """
    import signal
    import threading as _threading

    from repro.service import KeyService, SessionRegistry
    from repro.telemetry import Tracer, install_tracer

    registry = SessionRegistry(
        args.checkpoint_dir, capacity=args.capacity, budgeted=args.budget
    )
    service = KeyService(
        registry,
        host=args.host,
        port=args.port,
        workers=args.workers,
        client_timeout=args.timeout,
        max_requests=args.max_requests,
        backlog=args.backlog,
    )
    from repro.math.backend import active_backend

    tracer = None
    previous_tracer = None
    if args.trace is not None:
        # The server is one actor in a cross-process trace: qualified
        # span ids keep its file merge-safe against any client's.
        tracer = Tracer(actor="server")
        previous_tracer = install_tracer(tracer)
    service.start()
    host, port = service.address
    print(f"serving on {host}:{port} ({args.workers} workers, "
          f"capacity {args.capacity}, backend {active_backend().name})", flush=True)
    if args.announce is not None:
        persist.atomic_write_text(args.announce, f"{host} {port}\n")
    prom = None
    if args.prom_port is not None:
        from repro.service import PrometheusEndpoint

        prom = PrometheusEndpoint(service, host=args.host, port=args.prom_port).start()
        prom_host, prom_port = prom.address
        print(f"prometheus on {prom_host}:{prom_port}", flush=True)
        if args.prom_announce is not None:
            persist.atomic_write_text(args.prom_announce, f"{prom_host} {prom_port}\n")

    def request_drain(signum, frame):
        print(f"received signal {signum}; draining", flush=True)
        service.begin_drain()

    previous_handlers = {}
    # signal.signal only works on the main thread; the in-process CLI
    # tests drive serve from a worker thread and keep the old
    # KeyboardInterrupt path instead.
    if _threading.current_thread() is _threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous_handlers[signum] = signal.signal(signum, request_drain)
    try:
        service.wait()
    except KeyboardInterrupt:
        print("interrupted; draining", flush=True)
    finally:
        service.stop(drain_deadline=args.drain_deadline)
        if prom is not None:
            prom.stop()
        if tracer is not None:
            install_tracer(previous_tracer)
            tracer.export_jsonl(args.trace)
            print(f"wrote {args.trace}", flush=True)
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    snapshot = service.metrics.snapshot()
    print(json.dumps(
        {
            "requests_handled": service.requests_handled,
            "drain_failures": service.drain_failures,
            "counters": snapshot["counters"],
        },
        indent=2,
        sort_keys=True,
    ))
    if service.drain_failures:
        print(
            f"drain failed to checkpoint {len(service.drain_failures)} "
            "session(s)", file=sys.stderr, flush=True,
        )
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Digest a span-trace JSONL file, or -- as ``trace analyze FILE...``
    -- merge one or more (cross-process) traces and report critical-path
    decomposition and per-step aggregates."""
    from repro.telemetry import (
        merge_trace_files,
        render_trace_analysis,
        render_trace_report,
        trace_analysis,
        validate_trace_file,
    )

    files = list(args.files)
    if files and files[0] == "analyze":
        files = files[1:]
        if not files:
            print("trace analyze: at least one trace file required", file=sys.stderr)
            return 2
        try:
            spans = merge_trace_files(files, output=args.merged_out)
        except (OSError, ValueError) as exc:
            print(f"invalid trace: {exc}", file=sys.stderr)
            return 1
        if args.merged_out is not None:
            print(f"wrote {args.merged_out}")
        print(render_trace_analysis(trace_analysis(spans)))
        return 0
    if len(files) != 1:
        print(
            "trace: exactly one file for the digest (use 'trace analyze "
            "FILE...' for multi-file analysis)",
            file=sys.stderr,
        )
        return 2
    try:
        spans = validate_trace_file(files[0])
    except ValueError as exc:
        print(f"invalid trace: {exc}", file=sys.stderr)
        return 1
    print(render_trace_report(spans, top=args.top))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render the per-period telemetry snapshots of a session log."""
    from repro.telemetry import render_period_metrics

    log_dict = json.loads(pathlib.Path(args.log).read_text())
    if args.json:
        print(json.dumps([p.get("metrics", {}) for p in log_dict.get("periods", [])], indent=2))
        return 0
    print(render_period_metrics(log_dict))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    public_key = _load_public_key(args.pk)
    params = public_key.params
    pairing = params.group.params
    info = {
        "security_parameter_n": params.n,
        "group_order_bits": pairing.p.bit_length(),
        "field_bits": pairing.q.bit_length(),
        "cofactor": pairing.h,
        "lambda": params.lam,
        "kappa": params.kappa,
        "ell": params.ell,
        "m1_bits": params.sk_comm_bits(),
        "m2_bits": params.sk2_bits(),
        "b1_bits_per_period": params.theorem_b1(),
        "b2_bits_per_period": params.theorem_b2(),
    }
    print(json.dumps(info, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dlr",
        description="Distributed leakage-resilient PKE (PODC 2012 reproduction)",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "python", "gmpy2"),
        default=None,
        help="field-arithmetic backend (default: $REPRO_BACKEND or auto-detect; "
        "see docs/performance.md)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for batch pairing/multiexp kernels "
        "(default: $REPRO_JOBS or 1 = in-process; see docs/performance.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="generate pk + device shares")
    keygen.add_argument("-n", type=int, default=64, help="security parameter (bits of p)")
    keygen.add_argument("--lam", type=int, default=128, help="leakage parameter lambda")
    keygen.add_argument("--out-dir", default="keys", help="output directory")
    keygen.add_argument("--seed", type=int, default=None)
    keygen.set_defaults(fn=cmd_keygen)

    rmsg = sub.add_parser("random-message", help="mint a random GT plaintext (hex)")
    rmsg.add_argument("--pk", required=True)
    rmsg.add_argument("--seed", type=int, default=None)
    rmsg.set_defaults(fn=cmd_random_message)

    enc = sub.add_parser("encrypt", help="encrypt a GT plaintext")
    enc.add_argument("--pk", required=True)
    enc.add_argument("--message", required=True, help="hex plaintext or '-' for stdin")
    enc.add_argument("--out", required=True)
    enc.add_argument("--seed", type=int, default=None)
    enc.set_defaults(fn=cmd_encrypt)

    dec = sub.add_parser("decrypt", help="run the 2-party decryption protocol")
    dec.add_argument("--pk", required=True)
    dec.add_argument("--share1", required=True)
    dec.add_argument("--share2", required=True)
    dec.add_argument("--ciphertext", required=True)
    dec.add_argument("--seed", type=int, default=None)
    dec.set_defaults(fn=cmd_decrypt)

    ref = sub.add_parser("refresh", help="run the 2-party refresh protocol")
    ref.add_argument("--pk", required=True)
    ref.add_argument("--share1", required=True)
    ref.add_argument("--share2", required=True)
    ref.add_argument("--in-place", action="store_true")
    ref.add_argument("--seed", type=int, default=None)
    ref.set_defaults(fn=cmd_refresh)

    sup = sub.add_parser(
        "supervise",
        help="drive a supervised multi-period lifecycle (checkpointed, resumable)",
    )
    sup.add_argument("--pk", default=None)
    sup.add_argument("--share1", default=None)
    sup.add_argument("--share2", default=None)
    sup.add_argument("--scheme", choices=("dlr", "optimal", "dlribe"), default="dlr")
    sup.add_argument("--periods", type=int, default=5)
    sup.add_argument("--seed", type=int, default=0)
    sup.add_argument("--checkpoint", default=None, help="durable checkpoint file")
    sup.add_argument(
        "--resume",
        action="store_true",
        help="continue from --checkpoint instead of starting fresh",
    )
    sup.add_argument("--wire", choices=("memory", "socket"), default="memory")
    sup.add_argument("--timeout", type=float, default=30.0, help="socket timeout (s)")
    sup.add_argument("--max-attempts", type=int, default=3)
    sup.add_argument("--log", default=None, help="write the session log JSON here")
    sup.add_argument(
        "--pace",
        type=float,
        default=0.0,
        help="sleep between periods (widens the crash window for drills)",
    )
    sup.add_argument(
        "--trace",
        default=None,
        metavar="JSONL",
        help="record a span trace of the whole lifecycle to this JSONL file",
    )
    sup.add_argument(
        "--budget",
        action="store_true",
        help="account retries against the Theorem 4.1 leakage budget and "
        "print the budget dashboard (embedded per period in --log)",
    )
    sup.set_defaults(fn=cmd_supervise)

    serve = sub.add_parser(
        "serve",
        help="run the multi-session key service (framed TCP, many keys)",
    )
    serve.add_argument("--checkpoint-dir", default="service-state",
                       help="directory of per-key durable checkpoints")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port (see --announce)")
    serve.add_argument("--workers", type=int, default=4,
                       help="request worker threads (concurrent sessions served)")
    serve.add_argument("--capacity", type=int, default=64,
                       help="max resident sessions before LRU eviction")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="per-connection idle timeout (s); silent clients are dropped")
    serve.add_argument("--backlog", type=int, default=8,
                       help="heavy requests that may wait for a busy worker; "
                            "beyond it they are shed with 'overloaded'")
    serve.add_argument("--drain-deadline", type=float, default=30.0,
                       help="seconds in-flight requests may take to finish "
                            "during a graceful drain (SIGTERM/SIGINT)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="drain and exit after this many requests")
    serve.add_argument("--announce", default=None, metavar="FILE",
                       help="write 'host port' here once the listener is bound")
    serve.add_argument("--prom-port", type=int, default=None, metavar="PORT",
                       help="also serve a read-only Prometheus scrape endpoint "
                            "(GET /metrics, GET /health) on this port (0 = ephemeral)")
    serve.add_argument("--prom-announce", default=None, metavar="FILE",
                       help="write 'host port' of the Prometheus endpoint here "
                            "once it is bound (separate from --announce)")
    serve.add_argument("--trace", default=None, metavar="JSONL",
                       help="record a server-side span trace (actor 'server') "
                            "to this JSONL file at exit")
    serve.add_argument("--no-budget", dest="budget", action="store_false",
                       help="serve without leakage-budget admission control")
    serve.set_defaults(fn=cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="digest a span-trace JSONL file (or: trace analyze FILE...)",
    )
    trace.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="trace JSONL file(s); prefix with the literal word 'analyze' "
        "for cross-process critical-path analysis of merged traces",
    )
    trace.add_argument("--top", type=int, default=10, help="hottest spans to list")
    trace.add_argument("--merged-out", default=None, metavar="JSONL",
                       help="with 'analyze': also write the merged trace here")
    trace.set_defaults(fn=cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="render per-period telemetry from a session log"
    )
    metrics.add_argument("--log", required=True, help="session log JSON (supervise --log)")
    metrics.add_argument("--json", action="store_true", help="raw metrics snapshots as JSON")
    metrics.set_defaults(fn=cmd_metrics)

    info = sub.add_parser("info", help="print parameters of a public key")
    info.add_argument("--pk", required=True)
    info.set_defaults(fn=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.backend is not None:
        from repro.errors import ParameterError
        from repro.math.backend import set_backend

        try:
            set_backend(args.backend)
        except ParameterError as exc:
            print(f"--backend {args.backend}: {exc}", file=sys.stderr)
            return 2
    if args.jobs is not None:
        from repro.parallel import set_jobs

        if args.jobs < 1:
            print(f"--jobs {args.jobs}: must be >= 1", file=sys.stderr)
            return 2
        set_jobs(args.jobs)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())

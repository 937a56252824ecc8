"""T12 -- microbenchmarks of every primitive operation.

Regenerates the performance substrate table: pairing, exponentiations,
sampling, HPSKE operations, and the four scheme operations (Gen, Enc,
2-party Dec, 2-party Ref), at the default 64-bit benchmark size.

Also runnable as a script (``python benchmarks/bench_ops.py --smoke``):
runs one full period of DLR and OptimalDLR on tiny parameters, plus one
batch-of-3 ``run_period_multi`` period of each, and emits a JSON report
of per-party group-operation counts and bits-on-wire per message label,
from the engine's ``TranscriptStats``.  CI uploads this
as an artifact so communication/computation regressions show up in the
numbers, not just in wall time.
"""

import random

import pytest

from repro.core.dlr import DLR
from repro.core.hpske import HPSKE
from repro.core.optimal import OptimalDLR
from repro.protocol.device import Device
from repro.protocol.transport import InMemoryTransport


@pytest.fixture(scope="module")
def dlr(bench_params):
    return DLR(bench_params)


@pytest.fixture(scope="module")
def generated(dlr):
    return dlr.generate(random.Random(1))


def installed_devices(scheme, generated, seed=2):
    rng = random.Random(seed)
    p1 = Device("P1", scheme.group, rng)
    p2 = Device("P2", scheme.group, rng)
    scheme.install(p1, p2, generated.share1, generated.share2)
    return p1, p2, InMemoryTransport()


class TestGroupOps:
    def test_pairing(self, benchmark, bench_group, rng):
        u, v = bench_group.random_g(rng), bench_group.random_g(rng)
        benchmark(lambda: bench_group.pair(u, v))

    def test_g_exponentiation(self, benchmark, bench_group, rng):
        u = bench_group.random_g(rng)
        k = bench_group.random_scalar(rng)
        benchmark(lambda: u ** k)

    def test_gt_exponentiation(self, benchmark, bench_group, rng):
        u = bench_group.random_gt(rng)
        k = bench_group.random_scalar(rng)
        benchmark(lambda: u ** k)

    def test_g_sampling_unknown_dlog(self, benchmark, bench_group, rng):
        benchmark(lambda: bench_group.random_g(rng))

    def test_gt_sampling_unknown_dlog(self, benchmark, bench_group, rng):
        benchmark(lambda: bench_group.random_gt(rng))


class TestHPSKEOps:
    def test_encrypt(self, benchmark, bench_group, bench_params, rng):
        scheme = HPSKE(bench_group, bench_params.kappa, "G")
        key = scheme.keygen(rng)
        message = bench_group.random_g(rng)
        benchmark(lambda: scheme.encrypt(key, message, rng))

    def test_decrypt(self, benchmark, bench_group, bench_params, rng):
        scheme = HPSKE(bench_group, bench_params.kappa, "G")
        key = scheme.keygen(rng)
        ciphertext = scheme.encrypt(key, bench_group.random_g(rng), rng)
        benchmark(lambda: scheme.decrypt(key, ciphertext))

    def test_pairing_transport(self, benchmark, bench_group, bench_params, rng):
        scheme = HPSKE(bench_group, bench_params.kappa, "G")
        key = scheme.keygen(rng)
        ciphertext = scheme.encrypt(key, bench_group.random_g(rng), rng)
        point = bench_group.random_g(rng)
        benchmark(lambda: ciphertext.pair_with(point))


class TestScaling:
    def test_op_scaling_table(self, benchmark, table_writer):
        """T12's 'figure': substrate op costs across group sizes."""
        import time

        from repro.groups import preset_group

        def median_time(fn, repeats=7):
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - start)
            samples.sort()
            return samples[len(samples) // 2]

        rows = []
        timings = {}
        for n_bits in (32, 64, 96, 128):
            group = preset_group(n_bits)
            rng = random.Random(n_bits)
            u, v = group.random_g(rng), group.random_g(rng)
            k = group.random_scalar(rng)
            z = group.gt_generator()
            pairing_ms = median_time(lambda: group.pair(u, v)) * 1000
            g_exp_ms = median_time(lambda: u ** k) * 1000
            gt_exp_ms = median_time(lambda: z ** k) * 1000
            sample_ms = median_time(lambda: group.random_g(rng)) * 1000
            timings[n_bits] = pairing_ms
            rows.append(
                [
                    n_bits,
                    f"{pairing_ms:.3f}",
                    f"{g_exp_ms:.3f}",
                    f"{gt_exp_ms:.3f}",
                    f"{sample_ms:.3f}",
                ]
            )
        table_writer(
            "T12_scaling",
            ["n (bits of p)", "pairing ms", "G exp ms", "GT exp ms", "G sample ms"],
            rows,
            note="Pure-Python substrate costs vs security parameter (medians of 7).",
        )
        # Costs must grow with the group size (sanity on the scaling shape).
        assert timings[128] > timings[32]

        benchmark(lambda: preset_group(64).pair(preset_group(64).g, preset_group(64).g))


class TestSchemeOps:
    def test_key_generation(self, benchmark, dlr):
        benchmark.pedantic(
            lambda: dlr.generate(random.Random(3)), rounds=3, iterations=1
        )

    def test_encrypt(self, benchmark, dlr, generated, rng):
        message = dlr.group.random_gt(rng)
        benchmark(lambda: dlr.encrypt(generated.public_key, message, rng))

    def test_decrypt_protocol(self, benchmark, dlr, generated, rng):
        p1, p2, channel = installed_devices(dlr, generated)
        ciphertext = dlr.encrypt(generated.public_key, dlr.group.random_gt(rng), rng)
        benchmark.pedantic(
            lambda: dlr.decrypt_protocol(p1, p2, channel, ciphertext),
            rounds=3,
            iterations=1,
        )

    def test_refresh_protocol(self, benchmark, dlr, generated, rng):
        p1, p2, channel = installed_devices(dlr, generated)
        benchmark.pedantic(
            lambda: dlr.refresh_protocol(p1, p2, channel), rounds=3, iterations=1
        )

    def test_full_period_optimal_variant(self, benchmark, bench_params, generated, rng):
        optimal = OptimalDLR(bench_params)
        p1, p2, channel = installed_devices(optimal, generated)
        ciphertext = optimal.encrypt(generated.public_key, optimal.group.random_gt(rng), rng)
        benchmark.pedantic(
            lambda: optimal.run_period(p1, p2, channel, ciphertext),
            rounds=2,
            iterations=1,
        )


# ---------------------------------------------------------------------------
# Smoke mode: tiny-parameter op-count / bits-on-wire report for CI


def smoke_report(group_bits: int = 32, lam: int = 32, seed: int = 7) -> dict:
    """One full period of each scheme on tiny parameters, instrumented.

    Returns a JSON-serializable report: per-party operation counts from
    the engine transcript, bits on the wire per message label, the
    snapshot (leakage-surface) sizes, and the telemetry registry's
    metrics snapshot for the period.  Deterministic for a fixed seed,
    except the ``engine.step_wall_seconds`` histogram (timing).
    """
    from repro.core.params import DLRParams
    from repro.groups import preset_group
    from repro.telemetry import metering

    group = preset_group(group_bits)
    params = DLRParams(group=group, lam=lam)
    report = {
        "group_bits": group_bits,
        "lam": lam,
        "ell": params.ell,
        "kappa": params.kappa,
        "seed": seed,
        "schemes": {},
    }
    # ``batch=None`` runs ``run_period`` on one ciphertext; an integer
    # runs ``run_period_multi`` on that many.
    for name, scheme_cls, batch in (
        ("dlr", DLR, None),
        ("optimal", OptimalDLR, None),
        ("dlr_batch3", DLR, 3),
        ("optimal_batch3", OptimalDLR, 3),
    ):
        scheme = scheme_cls(params)
        rng = random.Random(seed)
        generation = scheme.generate(rng)
        p1 = Device("P1", group, rng)
        p2 = Device("P2", group, rng)
        scheme.install(p1, p2, generation.share1, generation.share2)
        channel = InMemoryTransport()
        ciphertexts = [
            scheme.encrypt(generation.public_key, group.random_gt(rng), rng)
            for _ in range(batch or 1)
        ]
        with metering() as registry:
            if batch is None:
                record = scheme.run_period(p1, p2, channel, ciphertexts[0])
            else:
                record = scheme.run_period_multi(p1, p2, channel, ciphertexts)
        stats = scheme.last_stats
        report["schemes"][name] = {
            "bits_on_wire": channel.bits_on_wire(),
            "bits_by_label": channel.bits_by_label(0),
            "ops_party1": stats.ops_for_party(1).as_dict(),
            "ops_party2": stats.ops_for_party(2).as_dict(),
            "snapshot_bits": {
                f"p{party}.{phase}": len(snapshot.to_bits())
                for (party, phase), snapshot in record.snapshots.items()
            },
            "steps": len(stats.steps),
            "metrics": registry.snapshot(),
        }
    return report


def _deterministic_view(report: dict) -> dict:
    """The report minus its timing-derived fields.

    Everything in the smoke report is a pure function of the seed except
    the metrics histograms (``engine.step_wall_seconds`` holds wall-clock
    samples), so comparisons strip those.
    """
    import copy

    view = copy.deepcopy(report)
    for scheme in view.get("schemes", {}).values():
        metrics = scheme.get("metrics")
        if isinstance(metrics, dict):
            metrics.pop("histograms", None)
    return view


def check_against_baseline(report: dict, baseline: dict) -> list[str]:
    """Compare the deterministic fields of two smoke reports.

    Returns human-readable difference lines (empty means no drift).  Any
    change in operation counts, bits on the wire, or snapshot sizes is a
    regression (or an intentional change that must re-baseline).
    """
    fresh = _deterministic_view(report)
    baseline = _deterministic_view(baseline)
    problems: list[str] = []

    def walk(path, a, b):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                if key not in a:
                    problems.append(f"{path}.{key}: missing from fresh report")
                elif key not in b:
                    problems.append(f"{path}.{key}: not in baseline (re-baseline?)")
                else:
                    walk(f"{path}.{key}", a[key], b[key])
        elif a != b:
            problems.append(f"{path}: baseline {b!r} != fresh {a!r}")

    walk("report", fresh, baseline)
    return problems


def main(argv=None) -> int:
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the tiny-parameter smoke benchmark and emit JSON",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON report here instead of stdout",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        default=None,
        help="compare deterministic fields against a baseline JSON report "
        "and exit non-zero on drift",
    )
    parser.add_argument("--group-bits", type=int, default=32)
    parser.add_argument("--lam", type=int, default=32)
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error(
            "the pytest-benchmark suite runs via pytest; "
            "pass --smoke for the scripted report"
        )
    report = smoke_report(group_bits=args.group_bits, lam=args.lam)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline)
        if problems:
            sys.stderr.write("op-count drift vs baseline:\n")
            for line in problems:
                sys.stderr.write(f"  {line}\n")
            return 1
        sys.stderr.write("op counts match baseline\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Wall-clock benchmarks of the fast group-arithmetic kernels.

Measures each kernel (simultaneous multi-exponentiation, fixed-argument
pairing precomputation, batch modular inversion, the inversion-free
projective Miller loop) and each scheme-level hot path (P2's
decrypt/refresh combines, P1's d_i derivation, the full two-party
decryption protocol) twice on identical inputs: once with the fast
kernels active and once inside
:func:`repro.groups.fastops.reference_mode`, which restores the naive
per-term / per-pairing code paths.  Reports trimmed-median timings and
the speedup ratio per entry (the median of per-repeat ratios, the two
legs timed back to back), and calibrates the
:meth:`~repro.groups.bilinear.OperationCounter.total_cost` weights from
the measured per-operation costs.  ``schemes.channel_handoff`` pairs
the in-memory channel's structural handoff against a wire-codec round
trip (the socket path, subgroup checks included) over every payload of
one recorded period.

Usage::

    python benchmarks/bench_speed.py                      # default: 64-bit group, lam=128
    python benchmarks/bench_speed.py --smoke              # tiny parameters, fast
    python benchmarks/bench_speed.py --output results/BENCH_speed.json
    python benchmarks/bench_speed.py --smoke --check results/BENCH_speed.json

``--check`` compares *speedup ratios* (machine-invariant, unlike raw
wall-clock) against a baseline JSON: the run fails if any entry's
speedup regressed below 75% of the baseline's.  Speedups shift with the
parameter scale (window sizes, term counts) and with the kernel set
(the compiled kernels of :mod:`repro.groups.native` speed up some
reference legs as well as the fast ones), so the comparison is matched
on both: every report records ``"kernel_backend"`` (``native`` or
``python``; ``"kernels"`` is the section of kernel timings), a
full-size baseline embeds smoke-scale sub-reports (``"smoke"`` on the
Python kernels, ``"smoke_native"`` on the compiled ones), and
``--check`` picks whichever baseline section was measured at the fresh
run's ``(group_bits, lam, kernel_backend)``.  A section without
``kernel_backend`` counts as ``python``.  CI runs smoke mode against
the checked-in ``results/BENCH_speed.json`` on both kernel sets.

See docs/performance.md for how to read the output.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

#: Fraction of a baseline speedup a fresh run must retain to pass --check.
REGRESSION_TOLERANCE = 0.75

#: Points in the ``random_g_batch`` that prices ``g_samples``: the
#: largest sampling vector of a DLR period at n=32, lam=32.
SAMPLE_VECTOR = 88

#: The smoke-scale sub-report a full-size baseline embeds per kernel set.
SMOKE_SECTIONS = {"python": "smoke", "native": "smoke_native"}


def _trimmed(samples: list[float]) -> float:
    """Median after dropping the fastest and slowest sample."""
    samples = sorted(samples)
    if len(samples) > 2:
        samples = samples[1:-1]
    return statistics.median(samples)


def trimmed_median(fn, warmup: int, repeats: int) -> float:
    """Median of ``repeats`` timed calls after dropping the fastest and
    slowest sample (and ``warmup`` untimed calls first)."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return _trimmed(samples)


def _paired_entry(fast, naive, warmup: int, repeats: int, fast_items: int = 1) -> dict:
    """Time ``fast`` and ``naive`` back to back within every repeat and
    report each leg's trimmed median and the median of the per-repeat
    ``naive / fast`` ratios.

    Timed in separate blocks, host drift lands on one leg of the ratio;
    paired, it lands on both.  Which leg goes first alternates between
    repeats.  ``fast_items`` divides the fast leg's time, for a fast leg
    that does the work of that many naive calls (a batch against one).
    """
    for _ in range(warmup):
        fast()
        naive()
    fast_samples: list[float] = []
    naive_samples: list[float] = []
    for repeat in range(repeats):
        legs = [(fast, fast_samples), (naive, naive_samples)]
        for fn, samples in legs if repeat % 2 == 0 else legs[::-1]:
            start = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - start)
    fast_samples = [sample / fast_items for sample in fast_samples]
    ratios = [n / f for f, n in zip(fast_samples, naive_samples)]
    return {
        "fast_ms": round(_trimmed(fast_samples) * 1000, 4),
        "naive_ms": round(_trimmed(naive_samples) * 1000, 4),
        "speedup": round(statistics.median(ratios), 3),
    }


# ---------------------------------------------------------------------------
# Kernel benchmarks


def bench_kernels(group, params, rng, warmup: int, repeats: int) -> dict:
    from repro.groups import fastops
    from repro.groups.bilinear import G1Element, GTElement
    from repro.groups.pairing import (
        PairingPrecomp,
        final_exponentiation,
        miller_loop,
        miller_loop_affine,
        tate_pairing,
    )
    from repro.math.modular import batch_inv, inv_mod

    p = group.p
    q = group.q
    terms = params.ell + 2  # the combine-step term count
    report = {}

    g_bases = [group.random_g(rng) for _ in range(terms)]
    gt_bases = [group.random_gt(rng) for _ in range(terms)]
    exponents = [rng.randrange(1, p) for _ in range(terms)]

    def g1_fast():
        return G1Element.multiexp(g_bases, exponents)

    def g1_naive():
        with fastops.reference_mode():
            return G1Element.multiexp(g_bases, exponents)

    report["g1_multiexp"] = _paired_entry(g1_fast, g1_naive, warmup, repeats)

    def gt_fast():
        return GTElement.multiexp(gt_bases, exponents)

    def gt_naive():
        with fastops.reference_mode():
            return GTElement.multiexp(gt_bases, exponents)

    report["gt_multiexp"] = _paired_entry(gt_fast, gt_naive, warmup, repeats)

    # Fixed-argument pairing: one left point against `terms` right points,
    # schedule construction included in the fast timing.
    left = group.random_g(rng).point
    rights = [group.random_g(rng).point for _ in range(terms)]

    def precomp_fast():
        precomp = PairingPrecomp(left, group.params)
        return [precomp.pair_with(right) for right in rights]

    def precomp_naive():
        return [tate_pairing(left, right, group.params) for right in rights]

    report["pairing_precomp"] = _paired_entry(precomp_fast, precomp_naive, warmup, repeats)

    def miller_projective():
        return final_exponentiation(miller_loop(left, rights[0], group.params), group.params)

    def miller_affine():
        return final_exponentiation(
            miller_loop_affine(left, rights[0], group.params), group.params
        )

    report["miller_projective"] = _paired_entry(miller_projective, miller_affine, warmup, repeats)

    values = [rng.randrange(1, q) for _ in range(256)]

    def inv_batched():
        return batch_inv(values, q)

    def inv_loop():
        return [inv_mod(v, q) for v in values]

    report["batch_inv_256"] = _paired_entry(inv_batched, inv_loop, warmup, repeats)
    return report


# ---------------------------------------------------------------------------
# Scheme-level benchmarks


def bench_schemes(scheme, generated, rng, warmup: int, repeats: int) -> dict:
    from repro.core.dlr import combine_decrypt, combine_refresh
    from repro.core.keys import Share2
    from repro.groups import fastops
    from repro.protocol.device import Device
    from repro.protocol.transport import InMemoryTransport, _handoff
    from repro.utils.serialization import WireCodec

    group = scheme.group
    report = {}

    # Stage one period's worth of protocol inputs, exactly as run_period
    # produces them, so the combine steps see realistic operands.
    sk_comm = scheme.hpske_g.keygen(rng)
    f_list = [scheme.hpske_g.encrypt(sk_comm, a_i, rng) for a_i in generated.share1.a]
    f_phi = scheme.hpske_g.encrypt(sk_comm, generated.share1.phi, rng)
    ciphertext = scheme.encrypt(generated.public_key, group.random_gt(rng), rng)

    a_precomp = group.pairing_precomp(ciphertext.a)
    d_list = tuple(f_i.pair_with(a_precomp) for f_i in f_list)
    d_phi = f_phi.pair_with(a_precomp)
    d_b = scheme.hpske_gt.encrypt(sk_comm, ciphertext.b, rng)
    fresh_share = Share2(
        tuple(group.random_scalar(rng) for _ in range(scheme.params.ell)), group.p
    )
    f_new = [scheme.hpske_g.encrypt(sk_comm, group.random_g(rng), rng) for _ in f_list]
    f_pairs = tuple(zip(f_list, f_new))

    def dec_combine_fast():
        return combine_decrypt(generated.share2, d_list, d_phi, d_b)

    def dec_combine_naive():
        with fastops.reference_mode():
            return combine_decrypt(generated.share2, d_list, d_phi, d_b)

    report["p2_decrypt_combine"] = _paired_entry(
        dec_combine_fast, dec_combine_naive, warmup, repeats
    )

    def ref_combine_fast():
        return combine_refresh(generated.share2, fresh_share, f_pairs, f_phi)

    def ref_combine_naive():
        with fastops.reference_mode():
            return combine_refresh(generated.share2, fresh_share, f_pairs, f_phi)

    report["p2_refresh_combine"] = _paired_entry(
        ref_combine_fast, ref_combine_naive, warmup, repeats
    )

    # P1's d_i derivation: the fixed-argument pairing hot path.
    def derive_fast():
        precomp = group.pairing_precomp(ciphertext.a)
        return [f_i.pair_with(precomp) for f_i in f_list] + [f_phi.pair_with(precomp)]

    def derive_naive():
        with fastops.reference_mode():
            precomp = group.pairing_precomp(ciphertext.a)
            return [f_i.pair_with(precomp) for f_i in f_list] + [
                f_phi.pair_with(precomp)
            ]

    report["p1_derive_d"] = _paired_entry(derive_fast, derive_naive, warmup, repeats)

    # The full two-party decryption protocol, end to end.
    def installed():
        device_rng = random.Random(11)
        p1 = Device("P1", group, device_rng)
        p2 = Device("P2", group, device_rng)
        scheme.install(p1, p2, generated.share1, generated.share2)
        return p1, p2, InMemoryTransport()

    p1, p2, channel = installed()

    def full_decrypt_fast():
        return scheme.decrypt_protocol(p1, p2, channel, ciphertext)

    def full_decrypt_naive():
        with fastops.reference_mode():
            return scheme.decrypt_protocol(p1, p2, channel, ciphertext)

    report["p2_full_decrypt"] = _paired_entry(
        full_decrypt_fast, full_decrypt_naive, warmup, repeats
    )

    # The in-memory channel's structural handoff against a wire-codec
    # round trip, over every payload of one recorded period.
    p1, p2, channel = installed()
    scheme.run_period(p1, p2, channel, ciphertext)
    payloads = [message.payload for message in channel.transcript()]
    codec = WireCodec(group)

    def handoff():
        return [_handoff(payload) for payload in payloads]

    def codec_round_trip():
        return [codec.decode(codec.encode(payload)) for payload in payloads]

    report["channel_handoff"] = _paired_entry(handoff, codec_round_trip, warmup, repeats)
    return report


# ---------------------------------------------------------------------------
# Batch benchmarks


def bench_batch(scheme, generated, rng, warmup: int, repeats: int) -> dict:
    """Amortized batch APIs vs the single-op path.

    ``decrypt_amortization_bN`` compares the *per-ciphertext* wall-clock
    of a batch-of-N period (:meth:`~repro.core.dlr.DLR.run_period_multi`:
    N decrypts sharing one refresh, one precomp schedule, one batched
    multiexp window decision) against one single-ciphertext period --
    the ratio is the amortization factor and is machine-invariant.
    """
    from repro.protocol.device import Device
    from repro.protocol.transport import InMemoryTransport

    group = scheme.group
    report = {}

    def installed(seed):
        device_rng = random.Random(seed)
        p1 = Device("P1", group, device_rng)
        p2 = Device("P2", group, device_rng)
        scheme.install(p1, p2, generated.share1, generated.share2)
        return p1, p2, InMemoryTransport()

    messages = [group.random_gt(rng) for _ in range(16)]
    ciphertexts = scheme.encrypt_batch(generated.public_key, messages, rng)

    # Repeated calls stay healthy: every period refreshes the shares to a
    # fresh valid generation, and the original public key keeps matching.
    p1s, p2s, channel_s = installed(11)

    def single_period():
        return scheme.run_period(p1s, p2s, channel_s, ciphertexts[0])

    for batch in (4, 16):
        p1b, p2b, channel_b = installed(batch)
        subset = ciphertexts[:batch]

        def batched(subset=subset, p1b=p1b, p2b=p2b, channel_b=channel_b):
            return scheme.run_period_multi(p1b, p2b, channel_b, subset)

        report[f"decrypt_amortization_b{batch}"] = _paired_entry(
            batched, single_period, warmup, repeats, fast_items=batch
        )
    return report


# ---------------------------------------------------------------------------
# Cost-weight calibration


def calibrate_weights(group, rng, warmup: int, repeats: int) -> dict:
    """Measure each counted operation and express its cost in units of
    one ``G`` multiplication (the ``total_cost`` weight convention).

    Multiexp weights are per folded term; the precomp-pairing weight
    amortizes the schedule construction over the ``ell + 1`` evaluations
    a decryption shares it across.  ``g_samples`` is priced per draw of
    a ``random_g_batch`` the size of a period's largest vector
    (``SAMPLE_VECTOR`` points), ``gt_samples`` per ``random_gt`` draw.
    These weights are reported only: ``--check`` compares speedups, and
    :data:`~repro.groups.bilinear.DEFAULT_COST_WEIGHTS` stays fixed.
    """
    from repro.groups.bilinear import G1Element, GTElement
    from repro.groups.pairing import PairingPrecomp, tate_pairing

    p = group.p
    u, v = group.random_g(rng), group.random_g(rng)
    zu, zv = group.random_gt(rng), group.random_gt(rng)
    k = rng.randrange(1, p)
    terms = 28
    g_bases = [group.random_g(rng) for _ in range(terms)]
    gt_bases = [group.random_gt(rng) for _ in range(terms)]
    exps = [rng.randrange(1, p) for _ in range(terms)]
    left = group.random_g(rng).point
    rights = [group.random_g(rng).point for _ in range(terms)]

    timings = {
        "g_mul": trimmed_median(lambda: u * v, warmup, repeats),
        "g_exp": trimmed_median(lambda: u ** k, warmup, repeats),
        "gt_mul": trimmed_median(lambda: zu * zv, warmup, repeats),
        "gt_exp": trimmed_median(lambda: zu ** k, warmup, repeats),
        "g_multiexp": trimmed_median(lambda: G1Element.multiexp(g_bases, exps), warmup, repeats)
        / terms,
        "gt_multiexp": trimmed_median(
            lambda: GTElement.multiexp(gt_bases, exps), warmup, repeats
        )
        / terms,
        "pairings": trimmed_median(
            lambda: tate_pairing(left, rights[0], group.params), warmup, repeats
        ),
    }

    def precomp_batch():
        precomp = PairingPrecomp(left, group.params)
        return [precomp.pair_with(right) for right in rights]

    timings["pairings_precomp"] = trimmed_median(precomp_batch, warmup, repeats) / terms
    timings["g_samples"] = (
        trimmed_median(lambda: group.random_g_batch(rng, SAMPLE_VECTOR), warmup, repeats)
        / SAMPLE_VECTOR
    )
    timings["gt_samples"] = trimmed_median(lambda: group.random_gt(rng), warmup, repeats)

    unit = timings["g_mul"]
    weights = {
        name: max(1, round(seconds / unit)) for name, seconds in timings.items()
    }
    return weights


# ---------------------------------------------------------------------------
# Report / regression gate


def speed_report(
    group_bits: int = 64, lam: int = 128, seed: int = 7, warmup: int = 1, repeats: int = 5
) -> dict:
    from repro.core.dlr import DLR
    from repro.core.params import DLRParams
    from repro.groups import preset_group
    from repro.groups.native import kernel_backend

    group = preset_group(group_bits)
    params = DLRParams(group=group, lam=lam)
    scheme = DLR(params)
    rng = random.Random(seed)
    generated = scheme.generate(rng)

    import os

    report = {
        "kernel_backend": kernel_backend(),
        "group_bits": group_bits,
        "lam": lam,
        "ell": params.ell,
        "kappa": params.kappa,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "timing": {
            "warmup": warmup,
            "repeats": repeats,
            "estimator": "trimmed median; speedup is the median of paired ratios",
        },
        "kernels": bench_kernels(group, params, rng, warmup, repeats),
        "schemes": bench_schemes(scheme, generated, rng, warmup, repeats),
        "batch": bench_batch(scheme, generated, rng, warmup, repeats),
        "cost_weights": calibrate_weights(group, rng, warmup, repeats),
    }
    return report


def _speedups(report: dict) -> dict[str, float]:
    ratios = {}
    for section in ("kernels", "schemes", "batch"):
        for name, entry in report.get(section, {}).items():
            ratios[f"{section}.{name}"] = entry["speedup"]
    return ratios


def _section_key(section: dict) -> tuple:
    return (
        section.get("group_bits"),
        section.get("lam"),
        section.get("kernel_backend", "python"),
    )


def _scale_matched_baseline(report: dict, baseline: dict) -> dict | None:
    """The baseline section measured at the fresh report's scale and on
    its kernel set.

    Speedup ratios depend on the parameter scale (window sizes and table
    amortization shift with exponent width and term count), so a smoke
    run must only be compared against smoke-scale baseline numbers.
    They also depend on the kernel set: the compiled kernels speed up
    reference legs that share their loops (a decode's subgroup check, a
    single period's sampling), so a native run is compared against
    native numbers and a Python-kernel run against Python ones.
    """
    wanted = _section_key(report)
    for section in (baseline, *(baseline.get(key) for key in SMOKE_SECTIONS.values())):
        if section and _section_key(section) == wanted:
            return section
    return None


def check_regressions(report: dict, baseline: dict) -> list[str]:
    """Compare speedup ratios (machine-invariant) against the baseline.

    Returns failure messages for every entry whose speedup fell below
    ``REGRESSION_TOLERANCE`` of the baseline's.  Entries present in only
    one report are ignored (additions/removals are not regressions).
    """
    matched = _scale_matched_baseline(report, baseline)
    if matched is None:
        group_bits, lam, kernels = _section_key(report)
        return [
            f"baseline has no section at group_bits={group_bits} lam={lam} "
            f"kernel_backend={kernels} -- regenerate it with "
            "`python benchmarks/bench_speed.py --output results/BENCH_speed.json`"
        ]
    fresh = _speedups(report)
    base = _speedups(matched)
    failures = []
    for name in sorted(fresh.keys() & base.keys()):
        floor = REGRESSION_TOLERANCE * base[name]
        if fresh[name] < floor:
            failures.append(
                f"{name}: speedup {fresh[name]:.2f}x < {floor:.2f}x "
                f"(75% of baseline {base[name]:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny parameters (32-bit group, lam=32) and fewer repeats",
    )
    parser.add_argument("--group-bits", type=int, default=None)
    parser.add_argument("--lam", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help="fail if any speedup regressed below 75%% of this baseline JSON",
    )
    args = parser.parse_args(argv)

    group_bits = args.group_bits or (32 if args.smoke else 64)
    lam = args.lam or (32 if args.smoke else 128)
    # Smoke runs take 7 paired repeats: enough that the median ratio rides
    # out a slow repeat, while a smoke run stays a few seconds long.
    repeats = args.repeats or (7 if args.smoke else 5)

    report = speed_report(group_bits=group_bits, lam=lam, repeats=repeats)
    if not args.smoke and (group_bits, lam) != (32, 32):
        # Full-size baselines carry a smoke-scale sub-report per kernel
        # set this host runs, so CI's smoke runs have matched numbers.
        from repro.groups import native

        if native.kernel_backend() == "native":
            report[SMOKE_SECTIONS["native"]] = speed_report(32, 32, repeats=7)
        with native._python_kernels():
            report[SMOKE_SECTIONS["python"]] = speed_report(32, 32, repeats=7)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")

    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        failures = check_regressions(report, baseline)
        if failures:
            sys.stderr.write("speed regression gate FAILED:\n")
            for failure in failures:
                sys.stderr.write(f"  {failure}\n")
            return 1
        sys.stderr.write(
            f"speed regression gate passed ({len(_speedups(report))} entries)\n"
        )

    return 0


if __name__ == "__main__":
    raise SystemExit(main())

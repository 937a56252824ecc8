"""``benchmarks/bench_speed.py --check`` gates a run against the baseline
section measured at its scale *and* on its kernel set."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_speed", ROOT / "benchmarks" / "bench_speed.py"
)
bench_speed = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_speed)


def section(group_bits, lam, speedup, kernels=None):
    report = {
        "group_bits": group_bits,
        "lam": lam,
        "kernels": {"g1_multiexp": {"speedup": speedup}},
    }
    if kernels is not None:
        report["kernel_backend"] = kernels
    return report


BASELINE = {
    **section(64, 128, 3.0),
    "smoke": section(32, 32, 2.0),  # recorded before kernel_backend existed
    "smoke_native": section(32, 32, 14.0, "native"),
}


def test_sections_match_on_scale_and_kernel_set():
    match = bench_speed._scale_matched_baseline
    assert match(section(32, 32, 2.0, "python"), BASELINE) is BASELINE["smoke"]
    assert match(section(32, 32, 2.0, "native"), BASELINE) is BASELINE["smoke_native"]
    assert match(section(64, 128, 3.0, "python"), BASELINE) is BASELINE
    assert match(section(64, 128, 3.0, "native"), BASELINE) is None


def test_each_kernel_set_is_held_to_its_own_floor():
    check = bench_speed.check_regressions
    # 75% of the Python-kernel baseline's 2.0x is 1.5x.
    assert check(section(32, 32, 1.6, "python"), BASELINE) == []
    assert check(section(32, 32, 1.4, "python"), BASELINE)
    # A native run at 1.6x passes the Python floor but not its own.
    [failure] = check(section(32, 32, 1.6, "native"), BASELINE)
    assert "kernels.g1_multiexp" in failure
    assert check(section(32, 32, 11.0, "native"), BASELINE) == []


def test_missing_section_names_the_kernel_set():
    [failure] = bench_speed.check_regressions(section(64, 128, 3.0, "native"), BASELINE)
    assert "kernel_backend=native" in failure


def test_checked_in_baseline_has_a_smoke_section_per_kernel_set():
    baseline = json.loads((ROOT / "results" / "BENCH_speed.json").read_text())
    for kernels, key in bench_speed.SMOKE_SECTIONS.items():
        smoke = bench_speed._scale_matched_baseline(section(32, 32, 1.0, kernels), baseline)
        assert smoke is baseline[key]

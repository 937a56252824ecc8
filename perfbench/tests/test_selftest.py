"""Tiny-scale self-test of the key-service benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each case runs ``perfbench/run.py --tiny`` (two to four keys per
connection, batches of 4, a registry of 4, one set-up) as a subprocess,
so it exercises the same command line the benchmark is driven with.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
SECONDS = "4"


def bench(*extra: str, cwd: pathlib.Path = ROOT) -> tuple[int, str, dict | None]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return completed.returncode, completed.stdout + completed.stderr, result


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    results = {}
    for workload in WORKLOADS:
        code, output, result = bench("--workload", workload, "--seed", "3",
                                     "--seconds", SECONDS, "--trace", "1")
        assert code == 0, output
        results[workload] = result
    return results


def assert_result_shape(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    emitted = result["metrics"]
    assert set(emitted) == {metric["name"] for metric in metrics}
    for metric in metrics:
        entry = emitted[metric["name"]]
        assert entry["unit"] == metric["unit"], metric["name"]
        assert isinstance(entry["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_with_units(workload):
    code, output, result = bench("--workload", workload, "--seed", "3",
                                 "--seconds", SECONDS, "--trace", "0")
    assert code == 0, output
    assert_result_shape(result, SPEC["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


def test_per_layer_metrics_emitted_with_units(traced):
    for workload, result in traced.items():
        assert_result_shape(result, SPEC["per_layer"])


def test_ledger_sums_to_roundtrip(traced):
    for result in traced.values():
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        ledger = sum(value for name, value in metrics.items() if name.startswith("ledger."))
        assert ledger + metrics["unattributed_ms"] == pytest.approx(
            metrics["service.roundtrip_ms"], rel=1e-9
        )
        assert 0 <= metrics["unattributed_ms"] < 0.1 * metrics["service.roundtrip_ms"]


def test_registry_and_amortization_shape(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert value("hot-single", "service.registry_hit_ratio") == 1.0
    assert value("batch-16", "service.registry_hit_ratio") == 1.0
    assert value("cold-churn", "service.registry_hit_ratio") == 0.0
    assert value("cold-churn", "service.rehydrations_per_request") == 1.0
    assert value("hot-single", "runtime.checkpoint_loads_per_request") == 0.0
    # Batching amortizes the refresh (multiexp terms, samples); every
    # ciphertext still pays its own pairings against its own schedule.
    for name in ("groups.multiexp_terms_per_plaintext", "groups.samples_per_plaintext"):
        assert value("batch-16", name) < value("hot-single", name), name
    assert value("batch-16", "groups.pairings_per_plaintext") == value(
        "hot-single", "groups.pairings_per_plaintext"
    )
    for workload in WORKLOADS:
        assert value(workload, "runtime.retries_per_request") == 0.0
        assert value(workload, "parallel.pool_chunks") == 0.0


def test_gate_fails_on_one_perturbed_plaintext():
    code, output, result = bench("--workload", "hot-single", "--seed", "3",
                                 "--seconds", SECONDS, "--trace", "0", "--perturb-expected")
    assert code != 0, output
    assert result is not None and result["correct"] is False, output
    assert result["failed"] >= 1
    assert "wrong plaintext" in output


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, output, result = bench("--workload", "hot-single", "--seed", "1",
                                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None, output


def import_run():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return run


def test_budget_gate_checks_gauges_against_the_key_parameters():
    from types import SimpleNamespace

    run = import_run()
    b1, b2 = 96, 320
    params = SimpleNamespace(theorem_b1=lambda: b1, theorem_b2=lambda: b2)
    streams = [SimpleNamespace(tenant="c0", params=params)]
    rows = [{"tenant": "c0", "key": key, "budget_remaining": {"P1": b1, "P2": b2}}
            for key in ("k000", "k001")]

    def stats(p1_gauge):
        return {
            "registry": {"resident": rows},
            "metrics": {"gauges": {
                "service.budget_remaining_bits{device=P1,tenant=c0}": p1_gauge,
                "service.budget_remaining_bits{device=P2,tenant=c0}": 2 * b2,
                "service.budget_retry_bits{device=P1,tenant=c0}": 0,
            }},
        }

    assert run.budget_breaches(stats(2 * b1), streams) == []
    # A gauge that drifts from the client's figure is a breach ...
    assert len(run.budget_breaches(stats(2 * b1 - 1), streams)) == 1
    # ... and so is an oracle that reports a charged budget, even when
    # the gauge agrees with it.
    rows[1] = {**rows[1], "budget_remaining": {"P1": b1 - 1, "P2": b2}}
    assert len(run.budget_breaches(stats(2 * b1 - 1), streams)) == 2


def test_tail_is_the_eleventh_largest_sample():
    run = import_run()
    percentile, value = run.tail([float(index) for index in range(1, 101)])
    assert (percentile, value) == (90.0, 90.0)
    with pytest.raises(run.BenchmarkError):
        run.tail([1.0] * 10)

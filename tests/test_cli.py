"""End-to-end tests of the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main


@pytest.fixture()
def keydir(tmp_path):
    out = tmp_path / "keys"
    assert main(["keygen", "-n", "32", "--lam", "32", "--seed", "1",
                 "--out-dir", str(out)]) == 0
    return out


class TestKeygen:
    def test_files_created(self, keydir):
        for name in ("public_key.json", "share1.json", "share2.json"):
            assert (keydir / name).exists()

    def test_public_key_parses(self, keydir):
        envelope = json.loads((keydir / "public_key.json").read_text())
        assert envelope["kind"] == "public_key"
        assert envelope["data"]["params"]["lam"] == 32

    def test_deterministic_with_seed(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["keygen", "-n", "32", "--lam", "32", "--seed", "7", "--out-dir", str(a)])
        main(["keygen", "-n", "32", "--lam", "32", "--seed", "7", "--out-dir", str(b)])
        assert (a / "public_key.json").read_text() == (b / "public_key.json").read_text()


class TestEncryptDecrypt:
    def test_roundtrip(self, keydir, tmp_path, capsys):
        pk = str(keydir / "public_key.json")
        assert main(["random-message", "--pk", pk, "--seed", "2"]) == 0
        message_hex = capsys.readouterr().out.strip()

        ct = tmp_path / "ct.json"
        assert main(["encrypt", "--pk", pk, "--message", message_hex,
                     "--out", str(ct), "--seed", "3"]) == 0
        capsys.readouterr()

        assert main(["decrypt", "--pk", pk,
                     "--share1", str(keydir / "share1.json"),
                     "--share2", str(keydir / "share2.json"),
                     "--ciphertext", str(ct), "--seed", "4"]) == 0
        assert capsys.readouterr().out.strip() == message_hex

    def test_refresh_then_decrypt(self, keydir, tmp_path, capsys):
        pk = str(keydir / "public_key.json")
        main(["random-message", "--pk", pk, "--seed", "5"])
        message_hex = capsys.readouterr().out.strip()
        ct = tmp_path / "ct.json"
        main(["encrypt", "--pk", pk, "--message", message_hex, "--out", str(ct)])
        capsys.readouterr()

        share1_before = (keydir / "share1.json").read_text()
        assert main(["refresh", "--pk", pk,
                     "--share1", str(keydir / "share1.json"),
                     "--share2", str(keydir / "share2.json"),
                     "--in-place"]) == 0
        capsys.readouterr()
        assert (keydir / "share1.json").read_text() != share1_before

        main(["decrypt", "--pk", pk,
              "--share1", str(keydir / "share1.json"),
              "--share2", str(keydir / "share2.json"),
              "--ciphertext", str(ct)])
        assert capsys.readouterr().out.strip() == message_hex

    def test_refresh_to_new_files(self, keydir, capsys):
        pk = str(keydir / "public_key.json")
        assert main(["refresh", "--pk", pk,
                     "--share1", str(keydir / "share1.json"),
                     "--share2", str(keydir / "share2.json")]) == 0
        capsys.readouterr()
        assert (keydir / "share1.json.refreshed").exists()
        assert (keydir / "share2.json.refreshed").exists()


class TestObservability:
    @pytest.fixture()
    def supervised(self, keydir, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        log = tmp_path / "session.json"
        assert main(["supervise",
                     "--pk", str(keydir / "public_key.json"),
                     "--share1", str(keydir / "share1.json"),
                     "--share2", str(keydir / "share2.json"),
                     "--periods", "2", "--seed", "9",
                     "--trace", str(trace), "--log", str(log),
                     "--budget"]) == 0
        out = capsys.readouterr().out
        return trace, log, out

    def test_supervise_writes_a_valid_trace(self, supervised):
        from repro.telemetry import validate_trace_file

        trace, _, out = supervised
        assert f"wrote {trace}" in out
        spans = validate_trace_file(trace)
        assert {"period", "attempt", "step.send"} <= {s["name"] for s in spans}

    def test_supervise_log_keeps_every_period(self, supervised):
        """Log pruning is the key service's; a supervised lifecycle's
        ``--log`` still records every attempt and period."""
        _, log, _ = supervised
        data = json.loads(log.read_text())
        assert [p["period"] for p in data["periods"]] == [0, 1]
        assert [a["period"] for a in data["attempts"]] == [0, 1]
        assert data["summary"]["periods_committed"] == 2

    def test_supervise_prints_the_budget_dashboard(self, supervised):
        _, _, out = supervised
        assert "P1 (b1)" in out and "P2 (b2)" in out

    def test_trace_subcommand_digests_the_file(self, supervised, capsys):
        trace, _, _ = supervised
        assert main(["trace", str(trace), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "hottest" in out and "step.send" in out

    def test_trace_subcommand_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"record": "span"}\n')
        assert main(["trace", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_metrics_subcommand_renders_period_snapshots(self, supervised, capsys):
        _, log, _ = supervised
        assert main(["metrics", "--log", str(log)]) == 0
        out = capsys.readouterr().out
        assert "period 0" in out and "period 1" in out
        assert "dec.d" in out and "ref.f" in out
        assert "P1 (b1)" in out  # embedded budget rows

    def test_metrics_subcommand_json_mode(self, supervised, capsys):
        _, log, _ = supervised
        assert main(["metrics", "--log", str(log), "--json"]) == 0
        snapshots = json.loads(capsys.readouterr().out)
        assert len(snapshots) == 2
        assert all("bits_by_label" in snap for snap in snapshots)
        assert all(snap["budget"]["period"] == i for i, snap in enumerate(snapshots))


class TestInfo:
    def test_reports_parameters(self, keydir, capsys):
        assert main(["info", "--pk", str(keydir / "public_key.json")]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["security_parameter_n"] == 32
        assert info["lambda"] == 32
        assert info["kappa"] >= 2
        assert info["b2_bits_per_period"] == info["m2_bits"]


class TestImportHygiene:
    def test_serving_imports_no_process_machinery(self):
        """Every kernel runs in the calling process, so importing the CLI
        and the key service pulls in no process-pool machinery and not
        the ``repro.parallel`` import target either."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parents[1])
        probe = (
            "import sys, repro.cli, repro.service.server; "
            "print(*(name for name in ('multiprocessing', "
            "'concurrent.futures.process', 'repro.parallel') "
            "if name in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.split() == []

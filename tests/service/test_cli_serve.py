"""The ``repro-dlr serve`` subcommand: announce file, bounded runs."""

from __future__ import annotations

import random
import threading
import time

from repro.cli import main
from repro.groups.native import kernel_backend
from repro.service import ServiceClient


def test_serve_bounded_run(tmp_path, capsys):
    announce = tmp_path / "addr.txt"
    state = tmp_path / "state"
    results = {}

    def run_server():
        results["exit"] = main(
            [
                "serve",
                "--checkpoint-dir", str(state),
                "--announce", str(announce),
                "--workers", "2",
                "--max-requests", "3",
                "--timeout", "10",
            ]
        )

    server = threading.Thread(target=run_server)
    server.start()
    try:
        deadline = time.monotonic() + 15.0
        while not announce.exists():
            assert time.monotonic() < deadline, "serve never announced its address"
            time.sleep(0.05)
        host, port = announce.read_text().split()
        with ServiceClient((host, int(port)), timeout=10.0) as client:
            assert client.ping()
            pk = client.open_key("cli", "k", seed=3)
            rng = random.Random(1)
            message = pk.group.random_gt(rng)
            recovered, period = client.encrypt_and_decrypt("cli", "k", message, rng)
            assert recovered == message
            assert period == 0
    finally:
        server.join(timeout=30.0)
    assert not server.is_alive(), "serve did not drain after --max-requests"
    assert results["exit"] == 0
    # The key's state survived shutdown as a durable checkpoint.
    assert (state / "cli" / "k.ckpt.json").exists()
    out = capsys.readouterr().out
    assert "serving on" in out
    # The kernel set precedes "backend python", which stays last.
    assert f"kernels {kernel_backend()}, backend python)" in out
    assert '"requests_handled": 3' in out

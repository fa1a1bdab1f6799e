"""The daemon's HTTP handler on a real socket.

``test_serve_daemon.py`` covers the daemon through the transport-free
``handle()``; these tests bind a real listener because what they check
lives in the handler itself: how a response is written onto a keep-alive
connection, and what a malformed or oversized ``Content-Length`` does to
it.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro import apply_test, load_circuit, provision_patterns, sample_defect_set
from repro.obs.metrics import REGISTRY
from repro.serve.app import MAX_BODY_BYTES, DiagnosisDaemon, ServeConfig, bind_server

#: Linux holds a delayed ACK for up to 40 ms; a response that waits for
#: one costs about that much.
DELAYED_ACK_S = 0.04


@pytest.fixture
def live(tmp_path):
    """A started daemon (real ``execute_job``) behind a bound listener."""
    REGISTRY.reset()
    daemon = DiagnosisDaemon(
        ServeConfig(store=tmp_path / "jobs.jsonl", port=0, fsync=False)
    )
    daemon.start()
    server = bind_server(daemon.config, daemon)
    listener = threading.Thread(target=server.serve_forever, daemon=True)
    listener.start()
    yield server.server_address[:2]
    server.shutdown()
    server.server_close()
    daemon.drain()
    REGISTRY.reset()


@pytest.fixture(scope="module")
def c17_datalog() -> str:
    netlist = load_circuit("c17")
    patterns = provision_patterns(netlist)
    for seed in range(1, 100):
        result = apply_test(
            netlist, patterns, sample_defect_set(netlist, 1, seed=seed), "fallback"
        )
        if result.device_fails:
            return result.datalog.to_text()
    raise AssertionError("no failing c17 die in 99 seeds")


def test_keep_alive_requests_are_not_held_for_delayed_acks(live, c17_datalog):
    host, port = live
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.connect()
    requests = 20
    statuses = []
    started = time.perf_counter()
    conn.request(
        "POST",
        "/jobs",
        body=json.dumps({"circuit": "c17", "datalog": c17_datalog}),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    job = json.loads(response.read())
    statuses.append(response.status)
    for i in range(requests - 1):
        conn.request("GET", f"/jobs/{job['id']}" if i % 2 else "/healthz")
        response = conn.getresponse()
        response.read()
        statuses.append(response.status)
    elapsed = time.perf_counter() - started
    conn.close()
    assert statuses == [202] + [200] * (requests - 1)
    # A delayed-ACK stall on most of them would take ~0.8 s.
    assert elapsed < requests * DELAYED_ACK_S / 3, f"{elapsed:.3f}s"


def _raw_exchange(host: str, port: int, request: bytes) -> bytes:
    """Send ``request`` and read until the server closes the connection."""
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


@pytest.mark.parametrize(
    "declared",
    [
        "abc",
        "-1",
        "1_0",
        # Well-formed but oversized: a 413, refused before the handler
        # allocates the declared size.
        str(10**15),
        str(MAX_BODY_BYTES + 1),
        pytest.param("9" * 5000, id="5000-digits"),  # beyond int()'s digit limit
    ],
)
def test_malformed_content_length_gets_a_400_and_a_hang_up(
    live, capsys, declared
):
    status, error = (413, "exceeds") if declared.isdigit() else (400, "Content-Length")
    host, port = live
    data = _raw_exchange(
        host,
        port,
        b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
        b"Content-Length: " + declared.encode() + b"\r\n\r\n",
    )
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith(f"HTTP/1.1 {status} ")
    assert "Connection: close" in lines[1:]
    assert error in json.loads(body)["error"]
    assert "Traceback" not in capsys.readouterr().err

    # The daemon keeps serving on a fresh connection.
    conn = http.client.HTTPConnection(host, port, timeout=5)
    conn.request("GET", "/healthz")
    assert conn.getresponse().status == 200
    conn.close()

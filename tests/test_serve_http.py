"""The daemon's HTTP handler on a real socket.

``test_serve_daemon.py`` covers the daemon through the transport-free
``handle()``; these tests bind a real listener because what they check
lives in the handler itself: how a response is written onto a keep-alive
connection, how long a submission waits for its job and what a
``Prefer: respond-async`` does to that, and what a malformed or oversized
``Content-Length`` does to the connection.
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
from repro.serve.app import (
    MAX_BODY_BYTES,
    SUBMIT_WAIT_S,
    DiagnosisDaemon,
    ServeConfig,
    bind_server,
)
from repro.serve.cluster.client import urllib_transport
from repro.serve.executor import execute_job

#: Linux holds a delayed ACK for up to 40 ms; a response that waits for
#: one costs about that much.
DELAYED_ACK_S = 0.04


@pytest.fixture
def listen(tmp_path):
    """Start a daemon running ``run`` behind a bound listener; returns
    its ``(host, port)``."""
    REGISTRY.reset()
    started = []

    def make(run=execute_job):
        daemon = DiagnosisDaemon(
            ServeConfig(store=tmp_path / "jobs.jsonl", port=0, fsync=False),
            run=run,
        )
        daemon.start()
        server = bind_server(daemon.config, daemon)
        listener = threading.Thread(target=server.serve_forever, daemon=True)
        listener.start()
        started.append((daemon, server))
        return server.server_address[:2]

    yield make
    for daemon, server in started:
        server.shutdown()
        server.server_close()
        daemon.drain()
    REGISTRY.reset()


@pytest.fixture
def live(listen):
    """A started daemon (real ``execute_job``) behind a bound listener."""
    return listen()


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


def _post(host: str, port: int, payload: dict) -> tuple[int, dict, float]:
    """POST one job on a fresh connection: status, body and seconds taken."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    started = time.perf_counter()
    conn.request(
        "POST",
        "/jobs",
        body=json.dumps(payload),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    body = json.loads(response.read())
    elapsed = time.perf_counter() - started
    conn.close()
    return response.status, body, elapsed


def _get_job(host: str, port: int, job_id: str) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.request("GET", f"/jobs/{job_id}")
    response = conn.getresponse()
    assert response.status == 200
    job = json.loads(response.read())
    conn.close()
    return job


def _wait_done(host: str, port: int, ids: list[str]) -> None:
    deadline = time.monotonic() + 10
    while any(_get_job(host, port, i)["state"] != "done" for i in ids):
        assert time.monotonic() < deadline, "jobs never finished"
        time.sleep(0.01)


def test_keep_alive_requests_are_not_held_for_delayed_acks(live, c17_datalog):
    host, port = live
    payload = {"circuit": "c17", "datalog": c17_datalog}
    # Run the job first, so the timed POST is a resubmission of a finished
    # job, answered at once, and the timing covers only the transport.
    _, job, _ = _post(host, port, payload)
    _wait_done(host, port, [job["id"]])
    conn = http.client.HTTPConnection(host, port, timeout=10)
    conn.connect()
    requests = 20
    statuses = []
    started = time.perf_counter()
    conn.request(
        "POST",
        "/jobs",
        body=json.dumps(payload),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    response.read()
    statuses.append(response.status)
    for i in range(requests - 1):
        conn.request("GET", f"/jobs/{job['id']}" if i % 2 else "/healthz")
        response = conn.getresponse()
        response.read()
        statuses.append(response.status)
    elapsed = time.perf_counter() - started
    conn.close()
    # The resubmitted job is finished, so its POST answers 200, not 202.
    assert statuses == [200] * requests
    # A delayed-ACK stall on most of them would take ~0.8 s.
    assert elapsed < requests * DELAYED_ACK_S / 3, f"{elapsed:.3f}s"


def test_a_fast_job_is_answered_finished_on_submission(live, c17_datalog):
    host, port = live
    payload = {"circuit": "c17", "datalog": c17_datalog}
    status, job, _ = _post(host, port, payload)
    assert status == 200
    assert job["state"] == "done"
    assert job == _get_job(host, port, job["id"])
    # A resubmission of a finished job is answered at once.
    status, again, elapsed = _post(host, port, payload)
    assert (status, again) == (200, job)
    assert elapsed < SUBMIT_WAIT_S / 2, f"{elapsed:.3f}s"


def test_a_job_that_outlasts_the_wait_is_answered_202(listen, c17_datalog):
    release = threading.Event()

    def blocked(spec, token=None, degraded=False):
        release.wait(10)
        return execute_job(spec, token, degraded)

    host, port = listen(blocked)
    quick = {"circuit": "c17", "datalog": c17_datalog + "# respond-async\n"}
    held = {"circuit": "c17", "datalog": c17_datalog + "# held\n"}
    try:
        # The coordinator's transport prefers an asynchronous answer, so
        # its dispatch is answered at once.
        started = time.perf_counter()
        status, raw = urllib_transport(
            f"http://{host}:{port}/jobs", "POST", json.dumps(quick).encode(), 10
        )
        elapsed = time.perf_counter() - started
        assert status == 202, raw
        assert elapsed < SUBMIT_WAIT_S / 2, f"{elapsed:.3f}s"
        # Without the preference the submission waits for its job first.
        status, job, elapsed = _post(host, port, held)
        assert status == 202
        assert job["state"] in ("submitted", "running")
        assert elapsed >= SUBMIT_WAIT_S * 0.9, f"{elapsed:.3f}s"
    finally:
        release.set()
    _wait_done(host, port, [json.loads(raw)["id"], job["id"]])


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

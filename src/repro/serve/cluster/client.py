"""The coordinator's HTTP client to worker nodes, with chaos checkpoints.

Every request crosses two chaos sites bracketing the real transport
call::

    cluster.<op>.send   -- before the request leaves this process;
                           ``conn_refused`` fires here (the request
                           never happened on the peer)
    cluster.<op>.recv   -- after the peer handled the request, before
                           the caller sees the response;
                           ``drop_response`` fires here (the operation
                           *did* happen, the acknowledgement was lost --
                           the classic at-least-once ambiguity) and
                           ``http_503`` is converted into a synthetic
                           503 response (a live peer shedding load)

``<op>`` is one of ``dispatch`` / ``poll`` / ``health`` / ``cancel``, so
a plan can target one operation (``drop_response@cluster.dispatch.recv``)
or all of them (the kind defaults).

All organic network failures (refused, reset, timeout) surface as
:class:`NodeUnreachable` with a :func:`~repro.errors.classify_cause`
cause string; HTTP error *statuses* are returned, not raised -- a peer
that answered is a peer the membership layer should count as reachable.

The transport is injectable: production uses a small ``urllib`` adapter,
tests pass a callable that routes straight into a fake worker's
``handle()`` -- same checkpoints, no sockets.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

from repro import chaos
from repro.chaos import InjectedHttp
from repro.errors import classify_cause


class NodeUnreachable(Exception):
    """A request to a worker node failed at the network layer."""

    def __init__(self, url: str, op: str, exc: OSError):
        self.url = url
        self.op = op
        self.cause = classify_cause(exc)
        super().__init__(f"{op} {url} unreachable [{self.cause}]: {exc}")


def urllib_transport(
    url: str, method: str, body: bytes | None, timeout: float
) -> tuple[int, bytes]:
    """Default transport: one stdlib HTTP request, no redirects needed.

    Every request prefers an immediate answer (RFC 7240
    ``respond-async``): the coordinator dispatches from one pump thread,
    and a submission held until its job settles would stall the fabric.
    """
    headers = {"Prefer": "respond-async"}
    if body:
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=body, method=method, headers=headers
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        # An HTTP error is still an answer; read the body so callers see
        # the peer's error payload (429 retry_after, 503 reasons...).
        return exc.code, exc.read()


class WorkerClient:
    """Typed operations over one injectable transport."""

    def __init__(self, *, timeout: float = 5.0, transport=urllib_transport):
        self._timeout = timeout
        self._transport = transport

    def request(
        self,
        base_url: str,
        op: str,
        method: str,
        path: str,
        payload: dict | None = None,
    ) -> tuple[int, dict]:
        """One operation against one node; returns ``(status, body_dict)``.

        Raises :class:`NodeUnreachable` for anything the network layer
        could not deliver -- including the injected kinds, which arrive
        as :class:`~repro.chaos.InjectedFault` (an ``OSError``) and take
        the same path as an organic refusal or timeout.
        """
        url = base_url.rstrip("/") + path
        body = (
            json.dumps(payload).encode() if payload is not None else None
        )
        try:
            chaos.checkpoint(f"cluster.{op}.send")
            status, raw = self._transport(url, method, body, self._timeout)
            chaos.checkpoint(f"cluster.{op}.recv")
        except InjectedHttp as exc:
            # The peer "answered" with a refusal: synthesize the response
            # so the coordinator's retry path sees a real-looking 503.
            return exc.status, {"error": str(exc)}
        except OSError as exc:
            raise NodeUnreachable(url, op, exc) from exc
        try:
            parsed = json.loads(raw.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = None
        if not isinstance(parsed, dict):
            parsed = {"error": "unparseable response body"}
        return status, parsed

    # -- the coordinator's vocabulary ---------------------------------------

    def submit(self, base_url: str, spec_payload: dict) -> tuple[int, dict]:
        return self.request(
            base_url, "dispatch", "POST", "/jobs", spec_payload
        )

    def poll(self, base_url: str, job_id: str) -> tuple[int, dict]:
        return self.request(base_url, "poll", "GET", f"/jobs/{job_id}")

    def health(self, base_url: str) -> tuple[int, dict]:
        return self.request(base_url, "health", "GET", "/healthz")

    def cancel(self, base_url: str, job_id: str) -> tuple[int, dict]:
        return self.request(base_url, "cancel", "DELETE", f"/jobs/{job_id}")

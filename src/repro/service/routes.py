"""The HTTP surface of ``repro serve``.

Small and boring on purpose: :data:`ROUTE_PATHS` names every endpoint
(``tools/check_docs.py`` cross-checks the tuple against
``docs/service.md``), and :func:`dispatch` maps ``(method, path,
body)`` onto :class:`~repro.service.app.ServiceState` calls, returning
``(status, payload)`` pairs.  All transport concerns (JSON parsing,
socket handling) live in the handler; all semantics live in the state.

Endpoints
---------
``GET /v1/health``
    Liveness: version, uptime, data directory.
``POST /v1/compile`` / ``POST /v1/simulate`` / ``POST /v1/run``
    Submit one job of that kind.  The body is the request payload;
    the transport-only fields ``wait`` (default true) and ``timeout``
    (seconds, default from the service config) control whether the
    call blocks for the result (200) or returns the job descriptor
    immediately / on timeout (202).
``GET /v1/jobs/<job_id>``
    Descriptor (+ result once done) of a submitted job; also resolves
    digests served straight from the persistent store.
``GET /v1/stats``
    Service, queue, and result-store counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["ROUTE_PATHS", "ServiceError", "dispatch"]

#: Every path the service serves (``/v1/jobs`` takes ``/<job_id>``).
#: Kept as a plain literal so documentation tooling can extract it.
ROUTE_PATHS = (
    "/v1/health",
    "/v1/compile",
    "/v1/simulate",
    "/v1/run",
    "/v1/jobs",
    "/v1/stats",
)


class ServiceError(Exception):
    """A request the service rejects, carrying its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _submit(state, kind: str, body: Optional[Dict]) -> Tuple[int, Dict]:
    """Shared POST handler for the three job kinds."""
    body = body if isinstance(body, dict) else {}
    wait = bool(body.get("wait", True))
    timeout = body.get("timeout", state.config.wait_timeout)
    if not isinstance(timeout, (int, float)) or timeout < 0:
        raise ServiceError(400, f"'timeout' must be non-negative, got {timeout!r}")
    job = state.submit(kind, body)
    if wait:
        job.wait(float(timeout))
    payload: Dict[str, object] = {"job": job.describe()}
    if not job.done:
        return 202, payload
    if job.status == "failed":
        return 500, payload
    if job.result is not None:
        payload["result"] = job.result.get("result")
    return 200, payload


def dispatch(
    state, method: str, path: str, body: Optional[Dict]
) -> Tuple[int, Dict]:
    """Route one request; returns ``(http_status, json_payload)``.

    Raises :class:`ServiceError` for malformed requests — the HTTP
    handler turns that into the carried status code.
    """
    path = path.rstrip("/") or "/"
    if path == "/v1/health":
        if method != "GET":
            raise ServiceError(405, "health is GET-only")
        return 200, state.health()
    if path == "/v1/stats":
        if method != "GET":
            raise ServiceError(405, "stats is GET-only")
        return 200, state.stats()
    if path in ("/v1/compile", "/v1/simulate", "/v1/run"):
        if method != "POST":
            raise ServiceError(405, f"{path} is POST-only")
        return _submit(state, path.rsplit("/", 1)[1], body)
    if path.startswith("/v1/jobs/"):
        if method != "GET":
            raise ServiceError(405, "jobs is GET-only")
        digest = path[len("/v1/jobs/"):]
        payload = state.job_payload(digest)
        if payload is None:
            raise ServiceError(404, f"unknown job {digest!r}")
        return 200, payload
    raise ServiceError(404, f"no route for {path!r}")

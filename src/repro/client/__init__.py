"""The PIP wire client: ``connect(url, token)`` → a remote DB-API session.

The thin counterpart of :mod:`repro.server` — see ``docs/server.md`` for
the protocol and :mod:`repro.client.session` for the surface.

Example (against a server started elsewhere)::

    from repro.client import connect

    with connect("ws://127.0.0.1:8470", token="s3cret") as session:
        session.execute("SELECT k, v FROM t WHERE v > :floor", {"floor": 2.5})
        rows = session.fetchall()
        result = session.result          # full ResultSet: estimates, CIs, stats
"""

from urllib.parse import urlsplit

from repro.client.reconnect import ReconnectPolicy
from repro.client.session import RemoteCursor, RemoteSession, RemoteTransaction

__all__ = ["connect", "RemoteSession", "RemoteCursor", "RemoteTransaction",
           "ReconnectPolicy"]


def connect(url, token=None, db=None, timeout=30.0, reconnect=True,
            trace_rng=None, telemetry=None):
    """Open a :class:`RemoteSession` on a running PIP server.

    Parameters
    ----------
    url:
        ``ws://host:port`` (or ``http://host:port`` — same wire, the
        session endpoint upgrades).  ``PIPServer.url`` is accepted as-is.
    token:
        Auth token (sent as ``Authorization: Bearer``); required unless
        the server runs with auth disabled.
    db:
        Database name on a multi-database server; optional when the
        server hosts exactly one.
    timeout:
        Socket timeout in seconds for connect and each blocking read.
    reconnect:
        ``True`` (default) for the standard exponential-backoff-with-
        jitter policy, ``False`` to disable, or a configured
        :class:`ReconnectPolicy`.
    trace_rng:
        Optional seeded ``random.Random`` backing the session's
        traceparent ids — deterministic ids for tests.
    telemetry:
        Optional client-side :class:`~repro.obs.Telemetry`; with tracing
        enabled, every request is wrapped in a ``client.wire`` span that
        roots the distributed trace (see ``docs/observability.md``).
    """
    split = urlsplit(url if "//" in url else "ws://" + url)
    if split.scheme not in ("ws", "http", "wss", "https", ""):
        raise ValueError("unsupported URL scheme %r" % (split.scheme,))
    if split.hostname is None or split.port is None:
        raise ValueError("URL %r needs an explicit host and port" % (url,))
    return RemoteSession(
        split.hostname, split.port,
        token=token, db=db, timeout=timeout, reconnect=reconnect,
        trace_rng=trace_rng, telemetry=telemetry,
    )

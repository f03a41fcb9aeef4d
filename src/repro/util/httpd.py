"""Shared stdlib HTTP-server lifecycle helper.

Both live HTTP surfaces of the reproduction — the telemetry endpoint
(:class:`repro.obs.export.TelemetryServer`) and the RFC 6962 log front
end (:class:`repro.ct.server.LogServer`) — need the same plumbing:
bind a :class:`~http.server.ThreadingHTTPServer` (``port=0`` picks an
ephemeral port, so parallel tests never race on port reuse), serve on
a named daemon thread, shut down idempotently, and report the bound
address the same way (``host`` / ``port`` / ``url``).

:class:`HttpServerHandle` is that plumbing, exactly once.  Owners
compose a handle (rather than inherit from it) and expose its
properties; the handler class reaches its owner back through
``self.server.owner``.

Connections are HTTP/1.1 keep-alive.  :class:`SingleWriteHandler` is
the base every handler derives from: Nagle's algorithm off, an idle
timeout on the handler socket, and each response written as one
buffer — with headers and body in separate writes, Nagle plus the
peer's delayed ACK stalls every keep-alive response by ~40 ms.
"""

from __future__ import annotations

import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Set, Type

#: Listen backlog: a burst of clients connecting at once must not
#: overflow the accept queue (overflow costs a ~1 s SYN retransmit).
LISTEN_BACKLOG = 128

#: Seconds a handler waits for the next request on a keep-alive
#: connection before closing it, so an abandoned client cannot pin a
#: handler thread.
IDLE_TIMEOUT_S = 30.0


class SingleWriteHandler(BaseHTTPRequestHandler):
    """Request handler base: keep-alive, Nagle off, one write per response."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def log_message(self, *args: object) -> None:  # owners log instead
        pass

    def respond(
        self,
        status: int,
        content_type: str,
        body: bytes,
        *,
        close: bool = False,
    ) -> None:
        """Send status line, headers and ``body`` in a single write.

        ``close`` adds ``Connection: close`` and ends the connection
        after this response (the request stream can no longer be
        trusted to frame the next request).
        """
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # send_header also sets self.close_connection.
            self.send_header("Connection", "close")
        # end_headers() would flush the headers in a write of their own.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()


class _TrackingHTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that can shut down its live connections."""

    request_queue_size = LISTEN_BACKLOG

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._conns_lock = threading.Lock()
        self._conns: Set[socket.socket] = set()

    def process_request(self, request, client_address) -> None:  # type: ignore[override]
        with self._conns_lock:
            self._conns.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:  # type: ignore[override]
        with self._conns_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut down every accepted connection (handlers then see EOF)."""
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass

    def handle_error(self, request, client_address) -> None:  # type: ignore[override]
        # A peer that went away (or stop() cutting a connection under
        # an in-flight response) is not a server fault.
        if isinstance(sys.exc_info()[1], OSError):
            return
        super().handle_error(request, client_address)


class HttpServerHandle:
    """Bind/serve/shutdown lifecycle around one ``ThreadingHTTPServer``.

    Connections are persistent: a client may send any number of
    requests over one connection.  :meth:`stop` shuts every open
    connection down and waits for their handler threads, so no request
    is answered — and no handler runs — once ``stop()`` returns.

    Parameters
    ----------
    handler_cls:
        The request handler class that answers requests, normally a
        :class:`SingleWriteHandler` subclass.  Inside the handler,
        ``self.server.owner`` is the ``owner`` passed here.
    owner:
        The object the handler delegates to (the telemetry server, the
        log server, ...).
    host / port:
        Bind address; ``port=0`` (the default) lets the kernel pick a
        free ephemeral port — the resolved port is available as
        :attr:`port` immediately after construction, *before*
        :meth:`start`.
    thread_name:
        Name of the daemon thread running ``serve_forever``.
    """

    def __init__(
        self,
        handler_cls: Type[BaseHTTPRequestHandler],
        *,
        owner: object,
        host: str = "127.0.0.1",
        port: int = 0,
        thread_name: str = "repro-http",
    ) -> None:
        self._httpd = _TrackingHTTPServer((host, port), handler_cls)
        self._httpd.owner = owner  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._thread_name = thread_name

    # -- address -------------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "HttpServerHandle":
        """Serve on a daemon thread; raises if already started."""
        if self._thread is not None:
            raise RuntimeError(f"{self._thread_name} server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close live connections, release the socket.

        Idempotent.  Returns after every handler thread has exited
        (``server_close`` joins them), so a request in flight finishes
        its handler before ``stop()`` returns.
        """
        if self._thread is None:
            return
        self._httpd.shutdown()
        self._thread.join()
        self._httpd.close_connections()
        self._httpd.server_close()
        self._thread = None

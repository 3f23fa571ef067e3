"""The HTTP listener over :class:`~repro.gateway.handlers.GatewayApp`.

The app is framework-free; the server is only the byte-moving shell around
``app.handle``: a stdlib :class:`ThreadingHTTPServer` (zero dependencies).

The server's shutdown choreography is the part worth reading
twice: ``daemon_threads=False`` + ``block_on_close=True`` make
``server_close()`` join every in-flight request thread, so the drain
sequence — stop admitting, stop accepting, join handlers, then flush and
checkpoint — has no window where a half-served request races the final
checkpoint. A SIGTERM handler must *not* call :meth:`GatewayServer.stop`
inline when the signal arrives on the serving thread (``shutdown()``
blocks until ``serve_forever`` exits — a deadlock); spawn a thread, as
``repro serve-http`` does.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional

from ..errors import ConfigurationError
from .handlers import GatewayApp
from .wire import MAX_BODY_BYTES


class GatewayServer:
    """A running (or startable) gateway: one app bound to one listener.

    Thin lifecycle wrapper over the listener, shared by the CLI and tests:
    :meth:`serve_forever` blocks, :meth:`stop`
    unblocks it from any *other* thread, and :attr:`port` reports the bound
    port (meaningful with ephemeral ``port=0``).
    """

    def __init__(
        self,
        app: GatewayApp,
        serve: Callable[[], None],
        shutdown: Callable[[], None],
        host: str,
        port: int,
    ) -> None:
        self.app = app
        self._serve = serve
        self._shutdown = shutdown
        self.host = host
        self.port = port

    @property
    def url(self) -> str:
        """Base URL of the bound listener."""
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Accept and serve requests until :meth:`stop` is called."""
        self._serve()

    def stop(self) -> None:
        """Stop accepting, join in-flight request threads, release the port.

        Call from a different thread than :meth:`serve_forever` (a SIGTERM
        handler on the serving thread must delegate to a helper thread).
        """
        self._shutdown()


def build_server(
    app: GatewayApp, host: Optional[str] = None, port: Optional[int] = None
) -> GatewayServer:
    """Bind ``app`` to a threaded stdlib HTTP server; returns the server.

    Host/port default to the app's :class:`~repro.config.GatewayConfig`;
    ``port=0`` binds an ephemeral port (read it back from ``server.port``).
    """
    host = host if host is not None else app.config.host
    port = port if port is not None else app.config.port

    class _Handler(BaseHTTPRequestHandler):
        # Request threads outlive accept-loop shutdown only until
        # server_close(); keep-alive would hold them (and the drain) open
        # indefinitely, so every response closes the connection.
        protocol_version = "HTTP/1.0"
        server_version = "repro-gateway"

        def log_message(self, format: str, *args: object) -> None:
            pass  # request logging is the metrics registry's job

        def _respond(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            if length > MAX_BODY_BYTES:
                # Refuse before reading: the error envelope for oversized
                # bodies without buffering them.
                body = b""
                self.rfile.read(length)
            else:
                body = self.rfile.read(length) if length else b""
            status, headers, payload = app.handle(
                self.command, self.path, dict(self.headers.items()), body
            )
            self.send_response(status)
            for name, value in headers.items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        do_GET = do_POST = do_PUT = do_DELETE = _respond

    class _Server(ThreadingHTTPServer):
        # The drain contract: server_close() joins every in-flight request
        # thread before returning, so nothing is half-served when the final
        # checkpoints are written.
        daemon_threads = False
        block_on_close = True
        # socketserver's default listen backlog is 5; an open-loop burst
        # must reach the admission queues and earn a 429, not die with a
        # refused connection at the kernel.
        request_queue_size = 128

    try:
        httpd = _Server((host, port), _Handler)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot bind gateway to {host}:{port}: {exc}"
        ) from exc

    def _shutdown() -> None:
        httpd.shutdown()
        httpd.server_close()

    return GatewayServer(
        app,
        serve=httpd.serve_forever,
        shutdown=_shutdown,
        host=host,
        port=httpd.server_address[1],
    )

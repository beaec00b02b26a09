"""Servers on 127.0.0.1 for tests of the HTTP transport: a chat-completions
endpoint, which can also serve TLS or act as a proxy, and a server that
answers with raw bytes."""

import contextlib
import hashlib
import json
import selectors
import socket
import ssl
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

ANSWERS = ("The paper does not focus on it.", "Yes, the parameter is mentioned.")
# A test CA and the certificate it signed for localhost and 127.0.0.1.
TLS_DIR = Path(__file__).parent / "data" / "tls"
TLS_CA = TLS_DIR / "ca.pem"


def hashed_answer(prompt):
    """One of ``ANSWERS``, by a hash of the prompt."""
    return ANSWERS[hashlib.sha256(prompt.encode("utf-8")).digest()[0] % 2]


class LocalEndpoint(ThreadingHTTPServer):
    """Answers each POST by a hash of its prompt over keep-alive HTTP/1.1.

    It records each request as (method, target, headers, body) and counts the
    connections it accepted and those still open. A connection counts as
    open until the client closes it (or 10 s pass idle). With ``drop_idle``
    it closes each connection after one answer without saying so, as a
    server does with an idle keep-alive connection. With ``first``, a
    (status, headers) pair, the first POST is answered with that status,
    those headers and no body. With ``bucket``, a (rate, burst) pair, a POST
    takes a token from a bucket that holds at most ``burst`` and refills at
    ``rate`` per second, and one that finds none is answered 429 with
    ``Retry-After: 1``. Each POST is answered ``latency`` seconds after it
    arrived. A CONNECT is recorded and refused with 407; with ``tunnel`` it
    is answered 200 instead, and the connection relayed to the host and
    port it names until both sides close. With ``tls`` each connection is
    served over TLS with the certificate in ``TLS_DIR``, offering ALPN
    ``http/1.1``, and each handshake is recorded in ``handshakes`` as (the
    SNI name the client sent, the ALPN protocol agreed). Use it as a
    context manager.
    """

    daemon_threads = False  # server_close joins every handler thread

    def __init__(self, drop_idle=False, first=None, bucket=None, latency=0.0, tunnel=False, tls=False):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.drop_idle = drop_idle
        self.first = first
        self.bucket = bucket
        self.latency = latency
        self.tunnel = tunnel
        self.tls = None
        self.handshakes = []
        if tls:
            self._sni = threading.local()  # the handshake runs on the handler's thread
            self.tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            self.tls.load_cert_chain(TLS_DIR / "server.pem", TLS_DIR / "server.key")
            self.tls.set_alpn_protocols(["http/1.1"])
            self.tls.sni_callback = lambda sock, name, context: setattr(self._sni, "name", name)
        self._tokens = bucket[1] if bucket else 0.0
        self._filled = time.monotonic()
        self.requests = []
        self.connections = 0
        self.open = 0
        self.changed = threading.Condition()
        self._serving = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.02})

    @property
    def url(self):
        if self.tls is not None:  # by name, which the certificate and SNI carry
            return f"https://localhost:{self.server_port}/v1"
        return f"http://127.0.0.1:{self.server_port}/v1"

    @property
    def posts(self):
        return [r for r in self.requests if r[0] == "POST"]

    def take_token(self):
        """Whether the bucket held a token for this POST (always, without one)."""
        if self.bucket is None:
            return True
        rate, burst = self.bucket
        with self.changed:
            now = time.monotonic()
            self._tokens = min(burst, self._tokens + (now - self._filled) * rate)
            self._filled = now
            if self._tokens < 1:
                return False
            self._tokens -= 1
            return True

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1], ssl.SSLError):  # a handshake the client refused
            super().handle_error(request, client_address)

    def wait_closed(self, timeout=5.0):
        """Whether every connection was closed within ``timeout`` seconds."""
        with self.changed:
            return self.changed.wait_for(lambda: self.open == 0, timeout)

    def __enter__(self):
        self._serving.start()
        return self

    def __exit__(self, *exc_info):
        self.shutdown()
        self._serving.join(timeout=10)
        self.server_close()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10

    def setup(self):
        if self.server.tls is not None:
            self.request.settimeout(self.timeout)
            self.request = self.server.tls.wrap_socket(self.request, server_side=True)
            self.server.handshakes.append((self.server._sni.name, self.request.selected_alpn_protocol()))
        super().setup()
        # Headers and body leave in two writes: without this, the second
        # waits on the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.changed:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        super().finish()
        if self.server.tls is not None:  # the server closes only the socket it accepted
            self.request.close()
        with self.server.changed:
            self.server.open -= 1
            self.server.changed.notify_all()

    def log_message(self, format, *args):
        pass

    def _record(self, body=b""):
        with self.server.changed:
            self.server.requests.append((self.command, self.path, dict(self.headers), body))

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self._record(body)
        with self.server.changed:
            first, self.server.first = self.server.first, None
        if first is None and not self.server.take_token():
            first = (429, {"Retry-After": "1"})
        time.sleep(self.server.latency)
        if first is not None:
            status, headers = first
            self._answer(status, b"", headers)
            return
        prompt = json.loads(body)["messages"][0]["content"]
        answer = hashed_answer(prompt)
        payload = json.dumps({"choices": [{"message": {"content": answer}, "finish_reason": "stop"}]})
        self._answer(200, payload.encode("utf-8"))
        if self.server.drop_idle:
            self.close_connection = True

    def do_CONNECT(self):
        self._record()
        self.close_connection = True
        if not self.server.tunnel:
            self._answer(407, b"")
            return
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host.strip("[]"), int(port)), timeout=self.timeout) as upstream:
            self.send_response(200)
            self.end_headers()
            _relay(self.connection, upstream, self.timeout)

    def _answer(self, status, payload, headers=()):
        self.send_response(status)
        for name, value in dict(headers).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


def _relay(one, other, timeout):
    """Copy bytes both ways between two sockets until each side has closed
    its end, or neither has sent for ``timeout`` seconds."""
    peers = {one: other, other: one}
    with selectors.DefaultSelector() as selector:
        for sock in peers:
            selector.register(sock, selectors.EVENT_READ)
        while selector.get_map():
            events = selector.select(timeout)
            if not events:
                return
            for key, _ in events:
                try:
                    data = key.fileobj.recv(65536)
                except OSError:
                    data = b""
                with contextlib.suppress(OSError):
                    if data:
                        peers[key.fileobj].sendall(data)
                    else:
                        selector.unregister(key.fileobj)
                        peers[key.fileobj].shutdown(socket.SHUT_WR)


class RawEndpoint:
    """Answers every request with the same raw bytes, in one write.

    It reads each request's head and its ``Content-Length`` body, keeping
    the bodies in ``bodies``, then sends ``answer`` and, with ``close``,
    closes the connection. It serves one connection at a time and counts
    them in ``connections``. Use it as a context manager.
    """

    def __init__(self, answer, close=False):
        self.answer = answer
        self.close = close
        self.bodies = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.02)
        self._stop = threading.Event()
        self._serving = threading.Thread(target=self._serve)

    @property
    def url(self):
        return f"http://127.0.0.1:{self._listener.getsockname()[1]}/v1"

    def __enter__(self):
        self._serving.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._serving.join(timeout=10)
        self._listener.close()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.connections += 1
            with conn, conn.makefile("rb") as rfile, contextlib.suppress(OSError):
                conn.settimeout(10)
                while self._answer_one(conn, rfile) and not self.close:
                    pass

    def _answer_one(self, conn, rfile):
        """Read a request and answer it; False if the client closed first."""
        length = 0
        line = rfile.readline()
        if not line:
            return False
        while line not in (b"\r\n", b""):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
            line = rfile.readline()
        self.bodies.append(rfile.read(length))
        conn.sendall(self.answer)
        return True

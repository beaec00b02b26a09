"""A chat-completions endpoint on 127.0.0.1, for tests of the HTTP transport."""

import hashlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ANSWERS = ("The paper does not focus on it.", "Yes, the parameter is mentioned.")


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
    arrived. A CONNECT is recorded and refused with 407. Use it as a context
    manager.
    """

    daemon_threads = False  # server_close joins every handler thread

    def __init__(self, drop_idle=False, first=None, bucket=None, latency=0.0):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.drop_idle = drop_idle
        self.first = first
        self.bucket = bucket
        self.latency = latency
        self._tokens = bucket[1] if bucket else 0.0
        self._filled = time.monotonic()
        self.requests = []
        self.connections = 0
        self.open = 0
        self.changed = threading.Condition()
        self._serving = threading.Thread(target=self.serve_forever, kwargs={"poll_interval": 0.02})

    @property
    def url(self):
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
        super().setup()
        # Headers and body leave in two writes: without this, the second
        # waits on the client's delayed ACK.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.changed:
            self.server.connections += 1
            self.server.open += 1

    def finish(self):
        super().finish()
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
        self._answer(407, b"")
        self.close_connection = True

    def _answer(self, status, payload, headers=()):
        self.send_response(status)
        for name, value in dict(headers).items():
            self.send_header(name, value)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

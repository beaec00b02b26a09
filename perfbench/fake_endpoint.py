"""A fake chat-completions endpoint, run as its own process.

    python3 perfbench/fake_endpoint.py   # prints the port, then serves

Stdlib HTTP/1.1 server with keep-alive and one thread per connection. Each
response leaves in a single write on a TCP_NODELAY socket: headers and body
in separate writes meet delayed ACKs and stall for tens of milliseconds.
The answer to a prompt is a pure function of its text (see corpus.answer),
so any dispatch order yields the same records. Control paths under /_bench/
set latency and injected errors, reset the counters and read them back.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import corpus


class State:
    """Configuration and counters, shared by the handler threads."""

    def __init__(self):
        self.lock = threading.Lock()
        self.configure({})

    def configure(self, cfg: dict) -> None:
        with self.lock:
            self.seed = cfg.get("seed", 0)
            self.latency_s = cfg.get("latency_s", 0.0)
            self.retry = dict(cfg.get("retry", {}))
            self.reject = set(cfg.get("reject", ()))
            self._reset()

    def _reset(self) -> None:
        self.arrivals: dict[str, int] = {}
        self.answered: dict[str, int] = {}
        self.by_status: dict[str, int] = {}
        self.retry_sent: dict[str, float] = {}
        self.retry_gaps: list[float] = []
        self.inflight = 0
        self.inflight_max = 0
        self.busy_area = 0.0  # integral of in-flight count over time
        self.idle = 0.0
        self.first = self.last = self.mark = None

    def reset(self) -> None:
        with self.lock:
            self._reset()

    def _advance(self, now: float) -> None:
        if self.mark is not None:
            self.busy_area += self.inflight * (now - self.mark)
            if self.inflight == 0:
                self.idle += now - self.mark
        self.mark = now

    def arrive(self, key: str) -> int | None:
        """Count an arrival; returns the injected status, if any."""
        now = time.monotonic()
        with self.lock:
            self._advance(now)
            if self.first is None:
                self.first = now
            self.inflight += 1
            self.inflight_max = max(self.inflight_max, self.inflight)
            seen = self.arrivals.get(key, 0)
            self.arrivals[key] = seen + 1
            if key in self.retry_sent and seen == 1:
                self.retry_gaps.append(now - self.retry_sent[key])
            if key in self.reject:
                return 400
            if seen == 0 and key in self.retry:
                return self.retry[key]
            return None

    def depart(self, key: str, status: int) -> None:
        now = time.monotonic()
        with self.lock:
            self._advance(now)
            self.last = now
            self.inflight -= 1
            self.by_status[str(status)] = self.by_status.get(str(status), 0) + 1
            if status == 200:
                self.answered[key] = self.answered.get(key, 0) + 1
            elif status in (429, 503):
                self.retry_sent[key] = now

    def snapshot(self) -> dict:
        with self.lock:
            span = (self.last - self.first) if self.first is not None and self.last is not None else 0.0
            return {
                "requests": sum(self.arrivals.values()),
                "by_status": dict(self.by_status),
                "arrivals": dict(self.arrivals),
                "answered": dict(self.answered),
                "retry_gaps_s": list(self.retry_gaps),
                "inflight_max": self.inflight_max,
                "inflight_mean": self.busy_area / span if span > 0 else 0.0,
                "idle_share": self.idle / span if span > 0 else 0.0,
                "span_s": span,
            }


def _response(status: int, payload: dict, extra_headers: str = "") -> bytes:
    body = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 429: "Too Many Requests", 503: "Service Unavailable"}
    head = (
        f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"{extra_headers}\r\n"
    )
    return head.encode("ascii") + body


def make_handler(state: State):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def setup(self):
            super().setup()
            self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

        def log_message(self, format, *args):
            pass

        def _body(self) -> bytes:
            return self.rfile.read(int(self.headers.get("Content-Length", 0)))

        def do_GET(self):
            if self.path == "/_bench/stats":
                self.wfile.write(_response(200, state.snapshot()))
            else:
                self.wfile.write(_response(404, {"error": "not found"}))

        def do_POST(self):
            raw = self._body()
            if self.path == "/_bench/config":
                state.configure(json.loads(raw))
                self.wfile.write(_response(200, {}))
            elif self.path == "/_bench/reset":
                state.reset()
                self.wfile.write(_response(200, {}))
            elif self.path.endswith("/chat/completions"):
                self._complete(raw)
            else:
                self.wfile.write(_response(404, {"error": "not found"}))

        def _complete(self, raw: bytes) -> None:
            try:
                request = json.loads(raw)
                prompt = request["messages"][0]["content"]
                key = corpus.text_key(*corpus.split_prompt(prompt))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self.wfile.write(_response(422, {"error": f"unparseable request: {exc}"}))
                return
            injected = state.arrive(key)
            time.sleep(state.latency_s)
            if injected == 400:
                status, out = 400, _response(400, {"error": {"message": "injected rejection"}})
            elif injected is not None:
                status = injected
                out = _response(status, {"error": {"message": "injected, retry"}}, "Retry-After: 0\r\n")
            else:
                status = 200
                text = corpus.answer(state.seed, key)
                out = _response(200, {
                    "model": request.get("model"),
                    "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
                    "usage": {
                        "prompt_tokens": len(prompt.split()),
                        "completion_tokens": len(text.split()),
                        "total_tokens": len(prompt.split()) + len(text.split()),
                    },
                })
            state.depart(key, status)
            self.wfile.write(out)

    return Handler


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(1)
    os._exit(0)


class Server(ThreadingHTTPServer):
    daemon_threads = True
    # The default listen backlog of 5 would drop the SYNs of a burst of
    # concurrent connections and stall them for a second.
    request_queue_size = 128


def main() -> None:
    server = Server(("127.0.0.1", 0), make_handler(State()))
    # A parent killed outright cannot stop us; notice it is gone instead.
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    sys.exit(main())

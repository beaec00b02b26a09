"""A stand-in for the client's HTTP transport, ``llm_client._Transport``."""

import json
import threading
import time
from unittest import mock

import chunkcode as cc
from chunkcode import llm_client
from local_endpoint import hashed_answer


def reply(status, body=b"", headers=()):
    """An HTTP answer as the transport returns it: ``body`` is a dict (sent
    as JSON), a str or bytes; the header names are lower-cased, as the
    transport's reader stores them."""
    if isinstance(body, dict):
        body = json.dumps(body)
    if isinstance(body, str):
        body = body.encode("utf-8")
    fields = {name.lower(): value for name, value in dict(headers).items()}
    return llm_client._Response(status, fields, body)


def completion(text, finish_reason=None, **fields):
    """A 200 answer whose one choice is ``text``, with ``finish_reason`` when
    one is given, plus the top-level ``fields`` (``model``, ``usage``)."""
    choice = {"message": {"content": text}}
    if finish_reason is not None:
        choice["finish_reason"] = finish_reason
    return reply(200, {"choices": [choice], **fields})


def post_through(transport):
    """A context in which every live or record ``LLMClient`` built, the
    CLI's too, posts through ``transport``."""
    return mock.patch.object(llm_client, "_Transport", lambda *endpoint: transport)


class FakeTransport:
    """Posts nowhere: answers each post with ``answer(prompt)``, which
    subclasses override. It also serves as a mock responder.

    By default each prompt is answered by a hash of its text, as
    ``LocalEndpoint`` answers it. Each call (post or mock) sleeps
    ``delay()`` seconds when a delay is given, and the peak number of calls
    in progress at once is kept. The prompts in ``reject`` are answered 400.
    Every call after the first ``fail_after`` raises RuntimeError, once the
    ``hold`` event is set when one is given (or after 10 s). ``calls``
    counts the calls and ``sent`` holds each post's JSON body, decoded. Safe
    to share between threads.
    """

    def __init__(self, delay=None, reject=(), fail_after=None, hold=None):
        self.delay = delay
        self.reject = set(reject)
        self.fail_after = fail_after
        self.hold = hold
        self.lock = threading.Lock()
        self.calls = self.active = self.peak = 0
        self.sent = []

    def client(self, **options):
        """An ``LLMClient`` whose transport is this fake."""
        with post_through(self):
            return cc.LLMClient(**options)

    def post(self, body):
        sent = json.loads(body)
        with self.lock:
            self.sent.append(sent)
        self._enter()
        return self.answer(sent["messages"][0]["content"])

    def __call__(self, request):
        self._enter()
        return hashed_answer(request.prompt_text)

    def close(self):
        pass

    def answer(self, prompt):
        if prompt in self.reject:
            return reply(400, "rejected")
        return completion(hashed_answer(prompt))

    def _enter(self):
        with self.lock:
            self.calls += 1
            failing = self.fail_after is not None and self.calls > self.fail_after
            if not failing:
                self.active += 1
                self.peak = max(self.peak, self.active)
                delay = 0.0 if self.delay is None else self.delay()
        if failing:
            if self.hold is not None:
                self.hold.wait(timeout=10)
            raise RuntimeError("endpoint exploded")
        time.sleep(delay)
        with self.lock:
            self.active -= 1

import json
import random
import re
import shutil
import tracemalloc
from types import SimpleNamespace

import pytest
import requests

import chunkcode as cc
from chunkcode import llm_client
from chunkcode.errors import CacheMissError, ConfigError, TransportError
from chunkcode.llm_client import retry_delay


class FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text or (json.dumps(payload) if payload is not None else "")
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


def completion_payload(text, model="gpt-test"):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "model": model,
        "usage": {"prompt_tokens": 3, "completion_tokens": 5},
    }


class FakeSession:
    """Stands in for requests.Session; `script` is a list of responses or exceptions."""

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers, "timeout": timeout})
        action = self.script.pop(0) if len(self.script) > 1 else self.script[0]
        if isinstance(action, Exception):
            raise action
        return action


def make_request(text="hello", model="gpt-test", tag=""):
    return cc.PromptRequest(model=model, prompt_text=text, tag=tag)


class TestRenderPrompt:
    def test_parameter_substituted_in_both_slots(self):
        dim = cc.Dimension(id="fidelity", name="Fidelity", definition="Degree of accuracy.")
        prompt = cc.render_prompt(dim, "body text here")
        assert "whether the parameter 'Fidelity' is mentioned" in prompt
        assert "Note that 'Fidelity' is defined as 'Degree of accuracy.'" in prompt
        assert prompt.count("Fidelity") == 2

    def test_instruction_precedes_body(self):
        dim = cc.Dimension(id="x", name="X", definition="D.")
        prompt = cc.render_prompt(dim, "THE BODY")
        assert prompt.endswith("\n\nTHE BODY")

    def test_braces_in_definition_are_literal(self):
        dim = cc.Dimension(id="x", name="X", definition="uses {curly} braces")
        assert "{curly}" in cc.render_prompt(dim, "body")

    def test_empty_body_rejected(self):
        dim = cc.Dimension(id="x", name="X", definition="D.")
        with pytest.raises(ValueError):
            cc.render_prompt(dim, "")


class TestRequestKey:
    def test_frozen_value_is_platform_stable(self):
        key = cc.PromptRequest(model="gpt-4o", prompt_text="hello").request_key
        assert key == "9334afb923e74ed8bc37fb3fb9c576d4d80a8cce6a95274c4b1a49d0a549fe83"

    def test_pure_function_of_fields(self):
        assert make_request().request_key == make_request().request_key
        assert make_request(tag="a").request_key != make_request(tag="b").request_key
        assert make_request(model="m1").request_key != make_request(model="m2").request_key
        assert make_request(text="x").request_key != make_request(text="y").request_key

    def test_hashed_once_per_request(self, monkeypatch):
        hashed, real_sha256 = [], llm_client.hashlib.sha256

        def sha256(data):
            hashed.append(data)
            return real_sha256(data)

        monkeypatch.setattr(llm_client, "hashlib", SimpleNamespace(sha256=sha256))
        request = make_request("hash me", tag="t")
        assert request.request_key == request.request_key
        assert len(hashed) == 1
        # The kept digest is no field: equality, hashing and repr ignore it.
        assert request == make_request("hash me", tag="t")
        assert hash(request) == hash(make_request("hash me", tag="t"))
        assert repr(request) == "PromptRequest(model='gpt-test', prompt_text='hash me', tag='t')"


class TestRetryPolicy:
    def test_first_delay_is_base_with_jitter(self):
        rng = random.Random(0)
        delays = {retry_delay(1, rng=rng) for _ in range(200)}
        assert all(0.5 <= d < 1.5 for d in delays)

    def test_exponential_growth_and_cap(self):
        rng = random.Random(0)
        d3 = retry_delay(3, max_attempts=10, rng=rng)
        assert 2.0 <= d3 < 6.0
        d9 = retry_delay(9, max_attempts=10, rng=rng)
        assert d9 < 45.0

    def test_give_up_at_max_attempts(self):
        assert retry_delay(5, max_attempts=5) is None
        assert retry_delay(6, max_attempts=5) is None

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            retry_delay(0)


class TestMocks:
    def test_scripted_lookup_and_default(self):
        req = make_request("scripted")
        mock = cc.ScriptedMock({req.request_key: "canned answer"})
        assert mock(req) == "canned answer"
        with pytest.raises(ConfigError):
            mock(make_request("other"))
        fallback = cc.ScriptedMock({}, default="fallback")
        assert fallback(make_request("other")) == "fallback"

    def test_stochastic_mock_is_deterministic_per_request(self):
        mock = cc.StochasticMock(seed=3, flip_probability=0.5)
        req = make_request("q1")
        assert mock(req) == mock(req)

    def test_stochastic_mock_flip_rate(self):
        mock = cc.StochasticMock(seed=11, flip_probability=0.2, truth=True)
        flips = sum(
            mock(make_request(f"q{i}")) == mock.negative_text for i in range(2000)
        )
        assert 300 <= flips <= 500  # ~400 expected

    def test_stochastic_mock_truth_callable(self):
        mock = cc.StochasticMock(
            seed=1, flip_probability=0.0, truth=lambda req: req.tag == "t"
        )
        assert mock(make_request("x", tag="t")) == mock.positive_text
        assert mock(make_request("x", tag="other")) == mock.negative_text

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            cc.StochasticMock(seed=0, flip_probability=1.5)


class TestClientModes:
    def test_mode_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            cc.LLMClient(mode="bogus")
        with pytest.raises(ConfigError):
            cc.LLMClient(mode="record")  # no cache dir
        with pytest.raises(ConfigError):
            cc.LLMClient(mode="mock")  # no responder
        with pytest.raises(ConfigError, match="max_inflight"):
            cc.LLMClient(mode="live", max_inflight=0)

    def test_mock_mode(self):
        client = cc.LLMClient(mode="mock", mock=cc.ScriptedMock(default="hi"))
        response = client.complete(make_request())
        assert response.text == "hi"
        assert response.from_cache is False

    def test_statelessness_under_reordering(self):
        req_a, req_b = make_request("a"), make_request("b")
        mock = cc.ScriptedMock(
            {req_a.request_key: "answer a", req_b.request_key: "answer b"}
        )
        client = cc.LLMClient(mode="mock", mock=mock)
        first = (client.complete(req_a).text, client.complete(req_b).text)
        second = (client.complete(req_b).text, client.complete(req_a).text)
        assert first == ("answer a", "answer b")
        assert second == ("answer b", "answer a")

    def test_live_posts_wire_format(self):
        session = FakeSession([FakeResponse(200, completion_payload("pong"))])
        client = cc.LLMClient(
            mode="live", base_url="http://test/v1", api_key="sk-x", session=session
        )
        response = client.complete(make_request("ping", model="gpt-test"))
        assert response.text == "pong"
        assert response.from_cache is False
        call = session.calls[0]
        assert call["url"] == "http://test/v1/chat/completions"
        assert call["json"] == {
            "model": "gpt-test",
            "messages": [{"role": "user", "content": "ping"}],
        }
        assert call["headers"]["Authorization"] == "Bearer sk-x"

    def test_record_then_replay_round_trip(self, tmp_path):
        session = FakeSession([FakeResponse(200, completion_payload("recorded text"))])
        recorder = cc.LLMClient(
            mode="record", base_url="http://t/v1", cache_dir=tmp_path, session=session
        )
        req = make_request("the prompt", tag="cell/1")
        first = recorder.complete(req)
        assert first.from_cache is False

        # same request again in record mode: cache hit, no extra network call
        second = recorder.complete(req)
        assert second.from_cache is True
        assert second.text == first.text
        assert len(session.calls) == 1

        replayer = cc.LLMClient(mode="replay", cache_dir=tmp_path)
        replayed = replayer.complete(req)
        assert replayed.from_cache is True
        assert replayed.text == "recorded text"

    def test_segment_line_headed_by_request_key(self, tmp_path):
        session = FakeSession([FakeResponse(200, completion_payload("x"))])
        client = cc.LLMClient(
            mode="record", base_url="http://t/v1", cache_dir=tmp_path, session=session
        )
        req = make_request("name check")
        client.complete(req)
        (segment,) = tmp_path.iterdir()
        assert re.fullmatch(r"segment-1-\d+-[0-9a-f]{16}", segment.name)
        assert segment.read_bytes().startswith(f"{req.request_key}\t".encode())

    def test_own_session_pools_max_inflight_connections(self):
        client = cc.LLMClient(mode="live", max_inflight=16)
        for url in ("http://t/v1", "https://t/v1"):
            adapter = client._session.get_adapter(url)
            assert adapter.poolmanager.connection_pool_kw["maxsize"] == 16

    def test_own_session_reads_network_environment_once(self, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine api.example login user password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        monkeypatch.setenv("HTTPS_PROXY", "http://proxy.example:3128")
        monkeypatch.setenv("NO_PROXY", "internal.example")
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", "/etc/ssl/custom.pem")
        client = cc.LLMClient(mode="live", base_url="https://api.example/v1")
        assert client._session.trust_env is False
        assert client._session.proxies["https"] == "http://proxy.example:3128"
        assert client._session.verify == "/etc/ssl/custom.pem"
        assert client._session.auth == ("user", "secret")
        bypassed = cc.LLMClient(mode="live", base_url="https://internal.example/v1")
        assert "https" not in bypassed._session.proxies

    @pytest.mark.parametrize("mode", llm_client.CACHE_MODES)
    def test_caller_session_is_left_as_is(self, tmp_path, mode):
        session = requests.Session()
        before = dict(session.adapters)
        with cc.LLMClient(
            mode=mode, max_inflight=16, cache_dir=tmp_path, mock=lambda request: "ok", session=session
        ) as client:
            assert client._session is session
        assert session.adapters == before
        session.close()

    @pytest.mark.parametrize("mode", ["replay", "mock"])
    def test_offline_client_builds_no_session(self, monkeypatch, tmp_path, mode):
        def no_netrc(url, raise_errors=False):
            raise AssertionError("an offline client looked up netrc")

        monkeypatch.setattr(requests.utils, "get_netrc_auth", no_netrc)
        with cc.LLMClient(mode=mode, cache_dir=tmp_path, mock=lambda request: "ok") as client:
            assert client._session is None

    @pytest.mark.parametrize("mode", ["live", "record"])
    def test_network_client_builds_its_own_session(self, monkeypatch, tmp_path, mode):
        lookups = []
        monkeypatch.setattr(requests.utils, "get_netrc_auth", lambda url: lookups.append(url))
        with cc.LLMClient(mode=mode, base_url="http://t/v1", cache_dir=tmp_path) as client:
            assert isinstance(client._session, requests.Session)
        assert lookups == ["http://t/v1"]

    def test_live_mode_ignores_the_cache_directory(self, tmp_path):
        session = FakeSession([FakeResponse(200, completion_payload("pong"))])
        cache = tmp_path / "cache"
        client = cc.LLMClient(mode="live", base_url="http://t/v1", cache_dir=cache, session=session)
        assert [client.complete(make_request()).text for _ in range(2)] == ["pong", "pong"]
        assert len(session.calls) == 2
        assert not cache.exists()

    def test_strict_replay_miss(self, tmp_path):
        client = cc.LLMClient(mode="replay", cache_dir=tmp_path)
        req = make_request("never recorded")
        with pytest.raises(CacheMissError, match=req.request_key):
            client.complete(req)


def record_client(cache_dir, session):
    return cc.LLMClient(mode="record", base_url="http://t/v1", cache_dir=cache_dir, session=session)


def segment_entry(key, body):
    return f"{key}\t{body}\n".encode("utf-8")


class TestCacheEntries:
    def test_record_entry_holds_the_response_not_the_prompt(self, tmp_path):
        session = FakeSession([FakeResponse(200, completion_payload("the answer — ü"))])
        req = make_request("a prompt the entry leaves out", tag="doc/dim/i1/c0")
        record_client(tmp_path, session).complete(req)
        (segment,) = tmp_path.iterdir()
        raw = segment.read_bytes()
        latency = json.loads(raw.split(b"\t", 1)[1])[2]["provider_meta"]["latency_s"]
        assert raw == segment_entry(
            req.request_key,
            '["gpt-test","doc/dim/i1/c0",{"text":"the answer — ü","provider_meta":'
            f'{{"status":200,"latency_s":{latency!r},"model":"gpt-test",'
            '"usage":{"prompt_tokens":3,"completion_tokens":5}}}]',
        )
        assert b"leaves out" not in raw

    def test_entry_recorded_with_its_prompt_still_serves(self, old_cache_entry, tmp_path):
        entry = json.loads(old_cache_entry.read_text(encoding="utf-8"))
        req = cc.PromptRequest(**entry["request"])
        assert req.request_key == old_cache_entry.name
        shutil.copy(old_cache_entry, tmp_path)

        replayed = cc.LLMClient(mode="replay", cache_dir=tmp_path).complete(req)
        assert replayed.text == entry["response"]["text"]
        assert replayed.provider_meta == entry["response"]["provider_meta"]
        assert replayed.from_cache is True
        session = FakeSession([FakeResponse(500, text="nothing should be sent")])
        assert record_client(tmp_path, session).complete(req) == replayed
        assert session.calls == []

    @pytest.mark.parametrize(
        "content",
        ['{"response": {}}', '{"response": "x"}', '{"response": {"text": 5}}', "[]", '{"resp'],
        ids=["no text", "response not an object", "text not a string", "not an object", "not JSON"],
    )
    def test_malformed_entry_is_corrupt(self, tmp_path, content):
        req = make_request("p")
        path = tmp_path / req.request_key
        path.write_text(content, encoding="utf-8")
        with pytest.raises(CacheMissError, match=f"corrupt cache entry {re.escape(str(path))}"):
            cc.LLMClient(mode="replay", cache_dir=tmp_path).complete(req)

        session = FakeSession([FakeResponse(200, completion_payload("fetched again"))])
        assert record_client(tmp_path, session).complete(req).text == "fetched again"
        assert len(session.calls) == 1
        assert cc.LLMClient(mode="replay", cache_dir=tmp_path).complete(req).text == "fetched again"
        assert path.read_text(encoding="utf-8") == content  # flat files are never rewritten

    @pytest.mark.parametrize(
        "content",
        ['["m","t",{}]', '["m","t","x"]', '["m","t",{"text":5}]', '{"text":"x"}', '["m","t",{"te'],
        ids=["no text", "response not an object", "text not a string", "not a list", "not JSON"],
    )
    def test_malformed_segment_line_is_corrupt(self, tmp_path, content):
        req, other = make_request("p"), make_request("other")
        segment = tmp_path / "segment-1-1-00"
        segment.write_bytes(
            segment_entry(other.request_key, '["m","",{"text":"fine"}]')
            + segment_entry(req.request_key, content)
        )
        replayer = cc.LLMClient(mode="replay", cache_dir=tmp_path)
        assert replayer.complete(other).text == "fine"
        with pytest.raises(
            CacheMissError, match=f"corrupt cache entry {re.escape(str(segment))} line 2"
        ):
            replayer.complete(req)

        session = FakeSession([FakeResponse(200, completion_payload("fetched again"))])
        recorder = record_client(tmp_path, session)
        assert recorder.complete(req).text == "fetched again"
        assert recorder.complete(req).from_cache is True
        assert len(session.calls) == 1
        assert cc.LLMClient(mode="replay", cache_dir=tmp_path).complete(req).text == "fetched again"

    def test_torn_headless_or_other_key_line_reads_as_a_miss(self, tmp_path):
        torn, headless, whole = make_request("torn"), make_request("headless"), make_request("w")
        shadowed = make_request("shadowed")
        key = shadowed.request_key
        other_key = key[:16] + ("0" if key[16] != "0" else "1") + key[17:]  # same index prefix
        line = segment_entry(torn.request_key, '["m","",{"text":"cut"}]')
        (tmp_path / "segment-1-1-00").write_bytes(
            b"no key here\n"
            + segment_entry(whole.request_key, '["m","",{"text":"whole"}]')
            + segment_entry(other_key, '["m","",{"text":"another key"}]')
            + headless.request_key.encode()
            + b' ["m","",{"text":"no tab"}]\n'
            + line[:-1]
        )
        replayer = cc.LLMClient(mode="replay", cache_dir=tmp_path)
        assert replayer.complete(whole).text == "whole"
        for req in (torn, headless, shadowed):
            with pytest.raises(CacheMissError, match=f"no cached response for request_key {req.request_key}"):
                replayer.complete(req)

    def test_later_line_for_a_key_wins(self, tmp_path):
        req = make_request("p")
        (tmp_path / "segment-1-1-00").write_bytes(
            segment_entry(req.request_key, '["m","",{"text":"first"}]')
            + segment_entry(req.request_key, '["m","",{"text":"second"}]')
        )
        (tmp_path / "segment-2-1-00").write_bytes(
            segment_entry(req.request_key, '["m","",{"text":"third"}]')
        )
        (tmp_path / req.request_key).write_text('{"response": {"text": "flat"}}', encoding="utf-8")
        assert cc.LLMClient(mode="replay", cache_dir=tmp_path).complete(req).text == "third"

    def test_index_retains_at_most_24_bytes_per_entry(self, tmp_path):
        n = 51_000
        keys = [make_request(str(i)).request_key for i in range(n)]
        with open(tmp_path / "segment-1-1-00", "wb") as fh:
            for i, key in enumerate(keys):
                fh.write(segment_entry(key, f'["m","",{{"text":"answer {i}"}}]'))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = llm_client.RequestCache(tmp_path, writable=False)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained <= 24 * n
        for i in (0, n // 2, n - 1):
            assert cache.get(keys[i]).text == f"answer {i}"
        assert cache.get(make_request("absent").request_key) is None
        cache.close()


class TestRetryBehaviour:
    def make_client(self, session, **kwargs):
        sleeps = []
        client = cc.LLMClient(
            mode="live",
            base_url="http://t/v1",
            session=session,
            sleep=sleeps.append,
            rng=random.Random(0),
            **kwargs,
        )
        return client, sleeps

    def test_transient_500_retried_until_success(self):
        session = FakeSession(
            [
                FakeResponse(500, text="boom"),
                FakeResponse(429, text="slow down"),
                FakeResponse(200, completion_payload("ok")),
            ]
        )
        client, sleeps = self.make_client(session)
        assert client.complete(make_request()).text == "ok"
        assert len(session.calls) == 3
        assert len(sleeps) == 2

    def test_timeout_is_transient(self):
        session = FakeSession(
            [requests.Timeout("deadline"), FakeResponse(200, completion_payload("ok"))]
        )
        client, _ = self.make_client(session)
        assert client.complete(make_request()).text == "ok"

    def test_400_fails_immediately(self):
        session = FakeSession([FakeResponse(400, text="bad request")])
        client, sleeps = self.make_client(session)
        with pytest.raises(TransportError, match="400"):
            client.complete(make_request())
        assert len(session.calls) == 1
        assert sleeps == []

    def test_gives_up_after_max_attempts(self):
        session = FakeSession([FakeResponse(503, text="down")])
        client, sleeps = self.make_client(session, max_attempts=3)
        with pytest.raises(TransportError, match="after 3 attempts"):
            client.complete(make_request())
        assert len(session.calls) == 3
        assert len(sleeps) == 2

    @pytest.mark.parametrize(
        "status, retry_after, slept",
        [(429, "0", 0.0), (503, "2", 2.0), (429, "120", 30.0)],
    )
    def test_retry_after_seconds_replace_backoff(self, status, retry_after, slept):
        session = FakeSession(
            [
                FakeResponse(status, text="wait", headers={"Retry-After": retry_after}),
                FakeResponse(200, completion_payload("ok")),
            ]
        )
        client, sleeps = self.make_client(session)
        assert client.complete(make_request()).text == "ok"
        assert sleeps == [slept]

    def test_unparseable_retry_after_falls_back_to_backoff(self):
        session = FakeSession(
            [
                FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
                FakeResponse(200, completion_payload("ok")),
            ]
        )
        client, sleeps = self.make_client(session)
        assert client.complete(make_request()).text == "ok"
        assert len(sleeps) == 1 and 0.5 <= sleeps[0] < 1.5

    def test_retry_after_on_400_is_not_retried(self):
        session = FakeSession([FakeResponse(400, text="bad", headers={"Retry-After": "0"})])
        client, sleeps = self.make_client(session)
        with pytest.raises(TransportError, match="400"):
            client.complete(make_request())
        assert len(session.calls) == 1
        assert sleeps == []

    def test_malformed_payload_is_not_retried(self):
        session = FakeSession([FakeResponse(200, {"unexpected": True})])
        client, _ = self.make_client(session)
        with pytest.raises(TransportError, match="malformed"):
            client.complete(make_request())

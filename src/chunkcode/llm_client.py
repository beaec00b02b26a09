"""Chat-completion client: prompt rendering, HTTP transport with retry,
a record/replay request cache, and deterministic offline mocks.

Every call is stateless. A request carries the complete prompt; no
conversation state survives between calls, so results are independent of
call order and safe to issue from concurrent workers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re
import threading
import time
import weakref
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

from .codebook import Dimension
from .errors import CacheMissError, ConfigError, TransportError

if TYPE_CHECKING:
    import requests

API_KEY_ENV = "CHUNKCODE_API_KEY"
BASE_URL_ENV = "CHUNKCODE_BASE_URL"
DEFAULT_BASE_URL = "https://api.openai.com/v1"

CACHE_MODES = ("live", "record", "replay", "mock")
# Modes in which a completion can wait on the endpoint.
NETWORK_MODES = ("live", "record")
DEFAULT_MAX_INFLIGHT = 8
RETRY_BASE_S = 1.0
RETRY_CAP_S = 30.0

PROMPT_TEMPLATE = (
    "Explain whether the parameter '{parameter}' is mentioned/directly talked "
    "about in the following text and provide evidence from the text. If it "
    "does, briefly explain how (3-5 sentences with ~2 pieces of evidence); if "
    "it does not match, briefly explain why the paper does not focus on it "
    "(1 sentence). Note that '{parameter}' is defined as '{definition}'."
)


def render_prompt(dim: Dimension, body: str) -> str:
    """Render the coding instruction for one dimension, then the text to code.

    The dimension's display name fills both template slots; the instruction
    comes first and the body follows after a blank line.
    """
    if not body:
        raise ValueError("prompt body must be nonempty")
    instruction = PROMPT_TEMPLATE.replace("{parameter}", dim.name).replace(
        "{definition}", dim.definition
    )
    return f"{instruction}\n\n{body}"


@dataclass(frozen=True)
class PromptRequest:
    """One self-contained completion request.

    ``tag`` distinguishes repeats of an identical prompt (for example the
    same document and dimension across iterations) so each repeat gets its
    own cache entry; leave it empty for plain one-off requests.
    """

    model: str
    prompt_text: str
    tag: str = ""

    @property
    def request_key(self) -> str:
        """Stable hex cache key derived from model, tag, and prompt text.

        A hash over the whole prompt, taken on first read and kept on the
        instance: the client and the engine both read it for every prompt.
        """
        key = self.__dict__.get("_request_key")
        if key is None:
            payload = "\x1f".join((self.model, self.tag, self.prompt_text))
            key = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_request_key", key)
        return key


@dataclass(frozen=True)
class LLMResponse:
    """Verbatim assistant text plus transport metadata."""

    text: str
    provider_meta: Mapping[str, object] = field(default_factory=dict)
    from_cache: bool = False


def retry_delay(
    attempt: int,
    *,
    max_attempts: int = 5,
    rng: random.Random | None = None,
) -> float | None:
    """Backoff delay after a failed attempt (1-based), or None to give up.

    Doubles from ``RETRY_BASE_S`` per attempt, capped at ``RETRY_CAP_S``, with
    multiplicative jitter in [0.5, 1.5). Once ``attempt`` reaches
    ``max_attempts`` the caller should stop retrying.
    """
    if attempt < 1:
        raise ValueError("attempt numbering is 1-based")
    if attempt >= max_attempts:
        return None
    delay = min(RETRY_CAP_S, RETRY_BASE_S * (2 ** (attempt - 1)))
    jitter = (rng.uniform(0.5, 1.5) if rng is not None else random.uniform(0.5, 1.5))
    return delay * jitter


def _retry_after_s(value: str | None) -> float | None:
    """Seconds from a delta-seconds ``Retry-After`` (RFC 9110 10.2.3), capped
    at the backoff cap; None when absent or not delta-seconds (an HTTP-date
    falls back to backoff)."""
    if value is None:
        return None
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_CAP_S)


def _completion(resp: requests.Response, latency: float) -> LLMResponse:
    """The completion a 200 answer carries; a malformed payload is not retried."""
    try:
        data = resp.json()
        text = data["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(
            f"chat completion failed: malformed completion payload: {exc}"
        ) from exc
    if not isinstance(text, str):
        raise TransportError("chat completion failed: completion content is not a string")
    meta = {
        "status": resp.status_code,
        "latency_s": latency,
        "model": data.get("model"),
        "usage": data.get("usage"),
    }
    return LLMResponse(text=text, provider_meta=meta, from_cache=False)


def _read_cache_entry(path: Path) -> LLMResponse | None:
    """The response a flat cache entry holds, or None when there is none.

    Flat entries are one JSON file per request key, as caches held them
    before segments. Only ``response`` is read, so entries recorded with
    their prompt text serve as well as those without. An entry that is
    unreadable, not JSON, or holds no ``response`` object whose ``text`` is
    a string raises OSError or ValueError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except FileNotFoundError:
        return None
    response = entry.get("response") if isinstance(entry, dict) else None
    if not (isinstance(response, dict) and isinstance(response.get("text"), str)):
        raise ValueError("no response object with a string text")
    return LLMResponse(
        text=response["text"],
        provider_meta=response.get("provider_meta", {}),
        from_cache=True,
    )


def _response_from_line(line: bytes) -> LLMResponse:
    """The response a segment line ``<key>\\t<JSON [model, tag, response]>``
    holds; a line of another shape raises ValueError."""
    # Decoded first: given bytes, json.loads detects the encoding every call.
    entry = json.loads(line[65:].decode("utf-8"))
    if not (
        isinstance(entry, list)
        and len(entry) == 3
        and isinstance(entry[0], str)
        and isinstance(entry[1], str)
        and isinstance(entry[2], dict)
        and isinstance(entry[2].get("text"), str)
    ):
        raise ValueError("not a [model, tag, {text, ...}] entry")
    response = entry[2]
    return LLMResponse(
        text=response["text"],
        provider_meta=response.get("provider_meta", {}),
        from_cache=True,
    )


_SEGMENT_NAME = re.compile(r"segment-(\d+)-\d+-[0-9a-f]+")
_FLAT_NAME = re.compile(r"[0-9a-f]{64}")
_LINE_HEAD = re.compile(rb"[0-9a-f]{64}\t")
# Open segment descriptors a cache holds at most, its own segment included.
MAX_OPEN_SEGMENTS = 16
_LOW64 = (1 << 64) - 1


def _close_descriptors(fds: dict[int, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


class RequestCache:
    """Responses stored by request key in append-only segment files.

    Each recording client appends to a segment of its own,
    ``segment-<generation>-<pid>-<random hex>``, created on its first
    ``put``; one line per entry, ``<key>\\t<JSON [model, tag, {"text",
    "provider_meta"}]>\\n``. The generation is one more than the highest in
    the directory when the cache was opened, so a segment sorts after every
    segment its writer could read. Opening lists the directory once and
    indexes every segment, by generation and then name; a later line for a
    key wins. A
    line without its trailing newline (torn by a crash) or without a key
    head is skipped, so it reads as a miss. The index is three arrays sorted
    by key, 20 B per entry: each key's first 8 bytes, where its line starts
    among the segments laid end to end, and the line's length. A read checks
    the whole key, so a key sharing another's prefix reads as a miss rather
    than as the other's response.

    A key not in the index falls back to a flat file named by the key, the
    layout of caches recorded before segments; flat files are never
    written. A writable cache treats a corrupt entry as a miss, so its
    caller fetches it again and the appended line wins. A read-only one
    raises ``CacheMissError`` naming the file (and a segment's line), and
    treats a missing directory as empty, creating nothing.

    ``get`` and ``put`` are safe to call from several threads. The cache
    holds at most ``MAX_OPEN_SEGMENTS`` descriptors, released by ``close``
    or when it is collected.
    """

    def __init__(self, directory: str | Path, *, writable: bool):
        self.directory = Path(directory)
        self.writable = writable
        self._lock = threading.Lock()
        self._paths: list[Path] = []
        self._bases: list[int] = []  # where each segment starts, end to end
        self._end = 0
        self._own: int | None = None  # this cache's segment, once it has one
        self._fds: dict[int, int] = {}  # segment -> descriptor, oldest first
        self._release = weakref.finalize(self, _close_descriptors, self._fds)
        if writable:
            self.directory.mkdir(parents=True, exist_ok=True)
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            names = []
        self._has_flat = any(_FLAT_NAME.fullmatch(name) for name in names)
        segments = sorted(
            (int(m.group(1)), name) for name in names if (m := _SEGMENT_NAME.fullmatch(name))
        )
        self._generation = segments[-1][0] + 1 if segments else 1
        # prefix << 96 | position << 32 | length, in the order lines were
        # written, so that sorting puts a key's later lines after its earlier.
        entries = []
        for _, name in segments:
            path = self.directory / name
            offset = 0
            with open(path, "rb") as fh:
                for line in fh:
                    if line[-1:] == b"\n" and _LINE_HEAD.match(line):
                        position = self._end + offset
                        entries.append(int(line[:16], 16) << 96 | position << 32 | len(line) - 1)
                    offset += len(line)
            self._paths.append(path)
            self._bases.append(self._end)
            self._end += offset
        entries.sort()
        self._prefixes, self._positions, self._lengths = array("Q"), array("Q"), array("I")
        for entry in entries:
            prefix, position, length = entry >> 96, entry >> 32 & _LOW64, entry & 0xFFFF_FFFF
            if self._prefixes and self._prefixes[-1] == prefix:  # a later line for the key
                self._positions[-1], self._lengths[-1] = position, length
            else:
                self._prefixes.append(prefix)
                self._positions.append(position)
                self._lengths.append(length)

    def close(self) -> None:
        """Release the open descriptors; the cache is not used after this."""
        self._release()

    def get(self, key: str) -> LLMResponse | None:
        """The cached response for ``key``, or None on a miss."""
        prefix = int(key[:16], 16)
        line = None
        with self._lock:
            if not self._release.alive:
                raise ValueError("request cache is closed")
            i = bisect_left(self._prefixes, prefix)
            if i < len(self._prefixes) and self._prefixes[i] == prefix:
                position = self._positions[i]
                try:
                    line = self._line_at(position, self._lengths[i])
                except OSError as exc:
                    return self._corrupt(position, exc)
        if line is not None and line[:64] == key.encode("ascii"):
            try:
                return _response_from_line(line)
            except ValueError as exc:
                return self._corrupt(position, exc)
        if not self._has_flat:
            return None
        path = self.directory / key
        try:
            return _read_cache_entry(path)
        except (OSError, ValueError) as exc:
            if self.writable:
                return None
            raise CacheMissError(f"corrupt cache entry {path}: {exc}") from exc

    def put(self, key: str, request: PromptRequest, response: LLMResponse) -> None:
        """Append ``response`` under ``key`` to this cache's segment.

        The prompt is not stored: the key is a hash of it, the model and
        the tag, so a prompt re-rendered from the codebook and the corpus is
        checked by recomputing the key. The line is written by one
        ``os.write`` before this returns, so a crash loses at most it.
        """
        entry = [
            request.model,
            request.tag,
            {"text": response.text, "provider_meta": dict(response.provider_meta)},
        ]
        body = json.dumps(entry, separators=(",", ":"), ensure_ascii=False)
        try:
            line = f"{key}\t{body}\n".encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, whose JSON escape reads back as itself
            body = json.dumps(entry, separators=(",", ":"), ensure_ascii=True)
            line = f"{key}\t{body}\n".encode("ascii")
        with self._lock:
            if not self._release.alive:
                raise ValueError("request cache is closed")
            if self._own is None:
                name = f"segment-{self._generation}-{os.getpid()}-{os.urandom(8).hex()}"
                path = self.directory / name
                flags = os.O_RDWR | os.O_CREAT | os.O_EXCL | os.O_APPEND
                self._fds[len(self._paths)] = os.open(path, flags, 0o644)
                self._own = len(self._paths)
                self._paths.append(path)
                self._bases.append(self._end)
            written = os.write(self._fds[self._own], line)
            position = self._end
            self._end += written
            if written != len(line):
                # The torn line reads as a miss; the next put starts a new segment.
                path, self._own = self._paths[self._own], None
                raise OSError(f"short write to cache segment {path}")
            prefix = int(key[:16], 16)
            i = bisect_left(self._prefixes, prefix)
            if i < len(self._prefixes) and self._prefixes[i] == prefix:
                self._positions[i], self._lengths[i] = position, written - 1
            else:
                self._prefixes.insert(i, prefix)
                self._positions.insert(i, position)
                self._lengths.insert(i, written - 1)

    def _line_at(self, position: int, length: int) -> bytes | None:
        """The line starting at ``position``, without its newline; None when
        the segment has been cut short since it was indexed."""
        segment = bisect_right(self._bases, position) - 1
        fd = self._fds.get(segment)
        if fd is None:
            if len(self._fds) >= MAX_OPEN_SEGMENTS:
                oldest = next(s for s in self._fds if s != self._own)
                os.close(self._fds.pop(oldest))
            fd = self._fds[segment] = os.open(self._paths[segment], os.O_RDONLY)
        line = os.pread(fd, length, position - self._bases[segment])
        return line if len(line) == length else None

    def _corrupt(self, position: int, exc: Exception) -> None:
        """A miss for a writable cache; otherwise raise naming the line."""
        if self.writable:
            return None
        segment = bisect_right(self._bases, position) - 1
        where = path = self._paths[segment]
        try:
            with open(path, "rb") as fh:
                lines_before = fh.read(position - self._bases[segment]).count(b"\n")
            where = f"{path} line {lines_before + 1}"
        except OSError:
            pass
        raise CacheMissError(f"corrupt cache entry {where}: {exc}") from exc


class ScriptedMock:
    """Deterministic responder: a fixed mapping of request keys to text.

    ``default`` answers any request not in the script; without it, unknown
    requests raise so silent test gaps cannot slip through.
    """

    def __init__(self, script: Mapping[str, str] | None = None, default: str | None = None):
        self.script = dict(script or {})
        self.default = default

    def __call__(self, request: PromptRequest) -> str:
        try:
            return self.script[request.request_key]
        except KeyError:
            if self.default is not None:
                return self.default
            raise ConfigError(
                f"scripted mock has no response for request_key {request.request_key}"
            ) from None


class StochasticMock:
    """Seeded responder with a per-cell truth, flipped with probability p.

    The flip decision is a pure function of (seed, request_key), so responses
    are reproducible and independent of call order. ``truth`` may be a bool
    or a callable of the request (for example keyed off ``request.tag``).
    """

    positive_text = "Yes, the parameter is mentioned in the text."
    negative_text = "The paper does not focus on this parameter."

    def __init__(
        self,
        *,
        seed: int,
        flip_probability: float,
        truth: bool | Callable[[PromptRequest], bool] = True,
    ):
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError("flip probability must lie in [0, 1]")
        self.seed = seed
        self.flip_probability = flip_probability
        self.truth = truth

    def __call__(self, request: PromptRequest) -> str:
        base = self.truth(request) if callable(self.truth) else self.truth
        digest = hashlib.sha256(
            f"{self.seed}:{request.request_key}".encode("utf-8")
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        value = base ^ (draw < self.flip_probability)
        return self.positive_text if value else self.negative_text


def _own_session(base_url: str, max_inflight: int) -> requests.Session:
    """A session for a client that posts, with its environment read once.

    The HTTP stack is imported here, not at module level: replay, mock and
    the analysis commands never post, and loading ``requests`` would double
    their start-up.
    """
    import requests
    from requests.adapters import HTTPAdapter

    # urllib3 keeps 10 connections per host by default; a larger
    # bound would open and discard a connection per request.
    session = requests.Session()
    adapter = HTTPAdapter(pool_maxsize=max_inflight)
    session.mount("http://", adapter)
    session.mount("https://", adapter)
    # Read proxies, CA bundle and netrc credentials once. Left to
    # requests, every request rescans the environment and stats the
    # netrc paths: CPU that competes with the requests in flight.
    env = session.merge_environment_settings(base_url, {}, None, None, None)
    session.proxies, session.verify = env["proxies"], env["verify"]
    session.auth = requests.utils.get_netrc_auth(base_url)
    session.trust_env = False
    return session


class LLMClient:
    """Front end for chat completions with four modes.

    live    - always call the endpoint, no cache traffic.
    record  - read-through cache: serve hits, fetch and append misses; a
              corrupt entry is a miss, fetched again and appended.
    replay  - cache only, never written; a miss is an error naming the
              request key, a corrupt entry one naming its file and line.
    mock    - delegate to an offline responder, no cache or network.

    Record and replay keep their responses in a ``RequestCache`` under
    ``cache_dir``; live and mock ignore it. ``complete`` is safe to call
    from several threads. ``max_inflight`` is the number of concurrent
    requests the caller may issue (``run_iterations`` sizes its pool by it);
    the client sizes its own HTTP connection pool to match but does not
    enforce it. ``close`` (or leaving a ``with`` block) releases the
    cache's open files.
    """

    def __init__(
        self,
        *,
        mode: str = "live",
        base_url: str | None = None,
        api_key: str | None = None,
        cache_dir: str | Path | None = None,
        mock: Callable[[PromptRequest], str] | None = None,
        max_attempts: int = 5,
        timeout: float = 60.0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        if mode not in CACHE_MODES:
            raise ConfigError(f"unknown cache mode {mode!r}; expected one of {CACHE_MODES}")
        if mode in ("record", "replay") and cache_dir is None:
            raise ConfigError(f"cache mode {mode!r} requires a cache directory")
        if mode == "mock" and mock is None:
            raise ConfigError("mock mode requires a responder")
        if max_inflight < 1:
            raise ConfigError(f"max_inflight must be >= 1, got {max_inflight}")
        self.mode = mode
        self.base_url = (base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL).rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.mock = mock
        self.max_attempts = max_attempts
        self.timeout = timeout
        self.max_inflight = max_inflight
        if session is None and mode in NETWORK_MODES:
            session = _own_session(self.base_url, max_inflight)
        self._session = session
        self._sleep = sleep
        self._rng = rng
        self._cache = (
            RequestCache(cache_dir, writable=mode == "record")
            if mode in ("record", "replay")
            else None
        )

    def close(self) -> None:
        """Release the request cache's open files."""
        if self._cache is not None:
            self._cache.close()

    def __enter__(self) -> LLMClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def complete(self, request: PromptRequest) -> LLMResponse:
        """Execute one stateless completion per the configured mode."""
        if self.mode == "mock":
            assert self.mock is not None
            return LLMResponse(
                text=self.mock(request),
                provider_meta={"provider": "mock"},
                from_cache=False,
            )
        if self._cache is not None:
            key = request.request_key
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            if self.mode == "replay":
                raise CacheMissError(f"no cached response for request_key {key}")
        response = self._post(request)
        if self.mode == "record":
            self._cache.put(key, request, response)
        return response

    # -- transport ---------------------------------------------------------

    def _post(self, request: PromptRequest) -> LLMResponse:
        import requests  # for RequestException; loaded already with an own session

        url = f"{self.base_url}/chat/completions"
        body = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt_text}],
        }
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        for attempt in itertools.count(1):
            retry_after = None  # per attempt, never on self: threads share the client
            start = time.monotonic()
            try:
                resp = self._session.post(url, json=body, headers=headers, timeout=self.timeout)
            except requests.RequestException as exc:
                failure = f"{type(exc).__name__}: {exc}"
            else:
                if resp.status_code == 200:
                    return _completion(resp, time.monotonic() - start)
                failure = f"HTTP {resp.status_code}: {resp.text[:200]}"
                if resp.status_code in (429, 503):
                    retry_after = _retry_after_s(resp.headers.get("Retry-After"))
                elif resp.status_code < 500:  # the request itself is at fault: a retry repeats it
                    raise TransportError(f"chat completion failed: {failure}")
            delay = retry_delay(attempt, max_attempts=self.max_attempts, rng=self._rng)
            if delay is None:
                raise TransportError(
                    f"chat completion failed after {attempt} attempts: {failure}"
                )
            self._sleep(delay if retry_after is None else retry_after)

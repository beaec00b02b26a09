"""Chat-completion client: prompt rendering, HTTP transport with retry,
a record/replay request cache, and deterministic offline mocks.

Every call is stateless. A request carries the complete prompt; no
conversation state survives between calls, so results are independent of
call order and safe to issue from concurrent workers.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import random
import re
import sys
import threading
import time
import weakref
import zlib
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

from .codebook import Dimension
from .errors import CacheMissError, ConfigError, TransportError
from .frozen import Frozen

API_KEY_ENV = "CHUNKCODE_API_KEY"
BASE_URL_ENV = "CHUNKCODE_BASE_URL"
DEFAULT_BASE_URL = "https://api.openai.com/v1"

CACHE_MODES = ("live", "record", "replay", "mock")
# Modes in which a completion can wait on the endpoint.
NETWORK_MODES = ("live", "record")
DEFAULT_MAX_INFLIGHT = 64
RETRY_BASE_S = 1.0
RETRY_CAP_S = 30.0
# Requests per second each 200 adds to the client's paced rate.
PACE_STEP_RPS = 0.5

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


class PromptRequest(Frozen):
    """One self-contained completion request.

    ``tag`` distinguishes repeats of an identical prompt (for example the
    same document and dimension across iterations) so each repeat gets its
    own cache entry; leave it empty for plain one-off requests. Not a tuple:
    it keeps its request key beside its three fields.
    """

    __slots__ = ("model", "prompt_text", "tag", "_request_key")
    _fields = ("model", "prompt_text", "tag")
    model: str
    prompt_text: str
    tag: str

    def __init__(self, model: str, prompt_text: str, tag: str = "") -> None:
        # Set directly, not through _set: a run builds one per prompt, and
        # the loop in _set would add about a sixth to this constructor.
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "prompt_text", prompt_text)
        object.__setattr__(self, "tag", tag)
        payload = "\x1f".join((model, tag, prompt_text))
        object.__setattr__(self, "_request_key", hashlib.sha256(payload.encode("utf-8")).hexdigest())

    @property
    def request_key(self) -> str:
        """Stable hex cache key derived from model, tag, and prompt text.

        A hash over the whole prompt, taken once in ``__init__``: the client
        and the engine both read it for every prompt. Reading it only returns
        the stored key, so a timing of this property leaves the hash out; the
        hash counts toward whoever builds the request.
        """
        return self._request_key


# A NamedTuple, as engine.PromptRecord: a replay builds one per prompt. The
# default metadata is one shared mapping, so it is a read-only view.
class LLMResponse(NamedTuple):
    """Verbatim assistant text plus transport metadata."""

    text: str
    provider_meta: Mapping[str, object] = MappingProxyType({})
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


def _completion(resp: _Response, latency: float) -> LLMResponse:
    """The completion a 200 answer carries. A malformed payload, an answer cut
    short or withheld, and an empty answer are refused and not retried."""
    try:
        data = json.loads(resp.content)
        choice = data["choices"][0]
        text = choice["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise TransportError(
            f"chat completion failed: malformed completion payload: {exc}"
        ) from exc
    if not isinstance(text, str):
        raise TransportError("chat completion failed: completion content is not a string")
    finish = choice.get("finish_reason")
    if finish in ("length", "content_filter"):
        raise TransportError(f"chat completion failed: unfinished answer (finish_reason {finish!r})")
    if not text.strip():
        raise TransportError(f"chat completion failed: empty answer (finish_reason {finish!r})")
    meta = {
        "status": resp.status,
        "latency_s": latency,
        "model": data.get("model"),
        "usage": data.get("usage"),
    }
    return LLMResponse(text=text, provider_meta=meta, from_cache=False)


_raw_decode = json.JSONDecoder().raw_decode


def decode_json(text: str):
    """``json.loads(text)``, without its set-up when one value fills the text.

    Any other text (whitespace around the value, data after it, invalid
    JSON) goes to ``json.loads``, so what is accepted, what is refused and
    every error message are its own.
    """
    try:
        value, end = _raw_decode(text)
    except json.JSONDecodeError:
        return json.loads(text)
    if end != len(text):
        return json.loads(text)
    return value


def _response_from_line(line: bytes) -> LLMResponse:
    """The response a segment line ``<key>\\t<JSON [model, tag, response]>``
    holds; a line of another shape raises ValueError."""
    # Decoded first: given bytes, json.loads detects the encoding every call.
    entry = decode_json(line[65:].decode("utf-8"))
    if not (
        isinstance(entry, list)
        and len(entry) == 3
        and isinstance(entry[0], str)
        and isinstance(entry[1], str)
    ):
        raise ValueError("not a [model, tag, response] entry")
    response = entry[2]
    if not (isinstance(response, dict) and isinstance(response.get("text"), str)):
        raise ValueError("no response object with a string text")
    return LLMResponse(response["text"], response.get("provider_meta", {}), True)


_SEGMENT_NAME = re.compile(r"segment-(\d+)-\d+-[0-9a-f]+")
_FLAT_NAME = re.compile(r"[0-9a-f]{64}")
# A high surrogate directly followed by a low one: as two \uXXXX escapes in a
# JSON string it would decode as the one character the pair encodes in UTF-16.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")
# Open segment descriptors a cache holds at most, its own segment included.
MAX_OPEN_SEGMENTS = 16
_LOW64 = (1 << 64) - 1
# The saved index, its format number and the type codes of its three arrays.
INDEX_NAME = "index"
_INDEX_FORMAT = 1
_INDEX_TYPES = ("Q", "Q", "I")


def _close_descriptors(fds: dict[int, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()


def _crc32(arrays: Iterable[array]) -> int:
    """The CRC-32 of the arrays' bytes laid end to end."""
    crc = 0
    for a in arrays:
        crc = zlib.crc32(a, crc)
    return crc


def _segment_names(names: Iterable[str]) -> list[str]:
    """The segment names among ``names``, by generation and then name: the
    order in which they are indexed."""
    segments = sorted((int(m.group(1)), name) for name in names if (m := _SEGMENT_NAME.fullmatch(name)))
    return [name for _, name in segments]


def _scan(directory: Path, names: list[str]) -> tuple[list[int], tuple[array, array, array]]:
    """Index the segments ``names``, in this order, line by line: each
    segment's size, and the index arrays (key prefixes in order, each with
    its line at the highest position, and that line's position and length)."""
    # prefix << 96 | position << 32 | length, in the order lines were
    # written, so that sorting puts a key's later lines after its earlier.
    entries = []
    sizes = []
    end = 0
    for name in names:
        offset = 0
        with open(directory / name, "rb") as fh:
            for line in fh:
                # The head is 64 lowercase hex digits and a tab.
                if (
                    line[-1:] == b"\n"
                    and line[64:65] == b"\t"
                    and not line[:64].strip(b"0123456789abcdef")
                ):
                    position = end + offset
                    entries.append(int(line[:16], 16) << 96 | position << 32 | len(line) - 1)
                offset += len(line)
        sizes.append(offset)
        end += offset
    entries.sort()
    # Sorted, a key's lines run in written order: keep each key's last.
    latest = [entry for entry, after in zip(entries, entries[1:]) if entry >> 96 != after >> 96]
    latest += entries[-1:]
    return sizes, (
        array("Q", (entry >> 96 for entry in latest)),
        array("Q", (entry >> 32 & _LOW64 for entry in latest)),
        array("I", (entry & 0xFFFF_FFFF for entry in latest)),
    )


def _load_index(directory: Path, names: list[str]) -> tuple[list[int], tuple[array, array, array]] | None:
    """What ``_scan`` gives for the segments ``names``, read from ``index``
    when it describes them at their present sizes; None when there is none
    or it does not hold."""
    arrays = [array(code) for code in _INDEX_TYPES]
    itemsizes = [a.itemsize for a in arrays]
    try:
        sizes = [os.stat(directory / name).st_size for name in names]
        with open(directory / INDEX_NAME, "rb") as fh:
            header = json.loads(fh.readline())
            count = header.get("entries") if isinstance(header, dict) else None
            # Checked before the body is read: a foreign header cannot ask for a huge read.
            if not (
                type(count) is int
                and header.get("format") == _INDEX_FORMAT
                and header.get("byteorder") == sys.byteorder
                and header.get("itemsizes") == itemsizes
                and header.get("segments") == [[name, size] for name, size in zip(names, sizes)]
                and os.fstat(fh.fileno()).st_size - fh.tell() == count * sum(itemsizes)
            ):
                return None
            for a in arrays:
                a.fromfile(fh, count)
    except (OSError, ValueError, EOFError, RecursionError):  # a foreign file: deep JSON, short body
        return None
    if header.get("crc32") != _crc32(arrays):
        return None
    return sizes, tuple(arrays)


def _save_index(directory: Path) -> None:
    """Scan the segments in ``directory`` as they are now and write that
    index to ``index`` through a temp file; a failed listing, scan or write
    leaves neither."""
    temp = directory / f"{INDEX_NAME}.{os.getpid()}-{os.urandom(8).hex()}"
    try:
        names = _segment_names(os.listdir(directory))
        sizes, arrays = _scan(directory, names)
        header = {
            "format": _INDEX_FORMAT,
            "byteorder": sys.byteorder,
            "itemsizes": [a.itemsize for a in arrays],
            "segments": [[name, size] for name, size in zip(names, sizes)],
            "entries": len(arrays[0]),
            "crc32": _crc32(arrays),
        }
        with open(temp, "xb") as fh:
            fh.write(json.dumps(header).encode("ascii") + b"\n")
            for a in arrays:
                a.tofile(fh)
        os.replace(temp, directory / INDEX_NAME)
    except OSError:
        with contextlib.suppress(OSError):
            temp.unlink()


class RequestCache:
    """Responses stored by request key in append-only segment files.

    Each recording client appends to a segment of its own,
    ``segment-<generation>-<pid>-<random hex>``, created on its first
    ``put``; one line per entry, ``<key>\\t<JSON [model, tag, {"text",
    "provider_meta"}]>\\n``. The generation is one more than the highest in
    the directory when the cache was opened, so a segment sorts after every
    segment its writer could read. Opening lists the directory once and
    indexes every segment, by generation and then name; a later line for a
    key wins. A line without its trailing newline (torn by a crash) or
    without a key head is skipped, so it reads as a miss. The open builds the
    index, three arrays sorted by key, 20 B per entry: each key's first 8
    bytes, where its line starts among the segments laid end to end, and the
    line's length. This cache's puts go into a dict instead (about 120 B per
    entry), read first, so a put's cost does not grow with the cache. A read
    checks the whole key, so a key sharing another's prefix reads as a miss
    rather than as the other's response.

    ``close`` on a cache that appended, or on a writable one whose open
    found segments but no index describing them, scans the directory again
    and saves that index to ``index``: a JSON header line naming each
    segment and its size, then the three arrays. So whichever of several
    recording caches closes last indexes every segment, and a rerun that
    appends nothing restores an index a killed close never saved. The next
    open loads it in place of the scan when it names exactly the segments in
    the directory at their present sizes and its byte order, item sizes,
    entry count and checksum hold; any other index is ignored.

    A key not in the index is a miss. A writable cache treats a corrupt
    line as a miss, so its caller fetches it again and the appended line
    wins. A read-only one raises ``CacheMissError`` naming the segment and
    line, and treats a missing directory as empty, creating nothing.
    Caches recorded before segments held one JSON file per key; an open
    that finds such flat entries raises ``ConfigError`` before it writes
    anything, naming the conversion script.

    ``get`` and ``put`` are safe to call from several threads. The cache
    holds at most ``MAX_OPEN_SEGMENTS`` descriptors, released by ``close``
    or when it is collected.
    """

    def __init__(self, directory: str | Path, *, writable: bool):
        self.directory = Path(directory)
        self.writable = writable
        self._lock = threading.Lock()
        self._own: int | None = None  # this cache's segment, once it has one
        self._fds: dict[int, int] = {}  # segment -> descriptor, oldest first
        self._release = weakref.finalize(self, _close_descriptors, self._fds)
        if writable:
            self.directory.mkdir(parents=True, exist_ok=True)
        try:
            names = os.listdir(self.directory)
        except FileNotFoundError:
            names = []
        flat = sum(1 for name in names if _FLAT_NAME.fullmatch(name))
        if flat:
            raise ConfigError(
                f"request cache {self.directory} holds {flat} flat entries (one file per key),"
                " a layout no longer read; convert them once with:"
                f" python scripts/convert_flat_cache.py --cache-dir {self.directory}"
            )
        in_order = _segment_names(names)
        self._generation = int(_SEGMENT_NAME.fullmatch(in_order[-1]).group(1)) + 1 if in_order else 1
        loaded = _load_index(self.directory, in_order)
        sizes, (self._prefixes, self._positions, self._lengths) = loaded or _scan(self.directory, in_order)
        self._unindexed = writable and bool(in_order) and loaded is None
        self._paths = [self.directory / name for name in in_order]
        self._bases = [0, *itertools.accumulate(sizes)]  # where each segment starts, end to end
        self._end = self._bases.pop()
        self._puts: dict[int, int] = {}  # prefix -> position << 32 | length

    def close(self) -> None:
        """Save the index if this cache appended, or if it is writable and
        its open found segments but no index describing them; then release
        the open descriptors. The cache is not used after this."""
        with self._lock:
            if self._release.alive and (self._puts or self._unindexed):
                _save_index(self.directory)
            self._release()

    def get(self, key: str) -> LLMResponse | None:
        """The cached response for ``key``, or None on a miss."""
        prefix = int(key[:16], 16)
        line = None
        with self._lock:
            if not self._release.alive:
                raise ValueError("request cache is closed")
            found = self._puts.get(prefix)
            if found is None:
                i = bisect_left(self._prefixes, prefix)
                if i < len(self._prefixes) and self._prefixes[i] == prefix:
                    found = self._positions[i] << 32 | self._lengths[i]
            if found is not None:
                position = found >> 32
                try:
                    line = self._line_at(position, found & 0xFFFF_FFFF)
                except OSError as exc:
                    return self._corrupt(position, exc)
        if line is not None and line[:64] == key.encode("ascii"):
            try:
                return _response_from_line(line)
            except ValueError as exc:
                return self._corrupt(position, exc)
        return None

    def put(self, key: str, request: PromptRequest, response: LLMResponse) -> None:
        """Append ``response`` under ``key`` to this cache's segment.

        The prompt is not stored: the key is a hash of it, the model and
        the tag, so a prompt re-rendered from the codebook and the corpus is
        checked by recomputing the key. The line is UTF-8 but for a lone
        surrogate, which only a JSON string holds, as its ``\\uXXXX`` escape
        that reads back as itself. A high surrogate directly followed by a
        low one would read back as one character, so it raises ValueError
        naming its position in the entry's JSON, and nothing is written. The
        line is written by one ``os.write`` before this returns, so a crash
        loses at most it.
        """
        entry = [
            request.model,
            request.tag,
            {"text": response.text, "provider_meta": dict(response.provider_meta)},
        ]
        body = json.dumps(entry, separators=(",", ":"), ensure_ascii=False)
        line = f"{key}\t{body}\n"
        try:
            line = line.encode("utf-8")
        except UnicodeEncodeError:  # a surrogate
            pair = _SURROGATE_PAIR.search(body)
            if pair is not None:
                raise ValueError(
                    f"cache entry for request_key {key} holds a high surrogate followed by a low"
                    f" one at position {pair.start()} of its JSON; it would read back as one character"
                ) from None
            line = line.encode("utf-8", "backslashreplace")
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
            self._puts[int(key[:16], 16)] = position << 32 | written - 1

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


class ProtocolError(OSError):
    """An answer that is not HTTP/1.x, is cut short or has too large a head;
    the message names which."""


class RemoteDisconnected(ConnectionResetError):
    """The connection closed before the first byte of an answer."""


class _Response(NamedTuple):
    """An HTTP answer, as ``_Transport.post`` returns it: ``headers`` maps
    each lower-cased field name to the first value it came with."""

    status: int
    headers: dict[str, str]
    content: bytes


# The status line and header fields of an answer take at most this many bytes.
MAX_HEAD_BYTES = 65536
# A receive's buffer: each post in flight has one while it waits for its answer.
_RECV_BYTES = 8192


class _Reader:
    """Parses one answer from a socket, starting with bytes already received.

    The bytes received and not yet taken are kept in a ``bytearray``, which
    grows in place and drops taken bytes from its front without moving the
    rest: a body of n bytes costs O(n) copies however many receives it spans.
    """

    __slots__ = ("sock", "buf")

    def __init__(self, sock, buf: bytes):
        self.sock = sock
        self.buf = bytearray(buf)

    def fill(self) -> bool:
        """Receive more bytes; False once the connection has closed."""
        data = self.sock.recv(_RECV_BYTES)
        self.buf += data
        return bool(data)

    def until(self, mark: bytes, what: str) -> bytes:
        """The bytes before the next ``mark``, at most ``MAX_HEAD_BYTES``,
        taken with the mark."""
        limit = MAX_HEAD_BYTES + len(mark)
        end = self.buf.find(mark, 0, limit)
        while end < 0:
            if len(self.buf) >= limit:
                raise ProtocolError(f"{what} over {MAX_HEAD_BYTES} bytes")
            if not self.fill():
                raise ProtocolError(f"truncated {what}: the connection closed")
            end = self.buf.find(mark, 0, limit)
        taken = bytes(self.buf[:end])
        del self.buf[: end + len(mark)]
        return taken

    def take(self, size: int, what: str) -> bytes:
        """The next ``size`` bytes."""
        while len(self.buf) < size:
            if not self.fill():
                raise ProtocolError(f"truncated {what}: the connection closed after {len(self.buf)} of {size} bytes")
        taken = bytes(self.buf[:size])
        del self.buf[:size]
        return taken

    def head(self) -> tuple[str, int, str, dict[str, str]]:
        """The version, status, reason and header fields of the next head."""
        lines = self.until(b"\r\n\r\n", "answer head").decode("latin-1").split("\r\n")
        version, _, rest = lines[0].partition(" ")
        code, _, reason = rest.partition(" ")
        if not (version.startswith("HTTP/1.") and code.isascii() and code.isdigit() and 100 <= int(code) <= 999):
            raise ProtocolError(f"not an HTTP/1.x status line: {lines[0][:80]!r}")
        headers = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon:
                raise ProtocolError(f"not a header field: {line[:80]!r}")
            headers.setdefault(name.strip().lower(), value.strip())
        return version, int(code), reason, headers

    def chunked(self) -> bytes:
        """A body in chunked transfer coding, its trailer fields dropped."""
        chunks = []
        while True:
            line = self.until(b"\r\n", "chunk size line")
            size = line.partition(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(f"not a chunk size line: {line[:80]!r}")
            size = int(size, 16)
            if not size:
                break
            chunk = self.take(size + 2, "chunked body")
            if chunk[-2:] != b"\r\n":
                raise ProtocolError("chunk data not followed by CRLF")
            chunks.append(chunk[:-2])
        while self.until(b"\r\n", "trailer"):
            pass
        return b"".join(chunks)


def _send(sock, request: bytes) -> bytes:
    """Send ``request`` on ``sock`` and return the first bytes of the answer."""
    sock.sendall(request)
    data = sock.recv(_RECV_BYTES)
    if not data:
        raise RemoteDisconnected("Remote end closed connection without response")
    return data


def _read_answer(sock, data: bytes) -> tuple[_Response, bool]:
    """The answer whose first bytes are ``data``, read from ``sock``, and
    whether ``sock`` can carry another post.

    Interim (1xx) answers are skipped. The body is framed by chunked
    transfer coding, else by ``Content-Length``, else by the connection's
    close; 204 and 304 answers have none. The connection is kept only after
    an HTTP/1.1 answer without ``Connection: close`` that left no bytes over.
    """
    reader = _Reader(sock, data)
    version, status, _, headers = reader.head()
    while status < 200:
        version, status, _, headers = reader.head()
    coding = headers.get("transfer-encoding")
    length = headers.get("content-length")
    keep = version == "HTTP/1.1" and "close" not in headers.get("connection", "").lower()
    if status in (204, 304):
        content = b""
    elif coding is not None and coding.lower().endswith("chunked"):
        content = reader.chunked()
    elif coding is None and length is not None:
        if not (length.isascii() and length.isdigit()):
            raise ProtocolError(f"Content-Length {length[:40]!r} is not a byte count")
        content = reader.take(int(length), "body")
    else:
        while reader.fill():
            pass
        content, keep = bytes(reader.buf), False
        reader.buf.clear()
    return _Response(status, headers, content), keep and not reader.buf


class _Transport:
    """Posts JSON bodies, serialised by the caller, to one endpoint over
    keep-alive HTTP/1.1 connections, one per post in flight.

    The endpoint and the environment are read once, here. A proxy comes from
    ``HTTP_PROXY`` or ``HTTPS_PROXY`` unless ``NO_PROXY`` covers the host:
    HTTPS tunnels through it with CONNECT, plain HTTP sends it the absolute
    URI, and userinfo in its URL becomes ``Proxy-Authorization``. HTTPS trusts
    the CA bundle that ``REQUESTS_CA_BUNDLE`` or ``CURL_CA_BUNDLE`` names,
    else the system store (``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` apply), and
    offers ALPN ``http/1.1``. ``~/.netrc`` is not read: its Basic credentials
    would replace the API key's Bearer.

    The request head is built here as bytes, with the fields, order and
    values ``http.client`` sends. ``Host``, a plain proxy's absolute URI and
    CONNECT carry one authority: the host lower-cased, ASCII or else
    IDNA-encoded, an IPv6 literal bracketed, and the port unless it is the
    scheme's default (CONNECT always names it). A post adds
    ``Content-Length`` and the body and sends them in one ``sendall``, then
    ``_read_answer`` reads the answer from the socket. Every failure raises
    ``OSError``: a ``ProtocolError`` names an answer that is not HTTP/1.x,
    is cut short or has a head over ``MAX_HEAD_BYTES``.

    A post takes an idle connection, or opens one, and gives it back after
    when the answer allows, so the transport holds no more connections than
    it once had posts in flight. When a reused connection fails before the
    answer begins (the server closed it while idle), the post is sent again
    at once on a new one; any other failure closes the connection and
    propagates. The modules load only when a transport is built, and
    ``urllib.request`` only when a proxy variable is set: replay, mock and
    the analysis commands never post. Safe to call from several threads.
    """

    def __init__(self, base_url: str, api_key: str, timeout: float):
        bad = next((i for i, ch in enumerate(api_key) if not "!" <= ch <= "~"), None)
        if bad is not None:  # a header cannot carry it, and an error must not quote it
            raise ConfigError(
                f"the API key (api_key= or {API_KEY_ENV}) has a character that is not"
                f" visible ASCII at position {bad + 1}"
            )
        import urllib.parse

        parts = urllib.parse.urlsplit(base_url)
        # Every post would drop it without a word, the API key being the
        # credential. Refused first: no error quotes it.
        if "@" in parts.netloc:
            shown = base_url.replace(parts.netloc, "***@" + parts.netloc.rpartition("@")[2], 1)
            raise ConfigError(
                f"base URL {shown!r} has userinfo before its host; give the API key as api_key="
                f" or {API_KEY_ENV}"
            )
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"base URL {base_url!r} is not an http:// or https:// URL")
        # A query or a fragment would stand before the /chat/completions
        # suffix, and every post fail as a 4xx. A request line cannot carry a
        # space, a control character or a non-ASCII path character: every post
        # would fail, and only after a transient error's backoff.
        path_start = len(f"{parts.scheme}://{parts.netloc}")
        for i, ch in enumerate(base_url):
            if ch in "?#":
                raise ConfigError(f"base URL {base_url!r} has a query or a fragment at position {i + 1}")
            if ch <= " " or ch == "\x7f" or (i >= path_start and not ch.isascii()):
                raise ConfigError(
                    f"base URL {base_url!r} has a space, a control character or a non-ASCII path"
                    f" character at position {i + 1}"
                )
        path = f"{base_url[path_start:]}/chat/completions".encode("ascii")
        default_port = 443 if parts.scheme == "https" else 80
        try:
            host, port = parts.hostname, parts.port or default_port
        except ValueError as exc:  # not a number in 0-65535
            raise ConfigError(f"base URL {base_url!r} has a bad port: {exc}") from exc
        try:  # the authority that Host, a plain proxy's target and CONNECT carry
            authority = host.encode("ascii" if host.isascii() else "idna")
        except UnicodeError as exc:
            raise ConfigError(f"base URL {base_url!r} cannot be sent: {exc}") from exc
        if ":" in host:  # an IPv6 literal
            authority = b"[%b]" % authority
        host_port = b"%b:%d" % (authority, port)
        if port != default_port:
            authority = host_port
        fields = {"Content-Type": "application/json", "User-Agent": "chunkcode"}
        self._tunnel = None
        self._address = (host, port)
        if any(name[-6:].lower() == "_proxy" for name in os.environ):
            import urllib.request

            proxies = urllib.request.getproxies_environment()
            proxy = proxies.get(parts.scheme)
            if proxy and not urllib.request.proxy_bypass_environment(parts.netloc, proxies):
                import base64

                via = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                if via.scheme != "http" or not via.hostname:
                    raise ConfigError(f"proxy {proxy!r} is not an http:// URL")
                auth = {}
                if via.username is not None:
                    userinfo = f"{via.username}:{via.password or ''}"
                    credentials = base64.b64encode(urllib.parse.unquote(userinfo).encode("utf-8"))
                    auth["Proxy-Authorization"] = "Basic " + credentials.decode("ascii")
                if parts.scheme == "https":
                    tunnel = "".join(f"{name}: {value}\r\n" for name, value in auth.items()).encode("ascii")
                    self._tunnel = b"CONNECT %b HTTP/1.0\r\n%b\r\n" % (host_port, tunnel)
                else:  # a plain-HTTP proxy is sent the absolute URI
                    path = b"http://%b%b" % (authority, path)
                    fields.update(auth)
                try:
                    self._address = (via.hostname, via.port or 80)
                except ValueError as exc:
                    raise ConfigError(f"proxy {proxy!r} has a bad port: {exc}") from exc
        if api_key:
            fields["Authorization"] = f"Bearer {api_key}"
        self._head = b"POST %b HTTP/1.1\r\nHost: %b\r\nAccept-Encoding: identity\r\nContent-Length: " % (path, authority)
        self._tail = "".join(f"\r\n{name}: {value}" for name, value in fields.items()).encode("latin-1") + b"\r\n\r\n"
        self._tls = None
        if parts.scheme == "https":
            import ssl

            ca = os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE")
            where = {"capath": ca} if ca and os.path.isdir(ca) else {"cafile": ca}
            self._tls = ssl.create_default_context(**where)
            self._tls.set_alpn_protocols(["http/1.1"])
        self._server_name = host
        self._timeout = timeout
        self._lock = threading.Lock()
        self._idle: list = []  # sockets, each ready for a post
        self._closed = False

    def _connect(self):
        """A new connection to the endpoint, tunnelled through the proxy when
        there is one."""
        import socket

        sock = socket.create_connection(self._address, self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel is not None:
                sock.sendall(self._tunnel)
                _, status, reason, _ = _Reader(sock, b"").head()
                if status != 200:
                    raise OSError(f"Tunnel connection failed: {status} {reason.strip()}")
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._server_name)
        except BaseException:
            sock.close()
            raise
        return sock

    def post(self, body: bytes) -> _Response:
        """POST ``body`` to the endpoint. Failures raise ``OSError``."""
        request = b"%b%d%b%b" % (self._head, len(body), self._tail, body)
        with self._lock:
            if self._closed:
                raise ValueError("HTTP transport is closed")
            sock = self._idle.pop() if self._idle else None
        reused = sock is not None
        try:
            if sock is None:
                sock = self._connect()
            try:
                data = _send(sock, request)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected among them
                if not reused:
                    raise
                sock.close()
                sock = self._connect()
                data = _send(sock, request)
            response, keep = _read_answer(sock, data)
        except BaseException:
            if sock is not None:
                sock.close()
            raise
        with self._lock:
            if keep and not self._closed:
                self._idle.append(sock)
                sock = None
        if sock is not None:
            sock.close()
        return response

    def close(self) -> None:
        """Close every connection; one in flight closes when its post ends."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()


class _Pacer:
    """Meters the client's first burst, then spaces its posts once the
    endpoint has answered one 429.

    One pacer serves every worker of a client. Each send takes a ticket
    (the cut epoch, its number among the sends, its send time), once paced
    after waiting for its slot, ``interval`` after the one before.

    Until the first 429 the interval is 0, and a send waits while
    ``window`` posts are out, as TCP's slow start does. The window starts at
    half of ``max_inflight`` (at least 1) and each 200 widens it by one; any
    other answer, and a post that failed without one, only frees its slot.
    A post holds a slot iff its number is at or below the last send taken
    inside the window. The window is dropped, and every send waiting for it
    woken, once it reaches ``max_inflight`` or the pacer cuts; with
    ``max_inflight`` 1 there is none. From then on a ticket costs a lock
    and a clock read, and an unpaced 200 nothing.

    A 429 of a post sent in the current epoch cuts: the interval becomes
    ``max(2 * interval, 2 / r)``, capped at ``RETRY_CAP_S``, where ``r`` is
    the sends numbered from that post on (itself, those sent during its
    round trip and those still asleep until a later slot) over its round
    trip's time, and a new epoch starts. So the rate halves from what the
    client was sending, and a 429 of a post sent before the last cut cuts no
    further. A cut also re-spaces the sends still asleep until their slots:
    the next free slot is at most one new interval away, and each such send
    takes a new slot when it wakes, keeping its number. Without that, a cut would slow only
    the sends after every slot already handed out, up to one per worker.
    Each 200 raises the rate by ``PACE_STEP_RPS``; any other answer leaves
    it alone.
    """

    def __init__(self, clock: Callable[[], float], sleep: Callable[[float], None], max_inflight: int = 1):
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._opened = threading.Condition(self._lock)  # a slot freed, or the window dropped
        self._interval = 0.0
        self._next = 0.0  # the next free slot, once paced
        self._sent = 0
        self._epoch = 0
        self._max_inflight = max_inflight
        start = max(1, max_inflight // 2)
        self._window = start if start < max_inflight else None  # None once dropped
        self._out = 0  # posts holding a slot
        self._windowed = 0  # the number of the last send taken inside the window

    def wait(self) -> tuple[int, int, float]:
        """Wait for the next send's slot and return its ticket."""
        with self._lock:
            while self._window is not None and self._out >= self._window:
                self._opened.wait()
            now = self._clock()
            self._sent += 1
            if self._window is not None:
                self._out += 1
                self._windowed = self._sent
            ticket = self._book(self._sent, now)
        while ticket[2] > now:
            self._sleep(ticket[2] - now)
            if ticket[0] == self._epoch:  # read unlocked: no cut while it slept
                break
            with self._lock:
                now = self._clock()
                ticket = self._book(ticket[1], now)
        return ticket

    def _book(self, number: int, now: float) -> tuple[int, int, float]:
        """The ticket of send ``number``: the next free slot, at ``now`` or
        later. The lock is held."""
        at = max(now, self._next)
        self._next = at + self._interval
        return (self._epoch, number, at)

    def answered(self, ticket: tuple[int, int, float], status: int | None) -> None:
        """Free the slot of the post holding ``ticket``, and pace by the
        status it was answered with: None when it failed without an answer."""
        epoch, number, sent_at = ticket
        if number <= self._windowed:  # read unlocked: it grows only while the window is open
            with self._lock:
                if self._window is not None:
                    self._out -= 1
                    if status == 200:
                        self._window += 1
                    if self._window >= self._max_inflight:
                        self._drop()
                    else:
                        self._opened.notify(2 if status == 200 else 1)
        if status == 200:
            if self._interval:  # read unlocked: unpaced, a 200 costs nothing
                with self._lock:
                    self._interval = 1 / (1 / self._interval + PACE_STEP_RPS)
        elif status == 429:
            with self._lock:
                if epoch == self._epoch:
                    now = self._clock()
                    measured = 2 * (now - sent_at) / (self._sent - number + 1)
                    self._interval = min(RETRY_CAP_S, max(2 * self._interval, measured))
                    self._next = min(self._next, now + self._interval)
                    self._epoch += 1
                    self._drop()

    def _drop(self) -> None:
        """Drop the window and wake every send waiting for it; the lock is held."""
        self._window = None
        self._opened.notify_all()


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
    from several threads. ``max_inflight`` is the number of prompts the
    client can have in flight: the caller's value for live and record, 1 for
    replay and mock, which wait on no endpoint. Until the endpoint first
    answers 429 the client lets half of it out, and one more for each 200.
    Only live and record clients read ``base_url`` and ``api_key`` (else
    ``CHUNKCODE_BASE_URL`` and ``CHUNKCODE_API_KEY``) and build, own and post
    through one ``_Transport``, metered and paced by one ``_Pacer``.
    ``close`` (or leaving a ``with`` block) closes its connections and
    releases the cache's open files.
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
        self.mock = mock
        self.max_attempts = max_attempts
        self.max_inflight = max_inflight if mode in NETWORK_MODES else 1
        self._transport = None
        if mode in NETWORK_MODES:
            self._transport = _Transport(
                (base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL).rstrip("/"),
                api_key if api_key is not None else os.environ.get(API_KEY_ENV, ""),
                timeout,
            )
            self._pacer = _Pacer(time.monotonic, sleep, max_inflight)
        self._sleep = sleep
        self._rng = rng
        self._cache = (
            RequestCache(cache_dir, writable=mode == "record")
            if mode in ("record", "replay")
            else None
        )

    def close(self) -> None:
        """Close the transport's connections and release the request cache's
        open files."""
        if self._transport is not None:
            self._transport.close()
        if self._cache is not None:
            self._cache.close()

    def __enter__(self) -> LLMClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def complete(self, request: PromptRequest) -> LLMResponse:
        """Execute one stateless completion per the configured mode."""
        if self.mode == "mock":
            return LLMResponse(self.mock(request), {"provider": "mock"})
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
        message = {"role": "user", "content": request.prompt_text}
        body = json.dumps({"model": request.model, "messages": [message]}, allow_nan=False).encode("utf-8")
        for attempt in itertools.count(1):
            retry_after = None  # per attempt, never on self: threads share the client
            status = None  # until answered: a transport error or any exception frees the slot too
            ticket = self._pacer.wait()
            start = time.monotonic()
            try:
                resp = self._transport.post(body)
                status = resp.status
            except OSError as exc:
                failure = f"{type(exc).__name__}: {exc}"
            finally:
                self._pacer.answered(ticket, status)
            if status == 200:
                return _completion(resp, time.monotonic() - start)
            if status is not None:
                failure = f"HTTP {status}: {resp.content.decode('utf-8', 'replace')[:200]}"
                if status in (429, 503):
                    retry_after = _retry_after_s(resp.headers.get("retry-after"))
                elif status < 500:  # the request itself is at fault: a retry repeats it
                    raise TransportError(f"chat completion failed: {failure}")
            delay = retry_delay(attempt, max_attempts=self.max_attempts, rng=self._rng)
            if delay is None:
                raise TransportError(
                    f"chat completion failed after {attempt} attempts: {failure}"
                )
            self._sleep(delay if retry_after is None else retry_after)

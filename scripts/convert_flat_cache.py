#!/usr/bin/env python3
"""Convert the flat entries of a request cache into segment lines, once.

Caches recorded before segments hold one JSON file per request key,
``{"request": {"model", "tag"}, "response": {"text", "provider_meta"}}``
(older ones also ``request.prompt_text``). Segments are the only layout the
cache reads, and it refuses to open a directory holding flat entries.

    python scripts/convert_flat_cache.py --cache-dir D

moves the flat files into ``D/flat-entries/``, then appends each entry there
that no segment line already serves, through ``RequestCache.put``, with the
model and tag its ``request`` names (empty strings when absent). So where a
segment line and a flat entry hold the same key, the segment line still
wins. An entry that cannot be read is named and not appended: its key is a
miss, which a record run fetches again. The cache is closed, so its
``index`` is saved. A second run, or one after an interrupted run, appends
only what is still missing.
"""

import argparse
import json
import os
import sys
from pathlib import Path

from chunkcode.errors import ChunkCodeError
from chunkcode.llm_client import _FLAT_NAME, LLMResponse, PromptRequest, RequestCache

FLAT_DIR_NAME = "flat-entries"


def _string(request: object, field: str) -> str:
    value = request.get(field) if isinstance(request, dict) else None
    return value if isinstance(value, str) else ""


def read_flat_entry(path: Path) -> tuple[PromptRequest, LLMResponse]:
    """The request (model and tag; no prompt) and the response a flat entry
    holds. OSError or ValueError unless it is readable JSON holding a
    ``response`` object whose ``text`` is a string and whose
    ``provider_meta``, when present, is an object."""
    entry = json.loads(path.read_text(encoding="utf-8"))
    request, response = (entry.get("request"), entry.get("response")) if isinstance(entry, dict) else (None, None)
    if not (
        isinstance(response, dict)
        and isinstance(response.get("text"), str)
        and isinstance(response.get("provider_meta", {}), dict)
    ):
        raise ValueError("no response object with a string text and an object provider_meta")
    return (
        PromptRequest(_string(request, "model"), "", _string(request, "tag")),
        LLMResponse(response["text"], response.get("provider_meta", {})),
    )


def convert(directory: Path) -> tuple[int, int, list[str]]:
    """Convert the flat entries of the cache in ``directory``: the number of
    flat files moved, the number of entries appended, and one line naming
    each entry that cannot be read."""
    flat_dir = directory / FLAT_DIR_NAME
    names = [name for name in os.listdir(directory) if _FLAT_NAME.fullmatch(name)]
    if names:
        flat_dir.mkdir(exist_ok=True)
    for name in names:
        os.replace(directory / name, flat_dir / name)
    appended, unreadable = 0, []
    cache = RequestCache(directory, writable=True)
    try:
        for path in sorted(flat_dir.iterdir()) if flat_dir.is_dir() else ():
            if not _FLAT_NAME.fullmatch(path.name) or cache.get(path.name) is not None:
                continue
            try:
                request, response = read_flat_entry(path)
            except (OSError, ValueError) as exc:
                unreadable.append(f"{path}: {exc}")
                continue
            cache.put(path.name, request, response)
            appended += 1
    finally:
        cache.close()
    return len(names), appended, unreadable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cache-dir", required=True, type=Path, help="The request cache to convert.")
    args = parser.parse_args(argv)
    try:
        moved, appended, unreadable = convert(args.cache_dir)
    except (ChunkCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in unreadable:
        print(f"unreadable, left as a miss: {line}", file=sys.stderr)
    print(
        f"moved {moved} flat entries into {args.cache_dir / FLAT_DIR_NAME};"
        f" appended {appended}; {len(unreadable)} unreadable"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The deductive-coding codebook: named binary dimensions with definitions."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import CodebookError
from .frozen import Frozen


class Dimension(NamedTuple):
    """One binary characteristic raters mark True or False per document."""

    id: str
    name: str
    definition: str


class Codebook(Frozen):
    """An ordered, validated collection of dimensions.

    Not a tuple: iterating a codebook yields its dimensions.
    """

    __slots__ = _fields = ("dimensions",)
    dimensions: tuple[Dimension, ...]

    def __init__(self, dimensions: tuple[Dimension, ...]) -> None:
        if not dimensions:
            raise CodebookError("a codebook needs at least one dimension")
        seen: set[str] = set()
        for dim in dimensions:
            if not dim.id or any(ch.isspace() for ch in dim.id):
                raise CodebookError(
                    f"dimension id {dim.id!r} must be nonempty with no whitespace"
                )
            if dim.id == "doc_id":
                raise CodebookError("dimension id 'doc_id' is reserved for consensus.csv's document column")
            if dim.id in seen:
                raise CodebookError(f"duplicate dimension id {dim.id!r}")
            seen.add(dim.id)
            if not dim.name:
                raise CodebookError(f"dimension {dim.id!r} has an empty name")
            if not dim.definition:
                raise CodebookError(f"dimension {dim.id!r} has an empty definition")
        self._set(dimensions)

    def __iter__(self) -> Iterator[Dimension]:
        return iter(self.dimensions)

    def __len__(self) -> int:
        return len(self.dimensions)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(dim.id for dim in self.dimensions)

    def get(self, dim_id: str) -> Dimension:
        for dim in self.dimensions:
            if dim.id == dim_id:
                return dim
        raise KeyError(dim_id)

    def to_json(self) -> str:
        entries = [
            {"id": d.id, "name": d.name, "definition": d.definition}
            for d in self.dimensions
        ]
        return json.dumps(entries, indent=2, ensure_ascii=False) + "\n"


def _parse_entries(entries: object, source: str) -> Codebook:
    if not isinstance(entries, list):
        raise CodebookError(f"{source}: codebook must be a JSON array of objects")
    dims = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise CodebookError(f"{source}: entry {i} is not an object")
        try:
            dim = Dimension(
                id=entry["id"], name=entry["name"], definition=entry["definition"]
            )
        except KeyError as exc:
            raise CodebookError(f"{source}: entry {i} is missing field {exc}") from exc
        if not all(isinstance(v, str) for v in (dim.id, dim.name, dim.definition)):
            raise CodebookError(f"{source}: entry {i} has non-string fields")
        dims.append(dim)
    return Codebook(tuple(dims))


def load_codebook(path: str | Path) -> Codebook:
    """Load and validate a codebook file, preserving its dimension order."""
    p = Path(path)
    try:
        entries = json.loads(p.read_text(encoding="utf-8"))
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        raise CodebookError(f"cannot read codebook {p}: {exc}") from exc
    return _parse_entries(entries, str(p))


def default_codebook() -> Codebook:
    """The bundled starter codebook.

    It carries only the dimensions whose definitions are published verbatim;
    extend it with your own entries for a full coding exercise.
    """
    from importlib import resources  # a start-up cost no other command needs

    data = (
        resources.files("chunkcode").joinpath("data/default_codebook.json").read_text("utf-8")
    )
    return _parse_entries(json.loads(data), "default codebook")

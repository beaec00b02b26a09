import json

import pytest

import chunkcode as cc
from chunkcode.errors import CodebookError

ENTRIES = [
    {"id": "fidelity", "name": "Fidelity", "definition": "How faithful."},
    {"id": "use-cases", "name": "Use-Cases", "definition": "What for."},
    {"id": "physical-entity", "name": "Physical Entity", "definition": "The real thing."},
]


def write_codebook(tmp_path, entries):
    path = tmp_path / "codebook.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def test_load_preserves_order(tmp_path):
    cb = cc.load_codebook(write_codebook(tmp_path, ENTRIES))
    assert cb.ids == ("fidelity", "use-cases", "physical-entity")
    assert len(cb) == 3
    assert cb.get("use-cases").name == "Use-Cases"


def test_duplicate_id_rejected(tmp_path):
    entries = ENTRIES + [{"id": "fidelity", "name": "Again", "definition": "Dup."}]
    with pytest.raises(CodebookError, match="fidelity"):
        cc.load_codebook(write_codebook(tmp_path, entries))


def test_empty_definition_rejected(tmp_path):
    entries = [{"id": "x", "name": "X", "definition": ""}]
    with pytest.raises(CodebookError, match="definition"):
        cc.load_codebook(write_codebook(tmp_path, entries))


def test_empty_name_rejected(tmp_path):
    entries = [{"id": "x", "name": "", "definition": "Something."}]
    with pytest.raises(CodebookError, match="^dimension 'x' has an empty name$"):
        cc.load_codebook(write_codebook(tmp_path, entries))


def test_empty_list_rejected(tmp_path):
    with pytest.raises(CodebookError, match="^a codebook needs at least one dimension$"):
        cc.load_codebook(write_codebook(tmp_path, []))


def test_id_with_whitespace_rejected(tmp_path):
    entries = [{"id": "bad id", "name": "X", "definition": "D."}]
    with pytest.raises(CodebookError, match="whitespace"):
        cc.load_codebook(write_codebook(tmp_path, entries))


def test_missing_field_names_entry(tmp_path):
    entries = [{"id": "x", "name": "X"}]
    with pytest.raises(CodebookError, match="entry 0"):
        cc.load_codebook(write_codebook(tmp_path, entries))


@pytest.mark.parametrize(
    "entry, problem",
    [
        ("fidelity", "entry 1 is not an object"),
        ({"id": "x", "name": "X"}, "entry 1 is missing field 'definition'"),
        ({"id": "x", "name": 1, "definition": "D."}, "entry 1 has non-string fields"),
    ],
    ids=["not an object", "missing field", "non-string field"],
)
def test_malformed_entry_is_named(tmp_path, entry, problem):
    path = write_codebook(tmp_path, [ENTRIES[0], entry])
    with pytest.raises(CodebookError) as refused:
        cc.load_codebook(path)
    assert str(refused.value) == f"{path}: {problem}"


def test_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CodebookError):
        cc.load_codebook(path)


@pytest.mark.parametrize("entries", [ENTRIES[0], "fidelity", None], ids=["object", "string", "null"])
def test_a_json_value_that_is_not_an_array_is_refused(tmp_path, entries):
    path = write_codebook(tmp_path, entries)
    with pytest.raises(CodebookError) as refused:
        cc.load_codebook(path)
    assert str(refused.value) == f"{path}: codebook must be a JSON array of objects"


def test_round_trip_stability(tmp_path):
    cb = cc.load_codebook(write_codebook(tmp_path, ENTRIES))
    again = tmp_path / "again.json"
    again.write_text(cb.to_json(), encoding="utf-8")
    assert cc.load_codebook(again) == cb


def test_default_codebook_ships_three_published_entries():
    cb = cc.default_codebook()
    assert [d.name for d in cb] == ["Physical Entity or Process", "Fidelity", "Use-Cases"]
    assert all(d.definition for d in cb)


def test_unknown_dimension_lookup():
    cb = cc.default_codebook()
    with pytest.raises(KeyError):
        cb.get("missing")

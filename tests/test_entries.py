"""Entry kinds, payload codec, and template matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacefarm.entries import (
    ConfigurationEntry,
    ResultEntry,
    RowEntry,
    StopEntry,
    TaskEntry,
    Template,
    decode_payload,
    encode_payload,
    entry_from_wire,
    entry_to_wire,
    matchable_fields,
)
from spacefarm.errors import InvalidTemplate, MalformedPayload


def sample_entries():
    return [
        ResultEntry("case-a", 0, encode_payload(b"")),
        ConfigurationEntry("case-a", "echo", "1", {"delay_ms": "0"}),
        StopEntry("case-a"),
        TaskEntry("case-a", 0, 30_000, "echo", encode_payload(b"hello")),
        RowEntry("case-a", "0", 3, "1 0.5 -2.25e-1"),
    ]


def test_wire_roundtrip_every_kind():
    for entry in sample_entries():
        assert entry_from_wire(entry_to_wire(entry)) == entry


def test_wire_refuses_bulk_fields_that_are_not_text():
    row = entry_to_wire(RowEntry("case-a", "0", 1, "1 0.5"))
    assert row["values"] == "1 0.5"
    for bad in (["1", "0.5"], 1.5, None):
        with pytest.raises(ValueError):
            entry_from_wire({**row, "values": bad})
    task = entry_to_wire(TaskEntry("case-a", 0, 30_000, "echo", encode_payload(b"x")))
    with pytest.raises(ValueError):
        entry_from_wire({**task, "payload": list(b"x")})


def test_wire_rejects_unknown_kind_and_missing_field():
    with pytest.raises(ValueError):
        entry_from_wire({"kind": "Mystery"})
    with pytest.raises(ValueError):
        entry_from_wire({"kind": "StopEntry"})


@given(st.binary(max_size=512))
def test_payload_codec_roundtrip(blob):
    assert decode_payload(encode_payload(blob)) == blob


def test_payload_codec_rejects_garbage():
    for bad in ("not base64!!", "AAA", "####"):
        with pytest.raises(MalformedPayload):
            decode_payload(bad)


def test_template_matches_on_exact_scalar_equality():
    entry = ResultEntry("case-a", 2, encode_payload(b"x"))
    assert Template("ResultEntry").matches(entry)
    assert Template("ResultEntry", {"case_id": "case-a", "part_index": 2}).matches(entry)
    assert not Template("ResultEntry", {"part_index": 3}).matches(entry)
    assert not Template("StopEntry").matches(entry)


def test_a_list_constraint_matches_any_of_its_members():
    template = Template("TaskEntry", {"agent_id": ["bbp-pi", "echo"]})
    data = encode_payload(b"x")
    assert template.matches(TaskEntry("case-a", 0, 1_000, "echo", data))
    assert template.matches(TaskEntry("case-a", 0, 1_000, "bbp-pi", data))
    assert not template.matches(TaskEntry("case-a", 0, 1_000, "cholesky-rowblock", data))
    assert Template.from_wire(template.to_wire()) == template


def test_template_rejects_unknown_kind_and_bulk_fields():
    with pytest.raises(InvalidTemplate):
        Template("Mystery")
    with pytest.raises(InvalidTemplate):
        Template("TaskEntry", {"payload": "AAAA"})
    with pytest.raises(InvalidTemplate):
        Template("RowEntry", {"values": ()})


def test_matchable_fields_exclude_bulk_data():
    assert "payload" not in matchable_fields("TaskEntry")
    assert matchable_fields("TaskEntry") == {
        "case_id", "part_index", "lease_ms", "agent_id"
    }
    assert "values" not in matchable_fields("RowEntry")
    assert {"case_id", "matrix_id", "row_index"} <= matchable_fields("RowEntry")


def test_template_wire_roundtrip():
    template = Template("RowEntry", {"case_id": "c", "row_index": 7})
    assert Template.from_wire(template.to_wire()) == template

"""Golden wire corpus: the MRM1 format, pinned byte-for-byte.

Each ``corpus/*.mrm`` is a committed message. For the samples
``MANIFEST.json`` lists as valid, ``corpus/_generate.py`` holds the
value it encodes: the live encoder must give exactly those bytes, and
both decoders must give the value back (tuples as lists, bytes-likes
as bytes, subclasses as their wire kind, guid-bearing objects as
references). For the rejected samples the manifest holds the exact
``MarshalError`` message the decoder must raise. The corpus was
written by the codec before its type-dispatched rewrite, so a change
that moves a wire byte or an error fails here and must come with a
deliberate regeneration.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.errors import MarshalError
from repro.core.values import HtmlText
from repro.net.marshal import (
    Reference,
    marshal,
    marshal_frame,
    materialize_deep,
    unmarshal,
    unmarshal_lazy,
)

from .test_marshal_differential import anatomy, same

pytestmark = pytest.mark.wire

CORPUS = Path(__file__).resolve().parent / "corpus"
MANIFEST = json.loads((CORPUS / "MANIFEST.json").read_text(encoding="utf-8"))

_spec = importlib.util.spec_from_file_location("wire_corpus", CORPUS / "_generate.py")
samples = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samples)


def wire_form(value):
    """What decoding the encoding of *value* gives back."""
    if value is None or type(value) in (bool, float, str, bytes, HtmlText, Reference):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, (bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return [wire_form(element) for element in value]
    if isinstance(value, dict):
        return {wire_form(key): wire_form(val) for key, val in value.items()}
    site = getattr(value, "site_id", "") or getattr(value, "site", "")
    return Reference(str(value.guid), str(site))


def message(name: str) -> bytes:
    return (CORPUS / f"{name}.mrm").read_bytes()


def test_manifest_matches_the_generator():
    assert MANIFEST["valid"] == sorted(samples.VALID)
    assert sorted(MANIFEST["reject"]) == sorted(samples.REJECT)
    assert sorted(path.stem for path in CORPUS.glob("*.mrm")) == sorted(
        MANIFEST["valid"] + list(MANIFEST["reject"])
    )


def test_every_tag_is_covered():
    seen = set()
    for name in MANIFEST["valid"]:
        data = message(name)
        tags, _lengths = anatomy(data)
        seen.update(data[offset] for offset in tags)
    assert bytes(sorted(seen)) == bytes(sorted(b"NTFIRSHBLMG"))


@pytest.mark.parametrize("name", MANIFEST["valid"])
class TestValidSamples:
    def test_encoder_gives_the_golden_bytes(self, name):
        value = samples.VALID[name]()
        assert marshal(value) == message(name)
        with marshal_frame(value) as frame:
            assert frame.tobytes() == message(name)

    def test_decoders_give_the_value_back(self, name):
        expected = wire_form(samples.VALID[name]())
        data = message(name)
        for source in (data, memoryview(data), bytearray(data)):
            assert same(unmarshal(source), expected)
        assert same(materialize_deep(unmarshal_lazy(data)), expected)

    def test_decoded_value_re_encodes_identically(self, name):
        assert marshal(unmarshal(message(name))) == message(name)


@pytest.mark.parametrize("name", sorted(MANIFEST["reject"]))
class TestRejectedSamples:
    def test_eager_decoder_raises_the_recorded_error(self, name):
        data = message(name)
        for source in (data, memoryview(data)):
            with pytest.raises(MarshalError) as caught:
                unmarshal(source)
            assert str(caught.value) == MANIFEST["reject"][name]

    def test_lazy_decoder_rejects_it_too(self, name):
        with pytest.raises(MarshalError):
            materialize_deep(unmarshal_lazy(message(name)))

"""Differential proof that the MRM1 codec's fast paths change cost, never
the wire.

The module freezes the encoder and decoder as they were before the
type-dispatched rewrite — ``_encode``/``_decode`` and the helpers they
call, verbatim — and checks the live codec against them:

* the encoders give the same bytes, or raise the same error, for every
  value Hypothesis draws: every scalar kind, ``IntEnum`` and other
  subclasses, NaN and -0.0, text at the 64/65-char intern boundary
  with multi-byte characters, ``HtmlText``, bytes-likes, tuples,
  ``OrderedDict``, non-text keys, references, guid-bearing objects and
  nesting at 64 and 65 levels. The one deliberate difference: a
  mapping keyed by a list, tuple or mapping, which the frozen encoder
  wrote and no decoder could read, is now refused at the writer;
* the decoders give the same value, or the same ``MarshalError``
  message, for every encoded value and for hand-made deep messages;
* eager ``unmarshal`` and ``materialize_deep(unmarshal_lazy(...))``
  agree on structure-aware mutations of encoded values (a byte
  flipped, a tag or length rewritten, the message cut short, bytes
  inserted), fed as bytes and as memoryview, and neither raises
  anything but ``MarshalError`` — nor does a lazy view touched entry
  by entry.
"""

from __future__ import annotations

import enum
import math
import random
import struct
from collections import OrderedDict, namedtuple
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MarshalError
from repro.core.values import HtmlText
from repro.net.marshal import (
    MAX_COLLECTION,
    LazyList,
    LazyMapping,
    Reference,
    _reset_fastpath_state,
    marshal,
    marshal_frame,
    materialize_deep,
    unmarshal,
    unmarshal_lazy,
)

pytestmark = pytest.mark.wire

CORPUS = Path(__file__).resolve().parent / "corpus"


# ---------------------------------------------------------------------------
# the reference codec: _encode, _decode and their helpers frozen verbatim,
# with interning tables of their own; reference_marshal/_unmarshal are
# the message wrappers without the buffer pool
# ---------------------------------------------------------------------------

_TAG_NULL = ord("N")
_TAG_TRUE = ord("T")
_TAG_FALSE = ord("F")
_TAG_INT = ord("I")
_TAG_REAL = ord("R")
_TAG_TEXT = ord("S")
_TAG_HTML = ord("H")
_TAG_BINARY = ord("B")
_TAG_LIST = ord("L")
_TAG_MAPPING = ord("M")
_TAG_REFERENCE = ord("G")

_INTERN_MAX_CHARS = 64
_INTERN_CAP = 4096


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise MarshalError(f"varint cannot encode negative {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise MarshalError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 1024:
            raise MarshalError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


def _encode_int(value: int) -> bytes:
    out = bytearray((_TAG_INT,))
    _write_varint(out, _zigzag(value))
    return bytes(out)


_SMALL_INTS: dict[int, bytes] = {n: _encode_int(n) for n in range(-64, 257)}
_TEXT_INTERN: dict[str, bytes] = {}
_REF_INTERN: dict[tuple[str, str], bytes] = {}
_DECODE_INTERN: dict[bytes, str] = {}


def _encode(out: bytearray, value: Any, depth: int) -> None:
    if depth > 64:
        raise MarshalError("value nesting exceeds 64 levels")
    if value is None:
        out.append(_TAG_NULL)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        cached = _SMALL_INTS.get(value)
        if cached is not None:
            out += cached
        else:
            out.append(_TAG_INT)
            _write_varint(out, _zigzag(value))
    elif isinstance(value, float):
        out.append(_TAG_REAL)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, HtmlText):
        raw = str(value).encode("utf-8")
        out.append(_TAG_HTML)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, str):
        if len(value) <= _INTERN_MAX_CHARS:
            cached = _TEXT_INTERN.get(value)
            if cached is None:
                raw = value.encode("utf-8")
                head = bytearray((_TAG_TEXT,))
                _write_varint(head, len(raw))
                cached = bytes(head) + raw
                if len(_TEXT_INTERN) >= _INTERN_CAP:
                    _TEXT_INTERN.clear()
                _TEXT_INTERN[value] = cached
            out += cached
        else:
            raw = value.encode("utf-8")
            out.append(_TAG_TEXT)
            _write_varint(out, len(raw))
            out.extend(raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out.append(_TAG_BINARY)
        _write_varint(out, len(raw))
        out.extend(raw)
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for element in value:
            _encode(out, element, depth + 1)
    elif isinstance(value, dict):
        out.append(_TAG_MAPPING)
        _write_varint(out, len(value))
        for key, val in value.items():
            _encode(out, key, depth + 1)
            _encode(out, val, depth + 1)
    elif isinstance(value, Reference):
        key = (value.guid, value.site)
        cached = _REF_INTERN.get(key)
        if cached is None:
            payload = f"{value.site}|{value.guid}".encode("utf-8")
            head = bytearray((_TAG_REFERENCE,))
            _write_varint(head, len(payload))
            cached = bytes(head) + payload
            if len(_REF_INTERN) >= _INTERN_CAP:
                _REF_INTERN.clear()
            _REF_INTERN[key] = cached
        out += cached
    elif hasattr(value, "guid"):
        # an object: by-identity, tagged with its home site if it has one
        site = getattr(value, "site_id", "") or getattr(value, "site", "")
        _encode(out, Reference(str(value.guid), str(site)), depth)
    else:
        raise MarshalError(
            f"value of type {type(value).__name__} has no wire representation"
        )


def _decode(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    if depth > 64:
        raise MarshalError("value nesting exceeds 64 levels")
    if offset >= len(data):
        raise MarshalError("truncated message")
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        raw, offset = _read_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_REAL:
        if offset + 8 > len(data):
            raise MarshalError("truncated real")
        return struct.unpack(">d", data[offset:offset + 8])[0], offset + 8
    if tag in (_TAG_TEXT, _TAG_HTML, _TAG_BINARY, _TAG_REFERENCE):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise MarshalError("truncated payload")
        raw = data[offset:offset + length]
        offset += length
        if tag == _TAG_BINARY:
            return bytes(raw), offset
        if type(raw) is not bytes:  # memoryview input (zero-copy frames)
            raw = bytes(raw)
        if tag == _TAG_TEXT and length <= _INTERN_MAX_CHARS:
            interned = _DECODE_INTERN.get(raw)
            if interned is not None:
                return interned, offset
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MarshalError(f"invalid UTF-8 payload: {exc}") from exc
        if tag == _TAG_TEXT and length <= _INTERN_MAX_CHARS:
            if len(_DECODE_INTERN) >= _INTERN_CAP:
                _DECODE_INTERN.clear()
            _DECODE_INTERN[raw] = text
            return text, offset
        if tag == _TAG_HTML:
            return HtmlText(text), offset
        if tag == _TAG_REFERENCE:
            site, _sep, guid = text.partition("|")
            if not guid:
                raise MarshalError(f"malformed reference payload {text!r}")
            return Reference(guid, site), offset
        return text, offset
    if tag == _TAG_LIST:
        count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            raise MarshalError(f"list length {count} exceeds limit")
        elements = []
        for _ in range(count):
            element, offset = _decode(data, offset, depth + 1)
            elements.append(element)
        return elements, offset
    if tag == _TAG_MAPPING:
        count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            raise MarshalError(f"mapping length {count} exceeds limit")
        mapping = {}
        for _ in range(count):
            key, offset = _decode(data, offset, depth + 1)
            value, offset = _decode(data, offset, depth + 1)
            try:
                mapping[key] = value
            except TypeError as exc:
                raise MarshalError(f"unhashable mapping key {key!r}") from exc
        return mapping, offset
    raise MarshalError(f"unknown tag byte 0x{tag:02x}")


def reference_marshal(value: Any) -> bytes:
    out = bytearray(b"MRM1")
    _encode(out, value, 0)
    return bytes(out)


def reference_unmarshal(message: bytes | bytearray | memoryview) -> Any:
    if bytes(message[:4]) != b"MRM1":
        raise MarshalError("bad magic: not an MRM1 message")
    value, offset = _decode(message, 4, 0)
    if offset != len(message):
        raise MarshalError(f"{len(message) - offset} bytes of trailing garbage")
    return value


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def same(left: Any, right: Any) -> bool:
    """Equal in type, structure, key order and float bits."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        return struct.pack(">d", left) == struct.pack(">d", right)
    if isinstance(left, list):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, dict):
        return len(left) == len(right) and all(
            same(lk, rk) and same(lv, rv)
            for (lk, lv), (rk, rv) in zip(left.items(), right.items())
        )
    return left == right


def outcome(fn, *args) -> tuple:
    """("ok", result) or ("error", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the observable
        return ("error", type(exc), str(exc))


def same_outcome(left: tuple, right: tuple) -> bool:
    if left[0] != right[0]:
        return False
    if left[0] == "ok":
        return same(left[1], right[1])
    return left[1:] == right[1:]


def has_container_key(value: Any) -> bool:
    """Does any mapping inside *value* have a list, tuple or mapping key?"""
    if isinstance(value, dict):
        return any(
            isinstance(key, (list, tuple, dict)) or has_container_key(key)
            or has_container_key(val)
            for key, val in value.items()
        )
    if isinstance(value, (list, tuple)):
        return any(has_container_key(element) for element in value)
    return False


def nested(depth: int, leaf: Any, wrap=lambda inner: [inner]) -> Any:
    value = leaf
    for _ in range(depth):
        value = wrap(value)
    return value


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


class Level(enum.IntEnum):
    LOW = 3
    HIGH = 300


class Count(int):
    pass


class Name(str):
    pass


class Row(list):
    pass


Pair = namedtuple("Pair", "left right")


class Guest:
    """Anything with a guid travels by identity."""

    def __init__(self, guid: str, site_id: str = ""):
        self.guid = guid
        self.site_id = site_id


class Hosted:
    """A guid-bearing object whose home is named ``site``."""

    def __init__(self, guid: str, site: str):
        self.guid = guid
        self.site = site


text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80)
boundary_text = st.sampled_from([
    "", "x" * 63, "x" * 64, "x" * 65, "é" * 32, "é" * 33, "é" * 64, "é" * 65,
    "€" * 21, "€" * 22, "🙂" * 16, "🙂" * 17, "bump", "mrom://s1/3.3",
])
integers = st.one_of(
    st.integers(-70, 300), st.integers(),
    st.integers(min_value=2**63), st.integers(max_value=-(2**63)),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf]),
)
leaves = st.one_of(
    st.none(), st.booleans(), integers, st.sampled_from(list(Level)),
    integers.map(Count), floats, text, boundary_text, boundary_text.map(Name),
    text.map(HtmlText), st.binary(max_size=300),
    st.binary(max_size=20).map(bytearray), st.binary(max_size=20).map(memoryview),
    st.builds(Reference, text, text), st.builds(Guest, text, text),
    st.builds(Hosted, text, text),
    st.sampled_from([frozenset({1}), 1j, object()]),  # no wire form
    st.lists(st.integers(0, 9), min_size=126, max_size=130),  # two-byte count
)
keys = st.one_of(
    text, boundary_text, integers, st.none(), st.booleans(), floats,
    st.binary(max_size=12), text.map(HtmlText), st.builds(Reference, text, text),
    st.sampled_from([Level.LOW, Name("k")]),
    st.tuples(integers, integers), st.tuples(), st.builds(Pair, integers, text),
)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(children, max_size=4).map(Row),
        st.dictionaries(keys, children, max_size=6),
        st.dictionaries(text, children, max_size=6),
        st.dictionaries(keys, children, max_size=4).map(OrderedDict),
        st.builds(Pair, children, children),
    ),
    max_leaves=40,
)


def check_encoders(value: Any) -> tuple:
    """The frozen and live encoders agree on *value*; returns the
    reference outcome."""
    expected = outcome(reference_marshal, value)
    actual = outcome(marshal, value)
    if has_container_key(value):
        # refused at the writer now: what the frozen encoder wrote for
        # it, no decoder could read
        assert actual[:2] == ("error", MarshalError), actual
        if expected[0] == "ok":
            assert outcome(reference_unmarshal, expected[1])[:2] == ("error", MarshalError)
            assert outcome(unmarshal, expected[1])[:2] == ("error", MarshalError)
        return expected
    assert same_outcome(actual, expected), (actual, expected)
    if expected[0] == "ok":
        with marshal_frame(value) as frame:
            assert frame.tobytes() == expected[1]
    return expected


def check_decoders(message: bytes) -> None:
    """The frozen and live eager decoders, and the lazy one, agree."""
    expected = outcome(reference_unmarshal, message)
    for data in (message, memoryview(message), bytearray(message)):
        assert same_outcome(outcome(unmarshal, data), expected)
    lazy = outcome(lambda: materialize_deep(unmarshal_lazy(message)))
    if expected[0] == "ok":
        assert same_outcome(lazy, expected)
    else:
        assert lazy[:2] == ("error", MarshalError), lazy


# ---------------------------------------------------------------------------
# encoder and decoder differential
# ---------------------------------------------------------------------------


class TestCodecDifferential:
    @given(values)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_or_same_error(self, value):
        expected = check_encoders(value)
        if expected[0] == "ok" and not has_container_key(value):
            check_decoders(expected[1])

    @given(values)
    @settings(max_examples=100, deadline=None)
    def test_interning_state_never_shows_on_the_wire(self, value):
        # cold tables, then warm ones: the same bytes either way
        _reset_fastpath_state()
        first = outcome(marshal, value)
        second = outcome(marshal, value)
        assert same_outcome(first, second)
        if first[0] == "ok":
            _reset_fastpath_state()
            cold = outcome(unmarshal, first[1])
            assert same_outcome(outcome(unmarshal, first[1]), cold)

    @pytest.mark.parametrize("leaf", [
        7, 1000, -1, "x", "x" * 64, "é" * 64, None, True, False, 2.5, b"b",
        [], {}, [1], {"k": 1}, (), Reference("g", "s"), HtmlText("<b/>"),
        Level.LOW, Guest("g"), object(),
    ], ids=repr)
    @pytest.mark.parametrize("depth", [63, 64, 65, 66])
    @pytest.mark.parametrize("wrap", [
        lambda inner: [inner], lambda inner: (inner,), lambda inner: {"k": inner},
        lambda inner: {1: inner}, lambda inner: OrderedDict(k=inner),
        lambda inner: Row([inner]),
    ], ids=["list", "tuple", "mapping", "int-key", "ordered", "subclass"])
    def test_nesting_boundary(self, leaf, depth, wrap):
        expected = check_encoders(nested(depth, leaf, wrap))
        if expected[0] == "ok":
            check_decoders(expected[1])

    LEAF_BYTES = [
        b"N", b"T", b"F", b"I\x02", b"I\x80\x01", b"S\x00", b"S\x01a",
        b"S\x80\x01" + "é".encode() * 64, "S\x40".encode() + "é".encode() * 32,
        b"R" + struct.pack(">d", 1.5), b"B\x01x", b"H\x03<b>", b"G\x03s|g",
        b"L\x00", b"M\x00", b"L\x01N", b"M\x01S\x01kN", b"Z", b"",
    ]

    @pytest.mark.parametrize("leaf", LEAF_BYTES, ids=repr)
    @pytest.mark.parametrize("depth", [63, 64, 65])
    @pytest.mark.parametrize("wrapper", [b"L\x01", b"M\x01S\x01k", b"M\x01I\x02"])
    def test_hand_made_depth(self, leaf, depth, wrapper):
        check_decoders(b"MRM1" + wrapper * depth + leaf)

    @pytest.mark.parametrize("text", ["é" * 32, "é" * 33, "é" * 64, "x" * 64, "x" * 65])
    def test_multibyte_intern_boundary(self, text):
        # decoded twice, so the second decode may come from the intern
        # table: a byte length over 64 must never be served from it
        for value in (text, [text, text], {text: text}, {"k": [text]}):
            message = check_encoders(value)[1]
            check_decoders(message)
            check_decoders(message)

    def test_lone_surrogate_fails_alike(self):
        for value in ("\ud800", ["ok", "\udfff"], {"\ud800": 1}, {"k": "\ud800"}):
            check_encoders(value)


class TestRefusedKeys:
    @pytest.mark.parametrize("value", [
        {(1, 2): 3}, {(): None}, {Pair(1, "a"): 1}, {"ok": {"deep": {(1,): 0}}},
        [{(1, 2): 3}], OrderedDict([((1,), 1)]),
    ], ids=repr)
    def test_container_keys_are_refused_at_the_writer(self, value):
        with pytest.raises(MarshalError, match="unhashable mapping key of type"):
            marshal(value)
        with pytest.raises(MarshalError):
            marshal_frame(value)

    def test_the_refusal_is_checked_before_the_value(self):
        with pytest.raises(MarshalError, match="of type tuple"):
            marshal({(1, 2): object()})


# ---------------------------------------------------------------------------
# eager vs lazy decoding under mutation
# ---------------------------------------------------------------------------


TAG_BYTES = b"NTFIRSHBLMG"
LENGTH_TAGS = frozenset(b"SHBGLM")


def anatomy(message: bytes) -> tuple[list[int], list[int]]:
    """Offsets of every tag byte and of every length/count prefix of a
    well-formed message."""
    tags: list[int] = []
    lengths: list[int] = []

    def walk(offset: int) -> int:
        tag = message[offset]
        tags.append(offset)
        offset += 1
        if tag in b"NTF":
            return offset
        if tag == _TAG_INT:
            return _read_varint(message, offset)[1]
        if tag == _TAG_REAL:
            return offset + 8
        lengths.append(offset)
        count, offset = _read_varint(message, offset)
        if tag == _TAG_LIST:
            for _ in range(count):
                offset = walk(offset)
            return offset
        if tag == _TAG_MAPPING:
            for _ in range(2 * count):
                offset = walk(offset)
            return offset
        return offset + count

    walk(4)
    return tags, lengths


def mutate(message: bytes, rng: random.Random) -> bytes:
    """One structure-aware mutation of a well-formed message."""
    tags, lengths = anatomy(message)
    data = bytearray(message)
    choice = rng.randrange(6)
    if choice == 0:  # flip a byte anywhere past the magic
        index = rng.randrange(4, len(data))
        data[index] ^= rng.randrange(1, 256)
    elif choice == 1:  # rewrite a tag
        data[rng.choice(tags)] = rng.choice(TAG_BYTES + bytes([rng.randrange(256)]))
    elif choice == 2 and lengths:  # rewrite a length or count
        data[rng.choice(lengths)] = rng.choice([0, 1, 2, 0x3F, 0x40, 0x41, 0x7F, 0x80, 0xFF])
    elif choice == 3:  # cut short
        del data[rng.randrange(4, len(data)):]
    elif choice == 4:  # insert bytes
        index = rng.randrange(4, len(data) + 1)
        data[index:index] = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 4)))
    else:  # duplicate one encoded value in place
        start = rng.choice(tags)
        data[start:start] = data[start:start + rng.randrange(1, 12)]
    return bytes(data)


def touch_all(value: Any) -> Any:
    """A lazy view forced element by element, as a reader touching every
    entry would."""
    if isinstance(value, LazyMapping):
        return {key: touch_all(value[key]) for key in value}
    if isinstance(value, LazyList):
        return [touch_all(value[index]) for index in range(len(value))]
    return value


def check_mutant(message: bytes) -> None:
    """Eager and lazy decoding agree — with each other, for bytes and
    memoryview input, and with the frozen decoder, message included —
    and nothing but MarshalError escapes. Touching a lazy view entry by
    entry may succeed where the eager decoder refuses (framing is
    validated up front, a payload only when it is read, and a
    duplicate key hides its first value), but never raises anything
    else, and gives the eager value whenever there is one."""
    expected = outcome(reference_unmarshal, message)
    for data in (message, memoryview(message)):
        eager = outcome(unmarshal, data)
        lazy = outcome(lambda: materialize_deep(unmarshal_lazy(data)))
        touched = outcome(lambda: touch_all(unmarshal_lazy(data)))
        assert same_outcome(eager, expected), (message, eager, expected)
        if eager[0] == "ok":
            assert same_outcome(lazy, eager), (message, lazy, eager)
            assert same_outcome(touched, eager), (message, touched, eager)
        else:
            assert eager[1] is MarshalError, (message, eager)
            assert lazy[:2] == ("error", MarshalError), (message, lazy)
            assert touched[0] == "ok" or touched[1] is MarshalError, (message, touched)


class TestEagerLazyFuzz:
    @given(values, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_mutated_values(self, value, rng):
        try:
            message = marshal(value)
        except MarshalError:
            return
        for _ in range(12):
            check_mutant(mutate(message, rng))

    def test_mutated_corpus_sweep(self):
        # a fixed, seeded sweep over every golden message, so a failure
        # reproduces without Hypothesis' database
        rng = random.Random(20240613)
        messages = [path.read_bytes() for path in sorted(CORPUS.glob("*.mrm"))]
        valid = [message for message in messages if outcome(unmarshal, message)[0] == "ok"]
        assert len(valid) >= 40
        for message in valid:
            for _ in range(150):
                check_mutant(mutate(message, rng))

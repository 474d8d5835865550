"""The wire format: a self-contained tagged binary marshal.

The paper's HADAS used Java serialization; a self-contained object model
deserves a self-contained wire format, so this module implements one from
scratch rather than borrowing :mod:`pickle` (whose by-reference class
semantics would smuggle *non*-self-contained state across sites, and
whose decoder executes arbitrary constructors — exactly what a host
receiving a hostile mobile object must never do).

Encoding: one tag byte per value, followed by a payload.

=====  ==========  =============================================
tag    kind        payload
=====  ==========  =============================================
``N``  null        —
``T``  true        —
``F``  false       —
``I``  integer     varint (zig-zag signed)
``R``  real        8-byte IEEE-754 big-endian
``S``  text        varint length + UTF-8 bytes
``H``  html        varint length + UTF-8 bytes
``B``  binary      varint length + raw bytes
``L``  list        varint count + elements
``M``  mapping     varint count + key/value pairs
``G``  reference   varint length + guid text (UTF-8)
=====  ==========  =============================================

A complete message is ``MRM1`` + one value. Decoding is strict: unknown
tags, truncated payloads and trailing garbage all raise
:class:`~repro.core.errors.MarshalError` — a hostile peer cannot make the
decoder misbehave, only fail.
"""

from __future__ import annotations

import struct
import threading
from typing import Any, Iterator, Mapping, Sequence

from ..core.errors import MarshalError
from ..core.values import HtmlText, LazyCell

__all__ = [
    "marshal",
    "marshal_frame",
    "MarshalFrame",
    "unmarshal",
    "unmarshal_lazy",
    "materialize_deep",
    "LazyValue",
    "LazyList",
    "LazyMapping",
    "marshalled_size",
    "Reference",
    "MAGIC",
    "TRACE_FIELD",
    "attach_trace",
    "extract_trace",
]

MAGIC = b"MRM1"

#: Envelope key a request's telemetry trace context travels under. The
#: leading ``~`` keeps it out of the application namespace (protocol
#: payload fields are plain identifiers); handlers that enumerate known
#: keys simply never look at it. The value is the plain string mapping
#: of :meth:`repro.telemetry.context.TraceContext.to_wire`, so it rides
#: the tagged marshal like any other payload data.
TRACE_FIELD = "~trace"


def attach_trace(payload: Any, wire_context: dict) -> Any:
    """A copy of *payload* carrying *wire_context* (mappings only —
    non-mapping payloads have nowhere to put an envelope field)."""
    if not isinstance(payload, dict):
        return payload
    stamped = dict(payload)
    stamped[TRACE_FIELD] = wire_context
    return stamped


def extract_trace(payload: Any) -> Any:
    """The wire trace context of *payload*, or None."""
    if isinstance(payload, dict):
        return payload.get(TRACE_FIELD)
    return None

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

#: Safety bound: a single collection may not claim more elements than
#: this, so a forged length prefix cannot make the decoder allocate
#: unbounded memory before the "truncated payload" check trips.
MAX_COLLECTION = 1_000_000


# ---------------------------------------------------------------------------
# encode/decode fast-paths
#
# None of these change a single wire byte — they trade memory and code
# shape for the allocations and dispatch that dominate marshalling cost
# on hot RMI paths:
#
# * the encoder picks its per-kind writer by exact ``type(value)`` from
#   one table (``_ENCODERS``); every other type — subclasses such as
#   ``HtmlText``, ``IntEnum`` or ``OrderedDict``, guid-bearing objects,
#   unknown types — goes through ``_encode_other``, the ordered
#   ``isinstance`` chain, which hands it to the same writers;
# * the list and mapping writers emit interned short strings and small
#   ints inline and write single-byte counts directly, without a call
#   per element;
# * the decoder tests tags in the order workloads send them (counted,
#   see docs/PERF.md) and reads a one-byte text length, container count
#   or int varint inline, without the general varint reader;
# * a small pool of output buffers, so marshal() stops allocating (and
#   growing) a fresh bytearray per message — list pop/append are atomic,
#   so the pool is safe under the threaded TCP gateway;
# * precomputed encodings for small integers (args, counts, lamport
#   clocks are overwhelmingly small);
# * an interning table for short strings and references (method names,
#   payload keys and GUIDs recur endlessly), bounded and dropped
#   wholesale on overflow so a hostile peer cannot grow it unboundedly;
# * decode-side interning of short text payloads keyed by the raw bytes,
#   so the same method name decoded a thousand times is one str object.
# ---------------------------------------------------------------------------

#: pooled buffers as (weight, buffer) pairs — the weight is the frame
#: size the buffer last held, a proxy for the capacity it may still pin
_BUFFER_POOL: list[tuple[int, bytearray]] = []
_BUFFER_POOL_CAP = 8
#: buffers that grew beyond this are not pooled (one giant migration
#: package must not pin its footprint forever)
_BUFFER_RETAIN = 1 << 16
#: total weight the pool may retain across all buffers — the count cap
#: alone would let eight maximum-size frames pin 8x64KiB indefinitely
_BUFFER_POOL_BYTES = 1 << 18

#: serializes the (rare) eviction pass; pop/append stay lockless
_POOL_LOCK = threading.Lock()


def _release_buffer(buf: bytearray) -> None:
    """Return a checked-out buffer to the pool, keeping the pool bounded.

    Oversized frames are never retained; within the size bound, the pool
    is held to both a buffer count and a total retained weight, evicting
    the *largest* buffers first — small hot-path frames are the ones
    worth keeping, and one burst of irregular large frames must not
    displace them or pin their capacity.
    """
    weight = len(buf)
    if weight > _BUFFER_RETAIN:
        return
    buf.clear()
    pool = _BUFFER_POOL
    pool.append((weight, buf))  # atomic: safe under gateway threads
    if len(pool) > _BUFFER_POOL_CAP or sum(w for w, _ in pool) > _BUFFER_POOL_BYTES:
        with _POOL_LOCK:
            try:
                while pool and (
                    len(pool) > _BUFFER_POOL_CAP
                    or sum(w for w, _ in pool) > _BUFFER_POOL_BYTES
                ):
                    largest = max(range(len(pool)), key=lambda i: pool[i][0])
                    pool.pop(largest)
            except (IndexError, ValueError):  # pragma: no cover - races
                pass  # a concurrent pop shrank the pool under us: bounded anyway


def _checkout_buffer() -> bytearray:
    try:
        return _BUFFER_POOL.pop()[1]  # atomic: safe under gateway threads
    except IndexError:
        return bytearray()


def _pool_snapshot() -> tuple[int, int]:
    """(buffer count, total retained weight) — for the regression tests."""
    entries = list(_BUFFER_POOL)
    return len(entries), sum(weight for weight, _ in entries)

_INTERN_MAX_CHARS = 64
_INTERN_CAP = 4096


def _int_bytes(value: int) -> bytes:
    out = bytearray((_TAG_INT,))
    _write_varint(out, _zigzag(value))
    return bytes(out)


_SMALL_INTS: dict[int, bytes] = {}
_TEXT_INTERN: dict[str, bytes] = {}
_REF_INTERN: dict[tuple[str, str], bytes] = {}
_DECODE_INTERN: dict[bytes, str] = {}


def _reset_fastpath_state() -> None:
    """Drop all pooled buffers and interning tables (tests, tuning)."""
    _BUFFER_POOL.clear()
    _TEXT_INTERN.clear()
    _REF_INTERN.clear()
    _DECODE_INTERN.clear()
    _SMALL_INTS.clear()
    for n in range(-64, 257):
        _SMALL_INTS[n] = _int_bytes(n)


class Reference:
    """A by-identity value on the wire: "this guid, at this site".

    Objects never marshal by value implicitly — that is what the explicit
    mobility package (:mod:`repro.mobility.package`) is for. When an MROM
    object (anything with a ``guid``) appears inside arguments or results,
    it travels as a :class:`Reference`, which the receiving site turns
    into a remote proxy.
    """

    __slots__ = ("guid", "site")

    def __init__(self, guid: str, site: str = ""):
        self.guid = guid
        self.site = site

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Reference)
            and other.guid == self.guid
            and other.site == self.site
        )

    def __hash__(self) -> int:
        return hash((self.guid, self.site))

    def __repr__(self) -> str:
        return f"Reference({self.guid!r}, site={self.site!r})"


# ---------------------------------------------------------------------------
# varint (unsigned LEB128) and zig-zag helpers
# ---------------------------------------------------------------------------


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


_reset_fastpath_state()  # populate the small-int table


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


_NESTING_ERROR = "value nesting exceeds 64 levels"
_pack_real = struct.Struct(">d").pack
_unpack_real = struct.Struct(">d").unpack_from


def _encode(out: bytearray, value: Any, depth: int) -> None:
    if depth > 64:
        raise MarshalError(_NESTING_ERROR)
    _ENCODERS.get(type(value), _encode_other)(out, value, depth)


def _encode_null(out: bytearray, value: None, depth: int) -> None:
    out.append(_TAG_NULL)


def _encode_bool(out: bytearray, value: bool, depth: int) -> None:
    out.append(_TAG_TRUE if value else _TAG_FALSE)


def _encode_int(out: bytearray, value: int, depth: int) -> None:
    cached = _SMALL_INTS.get(value)
    if cached is not None:
        out += cached
    else:
        out.append(_TAG_INT)
        _write_varint(out, _zigzag(value))


def _encode_real(out: bytearray, value: float, depth: int) -> None:
    out.append(_TAG_REAL)
    out += _pack_real(value)


def _encode_html(out: bytearray, value: HtmlText, depth: int) -> None:
    raw = str(value).encode("utf-8")
    out.append(_TAG_HTML)
    _write_varint(out, len(raw))
    out += raw


def _encode_text(out: bytearray, value: str, depth: int) -> None:
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
        out += raw


def _encode_binary(out: bytearray, value: bytes | bytearray | memoryview, depth: int) -> None:
    raw = bytes(value)
    out.append(_TAG_BINARY)
    _write_varint(out, len(raw))
    out += raw


def _encode_list(out: bytearray, value: list | tuple, depth: int) -> None:
    count = len(value)
    out.append(_TAG_LIST)
    if count < 0x80:
        out.append(count)
    else:
        _write_varint(out, count)
    if not count:
        return
    if depth >= 64:
        raise MarshalError(_NESTING_ERROR)
    depth += 1
    text_intern, small_ints, encoders = _TEXT_INTERN, _SMALL_INTS, _ENCODERS
    for element in value:
        kind = type(element)
        if kind is str:
            cached = text_intern.get(element)
            if cached is not None:
                out += cached
                continue
        elif kind is int:
            cached = small_ints.get(element)
            if cached is not None:
                out += cached
                continue
        encoders.get(kind, _encode_other)(out, element, depth)


def _encode_mapping(out: bytearray, value: dict, depth: int) -> None:
    count = len(value)
    out.append(_TAG_MAPPING)
    if count < 0x80:
        out.append(count)
    else:
        _write_varint(out, count)
    if not count:
        return
    if depth >= 64:
        raise MarshalError(_NESTING_ERROR)
    depth += 1
    text_intern, small_ints, encoders = _TEXT_INTERN, _SMALL_INTS, _ENCODERS
    for key, val in value.items():
        kind = type(key)
        cached = text_intern.get(key) if kind is str else None
        if cached is not None:
            out += cached
        elif isinstance(key, (list, tuple, dict)):
            # it would decode as a list or mapping, which no decoder can
            # use as a key: refuse at the writer, before a byte ships
            raise MarshalError(
                f"unhashable mapping key of type {kind.__name__}: "
                "lists, tuples and mappings cannot key a wire mapping"
            )
        else:
            encoders.get(kind, _encode_other)(out, key, depth)
        kind = type(val)
        if kind is str:
            cached = text_intern.get(val)
            if cached is not None:
                out += cached
                continue
        elif kind is int:
            cached = small_ints.get(val)
            if cached is not None:
                out += cached
                continue
        encoders.get(kind, _encode_other)(out, val, depth)


def _encode_reference(out: bytearray, value: Reference, depth: int) -> None:
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


def _encode_other(out: bytearray, value: Any, depth: int) -> None:
    """Every type the table does not name exactly, in the order the
    wire format gives subclasses their tag."""
    if isinstance(value, int):
        _encode_int(out, value, depth)
    elif isinstance(value, float):
        _encode_real(out, value, depth)
    elif isinstance(value, HtmlText):
        _encode_html(out, value, depth)
    elif isinstance(value, str):
        _encode_text(out, value, depth)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _encode_binary(out, value, depth)
    elif isinstance(value, (list, tuple)):
        _encode_list(out, value, depth)
    elif isinstance(value, dict):
        _encode_mapping(out, value, depth)
    elif isinstance(value, Reference):
        _encode_reference(out, value, depth)
    elif hasattr(value, "guid"):
        # an object: by-identity, tagged with its home site if it has one
        site = getattr(value, "site_id", "") or getattr(value, "site", "")
        _encode(out, Reference(str(value.guid), str(site)), depth)
    else:
        raise MarshalError(
            f"value of type {type(value).__name__} has no wire representation"
        )


#: the encoder of each exactly-matched type; None, True and False are
#: their types' only instances, so no identity test is needed
_ENCODERS: dict[type, Any] = {
    type(None): _encode_null,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_real,
    str: _encode_text,
    bytes: _encode_binary,
    bytearray: _encode_binary,
    memoryview: _encode_binary,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_mapping,
    Reference: _encode_reference,
}


def marshal(value: Any) -> bytes:
    """Encode one weakly-typed value as a complete wire message."""
    out = _checkout_buffer()
    try:
        out += MAGIC
        _encode(out, value, 0)
        return bytes(out)
    finally:
        _release_buffer(out)


class MarshalFrame:
    """A complete wire message exposed as a memoryview over a pooled
    buffer — the zero-copy sibling of :func:`marshal`.

    ``frame.view`` is byte-identical to ``marshal(value)`` but involves
    no ``bytes`` copy; a consumer that can write a memoryview (socket
    ``sendall``, file ``write``) ships the pooled buffer directly.
    The buffer stays checked out of the pool until :meth:`release`
    (or context-manager exit) — releasing invalidates the view, so a
    consumer that needs the bytes past the frame's lifetime must
    :meth:`tobytes` first.
    """

    __slots__ = ("view", "_buf")

    def __init__(self, buf: bytearray):
        self._buf = buf
        self.view: memoryview = memoryview(buf)

    def __len__(self) -> int:
        return len(self._buf) if self._buf is not None else 0

    def tobytes(self) -> bytes:
        return bytes(self.view)

    def release(self) -> None:
        """Return the buffer to the pool (idempotent)."""
        buf, self._buf = self._buf, None
        if buf is None:
            return
        self.view.release()  # a live export would block the pool's clear()
        _release_buffer(buf)

    def __enter__(self) -> "MarshalFrame":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def marshal_frame(value: Any) -> MarshalFrame:
    """Encode *value* into a pooled buffer without the final copy."""
    out = _checkout_buffer()
    try:
        out += MAGIC
        _encode(out, value, 0)
    except BaseException:
        _release_buffer(out)
        raise
    return MarshalFrame(out)


def marshalled_size(value: Any) -> int:
    """Size in bytes of the wire form (the network cost model input)."""
    return len(marshal(value))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MarshalError(f"invalid UTF-8 payload: {exc}") from exc


#: the value of each one-byte zig-zag varint
_ONE_BYTE_INTS = tuple(_unzigzag(raw) for raw in range(0x80))
_CONSTANTS = {_TAG_NULL: None, _TAG_TRUE: True, _TAG_FALSE: False}


def _decode(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    """One value at *offset* of *data* (bytes), and the offset past it."""
    if depth > 64:
        raise MarshalError(_NESTING_ERROR)
    size = len(data)
    if offset >= size:
        raise MarshalError("truncated message")
    tag = data[offset]
    offset += 1
    # tags in the order they arrive: per rmi_sim op (seed 1), 22.6 texts,
    # 4.4 mappings, 2.4 N/T/F, 1.6 ints, 1.4 lists, 0.7 binaries
    if tag == _TAG_TEXT:
        length = data[offset] if offset < size else 0x80
        if length < 0x80:
            offset += 1
        else:
            length, offset = _read_varint(data, offset)
        end = offset + length
        if end > size:
            raise MarshalError("truncated payload")
        raw = data[offset:end]
        if length <= _INTERN_MAX_CHARS:
            text = _DECODE_INTERN.get(raw)
            if text is None:
                text = _text(raw)
                if len(_DECODE_INTERN) >= _INTERN_CAP:
                    _DECODE_INTERN.clear()
                _DECODE_INTERN[raw] = text
            return text, end
        return _text(raw), end
    if tag == _TAG_MAPPING:
        count = data[offset] if offset < size else 0x80
        if count < 0x80:
            offset += 1
        else:
            count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            raise MarshalError(f"mapping length {count} exceeds limit")
        mapping = {}
        if not count:
            return mapping, offset
        if depth >= 64:
            raise MarshalError(_NESTING_ERROR)
        depth += 1
        for _ in range(count):
            key, offset = _decode(data, offset, depth)
            value, offset = _decode(data, offset, depth)
            try:
                mapping[key] = value
            except TypeError as exc:
                raise MarshalError(f"unhashable mapping key {key!r}") from exc
        return mapping, offset
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], offset
    if tag == _TAG_INT:
        raw = data[offset] if offset < size else 0x80
        if raw < 0x80:
            return _ONE_BYTE_INTS[raw], offset + 1
        raw, offset = _read_varint(data, offset)
        return _unzigzag(raw), offset
    if tag == _TAG_LIST:
        count = data[offset] if offset < size else 0x80
        if count < 0x80:
            offset += 1
        else:
            count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            raise MarshalError(f"list length {count} exceeds limit")
        elements = []
        if not count:
            return elements, offset
        if depth >= 64:
            raise MarshalError(_NESTING_ERROR)
        depth += 1
        append = elements.append
        for _ in range(count):
            element, offset = _decode(data, offset, depth)
            append(element)
        return elements, offset
    if tag in (_TAG_BINARY, _TAG_REFERENCE, _TAG_HTML):
        length, offset = _read_varint(data, offset)
        end = offset + length
        if end > size:
            raise MarshalError("truncated payload")
        if tag == _TAG_BINARY:
            return data[offset:end], end
        text = _text(data[offset:end])
        if tag == _TAG_HTML:
            return HtmlText(text), end
        site, _sep, guid = text.partition("|")
        if not guid:
            raise MarshalError(f"malformed reference payload {text!r}")
        return Reference(guid, site), end
    if tag == _TAG_REAL:
        if offset + 8 > size:
            raise MarshalError("truncated real")
        return _unpack_real(data, offset)[0], offset + 8
    raise MarshalError(f"unknown tag byte 0x{tag:02x}")


def unmarshal(message: bytes | bytearray | memoryview) -> Any:
    """Decode a complete wire message; strict about framing.

    Accepts a :class:`memoryview` (e.g. a :class:`MarshalFrame` view)
    or a bytearray as well as bytes: the message is copied to bytes
    once, so every payload below is a plain slice.
    """
    if not isinstance(message, bytes):
        message = bytes(message)
    if not message.startswith(MAGIC):
        raise MarshalError("bad magic: not an MRM1 message")
    value, offset = _decode(message, len(MAGIC), 0)
    if offset != len(message):
        raise MarshalError(f"{len(message) - offset} bytes of trailing garbage")
    return value


# ---------------------------------------------------------------------------
# lazy decoding: skip-scan framing, decode on first touch
# ---------------------------------------------------------------------------
#
# A migration package is a mapping of sections of items, and a receiving
# site typically touches a handful of them before the object's first
# call (or none: a checkpoint restore that is never read again). The
# lazy path decodes structure on demand: containers become LazyList/
# LazyMapping wrappers that know only the *offsets* of their children
# (computed by a skip-scan that validates framing without building
# objects), and an untouched item value stays a LazyValue slice of the
# original message until something reads it. Unmarshal cost then scales
# with the state actually touched, not the object's size — while the
# wire bytes, and the values eventually produced, are identical to the
# eager path.


def _skip(data, offset: int, depth: int) -> int:
    """Advance past one encoded value, validating bounds only."""
    if depth > 64:
        raise MarshalError("value nesting exceeds 64 levels")
    if offset >= len(data):
        raise MarshalError("truncated message")
    tag = data[offset]
    offset += 1
    if tag in (_TAG_NULL, _TAG_TRUE, _TAG_FALSE):
        return offset
    if tag == _TAG_INT:
        _, offset = _read_varint(data, offset)
        return offset
    if tag == _TAG_REAL:
        if offset + 8 > len(data):
            raise MarshalError("truncated real")
        return offset + 8
    if tag in (_TAG_TEXT, _TAG_HTML, _TAG_BINARY, _TAG_REFERENCE):
        length, offset = _read_varint(data, offset)
        if offset + length > len(data):
            raise MarshalError("truncated payload")
        return offset + length
    if tag == _TAG_LIST:
        count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            raise MarshalError(f"list length {count} exceeds limit")
        for _ in range(count):
            offset = _skip(data, offset, depth + 1)
        return offset
    if tag == _TAG_MAPPING:
        count, offset = _read_varint(data, offset)
        if count > MAX_COLLECTION:
            raise MarshalError(f"mapping length {count} exceeds limit")
        for _ in range(count):
            offset = _skip(data, offset, depth + 1)
            offset = _skip(data, offset, depth + 1)
        return offset
    raise MarshalError(f"unknown tag byte 0x{tag:02x}")


class LazyValue(LazyCell):
    """One deferred value: a (message, offset) slice decoded on demand."""

    __slots__ = ("_data", "_offset", "_value", "_materialized")

    def __init__(self, data: bytes, offset: int):
        self._data = data
        self._offset = offset
        self._value: Any = None
        self._materialized = False

    def materialize(self) -> Any:
        if not self._materialized:
            self._value, _ = _decode(self._data, self._offset, 0)
            self._materialized = True
            self._data = b""  # drop the message reference once decoded
        return self._value

    def __repr__(self) -> str:
        if self._materialized:
            return f"LazyValue({self._value!r})"
        return f"LazyValue(<wire @{self._offset}>)"


def _lazy_view(data: bytes, offset: int) -> Any:
    """The value at *offset*: containers wrapped lazily, scalars decoded.

    Building a container view skip-scans exactly its own subtree (so a
    corrupt subtree raises here, not at first touch), recording where
    each element starts; elements decode only when accessed.
    """
    tag = data[offset] if offset < len(data) else None
    if tag == _TAG_LIST:
        count, cursor = _read_varint(data, offset + 1)
        if count > MAX_COLLECTION:
            raise MarshalError(f"list length {count} exceeds limit")
        offsets = []
        for _ in range(count):
            offsets.append(cursor)
            cursor = _skip(data, cursor, 1)
        return LazyList(data, offset, cursor, offsets)
    if tag == _TAG_MAPPING:
        count, cursor = _read_varint(data, offset + 1)
        if count > MAX_COLLECTION:
            raise MarshalError(f"mapping length {count} exceeds limit")
        slots: dict[Any, int] = {}
        for _ in range(count):
            key, cursor = _decode(data, cursor, 1)  # keys decode eagerly
            try:
                slots[key] = cursor  # duplicate keys: later wins, as eager
            except TypeError as exc:
                raise MarshalError(f"unhashable mapping key {key!r}") from exc
            cursor = _skip(data, cursor, 1)
        return LazyMapping(data, offset, cursor, slots)
    value, _ = _decode(data, offset, 0)
    return value


class LazyList(Sequence):
    """A wire list whose elements decode on first access."""

    __slots__ = ("_data", "_start", "_end", "_offsets", "_cache")

    def __init__(self, data: bytes, start: int, end: int, offsets: list[int]):
        self._data = data
        self._start = start
        self._end = end
        self._offsets = offsets
        self._cache: dict[int, Any] = {}

    def __len__(self) -> int:
        return len(self._offsets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self._offsets)
        if index in self._cache:
            return self._cache[index]
        value = _lazy_view(self._data, self._offsets[index])
        self._cache[index] = value
        return value

    def __repr__(self) -> str:
        return f"LazyList({len(self._offsets)} elements)"


class LazyMapping(Mapping):
    """A wire mapping: keys eager (they index), values decode on touch.

    ``lazy(key)`` hands out the value as a :class:`LazyValue` cell
    without decoding it at all — the hook the mobility layer uses to
    keep untouched item values as undisturbed wire slices.
    """

    __slots__ = ("_data", "_start", "_end", "_slots", "_cache")

    def __init__(self, data: bytes, start: int, end: int, slots: dict[Any, int]):
        self._data = data
        self._start = start
        self._end = end
        self._slots = slots
        self._cache: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __iter__(self) -> Iterator:
        return iter(self._slots)

    def __getitem__(self, key):
        if key in self._cache:
            return self._cache[key]
        value = _lazy_view(self._data, self._slots[key])
        self._cache[key] = value
        return value

    def __contains__(self, key) -> bool:
        # the Mapping default probes __getitem__, which would *decode*
        # the value — membership must stay a pure slot lookup
        return key in self._slots

    def lazy(self, key) -> LazyValue:
        """The value under *key* as an undecoded cell."""
        return LazyValue(self._data, self._slots[key])

    def __repr__(self) -> str:
        return f"LazyMapping({list(self._slots)!r})"


def unmarshal_lazy(message: bytes | bytearray | memoryview) -> Any:
    """Decode a wire message lazily: framing validated now (same bounds
    checks as the eager decoder, via the skip-scan), values on demand.

    The message is snapshotted to immutable bytes if it arrived as a
    mutable buffer — lazy slices must outlive any pooled buffer they
    were read from.
    """
    if not isinstance(message, bytes):
        message = bytes(message)
    if not message.startswith(MAGIC):
        raise MarshalError("bad magic: not an MRM1 message")
    start = len(MAGIC)
    if start >= len(message):
        raise MarshalError("truncated message")
    # one pass only: building a container view skip-validates its whole
    # subtree, so the top-level view's end doubles as the framing check
    if message[start] in (_TAG_LIST, _TAG_MAPPING):
        view = _lazy_view(message, start)
        end = view._end
    else:
        view, end = _decode(message, start, 0)
    if end != len(message):
        raise MarshalError(f"{len(message) - end} bytes of trailing garbage")
    return view


def materialize_deep(value: Any) -> Any:
    """Recursively force a (possibly lazy) decoded value to plain data."""
    if isinstance(value, LazyCell):
        return materialize_deep(value.materialize())
    if isinstance(value, (LazyMapping, LazyList)):
        # decode the whole subtree straight off the wire — one tight
        # eager pass instead of element-by-element lazy dispatch
        plain, _ = _decode(value._data, value._start, 0)
        return plain
    if isinstance(value, dict):
        return {key: materialize_deep(val) for key, val in value.items()}
    if isinstance(value, list):
        return [materialize_deep(element) for element in value]
    return value

"""Regenerate the MRM1 wire golden corpus.

Run from the repo root::

    PYTHONPATH=src python tests/net/corpus/_generate.py

Every sample of :data:`VALID` is written as ``<name>.mrm``, the bytes
``marshal`` gives its value; every sample of :data:`REJECT` is a
hand-made message written as ``<name>.mrm``, and ``MANIFEST.json``
records the exact ``MarshalError`` message the decoder raised for it.
The corpus pins the wire format: if an encoder or decoder change moves
a byte or an error, ``test_marshal_differential.py`` fails against
these files, and this script must be re-run deliberately (and the diff
reviewed as a format change). Re-running it on an unchanged codec
rewrites identical files.

(The filename starts with ``_`` so pytest's ``bench_*/test_*`` globs
never collect it; the test loads the sample values from it by path.)
"""

from __future__ import annotations

import enum
import json
from collections import OrderedDict
from pathlib import Path

from repro.core.errors import MarshalError
from repro.core.values import HtmlText
from repro.net.marshal import Reference, marshal, unmarshal

CORPUS = Path(__file__).resolve().parent


class Level(enum.IntEnum):
    LOW = 3
    HIGH = 300


class Guest:
    """Anything with a guid travels by identity, as a reference."""

    def __init__(self, guid: str, site_id: str = ""):
        self.guid = guid
        self.site_id = site_id


def nested(depth: int, leaf):
    value = leaf
    for _ in range(depth):
        value = [value]
    return value


CALLER = {"guid": "mrom://c/0.0", "domain": "bench.client", "name": "c"}

#: name -> a function making the value whose encoding is pinned
VALID = {
    "null": lambda: None,
    "true": lambda: True,
    "false": lambda: False,
    "int_zero": lambda: 0,
    "int_small": lambda: 5,
    "int_negative": lambda: -7,
    "int_one_byte_edges": lambda: [63, -64, 64, -65],
    "int_table_edges": lambda: [-64, 256, 257, -65, 1000],
    "int_large": lambda: 2**70,
    "int_large_negative": lambda: -12345678901234567890,
    "int_enum": lambda: [Level.LOW, Level.HIGH],
    "real": lambda: 1.5,
    "real_specials": lambda: [-0.0, float("nan"), float("inf"), float("-inf")],
    "text_empty": lambda: "",
    "text_short": lambda: "bump",
    "text_64": lambda: "x" * 64,
    "text_65": lambda: "x" * 65,
    "text_multibyte_32": lambda: "é" * 32,
    "text_multibyte_64": lambda: "é" * 64,
    "text_unicode": lambda: "עברית ∑ 🙂",
    "html": lambda: HtmlText("<b>42</b>"),
    "binary_empty": lambda: b"",
    "binary_short": lambda: b"\x00\xff",
    "binary_two_byte_length": lambda: bytes(range(256)) * 2,
    "bytearray": lambda: bytearray(b"\x01\x02\x03"),
    "memoryview": lambda: memoryview(b"view"),
    "list_empty": lambda: [],
    "list_mixed": lambda: [None, True, False, 1, -1, 2.5, "s", b"b", [], {}],
    "list_two_byte_count": lambda: list(range(130)),
    "tuple": lambda: (1, (2, 3), "t"),
    "mapping_empty": lambda: {},
    "mapping_text_keys": lambda: {"a": 1, "b": [2], "c": {"d": None}},
    "mapping_other_keys": lambda: {
        1: "int", None: "null", False: "false", 2.5: "real", b"k": "binary",
        HtmlText("<i>k</i>"): "html", Reference("g1", "s"): "reference",
    },
    "mapping_two_byte_count": lambda: {f"k{index}": index for index in range(130)},
    "ordered_dict": lambda: OrderedDict([("z", 1), ("a", 2)]),
    "reference": lambda: Reference("mrom://a/1.1", "a"),
    "reference_no_site": lambda: Reference("mrom://a/1.2", ""),
    "guid_object": lambda: [Guest("mrom://b/2.2", "b"), Guest("mrom://b/2.3")],
    "nesting_64": lambda: nested(64, 7),
    "nesting_64_mapping": lambda: {"m": nested(62, {"leaf": "x"})},
    "request": lambda: {
        "target": "mrom://s1/3.3", "method": "bump", "args": [3],
        "caller": dict(CALLER),
    },
    "reply": lambda: {"ok": True, "result": 3},
    "reply_error": lambda: {
        "ok": False, "error": "AccessDenied", "message": "no INVOKE on bump",
    },
    "describe_reply": lambda: {
        "ok": True,
        "result": {
            "guid": "mrom://s0/1.1", "display_name": "counter0",
            "extensible_meta": False, "tower_depth": 0,
            "items": [
                {"name": "count", "category": "data", "portable": True,
                 "version": 1, "acl": {"default_allow": False, "entries": [
                     {"subject": "*", "permissions": ["GET", "SET"],
                      "decision": "allow"}]},
                 "metadata": {}},
            ],
            "counts": {"fixed_data": 1, "fixed_methods": 11},
        },
    },
}

#: name -> a message no decoder may accept
REJECT = {
    "bad_magic": b"MRM2N",
    "magic_only": b"MRM1",
    "unknown_tag": b"MRM1Z",
    "truncated_varint": b"MRM1I\x80",
    "truncated_text": b"MRM1S\x05ab",
    "truncated_text_in_mapping": b"MRM1M\x01S\x04bump",
    "truncated_real": b"MRM1R\x00\x01",
    "truncated_list": b"MRM1L\x03I\x02",
    "invalid_utf8": b"MRM1S\x02\xff\xfe",
    "invalid_utf8_key": b"MRM1M\x01S\x01\xffN",
    "malformed_reference": b"MRM1G\x03abc",
    "list_over_limit": b"MRM1L\x81\x89\x3d",
    "mapping_over_limit": b"MRM1M\x81\x89\x3d",
    "trailing_garbage": b"MRM1NN",
    "unhashable_list_key": b"MRM1M\x01L\x02I\x02I\x04I\x06",
    "unhashable_mapping_key": b"MRM1M\x01M\x00N",
    "nesting_65_leaf": b"MRM1" + b"L\x01" * 65 + b"N",
    "nesting_65_text": b"MRM1" + b"L\x01" * 65 + b"S\x01a",
    "nesting_65_in_mapping": b"MRM1" + b"M\x01S\x01k" * 65 + b"I\x02",
    "multibyte_64_truncated": b"MRM1S\x80\x01" + "é".encode("utf-8") * 63,
}


def main() -> None:
    for stale in CORPUS.glob("*.mrm"):
        stale.unlink()
    for name, build in VALID.items():
        (CORPUS / f"{name}.mrm").write_bytes(marshal(build()))
    errors = {}
    for name, message in REJECT.items():
        (CORPUS / f"{name}.mrm").write_bytes(message)
        try:
            unmarshal(message)
        except MarshalError as exc:
            errors[name] = str(exc)
        else:
            raise SystemExit(f"reject sample {name!r} decoded")
    manifest = {"valid": sorted(VALID), "reject": errors}
    (CORPUS / "MANIFEST.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()

"""Canonical JSON: the one serialization used for digests and reports.

Sorted keys, no whitespace, ASCII-only. Two equal documents always yield
the same bytes, which is what makes report digests and fingerprints
comparable across runs. NaN and ±Infinity are refused with `ValueError`:
they are not JSON, and a digest must not quietly cover them.

`canonical_json` is one call into `json`'s C encoder, built once at import
with `_ENCODER`'s options; `_ENCODER.encode`, which builds a fresh one per
call through a Python-level wrapper, is the reference its bytes are
tested against. The one encoder shares one `markers` dict (the
ids of the containers being encoded, its circular-reference check), so
it assumes one encoding at a time: two threads encoding the same
container at once could see a false "Circular reference detected". An
encode that raises leaves its containers in `markers`, so `markers` is
cleared before the error propagates; without that, encoding the same
container again, once fixed, would be refused as circular.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)

_MARKERS: dict[int, object] = {}
_C = c_make_encoder(
    _MARKERS, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan,
)


def canonical_json(obj) -> str:
    try:
        return "".join(_C(obj, 0))  # chunks: a list up to 3.11, a 1-tuple from 3.12
    except BaseException:
        _MARKERS.clear()
        raise


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(obj) -> str:
    """Short stable hash of a document; used for component fingerprints."""
    return sha256_hex(canonical_json(obj))[:16]

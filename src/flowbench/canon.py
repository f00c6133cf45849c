"""Canonical JSON: the one serialization used for digests and reports.

Sorted keys, no whitespace, ASCII-only. Two equal documents always yield
the same bytes, which is what makes report digests and fingerprints
comparable across runs. NaN and ±Infinity are refused with `ValueError`:
they are not JSON, and a digest must not quietly cover them.

Unless a flat encoder (below) answers, `canonical_json` is one call
into `json`'s C encoder, built once at import with `_ENCODER`'s options;
`_ENCODER.encode`, which builds a fresh one per call through a
Python-level wrapper, is the reference its bytes are tested against.
The one encoder shares one `markers` dict (the
ids of the containers being encoded, its circular-reference check), so
it assumes one encoding at a time: two threads encoding the same
container at once could see a false "Circular reference detected". An
encode that raises leaves its containers in `markers`, so `markers` is
cleared before the error propagates; without that, encoding the same
container again, once fixed, would be refused as circular.

Observations are mostly small flat dicts, of one shape per kind, for
which the C encoder is mostly call overhead. `flat_encoder(sample)`
compiles a function for one such shape; it returns the `canonical_json`
text of a dict of that shape and None for anything else, and
`canonical_json(obj, flat)` then falls back to the C encoder, the one
place that refuses NaN and ±Infinity. Both are tested against
`_ENCODER.encode`. A key is found by lookup, so a `str` subclass key
stands for its `str`, as in the C encoder, unless it sorts otherwise.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Callable

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)

_MARKERS: dict[int, object] = {}
_C = c_make_encoder(
    _MARKERS, _ENCODER.default, encode_basestring_ascii, _ENCODER.indent,
    _ENCODER.key_separator, _ENCODER.item_separator, _ENCODER.sort_keys,
    _ENCODER.skipkeys, _ENCODER.allow_nan,
)


def canonical_json(obj, flat=None) -> str:
    """`obj` as canonical JSON text: `flat(obj)` when `flat` (a
    `flat_encoder`) gives one, else the C encoder's."""
    if flat is not None:
        text = flat(obj)
        if text is not None:
            return text
    try:
        return "".join(_C(obj, 0))  # chunks: a list up to 3.11, a 1-tuple from 3.12
    except BaseException:
        _MARKERS.clear()
        raise


# How a value of each flat type enters an encoder's f-string; `%s` is its variable.
_FLAT_VALUES = {bool: "{T if %s else F}", int: "{%s}", float: "{%s!r}", str: "{esc(%s)}"}


def flat_encoder(sample) -> Callable[[object], str | None] | None:
    """An encoder compiled, with `exec`, for the shape of `sample`: its
    `str` keys and the exact type of each value, `bool`, `int`, `float` or
    `str`. None if `sample` is not a non-empty dict of that kind.

    Given a dict of exactly those keys and value types, with finite
    floats, the encoder returns its text from one f-string, else None. Key
    `i` in sorted order is the global `k{i}` and the text before its
    value, `{"key":` or `,"key":`, the global `t{i}`: no key reaches the
    source. For an exact int or float, `{v}` and `{v!r}` give the texts
    the C encoder writes; a float that is not finite fails `v - v == 0.0`.
    The encoder is not kept in its own globals, so it is no reference cycle.
    """
    if type(sample) is not dict or not sample:
        return None
    if not all(type(k) is str for k in sample) or not all(type(v) in _FLAT_VALUES for v in sample.values()):
        return None
    names = {"T": "true", "F": "false", "esc": encode_basestring_ascii}
    reads, tests, parts = [], [], []
    for i, key in enumerate(sorted(sample)):
        kind = type(sample[key])
        names[f"k{i}"], names[f"t{i}"] = key, ("," if i else "{") + encode_basestring_ascii(key) + ":"
        reads.append(f"v{i} = d[k{i}]")
        tests.append(f"type(v{i}) is {kind.__name__}" + (f" and v{i} - v{i} == 0.0" if kind is float else ""))
        parts.append(f"{{t{i}}}" + _FLAT_VALUES[kind] % f"v{i}")
    source = (
        "def encode(d):\n"
        f"    if type(d) is dict and len(d) == {len(reads)}:\n"
        "        try:\n"
        f"            {'; '.join(reads)}\n"
        "        except KeyError:\n"
        "            return None\n"
        f"        if {' and '.join(tests)}:\n"
        f"            return f'{''.join(parts)}}}}}'\n"
    )
    exec(compile(source, "<flat encoder>", "exec"), names)
    return names.pop("encode")


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(obj) -> str:
    """Short stable hash of a document; used for component fingerprints."""
    return sha256_hex(canonical_json(obj))[:16]

"""Canonical JSON: the one serialization used for digests and reports.

Sorted keys, no whitespace, ASCII-only. Two equal documents always yield
the same bytes, which is what makes report digests and fingerprints
comparable across runs. NaN and ±Infinity are refused with `ValueError`:
they are not JSON, and a digest must not quietly cover them.
"""

from __future__ import annotations

import hashlib
import json

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True, allow_nan=False)


def canonical_json(obj) -> str:
    return _ENCODER.encode(obj)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fingerprint(obj) -> str:
    """Short stable hash of a document; used for component fingerprints."""
    return sha256_hex(canonical_json(obj))[:16]

"""Stable content fingerprints.

A fingerprint is the first 64 bits of a SHA-256 digest over a canonical
JSON encoding (sorted keys, tight separators, ASCII only), so equal
definitions hash equally across runs and platforms regardless of
PYTHONHASHSEED.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from itertools import islice
from typing import Any

_CHUNK = 512  # array elements encoded per call when streaming


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def stable_fingerprint(payload: Any) -> str:
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    return digest[:16]


def streamed_fingerprint(fields: dict[str, Any]) -> str:
    """``stable_fingerprint(fields)``, without building the whole encoding.

    A value that is an iterator is encoded as a JSON array a chunk of
    elements at a time, so neither its list nor its text exists whole; every
    other value is encoded in one piece. The digest equals the one-shot one.
    """
    digest = hashlib.sha256()
    separator = "{"
    for key in sorted(fields):
        digest.update(f"{separator}{canonical_json(key)}:".encode("ascii"))
        separator = ","
        value = fields[key]
        if not isinstance(value, Iterator):
            digest.update(canonical_json(value).encode("ascii"))
            continue
        digest.update(b"[")
        comma = ""
        while chunk := list(islice(value, _CHUNK)):
            digest.update((comma + canonical_json(chunk)[1:-1]).encode("ascii"))
            comma = ","
        digest.update(b"]")
    digest.update(b"}" if fields else b"{}")
    return digest.hexdigest()[:16]

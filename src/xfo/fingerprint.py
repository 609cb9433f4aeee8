"""Stable content fingerprints.

A fingerprint is the first 64 bits of a SHA-256 digest over a canonical
JSON encoding (sorted keys, tight separators, ASCII only), so equal
definitions hash equally across runs and platforms regardless of
PYTHONHASHSEED. The encoding writes a dataclass instance as the object of
its dataclass fields by name, and a tuple as an array. A registry's payload
maps each schema name to its schema so encoded, plus a ``__type__`` key
naming the schema's class; the schemas nested in it carry no ``__type__``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Iterator
from functools import cache
from itertools import islice
from typing import Any

_CHUNK = 512  # array elements encoded per call when streaming


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def dataclass_fields(obj: Any) -> dict[str, Any]:
    """A dataclass instance's fields by name; the values are not copied."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def canonical_json(payload: Any) -> str:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
        default=dataclass_fields,
    )


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

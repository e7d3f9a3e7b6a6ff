"""Typed JSON encoding and payload hashing for stored cell results.

Cell keys and results may contain tuples and non-string dict keys
(e.g. the OSU curves are ``dict[int, float]``), which plain JSON cannot
represent, so values round-trip through a small typed encoding
(:func:`encode_value` / :func:`decode_value`).  :func:`payload_hash`
digests a cell's ``(worker, args)`` payload.  Both feed the
content-addressed cell store (:mod:`repro.harness.cellstore`), whose
keys also hash :data:`FORMAT_VERSION`.
"""

from __future__ import annotations

import hashlib
import json
import typing as _t

#: Version of the typed encoding.  Part of every cell-store key
#: (:func:`repro.harness.cellstore.store_key`), so bumping it re-keys
#: every existing store; bump only when the encoding changes.
FORMAT_VERSION = 2


def encode_value(obj: _t.Any) -> _t.Any:
    """JSON-encodable form of ``obj`` that survives a round trip.

    Tuples become ``{"__tuple__": [...]}`` and dicts with non-string
    (or marker-colliding) keys become ``{"__dict__": [[k, v], ...]}``;
    everything else must already be JSON-representable.
    """
    if isinstance(obj, tuple):
        return {"__tuple__": [encode_value(v) for v in obj]}
    if isinstance(obj, list):
        return [encode_value(v) for v in obj]
    if isinstance(obj, dict):
        if all(isinstance(k, str) and not k.startswith("__") for k in obj):
            return {k: encode_value(v) for k, v in obj.items()}
        return {
            "__dict__": [[encode_value(k), encode_value(v)] for k, v in obj.items()]
        }
    return obj


def decode_value(obj: _t.Any) -> _t.Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(obj, list):
        return [decode_value(v) for v in obj]
    if isinstance(obj, dict):
        if set(obj) == {"__tuple__"}:
            return tuple(decode_value(v) for v in obj["__tuple__"])
        if set(obj) == {"__dict__"}:
            return {decode_value(k): decode_value(v) for k, v in obj["__dict__"]}
        return {k: decode_value(v) for k, v in obj.items()}
    return obj


def payload_hash(worker: str, args: _t.Sequence[_t.Any]) -> str:
    """Stable 32-hex digest of a cell's full payload (worker name + arguments).

    Guards the store against key collisions: a stored result is only
    served when the cell would re-run the exact same computation.
    """
    blob = json.dumps(
        [worker, encode_value(tuple(args))], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

"""Versioned artifact serialization for the persistent store.

Every on-disk artifact is a small JSON header line followed by a pickle
payload.  The header carries the store format version, the content
key, the artifact *kind* (netlist, schedule, bitstream, softcore
binary, link configuration, …) and a SHA-256 digest over a canonical
encoding of those three fields plus the payload.  Readers recompute it
and refuse anything that does not match, so a truncated or bit-flipped
cache file — header or payload — degrades to a miss instead of
poisoning a build.

Bumping :data:`STORE_VERSION` invalidates old files wholesale — a
version mismatch (:class:`~repro.errors.StaleFormatError`) is treated
as a miss, never as an error, so upgrading the toolflow silently falls
back to a cold rebuild.  Version 1 digests covered the payload only.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from typing import Any, Iterable, List, Tuple

from repro.errors import StaleFormatError, StoreError

#: On-disk format version.  Bump when artefact classes change shape.
STORE_VERSION = 2

#: Header/payload separator (the header is a single JSON line).
_SEP = b"\n"


#: Header kind of each cached artefact class, by class name.
_KINDS = {
    "Netlist": "netlist",
    "Schedule": "schedule",
    "Bitstream": "bitstream",
    "CompiledOperator": "softcore-binary",
    "LinkConfiguration": "link-configuration",
    "ImplementationResult": "implementation",
}


def artifact_kind(artifact: Any) -> str:
    """Classify an artefact for the header (best effort, by type name).

    The kind is metadata for humans and reports; lookups are keyed
    purely by content hash, so an unknown type is fine ("object").
    Matching names rather than classes keeps every encode from
    importing the six packages that define them.
    """
    kind = _KINDS.get(type(artifact).__name__)
    if kind is not None:
        return kind
    return "bundle" if isinstance(artifact, tuple) else "object"


def _digest(version: Any, key: Any, kind: Any, payload: bytes) -> str:
    """SHA-256 over the canonical header fields, then the payload."""
    head = json.dumps({"version": version, "key": key, "kind": kind},
                      sort_keys=True)
    digest = hashlib.sha256(head.encode() + _SEP)
    digest.update(payload)
    return digest.hexdigest()


def encode_artifact(key: str, artifact: Any) -> bytes:
    """Serialize one artefact to the versioned on-disk format."""
    try:
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise StoreError(
            f"artifact {key!r} ({type(artifact).__name__}) is not "
            f"serializable: {exc}") from exc
    kind = artifact_kind(artifact)
    header = {
        "version": STORE_VERSION,
        "key": key,
        "kind": kind,
        "sha256": _digest(STORE_VERSION, key, kind, payload),
    }
    return json.dumps(header, sort_keys=True).encode() + _SEP + payload


def decode_artifact(data: bytes, expect_key: str = "") -> Tuple[str, Any]:
    """Parse, verify and unpickle one stored artefact.

    Returns ``(kind, artifact)``.  Raises :class:`StoreError` on any
    integrity problem: bad header, version mismatch (as its subclass
    :class:`StaleFormatError`), digest mismatch (the header-and-payload
    re-hash), wrong key, or an unpicklable payload.
    """
    head, sep, payload = data.partition(_SEP)
    if not sep:
        raise StoreError("stored artifact has no header/payload split")
    try:
        header = json.loads(head.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreError(f"corrupt artifact header: {exc}") from exc
    if not isinstance(header, dict):
        # json.loads happily returns scalars/lists; garbage input must
        # surface as the structured error, never an AttributeError.
        raise StoreError(
            f"corrupt artifact header: {type(header).__name__}, "
            f"expected object")
    if header.get("version") != STORE_VERSION:
        raise StaleFormatError(
            f"store version mismatch: file has "
            f"{header.get('version')!r}, tool speaks {STORE_VERSION}")
    if expect_key and header.get("key") != expect_key:
        raise StoreError(
            f"artifact key mismatch: file claims {header.get('key')!r}, "
            f"expected {expect_key!r}")
    digest = _digest(STORE_VERSION, header.get("key"), header.get("kind"),
                     payload)
    if digest != header.get("sha256"):
        raise StoreError(
            f"artifact {header.get('key')!r} failed its integrity "
            f"re-hash (stored {header.get('sha256')!r}, got {digest!r})")
    try:
        artifact = pickle.loads(payload)
    except Exception as exc:
        raise StoreError(
            f"artifact {header.get('key')!r} failed to deserialize: "
            f"{exc}") from exc
    return header.get("kind", "object"), artifact


def pack_artifacts(items: Iterable[Tuple[str, Any]]
                   ) -> Tuple[List[str], List[int], bytes]:
    """Concatenate encodings for a batched (multi_get/multi_put) frame.

    Returns ``(keys, sizes, payload)``: the frame header carries the
    parallel ``keys``/``sizes`` lists and the payload is the encodings
    back to back, so one frame moves a whole batch while each artefact
    keeps its own header and digest (the per-item trust boundary is
    unchanged).
    """
    keys: List[str] = []
    sizes: List[int] = []
    chunks: List[bytes] = []
    for key, artifact in items:
        blob = encode_artifact(key, artifact)
        keys.append(key)
        sizes.append(len(blob))
        chunks.append(blob)
    return keys, sizes, b"".join(chunks)


def unpack_artifacts(keys: List[str], sizes: List[int], payload: bytes
                     ) -> List[Tuple[str, Any]]:
    """Split and verify a batched payload back into ``(key, artifact)``.

    Every item goes through :func:`decode_artifact` (re-hash included);
    mismatched keys/sizes lists or a payload whose length disagrees
    with ``sizes`` raise :class:`StoreError` before anything decodes.
    """
    if len(keys) != len(sizes):
        raise StoreError(
            f"batched frame is torn: {len(keys)} keys vs "
            f"{len(sizes)} sizes")
    if sum(sizes) != len(payload):
        raise StoreError(
            f"batched frame is torn: sizes sum to {sum(sizes)} but "
            f"payload is {len(payload)} bytes")
    out: List[Tuple[str, Any]] = []
    offset = 0
    for key, size in zip(keys, sizes):
        if size < 0:
            raise StoreError(f"batched frame has negative size {size}")
        blob = payload[offset:offset + size]
        offset += size
        _kind, artifact = decode_artifact(blob, expect_key=key)
        out.append((key, artifact))
    return out

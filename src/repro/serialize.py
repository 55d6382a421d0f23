"""Self-describing binary containers for on-disk campaign artifacts.

The distributed-campaign subsystem ships Python object graphs between
processes and hosts — checkpoint plans (`repro.kernel.checkpoint`) and
shard results (`repro.distributed.shards`).  Both use the same container
layout so every artifact is versioned and identifiable without
unpickling anything:

* line 1 — ASCII magic: ``REPRO-ARTIFACT <format> <kind>`` (``format``
  is this module's container revision, ``kind`` names the payload);
* line 2 — a compact JSON header with sorted keys: whatever metadata the
  writer needs readers to validate *before* deserialising (fingerprints,
  shard coordinates, payload counts), plus ``sha256``, the digest of the
  header's other fields and the payload (below);
* the rest — a canonical pickle of the payload object.

**Corruption fails closed.**  :func:`read_container` recomputes the
digest over the canonical JSON of the header without ``sha256``, a
newline and the payload bytes, and raises :class:`ContainerError` on a
mismatch *before* unpickling, so a truncated file or a flipped bit
anywhere in the header or payload is a typed error rather than an
arbitrary unpickling exception or, worse, a silently different plan.
Files written by an earlier container format are refused by the format
check.

**Trust boundary**: the payload is Python pickle, so loading a
container *executes* whatever its bytes describe.  The digest detects
accidental corruption and authenticates nothing — anyone who can write
the file can write a matching digest — and header and fingerprint
validation authenticate nothing either.  Only read plans and shard
files produced by hosts you trust (the shard protocol assumes the
campaign operator controls every worker); treat a container from
anywhere else as untrusted code.

Canonical pickling
------------------

``pickle`` output is normally not deterministic for ``set`` and
``frozenset`` values: their iteration order depends on the interpreter's
string-hash seed, so the same plan saved twice could produce different
bytes.  :func:`canonical_dumps` pins that down by pickling every set as
its sorted element list (unsortable element mixes fall back to a
``repr``-keyed sort), at a fixed protocol.  Within one interpreter the
save → load → save cycle is therefore byte-stable, which the
serialization tests rely on; object aliasing inside one payload is
preserved exactly as pickle always preserves it (by identity memo).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import sys

MAGIC = "REPRO-ARTIFACT"

#: Container-layout revision (the magic line's ``format`` field).
#: Format 2 added the header's ``sha256`` digest.
CONTAINER_FORMAT = 2

#: Header key holding the container digest (reserved: writers' headers
#: must not use it).
DIGEST_KEY = "sha256"

#: Pinned pickle protocol: deterministic output and readable by every
#: Python this project supports.
PICKLE_PROTOCOL = 4


class ContainerError(ValueError):
    """A container file is malformed, unsupported, or of the wrong kind."""


def _sorted_elements(value) -> list:
    try:
        return sorted(value)
    except TypeError:
        return sorted(value, key=repr)


class _CanonicalPickler(pickle._Pickler):
    """Pickler emitting sets/frozensets in sorted element order.

    The C pickler serialises built-in containers directly — neither
    ``reducer_override`` nor ``dispatch_table`` intercepts ``set`` /
    ``frozenset`` there — so this subclasses the pure-Python pickler,
    whose per-type ``dispatch`` is overridable.  Payloads are a few
    hundred kilobytes at most; the speed difference is irrelevant.
    """

    dispatch = dict(pickle._Pickler.dispatch)

    def save(self, obj, save_persistent_id=True):
        # Canonicalise string identity: the pickler's memo shares
        # objects by id, so whether two equal strings pickle as one
        # reference depends on interning accidents of the object graph's
        # construction (instance-dict key sharing, parser interning...).
        # Routing every string through sys.intern makes sharing a
        # function of string *value* alone, which is what keeps repeated
        # saves of equal plans byte-identical.
        if type(obj) is str:
            obj = sys.intern(obj)
        return super().save(obj, save_persistent_id)

    def _save_set(self, obj):
        self.save_reduce(set, (_sorted_elements(obj),), obj=obj)

    def _save_frozenset(self, obj):
        self.save_reduce(frozenset, (_sorted_elements(obj),), obj=obj)

    dispatch[set] = _save_set
    dispatch[frozenset] = _save_frozenset


def canonical_dumps(payload) -> bytes:
    """Pickle ``payload`` with deterministic set ordering."""
    buffer = io.BytesIO()
    _CanonicalPickler(buffer, protocol=PICKLE_PROTOCOL).dump(payload)
    return buffer.getvalue()


def canonical_loads(data: bytes):
    return pickle.loads(data)


def _header_line(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def _digest(header: dict, body: bytes) -> str:
    """sha256 of ``header`` (canonical JSON), a newline and ``body``."""
    return hashlib.sha256(_header_line(header) + b"\n" + body).hexdigest()


def pack_container(kind: str, header: dict, payload) -> bytes:
    """The full container file contents for ``payload``."""
    if any(ch.isspace() for ch in kind):
        raise ContainerError(f"container kind {kind!r} must not contain spaces")
    if DIGEST_KEY in header:
        raise ContainerError(f"container header key {DIGEST_KEY!r} is reserved")
    body = canonical_dumps(payload)
    # Digest the header as a reader will parse it back (tuples become
    # lists, keys strings), so the reader's re-serialisation matches.
    sealed = json.loads(_header_line(header))
    sealed[DIGEST_KEY] = _digest(sealed, body)
    return (
        f"{MAGIC} {CONTAINER_FORMAT} {kind}\n".encode("ascii")
        + _header_line(sealed)
        + b"\n"
        + body
    )


def write_container(path, kind: str, header: dict, payload) -> None:
    """Write atomically: the file exists complete or not at all.

    Shard files double as completion markers — the resume workflow
    treats presence as "this shard finished" — so a crash mid-write
    must not leave a truncated container behind.
    """
    data = pack_container(kind, header, payload)
    staging = f"{path}.tmp"
    with open(staging, "wb") as handle:
        handle.write(data)
    os.replace(staging, path)


def read_header(path, kind: str | None = None) -> dict:
    """The container's JSON header — no payload deserialisation.

    ``kind`` (when given) must match the magic line's kind field.  The
    digest is checked only by :func:`read_container`; it is not part of
    the returned header.
    """
    with open(path, "rb") as handle:
        header, _ = _read_preamble(handle, path, kind)
    return header


def read_container(path, kind: str | None = None) -> tuple[dict, object]:
    """``(header, payload)`` of a container file, validated.

    The digest is checked before the payload is unpickled; any mismatch
    (truncation, corruption) raises :class:`ContainerError`.
    """
    with open(path, "rb") as handle:
        header, digest = _read_preamble(handle, path, kind)
        body = handle.read()
    if digest != _digest(header, body):
        raise ContainerError(
            f"{path}: container digest mismatch (truncated or corrupted)"
        )
    return header, canonical_loads(body)


def _read_preamble(handle, path, kind: str | None) -> tuple[dict, str]:
    """``(header without its digest, digest)``, validated."""
    magic_line = handle.readline()
    try:
        magic, fmt, found_kind = magic_line.decode("ascii").split()
        format_number = int(fmt)
    except (UnicodeDecodeError, ValueError):
        raise ContainerError(f"{path}: not a {MAGIC} container") from None
    if magic != MAGIC:
        raise ContainerError(f"{path}: not a {MAGIC} container")
    if format_number != CONTAINER_FORMAT:
        raise ContainerError(
            f"{path}: unsupported container format {fmt} "
            f"(this reader supports {CONTAINER_FORMAT})"
        )
    if kind is not None and found_kind != kind:
        raise ContainerError(
            f"{path}: container holds {found_kind!r}, expected {kind!r}"
        )
    header_line = handle.readline()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        raise ContainerError(f"{path}: malformed container header") from None
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: malformed container header")
    digest = header.pop(DIGEST_KEY, None)
    if not isinstance(digest, str):
        raise ContainerError(f"{path}: container header lacks its digest")
    return header, digest

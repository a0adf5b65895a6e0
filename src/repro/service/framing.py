"""Length-prefixed binary framing: the protocol-v3 transport.

A v3 connection exchanges *frames* instead of newline-terminated
lines. Every frame is a fixed 6-byte header followed by the payload::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       1     magic     0xF3 (never a JSON-lines first byte)
    1       1     version   0x03 (the framing layer's own version)
    2       4     length    payload byte count, big-endian uint32
    6       n     payload   one UTF-8 JSON message (no newline)

The payload is the same JSON object the line protocol carries — the
framing layer changes *transport*, not vocabulary — so every op,
error envelope and trace field documented in
:mod:`repro.service.protocol` applies unchanged.

Sniffing
--------
The magic byte ``0xF3`` is not valid as the first byte of any v1/v2
request: a JSON-lines request starts with ``{`` (0x7B) or
insignificant ASCII whitespace, and 0xF3 cannot begin a UTF-8
sequence that decodes to either. The socket front therefore *sniffs*
the first byte of each connection — 0xF3 selects the framed loop,
anything else the line loop — so one port
serves v1, v2 and v3 clients simultaneously and every pre-v3 client
stays byte-compatible.

Limits
------
Frames above ``max_frame`` (default 16 MiB) are refused with
:class:`~repro.exceptions.ServiceError` before the payload is read —
a defense against a corrupt or hostile length prefix, not a protocol
parameter.
"""

from __future__ import annotations

import struct

from repro.exceptions import ServiceError, TransportError

__all__ = ["FRAME_MAGIC", "FRAME_VERSION", "HEADER_SIZE", "MAX_FRAME",
           "encode_frame", "read_frame", "write_frame"]

#: First byte of every frame; sniffed by the accept path.
FRAME_MAGIC = 0xF3

#: Version byte of this framing layout.
FRAME_VERSION = 0x03

#: magic(1) + version(1) + length(4).
HEADER_SIZE = 6

#: Default refusal bound for a single frame's payload (bytes).
MAX_FRAME = 16 * 1024 * 1024

_HEADER = struct.Struct(">BBI")


def encode_frame(payload: bytes) -> bytes:
    """One wire frame around ``payload`` (header + bytes)."""
    return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, len(payload)) + payload


def decode_header(header: bytes, *, max_frame: int = MAX_FRAME) -> int:
    """Validate one 6-byte header; returns the payload length.

    Raises
    ------
    ServiceError
        On a bad magic byte, an unknown framing version, or a length
        above ``max_frame``.
    """
    if len(header) != HEADER_SIZE:
        raise ServiceError(
            f"truncated frame header: got {len(header)} of "
            f"{HEADER_SIZE} bytes")
    magic, version, length = _HEADER.unpack(header)
    if magic != FRAME_MAGIC:
        raise ServiceError(
            f"bad frame magic 0x{magic:02X} (expected 0x{FRAME_MAGIC:02X})")
    if version != FRAME_VERSION:
        raise ServiceError(
            f"unsupported framing version 0x{version:02X} "
            f"(this build speaks 0x{FRAME_VERSION:02X})")
    if length > max_frame:
        raise ServiceError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit")
    return length


def write_frame(stream, payload: bytes) -> None:
    """Write one frame to a binary file-like object (no flush)."""
    stream.write(encode_frame(payload))


def read_frame(stream, *, max_frame: int = MAX_FRAME) -> bytes | None:
    """Read one frame from a blocking binary stream.

    Returns the payload, or ``None`` on a clean EOF *before* any header
    byte. An EOF inside a frame raises :class:`TransportError` (a
    :class:`ServiceError`) — the peer died mid-message; a bad header
    raises a plain :class:`ServiceError`.
    """
    header = stream.read(HEADER_SIZE)
    if not header:
        return None
    if len(header) < HEADER_SIZE:
        raise TransportError(
            f"connection closed inside a frame header "
            f"({len(header)} of {HEADER_SIZE} bytes)")
    length = decode_header(header, max_frame=max_frame)
    payload = bytearray()
    while len(payload) < length:
        chunk = stream.read(length - len(payload))
        if not chunk:
            raise TransportError(
                f"connection closed inside a frame payload "
                f"({len(payload)} of {length} bytes)")
        payload.extend(chunk)
    return bytes(payload)

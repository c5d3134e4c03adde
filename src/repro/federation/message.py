"""Wire codec for federation protocol messages.

Every value that crosses a party boundary in the federation runtime is a
:class:`Message` serialized through this codec — there is no "just hand
over the numpy array" path. That discipline is what makes communication
*measurable*: the :class:`~repro.federation.ledger.CommLedger` charges
exactly ``len(encode(message))`` bytes per send, and
:func:`encoded_size` computes the same number analytically, so
communication budgets can be planned without executing a protocol.

The wire format is deliberately simple and versioned::

    magic(4s) version(u16) sender(i16) receiver(i16) round(u32)
    kind_len(u8) dtype_len(u8) ndim(u8) crc32(u32)
    kind(utf-8) dtype(numpy dtype str) shape(ndim × i64) payload bytes

Decoding rejects bad magic, truncated frames, unknown header versions,
and checksum mismatches with :class:`~repro.exceptions.WireFormatError`
— a replayed frame from an incompatible build fails with a diagnosis
rather than a garbled array. Version 2 added the ``crc32`` field
(computed over every other byte of the frame): an in-flight bit flip —
the ``corrupt`` fault kind injects exactly that — is *always detected*,
because a flip the structural checks happen to tolerate (e.g. inside
the payload bytes) would otherwise decode into silently different
floats and break the bit-identity contract downstream. Numeric payloads round-trip bit-exactly (``tobytes`` /
``frombuffer`` of the same dtype), which is what lets the runtime's
protocol outputs stay byte-identical to the in-process
:meth:`~repro.federated.model.VerticalFLModel.predict` path.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import WireFormatError

__all__ = ["Message", "WIRE_VERSION", "decode_message", "encode_message", "encoded_size"]

#: Frame magic: any payload not starting with this is not ours.
MAGIC = b"RFED"

#: Current header version; :func:`decode_message` rejects all others.
#: Version 2 added the crc32 integrity field after the fixed header.
WIRE_VERSION = 2

#: Fixed-width header prefix (little-endian, see module docstring).
_HEADER = struct.Struct("<4sHhhIBBB")

#: Frame checksum (crc32 of every byte except these four), right after
#: the fixed header — any in-flight bit flip fails decode loudly.
_CRC = struct.Struct("<I")

#: Per-dimension shape entry appended after the variable-length strings.
_DIM = struct.Struct("<q")


@dataclass(frozen=True)
class Message:
    """One protocol message: who, what round, which kind, which array.

    Attributes
    ----------
    sender, receiver:
        Party ids of the two endpoints (``-1`` conventionally addresses
        the coordinator in broadcast-style extensions; the current
        protocol always uses concrete party ids).
    kind:
        Protocol message kind (``"feature_request"``,
        ``"feature_block"``). Free-form at the codec layer; the nodes
        dispatch on it.
    payload:
        The transferred array. Always copied through bytes on the wire —
        a received payload never aliases the sender's memory.
    round_id:
        The protocol round this message belongs to (ledger bookkeeping).
    """

    sender: int
    receiver: int
    kind: str
    payload: np.ndarray = field(repr=False)
    round_id: int = 0

    def __post_init__(self) -> None:
        # Normalize once so nbytes/encode agree on dtype and shape.
        object.__setattr__(self, "payload", np.asarray(self.payload))

    @property
    def nbytes(self) -> int:
        """Exact encoded frame size in bytes (what the ledger charges)."""
        return encoded_size(self.kind, self.payload.dtype, self.payload.shape)

    def encode(self) -> bytes:
        """Serialize to wire bytes (see :func:`encode_message`)."""
        return encode_message(self)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse wire bytes back into a message (see :func:`decode_message`)."""
        return decode_message(data)


def _check_payload(payload: np.ndarray) -> np.ndarray:
    payload = np.asarray(payload)
    if payload.dtype.hasobject:
        raise WireFormatError(
            f"cannot encode payload dtype {payload.dtype}: the wire format "
            "carries flat numeric/boolean buffers only"
        )
    if not payload.flags.c_contiguous:
        # ascontiguousarray would also promote 0-d payloads to 1-d, so
        # only copy when the buffer layout actually requires it.
        payload = np.ascontiguousarray(payload)
    return payload


def encoded_size(kind: str, dtype, shape: tuple[int, ...]) -> int:
    """Exact frame size for a payload of the given dtype/shape.

    The analytic twin of ``len(encode_message(m))`` — used by
    :meth:`~repro.federation.runtime.FederationRuntime.estimate_predict_bytes`
    to price a protocol run without executing it (regression-tested to
    match the measured ledger bytes exactly).
    """
    dtype = np.dtype(dtype)
    kind_bytes = kind.encode("utf-8")
    dtype_bytes = dtype.str.encode("ascii")
    n_items = 1
    for dim in shape:
        n_items *= int(dim)
    return (
        _HEADER.size
        + _CRC.size
        + len(kind_bytes)
        + len(dtype_bytes)
        + _DIM.size * len(shape)
        + n_items * dtype.itemsize
    )


def encode_message(message: Message) -> bytes:
    """Serialize a :class:`Message` into one self-describing frame."""
    payload = _check_payload(message.payload)
    kind_bytes = message.kind.encode("utf-8")
    dtype_bytes = payload.dtype.str.encode("ascii")
    if len(kind_bytes) > 255:
        raise WireFormatError(f"message kind too long to encode: {message.kind!r}")
    if payload.ndim > 255:
        raise WireFormatError(f"payload rank {payload.ndim} exceeds the wire limit")
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION,
        int(message.sender),
        int(message.receiver),
        int(message.round_id),
        len(kind_bytes),
        len(dtype_bytes),
        payload.ndim,
    )
    dims = b"".join(_DIM.pack(dim) for dim in payload.shape)
    body = kind_bytes + dtype_bytes + dims + payload.tobytes()
    crc = zlib.crc32(body, zlib.crc32(header))
    return header + _CRC.pack(crc) + body


def decode_message(data: bytes) -> Message:
    """Parse one frame, validating magic, version, and length."""
    if len(data) < _HEADER.size:
        raise WireFormatError(
            f"truncated frame: {len(data)} bytes, header needs {_HEADER.size}"
        )
    magic, version, sender, receiver, round_id, kind_len, dtype_len, ndim = (
        _HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise WireFormatError(
            f"bad magic {magic!r}: not a repro federation frame"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version}; this build speaks only "
            f"version {WIRE_VERSION}"
        )
    meta_end = _HEADER.size + _CRC.size + kind_len + dtype_len + ndim * _DIM.size
    if len(data) < meta_end:
        raise WireFormatError(
            f"truncated frame: {len(data)} bytes, the header metadata "
            f"declares {meta_end}"
        )
    (declared_crc,) = _CRC.unpack_from(data, _HEADER.size)
    offset = _HEADER.size + _CRC.size
    try:
        kind = data[offset : offset + kind_len].decode("utf-8")
        offset += kind_len
        dtype_str = data[offset : offset + dtype_len].decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireFormatError(
            f"corrupted frame: undecodable kind/dtype strings ({exc})"
        ) from exc
    try:
        # np.dtype raises TypeError for unknown codes but also
        # ValueError/SyntaxError for corrupted spec strings.
        dtype = np.dtype(dtype_str)
    except (TypeError, ValueError, SyntaxError) as exc:
        raise WireFormatError(f"undecodable payload dtype {dtype_str!r}") from exc
    if dtype.hasobject:
        raise WireFormatError(
            f"frame declares payload dtype {dtype_str!r}; the wire format "
            "carries flat numeric/boolean buffers only"
        )
    offset += dtype_len
    shape = tuple(
        _DIM.unpack_from(data, offset + i * _DIM.size)[0] for i in range(ndim)
    )
    offset += ndim * _DIM.size
    if any(dim < 0 for dim in shape):
        raise WireFormatError(f"frame declares a negative dimension: {shape}")
    n_items = 1
    for dim in shape:
        n_items *= dim
    expected = offset + n_items * dtype.itemsize
    if len(data) != expected:
        raise WireFormatError(
            f"frame length {len(data)} != {expected} declared by the header "
            f"(kind={kind!r}, dtype={dtype.str}, shape={shape})"
        )
    # Integrity last: structural diagnoses above are more precise, and
    # a flip they tolerate (payload bytes, shape that still fits) lands
    # here rather than decoding into silently different values.
    actual_crc = zlib.crc32(
        data[_HEADER.size + _CRC.size :], zlib.crc32(data[: _HEADER.size])
    )
    if actual_crc != declared_crc:
        raise WireFormatError(
            f"corrupted frame: checksum mismatch (declared {declared_crc:#010x}, "
            f"computed {actual_crc:#010x}); the frame was altered in flight"
        )
    payload = np.frombuffer(data, dtype=dtype, count=n_items, offset=offset)
    return Message(
        sender=sender,
        receiver=receiver,
        kind=kind,
        payload=payload.reshape(shape).copy(),
        round_id=round_id,
    )

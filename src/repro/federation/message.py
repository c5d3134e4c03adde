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
floats and break the bit-identity contract downstream. Numeric
payloads round-trip bit-exactly (``tobytes``, then an ``ndarray`` of the
same dtype over the frame, copied), which is what lets the runtime's
protocol outputs stay byte-identical to the in-process
:meth:`~repro.federated.model.VerticalFLModel.predict` path. Object
and zero-itemsize dtypes are refused both ways: neither carries values
as flat bytes, and a zero-itemsize dtype would let a frame declare any
shape over no bytes at all.

A deployment speaks two kinds in one dtype each, so the per-frame
string and shape work is cached: the encoder keeps each ``(kind, dtype,
rank)``'s string bytes and shape struct, and the decoder maps a frame's
string region to its kind, dtype and shape struct. A decode entry is
added only after the frame's CRC verifies, so a corrupted frame never
seeds the cache; the magic, version, length, shape and CRC checks run
on every frame. Cached values are immutable, so decoders on concurrent
scheduler threads share them safely.

Every frame sent and every frame decoded is a :class:`Message`. Its
hand-written ``__init__`` normalizes ids to ``int`` and the payload to
an ``ndarray`` with exact type checks, then fills the instance dict in
one update instead of one ``object.__setattr__`` per field.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.exceptions import WireFormatError

__all__ = [
    "Message",
    "WIRE_VERSION",
    "decode_message",
    "encode_message",
    "encoded_size",
]

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

#: Bytes before the kind string: the fixed header and the checksum.
_PREFIX = _HEADER.size + _CRC.size

#: The fixed header and the checksum, unpacked by one call on decode.
_HEADER_CRC = struct.Struct(_HEADER.format + _CRC.format[1:])


@dataclass(frozen=True, init=False)
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

    def __init__(
        self,
        sender: int,
        receiver: int,
        kind: str,
        payload: np.ndarray,
        round_id: int = 0,
    ) -> None:
        # Normalize once so nbytes/encode agree on dtype and shape, and
        # the encoder packs plain ints. The instance is frozen, so the
        # fields go straight into its dict.
        if type(sender) is not int:
            sender = int(sender)
        if type(receiver) is not int:
            receiver = int(receiver)
        if type(round_id) is not int:
            round_id = int(round_id)
        if type(payload) is not np.ndarray:
            payload = np.asarray(payload)
        self.__dict__.update(
            sender=sender,
            receiver=receiver,
            kind=kind,
            payload=payload,
            round_id=round_id,
        )

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


#: Bound on each metadata cache. A deployment speaks two kinds in one
#: or two dtypes and ranks; the bound only stops crafted frames from
#: growing a cache without limit.
_CACHE_LIMIT = 256


@lru_cache(maxsize=_CACHE_LIMIT)
def _encode_meta(
    kind: str, dtype: np.dtype, ndim: int
) -> tuple[int, int, bytes, struct.Struct]:
    """``(kind_len, dtype_len, kind+dtype bytes, shape struct)`` of a frame.

    The one place the wire limits are checked, for
    :func:`encode_message` and :func:`encoded_size` alike: object and
    zero-itemsize dtypes, over-long kinds and ranks past 255. A refused
    combination raises and is never cached.
    """
    if dtype.hasobject:
        raise WireFormatError(
            f"cannot encode payload dtype {dtype}: the wire format "
            "carries flat numeric/boolean buffers only"
        )
    if dtype.itemsize == 0:
        raise WireFormatError(
            f"cannot encode payload dtype {dtype.str!r}: a zero-itemsize "
            "dtype carries no values"
        )
    kind_bytes = kind.encode("utf-8")
    dtype_bytes = dtype.str.encode("ascii")
    if len(kind_bytes) > 255:
        raise WireFormatError(f"message kind too long to encode: {kind!r}")
    if ndim > 255:
        raise WireFormatError(f"payload rank {ndim} exceeds the wire limit")
    return (
        len(kind_bytes),
        len(dtype_bytes),
        kind_bytes + dtype_bytes,
        struct.Struct("<" + "q" * ndim),
    )


#: First two characters of every ``dtype.str`` the encoder can write.
_BYTE_ORDERS = frozenset("<>|")
_DTYPE_KINDS = frozenset("biufcmMOSUV")

#: ``(kind_len, ndim, kind+dtype bytes)`` -> ``(kind, dtype, shape struct)``
#: for frames that passed every check, the CRC included. Values are
#: immutable, so concurrent decoders share the dict safely under the GIL.
_DECODE_CACHE: dict[tuple[int, int, bytes], tuple[str, np.dtype, struct.Struct]] = {}


def encoded_size(kind: str, dtype, shape: tuple[int, ...]) -> int:
    """Exact frame size for a payload of the given dtype/shape.

    The analytic twin of ``len(encode_message(m))`` — used by
    :meth:`~repro.federation.runtime.FederationRuntime.estimate_predict_bytes`
    to price a protocol run without executing it (regression-tested to
    match the measured ledger bytes exactly). Refuses, with the same
    :class:`~repro.exceptions.WireFormatError`, every kind, dtype and
    rank :func:`encode_message` refuses.
    """
    dtype = np.dtype(dtype)
    _, _, strings, dims = _encode_meta(kind, dtype, len(shape))
    n_items = 1
    for dim in shape:
        n_items *= int(dim)
    return _PREFIX + len(strings) + dims.size + n_items * dtype.itemsize


def encode_message(message: Message) -> bytes:
    """Serialize a :class:`Message` into one self-describing frame.

    ``tobytes`` writes C order whatever the payload's layout, so a
    strided payload needs no contiguous copy first.
    """
    payload = message.payload
    ndim = payload.ndim
    kind_len, dtype_len, strings, dims = _encode_meta(message.kind, payload.dtype, ndim)
    header = _HEADER.pack(
        MAGIC,
        WIRE_VERSION,
        message.sender,
        message.receiver,
        message.round_id,
        kind_len,
        dtype_len,
        ndim,
    )
    meta = strings + dims.pack(*payload.shape)
    data = payload.tobytes()
    crc = zlib.crc32(data, zlib.crc32(meta, zlib.crc32(header)))
    return b"".join((header, _CRC.pack(crc), meta, data))


def _decode_strings(strings: bytes, kind_len: int) -> tuple[str, np.dtype]:
    """The kind and payload dtype named by a frame's string region."""
    try:
        kind = strings[:kind_len].decode("utf-8")
        dtype_str = strings[kind_len:].decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireFormatError(
            f"corrupted frame: undecodable kind/dtype strings ({exc})"
        ) from exc
    # The encoder writes ``dtype.str``: a byte order, then a kind code.
    # Anything else is corruption, and np.dtype would first warn about
    # deprecated aliases (``"<a8"`` is one bit from ``"<i8"``).
    if dtype_str[:1] not in _BYTE_ORDERS or dtype_str[1:2] not in _DTYPE_KINDS:
        raise WireFormatError(f"undecodable payload dtype {dtype_str!r}")
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
    if dtype.itemsize == 0:
        # The encoder refuses these; numpy would build any shape over
        # zero bytes, so a frame naming one never reaches the payload.
        raise WireFormatError(
            f"frame declares zero-itemsize payload dtype {dtype_str!r}; "
            "the wire format carries no empty element types"
        )
    return kind, dtype


def decode_message(data: bytes) -> Message:
    """Parse one frame, validating magic, version, length and checksum.

    Checks run in a fixed order — header length, magic, version,
    declared metadata length, kind/dtype strings, shape, frame length,
    CRC — and each failure raises
    :class:`~repro.exceptions.WireFormatError` naming what was wrong.
    A frame naming an object or zero-itemsize dtype fails the string
    check. The header and CRC come out of one unpack. The checksum
    slices the frame rather than reading it through a ``memoryview``:
    for frames up to ~5 KB (every one-row round) the view costs more
    than the copy. The payload is an ``ndarray`` over the verified
    frame, copied once, so it never aliases ``data``; a shape numpy
    cannot hold (more than 64 dimensions, or too many elements beside a
    zero dimension) is refused like any other malformed frame.
    """
    size = len(data)
    if size < _HEADER.size:
        raise WireFormatError(
            f"truncated frame: {size} bytes, header needs {_HEADER.size}"
        )
    if size >= _PREFIX:
        fields = _HEADER_CRC.unpack_from(data)
    else:
        # Too short to hold the CRC: the metadata length check below
        # rejects the frame before this placeholder checksum is read.
        fields = (*_HEADER.unpack_from(data), 0)
    magic, version, sender, receiver, round_id, kind_len, dtype_len, ndim, declared_crc = fields
    if magic != MAGIC:
        raise WireFormatError(
            f"bad magic {magic!r}: not a repro federation frame"
        )
    if version != WIRE_VERSION:
        raise WireFormatError(
            f"unsupported wire version {version}; this build speaks only "
            f"version {WIRE_VERSION}"
        )
    strings_end = _PREFIX + kind_len + dtype_len
    meta_end = strings_end + ndim * _DIM.size
    if size < meta_end:
        raise WireFormatError(
            f"truncated frame: {size} bytes, the header metadata "
            f"declares {meta_end}"
        )
    key = (kind_len, ndim, bytes(data[_PREFIX:strings_end]))
    cached = _DECODE_CACHE.get(key)
    if cached is None:
        kind, dtype = _decode_strings(key[2], kind_len)
        dims = struct.Struct("<" + "q" * ndim)
    else:
        kind, dtype, dims = cached
    shape = dims.unpack_from(data, strings_end)
    if shape and min(shape) < 0:
        raise WireFormatError(f"frame declares a negative dimension: {shape}")
    expected = meta_end + math.prod(shape) * dtype.itemsize
    if size != expected:
        raise WireFormatError(
            f"frame length {size} != {expected} declared by the header "
            f"(kind={kind!r}, dtype={dtype.str}, shape={shape})"
        )
    # Integrity last: structural diagnoses above are more precise, and
    # a flip they tolerate (payload bytes, shape that still fits) lands
    # here rather than decoding into silently different values.
    actual_crc = zlib.crc32(
        data[_PREFIX:], zlib.crc32(data[: _HEADER.size])
    )
    if actual_crc != declared_crc:
        raise WireFormatError(
            f"corrupted frame: checksum mismatch (declared {declared_crc:#010x}, "
            f"computed {actual_crc:#010x}); the frame was altered in flight"
        )
    if cached is None and len(_DECODE_CACHE) < _CACHE_LIMIT:
        # Only a verified frame seeds the cache: a flipped string that
        # happened to decode never stands in for the real one.
        _DECODE_CACHE[key] = (kind, dtype, dims)
    try:
        payload = np.ndarray(shape, dtype, data, meta_end).copy()
    except ValueError as exc:
        raise WireFormatError(
            f"frame declares shape {shape}, which numpy cannot hold ({exc})"
        ) from exc
    return Message(sender, receiver, kind, payload, round_id)

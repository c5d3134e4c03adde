"""Metered message transport between party nodes.

A :class:`Transport` owns one inbox per party and a
:class:`~repro.federation.ledger.CommLedger`. :meth:`Transport.send`
*encodes* the message, charges its exact frame size to the ledger, and
only then delivers the raw bytes; :meth:`Transport.receive` decodes on
the way out. Storing encoded bytes (not array references) in the inboxes
is deliberate: every cross-party value demonstrably passes through the
wire codec, so "ledger bytes == sum of encoded frame sizes" holds by
construction, and a received payload can never alias the sender's
buffers.

The transport also keeps a delivery log of ``(sender, receiver, kind,
nbytes, round_id)`` tuples — sizes and routing only, never values — which
the tests use to assert zero unmetered transfers.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import NamedTuple

from repro.exceptions import ProtocolError
from repro.federation.ledger import CommLedger
from repro.federation.message import Message, decode_message, encode_message

__all__ = ["DeliveryRecord", "Transport"]


class DeliveryRecord(NamedTuple):
    """Audit-log entry for one delivered frame (routing + size, no values)."""

    sender: int
    receiver: int
    kind: str
    nbytes: int
    round_id: int


class Transport:
    """Point-to-point channels between parties, metered by a ledger.

    Parameters
    ----------
    ledger:
        The :class:`CommLedger` every send is charged to; a fresh
        unbudgeted ledger when omitted.
    """

    def __init__(self, ledger: "CommLedger | None" = None) -> None:
        self.ledger = ledger if ledger is not None else CommLedger()
        self._inboxes: defaultdict[int, deque[bytes]] = defaultdict(deque)
        self.delivery_log: list[DeliveryRecord] = []

    def send(self, message: Message) -> int:
        """Encode, meter, and deliver one message; returns its frame size.

        Raises :class:`~repro.exceptions.CommBudgetExceededError` (from
        the ledger) *before* delivery when the frame does not fit — an
        over-budget message never reaches its receiver.
        """
        return self._deliver(
            encode_message(message),
            message.sender,
            message.receiver,
            message.kind,
            message.round_id,
        )

    def send_raw(
        self, data: bytes, *, sender: int, receiver: int, kind: str, round_id: int
    ) -> int:
        """Meter and deliver pre-encoded (possibly corrupted) frame bytes.

        The ``corrupt`` fault kind flips a bit *after* encoding; the
        damaged frame still crosses the wire, so it is charged and
        audit-logged exactly like a healthy send — the receiver's decode
        is where the corruption surfaces (as a
        :class:`~repro.exceptions.WireFormatError` checksum failure).
        """
        return self._deliver(
            bytes(data), int(sender), int(receiver), kind, int(round_id)
        )

    def _deliver(
        self, data: bytes, sender: int, receiver: int, kind: str, round_id: int
    ) -> int:
        """Check, charge, enqueue and log one frame; returns its size."""
        if sender == receiver:
            raise ProtocolError(
                f"party {sender} attempted to send itself a message; "
                "local values do not cross the transport"
            )
        nbytes = len(data)
        self.ledger.charge(sender, receiver, nbytes)
        self._inboxes[receiver].append(data)
        self.delivery_log.append(DeliveryRecord(sender, receiver, kind, nbytes, round_id))
        return nbytes

    def receive(self, party_id: int) -> Message:
        """Pop and decode the oldest frame addressed to ``party_id``."""
        inbox = self._inboxes.get(party_id)
        if not inbox:
            raise ProtocolError(f"party {party_id} has no pending messages")
        return decode_message(inbox.popleft())

    def pending(self, party_id: int) -> int:
        """Frames queued for ``party_id`` (0 for unknown parties)."""
        inbox = self._inboxes.get(int(party_id))
        return len(inbox) if inbox else 0

    def clear(self) -> int:
        """Drop every undelivered frame; returns how many were dropped.

        Called by the runtime when a protocol round aborts (budget
        exhaustion, dropped party): frames already delivered to inboxes
        but never consumed must not leak into the next round, where a
        responder would answer a stale request with the wrong rows. The
        dropped frames stay charged on the ledger — they did cross the
        wire.
        """
        dropped = sum(len(inbox) for inbox in self._inboxes.values())
        for inbox in self._inboxes.values():
            inbox.clear()
        return dropped

    @property
    def delivered_bytes(self) -> int:
        """Sum of delivered frame sizes (== ledger bytes by construction)."""
        return sum(record.nbytes for record in self.delivery_log)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"Transport(delivered={len(self.delivery_log)} frames, "
            f"{self.delivered_bytes} bytes, ledger={self.ledger!r})"
        )

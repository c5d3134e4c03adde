"""Party actors: protocol-round behaviour bound to a data-holding party.

The :mod:`repro.federated.party` classes hold *data*; these nodes hold
*behaviour*: how a party turns an incoming protocol message into its
reply. A :class:`PassivePartyNode` answers ``feature_request``
messages with its column block for the named rows; an
:class:`ActivePartyNode` builds those requests and assembles the replies
back into the joint matrix — the only place the blocks ever meet.

Nodes never touch another node's state: everything they learn arrives
through :meth:`~repro.federation.transport.Transport.receive` and
everything they reveal leaves through a returned
:class:`~repro.federation.message.Message` that the runtime sends (and
the ledger meters). Fault injection hooks in here — a dropped party
returns a :class:`~repro.exceptions.PartyUnavailableError` instead of
a reply, a straggler sleeps first — so both schedulers exercise the
identical failure surface.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import PartyUnavailableError, ProtocolError
from repro.federated.party import ActiveParty, Party
from repro.federation.faults import FaultPlan
from repro.federation.message import Message
from repro.federation.transport import Transport
from repro.resilience.chaos import FaultOutcome

__all__ = ["ActivePartyNode", "PartyNode", "PassivePartyNode"]

#: Message kinds of the protocol round.
FEATURE_REQUEST = "feature_request"
FEATURE_BLOCK = "feature_block"


class PartyNode:
    """Behaviour wrapper around one data-holding :class:`Party`."""

    def __init__(
        self,
        party: Party,
        transport: Transport,
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.party = party
        #: The wrapped party's id, read on every frame a round sends.
        self.party_id = party.party_id
        self.transport = transport
        self.faults = faults if faults is not None else FaultPlan()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(party={self.party_id})"


class PassivePartyNode(PartyNode):
    """A feature-contributing party's protocol behaviour."""

    def respond(
        self, outcome: FaultOutcome, attempt: int = 0
    ) -> "Message | PartyUnavailableError":
        """Answer the oldest pending request with this party's block.

        The unit of work a scheduler runs on its own thread: pop the
        request from this node's inbox, honour any injected fault, gather
        the local columns, and return the reply message for the runtime
        to send. ``outcome`` is the chaos decision for this ``(party,
        round, attempt)`` cell; the runtime evaluates it once per wave
        and hands the same value here. An injected failure is *returned*
        as the :class:`PartyUnavailableError` describing it, not raised:
        the round needs every party's outcome for the wave, and a raise
        would make the scheduler cancel the sibling responders. Only
        this node's own state is touched, which is what makes the
        threaded scheduler race-free.
        """
        request = self.transport.receive(self.party_id)
        if request.kind != FEATURE_REQUEST:
            raise ProtocolError(
                f"party {self.party_id} cannot answer message kind "
                f"{request.kind!r}"
            )
        if self.party_id in self.faults.dropped:
            return PartyUnavailableError(
                f"party {self.party_id} dropped out of round "
                f"{request.round_id}; the {request.kind!r} request has no "
                "responder"
            )
        if outcome.kind == "crash":
            return PartyUnavailableError(
                f"party {self.party_id} crashed before round "
                f"{request.round_id}; it will not answer this or any later "
                "round"
            )
        if outcome.kind == "flaky":
            return PartyUnavailableError(
                f"party {self.party_id} failed attempt {attempt} of round "
                f"{request.round_id} (flaky); a retry may succeed"
            )
        # "corrupt" and "timeout" outcomes still produce the reply: the
        # runtime, holding the same outcome, flips the frame in flight /
        # accounts the simulated latency.
        delay = self.faults.delays.get(self.party_id)
        if delay:
            time.sleep(delay)
        # local_features normalizes and bounds-checks the decoded ids.
        return Message(
            self.party_id,
            request.sender,
            FEATURE_BLOCK,
            self.party.local_features(request.payload),
            request.round_id,
        )


class ActivePartyNode(PartyNode):
    """The coordinating (label-owning) party's protocol behaviour."""

    def __init__(
        self,
        party: ActiveParty,
        transport: Transport,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if not isinstance(party, ActiveParty):
            raise ProtocolError("the coordinating node must wrap the active party")
        super().__init__(party, transport, faults)

    def make_request(
        self, receiver: int, sample_indices: np.ndarray, round_id: int
    ) -> Message:
        """A request naming the rows ``receiver`` must contribute."""
        return Message(
            self.party_id,
            receiver,
            FEATURE_REQUEST,
            np.asarray(sample_indices, dtype=np.int64).ravel(),
            round_id,
        )

    def assemble(
        self,
        sample_indices: np.ndarray,
        blocks: dict[int, np.ndarray],
        parties: list[Party],
        column_order: np.ndarray,
    ) -> np.ndarray:
        """The joint matrix: every party's block side by side, then
        ``column_order`` (the deployment's global column permutation).

        Byte-identical to :meth:`VerticalFLModel._assemble`, which
        gathers the same rows from a joint table whose columns were
        placed the same way at construction: every non-local block
        arrived through the wire codec, which is lossless for float64,
        and placing columns copies values without arithmetic. Unlike the in-process
        assembly, these rows are not trusted as-is: the caller hands
        them to the model's validating ``predict_proba``, because a
        passive block is whatever a frame decoded to.
        """
        rows = np.asarray(sample_indices, dtype=np.int64).ravel()
        ordered = [
            party.local_features(rows)
            if party.party_id == self.party_id
            else blocks[party.party_id]
            for party in parties
        ]
        return np.concatenate(ordered, axis=1).take(column_order, axis=1)

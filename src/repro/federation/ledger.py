"""Communication ledger: metering and budgets for the protocol boundary.

The :class:`~repro.serving.ledger.QueryLedger` meters what the adversary
*learns* (released confidence rows); :class:`CommLedger` meters what the
protocol *moves* — every encoded :class:`~repro.federation.message.Message`
that crosses a party edge, in the spirit of secure-aggregation cost
models where per-round bytes are the deployment constraint. Counts are
kept per directed edge ``(sender, receiver)`` plus a round counter, so a
report can state bytes/round and messages/round for any topology.

Budgets are optional and atomic per message: a send that would cross the
byte or message budget raises
:class:`~repro.exceptions.CommBudgetExceededError` *without charging*,
and whatever already crossed the wire stays counted — a protocol round
aborted halfway has genuinely spent its partial traffic.
"""

from __future__ import annotations

from typing import Any

from repro.exceptions import CommBudgetExceededError, ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["CommLedger"]


def _check_budget(value: "int | None", name: str) -> "int | None":
    if value is None:
        return None
    return check_positive_int(value, name=name)


class CommLedger:
    """Per-edge message/byte accounting with optional global budgets.

    Parameters
    ----------
    byte_budget:
        Global cap on total bytes moved across every edge; ``None``
        (the default) meters without limiting.
    message_budget:
        Global cap on the number of messages, for protocols whose cost
        is dominated by message latency rather than volume.
    """

    def __init__(
        self,
        byte_budget: "int | None" = None,
        *,
        message_budget: "int | None" = None,
    ) -> None:
        self.byte_budget = _check_budget(byte_budget, "byte_budget")
        self.message_budget = _check_budget(message_budget, "message_budget")
        self._edges: dict[tuple[int, int], dict[str, int]] = {}
        self._rounds = 0
        self._retries = 0
        self._timeouts = 0

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Bytes moved across every edge (encoded frame sizes)."""
        return sum(edge["bytes"] for edge in self._edges.values())

    @property
    def total_messages(self) -> int:
        """Messages moved across every edge."""
        return sum(edge["messages"] for edge in self._edges.values())

    @property
    def rounds(self) -> int:
        """Protocol rounds started so far."""
        return self._rounds

    @property
    def retries(self) -> int:
        """Retry attempts issued by the protocol round.

        Each retried party per wave counts once; the retried request
        frames themselves are charged like any other traffic, so retry
        cost shows up in *both* bytes and this counter.
        """
        return self._retries

    @property
    def timeouts(self) -> int:
        """Reply attempts discarded for exceeding the per-attempt timeout."""
        return self._timeouts

    def edge(self, sender: int, receiver: int) -> dict[str, int]:
        """``{"messages": n, "bytes": b}`` for one directed edge."""
        stats = self._edges.get((int(sender), int(receiver)))
        return dict(stats) if stats else {"messages": 0, "bytes": 0}

    def remaining_bytes(self) -> "int | None":
        """Bytes left before the byte budget binds; ``None`` if unlimited."""
        if self.byte_budget is None:
            return None
        return max(0, self.byte_budget - self.total_bytes)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def begin_round(self) -> int:
        """Open a new protocol round; returns its id (0-based)."""
        round_id = self._rounds
        self._rounds += 1
        return round_id

    def record_retries(self, n: int) -> None:
        """Count ``n`` retry attempts (one per retried party per wave)."""
        if n < 1:
            raise ValidationError(f"retry count must be >= 1, got {n}")
        self._retries += int(n)

    def record_timeouts(self, n: int) -> None:
        """Count ``n`` timed-out reply attempts."""
        if n < 1:
            raise ValidationError(f"timeout count must be >= 1, got {n}")
        self._timeouts += int(n)

    def charge(self, sender: int, receiver: int, nbytes: int) -> None:
        """Charge one ``nbytes``-sized message to the edge, or raise.

        Atomic: either the message fits in both budgets and is recorded,
        or :class:`CommBudgetExceededError` is raised with the ledger
        untouched (earlier charges stand — those bytes already moved).
        """
        if nbytes <= 0:
            raise ValidationError(f"message size must be positive, got {nbytes}")
        if self.byte_budget is not None and self.total_bytes + nbytes > self.byte_budget:
            raise CommBudgetExceededError(
                f"communication budget exceeded on edge {sender}->{receiver}: "
                f"message of {nbytes} bytes with "
                f"{self.byte_budget - self.total_bytes} of {self.byte_budget} "
                "budget bytes remaining"
            )
        if self.message_budget is not None and self.total_messages + 1 > self.message_budget:
            raise CommBudgetExceededError(
                f"communication budget exceeded on edge {sender}->{receiver}: "
                f"message budget of {self.message_budget} messages is spent"
            )
        stats = self._edges.get((sender, receiver))
        if stats is None:
            stats = self._edges[(int(sender), int(receiver))] = {"messages": 0, "bytes": 0}
        stats["messages"] += 1
        stats["bytes"] += int(nbytes)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (what :class:`ScenarioReport.comm_cost` carries)."""
        return {
            "byte_budget": self.byte_budget,
            "message_budget": self.message_budget,
            "bytes": self.total_bytes,
            "messages": self.total_messages,
            "rounds": self.rounds,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "edges": {
                f"{sender}->{receiver}": dict(stats)
                for (sender, receiver), stats in sorted(self._edges.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"CommLedger(bytes={self.total_bytes}, messages={self.total_messages}, "
            f"rounds={self.rounds}, byte_budget={self.byte_budget})"
        )

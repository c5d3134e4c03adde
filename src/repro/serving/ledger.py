"""Query ledger: metering and budgets for the prediction boundary.

Every feature-inference attack in the paper is powered by prediction
queries — one per sample for ESA/PRA, an accumulated pool for GRNA — so
the *number of queries an adversary can afford* is the natural knob for
the §VII defense family the paper only gestures at. :class:`QueryLedger`
is the bookkeeping half of that knob: it counts queries per consumer
(attack name, tenant, ...), enforces an optional global budget and
optional per-consumer budgets, and records cache hits separately because
a replayed response costs the protocol nothing.

Charging is atomic per request: a request that would cross the budget
either raises :class:`~repro.exceptions.QueryBudgetExceededError`
(``charge``) or is truncated to whatever remains (``grant``) — partial
silent fulfilment is never the default, because a half-filled score
matrix is the kind of bug that looks like a weak attack.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.exceptions import QueryBudgetExceededError, ValidationError
from repro.utils.validation import check_positive_int

__all__ = ["QueryLedger"]


def _check_budget(value: "int | None", name: str) -> "int | None":
    if value is None:
        return None
    return check_positive_int(value, name=name)


class QueryLedger:
    """Per-consumer query accounting with optional budgets.

    Parameters
    ----------
    budget:
        Global cap on chargeable queries across every consumer;
        ``None`` (the default) meters without limiting.
    consumer_budgets:
        Optional per-consumer caps, e.g. ``{"grna": 500, "esa": 100}``
        for a deployment serving several attack sessions.
    """

    def __init__(
        self,
        budget: "int | None" = None,
        *,
        consumer_budgets: "Mapping[str, int] | None" = None,
    ) -> None:
        self.budget = _check_budget(budget, "budget")
        self.consumer_budgets = {
            name: _check_budget(cap, f"consumer budget {name!r}")
            for name, cap in dict(consumer_budgets or {}).items()
        }
        self._counts: dict[str, int] = {}
        self._cache_hits: dict[str, int] = {}
        self._evictions: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    @property
    def queries_used(self) -> int:
        """Total chargeable queries served, across every consumer."""
        return sum(self._counts.values())

    @property
    def cache_hits(self) -> int:
        """Total responses replayed from cache (never charged)."""
        return sum(self._cache_hits.values())

    @property
    def evictions(self) -> int:
        """Total cached responses dropped by an LRU bound, every consumer.

        An evicted entry that is queried again is a fresh computation and
        a fresh charge, so cache-hit counts stay exact: ``hits`` only
        ever means "replayed from a live entry", and this counter is the
        audit trail for why a bounded cache hits less than an unbounded
        one would.
        """
        return sum(self._evictions.values())

    def count(self, consumer: str) -> int:
        """Chargeable queries served to one consumer."""
        return self._counts.get(consumer, 0)

    def cache_hit_count(self, consumer: str) -> int:
        """Cache hits served to one consumer."""
        return self._cache_hits.get(consumer, 0)

    def eviction_count(self, consumer: str) -> int:
        """Evictions attributed to one consumer (whose insert overflowed)."""
        return self._evictions.get(consumer, 0)

    def consumers(self) -> list[str]:
        """Every consumer the ledger has seen, in first-charge order."""
        seen = dict.fromkeys(self._counts)
        seen.update(dict.fromkeys(self._cache_hits))
        seen.update(dict.fromkeys(self._evictions))
        return list(seen)

    def remaining(self, consumer: "str | None" = None) -> "int | None":
        """Queries left before a budget binds; ``None`` when unlimited.

        With ``consumer`` given, the tighter of the global and that
        consumer's budget; without, the global one.
        """
        remains: "int | None" = None
        if self.budget is not None:
            remains = max(0, self.budget - self.queries_used)
        if consumer is not None and consumer in self.consumer_budgets:
            consumer_left = max(
                0, self.consumer_budgets[consumer] - self.count(consumer)
            )
            remains = consumer_left if remains is None else min(remains, consumer_left)
        return remains

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, n: int, consumer: str = "anonymous") -> int:
        """Charge ``n`` queries to ``consumer`` or raise without charging.

        Atomic: either the whole request fits in every applicable budget
        and ``n`` is recorded, or :class:`QueryBudgetExceededError` is
        raised and the ledger is untouched.
        """
        n = self._check_request(n)
        remains = self.remaining(consumer)
        if remains is not None and n > remains:
            raise QueryBudgetExceededError(
                f"query budget exceeded for consumer {consumer!r}: requested "
                f"{n} predictions with {remains} remaining (used "
                f"{self.count(consumer)} of a budget of "
                f"{self._binding_budget(consumer)})"
            )
        self._counts[consumer] = self._counts.get(consumer, 0) + n
        return n

    def grant(self, n: int, consumer: str = "anonymous") -> int:
        """Charge up to ``n`` queries, truncating at the budget.

        Returns how many were actually granted (possibly 0). The
        truncating sibling of :meth:`charge`, for callers that prefer a
        shorter response over an exception.
        """
        n = self._check_request(n)
        remains = self.remaining(consumer)
        granted = n if remains is None else min(n, remains)
        if granted:
            self._counts[consumer] = self.count(consumer) + granted
        return granted

    def refund(self, n: int, consumer: str = "anonymous") -> None:
        """Return queries charged for responses that were never released.

        Used by the serving layer when an ``on_query`` defense refuses a
        batch after it was charged and computed: the adversary received
        nothing, so the ledger must not say otherwise.
        """
        if n < 0:
            raise ValidationError(f"refund count must be >= 0, got {n}")
        if n == 0:
            return
        current = self.count(consumer)
        if n > current:
            raise ValidationError(
                f"cannot refund {n} queries; consumer {consumer!r} was only "
                f"charged {current}"
            )
        self._counts[consumer] = current - n

    def record_cache_hits(self, n: int, consumer: str = "anonymous") -> None:
        """Record ``n`` replayed responses; cache hits are never charged."""
        if n < 0:
            raise ValidationError(f"cache hit count must be >= 0, got {n}")
        if n:
            self._cache_hits[consumer] = self.cache_hit_count(consumer) + n

    def record_evictions(self, n: int, consumer: str = "anonymous") -> None:
        """Record ``n`` cached responses dropped by an LRU bound.

        Attributed to the consumer whose insert overflowed the cache (for
        consumer-scoped caches that is also the entries' owner). Never
        affects budgets — eviction costs the *cache*, not the consumer.
        """
        if n < 0:
            raise ValidationError(f"eviction count must be >= 0, got {n}")
        if n:
            self._evictions[consumer] = self.eviction_count(consumer) + n

    def _check_request(self, n: int) -> int:
        if n <= 0:
            raise ValidationError(f"query count must be positive, got {n}")
        return int(n)

    def _binding_budget(self, consumer: str) -> "int | None":
        caps = [
            cap
            for cap in (self.budget, self.consumer_budgets.get(consumer))
            if cap is not None
        ]
        return min(caps) if caps else None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (used by reports and the audit trail)."""
        return {
            "budget": self.budget,
            "consumer_budgets": dict(self.consumer_budgets),
            "queries_used": self.queries_used,
            "cache_hits": self.cache_hits,
            "evictions": self.evictions,
            "counts": dict(self._counts),
            "cache_hit_counts": dict(self._cache_hits),
            "eviction_counts": dict(self._evictions),
        }

    @classmethod
    def merged(cls, ledgers: "Iterable[QueryLedger]") -> "QueryLedger":
        """Fold several shard ledgers into one deployment-wide view.

        Per-consumer counts, cache hits, and evictions are summed;
        per-consumer budgets are unioned (a consumer is pinned to one
        shard, so its budget appears on exactly one ledger and the union
        is conflict-free — a genuine conflict raises). Global budgets do
        not merge: a deployment-wide cap would need cross-shard
        coordination, which the share-nothing shard design deliberately
        rejects, so the merged ledger is reporting-only and unbudgeted.
        """
        merged = cls()
        for ledger in ledgers:
            for name, cap in ledger.consumer_budgets.items():
                existing = merged.consumer_budgets.get(name)
                if existing is not None and existing != cap:
                    raise ValidationError(
                        f"conflicting budgets for consumer {name!r} while "
                        f"merging ledgers: {existing} vs {cap}"
                    )
                merged.consumer_budgets[name] = cap
            for name, n in ledger._counts.items():
                merged._counts[name] = merged._counts.get(name, 0) + n
            for name, n in ledger._cache_hits.items():
                merged._cache_hits[name] = merged._cache_hits.get(name, 0) + n
            for name, n in ledger._evictions.items():
                merged._evictions[name] = merged._evictions.get(name, 0) + n
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"QueryLedger(budget={self.budget}, used={self.queries_used}, "
            f"cache_hits={self.cache_hits})"
        )

"""The metered, batched query boundary between attacks and deployed models.

Everything an adversary learns in this paper flows through **prediction
queries** against a deployed VFL model (§II-B), and every §VII defense is
an intervention on that interface — yet attacking code historically
called :meth:`repro.federated.VerticalFLModel.predict` directly, so
queries were unmetered, unbatched, and invisible to defenses.
:class:`PredictionService` is the explicit serving layer that closes that
gap. It owns four concerns:

batched execution
    ``query(sample_indices)`` splits a request into chunks of
    ``max_batch`` and serves each chunk through one vectorized protocol
    round — every round padded to the same canonical ``max_batch`` shape
    so BLAS cannot switch matmul kernels between rounds. For a given
    ``max_batch``, batched and per-sample execution are therefore
    bit-identical across all four model kinds (regression-tested); the
    unbatched default serves one round, byte-compatible with the
    historical direct protocol call.
metering
    Every *computed* response is charged to a
    :class:`~repro.serving.ledger.QueryLedger` under the caller's
    ``consumer`` name. Exhausting a budget raises
    :class:`~repro.exceptions.QueryBudgetExceededError` (or truncates the
    response, in ``exhaustion="truncate"`` mode) — per batch, so a long
    accumulation fails mid-stream exactly where the budget binds.
response cache
    With ``cache=True`` responses are memoized by *sample hash* (a
    content fingerprint of the assembled joint row, computed inside the
    protocol). A repeated query — across requests or within one chunk —
    replays the stored response — including whatever noise a defense
    drew the first time — and is recorded as a cache hit, never
    charged. Replays are still announced to the ``on_query`` hooks (as
    :attr:`QueryContext.replayed_indices`), so auditing defenses see
    duplicate traffic even though the stored bytes are not re-perturbed.
    ``cache_size`` bounds the store as a true LRU (the unbounded default
    reproduces the historical behavior bit-for-bit) with every eviction
    recorded on the ledger, and ``cache_scope="consumer"`` namespaces
    the store per tenant: a consumer only ever replays *its own* traffic,
    so no tenant can observe another tenant's queries through charging
    or timing differences — the isolation property that also makes
    sharded multi-tenant replay (:mod:`repro.workload`) bit-identical
    to serial replay regardless of the shard count.
online defense hook
    After a chunk is computed, the scenario's
    :class:`~repro.api.defenses.DefenseStack` gets an ``on_query`` pass
    over the fresh responses with a :class:`QueryContext` describing who
    asked for what. Per-query noise, rate limiting, and duplicate-query
    auditing all live behind this hook and compose with the existing
    screen/wrap/release_mask hooks.

The service is also the release point for the plaintext parameters θ the
paper grants the active party (§III-B): :meth:`release_model` peels the
output-defense wrappers, because §VII defenses perturb *served scores*,
never the released weights.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.checkpoint import (
    CheckpointPlan,
    capture_state,
    content_fingerprint,
    raw_fragment,
    restore_state,
)
from repro.defenses.base import unwrap_model
from repro.exceptions import (
    CheckpointError,
    CommBudgetExceededError,
    PartyUnavailableError,
    ProtocolError,
    ServiceUnavailableError,
    ValidationError,
)
from repro.federated.model import VerticalFLModel
from repro.models.base import BaseClassifier
from repro.resilience import BreakerPolicy, CircuitBreaker
from repro.serving.cache import ResponseCache
from repro.serving.ledger import QueryLedger
from repro.telemetry import NULL_TRACER
from repro.utils.validation import check_positive_int

__all__ = ["PredictionService", "QueryContext"]

#: Exhaustion policies: fail the whole request, or serve what fits.
EXHAUSTION_MODES = ("raise", "truncate")

#: Cache scopes: one shared store, or one store per consumer (tenant
#: isolation — a consumer only replays its own traffic).
CACHE_SCOPES = ("shared", "consumer")


@dataclass(frozen=True)
class QueryContext:
    """What an ``on_query`` defense hook learns about one served chunk.

    Attributes
    ----------
    consumer:
        The ledger name of whoever issued the query (for a scenario run,
        the attack's registry key).
    sample_indices:
        The sample ids of the freshly computed responses in this chunk —
        the rows of the ``V`` matrix the hook may perturb.
    service:
        The serving instance — hooks read the ledger, the protocol's
        sample hashes, and the defense rng through it.
    replayed_indices:
        Sample ids served from the response cache in this chunk. Their
        stored responses are *not* re-presented for perturbation (a
        replay is byte-stable by contract), but auditing defenses see
        them here — a duplicate query is exactly what they exist to
        catch.
    sample_hashes:
        Content fingerprints for ``sample_indices`` followed by
        ``replayed_indices``, when the service already computed them for
        its cache; ``None`` otherwise (hooks needing hashes then call
        ``service.vfl.sample_hashes`` themselves).
    """

    consumer: str
    sample_indices: np.ndarray
    service: "PredictionService"
    replayed_indices: np.ndarray = dataclasses.field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    sample_hashes: "tuple[str, ...] | None" = None


def _at(chunk: np.ndarray, positions: "list[int]") -> np.ndarray:
    """``chunk[positions]`` for ascending distinct positions.

    The chunk itself when they cover it, so a chunk of all misses or
    all replays costs no gather.
    """
    if len(positions) == chunk.size:
        return chunk
    return chunk[positions] if positions else chunk[:0]


class PredictionService:
    """Metered, batched, cacheable façade over one deployed VFL model.

    Parameters
    ----------
    vfl:
        The deployment: prediction protocol plus (possibly
        output-wrapped) served model.
    defense_stack:
        Online hook point — each computed chunk passes through the
        stack's ``on_query`` before release. ``None`` serves raw.
    ledger:
        An existing ledger to share between services (e.g. one budget
        across several deployments); mutually exclusive with
        ``query_budget``.
    query_budget:
        Convenience for ``ledger=QueryLedger(budget=...)``.
    max_batch:
        Largest number of samples computed per protocol round; ``None``
        serves each request in one vectorized round.
    cache:
        Memoize responses by sample hash and replay repeats for free.
    cache_size:
        LRU bound on the response cache (requires ``cache=True``);
        ``None`` stores every response forever — the historical
        behavior. Evictions are recorded on the ledger
        (:meth:`~repro.serving.ledger.QueryLedger.record_evictions`),
        so hit counts stay exactly reconcilable.
    cache_scope:
        ``"shared"`` (default) memoizes across consumers;
        ``"consumer"`` gives each tenant its own (LRU-bounded) store,
        isolating tenants from each other's traffic. With a bound, the
        bound applies per store.
    rng:
        Defense stream for online perturbations (``query_noise`` draws
        from it when it has no stream of its own).
    exhaustion:
        ``"raise"`` fails a request that would cross the budget;
        ``"truncate"`` serves the prefix that fits and stops.
    breaker:
        Per-consumer circuit breaking: a
        :class:`~repro.resilience.BreakerPolicy`, an int failure
        threshold, a policy payload dict, or ``None`` (default, no
        breaking — identical to prior behaviour). With a policy, a
        consumer whose queries keep failing against the federation
        runtime gets :class:`~repro.exceptions.ServiceUnavailableError`
        refusals instead of spending protocol rounds, with half-open
        probes after the cooldown (see
        :class:`~repro.resilience.CircuitBreaker`).
    tracer:
        A :class:`~repro.telemetry.Tracer` to report into: one
        ``serving.query`` span per request, one ``serving.chunk`` span
        per protocol round, ``breaker.transition`` events whenever a
        consumer's breaker changes state, ``checkpoint.snapshot``
        events on checkpointed accumulation, and cache-hit/refusal
        counters. ``None`` (default) stores
        :data:`~repro.telemetry.NULL_TRACER`, whose spans and events do
        nothing, so traced and untraced queries run the same code.
    """

    def __init__(
        self,
        vfl: VerticalFLModel,
        *,
        defense_stack=None,
        ledger: "QueryLedger | None" = None,
        query_budget: "int | None" = None,
        max_batch: "int | None" = None,
        cache: bool = False,
        cache_size: "int | None" = None,
        cache_scope: str = "shared",
        rng: "np.random.Generator | None" = None,
        exhaustion: str = "raise",
        breaker: "BreakerPolicy | int | dict | None" = None,
        runtime=None,
        tracer=None,
    ) -> None:
        if ledger is not None and query_budget is not None:
            raise ValidationError(
                "pass either an existing ledger or a query_budget, not both"
            )
        if runtime is not None and runtime.vfl is not vfl:
            raise ValidationError(
                "the federation runtime serves a different deployment than "
                "the one handed to this service"
            )
        if exhaustion not in EXHAUSTION_MODES:
            raise ValidationError(
                f"exhaustion must be one of {EXHAUSTION_MODES}, got {exhaustion!r}"
            )
        if cache_scope not in CACHE_SCOPES:
            raise ValidationError(
                f"cache_scope must be one of {CACHE_SCOPES}, got {cache_scope!r}"
            )
        if cache_size is not None and not cache:
            raise ValidationError(
                "cache_size bounds the response cache and is meaningless "
                "without cache=True; enable the cache or drop the bound"
            )
        self.vfl = vfl
        self.runtime = runtime
        self.defense_stack = defense_stack
        self.ledger = ledger if ledger is not None else QueryLedger(budget=query_budget)
        self.max_batch = (
            None if max_batch is None else check_positive_int(max_batch, name="max_batch")
        )
        self.cache_size = (
            None if cache_size is None else check_positive_int(cache_size, name="cache_size")
        )
        self.cache_scope = cache_scope
        self._caches: "dict[str, ResponseCache] | None" = {} if cache else None
        self.rng = rng
        self.exhaustion = exhaustion
        self.breaker_policy = BreakerPolicy.from_spec(breaker)
        self._breakers: dict[str, CircuitBreaker] = {}
        self.tracer = tracer or NULL_TRACER
        # Fingerprint chunks once, here, when the cache or any stacked
        # defense consumes hashes (e.g. query_audit) — not once per
        # defense per chunk.
        self.hashes_chunks = cache or (
            defense_stack is not None
            and any(
                getattr(defense, "wants_sample_hashes", False)
                for defense in defense_stack
            )
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Samples in the deployment's aligned prediction dataset."""
        return self.vfl.n_samples

    @property
    def n_classes(self) -> int:
        """Width of every response row."""
        return self.vfl.n_classes

    @property
    def cache_enabled(self) -> bool:
        """Whether responses are memoized by sample hash."""
        return self._caches is not None

    @property
    def cache_entries(self) -> int:
        """Distinct sample hashes currently memoized, across every scope."""
        if self._caches is None:
            return 0
        return sum(len(cache) for cache in self._caches.values())

    @property
    def cache_evictions(self) -> int:
        """Responses dropped by the LRU bound so far, across every scope."""
        if self._caches is None:
            return 0
        return sum(cache.evictions for cache in self._caches.values())

    def _cache_for(self, consumer: str) -> ResponseCache:
        """The (scope-resolved) response store serving ``consumer``."""
        key = consumer if self.cache_scope == "consumer" else ""
        cache = self._caches.get(key)
        if cache is None:
            cache = self._caches[key] = ResponseCache(self.cache_size)
        return cache

    def release_model(self) -> BaseClassifier:
        """The plaintext released model θ (§III-B), defenses peeled off."""
        return unwrap_model(self.vfl.model)

    # ------------------------------------------------------------------
    # The query interface
    # ------------------------------------------------------------------
    def query(
        self,
        sample_indices: np.ndarray,
        *,
        consumer: str = "anonymous",
        checkpoint: "CheckpointPlan | None" = None,
    ) -> np.ndarray:
        """Confidence scores for the requested samples, ``(N, C)``.

        The only path from an attack to the deployed model: batched by
        ``max_batch``, charged to ``consumer`` on the ledger, served from
        the cache where possible, and passed through the defense stack's
        ``on_query`` hooks. In ``truncate`` mode the returned matrix may
        be a prefix of the request — compare ``len(result)`` with the
        request length to detect where the budget bound. A federation
        communication budget binds the same way: the round that cannot
        afford its wire traffic raises
        :class:`~repro.exceptions.CommBudgetExceededError` (its query
        charge refunded — the consumer received nothing), or in
        ``truncate`` mode ends the accumulation at the last affordable
        round.

        With a ``checkpoint`` plan, each served chunk (== one protocol
        round) ends with a snapshot of the accumulated rows, the query
        ledger, the response caches, the federation comm ledger (when a
        runtime is attached) and the defense rng stream — and the call
        first resumes from the plan's latest matching snapshot, skipping
        chunks already served. The resumed response is bit-identical to
        an uninterrupted one. Checkpointing refuses a non-empty defense
        stack: per-defense tallies are not snapshotted, and silently
        dropping them would break the contract.

        With a ``breaker`` policy, the request is first gated by the
        consumer's circuit breaker: an open breaker refuses with
        :class:`~repro.exceptions.ServiceUnavailableError` before any
        protocol round runs, and a runtime failure
        (:class:`~repro.exceptions.PartyUnavailableError` and
        subclasses) is recorded on the breaker and re-raised as the same
        serving-level refusal — callers see one exception type for
        "this consumer is not being served right now".
        """
        indices = np.asarray(sample_indices, dtype=np.int64).ravel()
        if indices.size == 0:
            raise ProtocolError("prediction request with no sample ids")
        with self.tracer.span("serving.query", consumer=consumer, rows=indices.size) as span:
            if self.breaker_policy is None:
                result = self._query_dispatch(indices, consumer, checkpoint)
            else:
                breaker = self._breaker_for(consumer)
                if not self._trace_breaker(consumer, breaker, breaker.allow):
                    self.tracer.count("serving.refusals")
                    raise ServiceUnavailableError(
                        f"circuit breaker for consumer {consumer!r} is open after "
                        f"{breaker.failures} consecutive runtime failure(s); "
                        f"{breaker.cooldown_left} more refusal(s) before a half-open "
                        "probe is allowed"
                    )
                try:
                    result = self._query_dispatch(indices, consumer, checkpoint)
                except PartyUnavailableError as exc:
                    self._trace_breaker(consumer, breaker, breaker.record_failure)
                    raise ServiceUnavailableError(
                        f"query for consumer {consumer!r} failed against the "
                        f"federation runtime ({exc}); the circuit breaker is now "
                        f"{breaker.state!r}"
                    ) from exc
                self._trace_breaker(consumer, breaker, breaker.record_success)
            span["served"] = result.shape[0]
            return result

    def _trace_breaker(self, consumer: str, breaker: CircuitBreaker, operation):
        """Run one breaker ``operation``; emit ``breaker.transition`` if it moved.

        The breaker lives one DAG rank below telemetry, so the serving
        layer observes transitions from outside rather than having the
        breaker report upward.
        """
        before = breaker.state
        outcome = operation()
        if breaker.state != before:
            self.tracer.event(
                "breaker.transition",
                consumer=consumer,
                from_state=before,
                to_state=breaker.state,
                failures=breaker.failures,
            )
        return outcome

    def _breaker_for(self, consumer: str) -> CircuitBreaker:
        """The (lazily created) breaker gating ``consumer``'s queries."""
        breaker = self._breakers.get(consumer)
        if breaker is None:
            breaker = self._breakers[consumer] = CircuitBreaker(self.breaker_policy)
        return breaker

    def _query_dispatch(
        self,
        indices: np.ndarray,
        consumer: str,
        checkpoint: "CheckpointPlan | None",
    ) -> np.ndarray:
        """The pre-breaker query body: batching, metering, caching.

        The one accumulation loop: a plan, when given, resumes it and
        snapshots each chunk boundary; without one it is never consulted.
        """
        blocks: list[np.ndarray] = []
        size = indices.size
        step = self.max_batch or size
        start_pos = 0
        if checkpoint is not None:
            blocks, start_pos = self._resume_query(indices, consumer, checkpoint)
        for start in range(start_pos, size, step):
            try:
                block, exhausted = self._serve_chunk(
                    indices if start == 0 and step >= size else indices[start : start + step],
                    consumer,
                )
            except CommBudgetExceededError:
                if self.exhaustion != "truncate":
                    raise
                # The refused round's query charge was refunded by
                # _serve_chunk; bytes already moved stay on the comm
                # ledger — partial traffic is genuinely spent.
                block, exhausted = np.empty((0, self.n_classes)), True
            if block.size:
                blocks.append(block)
            if checkpoint is not None:
                chunk_index = start // step
                checkpoint.maybe_emit(
                    chunk_index,
                    lambda: self._chunk_fragments(chunk_index, blocks),
                    meta={"next_start": start + step, "done": exhausted},
                )
            if exhausted:
                break
        if not blocks:
            return np.empty((0, self.n_classes))
        if len(blocks) == 1:
            # A lone block is returned as is, unless it is the served
            # prefix of a padded max_batch round: never hand out pad rows.
            (block,) = blocks
            return block if block.base is None else block.copy()
        return np.vstack(blocks)

    # ------------------------------------------------------------------
    # Checkpointed accumulation
    # ------------------------------------------------------------------
    def _query_fingerprint(self, indices: np.ndarray, consumer: str) -> str:
        """Bind snapshots to this exact request against this deployment."""
        serving = {
            "n_samples": self.n_samples,
            "n_classes": self.n_classes,
            "max_batch": self.max_batch,
            "cache": self.cache_enabled,
            "cache_size": self.cache_size,
            "cache_scope": self.cache_scope,
            "exhaustion": self.exhaustion,
            "budget": self.ledger.budget,
            "consumer_budgets": dict(self.ledger.consumer_budgets),
        }
        # Only when enabled, so breaker-free fingerprints stay byte-
        # identical to snapshots written before the resilience layer.
        if self.breaker_policy is not None:
            serving["breaker"] = self.breaker_policy.to_payload()
        # Same rule for telemetry: traced and untraced runs may not
        # share snapshots (the trace would silently lose records).
        if self.tracer.enabled:
            serving["telemetry"] = True
        return content_fingerprint(
            {
                "serving": serving,
                "consumer": consumer,
                "indices": indices,
            }
        )

    def serving_fragments(self) -> dict:
        """Checkpoint fragments for this service's mutable serving state.

        Query ledger, every response-cache store, the federation comm
        ledger (when a runtime is attached), and the defense rng stream
        (when one exists). The workload layer snapshots whole shard
        fleets through this same method, so serving state has exactly
        one checkpoint shape.
        """
        fragments = {"ledger": capture_state(self.ledger)}
        if self._caches is not None:
            for key, cache in self._caches.items():
                fragments[f"cache:{key}"] = capture_state(cache)
        if self.runtime is not None:
            fragments["comm"] = capture_state(self.runtime.ledger)
            if self.runtime.engaged:
                fragments["resilience"] = capture_state(self.runtime.resilience)
        if self.rng is not None:
            fragments["rng"] = capture_state(self.rng)
        if self.breaker_policy is not None:
            for name, breaker in self._breakers.items():
                fragments[f"breaker:{name}"] = capture_state(breaker)
        if self.tracer.enabled:
            fragments["telemetry"] = capture_state(self.tracer)
        return fragments

    def restore_serving_fragments(self, fragments: dict) -> None:
        """Reinstate :meth:`serving_fragments` output onto this service.

        Unknown fragment names are ignored (callers may bundle their own
        alongside); state present in the snapshot but impossible on this
        service — cache rows with caching disabled, comm bytes with no
        runtime — raises :class:`~repro.exceptions.CheckpointError`
        rather than silently dropping bookkeeping.
        """
        restore_state(self.ledger, fragments["ledger"])
        for name, fragment in fragments.items():
            if name.startswith("cache:"):
                if self._caches is None:
                    raise CheckpointError(
                        "snapshot holds response-cache state but this service "
                        "has caching disabled"
                    )
                cache = ResponseCache(self.cache_size)
                restore_state(cache, fragment)
                self._caches[name[len("cache:"):]] = cache
        if "comm" in fragments:
            if self.runtime is None:
                raise CheckpointError(
                    "snapshot holds federation comm state but this service "
                    "has no runtime attached"
                )
            restore_state(self.runtime.ledger, fragments["comm"])
        if "resilience" in fragments:
            if self.runtime is None or not self.runtime.engaged:
                raise CheckpointError(
                    "snapshot holds resilience state (clock/availability/"
                    "reply cache) but this service's runtime is fail-fast "
                    "(no retry, quorum or stochastic fault engaged)"
                )
            restore_state(self.runtime.resilience, fragments["resilience"])
        for name, fragment in fragments.items():
            if name.startswith("breaker:"):
                if self.breaker_policy is None:
                    raise CheckpointError(
                        "snapshot holds circuit-breaker state but this "
                        "service has no breaker policy"
                    )
                breaker = CircuitBreaker(self.breaker_policy)
                restore_state(breaker, fragment)
                self._breakers[name[len("breaker:"):]] = breaker
        if "rng" in fragments:
            if self.rng is None:
                raise CheckpointError(
                    "snapshot holds a defense rng stream but this service "
                    "has none"
                )
            restore_state(self.rng, fragments["rng"])
        if "telemetry" in fragments:
            if not self.tracer.enabled:
                raise CheckpointError(
                    "snapshot holds tracer state but this service has no "
                    "tracer attached; rerun with the same telemetry knob "
                    "the snapshot was written under"
                )
            restore_state(self.tracer, fragments["telemetry"])

    def _chunk_fragments(self, chunk_index: int, blocks: "list[np.ndarray]") -> dict:
        """Snapshot fragments for one chunk boundary of an accumulation."""
        # The snapshot event precedes the tracer capture, so the captured
        # seq counts it and a resumed trace lines up record for record.
        self.tracer.event("checkpoint.snapshot", scope="serving", chunk=chunk_index)
        rows = (
            np.vstack(blocks) if blocks else np.empty((0, self.n_classes))
        )
        return {
            **self.serving_fragments(),
            "rows": raw_fragment(arrays={"rows": rows}),
        }

    def _resume_query(
        self, indices: np.ndarray, consumer: str, checkpoint: CheckpointPlan
    ) -> "tuple[list[np.ndarray], int]":
        """Bind the plan and restore its latest snapshot: ``(blocks, start)``."""
        if self.defense_stack is not None and len(self.defense_stack):
            raise CheckpointError(
                "checkpointed accumulation refuses a non-empty defense "
                "stack: per-defense tallies are not snapshotted, so a "
                "resumed run could diverge silently"
            )
        checkpoint.bind_fingerprint(self._query_fingerprint(indices, consumer))
        snapshot = checkpoint.latest()
        if snapshot is None:
            return [], 0
        self.restore_serving_fragments(snapshot.fragments)
        rows = snapshot.fragment("rows")["arrays"]["rows"]
        blocks = [rows] if rows.size else []
        # A snapshot taken once the budget bound resumes past the end.
        done = snapshot.meta["done"]
        return blocks, indices.size if done else int(snapshot.meta["next_start"])

    def query_all(self, *, consumer: str = "anonymous") -> np.ndarray:
        """Query every sample of the prediction dataset."""
        return self.query(np.arange(self.n_samples), consumer=consumer)

    def _serve_chunk(
        self, chunk: np.ndarray, consumer: str
    ) -> tuple[np.ndarray, bool]:
        """Serve one ``max_batch``-sized chunk; True means budget exhausted.

        Without a cache every position is a miss, so the budget grants a
        prefix of the chunk and that prefix is the response: no position
        lists, no gathers.
        """
        with self.tracer.span("serving.chunk", consumer=consumer, rows=chunk.size) as span:
            hashes = self.vfl.sample_hashes(chunk) if self.hashes_chunks else None
            if self._caches is None:
                size = chunk.size
                if self.exhaustion == "raise":
                    granted = self.ledger.charge(size, consumer)
                else:
                    granted = self.ledger.grant(size, consumer)
                if granted < size:
                    chunk = chunk[:granted]
                    if hashes is not None:
                        hashes = hashes[:granted]
                block = self._release(chunk, granted, None, hashes, consumer)
                exhausted = granted < size
            else:
                block, exhausted = self._serve_cached(chunk, hashes, consumer)
            span["served"] = block.shape[0]
            span["exhausted"] = exhausted
            return block, exhausted

    def _serve_cached(
        self, chunk: np.ndarray, hashes: "list[str]", consumer: str
    ) -> tuple[np.ndarray, bool]:
        """:meth:`_serve_chunk` with the response cache: misses are
        charged and computed, repeats replay their stored rows."""
        cache = self._cache_for(consumer)
        # A repeated sample id (or repeated content) within one chunk
        # is a single chargeable computation; later occurrences replay.
        miss_pos: list[int] = []
        replay_pos: list[int] = []
        pending: set[str] = set()
        for i, digest in enumerate(hashes):
            if digest in cache or digest in pending:
                replay_pos.append(i)
            else:
                miss_pos.append(i)
                pending.add(digest)

        granted = 0
        if miss_pos:
            if self.exhaustion == "raise":
                granted = self.ledger.charge(len(miss_pos), consumer)
            else:
                granted = self.ledger.grant(len(miss_pos), consumer)

        # Positions past the first unserved miss are withheld (truncation);
        # every miss before it was granted, so the rest before it replay.
        cutoff = chunk.size if granted == len(miss_pos) else miss_pos[granted]
        served_miss = miss_pos[:granted]
        hit_pos = (
            replay_pos
            if cutoff == chunk.size
            else [position for position in replay_pos if position < cutoff]
        )
        computed = self._release(
            _at(chunk, served_miss),
            granted,
            _at(chunk, hit_pos),
            [hashes[i] for i in served_miss + hit_pos],
            consumer,
        )

        # Stage every row this chunk releases before any insert: with an
        # LRU bound, writing the computed rows could evict an entry a
        # later position of this very chunk still replays.
        staged: dict[str, np.ndarray] = {}
        for position in hit_pos:
            digest = hashes[position]
            if digest not in staged and digest in cache:
                staged[digest] = cache.get(digest)
        block = np.empty((cutoff, self.n_classes))
        evicted = 0
        next_miss = 0
        for position in range(cutoff):
            digest = hashes[position]
            if next_miss < granted and position == served_miss[next_miss]:
                row = computed[next_miss].copy()
                staged[digest] = row
                evicted += cache.put(digest, row)
                next_miss += 1
            # A non-miss position replays a stored row — or, for an
            # intra-chunk duplicate, the row its first occurrence staged.
            block[position] = staged[digest]
        if evicted:
            self.ledger.record_evictions(evicted, consumer)
        if hit_pos:
            self.ledger.record_cache_hits(len(hit_pos), consumer)
            self.tracer.count("serving.cache_hits", len(hit_pos))
        return block, cutoff < chunk.size

    def _protocol_predict(self, indices: np.ndarray) -> np.ndarray:
        """Execute one protocol round at the service's canonical shape.

        BLAS picks its matmul kernel by matrix shape, and different
        kernels may reassociate sums differently — a one-ulp drift that
        would break the bitwise batched-vs-serial contract for LR/NN
        deployments. With ``max_batch`` set, every round is therefore
        padded (by repeating the last sample id) to exactly ``max_batch``
        rows and the pad rows dropped: all rounds share one kernel
        shape, and a matmul's row results are independent of the other
        rows, so any request partition yields identical bytes. With
        ``max_batch=None`` the request is served as a single round,
        byte-compatible with the historical direct protocol call. (Pad
        rows cost duplicate entries in the protocol's prediction log;
        the ledger, which meters the adversary, never sees them.)

        With a :class:`~repro.federation.FederationRuntime` attached,
        the round executes as metered message-passing — byte-identical
        output, every cross-party block charged to the runtime's
        :class:`~repro.federation.CommLedger` — so one service chunk is
        exactly one protocol round in the communication accounting.
        """
        predict = self.vfl.predict if self.runtime is None else self.runtime.predict
        if self.max_batch is None or indices.size == self.max_batch:
            return predict(indices)
        padded = np.empty(self.max_batch, dtype=np.int64)
        padded.fill(indices[-1])
        padded[: indices.size] = indices
        return predict(padded)[: indices.size]

    def _release(
        self,
        served: np.ndarray,
        granted: int,
        replayed: "np.ndarray | None",
        hashes: "list[str] | None",
        consumer: str,
    ) -> np.ndarray:
        """The responses to the ``granted`` ids ``served``, as released.

        One protocol round computes them; a non-empty defense stack's
        ``on_query`` then sees them beside the chunk's cache replays
        (``replayed``, ``None`` without a cache) and the fingerprints of
        ``served`` followed by ``replayed``. With nothing to compute and
        nothing replayed, no round runs and no hook is called. A batch
        that is not released refunds its charge, so the ledger keeps
        meaning "responses the consumer received".
        """
        if not granted and (replayed is None or not replayed.size):
            return np.empty((0, self.n_classes))
        stack = self.defense_stack
        released = False
        try:
            computed = (
                self._protocol_predict(served)
                if granted
                else np.empty((0, self.n_classes))
            )
            if stack is not None and len(stack):
                context = QueryContext(
                    consumer=consumer,
                    sample_indices=served,
                    service=self,
                    replayed_indices=served[:0] if replayed is None else replayed,
                    sample_hashes=None if hashes is None else tuple(hashes),
                )
                computed = stack.on_query(computed, context)
            released = True
        finally:
            # try/finally instead of a broad except: a protocol failure,
            # the defense's refusal (or any genuine bug) propagates
            # untouched.
            if not released:
                self.ledger.refund(granted, consumer)
        return computed

    def __repr__(self) -> str:
        spans = self.tracer.records_emitted
        breakers = (
            "off"
            if self.breaker_policy is None
            else {name: b.state for name, b in sorted(self._breakers.items())}
        )
        return (
            f"PredictionService(n_samples={self.n_samples}, "
            f"max_batch={self.max_batch}, cache={self.cache_enabled}, "
            f"queries_used={self.ledger.queries_used}, "
            f"spans={spans}, breakers={breakers})"
        )

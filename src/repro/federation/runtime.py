"""The federation runtime: protocol rounds over a metered transport.

Where :class:`~repro.federated.model.VerticalFLModel` collapses the
"simulated secure protocol" into one in-process concatenation, the
runtime executes it as explicit message-passing rounds: the active party
node requests rows, passive party nodes reply with their encoded column
blocks, and the active node assembles and evaluates — every cross-party
value a serialized :class:`~repro.federation.message.Message` charged to
the :class:`~repro.federation.ledger.CommLedger`. The in-process
concatenation survives as the *oracle*: for any scheduler,
:meth:`FederationRuntime.predict` is byte-identical to
:meth:`VerticalFLModel.predict` (the wire codec is lossless for float64
blocks and the assembly scatter is column-for-column the same).

One prediction round = one request/reply exchange serving a whole index
batch; the serving layer maps each of its protocol rounds onto one
runtime round, so ``bytes/round`` is well-defined for any batching.
Training stays in process
(:func:`~repro.federated.model.train_vertical_model`): the paper's
adversary acts only in the prediction stage, and its training phase is
perfectly protected.

There is one round implementation. Its defaults — one attempt, every
party required — are fail-fast; ``retry``/``quorum`` widen the same
round into retry waves and quorum-degraded service.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.exceptions import (
    PartyTimeoutError,
    PartyUnavailableError,
    ProtocolError,
    QuorumLostError,
    ValidationError,
    WireFormatError,
)
from repro.federated.model import VerticalFLModel
from repro.federation.faults import FaultPlan
from repro.federation.ledger import CommLedger
from repro.federation.message import encoded_size
from repro.federation.nodes import (
    FEATURE_BLOCK,
    FEATURE_REQUEST,
    ActivePartyNode,
    PassivePartyNode,
)
from repro.federation.scheduler import RoundScheduler, make_scheduler
from repro.federation.transport import Transport
from repro.resilience import DEGRADATIONS, ResilienceState, RetryPolicy
from repro.telemetry import NULL_TRACER
from repro.utils.knobs import Float, Int, OneOf
from repro.utils.validation import is_int

__all__ = ["FederationRuntime", "check_quorum"]


#: The ``quorum`` knob's shape: an int count of surviving parties, or a
#: fraction in (0, 1] of the deployment's parties.
QUORUM = OneOf(Int(low=1), Float(low=0, high=1, low_open=True))


def check_quorum(
    quorum: "int | float | None", n_parties: "int | None" = None
) -> "int | float | None":
    """Validate a ``quorum`` knob against :data:`QUORUM`; returns it unchanged.

    ``None`` fails a round fast on any lost party. An integer's upper
    bound is the party count, so with ``n_parties=None`` (no topology
    built yet) only the shape is checked.
    """
    tail = None if quorum is None else QUORUM.problem(quorum)
    if tail is None and is_int(quorum) and n_parties is not None and quorum > n_parties:
        tail = f"{quorum}, more than the {n_parties} parties"
    if tail is not None:
        raise ValidationError(f"quorum must be {QUORUM.expected()} or None, got {tail}")
    return quorum


class FederationRuntime:
    """Message-passing façade over one deployed vertical FL model.

    Parameters
    ----------
    vfl:
        The deployment to serve (model + partition + aligned parties).
    scheduler:
        ``"sequential"`` (reference), ``"threaded"`` (parallel party
        execution behind a deterministic round barrier), or a
        :class:`~repro.federation.scheduler.RoundScheduler` instance.
    comm_budget:
        Byte budget for the underlying :class:`CommLedger`; an
        over-budget send raises
        :class:`~repro.exceptions.CommBudgetExceededError`.
    message_budget:
        Optional cap on message count.
    faults:
        A :class:`~repro.federation.faults.FaultPlan` (or ``None``) —
        dropped parties, straggler delays, and stochastic storm kinds,
        validated against the deployment's party count.
    retry:
        A :class:`~repro.resilience.RetryPolicy`, an int attempt count,
        a policy payload dict, or ``None`` (the default policy: one
        attempt, no timeout). With more than one attempt, failed parties
        are retried in waves, each retry metered as real request frames
        plus a ledger retry count; replies slower than the policy
        timeout are discarded as metered timeouts.
    quorum:
        ``None`` (default) fails a round fast when any party stays
        missing after its attempts. A float in ``(0, 1]`` or an int
        party count degrades instead: if at least that many parties
        (active included) survive, the missing blocks are imputed and
        the round is recorded as degraded.
    degradation:
        Imputation strategy key from
        :data:`~repro.resilience.DEGRADATIONS` (``"zero_fill"``,
        ``"last_known"``) used for quorum-degraded rounds.
    tracer:
        A :class:`~repro.telemetry.Tracer` to report into: one
        ``federation.round`` span per exchange, ``resilience.retry_wave``
        events per retry wave, and ``federation.degraded`` events for
        quorum-degraded rounds. When :attr:`engaged`, the simulated
        clock is bound as the tracer's time source, so span ``sim``
        seconds track protocol latency. ``None`` (default) stores
        :data:`~repro.telemetry.NULL_TRACER`: the same calls, no
        records.

    Every round runs the same exchange whatever the knobs. Whether its
    resilience bookkeeping (:attr:`resilience`: simulated clock,
    degraded-round log, reply cache) is *reported* is :attr:`engaged`.
    """

    def __init__(
        self,
        vfl: VerticalFLModel,
        *,
        scheduler: "str | RoundScheduler" = "sequential",
        comm_budget: "int | None" = None,
        message_budget: "int | None" = None,
        faults: "FaultPlan | None" = None,
        retry: "RetryPolicy | int | dict | None" = None,
        quorum: "int | float | None" = None,
        degradation: str = "zero_fill",
        tracer=None,
    ) -> None:
        self.vfl = vfl
        self.scheduler = make_scheduler(scheduler)
        self.transport = Transport(CommLedger(comm_budget, message_budget=message_budget))
        self.faults = faults if faults is not None else FaultPlan()
        self.faults.validate_parties(len(vfl.parties))
        self.retry_policy = RetryPolicy.from_spec(retry)
        self.quorum = check_quorum(quorum, len(vfl.parties))
        DEGRADATIONS.get(degradation)  # choices-listing error on typos
        self.degradation = degradation
        self._engaged = (
            retry is not None or quorum is not None or self.faults.has_stochastic
        )
        self.resilience = ResilienceState()
        self.tracer = tracer or NULL_TRACER
        if self._engaged:
            # Read through self.resilience on every tick: a checkpoint
            # restore replaces the SimClock object, and a captured
            # reference would keep reporting the dead clock.
            self.tracer.bind_clock(lambda: self.resilience.clock.now)
        self._active = ActivePartyNode(vfl.parties[0], self.transport, self.faults)
        self._passives = [
            PassivePartyNode(party, self.transport, self.faults)
            for party in vfl.parties[1:]
        ]
        self._passive_by_id = {node.party_id: node for node in self._passives}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engaged(self) -> bool:
        """Whether the resilience bookkeeping is reported.

        True when ``retry`` or ``quorum`` was given, or the fault plan
        holds stochastic kinds. Only then does
        :meth:`availability_report` fill in, is the simulated clock the
        tracer's ``sim`` source, and do serving snapshots carry the
        ``"resilience"`` fragment; a fail-fast runtime keeps all three
        empty. The rounds themselves run the same exchange either way.
        """
        return self._engaged

    @property
    def ledger(self) -> CommLedger:
        """The communication ledger every protocol message is charged to."""
        return self.transport.ledger

    @property
    def n_parties(self) -> int:
        """Parties participating in every round."""
        return len(self.vfl.parties)

    def estimate_predict_bytes(
        self, n_samples: int, *, max_batch: "int | None" = None
    ) -> int:
        """Exact wire bytes an undefended ``n_samples`` accumulation costs.

        Mirrors the serving layer's batching: with ``max_batch`` set,
        every protocol round is padded to exactly ``max_batch`` rows
        (``ceil(n/max_batch)`` rounds); without it, one round serves
        everything. Computed purely from
        :func:`~repro.federation.message.encoded_size` — no protocol is
        executed — and regression-tested to equal the measured ledger
        bytes, which is what lets communication budgets be planned as
        fractions of a full run. Assumes the cache-free request path
        (every row computed, none replayed).
        """
        n = int(n_samples)
        if n <= 0:
            raise ValidationError(f"n_samples must be positive, got {n}")
        if max_batch is None:
            n_rounds, rows = 1, n
        else:
            n_rounds, rows = math.ceil(n / int(max_batch)), int(max_batch)
        total = 0
        for node in self._passives:
            request = encoded_size(FEATURE_REQUEST, np.int64, (rows,))
            reply = encoded_size(
                FEATURE_BLOCK, np.float64, (rows, node.party.n_features)
            )
            total += n_rounds * (request + reply)
        return total

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def _exchange(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        """One traced protocol round over this deployment (see :meth:`_round`)."""
        with self.tracer.span(
            "federation.round", message=FEATURE_REQUEST, rows=int(rows.size)
        ) as span:
            blocks = self._round(rows)
            span["parties"] = len(blocks)
            return blocks

    def _round(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        """One request/reply exchange: a block from every passive party.

        The single definition of a protocol round. Structured as retry
        *waves*: every still-pending
        party gets a fresh (metered) request, the scheduler runs the
        responders with failures returned as values, the wave's replies
        are delivered and drained in party order — the deterministic
        barrier that keeps both schedulers bit-identical — and the
        simulated clock pays the slowest surviving reply plus any
        backoff. Every stochastic decision is a pure chaos function of
        ``(party, round, attempt)``, so a storm is bit-identical across
        schedulers and resumable mid-storm. With the default policy
        there is one wave and a lost party fails the round (see
        :meth:`_degrade_round`). On any failure the transport is
        cleared so delivered-but-unconsumed frames cannot poison a
        later round.
        """
        transport = self.transport
        ledger = transport.ledger
        policy = self.retry_policy
        outcome_of = self.faults.outcome
        make_request = self._active.make_request
        passive_by_id = self._passive_by_id
        clock = self.resilience.clock
        receiver = self._active.party_id
        round_id = ledger.begin_round()
        blocks: dict[int, np.ndarray] = {}
        # Each party's latest failure, quoted if the round is lost.
        failures: dict[int, PartyUnavailableError] = {}
        crashed: set[int] = set()
        pending = list(self._passive_by_id)
        completed = False
        try:
            for attempt in range(policy.max_attempts):
                if not pending:
                    break
                if attempt > 0:
                    ledger.record_retries(len(pending))
                    self.tracer.event(
                        "resilience.retry_wave",
                        round=int(round_id),
                        attempt=attempt,
                        pending=[int(p) for p in pending],
                    )
                    clock.advance(
                        max(policy.backoff(p, round_id, attempt) for p in pending)
                    )
                # Each party's request, then its chaos decision, made
                # once: the node acts on it and the round below reuses it.
                outcomes = []
                tasks = []
                for party in pending:
                    transport.send(make_request(party, rows, round_id))
                    outcome = outcome_of(party, round_id, attempt)
                    outcomes.append(outcome)
                    tasks.append(partial(passive_by_id[party].respond, outcome, attempt))
                replies = self.scheduler.run_round(tasks)
                wave_latency = 0.0
                still_pending: list[int] = []
                delivered: list[int] = []
                for party, outcome, reply in zip(pending, outcomes, replies):
                    if isinstance(reply, PartyUnavailableError):
                        failures[party] = reply
                        if outcome.permanent:
                            crashed.add(party)
                        else:
                            still_pending.append(party)
                        continue
                    if (
                        outcome.kind == "timeout"
                        and policy.timeout is not None
                        and outcome.latency > policy.timeout
                    ):
                        # The receiver closes the connection at the
                        # deadline: the request bytes are spent, the
                        # reply never crosses the wire, and the clock
                        # pays only up to the timeout.
                        ledger.record_timeouts(1)
                        wave_latency = max(wave_latency, policy.timeout)
                        failures[party] = PartyTimeoutError(
                            f"party {party}'s attempt {attempt} reply took "
                            f"{outcome.latency}s, past the {policy.timeout}s "
                            "timeout"
                        )
                        still_pending.append(party)
                        continue
                    wave_latency = max(wave_latency, outcome.latency)
                    if outcome.kind == "corrupt":
                        data = bytearray(reply.encode())
                        position = outcome.token % len(data)
                        bit = (outcome.token >> 32) % 8
                        data[position] ^= 1 << bit
                        transport.send_raw(
                            bytes(data),
                            sender=party,
                            receiver=receiver,
                            kind=reply.kind,
                            round_id=round_id,
                        )
                    else:
                        transport.send(reply)
                    delivered.append(party)
                clock.advance(wave_latency)
                # Drain this wave's frames in delivery (party) order; a
                # decode failure is attributable by position because the
                # inbox preserves it. The one place replies are checked.
                for party in delivered:
                    try:
                        message = transport.receive(receiver)
                    except WireFormatError as exc:
                        lost = PartyUnavailableError(
                            f"party {party}'s attempt {attempt} reply was "
                            f"corrupted in flight ({exc})"
                        )
                        lost.__cause__ = exc
                        failures[party] = lost
                        still_pending.append(party)
                        continue
                    if message.kind != FEATURE_BLOCK:
                        raise ProtocolError(
                            f"active party expected a block reply, got "
                            f"{message.kind!r} from party {message.sender}"
                        )
                    if message.round_id != round_id:
                        raise ProtocolError(
                            f"active party received a round-{message.round_id} "
                            f"block from party {message.sender} while "
                            f"collecting round {round_id}; a previous round "
                            "leaked state"
                        )
                    blocks[message.sender] = message.payload
                    if self._engaged:
                        # Feeds only ``last_known`` imputation and the
                        # snapshot fragment, both of which need engaging.
                        self.resilience.cache.put(message.sender, message.payload)
                pending = sorted(still_pending)
            if crashed or pending:
                missing = sorted(crashed | set(pending))
                blocks = self._degrade_round(rows, round_id, blocks, missing, failures)
            completed = True
            return blocks
        finally:
            if not completed:
                transport.clear()

    def _degrade_round(
        self,
        rows: np.ndarray,
        round_id: int,
        blocks: dict[int, np.ndarray],
        missing: list[int],
        failures: "dict[int, PartyUnavailableError]",
    ) -> dict[int, np.ndarray]:
        """Impute the missing parties' blocks, or fail the round.

        Without a quorum policy the round fails fast, chained from and
        quoting the last party's own failure (timeout-only losses
        surface as the more specific :class:`PartyTimeoutError`). With
        one, a surviving coalition at or above quorum proceeds on
        imputed blocks and the round is recorded in the availability
        log.
        """
        attempts = self.retry_policy.max_attempts
        if self.quorum is None:
            names = ", ".join(str(p) for p in missing)
            reasons = "; ".join(str(failures[p]) for p in missing)
            if all(isinstance(failures[p], PartyTimeoutError) for p in missing):
                raise PartyTimeoutError(
                    f"round {round_id} lost party(ies) {names}: every reply "
                    f"exceeded the {self.retry_policy.timeout}s timeout across "
                    f"{attempts} attempt(s)"
                ) from failures[missing[-1]]
            raise PartyUnavailableError(
                f"round {round_id} lost party(ies) {names} after {attempts} "
                f"attempt(s); no quorum policy allows degraded service "
                f"[{reasons}]"
            ) from failures[missing[-1]]
        if isinstance(self.quorum, int):
            required = self.quorum
        else:
            required = math.ceil(self.quorum * self.n_parties - 1e-9)
        live = self.n_parties - len(missing)
        if live < required:
            raise QuorumLostError(
                f"round {round_id} has {live} of {self.n_parties} parties "
                f"alive, below the quorum of {required}; degraded service is "
                "not possible"
            )
        strategy = DEGRADATIONS.get(self.degradation)
        for party in missing:
            blocks[party] = strategy(
                party,
                (rows.size, self._passive_by_id[party].party.n_features),
                self.resilience.cache,
            )
        self.resilience.availability.append(
            {
                "round": int(round_id),
                "missing": [int(p) for p in missing],
                "attempts": int(attempts),
                "strategy": self.degradation,
            }
        )
        self.tracer.event(
            "federation.degraded",
            round=int(round_id),
            missing=[int(p) for p in missing],
            strategy=self.degradation,
        )
        return blocks

    def availability_report(self) -> dict:
        """JSON-ready summary of degraded rounds and retry/timeout costs.

        Empty unless :attr:`engaged` — the report's presence is itself
        the signal that resilience knobs (or a stochastic storm) were
        active.
        """
        if not self._engaged:
            return {}
        return {
            "rounds_total": self.ledger.rounds,
            "rounds_degraded": len(self.resilience.availability),
            "degraded": [dict(entry) for entry in self.resilience.availability],
            "retries": self.ledger.retries,
            "timeouts": self.ledger.timeouts,
            "sim_seconds": self.resilience.clock.now,
        }

    def predict(self, sample_indices: np.ndarray) -> np.ndarray:
        """Confidence scores via one protocol round, ``(N, C)``.

        Byte-identical to :meth:`VerticalFLModel.predict` for the same
        indices (regression-tested per model kind and scheduler), with
        every passive block metered on the way in. The passive blocks
        arrived through the wire codec, not from the frozen party blocks
        the in-process round trusts, so the joint rows go through the
        model's validating ``predict_proba`` every round.
        """
        indices = np.asarray(sample_indices, dtype=np.int64).ravel()
        if indices.size == 0:
            raise ProtocolError("prediction request with no sample ids")
        blocks = self._exchange(indices)
        joint = self._active.assemble(
            indices, blocks, self.vfl.parties, self.vfl._column_order
        )
        self.vfl.prediction_log_.extend(indices.tolist())
        return self.vfl.model.predict_proba(joint)

    def predict_all(self) -> np.ndarray:
        """Serve every sample of the aligned prediction dataset."""
        return self.predict(np.arange(self.vfl.n_samples))

    def close(self) -> None:
        """Release scheduler workers (idempotent; safe to skip for GC)."""
        self.scheduler.close()

    def __repr__(self) -> str:
        spans = self.tracer.records_emitted
        return (
            f"FederationRuntime(parties={self.n_parties}, "
            f"scheduler={self.scheduler.name!r}, rounds={self.ledger.rounds}, "
            f"degraded={len(self.resilience.availability)}, spans={spans})"
        )


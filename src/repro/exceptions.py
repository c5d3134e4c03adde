"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch a single base class at an API boundary while still discriminating
finer-grained failures when they care.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, dtype, range, ...)."""


class ShapeError(ValidationError):
    """Two arrays have incompatible shapes for the requested operation."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted model was called before ``fit``."""


class GradientError(ReproError, RuntimeError):
    """Backward pass failed or produced gradients of unexpected shape."""


class PartitionError(ValidationError):
    """A vertical feature partition is malformed (overlap, gap, empty)."""


class ProtocolError(ReproError, RuntimeError):
    """The simulated VFL protocol was driven in an invalid order."""


class AttackError(ReproError, RuntimeError):
    """An attack could not be executed with the given inputs."""


class QueryBudgetExceededError(ReproError, RuntimeError):
    """A prediction query would exceed the consumer's remaining budget.

    Raised by the serving layer's :class:`~repro.serving.QueryLedger`
    when a metered :class:`~repro.serving.PredictionService` runs out of
    budget mid-accumulation, and by rate-limiting defenses gating the
    query interface. The message states the consumer, the request size,
    and what remains, so a truncated attack fails with an actionable
    diagnosis rather than a half-filled array three layers up.
    """


class WireFormatError(ProtocolError):
    """A federation message could not be decoded from its wire bytes.

    Raised by the :mod:`repro.federation.message` codec on truncated
    frames, bad magic, unsupported header versions, or payload dtypes the
    wire format cannot carry. The message states what was expected so a
    cross-version replay fails with a diagnosis, not a numpy shape error.
    """


class CommBudgetExceededError(ReproError, RuntimeError):
    """A protocol message would exceed the federation's communication budget.

    Raised by :class:`~repro.federation.CommLedger` when a metered
    :class:`~repro.federation.Transport` send would cross the byte or
    message budget. Mirrors :class:`QueryBudgetExceededError` one layer
    down: queries meter what the adversary *learns*, the comm ledger
    meters what the protocol *moves*.
    """


class PartyUnavailableError(ProtocolError):
    """A party required by a protocol round has dropped out.

    Raised by the federation runtime when fault injection marks a party
    as dropped (or a node fails to produce its round message); names the
    party and the round so stragglers and dropouts are distinguishable
    from programming errors.
    """


class PartyTimeoutError(PartyUnavailableError):
    """A party's reply exceeded the retry policy's per-attempt timeout.

    Raised (and counted on the :class:`~repro.federation.CommLedger`)
    by the protocol round when a ``timeout`` fault makes a reply's
    simulated latency cross :attr:`~repro.resilience.RetryPolicy.timeout`.
    A timed-out attempt is retried like any other failure; this error
    surfaces only when every attempt of a round timed out and no quorum
    policy allows degradation.
    """


class QuorumLostError(PartyUnavailableError):
    """Too few parties survived a round for even degraded service.

    Raised by the protocol round when retries are exhausted and the
    surviving coalition is smaller than the configured ``quorum`` — the
    round cannot be served even with imputed contributions. Subclasses
    :class:`PartyUnavailableError` so callers that fail fast on dropped
    parties today handle quorum loss without new catch sites.
    """


class ServiceUnavailableError(ReproError, RuntimeError):
    """The serving layer refused a query instead of executing it.

    Raised by :class:`~repro.serving.PredictionService` when a
    consumer's circuit breaker is open (recent protocol rounds against
    the federation runtime failed) or when the runtime failure that
    tripped the breaker is being reported to the caller. A refusal is a
    per-consumer serving decision, not a protocol error: the sharded
    replay records it as a refusal and keeps serving other consumers.
    """


class TelemetryError(ReproError, RuntimeError):
    """A trace could not be written, read, or trusted.

    Raised by the :mod:`repro.telemetry` subsystem when a JSONL trace
    file is corrupt mid-stream, or when a resumed run's record sequence
    does not line up with the records already durable in the file —
    appending would silently break the resumed-trace == fresh-trace
    concatenation contract, so the sink refuses instead.
    """


class CheckpointError(ReproError, RuntimeError):
    """A snapshot could not be written, read, or trusted.

    Raised by the :mod:`repro.checkpoint` subsystem when a snapshot file
    is corrupt (truncated archive, digest mismatch, unknown format
    version) or stale (its content fingerprint does not match the run
    configuration asking to resume from it). Refusal is deliberate:
    resuming from the wrong snapshot would silently violate the
    resumed-equals-fresh bit-identity contract, so the subsystem fails
    loudly instead.
    """


class CheckpointPause(ReproError):
    """A run suspended itself at a checkpoint boundary, as requested.

    Raised (not returned) by :class:`~repro.checkpoint.CheckpointPlan`
    after emitting the snapshot for its ``halt_after`` step, so arbitrary
    loop code unwinds through its normal cleanup (``finally`` blocks,
    context managers) with the snapshot already durable on disk. This is
    control flow, not failure — callers that schedule a deliberate
    suspension catch it and treat the run as suspended, resumable from
    the snapshot just written.
    """


class DatasetError(ValidationError):
    """A dataset specification or generated dataset is invalid."""


class ScenarioError(ValidationError):
    """A scenario request (registry key, config, defense outcome) is invalid."""


class IncompatibleScenarioError(ScenarioError):
    """A scenario combines components that cannot work together.

    Raised by the :mod:`repro.api` facade when an attack or defense is
    requested against a model kind it does not support (e.g. ESA on a
    decision tree); the message names the violated constraint.
    """

"""Deterministic telemetry: spans, events, counters, and trace tooling.

The observability layer the rest of the stack reports into. A
:class:`Tracer` emits ordered records — ``scenario.build``,
``serving.chunk``, ``federation.round``, ``resilience.retry_wave``,
``breaker.transition``, ``checkpoint.snapshot``, ``grna.epoch`` — whose
canonical content (logical ticks, steps, simulated-clock seconds,
attrs) is a pure function of (config, seed): the same scenario traced
on the sequential and the threaded scheduler, or across shard counts,
or killed and resumed, produces the same records. Wall-clock durations
ride in a quarantined ``wall`` field sourced exclusively from
:mod:`repro.telemetry.wall` (the lint timing tier's only telemetry
member) and ignored by every determinism check. Untraced code holds
the do-nothing :data:`NULL_TRACER`, so instrumented code has one path.

Records flow into a sink from :data:`TRACE_SINKS` — ``"memory"`` for
tests and benchmarks, ``"jsonl"`` for durable traces (append-only,
fsync'd per record, resume-aware by sequence number so a checkpointed
run's trace concatenates byte-identically with a fresh run's). The
``repro-trace`` console script (``summarize`` / ``critical-path`` /
``diff``) inspects recorded JSONL traces; scenario runs opt in through
the ``ScenarioConfig.telemetry`` knob and surface the roll-up on
``ScenarioReport.telemetry``.
"""

from repro.telemetry.sinks import (
    TRACE_SINKS,
    JsonlSink,
    MemorySink,
    TraceSink,
    load_trace,
)
from repro.telemetry.tracer import (
    NULL_TRACER, NullTracer, Tracer, TraceSpan, check_telemetry_spec, make_tracer,
)

# Register the tracer checkpoint codec on package import, mirroring the
# serving/resilience state modules.
from repro.telemetry import state as _state  # noqa: F401

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TRACE_SINKS",
    "JsonlSink",
    "MemorySink",
    "TraceSink",
    "TraceSpan",
    "Tracer",
    "check_telemetry_spec",
    "load_trace",
    "make_tracer",
]

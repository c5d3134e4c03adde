"""The :class:`Tracer`: ordered spans, events, and counters, deterministically.

Every record a tracer emits is a plain dict with a fixed schema::

    {"seq":    <emission index, 0-based, the sink order>,
     "span":   <unique id of this span/event>,
     "parent": <enclosing span id, or None at top level>,
     "type":   "span" | "event",
     "kind":   "serving.chunk" | "federation.round" | ...,
     "step":   <the owner-set logical step counter at open>,
     "t0":     <logical tick at open>,
     "t1":     <logical tick at close (== t0 for events)>,
     "sim0":   <SimClock seconds at open, or None when no clock is bound>,
     "sim1":   <SimClock seconds at close>,
     "attrs":  {<deterministic key/values set by the instrumentation>},
     "wall":   <wall-clock duration in seconds, or None>}

Untraced code holds :data:`NULL_TRACER`, whose every call does
nothing, so instrumented loops have one code path.

Everything except ``wall`` is a pure function of (config, seed): ticks
are a monotone counter advanced on every open/close/event, ``sim``
seconds come from whatever clock callable the owner binds (the
resilience layer's ``SimClock``, duck-typed so telemetry never imports
a sibling layer), and ``step`` is set by the instrumented loop (chunk
index, trace event index, epoch). ``wall`` is populated only when the
tracer is built with ``wall=True``, exclusively through
:mod:`repro.telemetry.wall`, and is ignored by every determinism check.

Span records are emitted at *close* time, so the sink order is the
close order — itself deterministic because spans are only opened and
closed from coordinator code, never inside scheduler worker tasks.
Closing pops the top of the open-span stack regardless of which handle
the ``with`` block holds: a checkpoint restore may have rewritten the
stack mid-span (see :mod:`repro.telemetry.state`), and the restored
span is the one whose close must hit the trace.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.exceptions import CheckpointPause, ValidationError
from repro.telemetry import wall as _wall
from repro.telemetry.sinks import TRACE_SINKS, JsonlSink, MemorySink, TraceSink

__all__ = [
    "NULL_TRACER", "NullTracer", "Tracer", "TraceSpan", "check_telemetry_spec", "make_tracer",
]


class TraceSpan:
    """One open span: identity plus everything captured at open time.

    Mutate ``attrs`` freely while the span is open — the dict is
    emitted at close. ``span["key"] = value`` is shorthand for
    ``span.attrs["key"] = value``.
    """

    __slots__ = ("span", "kind", "step", "t0", "sim0", "attrs", "wall0")

    def __init__(
        self,
        span: int,
        kind: str,
        step: int,
        t0: int,
        sim0: "float | None",
        attrs: dict[str, Any],
        wall0: "float | None",
    ) -> None:
        self.span = span
        self.kind = kind
        self.step = step
        self.t0 = t0
        self.sim0 = sim0
        self.attrs = attrs
        self.wall0 = wall0

    def __setitem__(self, key: str, value: Any) -> None:
        self.attrs[key] = value


class _SpanContext:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_kind", "_attrs")

    def __init__(self, tracer: "Tracer", kind: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self._kind = kind
        self._attrs = attrs

    def __enter__(self) -> TraceSpan:
        return self._tracer._open(self._kind, self._attrs)

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None and issubclass(exc_type, CheckpointPause):
            # A deliberate suspension: the span never completes in this
            # process — its close belongs to the resumed run, which
            # restores the open-span stack from the snapshot. Emitting
            # here would append records the fresh run never writes.
            self._tracer._abandon()
        else:
            self._tracer._close(error=exc_type is not None)


class Tracer:
    """Emit ordered, deterministic spans/events and keep running counters.

    Parameters
    ----------
    sink:
        Destination for emitted records; defaults to a fresh
        :class:`~repro.telemetry.sinks.MemorySink`.
    wall:
        When True, span records carry their wall-clock duration in the
        quarantined ``wall`` field (read through
        :mod:`repro.telemetry.wall` only). Default False: ``wall`` is
        None on every record and no wall clock is ever consulted.
    """

    #: Whether records are kept. Snapshot fingerprints and fragments
    #: branch on it: traced state must never resume untraced.
    enabled = True

    def __init__(self, sink: "TraceSink | None" = None, *, wall: bool = False) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self.wall = bool(wall)
        self._clock: "Callable[[], float] | None" = None
        self._next_span = 0
        self._tick = 0
        self._step = 0
        self._seq = 0
        self._counters: dict[str, int] = {}
        self._by_kind: dict[str, int] = {}
        self._stack: list[TraceSpan] = []
        self._sim_last: "float | None" = None

    # -- clock / step -------------------------------------------------

    def bind_clock(self, clock: "Callable[[], float] | None") -> None:
        """Bind a zero-argument callable returning simulated seconds.

        Duck-typed on purpose: the resilience layer's ``SimClock`` sits
        at the same DAG rank as telemetry, so the owner passes e.g.
        ``lambda: runtime.resilience.clock.now`` and may rebind after a
        checkpoint restore replaces the clock object.
        """
        self._clock = clock

    @property
    def step(self) -> int:
        """The owner-maintained logical step stamped on new records."""
        return self._step

    @step.setter
    def step(self, value: int) -> None:
        self._step = int(value)

    def fork(self) -> "Tracer":
        """A fresh memory-sink tracer with this ``wall`` flag, for a worker."""
        return Tracer(MemorySink(), wall=self.wall)

    def _sim(self) -> "float | None":
        if self._clock is None:
            return self._sim_last
        self._sim_last = float(self._clock())
        return self._sim_last

    def _wall_now(self) -> "float | None":
        return _wall.now() if self.wall else None

    # -- spans / events / counters ------------------------------------

    def span(self, kind: str, **attrs: Any) -> _SpanContext:
        """Open a span as a context manager; yields the :class:`TraceSpan`."""
        return _SpanContext(self, kind, attrs)

    def _open(self, kind: str, attrs: dict[str, Any]) -> TraceSpan:
        self._tick += 1
        span = TraceSpan(
            span=self._next_span,
            kind=kind,
            step=self._step,
            t0=self._tick,
            sim0=self._sim(),
            attrs=dict(attrs),
            wall0=self._wall_now(),
        )
        self._next_span += 1
        self._stack.append(span)
        return span

    def _close(self, *, error: bool = False) -> None:
        span = self._stack.pop()
        self._tick += 1
        if error:
            span.attrs["error"] = True
        wall_now = self._wall_now()
        self._emit(
            {
                "seq": None,
                "span": span.span,
                "parent": self._stack[-1].span if self._stack else None,
                "type": "span",
                "kind": span.kind,
                "step": span.step,
                "t0": span.t0,
                "t1": self._tick,
                "sim0": span.sim0,
                "sim1": self._sim(),
                "attrs": span.attrs,
                "wall": (
                    wall_now - span.wall0
                    if wall_now is not None and span.wall0 is not None
                    else None
                ),
            }
        )

    def _abandon(self) -> None:
        """Drop the top open span without emitting (suspension unwind)."""
        self._stack.pop()

    def event(self, kind: str, **attrs: Any) -> None:
        """Emit a zero-duration record immediately."""
        self._tick += 1
        sim = self._sim()
        span_id = self._next_span
        self._next_span += 1
        self._emit(
            {
                "seq": None,
                "span": span_id,
                "parent": self._stack[-1].span if self._stack else None,
                "type": "event",
                "kind": kind,
                "step": self._step,
                "t0": self._tick,
                "t1": self._tick,
                "sim0": sim,
                "sim1": sim,
                "attrs": dict(attrs),
                "wall": None,
            }
        )

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter (no record; surfaces in :meth:`summary`)."""
        self._counters[name] = self._counters.get(name, 0) + int(n)

    def _emit(self, record: dict[str, Any]) -> None:
        record["seq"] = self._seq
        self._seq += 1
        kind = record["kind"]
        self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
        self.sink.emit(record)

    # -- introspection ------------------------------------------------

    @property
    def records_emitted(self) -> int:
        """Total records emitted so far (== the next record's ``seq``)."""
        return self._seq

    @property
    def counters(self) -> dict[str, int]:
        """Live view of the named counters."""
        return self._counters

    def summary(self) -> dict[str, Any]:
        """Deterministic roll-up for reports: counts by kind plus counters."""
        return {
            "records": self._seq,
            "by_kind": dict(sorted(self._by_kind.items())),
            "counters": dict(sorted(self._counters.items())),
            "sim_seconds": self._sim_last,
        }

    def close(self) -> None:
        """Close the underlying sink (open spans stay un-emitted)."""
        self.sink.close()


class _NullSpan:
    """The one shared no-op span: attrs vanish, exceptions propagate."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass  # returns None: never swallows, CheckpointPause included

    def __setitem__(self, key: str, value: Any) -> None:
        pass


class _NullSink(TraceSink):
    """The null tracer's sink: never receives a record."""

    records: tuple = ()


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced default: :class:`Tracer`'s surface, doing nothing.

    Every ``tracer=None`` parameter stores the singleton
    :data:`NULL_TRACER`, so instrumented code calls it unconditionally;
    only snapshot fingerprints and fragments look at :attr:`enabled`.
    """

    enabled = False
    sink = _NullSink()
    records_emitted = 0

    @property
    def step(self) -> int:
        return 0

    @step.setter
    def step(self, value: int) -> None:
        pass

    def span(self, kind: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, kind: str, **attrs: Any) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def bind_clock(self, clock: "Callable[[], float] | None") -> None:
        pass

    def fork(self) -> "NullTracer":
        return self

    def summary(self) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        pass


#: The untraced default every ``tracer=None`` parameter stores.
NULL_TRACER = NullTracer()


def check_telemetry_spec(spec: Any) -> None:
    """Validate a ``ScenarioConfig.telemetry`` knob value, building nothing.

    ``None``/``False`` → untraced; ``True`` → memory sink, no wall; a
    dict → ``{"sink": "memory" | "jsonl", "path": <jsonl file>,
    "wall": <bool>}`` with memory/False defaults. Anything else raises
    :class:`~repro.exceptions.ValidationError` naming the bad key.
    """
    if spec is None or isinstance(spec, bool):
        return
    if not isinstance(spec, dict):
        raise ValidationError(
            f"telemetry must be True/False/None or a sink dict, got {spec!r}"
        )
    unknown = sorted(set(spec) - {"sink", "path", "wall"})
    if unknown:
        raise ValidationError(
            f"unknown telemetry key(s) {unknown}; allowed: sink, path, wall"
        )
    sink = spec.get("sink", "memory")
    TRACE_SINKS.get(sink)  # choices-listing error on typos
    if sink == "jsonl" and not spec.get("path"):
        raise ValidationError("telemetry sink 'jsonl' needs a 'path'")


def make_tracer(spec: "bool | dict[str, Any] | None") -> "Tracer | NullTracer":
    """Build a tracer from a :func:`check_telemetry_spec`-valid knob value.

    ``None``/``False`` → :data:`NULL_TRACER`; anything else → a :class:`Tracer`.
    """
    check_telemetry_spec(spec)
    if spec is None or spec is False:
        return NULL_TRACER
    if spec is True:
        return Tracer(MemorySink())
    sink_cls = TRACE_SINKS.get(spec.get("sink", "memory"))
    if sink_cls is JsonlSink:
        sink: TraceSink = JsonlSink(spec["path"])
    else:
        sink = sink_cls()
    return Tracer(sink, wall=bool(spec.get("wall", False)))

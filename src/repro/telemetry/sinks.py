"""Trace sinks: where emitted records go.

Two registered sinks cover every use:

- ``"memory"`` — :class:`MemorySink`, a plain list; the default for
  tests, benchmarks, and in-process summaries.
- ``"jsonl"`` — :class:`JsonlSink`, one JSON object per line, appended
  and fsync'd per record with the same crash-safety idiom as
  :class:`~repro.experiments.ResultsStore`: a SIGKILL mid-write leaves
  at most one partial trailing line, which the next open cuts with an
  atomic rewrite. Any other damage is refused, never cut away.

The JSONL sink is *resume-aware by sequence number*: every record
carries the tracer's monotone ``seq``, and a record whose ``seq`` is
already durable in the file is skipped instead of re-appended. A
resumed run therefore replays its deterministic prefix (scenario
rebuild, fast-forwarded rounds) without duplicating lines, and the
final file is byte-identical to an uninterrupted run's — the
concatenation contract the kill-resume smoke proves end to end.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.exceptions import TelemetryError
from repro.utils.atomic import atomic_rewrite
from repro.utils.registry import Registry

__all__ = ["TRACE_SINKS", "TraceSink", "MemorySink", "JsonlSink", "load_trace"]

#: Registry of trace sink factories, keyed by the ``telemetry`` knob's
#: ``sink`` name.
TRACE_SINKS = Registry("trace sink")


class TraceSink:
    """Base class: a destination for emitted trace records."""

    def emit(self, record: dict[str, Any]) -> None:
        """Persist one record. Records arrive in strictly increasing ``seq``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources. Idempotent."""


@TRACE_SINKS.register("memory")
class MemorySink(TraceSink):
    """Append every record to an in-process list (``.records``)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def emit(self, record: dict[str, Any]) -> None:
        self.records.append(record)

    def clear(self) -> None:
        """Drop all held records (benchmark reuse)."""
        self.records = []


@TRACE_SINKS.register("jsonl")
class JsonlSink(TraceSink):
    """Append-only JSONL trace file, fsync'd per record, resume-aware.

    On open, the existing file is read by :func:`load_trace`'s rule:
    its records count as durable, a partial trailing line (torn write
    from a kill) is cut by atomic rewrite, and a file altered any other
    way is refused with :class:`~repro.exceptions.TelemetryError`.
    Emits whose ``seq`` falls below the durable count are skipped —
    under the determinism contract they are byte-for-byte the lines
    already on disk — and a ``seq`` beyond the durable count plus the
    skips is a corrupted resume, refused loudly.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._committed = self._repair()
        self._fh = open(self.path, "a", encoding="utf-8")

    def _repair(self) -> int:
        """Count durable records; cut a torn trailing line.

        Reads the file by :func:`load_trace`'s rule, so a damaged file
        raises :class:`~repro.exceptions.TelemetryError` and stays
        byte-for-byte as it was. Otherwise the file is rewritten
        atomically to exactly its durable records when a kill left
        more (a torn last line) or less (a last record without its
        newline, which the next append would merge into).
        """
        if not self.path.exists():
            return 0
        raw = self.path.read_bytes()
        records, durable = _durable_records(raw, self.path)
        if durable != raw:
            with atomic_rewrite(self.path) as fh:
                fh.write(durable)
        return len(records)

    def emit(self, record: dict[str, Any]) -> None:
        seq = record["seq"]
        if seq < self._committed:
            return  # deterministic replay of an already-durable record
        if seq > self._committed:
            raise TelemetryError(
                f"trace record seq {seq} skips ahead of the {self._committed} "
                f"durable records in {self.path}; the trace file does not "
                "belong to this run — point the tracer at a fresh path"
            )
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._committed += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def load_trace(path: "str | Path") -> list[dict[str, Any]]:
    """Read a JSONL trace back as a list of records.

    Tolerates one torn trailing line (dropped), by the same rule the
    sink's own repair reads with (see :func:`_durable_records`): an
    altered trace raises :class:`~repro.exceptions.TelemetryError`.
    """
    return _durable_records(Path(path).read_bytes(), path)[0]


def _durable_records(
    raw: bytes, path: "str | Path"
) -> tuple[list[dict[str, Any]], bytes]:
    """A trace's records, and the bytes that hold exactly those records.

    The one reading rule for :func:`load_trace` and
    :class:`JsonlSink`. A kill only truncates, so the last line may be
    torn and is then dropped. A trailing line that starts with a
    complete JSON value was altered, not torn (a damaged newline merges
    two records into it). That line, any earlier undecodable line and
    any record that is not a JSON object raise
    :class:`~repro.exceptions.TelemetryError`. The returned bytes are
    the durable lines, each ending in a newline: ``raw`` itself unless
    a kill cut the file.
    """
    lines = raw.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    records: list[dict[str, Any]] = []
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            if i < len(lines) - 1:
                raise TelemetryError(
                    f"{path}: line {i + 1} is not valid JSON mid-file; "
                    "the trace is corrupt"
                ) from None
            if _starts_with_value(line):
                raise TelemetryError(
                    f"{path}: the last line holds a complete JSON value and "
                    "more bytes; a kill only truncates, so the trace is corrupt"
                ) from None
            break  # torn trailing line from a kill
        if not isinstance(record, dict):
            raise TelemetryError(
                f"{path}: line {i + 1} is not a JSON object; the trace is corrupt"
            )
        records.append(record)
    durable = b"".join(line + b"\n" for line in lines[: len(records)])
    return records, durable


def _starts_with_value(line: bytes) -> bool:
    """True when ``line`` opens with a complete JSON value."""
    try:
        json.JSONDecoder().raw_decode(line.decode("utf-8", errors="replace"))
    except ValueError:
        return False
    return True

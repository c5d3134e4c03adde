"""Persistent, resumable results store for experiment trial units.

Results live as JSON-lines files, one per experiment
(``<store-dir>/<experiment_id>.jsonl``), each line one
:class:`RunSummary`. A record is keyed by
``(experiment_id, scale, unit_id, config_hash)``: the batch runner skips
any unit whose key is already present, which is what makes interrupted
runs resumable and repeated runs near-instant. Appending is the only
write operation — the latest record for a key wins — so a crashed run
never corrupts earlier results.

Crash safety is explicit: every :meth:`ResultsStore.put` is flushed and
fsynced before returning (a record the runner believes persisted *is*
persisted, even through a SIGKILL), and :meth:`ResultsStore._load`
tolerates the one artifact a kill can still leave — a truncated trailing
line. The partial line is quarantined to ``<experiment>.jsonl.partial``
and the store file atomically rewritten without it, so every completed
record survives and the interrupted unit simply reruns.

Usage::

    store = ResultsStore("/tmp/results")
    store.put(RunSummary("fig5", "bank:40:t0", "smoke", 123, "deadbeef", {...}))
    cached = store.get("fig5", "smoke", "bank:40:t0", "deadbeef")
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.utils.atomic import atomic_rewrite


@dataclass(frozen=True)
class RunSummary:
    """One completed trial unit, as persisted in the store.

    Attributes
    ----------
    experiment_id / unit_id / scale / seed / config_hash:
        The unit's identity (see :func:`repro.experiments.spec.config_hash`
        for what the hash covers).
    payload:
        The JSON-serializable dict returned by the unit's ``run_unit``.
    elapsed_s:
        Wall-clock seconds the unit took.
    created_at:
        ISO-8601 UTC timestamp of completion.
    """

    experiment_id: str
    unit_id: str
    scale: str
    seed: int
    config_hash: str
    payload: dict[str, Any] = field(default_factory=dict)
    elapsed_s: float = 0.0
    created_at: str = ""

    @property
    def key(self) -> tuple[str, str, str, str]:
        """The store key: (experiment_id, scale, unit_id, config_hash)."""
        return (self.experiment_id, self.scale, self.unit_id, self.config_hash)

    def to_json(self) -> str:
        """Serialize to one JSON line."""
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunSummary":
        """Parse a JSON line back into a summary (extra keys ignored)."""
        data = json.loads(line)
        names = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py3.9 compat
        return cls(**{k: v for k, v in data.items() if k in names})


def utc_now() -> str:
    """Current UTC time as an ISO-8601 string.

    Stamped into ``created_at`` metadata only; unit identity is the
    ``(experiment, scale, unit_id, config_hash)`` key, never the stamp.
    """
    # repro: allow[wallclock-entropy] created_at is audit metadata, excluded from result identity
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class ResultsStore:
    """Append-only JSON-lines store of :class:`RunSummary` records.

    Parameters
    ----------
    root:
        Directory holding one ``<experiment_id>.jsonl`` file per
        experiment. Created on first use.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._cache: dict[str, dict[tuple, RunSummary]] = {}

    def _path(self, experiment_id: str) -> Path:
        return self.root / f"{experiment_id}.jsonl"

    def _load(self, experiment_id: str) -> dict[tuple, RunSummary]:
        """Read (and memoize) every record of one experiment, last wins.

        A truncated trailing line — the one artifact a SIGKILL mid-append
        can leave — is quarantined to ``<experiment>.jsonl.partial`` and
        the store file atomically rewritten without it; every record
        before it is recovered. Malformed *interior* lines (hand edits,
        disk damage) are skipped as before: rewriting history is not this
        method's job. Lines are decoded one at a time, so a line that is
        not UTF-8 is just another malformed line.
        """
        if experiment_id not in self._cache:
            records: dict[tuple, RunSummary] = {}
            path = self._path(experiment_id)
            if path.exists():
                lines = path.read_bytes().splitlines()
                for lineno, raw in enumerate(lines):
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        summary = RunSummary.from_json(line.decode("utf-8"))
                    except (ValueError, TypeError):
                        # ValueError covers JSONDecodeError and
                        # UnicodeDecodeError.
                        if lineno == len(lines) - 1:
                            self._quarantine_partial(path, lines[:lineno], raw)
                        continue
                    records[summary.key] = summary
            self._cache[experiment_id] = records
        return self._cache[experiment_id]

    @staticmethod
    def _quarantine_partial(path: Path, good_lines: list[bytes], partial: bytes) -> None:
        """Move a truncated trailing line aside and repair the store file.

        The partial line lands in ``<name>.partial`` (evidence, should
        anyone want it); the store file is rewritten *atomically* — tmp
        file, flush, fsync, rename — so a second crash mid-repair leaves
        either the damaged original or the repaired file, never less.
        """
        path.with_name(path.name + ".partial").write_bytes(partial + b"\n")
        with atomic_rewrite(path) as fh:
            fh.write(b"".join(line + b"\n" for line in good_lines))

    def get(
        self, experiment_id: str, scale: str, unit_id: str, config_hash: str
    ) -> "RunSummary | None":
        """Return the stored summary for a unit key, or ``None`` on miss."""
        return self._load(experiment_id).get(
            (experiment_id, scale, unit_id, config_hash)
        )

    def put(self, summary: RunSummary) -> RunSummary:
        """Append one summary (stamping ``created_at`` if unset).

        Flushed and fsynced before returning: once ``put`` hands the
        summary back, the record is durable through a process kill — the
        property the checkpointed batch runner leans on when it promises
        "no shard is ever redone after its summary landed".
        """
        if not summary.created_at:
            summary = RunSummary(**{**asdict(summary), "created_at": utc_now()})
        with self._path(summary.experiment_id).open("a", encoding="utf-8") as fh:
            fh.write(summary.to_json() + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._load(summary.experiment_id)[summary.key] = summary
        return summary

    def summaries(self, experiment_id: str) -> list[RunSummary]:
        """All (deduplicated) records of one experiment."""
        return list(self._load(experiment_id).values())

    def experiments(self) -> list[str]:
        """Experiment ids that have at least one record on disk."""
        return sorted(p.stem for p in self.root.glob("*.jsonl"))

    def __iter__(self) -> Iterator[RunSummary]:
        for experiment_id in self.experiments():
            yield from self.summaries(experiment_id)

    def __len__(self) -> int:
        return sum(len(self._load(e)) for e in self.experiments())

    def clear(self, experiment_id: "str | None" = None) -> None:
        """Drop records for one experiment (or the whole store)."""
        targets = [experiment_id] if experiment_id else self.experiments()
        for target in targets:
            self._path(target).unlink(missing_ok=True)
            self._cache.pop(target, None)

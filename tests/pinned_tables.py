"""Pinned smoke-scale experiment tables and the pinned unit manifest.

Every registered experiment's smoke-scale
:class:`~repro.experiments.reporting.ExperimentResult` is checked in as
``fixtures/pinned_experiments/<experiment>.json`` and compared exactly:
title, columns, every cell with its Python type, and meta. NaN is
written as JSON ``NaN``. ``manifest.json`` pins ``(unit_id, seed,
config_hash)`` for every unit and shard at the ``smoke`` and ``default``
scales, which is what keeps stored results resumable.

Re-recording is a deliberate change, named with its reason in
CHANGES.md::

    PYTHONPATH=src python tests/pinned_tables.py            # everything
    PYTHONPATH=src python tests/pinned_tables.py fig5 comm  # some tables
    PYTHONPATH=src python tests/pinned_tables.py manifest   # the manifest
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "pinned_experiments"

#: Keyword overrides each pinned table is run with. fig9 is pinned as its
#: benchmark runs it; traffic on one cell (the whole grid takes ~20 s).
PINNED_RUNS: dict[str, dict] = {
    "table2": {},
    "table3": {},
    "fig5": {},
    "fig6": {},
    "fig7": {},
    "fig8": {},
    "fig9": {"datasets": ("synthetic1", "synthetic2")},
    "fig10": {},
    "fig11": {},
    "budget": {},
    "comm": {},
    "traffic": {"attacks": (("esa", "lr"),), "processes": ("poisson",)},
    "fault_storm": {},
}

#: Scales whose unit decomposition the manifest pins.
MANIFEST_SCALES = ("smoke", "default")


def encode(result, overrides: "dict | None" = None) -> str:
    """The exact, type-preserving text of one result, one row per line."""
    rows = list(result.rows)
    fields = {
        "experiment_id": result.experiment_id,
        "overrides": overrides or {},
        "title": result.title,
        "columns": list(result.columns),
        "columns_type": type(result.columns).__name__,
        "row_types": sorted({type(row).__name__ for row in rows}),
        "cell_types": [
            sorted({type(row[i]).__name__ for row in rows})
            for i in range(len(result.columns))
        ],
        "meta": result.meta,
    }
    lines = [f" {json.dumps(key)}: {json.dumps(value)}," for key, value in fields.items()]
    lines.append(' "rows": [')
    lines.extend(
        f"  {json.dumps(list(row))}{',' if i < len(rows) - 1 else ''}"
        for i, row in enumerate(rows)
    )
    return "{\n" + "\n".join(lines) + "\n ]\n}\n"


def fixture_path(experiment_id: str) -> Path:
    return FIXTURES / f"{experiment_id}.json"


def assert_pinned(result, **overrides) -> None:
    """Fail unless ``result`` is byte-identical to its pinned table."""
    expected = fixture_path(result.experiment_id).read_text(encoding="utf-8")
    pinned = json.loads(expected)["overrides"]
    assert json.loads(json.dumps(overrides)) == pinned, (
        f"{result.experiment_id} pinned with overrides {pinned}, run with {overrides}"
    )
    assert encode(result, overrides) == expected


def run_pinned(experiment_id: str):
    """Run one experiment at smoke scale the way its table was pinned."""
    from repro.experiments import EXPERIMENTS

    return EXPERIMENTS[experiment_id]("smoke", **PINNED_RUNS[experiment_id])


def manifest() -> dict:
    """``{scale: {experiment: [[unit_id, seed, config_hash], ...]}}``."""
    from repro.config import get_scale
    from repro.experiments.spec import EXPERIMENT_SPECS, _ensure_registered, config_hash

    _ensure_registered()
    out: dict = {}
    for scale_name in MANIFEST_SCALES:
        scale = get_scale(scale_name)
        per_scale = out.setdefault(scale_name, {})
        for experiment_id in sorted(EXPERIMENT_SPECS):
            spec = EXPERIMENT_SPECS[experiment_id]
            entries = []
            for unit in spec.trial_units(scale):
                entries.append([unit.unit_id, unit.seed, config_hash(scale, unit)])
                for shard in spec.shard_unit(unit, scale):
                    entries.append([shard.unit_id, shard.seed, config_hash(scale, shard)])
            per_scale[experiment_id] = entries
    return out


def encode_manifest(document: dict) -> str:
    """One line per unit, so a changed unit shows as a one-line diff."""
    lines = ["{"]
    for i, (scale_name, experiments) in enumerate(document.items()):
        lines.append(f" {json.dumps(scale_name)}: {{")
        for j, (experiment_id, entries) in enumerate(experiments.items()):
            lines.append(f"  {json.dumps(experiment_id)}: [")
            lines.extend(
                f"   {json.dumps(entry)}{',' if k < len(entries) - 1 else ''}"
                for k, entry in enumerate(entries)
            )
            lines.append("  ]" + ("," if j < len(experiments) - 1 else ""))
        lines.append(" }" + ("," if i < len(document) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    targets = argv or [*PINNED_RUNS, "manifest"]
    for target in targets:
        if target == "manifest":
            (FIXTURES / "manifest.json").write_text(
                encode_manifest(manifest()), encoding="utf-8"
            )
        else:
            text = encode(run_pinned(target), PINNED_RUNS[target])
            fixture_path(target).write_text(text, encoding="utf-8")
        print(f"recorded {target}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Experiment registry and command-line entry point.

Usage::

    python -m repro.experiments fig5 --scale smoke
    python -m repro.experiments all --scale default
    python -m repro.experiments fig7 --scale smoke --jobs 4 --store-dir out/
    python -m repro.experiments list

``--jobs N`` fans trial units out over N worker processes; ``--store-dir``
makes runs resumable (completed units are cached on disk and skipped on
the next run; ``--force`` recomputes them). ``--jobs 1`` without a store
runs the units serially in-process; every mode produces identical
tables for a given scale and seeds.

``list`` prints the scenario API's component registries — every attack,
model, defense, and dataset key with its one-line description — which is
the full vocabulary accepted by ``ScenarioConfig``.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.batch import run_batch
from repro.config import PRESETS
from repro.experiments.spec import EXPERIMENT_SPECS
from repro.experiments.store import ResultsStore

#: The experiment registry, by paper id in declaration order. Each entry
#: is its :class:`~repro.experiments.spec.ExperimentSpec`; calling one
#: with a ``scale`` (a preset name or a :class:`~repro.config.ScaleConfig`)
#: runs it serially.
EXPERIMENTS = EXPERIMENT_SPECS


def print_registries(stream=None) -> None:
    """Print every scenario-API registry: keys + one-line descriptions.

    The ``repro-experiments list`` subcommand — the discoverability
    counterpart of :class:`~repro.api.ScenarioConfig`, whose string
    fields accept exactly these keys.
    """
    # Imported here so the plain experiment path never pays for the api
    # package's registries.
    from repro.api import ATTACKS, DATASETS, DEFENSES, MODELS
    from repro.workload import ARRIVALS

    stream = sys.stdout if stream is None else stream
    sections = (
        ("attacks", ATTACKS),
        ("models", MODELS),
        ("defenses", DEFENSES),
        ("datasets", DATASETS),
        ("arrivals", ARRIVALS),
    )
    for index, (title, registry) in enumerate(sections):
        if index:
            print(file=stream)
        print(f"{title}:", file=stream)
        described = registry.describe()
        width = max(len(key) for key in described)
        for key, description in described.items():
            print(f"  {key:<{width}}  {description}", file=stream)


def main(argv: list[str] | None = None) -> int:
    """CLI: run one experiment (or ``all``) and print its table."""
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate the paper's tables and figures",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "list"],
        help="experiment id (paper table/figure), 'all', or 'list' to "
        "print the attack/model/defense/dataset registries",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(PRESETS),
        default="default",
        help="size preset (smoke: seconds, default: minutes, full: paper-scale)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for trial units (default: 1, serial)",
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="persist per-unit results here; reruns skip completed units",
    )
    parser.add_argument(
        "--force",
        action="store_true",
        help="recompute units even when the store already has them",
    )
    parser.add_argument(
        "--output-dir",
        default=None,
        help="also save each result as <experiment>.csv in this directory",
    )
    args = parser.parse_args(argv)
    if args.experiment == "list":
        print_registries()
        return 0
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    # One store instance for the whole invocation so 'all' shares its cache.
    store = ResultsStore(args.store_dir) if args.store_dir is not None else None

    def progress(line: str) -> None:
        print(f"# {line}", file=sys.stderr)

    for experiment_id in ids:
        result = run_batch(
            experiment_id,
            args.scale,
            jobs=args.jobs,
            store=store,
            force=args.force,
            on_progress=progress,
        )
        print(result.to_text())
        print()
        if args.output_dir is not None:
            from pathlib import Path

            directory = Path(args.output_dir)
            directory.mkdir(parents=True, exist_ok=True)
            result.save(directory / f"{experiment_id}.csv")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

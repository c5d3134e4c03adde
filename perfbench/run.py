"""Benchmark command: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root. The program under test is imported from
``src/`` of the same checkout; without it the command fails before
printing a result. The last line of standard output is the result
object; the line before it records machine and provenance. With
``--trace 1`` the per-layer table goes to standard error and the spans
of the first traced rep to ``perfbench/out/``.

``--record`` instead runs one rep of the workload and stores its output
digests in ``perfbench/expected.json`` under the given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Single-threaded BLAS: the only threads are then the replay's shard
    # workers (two, at most nproc), and no idle BLAS thread spins on a
    # core the measured thread needs.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    from perfbench.speed import SpeedSampler

    with SpeedSampler() as speed:
        start = time.perf_counter()
        from perfbench import bench

        import_s = speed.normalise(start, time.perf_counter())
        if args.record:
            bench.record(args.workload, args.seed)
            return 0
        result, notes = bench.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            speed=speed,
            import_s=import_s,
            spans_path=bench.OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl",
        )
    provenance = bench.provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": {**provenance, **notes}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

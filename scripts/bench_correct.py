"""Guard the committed perfbench digests: one short run per workload and seed.

``perfbench/expected.json`` pins each workload's output digests, but the
benchmark only checks them when it runs. This script runs every
workload declared in ``BENCHMARK.json`` once, briefly, at seed 0 and at
the held-out seed 1009::

    python3 perfbench/run.py --workload W --seed S --seconds 1

and exits non-zero unless each run's last output line (the result
object) reports ``"correct": true``. A change that keeps the digests of
one seed only fails here. Run via ``make bench-correct``
(CI) or directly from the repository root::

    python scripts/bench_correct.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


#: Seeds every workload is checked at: the default and a held-out one.
SEEDS = (0, 1009)


def check(workload: str, seed: int) -> bool:
    """Run one short rep of ``workload``; True when its digests match."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "1",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        return False
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result["correct"] is True


def main() -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    verdicts = [
        check(workload["name"], seed) for workload in spec["workloads"] for seed in SEEDS
    ]
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: four paper-cell workloads, timed end to end and layer by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``perfbench/README.md``.
"""

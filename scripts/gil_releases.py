"""Count GIL releases per served round, exactly.

Every time native code lets other Python threads run it calls
``PyEval_SaveThread``; in a threaded replay each call is a chance to
hand the GIL to another shard thread, which on a multi-core box is a
cross-core handoff. This script compiles a small counting shim for that
function with ``cc`` into a temporary directory, re-runs itself with the
shim in ``LD_PRELOAD``, and prints how many releases each kind of
one-row round makes on a traffic-style deployment (``bank``/``lr``, two
and four parties, rounds padded to 32 rows):

- a plain round (no cache, no defense);
- a cached, audited round whose row misses the cache;
- a cached, audited query whose row hits the cache (no protocol round);
- on two parties, a threaded and a serial replay of one seeded
  multi-tenant trace, as releases per protocol round (each replay's one
  warm-up round included).

Only calls made through the dynamic linker are counted (NumPy's kernels
and other extension modules); the interpreter's own internal calls may
bypass the shim. The counter is read without releasing the GIL, so a
reading counts nothing of its own. Counts are deterministic for a given
NumPy build, so they are comparable across commits. Run from the
repository root::

    python scripts/gil_releases.py          # print the table
    python scripts/gil_releases.py --check  # also gate it (make gil-check)

With ``--check`` it exits 1 when a one-row round on two or four parties
releases the GIL more than once (:data:`MAX_PER_ROUND`), or a cache hit
releases it at all. Without a C compiler, or on a platform without
``LD_PRELOAD``, it says so and exits 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SHIM = r"""
#define _GNU_SOURCE
#include <dlfcn.h>

static unsigned long long releases;

void *PyEval_SaveThread(void) {
    static void *(*real)(void);
    if (!real) real = (void *(*)(void))dlsym(RTLD_NEXT, "PyEval_SaveThread");
    __atomic_fetch_add(&releases, 1, __ATOMIC_RELAXED);
    return real();
}

unsigned long long gil_releases(void) { return releases; }
"""

#: Environment variable naming the shim in the re-run child.
CHILD = "REPRO_GIL_SHIM"

#: ``--check``: most releases per one-row in-process round (the row
#: gather from the deployment's joint table) and per cache hit.
MAX_PER_ROUND = 1
MAX_PER_HIT = 0


def main() -> int:
    check = "--check" in sys.argv[1:]
    shim = os.environ.get(CHILD)
    if shim:
        return measure(shim, check)
    compiler = shutil.which("cc")
    if compiler is None or not sys.platform.startswith("linux"):
        print("gil_releases: needs `cc` and LD_PRELOAD (Linux); nothing measured")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        source, library = Path(tmp, "gil_shim.c"), Path(tmp, "gil_shim.so")
        source.write_text(SHIM)
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", str(library), str(source), "-ldl"],
            check=True,
        )
        env = dict(os.environ, LD_PRELOAD=str(library), **{CHILD: str(library)})
        src = str(REPO / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, __file__, *sys.argv[1:]], env=env).returncode


def measure(shim: str, check: bool) -> int:
    import ctypes

    import numpy as np

    from repro.api import Deployment, build_scenario
    from repro.config import get_scale
    from repro.federated import VerticalFLModel
    from repro.federation import TopologyConfig
    from repro.workload import ShardedPredictionService, attacker_trace, make_trace

    # PyDLL: calling the counter keeps the GIL, so it counts no release
    # of its own.
    counter = ctypes.PyDLL(shim).gil_releases
    counter.argtypes = []
    counter.restype = ctypes.c_ulonglong

    rounds = [0]
    predict = VerticalFLModel.predict

    def counted_predict(self, sample_indices):
        rounds[0] += 1
        return predict(self, sample_indices)

    VerticalFLModel.predict = counted_predict

    failures: list[str] = []

    def count(label: str, run, per: str = "round", limit: "int | None" = None) -> None:
        rounds[0] = 0
        before = counter()
        queries = run()
        releases = counter() - before
        units = rounds[0] if per == "round" else queries
        print(
            f"{label:<36} {releases:>6} releases {rounds[0]:>5} rounds "
            f"{queries:>5} queries {releases / max(units, 1):6.2f} per {per}"
        )
        if limit is not None and releases > limit * units:
            failures.append(f"{label}: {releases} releases over {units} {per}s (limit {limit} per {per})")

    ids = np.arange(200)  # fewer rows than the 256-entry cache holds

    def one_row_queries(shard) -> int:
        for i in ids:
            shard.query([i], consumer="a")
        return len(ids)

    print(f"# bank/lr, smoke scale, rounds padded to 32 rows, numpy {np.__version__}")
    for n_parties in (2, 4):
        deployment = Deployment(topology=TopologyConfig(n_parties=n_parties))
        vfl = build_scenario(
            "bank", "lr", 0.3, get_scale("smoke"), 1, deployment=deployment
        ).vfl

        def deploy(n_shards: int, cache: bool, specs: tuple) -> ShardedPredictionService:
            return ShardedPredictionService(
                vfl, n_shards=n_shards, defense_specs=specs, max_batch=32,
                cache=cache, cache_size=256 if cache else None, seed=1,
            )

        tag = f"P={n_parties}"
        plain = deploy(1, False, ()).shards[0]
        plain.query(ids[:1], consumer="warm")  # first-call setup is not a round's cost
        count(f"{tag} plain one-row round", lambda: one_row_queries(plain), limit=MAX_PER_ROUND)
        audited = deploy(1, True, ("query_audit",)).shards[0]
        audited.query(ids[:1], consumer="warm")
        count(
            f"{tag} cached+audited miss round",
            lambda: one_row_queries(audited),
            limit=MAX_PER_ROUND,
        )
        count(
            f"{tag} cached+audited all-hit",
            lambda: one_row_queries(audited),
            per="query",
            limit=MAX_PER_HIT,
        )
        if n_parties != 2:
            continue
        trace = make_trace(100, 600, n_samples=vfl.n_samples, process="bursty", seed=2).merge(
            attacker_trace("attacker", np.arange(48), repeats=6, batch_size=16, seed=3)
        )
        for label, shards, cache, specs, mode in (
            ("replay audited threads, 2 shards", 2, True, ("query_audit",), "threads"),
            ("replay audited serial, 1 shard", 1, True, ("query_audit",), "serial"),
            ("replay plain threads, 2 shards", 2, False, (), "threads"),
        ):
            service = deploy(shards, cache, specs)
            count(
                f"{tag} {label}",
                lambda: service.replay(trace, mode=mode).ledger["queries_used"],
            )
    if check:
        for failure in failures:
            print(f"gil_releases --check FAILED: {failure}")
        if failures:
            return 1
        print("gil_releases --check: passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer spans recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each ``repro``
layer (the table :data:`LAYERS`) for as long as it is installed, keeps
one span per call in memory -- ``(id, parent, name, start, end)`` -- and
restores every wrapped attribute on exit. Nothing under ``src/`` knows
it is being traced.

A span's parent is the innermost open span on the same thread. A span
opened on a worker thread with nothing open on that thread (a sharded
replay's shard workers) takes the innermost span open on the thread
that installed the tracer, so concurrent work still lands under the
operation that started it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layer name -> public entry points it covers. ``"module:name"`` is a
#: module-level function, wrapped in every ``repro`` module that binds it
#: (``from x import f`` copies the binding); ``"module:Class.name"`` is an
#: attribute defined in that class's own namespace.
LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("api.build", ("repro.api.scenario:build_scenario",)),
    ("tensor.backward", ("repro.tensor.tensor:Tensor.backward",)),
    ("nn.forward", ("repro.nn.module:Module.__call__",)),
    ("nn.step", ("repro.nn.optim:Adam.step", "repro.nn.optim:SGD.step")),
    ("attacks.grna.run", ("repro.api.attacks:GrnaScenarioAttack.run",)),
    ("attacks.grna.fit", ("repro.attacks.grna:GenerativeRegressionNetwork.fit",)),
    ("attacks.grna.distill", ("repro.models.distill:RandomForestDistiller.distill",)),
    (
        "attacks.esa.run",
        (
            "repro.api.attacks:EsaScenarioAttack.prepare",
            "repro.api.attacks:EsaScenarioAttack.run",
        ),
    ),
    (
        "attacks.pra.run",
        (
            "repro.api.attacks:PraScenarioAttack.prepare",
            "repro.api.attacks:PraScenarioAttack.run",
        ),
    ),
    (
        "attacks.baseline",
        (
            "repro.attacks.baselines:RandomGuessAttack.run",
            "repro.attacks.baselines:random_path",
        ),
    ),
    (
        "metrics.score",
        tuple(
            f"repro.metrics:{name}"
            for name in (
                "mse_per_feature",
                "feature_wise_mse",
                "path_cbr",
                "path_branch_decisions",
                "reconstruction_cbr",
                "aggregate_cbr",
            )
        ),
    ),
    ("datasets.load", ("repro.datasets.registry:load_dataset",)),
    (
        "federated.partition",
        (
            "repro.federated.partition:FeaturePartition.adversary_target",
            "repro.federated.partition:FeaturePartition.from_topology",
            "repro.federated.partition:FeaturePartition.adversary_view",
        ),
    ),
    ("federated.train", ("repro.federated.model:train_vertical_model",)),
    (
        "models.fit",
        (
            "repro.models.logistic:LogisticRegression.fit",
            "repro.models.tree:DecisionTreeClassifier.fit",
            "repro.models.forest:RandomForestClassifier.fit",
            "repro.models.mlp:MLPClassifier.fit",
        ),
    ),
    (
        "models.predict",
        (
            "repro.models.logistic:LogisticRegression.predict_proba",
            "repro.models.tree:DecisionTreeClassifier.predict_proba",
            "repro.models.forest:RandomForestClassifier.predict_proba",
            "repro.models.mlp:MLPClassifier.predict_proba",
        ),
    ),
    ("federation.predict", ("repro.federation.runtime:FederationRuntime.predict",)),
    ("serving.query", ("repro.serving.service:PredictionService.query",)),
    ("defenses.on_query", ("repro.api.defenses:DefenseStack.on_query",)),
    ("workload.replay", ("repro.workload.sharded:ShardedPredictionService.replay",)),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: Name of the span the benchmark opens around each operation.
OP_SPAN = "op"


def _resolve(target: str) -> tuple[object, list[tuple[object, str]]]:
    """The target's current value and the ``(owner, attribute)`` pairs binding it."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        if attr not in vars(owner):
            raise AttributeError(f"{target}: {class_name} does not define {attr}")
        return vars(owner)[attr], [(owner, attr)]
    func = getattr(module, path)
    bindings = [
        (mod, name)
        for mod_name, mod in sorted(sys.modules.items())
        if mod is not None and (mod_name == "repro" or mod_name.startswith("repro."))
        for name, value in sorted(vars(mod).items())
        if value is func
    ]
    return func, bindings


class LayerTracer:
    """Wraps :data:`LAYERS` while installed; records spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.root_kinds: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in LAYERS:
                for target in targets:
                    original, bindings = _resolve(target)
                    wrapper = self._wrap_attribute(layer, original)
                    for owner, attr in bindings:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap_attribute(self, layer: str, original):
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(layer, original.__func__))
        return self._wrap(layer, original)

    def _wrap(self, layer: str, func):
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack, span_id, parent = self._open()
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((span_id, parent, layer, start, end))

        return traced

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _open(self) -> tuple[list[int], int, int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        if stack:
            parent = stack[-1]
        else:
            home = self._stacks.get(self._home)
            parent = home[-1] if home else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return stack, span_id, parent

    @contextmanager
    def root(self, kind: str):
        """The span around one benchmark operation (a cell or a replay)."""
        stack, span_id, parent = self._open()
        self.root_kinds[span_id] = kind
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, OP_SPAN, start, end))

    def write(self, path, header: dict) -> None:
        """Write the spans as JSON lines after a header line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "kind": self.root_kinds.get(span_id),
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(tracer: LayerTracer) -> dict:
    """Per-layer calls, busy and self seconds, plus the unattributed rest.

    A layer's busy time sums its outermost spans (a recursive call is not
    counted twice); its self time sums, over all its spans, the duration
    not covered by child spans. The roots' self time is the unattributed
    time: operation wall that no layer span covers. Work on concurrent
    threads is summed per thread, so busy and self time can exceed wall.
    """
    spans = {s[0]: s for s in tracer.spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in tracer.spans:
        children[parent].append((start, end))

    roots: dict[int, int] = {}

    def root_of(span_id: int) -> int:
        path = []
        while span_id not in roots and spans[span_id][1] != 0:
            path.append(span_id)
            span_id = spans[span_id][1]
        root = roots.get(span_id, span_id)
        for visited in path:
            roots[visited] = root
        return root

    def outermost(span_id: int) -> bool:
        name = spans[span_id][2]
        parent = spans[span_id][1]
        while parent:
            if spans[parent][2] == name:
                return False
            parent = spans[parent][1]
        return True

    layers = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in LAYER_NAMES}
    round_us: dict[str, list[float]] = defaultdict(list)
    unattributed = wall = 0.0
    for span_id, _, name, start, end in tracer.spans:
        duration = end - start
        self_s = duration - _covered(children.get(span_id, []), start, end)
        if name == OP_SPAN:
            unattributed += self_s
            wall += duration
            continue
        entry = layers[name]
        entry["calls"] += 1
        entry["self_s"] += self_s
        if outermost(span_id):
            entry["busy_s"] += duration
        if name == "federation.predict":
            kind = tracer.root_kinds.get(root_of(span_id), "")
            round_us["storm" if kind == "storm" else "clean"].append(duration * 1e6)
    return {
        "layers": layers,
        "unattributed_s": unattributed,
        "wall_s": wall,
        "round_clean_us": _mean(round_us["clean"]),
        "round_storm_us": _mean(round_us["storm"]),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0

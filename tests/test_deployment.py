"""The deployment declaration: one dataclass, and everything derived from it.

:class:`~repro.api.Deployment` declares every serving, federation,
resilience and telemetry knob once. :class:`~repro.api.ScenarioConfig`
extends it, :func:`~repro.api.build_scenario` takes one, and the config
codec, the validator and the prebuilt-scenario guard all loop over its
fields. These tests pin what that derivation must preserve:

- the persisted config bytes (``scenario.json`` digests recorded before
  the codec was derived, and a pinned run directory that still resumes);
- one validator behind both entry points, with the same error for the
  same bad knob;
- the codec's edges: policy objects persist as their payloads, and a
  truncated payload is refused by name;
- one declaration per field: values the hand-written codecs let through
  are refused by name, and the interaction matrix draws every knob from
  the same declarations;
- tracer ownership: whoever builds the scenario owns its tracer.
"""

import dataclasses
import hashlib
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    Deployment,
    EsaScenarioAttack,
    ScenarioConfig,
    ScenarioReport,
    TopologyConfig,
    build_scenario,
    run_scenario,
    run_scenario_resumable,
)
from repro.api import scenario as scenario_module
from repro.api.resume import config_payload
from repro.config import ScaleConfig, get_scale
from repro.exceptions import ReproError, ScenarioError
from repro.resilience import BreakerPolicy, RetryPolicy
from repro.telemetry import Tracer
from repro.telemetry.sinks import MemorySink
from repro.checkpoint import CheckpointPlan
from repro.federation import SCHEDULERS
from repro.utils.knobs import (
    Declared,
    Float,
    Int,
    OneOf,
    Pair,
    Seq,
    Str,
    Type,
    knob,
    knobs,
)

TINY = ScaleConfig(
    name="tiny-deployment",
    n_samples=200,
    n_predictions=60,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=4,
    mlp_hidden=(12,),
    mlp_epochs=2,
    rf_trees=3,
    rf_depth=2,
    dt_depth=4,
    grna_hidden=(16,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(24,),
    distiller_dummy=150,
    distiller_epochs=2,
)

CELL = dict(dataset="bank", model="lr", attack="esa")
KNOB_NAMES = [knob.name for knob in dataclasses.fields(Deployment)]
FIXTURES = Path(__file__).parent / "fixtures" / "pinned_scenario"


# ----------------------------------------------------------------------
# Persisted config bytes
# ----------------------------------------------------------------------
#: One config per row: the default, one per deployment knob set away from
#: its default, and one with every scenario field set. Each digest is the
#: sha256 of ``json.dumps(config_payload(cfg), sort_keys=True)`` as the
#: hand-written codec produced it, before the codec was derived from the
#: dataclass fields.
PINNED_CONFIGS = {
    "default": {},
    "query_budget": {"query_budget": 50},
    "batch_size": {"batch_size": 16},
    "cache": {"cache": True},
    "cache_size": {"cache": True, "cache_size": 32},
    "on_budget_exhausted": {"on_budget_exhausted": "truncate"},
    "topology": {
        "topology": TopologyConfig(
            n_parties=3,
            partition="dirichlet",
            faults=(("flaky", {"party": 1, "p": 0.2}),),
        )
    },
    "comm_budget": {"comm_budget": 0.5},
    "scheduler": {"scheduler": "threaded"},
    "retry": {"retry": {"max_attempts": 3, "timeout": 0.5}},
    "quorum": {"quorum": 0.5},
    "degradation": {"degradation": "last_known"},
    "breaker": {"breaker": 3},
    "telemetry": {"telemetry": {"sink": "jsonl", "path": "trace.jsonl"}},
    "scenario": {
        "defenses": (("rounding", {"digits": 3}), "verification"),
        "target_fraction": 0.4,
        "n_predictions": 30,
        "scale": get_scale("smoke"),
        "seed": 7,
        "model_params": {"dropout": 0.1},
        "attack_params": {"lr": 0.01},
        "baselines": ("uniform", "gaussian"),
        "compute_cbr": True,
    },
}
PINNED_DIGESTS = {
    "default": "5e3299fe2f68d117ab1de13149be00605d2264dc096e3a9d2f4868a428a71777",
    "query_budget": "72188aefdc9330a14f6d504b8d2fa10d951c2dc7bb6010c152bf932f9d4151cf",
    "batch_size": "38a2acd7671d3e7c1ea1791fa3d320549f76f30cc4cc07dccb37e48d88af67a0",
    "cache": "a630c8559109d625a22924d484594f8649ad0243246aafbf02a532fbfc322898",
    "cache_size": "aefb35b847bd80e620da7aac3a5db695b5f44255456d18861ff46e10d7671249",
    "on_budget_exhausted": "b01e84bd24b7cf5dfc774f4dfeff1c9dcb03351eb2205754e567305bcefa05d5",
    "topology": "6d0c64cf7c6231ec65f115a3dc049ae1b704bf57fc14c5f4d6f72e614f5b82ac",
    "comm_budget": "fe7583baf5b606d02c818caf8ea8f7f647b7c02a664c60de46a0d7a97ad3057e",
    "scheduler": "47b0237527b250e88f1d8fb2a67628a65687b8ead340a3738c19beed80ddf53e",
    "retry": "f43b5943cc7f7288ac1da808ed8405f61b94e31db66ff050ee6e3082cba62546",
    "quorum": "c2a5464ad9a94253bd42aa7e8e2581c47ac7bc5680ca8456d108f742affa0d04",
    "degradation": "7b4a3b65f652ed67817cc2f81a740861cf6b50009d4ec464676b5c52a4812e7c",
    "breaker": "960948fc10236c4e6eb268442cac13727e7c7673bd8aaf426fb5dc0403d37da1",
    "telemetry": "24e33d9c2fcc7fa17f64910fd8b5f6dd31c653f9624ad01829ca6544713f286d",
    "scenario": "53f719e390175ad5d28b6e3d1864f50928a55f5f77137725e4edbbd90eb40d6c",
}


class TestPersistedBytes:
    def test_matrix_covers_every_knob(self):
        assert set(PINNED_CONFIGS) == {"default", "scenario", *KNOB_NAMES}

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_config_payload_digest(self, name):
        config = ScenarioConfig(**CELL, **PINNED_CONFIGS[name])
        blob = json.dumps(config_payload(config), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_config_round_trips(self, name):
        config = ScenarioConfig(**CELL, **PINNED_CONFIGS[name])
        restored = ScenarioReport.from_json(
            ScenarioReport(config=config, scenario=None, result=None, metrics={}).to_json()
        ).config
        assert restored == config

    def test_pinned_run_directory_resumes(self, tmp_path):
        """A ``scenario.json`` written by the hand-written codec still
        resumes, and the run reports what that codec's run reported."""
        shutil.copy(FIXTURES / "scenario.json", tmp_path / "scenario.json")
        config = ScenarioConfig(
            **CELL,
            scale="smoke",
            seed=3,
            baselines=("uniform",),
            batch_size=16,
            cache=True,
            cache_size=64,
            topology=TopologyConfig(n_parties=3),
            retry={"max_attempts": 2},
            quorum=0.5,
            breaker=4,
            telemetry=True,
        )
        report = run_scenario_resumable(config, store_dir=tmp_path)
        pinned = json.loads((FIXTURES / "report.json").read_text(encoding="utf-8"))
        assert json.loads(report.to_json()) == pinned


# ----------------------------------------------------------------------
# One validator, two entry points
# ----------------------------------------------------------------------
#: One invalid value per knob. ``cache`` is a plain flag with no invalid
#: value of its own; it appears through ``cache_size`` without it.
INVALID = [
    {"query_budget": 0},
    {"batch_size": 0},
    {"cache_size": 8},
    {"cache": True, "cache_size": 0},
    {"on_budget_exhausted": "bogus"},
    {"topology": TopologyConfig(n_parties=1)},
    {"comm_budget": 1.5},
    {"scheduler": "bogus"},
    {"retry": 0},
    {"quorum": 0},
    {"degradation": "bogus"},
    {"breaker": 0},
    {"telemetry": "bogus"},
]


def _raised(call) -> ReproError:
    with pytest.raises(ReproError) as info:
        call()
    return info.value


class TestOneValidator:
    def test_every_knob_has_an_invalid_row(self):
        covered = {name for row in INVALID for name in row}
        assert covered == set(KNOB_NAMES)

    @pytest.mark.parametrize(
        "knob", INVALID, ids=lambda knob: f"{list(knob)[-1]}={list(knob.values())[-1]!r}"
    )
    def test_both_entry_points_refuse_alike(self, knob):
        via_config = _raised(
            lambda: run_scenario(ScenarioConfig(**CELL, scale=TINY, **knob))
        )
        via_build = _raised(
            lambda: build_scenario(
                "bank", "lr", 0.3, TINY, 0, deployment=Deployment(**knob)
            )
        )
        assert type(via_config) is type(via_build)
        assert str(via_config) == str(via_build)
        # The refusal names the knob it refuses.
        assert list(knob)[-1] in str(via_config)


# ----------------------------------------------------------------------
# Codec edges
# ----------------------------------------------------------------------
STORM = TopologyConfig(n_parties=3, faults=(("flaky", {"party": 1, "p": 0.3}),))


class TestCodecEdges:
    def test_policy_objects_persist_as_their_payloads(self):
        retry, breaker = RetryPolicy.from_spec(2), BreakerPolicy.from_spec(3)
        cell = dict(**CELL, scale=TINY, seed=4, topology=STORM, quorum=0.5)
        objects = run_scenario(ScenarioConfig(**cell, retry=retry, breaker=breaker))
        specs = ScenarioConfig(
            **cell, retry=retry.to_payload(), breaker=breaker.to_payload()
        )
        restored = ScenarioReport.from_json(objects.to_json())
        assert restored.config == specs
        by_spec = run_scenario(specs)
        assert objects.metrics == by_spec.metrics
        assert objects.availability == by_spec.availability
        assert objects.comm_cost == by_spec.comm_cost
        assert restored.metrics == by_spec.metrics

    def test_policy_objects_pin_a_resumable_directory(self, tmp_path):
        config = ScenarioConfig(
            **CELL, scale=TINY, retry=RetryPolicy.from_spec(2), breaker=BreakerPolicy()
        )
        first = run_scenario_resumable(config, store_dir=tmp_path)
        again = run_scenario_resumable(config, store_dir=tmp_path)
        assert first.to_json() == again.to_json()

    @pytest.mark.parametrize(
        "key",
        [
            "dataset",
            "model",
            "attack",
            "defenses",
            "target_fraction",
            "n_predictions",
            "scale",
            "seed",
            "model_params",
            "attack_params",
            "baselines",
            "compute_cbr",
        ],
    )
    def test_truncated_config_payload_is_refused_by_name(self, key):
        payload = ScenarioReport(
            config=ScenarioConfig(**CELL), scenario=None, result=None, metrics={}
        ).to_payload()
        del payload["config"][key]
        with pytest.raises(ScenarioError, match=rf"missing required key\(s\) \['{key}'\]"):
            ScenarioReport.from_payload(payload)

    @pytest.mark.parametrize("key", ["config", "metrics", "queries_used"])
    def test_truncated_report_payload_is_refused_by_name(self, key):
        payload = ScenarioReport(
            config=ScenarioConfig(**CELL), scenario=None, result=None, metrics={}
        ).to_payload()
        del payload[key]
        with pytest.raises(ScenarioError, match=rf"\['{key}'\]"):
            ScenarioReport.from_payload(payload)

    def test_missing_deployment_keys_mean_the_defaults(self):
        payload = ScenarioReport(
            config=ScenarioConfig(**CELL), scenario=None, result=None, metrics={}
        ).to_payload()
        for name in KNOB_NAMES:
            del payload["config"][name]
        assert ScenarioReport.from_payload(payload).config == ScenarioConfig(**CELL)


# ----------------------------------------------------------------------
# One declaration per field: holes the hand-written codecs left open
# ----------------------------------------------------------------------
#: ``(field, value)``: a value some hand-written codec leaked a bare
#: builtin error for, guessed at, or accepted. Each is refused on both
#: paths with a typed error naming the field.
HOLES = [
    ("retry", {"jitter": "x"}, "jitter"),
    ("breaker", {"cooldown": "x"}, "cooldown"),
    ("query_budget", "x", None),
    ("seed", "x", None),
    ("target_fraction", "x", None),
    ("cache", "yes", None),
    ("cache", "no", None),
    ("compute_cbr", 3, None),
    ("query_budget", 2.5, None),
    ("breaker", {"failure_threshold": 2.9}, "failure_threshold"),
    ("model_params", [1], None),
    ("retry", RetryPolicy(backoff_base="x"), "backoff_base"),
    ("baselines", "uniform", None),
    ("retry", {"max_attempts": True}, "max_attempts"),
    ("retry", {"max_attempts": "3"}, "max_attempts"),
]


def _names(exc: BaseException, *names: str) -> bool:
    return all(name in str(exc) for name in names)


class TestDeclaredFields:
    @pytest.mark.parametrize(
        "field, value, inner", HOLES, ids=[f"{field}={value!r}" for field, value, _ in HOLES]
    )
    def test_hole_is_refused_on_both_paths(self, field, value, inner):
        inner = [] if inner is None else [inner]
        payload = config_payload(ScenarioConfig(**CELL, **{field: value}))
        line = ScenarioReport(
            config=ScenarioConfig(**CELL), scenario=None, result=None, metrics={}
        ).to_payload()
        line["config"] = payload
        decoded = _raised(lambda: ScenarioReport.from_json(json.dumps(line)))
        assert isinstance(decoded, ScenarioError)
        assert _names(decoded, field, *inner), decoded
        direct = _raised(
            lambda: run_scenario(ScenarioConfig(**CELL, scale=TINY, **{field: value}))
        )
        assert _names(direct, field, *inner), direct
        if field in KNOB_NAMES:
            built = _raised(
                lambda: build_scenario(
                    "bank", "lr", 0.3, TINY, 0, deployment=Deployment(**{field: value})
                )
            )
            assert type(built) is type(direct) and str(built) == str(direct)

    @pytest.mark.parametrize(
        "cls",
        [Deployment, ScenarioConfig, ScaleConfig, TopologyConfig, RetryPolicy, BreakerPolicy],
    )
    def test_every_field_is_declared_once(self, cls):
        init = [spec.name for spec in dataclasses.fields(cls) if spec.init]
        assert list(knobs(cls)) == init

    def test_an_undeclared_field_is_refused(self):
        @dataclasses.dataclass
        class Sloppy(Declared):
            declared: int = knob(Int(), default=0)
            forgotten: int = 0

        with pytest.raises(TypeError, match="forgotten"):
            Sloppy().validate()


# ----------------------------------------------------------------------
# The interaction matrix, drawn from the declarations
# ----------------------------------------------------------------------
def strategy(shape):
    """Values of one declared shape, kept small for a tiny cell."""
    if isinstance(shape, Int):
        low = 0 if shape.low is None else shape.low
        return st.integers(low, low + 3) | st.just(low + 400)
    if isinstance(shape, Float):
        return st.floats(
            0.0 if shape.low is None else shape.low,
            2.0 if shape.high is None else shape.high,
            exclude_min=shape.low_open,
            exclude_max=shape.high_open,
        )
    if isinstance(shape, Str):
        return st.text(max_size=3) if shape.choices is None else st.sampled_from(
            list(shape.choices)
        )
    if isinstance(shape, Seq):
        return st.lists(strategy(shape.item), max_size=2).map(tuple)
    if isinstance(shape, Pair):
        return st.tuples(strategy(shape.first), strategy(shape.second))
    if isinstance(shape, OneOf):
        return st.one_of([strategy(each) for each in shape.shapes])
    if isinstance(shape, Type) and isinstance(shape.cls, tuple):
        return st.one_of([spec_strategy(kind) for kind in shape.cls])
    if isinstance(shape, Type):
        return spec_strategy(shape.cls, partial=False)
    raise AssertionError(f"no strategy for {shape!r}")


def spec_strategy(kind, partial=True):
    """Values of one type; a declared class also as a partial payload."""
    if isinstance(kind, type) and issubclass(kind, Declared):
        built = st.builds(kind, **{name: strategy(shape) for name, shape in knobs(kind).items()})
        payloads = st.fixed_dictionaries(
            {}, optional={name: strategy(shape) for name, shape in knobs(kind).items()}
        )
        return built | payloads if partial else built
    simple = {int: st.integers(0, 4), bool: st.booleans(), dict: st.just({}), type(None): st.none()}
    return simple.get(kind, st.nothing())


#: Where each deployment knob must show in the built deployment: a knob
#: the scenario accepted but did not apply fails the matrix.
EFFECTS = {
    "query_budget": lambda s, r, v: s.service.ledger.budget == v,
    "batch_size": lambda s, r, v: s.service.max_batch == v,
    "cache": lambda s, r, v: s.service.cache_enabled == v,
    "cache_size": lambda s, r, v: s.service.cache_size == v,
    "on_budget_exhausted": lambda s, r, v: s.service.exhaustion == v,
    "topology": lambda s, r, v: s.vfl.partition.n_parties == (2 if v is None else v.n_parties),
    "comm_budget": lambda s, r, v: (s.runtime.ledger.byte_budget is None) == (v is None),
    "scheduler": lambda s, r, v: type(s.runtime.scheduler) is SCHEDULERS[v],
    "retry": lambda s, r, v: s.runtime.retry_policy == RetryPolicy.from_spec(v),
    "quorum": lambda s, r, v: s.runtime.quorum == v,
    "degradation": lambda s, r, v: s.runtime.degradation == v,
    "breaker": lambda s, r, v: s.service.breaker_policy == BreakerPolicy.from_spec(v),
    "telemetry": lambda s, r, v: bool(r.telemetry) == (v is not None and v is not False),
}

#: The scenario knobs the matrix draws beside every deployment knob.
MATRIX_SCENARIO_KNOBS = ("defenses",)


def _words(name: str) -> set[str]:
    """How a message may name a knob: as is, spaced, singular, or by its
    last word (``n_parties`` as "parties")."""
    spaced = name.replace("_", " ")
    return {name, spaced, spaced.rstrip("s"), spaced.split()[-1]}


def _knob_words(name: str, value) -> set[str]:
    words = _words(name)
    if isinstance(value, Declared):
        for inner in knobs(type(value)):
            words |= _words(inner)
    return words


@st.composite
def matrix_cells(draw):
    deployment = {name: draw(strategy(shape)) for name, shape in knobs(Deployment).items()}
    scenario = {
        name: draw(strategy(knobs(ScenarioConfig)[name])) for name in MATRIX_SCENARIO_KNOBS
    }
    return deployment, scenario, draw(st.booleans())


class TestInteractionMatrix:
    def test_every_deployment_knob_has_an_effect(self):
        assert set(EFFECTS) == set(knobs(Deployment))

    @settings(max_examples=100, deadline=None)
    @given(matrix_cells())
    def test_every_combination_runs_or_names_its_knobs(self, cell):
        deployment, scenario, checkpointed = cell
        config = ScenarioConfig(
            **CELL, scale=TINY, target_fraction=0.4, **deployment, **scenario
        )
        set_knobs = {
            name: value
            for name, value in {**deployment, **scenario}.items()
            if value != getattr(ScenarioConfig(**CELL), name)
        }
        with tempfile.TemporaryDirectory() as store:
            plan = CheckpointPlan(store) if checkpointed else None
            if checkpointed:
                set_knobs["serving_checkpoint"] = plan
            try:
                report = run_scenario(config, serving_checkpoint=plan)
            except ReproError as exc:
                words = set().union(*(_knob_words(n, v) for n, v in set_knobs.items()))
                assert any(word in str(exc) for word in words), (
                    f"{type(exc).__name__} names none of {sorted(set_knobs)}: {exc}"
                )
                return
            scenario_ = report.scenario
            scenario_.tracer.close()
            for name, value in deployment.items():
                assert EFFECTS[name](scenario_, report, value), f"{name}={value!r} ignored"
            stack = scenario_.service.defense_stack
            assert len(config.defenses) == (0 if stack is None else len(stack))
            if checkpointed:
                assert plan.latest() is not None, "serving_checkpoint ignored"


# ----------------------------------------------------------------------
# Tracer ownership
# ----------------------------------------------------------------------
class ClosingTracer(Tracer):
    """A memory tracer that remembers whether its owner closed it."""

    def __init__(self):
        super().__init__(MemorySink())
        self.closed = False

    def close(self):
        self.closed = True
        super().close()


@pytest.fixture
def spy_tracer(monkeypatch):
    tracers = []

    def make(spec):
        tracers.append(ClosingTracer())
        return tracers[-1]

    monkeypatch.setattr(scenario_module, "make_tracer", make)
    return tracers


class TestTracerOwnership:
    def test_build_opens_the_build_span(self):
        scenario = build_scenario(
            "bank", "lr", 0.3, TINY, 0,
            deployment=Deployment(telemetry=True),
            consumer="probe",
        )
        (build,) = [
            r for r in scenario.tracer.sink.records if r["kind"] == "scenario.build"
        ]
        assert build["attrs"] == {
            "dataset": "bank",
            "model": "lr",
            "attack": "probe",
            "predictions": int(scenario.V.shape[0]),
        }

    def test_a_failed_build_closes_its_tracer(self, spy_tracer):
        with pytest.raises(ScenarioError, match="allowed no predictions"):
            build_scenario(
                "bank", "lr", 0.3, TINY, 0,
                deployment=Deployment(
                    comm_budget=1, on_budget_exhausted="truncate", telemetry=True
                ),
            )
        (tracer,) = spy_tracer
        assert tracer.closed
        build = tracer.sink.records[-1]
        assert build["kind"] == "scenario.build" and build["attrs"]["error"] is True

    def test_a_failed_attack_closes_only_an_owned_tracer(self, spy_tracer, monkeypatch):
        def boom(self, x_adv, v):
            raise RuntimeError("attack failed")

        prebuilt = build_scenario(
            "bank", "lr", 0.3, TINY, 0, deployment=Deployment(telemetry=True)
        )
        monkeypatch.setattr(EsaScenarioAttack, "run", boom)
        with pytest.raises(RuntimeError, match="attack failed"):
            run_scenario(ScenarioConfig(**CELL, scale=TINY), scenario=prebuilt)
        assert not prebuilt.tracer.closed
        with pytest.raises(RuntimeError, match="attack failed"):
            run_scenario(ScenarioConfig(**CELL, scale=TINY, telemetry=True))
        owned = spy_tracer[-1]
        assert owned is not prebuilt.tracer and owned.closed

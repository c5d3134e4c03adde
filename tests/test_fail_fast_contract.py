"""The fail-fast contract of a protocol round, as a table.

Every protocol round runs one exchange; with no ``retry``/``quorum``
knob that exchange is fail-fast: one attempt, every party required.
This table pins what a caller can observe of it for each fault kind
under both schedulers: prediction bytes, the ledger, the error type and
the party it names, the availability report, and the simulated seconds
on the round's trace span.

One behaviour deliberately differs from the historical fail-fast round
and has its own named test instead of a table row: a round that loses a
dropped party meters the surviving parties' replies too (ledger bytes
always equal delivered frame bytes).
"""

import re

import numpy as np
import pytest

from repro.api import make_model
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.exceptions import PartyUnavailableError, ProtocolError
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import FaultPlan, FederationRuntime, Message
from repro.federation.message import encoded_size
from repro.federation.nodes import FEATURE_BLOCK, FEATURE_REQUEST
from repro.telemetry import Tracer

TINY = ScaleConfig(
    name="tiny-contract",
    n_samples=120,
    n_predictions=20,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=3,
    mlp_hidden=(8,),
    mlp_epochs=1,
    rf_trees=2,
    rf_depth=2,
    dt_depth=3,
    grna_hidden=(8,),
    grna_epochs=1,
    grna_batch_size=16,
    distiller_hidden=(8,),
    distiller_dummy=50,
    distiller_epochs=1,
)

N_PARTIES = 4
FAULTY = 2
PASSIVES = (1, 2, 3)
ROWS = np.arange(10)
SCHEDULERS = ("sequential", "threaded")
#: Names the faulty party, in the wording of a party's own failure
#: ("party 2 ...") or of a lost round ("lost party(ies) 2 ...").
NAMES_FAULTY = re.compile(rf"part(?:y|y\(ies\)) {FAULTY}\b")

FAULTS = {
    "none": [],
    "drop": [("drop", {"party": FAULTY})],
    "straggler": [("straggler", {"party": FAULTY, "delay": 0.001})],
    "flaky": [("flaky", {"party": FAULTY, "p": 1.0})],
    "crash_after": [("crash_after", {"party": FAULTY, "round": 0})],
    "corrupt": [("corrupt", {"party": FAULTY, "p": 1.0})],
    "timeout": [("timeout", {"party": FAULTY, "p": 1.0, "delay": 0.5})],
}

#: Per fault kind: which passive parties' replies cross the wire, whether
#: the round fails, and the simulated clock after it (``None``: no clock
#: is reported — availability stays ``{}`` and span ``sim`` is ``None``).
PREDICT = {
    "none": dict(replied=PASSIVES, fails=False, sim=None),
    "straggler": dict(replied=PASSIVES, fails=False, sim=None),
    "flaky": dict(replied=(1, 3), fails=True, sim=0.0),
    "crash_after": dict(replied=(1, 3), fails=True, sim=0.0),
    "corrupt": dict(replied=PASSIVES, fails=True, sim=0.0),
    "timeout": dict(replied=PASSIVES, fails=False, sim=0.5),
    # "drop" fails with sim None; its ledger is a named delta below.
}

@pytest.fixture(scope="module")
def data():
    dataset = load_dataset("bank", n_samples=120, rng=0)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=N_PARTIES, rng=0
    )
    return (
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


@pytest.fixture(scope="module")
def vfl(data):
    return train_vertical_model(
        make_model("lr", TINY, np.random.default_rng(3)), *data
    )


def expected_ledger(width, n_rows, replied, request, block, rounds=1):
    """The ledger of one clean-wire round: requests out, ``replied`` back."""
    edges = {}
    for party in PASSIVES:
        edges[f"0->{party}"] = {
            "messages": 1,
            "bytes": encoded_size(request, np.int64, (n_rows,)),
        }
    for party in replied:
        edges[f"{party}->0"] = {
            "messages": 1,
            "bytes": encoded_size(block, np.float64, (n_rows, width[party])),
        }
    return {
        "byte_budget": None,
        "message_budget": None,
        "bytes": sum(edge["bytes"] for edge in edges.values()),
        "messages": len(edges),
        "rounds": rounds,
        "retries": 0,
        "timeouts": 0,
        "edges": dict(sorted(edges.items())),
    }


def expected_availability(sim):
    if sim is None:
        return {}
    return {
        "rounds_total": 1,
        "rounds_degraded": 0,
        "degraded": [],
        "retries": 0,
        "timeouts": 0,
        "sim_seconds": sim,
    }


def widths(vfl):
    return {party.party_id: party.n_features for party in vfl.parties}


def run_predict(vfl, fault, scheduler):
    tracer = Tracer()
    runtime = FederationRuntime(
        vfl,
        scheduler=scheduler,
        faults=FaultPlan.from_specs(FAULTS[fault]),
        tracer=tracer,
    )
    try:
        try:
            result = runtime.predict(ROWS)
        except PartyUnavailableError as exc:
            result = exc
    finally:
        runtime.close()
    (span,) = [r for r in tracer.sink.records if r["kind"] == "federation.round"]
    return runtime, result, span


class TestPredictRound:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("fault", sorted(PREDICT))
    def test_contract(self, vfl, fault, scheduler):
        cell = PREDICT[fault]
        runtime, result, span = run_predict(vfl, fault, scheduler)
        if cell["fails"]:
            assert isinstance(result, PartyUnavailableError)
            assert NAMES_FAULTY.search(str(result)), str(result)
            assert span["attrs"].get("error") is True
        else:
            assert result.tobytes() == vfl.predict(ROWS).tobytes()
        assert runtime.ledger.as_dict() == expected_ledger(
            widths(vfl), ROWS.size, cell["replied"], FEATURE_REQUEST, FEATURE_BLOCK
        )
        assert runtime.ledger.total_bytes == runtime.transport.delivered_bytes
        assert runtime.availability_report() == expected_availability(cell["sim"])
        start = None if cell["sim"] is None else 0.0
        assert (span["sim0"], span["sim1"]) == (start, cell["sim"])

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_drop_contract(self, vfl, scheduler):
        runtime, result, span = run_predict(vfl, "drop", scheduler)
        assert isinstance(result, PartyUnavailableError)
        assert "party 2 dropped" in str(result)
        assert runtime.availability_report() == {}
        assert (span["sim0"], span["sim1"]) == (None, None)
        assert all(runtime.transport.pending(p) == 0 for p in range(N_PARTIES))

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_dropped_round_meters_the_surviving_replies(self, vfl, scheduler):
        """Delta: the live parties' replies cross the wire before the
        round is declared lost, and the ledger charges them."""
        runtime, _, _ = run_predict(vfl, "drop", scheduler)
        assert runtime.ledger.as_dict() == expected_ledger(
            widths(vfl), ROWS.size, (1, 3), FEATURE_REQUEST, FEATURE_BLOCK
        )
        assert runtime.ledger.total_bytes == runtime.transport.delivered_bytes

    @pytest.mark.parametrize("fault", ["drop", "flaky", "crash_after", "corrupt"])
    def test_lost_round_quotes_the_party_reason(self, vfl, fault):
        _, result, _ = run_predict(vfl, fault, "sequential")
        cause = result.__cause__
        assert isinstance(cause, PartyUnavailableError)
        assert str(cause) in str(result)
        assert NAMES_FAULTY.search(str(cause)), str(cause)


class TestReplyValidation:
    """The round's drain is the one place a reply is checked."""

    @pytest.mark.parametrize(
        "kind,round_id,error",
        [
            (FEATURE_BLOCK, 99, "a previous round leaked state"),
            (FEATURE_REQUEST, 0, "expected a block reply"),
        ],
    )
    def test_foreign_reply_is_refused(self, vfl, kind, round_id, error):
        runtime = FederationRuntime(vfl)
        runtime.transport.send(
            Message(sender=1, receiver=0, kind=kind, payload=ROWS, round_id=round_id)
        )
        with pytest.raises(ProtocolError, match=error):
            runtime.predict(ROWS)
        assert all(runtime.transport.pending(p) == 0 for p in range(N_PARTIES))


"""Tests for the resilience layer: chaos engine, retry/timeout/backoff,
quorum-degraded rounds, circuit breakers, and the scenario integration.

The load-bearing contracts:

- **chaos purity** — every stochastic fault decision is a pure function
  of ``(seed, party, round, attempt)``, so storms are bit-identical
  across schedulers and across checkpoint/resume;
- **metered resilience** — retries are real request frames on the
  ledger, timeouts are counted, and ledger bytes equal the transport's
  delivered frame bytes even when frames are corrupted in flight;
- **backward compatibility** — with every resilience knob at its
  default, the one exchange runs fail-fast and reports stay
  byte-identical to the pre-resilience layout (plus empty new fields).
"""

import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import capture_state, restore_state
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.exceptions import (
    CheckpointError,
    PartyTimeoutError,
    PartyUnavailableError,
    QuorumLostError,
    ScenarioError,
    ServiceUnavailableError,
    ValidationError,
    WireFormatError,
)
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import (
    FaultPlan,
    FederationRuntime,
    Message,
    TopologyConfig,
    decode_message,
    make_scheduler,
)
from repro.federation.message import _HEADER
from repro.federation.nodes import FEATURE_REQUEST
from repro.models import LogisticRegression
from repro.resilience import (
    DEGRADATIONS,
    BreakerPolicy,
    CircuitBreaker,
    FaultOutcome,
    ReplyCache,
    ResilienceState,
    RetryPolicy,
    SimClock,
    decision_rng,
    party_stream_base,
)
from repro.resilience import chaos
from repro.resilience.chaos import (
    BLOCK_ROUNDS,
    FAULT_SALT,
    JITTER_SALT,
    DecisionBlocks,
    decision_uniforms,
)
from repro.serving import PredictionService
from repro.telemetry import Tracer
from repro.api import ScenarioConfig, run_scenario

TINY = ScaleConfig(
    name="tiny-res",
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


def deploy(n_parties=3, n=120, seed=0):
    """A small fitted 3-party VFL deployment."""
    dataset = load_dataset("bank", n_samples=n, rng=seed)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=n_parties, rng=seed
    )
    model = LogisticRegression(rng=np.random.default_rng(1), epochs=4)
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


def storm_runtime(vfl, scheduler="sequential", **kwargs):
    kwargs.setdefault(
        "faults",
        FaultPlan.from_specs(
            [
                ("flaky", {"party": 1, "p": 0.4, "seed": 5}),
                ("timeout", {"party": 2, "p": 0.3, "delay": 0.5, "seed": 6}),
            ]
        ),
    )
    kwargs.setdefault("retry", {"max_attempts": 3, "backoff_base": 0.01, "timeout": 0.1})
    kwargs.setdefault("quorum", 2 / 3)
    kwargs.setdefault("degradation", "last_known")
    return FederationRuntime(vfl, scheduler=scheduler, **kwargs)


#: A storm with every outcome kind: two flaky parties, one timeout-prone.
WIDE_STORM = (
    ("flaky", {"party": 1, "p": 0.25, "seed": 11}),
    ("flaky", {"party": 2, "p": 0.25, "seed": 12}),
    ("timeout", {"party": 3, "p": 0.2, "delay": 0.5, "seed": 13}),
)

#: Storm wire bytes (retries included) may be at most this many times
#: the fault-free bytes of the same rounds.
MAX_BYTE_OVERHEAD = 2.5


def wide_storm_runtime(vfl):
    return storm_runtime(
        vfl,
        faults=FaultPlan.from_specs(WIDE_STORM),
        retry={"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.25, "timeout": 0.1},
        quorum=0.5,
    )


def replay_storm_analytically(plan, policy, rounds, parties):
    """Recompute a storm's bookkeeping from the pure chaos functions.

    No protocol, no transport: for every ``(party, round)`` cell, walk
    the attempt budget through :meth:`FaultPlan.outcome` as the protocol
    round does, and tally what the ledger and availability report must
    say. Any divergence from a measured run means a chaos decision was
    consumed impurely (order- or scheduler-dependent).
    """
    retries = 0
    timeouts = 0
    degraded = []
    for round_id in rounds:
        missing = []
        for party in parties:
            delivered = False
            for attempt in range(policy.max_attempts):
                if attempt > 0:
                    retries += 1
                outcome = plan.outcome(party, round_id, attempt)
                if outcome.kind == "ok":
                    delivered = True
                    break
                if (
                    outcome.kind == "timeout"
                    and policy.timeout is not None
                    and outcome.latency > policy.timeout
                ):
                    timeouts += 1
                elif outcome.kind == "timeout":
                    delivered = True  # slow but within the deadline
                    break
                if outcome.permanent:
                    break
            if not delivered:
                missing.append(party)
        if missing:
            degraded.append({"round": round_id, "missing": missing})
    return {"retries": retries, "timeouts": timeouts, "degraded": degraded}


class TestChaosEngine:
    def test_decisions_are_pure(self):
        draws = [
            decision_rng(7, 2, 5, 1, FAULT_SALT).random() for _ in range(3)
        ]
        assert draws[0] == draws[1] == draws[2]

    def test_cells_and_salts_are_independent(self):
        base = decision_rng(7, 2, 5, 1, FAULT_SALT).random()
        assert decision_rng(7, 2, 5, 2, FAULT_SALT).random() != base
        assert decision_rng(7, 2, 6, 1, FAULT_SALT).random() != base
        assert decision_rng(7, 3, 5, 1, FAULT_SALT).random() != base
        assert decision_rng(7, 2, 5, 1, JITTER_SALT).random() != base

    def test_party_streams_are_prefix_stable(self):
        # Party p's base stream is the p-th draw of one spawn prefix, so
        # widening the topology never reshuffles existing parties.
        assert party_stream_base(7, 1) == party_stream_base(7, 1)
        assert party_stream_base(7, 1) != party_stream_base(7, 2)
        assert party_stream_base(8, 1) != party_stream_base(7, 1)

    def test_outcome_flags(self):
        assert FaultOutcome(kind="drop").permanent
        assert FaultOutcome(kind="crash").permanent
        assert not FaultOutcome(kind="flaky").permanent
        assert FaultOutcome(kind="flaky").failed
        assert FaultOutcome(kind="corrupt", token=3).failed
        assert not FaultOutcome(kind="timeout", latency=1.0).failed
        assert not FaultOutcome(kind="ok").failed

    def test_plan_outcomes_are_pure(self):
        plan = FaultPlan.from_specs([("flaky", {"party": 1, "p": 0.5, "seed": 3})])
        cells = [(1, r, a) for r in range(10) for a in range(3)]
        first = [plan.outcome(*cell).kind for cell in cells]
        second = [plan.outcome(*cell).kind for cell in cells]
        assert first == second
        assert set(first) == {"ok", "flaky"}

    def test_sim_clock(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(0.5) == 0.5
        assert clock.advance(0.25) == 0.75
        with pytest.raises(ValidationError, match="forward"):
            clock.advance(-0.1)
        with pytest.raises(ValidationError):
            SimClock(-1.0)


def first_uniform(base, round_id, attempt, salt):
    """The oracle: numpy's own first draw for one decision cell."""
    return np.random.default_rng([base, round_id, attempt, salt]).random()


def oracle_outcome(plan, party, round_id, attempt):
    """``FaultPlan.outcome`` as a fresh generator per cell computes it."""
    kind, params = plan.stochastic[party]
    rng = decision_rng(params["seed"], party, round_id, attempt)
    if rng.random() >= params["p"]:
        return FaultOutcome(kind="ok")
    if kind == "corrupt":
        return FaultOutcome(kind="corrupt", token=int(rng.integers(0, 2**63 - 1)))
    if kind == "timeout":
        return FaultOutcome(kind="timeout", latency=params["delay"])
    return FaultOutcome(kind=kind)


GRID_ROUNDS = [0, 1, 1023, 1024, 1025, 2**32 - 1]


class TestBlockDraws:
    """``decision_uniforms`` equals the generator's first draw, bit for bit."""

    @pytest.mark.parametrize(
        "base", [0, 1, 2**32 - 1, 2**32, 2**63 - 2], ids=["zero", "one", "u32", "2^32", "63bit"]
    )
    @pytest.mark.parametrize("salt", [FAULT_SALT, JITTER_SALT])
    def test_grid_matches_numpy(self, monkeypatch, base, salt):
        monkeypatch.setattr(chaos, "party_stream_base", lambda seed, party: base)
        rounds = np.array(GRID_ROUNDS)
        for attempt in range(4):
            got = decision_uniforms(0, 1, rounds, attempt, salt)
            want = [first_uniform(base, int(r), attempt, salt) for r in rounds]
            assert got.tolist() == want

    @pytest.mark.parametrize("salt", [FAULT_SALT, JITTER_SALT])
    def test_seeded_party_streams_match_decision_rng(self, salt):
        # Real bases are 63-bit draws (and the odd one below 2**32).
        rng = np.random.default_rng(2024)
        rounds = np.concatenate([GRID_ROUNDS, rng.integers(0, 2**32, 50)])
        for seed in (0, 7, 2**31):
            for party in (1, 2, 3):
                for attempt in range(4):
                    got = decision_uniforms(seed, party, rounds, attempt, salt)
                    want = [
                        decision_rng(seed, party, int(r), attempt, salt).random()
                        for r in rounds
                    ]
                    assert got.tolist() == want

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        party=st.integers(0, 9),
        round_id=st.integers(0, 2**32 - 1),
        attempt=st.integers(0, 7),
        salt=st.sampled_from([FAULT_SALT, JITTER_SALT]),
    )
    def test_random_cells_match_decision_rng(self, seed, party, round_id, attempt, salt):
        want = decision_rng(seed, party, round_id, attempt, salt).random()
        assert decision_uniforms(seed, party, [round_id], attempt, salt)[0] == want
        assert DecisionBlocks(salt).uniform(seed, party, round_id, attempt) == want

    def test_out_of_range_ids_are_refused(self):
        for rounds in ([2**32], [-1], [3, 2**40]):
            with pytest.raises(ValueError, match="round ids"):
                decision_uniforms(1, 1, rounds, 0)
        with pytest.raises(ValueError, match="attempt and salt"):
            decision_uniforms(1, 1, [3], 2**32)

    def test_wide_round_ids_fall_back_to_decision_rng(self, monkeypatch):
        calls = []
        real = chaos.decision_rng

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(chaos, "decision_rng", counted)
        blocks = DecisionBlocks(JITTER_SALT)
        for round_id in (2**32, 2**32 + 1025, 2**40):
            draw = blocks.uniform(5, 2, round_id, 1)
            assert draw == real(5, 2, round_id, 1, JITTER_SALT).random()
        assert calls == [
            (5, 2, round_id, 1, JITTER_SALT) for round_id in (2**32, 2**32 + 1025, 2**40)
        ]
        calls.clear()
        assert blocks.uniform(5, 2, 2**32 - 1, 1) == real(5, 2, 2**32 - 1, 1, JITTER_SALT).random()
        assert calls == []

    def test_blocks_cover_rounds_in_and_out_of_order(self):
        blocks = DecisionBlocks(FAULT_SALT)
        rounds = [0, BLOCK_ROUNDS - 1, BLOCK_ROUNDS, 5, 3 * BLOCK_ROUNDS + 7, 1]
        for round_id in rounds:
            want = decision_rng(3, 1, round_id, 2).random()
            assert blocks.uniform(3, 1, round_id, 2) == want
        # One held block per (seed, party, attempt), however many rounds.
        assert len(blocks._blocks) == 1

    def test_shared_blocks_under_thread_contention(self):
        # Threads racing block swaps on one instance each read a
        # complete block: every draw still equals the oracle's.
        rounds = [r * 397 % (4 * BLOCK_ROUNDS) for r in range(600)]
        want = {r: decision_rng(4, 1, r, 0).random() for r in set(rounds)}
        blocks = DecisionBlocks(FAULT_SALT)
        mismatches = []

        def work(offset):
            for r in rounds[offset:] + rounds[:offset]:
                if blocks.uniform(4, 1, r, 0) != want[r]:
                    mismatches.append(r)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(o,)) for o in range(0, 600, 100)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    @pytest.mark.parametrize(
        "spec",
        [
            ("flaky", {"p": 0.4, "seed": 11}),
            ("corrupt", {"p": 0.4, "seed": 12}),
            ("timeout", {"p": 0.4, "delay": 0.3, "seed": 13}),
        ],
        ids=lambda spec: spec[0],
    )
    def test_plan_outcomes_match_fresh_generators(self, spec):
        kind, params = spec
        plan = FaultPlan.from_specs([(kind, {"party": 2, **params})])
        rounds = [*range(1000, 1050), 2**32 - 1, 2**32, 2**32 + 7]
        outcomes = [
            (plan.outcome(2, r, a), oracle_outcome(plan, 2, r, a))
            for r in rounds
            for a in range(3)
        ]
        assert all(new == old for new, old in outcomes)
        assert {new.kind for new, _ in outcomes} == {"ok", kind}

    def test_jitter_matches_fresh_generators(self):
        policy = RetryPolicy(max_attempts=4, jitter=0.5, seed=9)
        for round_id in (0, 1023, 1024, 2**32 + 3):
            for attempt in (1, 2, 3):
                draw = decision_rng(9, 1, round_id, attempt, JITTER_SALT).random()
                want = 0.05 * 2.0 ** (attempt - 1) * (1.0 + 0.5 * draw)
                assert policy.backoff(1, round_id, attempt) == want

    def test_draws_are_per_plan_and_policy(self):
        specs = [("flaky", {"party": 1, "p": 0.5, "seed": 3})]
        assert FaultPlan.from_specs(specs)._draws is not FaultPlan.from_specs(specs)._draws
        assert RetryPolicy()._jitter_draws is not RetryPolicy()._jitter_draws
        assert FaultPlan.from_specs(specs) == FaultPlan.from_specs(specs)
        assert RetryPolicy(jitter=0.5) == RetryPolicy(jitter=0.5)


class TestRetryPolicy:
    def test_from_spec_normalizations(self):
        assert RetryPolicy.from_spec(None) == RetryPolicy()
        assert RetryPolicy.from_spec(4).max_attempts == 4
        policy = RetryPolicy.from_spec({"max_attempts": 2, "timeout": 0.5})
        assert (policy.max_attempts, policy.timeout) == (2, 0.5)
        assert RetryPolicy.from_spec(policy) is policy

    @pytest.mark.parametrize(
        "spec",
        [True, 0, -1, 2.5, {"bogus": 1}, {"max_attempts": 0}, {"jitter": 2.0}],
    )
    def test_from_spec_rejections(self, spec):
        with pytest.raises(ValidationError):
            RetryPolicy.from_spec(spec)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.1, backoff_factor=2.0)
        delays = [policy.backoff(1, 0, a) for a in (1, 2, 3)]
        assert delays == [0.1, 0.2, 0.4]
        with pytest.raises(ValidationError, match=">= 1"):
            policy.backoff(1, 0, 0)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.5, seed=9)
        first = policy.backoff(1, 4, 2)
        assert first == policy.backoff(1, 4, 2)
        assert 0.2 <= first <= 0.3  # base*factor within [1, 1.5]x
        assert policy.backoff(2, 4, 2) != first

    def test_payload_roundtrip(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.25, timeout=1.5, seed=2)
        assert RetryPolicy.from_payload(policy.to_payload()) == policy


class TestCircuitBreaker:
    def test_policy_from_spec(self):
        assert BreakerPolicy.from_spec(None) is None
        assert BreakerPolicy.from_spec(5).failure_threshold == 5
        policy = BreakerPolicy.from_spec({"cooldown": 2})
        assert (policy.failure_threshold, policy.cooldown) == (3, 2)
        for bad in (True, 0, {"bogus": 1}, 1.5):
            with pytest.raises(ValidationError):
                BreakerPolicy.from_spec(bad)

    def test_lifecycle(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=2))
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # burns cooldown 2 -> 1
        assert breaker.allow()  # cooldown exhausted: half-open probe
        assert breaker.state == "half_open"
        breaker.record_failure()  # probe fails: straight back to open
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.allow()
        breaker.record_success()
        assert (breaker.state, breaker.failures) == ("closed", 0)

    def test_checkpoint_codec_roundtrip(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=5))
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()
        fragment = capture_state(breaker)
        restored = CircuitBreaker(BreakerPolicy())
        restore_state(restored, fragment)
        assert restored.policy == breaker.policy
        assert (restored.state, restored.failures, restored.cooldown_left) == (
            breaker.state,
            breaker.failures,
            breaker.cooldown_left,
        )

    def test_checkpoint_rejects_illegal_state(self):
        breaker = CircuitBreaker(BreakerPolicy())
        fragment = capture_state(breaker)
        fragment["meta"]["state"] = "exploded"
        with pytest.raises(CheckpointError, match="legal states"):
            restore_state(CircuitBreaker(BreakerPolicy()), fragment)


class TestDegradation:
    def test_reply_cache_copies_both_ways(self):
        cache = ReplyCache()
        block = np.ones((2, 3))
        cache.put(1, block)
        block[0, 0] = 99.0
        out = cache.get(1)
        assert out[0, 0] == 1.0
        out[0, 1] = 42.0
        assert cache.get(1)[0, 1] == 1.0
        assert cache.parties() == [1]
        assert len(cache) == 1

    def test_zero_fill_and_last_known(self):
        cache = ReplyCache()
        zero = DEGRADATIONS.get("zero_fill")(1, (4, 2), cache)
        assert zero.shape == (4, 2) and not zero.any()
        cached = np.arange(8, dtype=np.float64).reshape(4, 2)
        cache.put(1, cached)
        assert np.array_equal(DEGRADATIONS.get("last_known")(1, (4, 2), cache), cached)
        # Shape mismatch (different batch size) falls back to zeros.
        assert not DEGRADATIONS.get("last_known")(1, (3, 2), cache).any()

    def test_unknown_strategy_lists_choices(self):
        with pytest.raises(ScenarioError, match="zero_fill"):
            DEGRADATIONS.get("interpolate")


class TestFaultPlanEdges:
    def test_duplicate_party_spec_rejected(self):
        with pytest.raises(ValidationError, match="already carries.*flaky"):
            FaultPlan.from_specs(
                [
                    ("flaky", {"party": 1, "p": 0.5}),
                    ("drop", {"party": 1}),
                ]
            )

    @pytest.mark.parametrize(
        "specs,match",
        [
            ([("flaky", {"party": 1, "p": 1.5})], r"\[0, 1\]"),
            ([("flaky", {"party": 1})], "probability"),
            ([("meteor", {"party": 1})], "unknown fault kind"),
            ([("flaky", {"p": 0.5})], "'party'"),
            ([("crash_after", {"party": 1})], "'round'"),
            ([("crash_after", {"party": 1, "round": -1})], ">= 0"),
            ([("timeout", {"party": 1})], "positive simulated"),
            ([("flaky", {"party": 1, "p": 0.5, "seed": -1})], "seed"),
            (["flaky"], "pair"),
            ([("drop", {"party": "2"})], "party must be an int, got str '2'"),
            ([("flaky", {"party": 1, "p": "x"})], "p must be a number in"),
            ([("crash_after", {"party": 1, "round": 2.5})], "round must be an int"),
            ([("timeout", {"party": 1, "delay": "x"})], "delay must be a number"),
            (
                [("flaky", {"party": 1, "p": 0.5, "sed": 3})],
                r"unknown param\(s\) \['sed'\]; it accepts \['party', 'p', 'seed'\]",
            ),
            (
                [("straggler", {"party": 1, "dealy": 0.5})],
                r"unknown param\(s\) \['dealy'\]; it accepts \['party', 'delay'\]",
            ),
        ],
    )
    def test_malformed_specs_rejected(self, specs, match):
        with pytest.raises(ValidationError, match=match):
            FaultPlan.from_specs(specs)

    def test_validate_parties_edges(self):
        plan = FaultPlan.from_specs([("flaky", {"party": 2, "p": 0.5})])
        plan.validate_parties(3)  # party 2 exists: fine
        with pytest.raises(ValidationError, match="parties 0..1"):
            plan.validate_parties(2)
        with pytest.raises(ValidationError, match="active party"):
            FaultPlan.from_specs([("crash_after", {"party": 0, "round": 1})]).validate_parties(3)
        # The stochastic kinds are covered, not just drops/delays.
        with pytest.raises(ValidationError, match="parties 0..2"):
            FaultPlan.from_specs(
                [("timeout", {"party": 5, "delay": 0.1})]
            ).validate_parties(3)

    def test_noop_and_stochastic_flags(self):
        assert FaultPlan().is_noop and not FaultPlan().has_stochastic
        plan = FaultPlan.from_specs([("corrupt", {"party": 1, "p": 0.5})])
        assert plan.has_stochastic and not plan.is_noop
        assert not FaultPlan.from_specs([("drop", {"party": 1})]).has_stochastic


class TestWireCorruption:
    def _frame(self):
        payload = np.arange(12, dtype=np.float64).reshape(3, 4)
        return Message(
            sender=1, receiver=0, kind="feature_block", round_id=2, payload=payload
        ).encode()

    def test_crc_catches_a_flipped_checksum_byte(self):
        data = bytearray(self._frame())
        data[_HEADER.size] ^= 0x01  # first checksum byte
        with pytest.raises(WireFormatError, match="corrupted frame"):
            decode_message(bytes(data))

    def test_crc_catches_a_flipped_body_byte(self):
        data = bytearray(self._frame())
        data[-1] ^= 0x80  # last payload byte
        with pytest.raises(WireFormatError, match="altered in flight"):
            decode_message(bytes(data))

    def test_truncated_frames_rejected(self):
        frame = self._frame()
        with pytest.raises(WireFormatError, match="truncated"):
            decode_message(frame[: _HEADER.size - 2])
        with pytest.raises(WireFormatError, match="declared by the header"):
            decode_message(frame[: len(frame) - 5])

    def test_intact_frame_roundtrips(self):
        message = decode_message(self._frame())
        assert message.payload.shape == (3, 4)
        assert message.round_id == 2


class TestSchedulerCancellation:
    def test_failing_task_does_not_leak_siblings(self):
        """Regression: an early failure must join the surviving futures.

        Before the fix, ``run_round`` raised while later tasks were
        still running on the pool — ``close()`` (and interpreter
        shutdown) then blocked on them, and a task completing *after*
        the raise could touch transport state of an aborted round.
        """
        scheduler = make_scheduler("threaded")
        finished = []
        started = threading.Event()
        release = threading.Event()

        def fails():
            started.wait(timeout=5.0)
            raise PartyUnavailableError("party 1 is gone")

        def slow():
            started.set()
            release.wait(timeout=5.0)
            finished.append(True)
            return "ok"

        try:
            # Release the sibling shortly after the failure fires, while
            # run_round is (correctly) blocked joining it.
            threading.Timer(0.05, release.set).start()
            with pytest.raises(PartyUnavailableError):
                scheduler.run_round([fails, slow])
            # The barrier held: the sibling was already running when the
            # failure surfaced, so run_round joined it before raising —
            # nothing is still running behind the round's back.
            assert finished == [True]
            # The pool survives the failed round and still runs cleanly.
            assert scheduler.run_round([lambda: 1, lambda: 2]) == [1, 2]
        finally:
            scheduler.close()


class TestResilientExchange:
    def test_engaged_without_faults_matches_oracle(self):
        vfl = deploy()
        runtime = FederationRuntime(vfl, retry=3, quorum=2 / 3)
        indices = np.arange(20)
        assert np.array_equal(runtime.predict(indices), vfl.predict(indices))
        report = runtime.availability_report()
        assert report["rounds_degraded"] == 0
        assert report["retries"] == 0

    def test_defaults_do_not_engage(self):
        vfl = deploy()
        tracer = Tracer()
        runtime = FederationRuntime(vfl, tracer=tracer)
        assert not runtime.engaged
        assert isinstance(runtime.resilience, ResilienceState)
        assert runtime.availability_report() == {}
        service = PredictionService(vfl, runtime=runtime)
        service.query(np.arange(10))
        ledger = runtime.ledger.as_dict()
        assert ledger["retries"] == 0 and ledger["timeouts"] == 0
        # The observable contract of a fail-fast runtime: no report, no
        # simulated time on its spans, no resilience snapshot fragment.
        assert runtime.availability_report() == {}
        (span,) = tracer.sink.records
        assert (span["sim0"], span["sim1"]) == (None, None)
        assert "resilience" not in service.serving_fragments()

    def test_flaky_exhaustion_fails_fast_without_quorum(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("flaky", {"party": 1, "p": 1.0})]),
            retry=2,
        )
        with pytest.raises(PartyUnavailableError, match="2 attempt"):
            runtime.predict(np.arange(8))
        # Retries were real, metered frames even though the round failed.
        assert runtime.ledger.retries == 1
        assert runtime.ledger.total_bytes == runtime.transport.delivered_bytes

    def test_all_timeouts_surface_as_timeout_error(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [("timeout", {"party": 1, "p": 1.0, "delay": 0.9})]
            ),
            retry={"max_attempts": 2, "timeout": 0.1},
        )
        with pytest.raises(PartyTimeoutError, match="exceeded the 0.1s timeout"):
            runtime.predict(np.arange(8))
        assert runtime.ledger.timeouts == 2
        # The clock paid the timeout deadline per wave, not the full delay.
        assert runtime.resilience.clock.now == pytest.approx(
            2 * 0.1 + runtime.retry_policy.backoff(1, 0, 1)
        )

    def test_slow_reply_within_deadline_is_delivered(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [("timeout", {"party": 1, "p": 1.0, "delay": 0.05})]
            ),
            retry={"max_attempts": 1, "timeout": 0.1},
        )
        indices = np.arange(8)
        assert np.array_equal(runtime.predict(indices), vfl.predict(indices))
        assert runtime.ledger.timeouts == 0
        assert runtime.resilience.clock.now == pytest.approx(0.05)

    def test_quorum_degrades_with_zero_fill(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("crash_after", {"party": 1, "round": 0})]),
            quorum=2 / 3,
        )
        indices = np.arange(10)
        degraded = runtime.predict(indices)
        assert degraded.shape == vfl.predict(indices).shape
        assert not np.array_equal(degraded, vfl.predict(indices))
        report = runtime.availability_report()
        assert report["rounds_degraded"] == 1
        entry = report["degraded"][0]
        assert entry["missing"] == [1]
        assert entry["strategy"] == "zero_fill"

    def test_last_known_replays_the_cached_block(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("crash_after", {"party": 1, "round": 1})]),
            quorum=2 / 3,
            degradation="last_known",
        )
        indices = np.arange(10)
        healthy = runtime.predict(indices)  # round 0: party 1 alive, cached
        degraded = runtime.predict(indices)  # round 1: imputed from cache
        # Same rows, so the cached block IS the true block: bit-identical.
        assert np.array_equal(degraded, healthy)
        assert runtime.availability_report()["rounds_degraded"] == 1

    def test_below_quorum_raises(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [
                    ("crash_after", {"party": 1, "round": 0}),
                    ("crash_after", {"party": 2, "round": 0}),
                ]
            ),
            quorum=2 / 3,
        )
        with pytest.raises(QuorumLostError, match="below the quorum of 2"):
            runtime.predict(np.arange(8))

    def test_integer_quorum_counts_parties(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [
                    ("crash_after", {"party": 1, "round": 0}),
                    ("crash_after", {"party": 2, "round": 0}),
                ]
            ),
            quorum=1,
        )
        # The active party alone satisfies quorum=1: fully imputed round.
        assert runtime.predict(np.arange(8)).shape == (8, 2)
        assert runtime.availability_report()["degraded"][0]["missing"] == [1, 2]

    @pytest.mark.parametrize("quorum", [True, 0, 4, 1.5, 0.0, "half"])
    def test_quorum_validation(self, quorum):
        with pytest.raises(ValidationError):
            FederationRuntime(deploy(), quorum=quorum)

    def test_corrupt_frames_are_charged_and_retried(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("corrupt", {"party": 1, "p": 1.0})]),
            retry=2,
            quorum=2 / 3,
        )
        runtime.predict(np.arange(8))
        # Every corrupted reply crossed the wire metered before the CRC
        # rejected it, so the books still balance exactly.
        assert runtime.ledger.total_bytes == runtime.transport.delivered_bytes
        assert runtime.availability_report()["rounds_degraded"] == 1
        replies_from_1 = [
            rec
            for rec in runtime.transport.delivery_log
            if rec.sender == 1 and rec.kind == "feature_block"
        ]
        assert len(replies_from_1) == 2  # one per attempt, both corrupted

    def test_retries_are_metered_request_frames(self):
        vfl = deploy()
        runtime = storm_runtime(vfl)
        for start in range(0, 40, 8):
            runtime.predict(np.arange(start, start + 8))
        ledger = runtime.ledger.as_dict()
        requests = sum(
            1
            for rec in runtime.transport.delivery_log
            if rec.kind == FEATURE_REQUEST
        )
        assert ledger["retries"] > 0
        assert requests == ledger["rounds"] * 2 + ledger["retries"]
        assert ledger["bytes"] == runtime.transport.delivered_bytes

    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_one_chaos_decision_per_request(self, monkeypatch, scheduler):
        """Each (party, round, attempt) cell is decided once per protocol
        round: one ``FaultPlan.outcome`` call per request frame sent."""
        draws = []
        real = FaultPlan.outcome

        def counted(self, *args, **kwargs):
            draws.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(FaultPlan, "outcome", counted)
        runtime = storm_runtime(
            deploy(n_parties=4),
            scheduler=scheduler,
            faults=FaultPlan.from_specs(
                [("flaky", {"party": p, "p": 0.3, "seed": 20 + p}) for p in (1, 2, 3)]
            ),
            quorum=0.5,
        )
        for start in range(0, 40, 8):
            runtime.predict(np.arange(start, start + 8))
        runtime.close()
        requests = sum(
            1 for rec in runtime.transport.delivery_log if rec.kind == FEATURE_REQUEST
        )
        ledger = runtime.ledger.as_dict()
        assert ledger["retries"] > 0
        assert requests == ledger["rounds"] * 3 + ledger["retries"]
        assert len(draws) == requests
        assert len(set(draws)) == len(draws)

    def test_storm_replays_analytically(self):
        """The availability report is a pure function of the chaos seeds."""
        runtime = wide_storm_runtime(deploy(n_parties=4))
        for _ in range(100):
            runtime.predict(np.arange(8))
        report = runtime.availability_report()
        analytic = replay_storm_analytically(
            runtime.faults, runtime.retry_policy, range(100), [1, 2, 3]
        )
        assert analytic == {
            "retries": report["retries"],
            "timeouts": report["timeouts"],
            "degraded": [
                {"round": entry["round"], "missing": entry["missing"]}
                for entry in report["degraded"]
            ],
        }
        assert analytic["retries"] and analytic["timeouts"] and analytic["degraded"]

    def test_storm_bytes_within_overhead_bound(self):
        vfl = deploy(n_parties=4)
        fault_free = FederationRuntime(vfl)
        storm = wide_storm_runtime(vfl)
        for _ in range(100):
            fault_free.predict(np.arange(8))
            storm.predict(np.arange(8))
        assert storm.ledger.retries > 0
        assert storm.ledger.total_bytes <= MAX_BYTE_OVERHEAD * fault_free.ledger.total_bytes

    def test_storm_is_bit_identical_across_schedulers(self):
        vfl = deploy()
        outputs = {}
        for scheduler in ("sequential", "threaded"):
            runtime = storm_runtime(vfl, scheduler=scheduler)
            blocks = [runtime.predict(np.arange(s, s + 8)) for s in range(0, 40, 8)]
            outputs[scheduler] = (
                np.concatenate(blocks),
                runtime.ledger.as_dict(),
                runtime.availability_report(),
            )
            runtime.close()
        seq, thr = outputs["sequential"], outputs["threaded"]
        assert np.array_equal(seq[0], thr[0])
        assert seq[1] == thr[1]
        assert seq[2] == thr[2]

    def test_resilience_state_codec_roundtrip(self):
        state = ResilienceState()
        state.clock.advance(1.25)
        state.availability.append(
            {"round": 3, "missing": [1], "attempts": 2, "strategy": "zero_fill"}
        )
        state.cache.put(1, np.arange(6, dtype=np.float64).reshape(2, 3))
        fragment = capture_state(state)
        restored = ResilienceState()
        restore_state(restored, fragment)
        assert restored.clock.now == 1.25
        assert restored.availability == state.availability
        assert np.array_equal(restored.cache.get(1), state.cache.get(1))


class TestServingBreaker:
    def _crashing_service(self, breaker):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("crash_after", {"party": 1, "round": 0})]),
            retry=1,
        )
        return PredictionService(vfl, runtime=runtime, breaker=breaker)

    def test_breaker_opens_and_refuses(self):
        service = self._crashing_service({"failure_threshold": 2, "cooldown": 3})
        indices = np.arange(4)
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError, match="breaker is now"):
                service.query(indices, consumer="adv")
        # Open: refusals never reach the runtime.
        rounds_before = service.runtime.ledger.rounds
        with pytest.raises(ServiceUnavailableError, match="is open"):
            service.query(indices, consumer="adv")
        assert service.runtime.ledger.rounds == rounds_before
        # Another consumer gets its own breaker, still closed.
        with pytest.raises(ServiceUnavailableError, match="breaker is now"):
            service.query(indices, consumer="other")
        assert service._breakers["other"].state == "closed"

    def test_breaker_disabled_propagates_runtime_errors(self):
        service = self._crashing_service(None)
        with pytest.raises(PartyUnavailableError):
            service.query(np.arange(4), consumer="adv")

    def test_breaker_rides_serving_fragments(self):
        service = self._crashing_service(2)
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError):
                service.query(np.arange(4), consumer="adv")
        fragments = service.serving_fragments()
        assert "breaker:adv" in fragments
        twin = self._crashing_service(2)
        twin.restore_serving_fragments(fragments)
        assert twin._breakers["adv"].state == service._breakers["adv"].state
        assert twin._breakers["adv"].failures == service._breakers["adv"].failures

    def test_breakerless_fragments_stay_legacy_shaped(self):
        vfl = deploy()
        service = PredictionService(vfl, runtime=FederationRuntime(vfl))
        assert not any(
            name.startswith("breaker:") or name == "resilience"
            for name in service.serving_fragments()
        )


class TestScenarioIntegration:
    def _storm_config(self, **overrides):
        kwargs = dict(
            dataset="bank",
            model="lr",
            attack="esa",
            target_fraction=0.4,
            scale=TINY,
            seed=11,
            topology=TopologyConfig(
                n_parties=3,
                faults=(("flaky", {"party": 1, "p": 0.7, "seed": 3}),),
            ),
            batch_size=16,
            retry={"max_attempts": 3, "backoff_base": 0.01},
            quorum=2 / 3,
            degradation="last_known",
        )
        kwargs.update(overrides)
        return ScenarioConfig(**kwargs)

    def test_default_reports_carry_empty_availability(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa", scale=TINY, seed=11
            )
        )
        assert report.availability == {}
        assert report.comm_cost["retries"] == 0
        payload = report.to_payload()
        assert payload["config"]["retry"] is None
        assert payload["availability"] == {}

    def test_storm_scenario_reports_availability(self):
        report = run_scenario(self._storm_config())
        assert report.availability["rounds_total"] > 0
        assert report.availability["retries"] > 0
        assert "mse" in report.metrics

    def test_storm_report_roundtrips(self):
        report = run_scenario(self._storm_config())
        from repro.api import ScenarioReport

        back = ScenarioReport.from_json(report.to_json())
        assert back.config == report.config
        assert back.availability == report.availability

    def test_legacy_payloads_default_the_new_knobs(self):
        report = run_scenario(self._storm_config())
        from repro.api import ScenarioReport

        payload = report.to_payload()
        for key in ("retry", "quorum", "degradation", "breaker"):
            del payload["config"][key]
        del payload["availability"]
        legacy = ScenarioReport.from_payload(payload)
        assert legacy.config.retry is None
        assert legacy.config.degradation == "zero_fill"
        assert legacy.availability == {}

    @pytest.fixture(scope="class")
    def prebuilt(self):
        return run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa", scale=TINY, seed=11
            )
        ).scenario

    @pytest.mark.parametrize(
        "knob",
        [
            {"query_budget": 10},
            {"batch_size": 4},
            {"cache": True},
            {"cache": True, "cache_size": 8},
            {"on_budget_exhausted": "truncate"},
            {"topology": TopologyConfig(n_parties=3)},
            {"comm_budget": 0.5},
            {"scheduler": "threaded"},
            {"retry": 3},
            {"quorum": 0.5},
            {"degradation": "last_known"},
            {"breaker": 2},
            {"telemetry": True},
        ],
        ids=lambda knob: list(knob)[-1],
    )
    def test_prebuilt_scenarios_reject_resilience_knobs(self, prebuilt, knob):
        config = ScenarioConfig(
            dataset="bank", model="lr", attack="esa", scale=TINY, seed=11, **knob
        )
        with pytest.raises(ScenarioError, match="prebuilt") as info:
            run_scenario(config, scenario=prebuilt)
        # The refusal names exactly the knobs that were set.
        named = re.search(r"knobs \(([^)]*)\)", str(info.value)).group(1)
        assert named.split(", ") == list(knob)

    @pytest.mark.parametrize(
        "knob",
        [
            {"quorum": 1.5},
            {"quorum": True},
            {"degradation": "interpolate"},
            {"retry": {"bogus": 1}},
            {"breaker": 0},
        ],
    )
    def test_config_validation_fails_early(self, knob):
        config = ScenarioConfig(
            dataset="bank", model="lr", attack="esa", scale=TINY, seed=11, **knob
        )
        with pytest.raises((ScenarioError, ValidationError)):
            run_scenario(config)

"""Tests for the results store and the parallel batch engine.

Covers the persistence contract (put/get, last-write-wins, reload from
disk), config-hash invalidation, cache hit/miss and resume-after-partial
flows, and serial-vs-parallel result equality on a smoke-scale grid.
"""

import dataclasses

import pytest

from repro.exceptions import ValidationError
from repro.experiments import (
    EXPERIMENT_SPECS,
    ResultsStore,
    RunSummary,
    ScaleConfig,
    TrialSpec,
    config_hash,
    get_experiment_spec,
    run_batch,
)
from repro.experiments.batch import _execute_unit

TINY = ScaleConfig(
    name="tiny",
    n_samples=200,
    n_predictions=80,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=5,
    mlp_hidden=(16,),
    mlp_epochs=2,
    rf_trees=4,
    grna_hidden=(24,),
    grna_epochs=3,
    distiller_hidden=(32,),
    distiller_dummy=200,
    distiller_epochs=2,
)


def _summary(**overrides):
    defaults = dict(
        experiment_id="fig5",
        unit_id="bank:40:t0",
        scale="tiny",
        seed=123,
        config_hash="abc123",
        payload={"esa_mse": 0.5, "exact": True},
        elapsed_s=0.1,
    )
    defaults.update(overrides)
    return RunSummary(**defaults)


class TestRunSummary:
    def test_json_roundtrip(self):
        summary = _summary(created_at="2026-01-01T00:00:00Z")
        assert RunSummary.from_json(summary.to_json()) == summary

    def test_from_json_ignores_unknown_fields(self):
        line = _summary().to_json().rstrip("}") + ', "future_field": 1}'
        assert RunSummary.from_json(line).unit_id == "bank:40:t0"

    def test_key(self):
        assert _summary().key == ("fig5", "tiny", "bank:40:t0", "abc123")


class TestResultsStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ResultsStore(tmp_path)
        stored = store.put(_summary())
        got = store.get("fig5", "tiny", "bank:40:t0", "abc123")
        assert got == stored
        assert got.created_at  # stamped on put

    def test_get_miss_returns_none(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.put(_summary())
        assert store.get("fig5", "tiny", "bank:40:t0", "other-hash") is None
        assert store.get("fig5", "smoke", "bank:40:t0", "abc123") is None
        assert store.get("fig6", "tiny", "bank:40:t0", "abc123") is None

    def test_persists_across_instances(self, tmp_path):
        ResultsStore(tmp_path).put(_summary())
        reopened = ResultsStore(tmp_path)
        assert reopened.get("fig5", "tiny", "bank:40:t0", "abc123") is not None
        assert len(reopened) == 1

    def test_last_write_wins(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.put(_summary(payload={"esa_mse": 0.5}))
        store.put(_summary(payload={"esa_mse": 0.7}))
        assert store.get("fig5", "tiny", "bank:40:t0", "abc123").payload == {
            "esa_mse": 0.7
        }
        # Re-reading from disk dedupes to the latest record too.
        assert len(ResultsStore(tmp_path).summaries("fig5")) == 1

    def test_iteration_and_experiments(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.put(_summary())
        store.put(_summary(experiment_id="fig6"))
        assert store.experiments() == ["fig5", "fig6"]
        assert len(list(store)) == 2

    def test_truncated_trailing_line_is_a_miss(self, tmp_path):
        # A SIGKILL mid-append leaves a partial JSON line; resume must
        # treat it as missing, not crash.
        store = ResultsStore(tmp_path)
        store.put(_summary())
        with (tmp_path / "fig5.jsonl").open("a") as fh:
            fh.write('{"experiment_id": "fig5", "trunc')
        reopened = ResultsStore(tmp_path)
        assert reopened.get("fig5", "tiny", "bank:40:t0", "abc123") is not None
        assert len(reopened) == 1

    def test_truncated_trailing_line_is_quarantined_and_repaired(self, tmp_path):
        # Crash-safety goes beyond tolerating the partial line: the torn
        # bytes move to a .partial sidecar and the store file is repaired
        # in place (atomically), so the damage cannot resurface.
        store = ResultsStore(tmp_path)
        store.put(_summary())
        path = tmp_path / "fig5.jsonl"
        with path.open("a") as fh:
            fh.write('{"experiment_id": "fig5", "trunc')
        assert len(ResultsStore(tmp_path)) == 1  # loading triggers the repair
        partial = path.with_name(path.name + ".partial")
        assert partial.exists() and "trunc" in partial.read_text()
        assert "trunc" not in path.read_text()
        # The repaired file loads cleanly and appends keep working.
        repaired = ResultsStore(tmp_path)
        assert len(repaired) == 1
        repaired.put(_summary(unit_id="bank:40:t1"))
        assert len(ResultsStore(tmp_path)) == 2

    def test_interior_bad_line_is_skipped_not_quarantined(self, tmp_path):
        # Only a *trailing* partial line is crash evidence; a bad line in
        # the middle of the file is corruption to skip, not to rewrite.
        store = ResultsStore(tmp_path)
        store.put(_summary())
        path = tmp_path / "fig5.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("not json\n" + "\n".join(lines) + "\n")
        reopened = ResultsStore(tmp_path)
        assert len(reopened) == 1
        assert not path.with_name(path.name + ".partial").exists()
        assert path.read_text().startswith("not json")

    def test_bit_flip_fuzz_recovers_every_untouched_line(self, tmp_path):
        # Every single-bit flip of a 2-record store: _load raises nothing
        # and keeps every record on a line the flip left alone. A flipped
        # newline merges its line with the next, touching both. Unit ids
        # two bits apart keep one flip from forging the other's key.
        records = [
            _summary(unit_id=unit, created_at="2026-01-01T00:00:00Z")
            for unit in ("bank:40:t0", "bank:40:t3")
        ]
        lines = [(record.to_json() + "\n").encode() for record in records]
        clean = b"".join(lines)
        path = tmp_path / "fig5.jsonl"
        for index in range(len(clean) * 8):
            position = index // 8
            damaged = bytearray(clean)
            damaged[position] ^= 1 << (index % 8)
            path.write_bytes(bytes(damaged))
            loaded = ResultsStore(tmp_path)._load("fig5")
            line = 0 if position < len(lines[0]) else 1
            touched = {line, line + 1} if clean[position] == ord("\n") else {line}
            for k, record in enumerate(records):
                if k not in touched:
                    assert loaded.get(record.key) == record, index

    def test_undecodable_lines_are_malformed_lines(self, tmp_path):
        record = _summary(created_at="2026-01-01T00:00:00Z")
        path = tmp_path / "fig5.jsonl"
        path.write_bytes(b"\xff\xfe{}\n" + (record.to_json() + "\n").encode() + b'{"a\xff')
        loaded = ResultsStore(tmp_path)._load("fig5")
        assert list(loaded.values()) == [record]
        # Interior: kept in place; trailing: quarantined byte for byte.
        assert path.read_bytes().startswith(b"\xff\xfe{}\n")
        assert path.with_name("fig5.jsonl.partial").read_bytes() == b'{"a\xff\n'

    def test_clear(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.put(_summary())
        store.put(_summary(experiment_id="fig6"))
        store.clear("fig5")
        assert store.experiments() == ["fig6"]
        store.clear()
        assert len(store) == 0


class TestConfigHash:
    def test_stable_for_same_inputs(self):
        unit = TrialSpec.make("fig5", "bank:40:t0", 1, dataset="bank", fraction=0.4)
        assert config_hash(TINY, unit) == config_hash(TINY, unit)

    def test_scale_change_invalidates(self):
        unit = TrialSpec.make("fig5", "bank:40:t0", 1, dataset="bank", fraction=0.4)
        retuned = dataclasses.replace(TINY, lr_epochs=TINY.lr_epochs + 1)
        assert config_hash(TINY, unit) != config_hash(retuned, unit)

    def test_params_change_invalidates(self):
        a = TrialSpec.make("fig5", "bank:40:t0", 1, dataset="bank", fraction=0.4)
        b = TrialSpec.make("fig5", "bank:40:t0", 1, dataset="bank", fraction=0.2)
        assert config_hash(TINY, a) != config_hash(TINY, b)

    def test_colliding_unit_ids_rejected(self):
        # Fractions that round to the same display percent must not let
        # one cell silently overwrite another in the results dict.
        from repro.experiments.spec import ensure_unique_unit_ids

        a = TrialSpec.make("fig9", "drive:40:p33:t0", 1, pool_fraction=0.333)
        b = TrialSpec.make("fig9", "drive:40:p33:t0", 1, pool_fraction=0.334)
        with pytest.raises(ValidationError, match="duplicate unit id"):
            ensure_unique_unit_ids([a, b])
        # Exact duplicates (e.g. a dataset listed twice) also collide: they
        # would merge into one double-weighted aggregation group.
        with pytest.raises(ValidationError, match="duplicate unit id"):
            ensure_unique_unit_ids([a, a])

    def test_seed_not_part_of_hash(self):
        # The seed is keyed separately (it lives in the unit id / record).
        a = TrialSpec.make("fig5", "bank:40:t0", 1, dataset="bank", fraction=0.4)
        b = TrialSpec.make("fig5", "bank:40:t1", 2, dataset="bank", fraction=0.4)
        assert config_hash(TINY, a) == config_hash(TINY, b)


def _sabotaged(experiment_id):
    """A copy of the registered spec whose run_unit always fails."""

    def boom(spec, scale):
        raise AssertionError(f"run_unit called for {spec.unit_id}")

    return dataclasses.replace(get_experiment_spec(experiment_id), run_unit=boom)


def _counting_spec(original, counter):
    """A copy of ``original`` whose run_unit counts invocations."""

    def counted(spec, scale):
        counter.append(spec.unit_id)
        return original.run_unit(spec, scale)

    return dataclasses.replace(original, run_unit=counted)


def _counting(experiment_id, counter):
    """A copy of the registered spec whose run_unit counts invocations."""
    return _counting_spec(get_experiment_spec(experiment_id), counter)


class TestCacheFlow:
    def test_second_run_is_pure_cache_hit(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        first = run_batch("fig5", TINY, store=store)
        monkeypatch.setitem(EXPERIMENT_SPECS, "fig5", _sabotaged("fig5"))
        second = run_batch("fig5", TINY, store=store)
        assert second.rows == first.rows
        assert second.columns == first.columns

    def test_force_recomputes(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        run_batch("fig5", TINY, store=store)
        monkeypatch.setitem(EXPERIMENT_SPECS, "fig5", _sabotaged("fig5"))
        with pytest.raises(AssertionError, match="run_unit called"):
            run_batch("fig5", TINY, store=store, force=True)

    def test_resume_after_partial_run(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        experiment = get_experiment_spec("fig5")
        units = experiment.trial_units(TINY)
        assert len(units) == 4  # one per dataset at this scale
        # Simulate an interrupted run: only the first two units persisted.
        for unit in units[:2]:
            store.put(
                RunSummary(
                    experiment_id="fig5",
                    unit_id=unit.unit_id,
                    scale=TINY.name,
                    seed=unit.seed,
                    config_hash=config_hash(TINY, unit),
                    payload=experiment.run_unit(unit, TINY),
                )
            )
        calls = []
        monkeypatch.setitem(EXPERIMENT_SPECS, "fig5", _counting("fig5", calls))
        result = run_batch("fig5", TINY, store=store)
        assert sorted(calls) == sorted(u.unit_id for u in units[2:])
        assert len(result.rows) == len(TINY.fractions) * 4

    def test_scale_change_misses_cache(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path)
        run_batch("fig5", TINY, store=store)
        calls = []
        monkeypatch.setitem(EXPERIMENT_SPECS, "fig5", _counting("fig5", calls))
        retuned = dataclasses.replace(TINY, lr_epochs=TINY.lr_epochs + 1)
        run_batch("fig5", retuned, store=store)
        assert len(calls) == 4  # nothing served from the TINY cache

    def test_seed_schedule_change_misses_cache(self, tmp_path, monkeypatch):
        # unit ids and config hashes survive a master-seed change; the
        # recorded per-unit seed must act as the staleness check.
        store = ResultsStore(tmp_path)
        run_batch("fig5", TINY, store=store)
        reseeded = dataclasses.replace(get_experiment_spec("fig5"), seed=99)
        calls = []
        monkeypatch.setitem(
            EXPERIMENT_SPECS, "fig5", _counting_spec(reseeded, calls)
        )
        run_batch("fig5", TINY, store=store)
        assert len(calls) == 4  # every unit recomputed under the new seeds

    def test_store_accepts_path(self, tmp_path):
        result = run_batch("fig5", TINY, store=str(tmp_path))
        assert (tmp_path / "fig5.jsonl").exists()
        assert len(result.rows) == 4

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValidationError):
            run_batch("fig5", TINY, jobs=0)


class TestSerialParallelEquality:
    def test_jobs2_matches_jobs1(self, tmp_path):
        serial = run_batch("fig5", TINY, jobs=1)
        parallel = run_batch("fig5", TINY, jobs=2, store=ResultsStore(tmp_path))
        assert serial.columns == parallel.columns
        assert serial.rows == parallel.rows

    def test_batch_matches_classic_runner(self):
        from repro.experiments import fig5_esa

        assert run_batch("fig5", TINY).rows == fig5_esa(TINY).rows

    def test_worker_entry_point_roundtrip(self):
        # What a pool worker executes, without the pool.
        experiment = get_experiment_spec("fig5")
        unit = experiment.trial_units(TINY)[0]
        payload, elapsed = _execute_unit("fig5", unit, TINY)
        assert payload == experiment.run_unit(unit, TINY)
        assert elapsed >= 0.0


class TestCli:
    def test_all_runs_through_one_store(self, tmp_path, capsys, monkeypatch):
        from repro.experiments import runner

        picked = {key: runner.EXPERIMENTS[key] for key in ("table2", "fig5")}
        monkeypatch.setattr(runner, "EXPERIMENTS", picked)
        assert runner.main(["all", "--scale", "smoke", "--store-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.index("== table2:") < out.index("== fig5:")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fig5.jsonl", "table2.jsonl"]

    def test_store_and_jobs_flags(self, tmp_path, capsys):
        from repro.experiments.runner import main

        store_dir = tmp_path / "store"
        assert main(["table2", "--scale", "smoke", "--jobs", "2",
                     "--store-dir", str(store_dir)]) == 0
        first = capsys.readouterr().out
        assert "bank" in first
        assert (store_dir / "table2.jsonl").exists()
        # Second invocation serves from the store and prints the same table.
        assert main(["table2", "--scale", "smoke", "--jobs", "2",
                     "--store-dir", str(store_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_jobs_must_be_positive(self, capsys):
        from repro.experiments.runner import main

        with pytest.raises(SystemExit):
            main(["table2", "--jobs", "0"])
        capsys.readouterr()


#: Per-part offsets of the shard-mechanics fixture.
_OFFSETS = {"a": 1, "b": 2}


def _shard_run_unit(spec, scale):
    return {part: spec.kwargs["base"] + _OFFSETS[part] for part in spec.kwargs["parts"]}


def _shardy():
    from repro.experiments.spec import Axis, ExperimentSpec

    return ExperimentSpec(
        "shardy",
        title="shard mechanics fixture",
        grid=(Axis(("unit", "base"), (("u0", 10), ("u1", 20))),),
        unit_id="{unit}",
        run_unit=_shard_run_unit,
        columns=(("unit", lambda params, payloads: params["unit"]), "a", "b"),
        seed=100,
        trials=1,
        shard=Axis("parts", ("a", "b"), "parts"),
    )


class TestShardedUnits:
    """An ExperimentSpec ``shard`` axis: resume inside one unit."""

    @pytest.fixture()
    def shardy(self, monkeypatch):
        from repro.experiments.spec import EXPERIMENT_SPECS

        spec = _shardy()
        monkeypatch.setitem(EXPERIMENT_SPECS, "shardy", spec)
        return spec

    def test_storeless_run_matches_unsharded_payloads(self, shardy):
        unsharded = {
            unit.unit_id: _shard_run_unit(unit, TINY) for unit in shardy.trial_units(TINY)
        }
        assert unsharded == {"u0": {"a": 11, "b": 12}, "u1": {"a": 21, "b": 22}}
        result = run_batch("shardy", TINY)
        assert result.rows == [("u0", 11.0, 12.0), ("u1", 21.0, 22.0)]

    def test_shards_cache_and_merge(self, shardy, tmp_path):
        lines = []
        baseline = run_batch("shardy", TINY)
        store = ResultsStore(tmp_path)
        first = run_batch("shardy", TINY, store=store, on_progress=lines.append)
        assert first.rows == baseline.rows
        assert "shards: 4 expanded, 0 cached, 4 to run" in lines[-1]
        # Both shard records and merged unit records are persisted.
        ids = {s.unit_id for s in store.summaries("shardy")}
        assert ids == {"u0", "u1", "u0@a", "u0@b", "u1@a", "u1@b"}

        second = run_batch(
            "shardy", TINY, store=ResultsStore(tmp_path), on_progress=lines.append
        )
        assert second.rows == baseline.rows
        assert "0 to run" in lines[-1]

    def test_kill_between_shards_and_merge_reruns_nothing(self, shardy, tmp_path):
        """Unit records lost, shard records kept: everything cache-hits."""
        import json

        baseline = run_batch("shardy", TINY)
        store = ResultsStore(tmp_path)
        run_batch("shardy", TINY, store=store)
        for path in tmp_path.glob("*.jsonl"):
            kept = [
                line
                for line in path.read_text().splitlines()
                if "@" in json.loads(line)["unit_id"]
            ]
            path.write_text("".join(line + "\n" for line in kept))
        lines = []
        resumed = run_batch(
            "shardy", TINY, store=ResultsStore(tmp_path), on_progress=lines.append
        )
        assert resumed.rows == baseline.rows
        assert lines[-1].endswith("0 to run"), lines[-1]

    def test_fig7_sharded_equals_unsharded_bit_identical(self, tmp_path):
        """The real consumer: fig7 shards per model kind, merges per unit."""
        from repro.experiments.figures import fig7_grna, fig7_run_unit

        lines = []
        # The unsharded protocol: every unit runs all three models at once.
        units = fig7_grna.trial_units(TINY)
        baseline = fig7_grna.aggregate(
            TINY, units, {unit.unit_id: fig7_run_unit(unit, TINY) for unit in units}
        )
        first = run_batch(
            "fig7", TINY, store=ResultsStore(tmp_path), on_progress=lines.append
        )
        assert first.rows == baseline.rows
        assert "shards:" in lines[-1]
        second = run_batch(
            "fig7", TINY, store=ResultsStore(tmp_path), on_progress=lines.append
        )
        assert second.rows == baseline.rows
        assert "0 to run" in lines[-1]

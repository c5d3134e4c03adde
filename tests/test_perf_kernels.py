"""Vectorized-kernel oracles: every fast path is bit-identical to its seed.

The perf PR rewrote the model-layer hot loops (tree predict/fit, forest
voting, PRA restriction, GRNA's training loss, the optimizer steps) as
vectorized/fused kernels; the seed implementations are the references
in ``reference.py`` (``tree_predict``, ``tree_fit``,
``forest_predict_proba``, ``pra_restrict``, ``grna_prediction_loss``,
``adam_step``). These tests
pin the contract that made that rewrite safe: on randomized trees,
inputs, and training runs, fast and slow agree to the bit — ``==`` on
every float, never ``allclose``.
"""

import importlib.util
import json
import os
from pathlib import Path
from types import MethodType

import numpy as np
import pytest
import reference

from repro.attacks.grna import GenerativeRegressionNetwork
from repro.attacks.pra import PathRestrictionAttack
from repro.datasets import load_dataset
from repro.federated import FeaturePartition, train_vertical_model
from repro.models.forest import RandomForestClassifier
from repro.models.mlp import MLPClassifier
from repro.models.tree import DecisionTreeClassifier
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, assemble_columns, concat


def _random_problem(trial: int):
    """Randomized dataset; every third trial quantizes features to force ties."""
    rng = np.random.default_rng(trial)
    m = int(rng.integers(5, 400))
    d = int(rng.integers(2, 12))
    c = int(rng.integers(2, 5))
    X = rng.random((m, d))
    if trial % 3 == 0:
        X = np.round(X, 1)
    y = rng.integers(0, c, size=m)
    return rng, X, y


def _structures_equal(a, b) -> bool:
    return (
        a.depth == b.depth
        and (a.exists == b.exists).all()
        and (a.is_leaf == b.is_leaf).all()
        and (a.feature == b.feature).all()
        and np.array_equal(a.threshold, b.threshold, equal_nan=True)
        and (a.leaf_label == b.leaf_label).all()
    )


class TestTreeKernels:
    """Vectorized tree predict/fit == the retained per-sample/per-feature seed."""

    @pytest.mark.parametrize("trial", range(12))
    def test_fast_split_grows_node_for_node_identical_trees(self, trial):
        rng, X, y = _random_problem(trial)
        if np.unique(y).size < 2:
            pytest.skip("degenerate label draw")
        kwargs = dict(
            max_depth=int(rng.integers(1, 8)),
            min_samples_leaf=int(rng.integers(1, 4)),
            criterion=["gini", "entropy"][trial % 2],
            max_features=[None, "sqrt", max(1, X.shape[1] // 2)][trial % 3],
        )
        fast = DecisionTreeClassifier(rng=42, **kwargs).fit(X, y)
        slow = DecisionTreeClassifier(rng=42, **kwargs)
        reference.tree_fit(slow, X, y)
        assert _structures_equal(fast.tree_structure(), slow.tree_structure())

    @pytest.mark.parametrize("trial", range(12))
    def test_vectorized_predict_equals_slow_reference(self, trial):
        rng, X, y = _random_problem(trial)
        if np.unique(y).size < 2:
            pytest.skip("degenerate label draw")
        tree = DecisionTreeClassifier(max_depth=int(rng.integers(1, 8)), rng=0).fit(X, y)
        # Mix fresh draws with exact training rows (threshold boundary hits).
        Xq = np.vstack([rng.random((64, X.shape[1])), X[: min(40, X.shape[0])]])
        assert (tree.predict(Xq) == reference.tree_predict(tree, Xq)).all()

    def test_predict_proba_single_pass_matches_one_hot_of_predict(self):
        rng, X, y = _random_problem(1)
        tree = DecisionTreeClassifier(max_depth=5, rng=0).fit(X, y)
        Xq = rng.random((100, X.shape[1]))
        proba = tree.predict_proba(Xq)
        labels = tree.predict(Xq)
        assert proba.shape == (100, tree.n_classes_)
        assert (proba.argmax(axis=1) == labels).all()
        assert (proba.sum(axis=1) == 1.0).all()

    @pytest.mark.parametrize("trial", range(6))
    def test_forest_vote_kernel_equals_slow_reference(self, trial):
        rng, X, y = _random_problem(trial + 20)
        if np.unique(y).size < 2:
            pytest.skip("degenerate label draw")
        forest = RandomForestClassifier(
            n_trees=10, max_depth=int(rng.integers(1, 5)), rng=7
        ).fit(X, y)
        Xq = np.vstack([rng.random((80, X.shape[1])), X[: min(30, X.shape[0])]])
        fast = forest.predict_proba(Xq)
        slow = reference.forest_predict_proba(forest, Xq)
        assert (fast == slow).all()

    def test_flat_cache_invalidated_on_refit(self):
        rng = np.random.default_rng(0)
        X, y = rng.random((80, 4)), rng.integers(0, 2, 80)
        tree = DecisionTreeClassifier(max_depth=3, rng=0).fit(X, y)
        tree.predict(X)  # populate the cache
        X2, y2 = rng.random((80, 4)), rng.integers(0, 2, 80)
        tree.fit(X2, y2)
        assert (tree.predict(X2) == reference.tree_predict(tree, X2)).all()


class TestOptimizerKernels:
    """Scratch-buffer steps == the retained allocating seed formulas."""

    def test_adam_fast_step_bitwise_equals_reference(self):
        rng = np.random.default_rng(0)
        shapes = [(20, 12), (12,), (3, 5)]
        fast_params = [Parameter(rng.normal(size=s)) for s in shapes]
        slow_params = [Parameter(p.data.copy()) for p in fast_params]
        fast, slow = Adam(fast_params, lr=2e-3), Adam(slow_params, lr=2e-3)
        slow.step = MethodType(reference.adam_step, slow)
        for _ in range(40):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(fast_params, grads):
                p.grad = g.copy()
            for p, g in zip(slow_params, grads):
                p.grad = g.copy()
            fast.step()
            slow.step()
        for p, q in zip(fast_params, slow_params):
            assert (p.data == q.data).all()

    def test_sgd_momentum_step_bitwise_equals_seed_formula(self):
        rng = np.random.default_rng(1)
        param = Parameter(rng.normal(size=(10, 4)))
        reference = param.data.copy()
        velocity = np.zeros_like(reference)
        optimizer = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(30):
            grad = rng.normal(size=(10, 4))
            param.grad = grad.copy()
            optimizer.step()
            velocity *= 0.9
            velocity += grad
            reference = reference - 0.05 * velocity
            assert (param.data == reference).all()


class TestFusedTensorOps:
    """assemble_columns and the fused reductions == their compositions."""

    def test_assemble_columns_forward_and_gradient(self):
        rng = np.random.default_rng(0)
        m, d_adv, d_target = 9, 3, 4
        x_adv = rng.random((m, d_adv))
        perm = np.argsort(np.concatenate([np.array([0, 2, 5]), np.array([1, 3, 4, 6])]))
        inv = np.argsort(perm)
        weights = rng.normal(size=(d_adv + d_target, 2))

        ref_hat = Tensor(rng.random((m, d_target)), requires_grad=True)
        ref_out = concat([Tensor(x_adv), ref_hat], axis=1)[:, perm] @ Tensor(weights)
        ref_out.sum().backward()

        fast_hat = Tensor(ref_hat.data.copy(), requires_grad=True)
        fast_full = assemble_columns(x_adv, fast_hat, inv[:d_adv], inv[d_adv:])
        # The fused scatter must preserve the gather's column-major layout:
        # BLAS reassociates by operand order, so a C-ordered buffer here
        # would flip downstream matmul bits.
        assert fast_full.data.flags["F_CONTIGUOUS"]
        (fast_full @ Tensor(weights)).sum().backward()

        ref_full = concat([Tensor(x_adv), ref_hat], axis=1)[:, perm]
        assert (ref_full.data == fast_full.data).all()
        assert (ref_hat.grad == fast_hat.grad).all()

    def test_fused_mse_value_and_gradient(self):
        rng = np.random.default_rng(2)
        prediction = rng.random((16, 3))
        target = rng.random((16, 3))
        a = Tensor(prediction, requires_grad=True)
        F.mse_loss(a, Tensor(target)).backward()
        b = Tensor(prediction, requires_grad=True)
        loss = F.fused_mse_loss(b, target)
        loss.backward()
        assert loss.item() == F.mse_loss(Tensor(prediction), Tensor(target)).item()
        assert (a.grad == b.grad).all()

    def test_hinged_variance_penalty_value_and_gradient(self):
        rng = np.random.default_rng(3)
        data = rng.random((32, 5)) * 2.0  # variance straddles the threshold
        a = Tensor(data, requires_grad=True)
        ((a.var(axis=0) - 1.0 / 12.0).relu().mean() * 0.7).backward()
        b = Tensor(data, requires_grad=True)
        penalty = F.hinged_variance_penalty(b, 1.0 / 12.0, 0.7)
        penalty.backward()
        reference = ((Tensor(data).var(axis=0) - 1.0 / 12.0).relu().mean() * 0.7).item()
        assert penalty.item() == reference
        assert (a.grad == b.grad).all()


def _train_grna(model, view, X_adv, V, fast, **overrides):
    kwargs = dict(hidden_sizes=(24,), epochs=3, batch_size=32, rng=7)
    kwargs.update(overrides)
    attack = GenerativeRegressionNetwork(model, view, **kwargs)
    if not fast:
        attack._prediction_loss = MethodType(reference.grna_prediction_loss, attack)
    result = attack.run(X_adv, V)
    if attack.use_generator:
        state = attack.generator_.state_dict()
    else:
        state = {"direct": attack._direct_estimate.data.copy()}
    return result.x_target_hat, list(attack.loss_history_), state


@pytest.fixture(scope="module")
def small_deployments():
    deployments = {}
    dataset = load_dataset("bank", n_samples=240, rng=0)
    partition = FeaturePartition.adversary_target(dataset.n_features, 0.4, rng=0)
    for kind, model in (
        ("nn", MLPClassifier(hidden_sizes=(16,), epochs=2, rng=0)),
    ):
        vfl = train_vertical_model(
            model,
            dataset.X[:120],
            dataset.y[:120],
            dataset.X[120:],
            dataset.y[120:],
            partition,
        )
        deployments[kind] = (
            vfl.model,
            partition.adversary_view(),
            vfl.adversary_features()[:60],
            vfl.predict(np.arange(60)),
        )
    return deployments


class TestGrnaFastLossOracle:
    """Fast-math GRNA training is byte-identical to the seed loss graph."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"variance_penalty": 0.0},
            {"use_generator": False},
            {"use_noise": False},
            {"use_adv_input": False},
            {"optimizer": "sgd"},
        ],
        ids=["default", "no-penalty", "direct", "no-noise", "no-adv", "sgd"],
    )
    def test_fused_training_bitwise_equals_reference(self, small_deployments, overrides):
        model, view, X_adv, V = small_deployments["nn"]
        fast = _train_grna(model, view, X_adv, V, fast=True, **overrides)
        slow = _train_grna(model, view, X_adv, V, fast=False, **overrides)
        assert (fast[0] == slow[0]).all()
        assert fast[1] == slow[1]
        assert set(fast[2]) == set(slow[2])
        for key, value in fast[2].items():
            assert (value == slow[2][key]).all()


class TestPraKernels:
    """Vectorized restriction == the retained per-node BFS, intervals included."""

    @pytest.mark.parametrize("trial", range(8))
    def test_restrict_and_batch_equal_slow_reference(self, trial):
        rng, X, y = _random_problem(trial + 40)
        if np.unique(y).size < 2:
            pytest.skip("degenerate label draw")
        d = X.shape[1]
        tree = DecisionTreeClassifier(max_depth=int(rng.integers(1, 7)), rng=5).fit(X, y)
        view = FeaturePartition.adversary_target(
            d, float(rng.uniform(0.2, 0.8)), rng=trial
        ).adversary_view()
        attack = PathRestrictionAttack(tree.tree_structure(), view)
        Xq = rng.random((20, d))
        labels = tree.predict(Xq)
        X_adv = Xq[:, view.adversary_indices]
        batch = attack.restrict_batch(X_adv, labels)
        assert batch.shape == (Xq.shape[0], attack.structure.n_nodes)
        assert batch.dtype == np.int8
        for i in range(Xq.shape[0]):
            slow = reference.pra_restrict(attack, X_adv[i], int(labels[i]))
            assert slow.dtype == np.int8
            assert (batch[i] == slow).all()
            # A one-row pool is the same restriction.
            assert (attack.restrict_batch(X_adv[i], labels[i : i + 1])[0] == slow).all()

    def test_cached_paths_and_intervals_are_fresh_and_identical(self):
        rng, X, y = _random_problem(2)
        tree = DecisionTreeClassifier(max_depth=4, rng=5).fit(X, y)
        view = FeaturePartition.adversary_target(X.shape[1], 0.4, rng=0).adversary_view()
        attack = PathRestrictionAttack(tree.tree_structure(), view)
        x = rng.random(X.shape[1])
        label = tree.predict(x[None, :])
        leaf = int(np.flatnonzero(attack.restrict_batch(x[None, view.adversary_indices], label))[0])
        first = attack.cached_path(leaf)
        second = attack.cached_path(leaf)
        assert first == second == tree.tree_structure().path_to(leaf)
        assert first is not second
        intervals_a = attack.infer_intervals(first)
        intervals_b = attack.infer_intervals(first)
        assert intervals_a == intervals_b and intervals_a is not intervals_b


def _load_gates():
    """``benchmarks/`` is not a package: load the runner from its file."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "gates.py"
    spec = importlib.util.spec_from_file_location("gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def gates():
    return _load_gates()


def _stub_interleave(gates, monkeypatch, seconds):
    """Replace the timing routine: every arm still runs once, but the
    replays report ``seconds[arm]`` (one value per replay)."""

    def interleave(arms):
        for arm in arms.values():
            arm()
        return {name: np.asarray(seconds[name], dtype=float) for name in arms}

    monkeypatch.setattr(gates, "interleave", interleave)


class TestBenchHarness:
    """benchmarks/gates.py writes one summary schema and gates each case.

    Real timings are gated by ``make bench-smoke``; these tests stub the
    timing routine, so the verdicts are exact.
    """

    def _storm_run(self, gates, monkeypatch, tmp_path, storm_seconds):
        _stub_interleave(
            gates, monkeypatch, {"fault-free": [1.0] * 5, "storm": storm_seconds}
        )
        monkeypatch.setattr(gates, "GROUPS", [gates.storm_gates])
        out = tmp_path / "summary.json"
        code = gates.main(["--tiny", "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_run_bench_summary_schema(self, gates, monkeypatch, tmp_path):
        code, summary = self._storm_run(
            gates, monkeypatch, tmp_path, [10.0, 11.0, 11.5, 12.0, 30.0]
        )
        assert code == 0
        assert summary["scale"] == "tiny" and summary["replays"] == gates.REPLAYS >= 5
        assert {"platform", "python", "numpy", "cpus"} <= set(summary["machine"])
        assert summary["machine"]["cpus"] == os.cpu_count()
        # The median ignores the one slow replay; the IQR reports the spread.
        assert summary["cases"] == {
            "storm.sequential_overhead": {
                "median": 11.5, "iqr": 1.0, "bound": 12.0, "op": "<=", "pass": True,
                "arm_median_s": {"storm": 11.5, "fault-free": 1.0},
            }
        }
        assert summary["pass"] is True

    def test_cli_smoke_gate_roundtrip(self, gates, monkeypatch, tmp_path):
        code, summary = self._storm_run(gates, monkeypatch, tmp_path, [12.0] * 5)
        assert code == 0 and summary["pass"]
        code, summary = self._storm_run(gates, monkeypatch, tmp_path, [12.5] * 5)
        assert code == 1 and not summary["pass"]
        assert summary["cases"]["storm.sequential_overhead"]["pass"] is False

    def test_regression_gate_flags_and_passes(self, gates, monkeypatch, tmp_path):
        """Kernel speedups are gated against the committed baseline / 1.5;
        a kernel the baseline gates but the run lacks fails."""
        baseline = tmp_path / "BENCH_smoke.json"
        monkeypatch.setattr(gates, "KERNEL_BASELINE", baseline)
        monkeypatch.setattr(
            gates, "KERNELS", {"k": lambda sizes: (lambda: None, lambda: None)}
        )
        _stub_interleave(gates, monkeypatch, {"fast": [0.001] * 5, "slow": [0.010] * 5})

        def cases(reference):
            baseline.write_text(json.dumps({"kernels": reference}))
            return gates.kernel_gates("tiny")

        live = cases({"k": {"speedup": 14.0}, "skipped": {"speedup": None}})
        assert live["kernel.k"]["median"] == pytest.approx(10.0)
        assert live["kernel.k"]["pass"] and set(live) == {"kernel.k"}
        assert not cases({"k": {"speedup": 15.1}})["kernel.k"]["pass"]
        missing = cases({"k": {"speedup": 9.0}, "gone": {"speedup": 2.0}})
        assert missing["kernel.gone"] == {
            "median": None, "iqr": None, "bound": 2.0 / 1.5, "op": ">=", "pass": False,
        }

    def test_cli_refuses_to_clobber_its_own_baseline(self, gates, monkeypatch, tmp_path):
        baseline = tmp_path.resolve() / "BENCH_smoke.json"
        baseline.write_text("{}")
        monkeypatch.setattr(gates, "KERNEL_BASELINE", baseline)
        monkeypatch.setattr(gates, "GROUPS", [])
        monkeypatch.chdir(tmp_path)
        assert gates.main(["--tiny", "--out", "BENCH_smoke.json"]) == 1
        assert gates.main(["--out", str(baseline)]) == 1
        assert baseline.read_text() == "{}"

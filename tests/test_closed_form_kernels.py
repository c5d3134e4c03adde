"""Closed-form cell kernels: tree and LR fitting, and one-pass path CBR.

Presorted growth sorts every column once per fit and filters the sorted
blocks down the recursion; it must grow the same tree, node for node and
bit for bit, as the seed oracle (``reference.tree_fit``: a per-node
sort and per-feature scan), and consume the same random stream. The
tie-checked presort must equal the stable argsort, and the integer
class-count workspace must stay exact. The gini screen may drop a split
position only when it cannot attain its row's float maximum gain. The
lean logistic-regression loops must fit the bits, and leave the
generator in the state, of the allocating reference loops.
``path_cbr_batch`` must equal the summed per-path ``path_cbr`` counts,
the vectorized random-path draw must equal one ``random_path`` draw per
row, and PRA's one-call path choice must equal one ``rng.choice`` per
row.
"""

import re

import numpy as np
import pytest
import reference

import repro.api.attacks as api_attacks
import repro.models.tree as tree_module
from repro.api import ATTACKS
from repro.attacks import random_path
from repro.datasets.synthetic import _rank_transform_marginals
from repro.exceptions import ValidationError
from repro.federated import FeaturePartition
from repro.metrics import (
    path_cbr,
    path_cbr_batch,
    reconstruction_cbr,
    reconstruction_cbr_batch,
)
from repro.models.forest import RandomForestClassifier
from repro.models.logistic import LogisticRegression
from repro.models.tree import (
    DecisionTreeClassifier,
    _class_sum,
    _count_dtype,
    _gini_candidates,
    _presort,
    _weighted_impurity,
    gini_impurity,
)
from repro.utils.numeric import one_hot
from repro.utils.random import spawn_rngs


def _nodes_equal(a, b) -> bool:
    """Recursive node-for-node equality; thresholds compared bitwise."""
    if (a.label, a.n_samples, a.depth, a.feature) != (b.label, b.n_samples, b.depth, b.feature):
        return False
    if np.float64(a.threshold).view(np.int64) != np.float64(b.threshold).view(np.int64):
        return False
    if a.is_leaf or b.is_leaf:
        return a.is_leaf and b.is_leaf
    return _nodes_equal(a.left, b.left) and _nodes_equal(a.right, b.right)


def _structures_equal(a, b) -> bool:
    return (
        a.depth == b.depth
        and (a.exists == b.exists).all()
        and (a.is_leaf == b.is_leaf).all()
        and (a.feature == b.feature).all()
        # NaN padding: compare bit patterns, array_equal is False on NaN.
        and (a.threshold.view(np.int64) == b.threshold.view(np.int64)).all()
        and (a.leaf_label == b.leaf_label).all()
    )


def _growth_problem(trial: int):
    """Random fit problem spanning the knobs presorted growth must honour."""
    rng = np.random.default_rng(1000 + trial)
    c = (2, 5, 11)[trial % 3]
    # Half the problems put the root (and its first children) above 512
    # rows, the size where the retired per-node kernel switched paths.
    m = int(rng.integers(600, 1400)) if trial % 2 else int(rng.integers(20, 500))
    d = int(rng.integers(2, 14))
    X = rng.random((m, d))
    if trial % 4 == 0:
        X = np.round(X, 1)  # heavy duplicates: ties break by row position
    if trial % 5 == 0:
        X = X[rng.integers(0, m, size=m)]  # bootstrap rows: exact duplicates
    y = rng.integers(0, c, size=m)
    y[:c] = np.arange(c)  # every class present
    kwargs = dict(
        max_depth=int(rng.integers(1, 9)),
        min_samples_leaf=(1, 2, 7)[(trial // 4) % 3],
        criterion=("gini", "entropy")[(trial // 3) % 2],
        max_features=(None, "sqrt", max(1, d // 2))[(trial // 2) % 3],
    )
    return X, y, kwargs


class TestPresortedGrowth:
    @pytest.mark.parametrize("trial", range(24))
    def test_matches_oracle_node_for_node(self, trial):
        X, y, kwargs = _growth_problem(trial)
        fast = DecisionTreeClassifier(rng=trial, **kwargs)
        slow = DecisionTreeClassifier(rng=trial, **kwargs)
        fast.fit(X, y)
        reference.tree_fit(slow, X, y)
        assert _nodes_equal(fast.root_, slow.root_)
        assert _structures_equal(fast.tree_structure(), slow.tree_structure())
        # Same per-node feature draws, in the same order.
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state

    def test_covers_both_sides_of_the_old_crossover(self):
        sizes = set()
        for trial in range(24):
            X, y, kwargs = _growth_problem(trial)
            tree = DecisionTreeClassifier(rng=0, **kwargs).fit(X, y)
            stack = [tree.root_]
            while stack:
                node = stack.pop()
                if not node.is_leaf:
                    sizes.add(node.n_samples >= 512)
                    stack += [node.left, node.right]
        assert sizes == {True, False}

    def test_forest_trees_match_oracle(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = np.round(rng.random((700, 9)), 2)
        y = rng.integers(0, 3, size=700)
        kwargs = dict(n_trees=4, max_depth=6, max_features="sqrt", min_samples_leaf=2)
        fast = RandomForestClassifier(rng=3, **kwargs).fit(X, y)
        monkeypatch.setattr(DecisionTreeClassifier, "fit", reference.tree_fit)
        slow = RandomForestClassifier(rng=3, **kwargs).fit(X, y)
        for a, b in zip(fast.trees_, slow.trees_):
            assert _nodes_equal(a.root_, b.root_)

    @pytest.mark.parametrize("c", [1, 2, 3, 7, 8, 9, 11, 16, 17, 40, 128, 129])
    def test_class_sum_adds_in_numpy_reduction_order(self, c):
        rng = np.random.default_rng(c)
        # Magnitudes spread over 16 decades make every association visible.
        rows = rng.random((5, 37, c)) * 10.0 ** rng.integers(-8, 9, size=(5, 37, c))
        expected = rows.sum(axis=-1)
        got = _class_sum(np.ascontiguousarray(np.moveaxis(rows, -1, 0)))
        assert (got.view(np.int64) == expected.view(np.int64)).all()


def _mirrored_labels(rng, m: int, c: int) -> np.ndarray:
    """A length-``m`` label palindrome.

    Splits ``i`` and ``m - 2 - i`` swap the left and right class counts,
    so their gains are equal; every maximum of a row has a twin.
    """
    head = rng.integers(0, c, size=m // 2)
    return np.concatenate([head, rng.integers(0, c, size=m % 2), head[::-1]])


def _screen_problem(trial: int, c: int):
    """Fit problem for the screen: mirrored labels, value ties, ``c`` classes."""
    rng = np.random.default_rng(7000 + trial)
    m = int(rng.integers(60, 700))
    d = int(rng.integers(2, 12))
    X = rng.random((m, d))
    if trial % 3 == 0:
        X = np.round(X, 1)  # heavy value ties: most positions are inadmissible
    if trial % 2 == 0:
        # Column 0 ascends while the labels mirror around the middle, so
        # splits i and m-2-i have the same real gain.
        X[:, 0] = np.arange(m) / m
        y = _mirrored_labels(rng, m, c)
    else:
        y = rng.integers(0, c, size=m)
    y[0] = y[-1] = c - 1  # c classes wide, and still a palindrome
    kwargs = dict(
        max_depth=int(rng.integers(2, 8)),
        min_samples_leaf=(1, 3, 9)[trial % 3],
        max_features=(None, "sqrt")[(trial // 2) % 2],
    )
    return X, y, kwargs


class TestGiniScreen:
    """The two-phase gini split search grows the oracle's trees, bit for bit."""

    @pytest.mark.parametrize("c", [2, 3, 5, 11, 20, 129])
    @pytest.mark.parametrize("trial", range(6))
    def test_screened_growth_matches_oracle(self, c, trial, monkeypatch):
        # Screen every node, not only the large ones, so the small and
        # mirrored nodes deep in the tree go through it as well.
        monkeypatch.setattr(tree_module, "_SCREEN_MIN_WORK", 0)
        X, y, kwargs = _screen_problem(trial, c)
        fast = DecisionTreeClassifier(rng=trial, **kwargs).fit(X, y)
        slow = DecisionTreeClassifier(rng=trial, **kwargs)
        reference.tree_fit(slow, X, y)
        assert _nodes_equal(fast.root_, slow.root_)
        assert _structures_equal(fast.tree_structure(), slow.tree_structure())
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state

    @pytest.mark.parametrize(
        "labels",
        [[1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0], [1, 2, 1, 0, 0, 1, 2, 1, 0]],
    )
    def test_tolerance_keeps_a_first_max_the_score_rounds_lower(self, labels, monkeypatch):
        """Rows where the float score ranks the first float-max gain below another position.

        Their scores are equal within rounding; without the tolerance
        the screen would drop the first maximum and split elsewhere.
        """
        monkeypatch.setattr(tree_module, "_SCREEN_MIN_WORK", 0)
        X = np.arange(len(labels), dtype=np.float64)[:, None]
        y = np.array(labels)
        fast = DecisionTreeClassifier(max_depth=1, rng=0).fit(X, y)
        slow = DecisionTreeClassifier(max_depth=1, rng=0)
        reference.tree_fit(slow, X, y)
        assert _nodes_equal(fast.root_, slow.root_)

    def test_default_threshold_screens_large_nodes_only(self, monkeypatch):
        calls = []
        original = tree_module._gini_candidates

        def spy(prefix, *args):
            calls.append(prefix.size)
            return original(prefix, *args)

        monkeypatch.setattr(tree_module, "_gini_candidates", spy)
        rng = np.random.default_rng(3)
        X = rng.random((1200, 8))
        y = rng.integers(0, 5, size=1200)
        DecisionTreeClassifier(max_depth=6, rng=0).fit(X, y)
        assert calls and min(calls) >= tree_module._SCREEN_MIN_WORK
        calls.clear()
        DecisionTreeClassifier(max_depth=6, criterion="entropy", rng=0).fit(X, y)
        assert calls == []  # the entropy criterion always evaluates in full

    @pytest.mark.parametrize("c", [2, 3, 5, 11, 20, 129])
    def test_candidates_hold_every_float_argmax(self, c):
        rng = np.random.default_rng(c)
        tied_rows = 0
        for trial in range(60):
            # Short rows often score equal, within rounding, at unrelated
            # positions: there the score and the gain formula can round apart.
            k = int(rng.integers(1, 17))
            m = int(rng.integers(3, 40)) if trial % 3 else int(rng.integers(40, 400))
            if trial % 2:
                labels = np.stack([_mirrored_labels(rng, m, c) for _ in range(k)])
            else:
                n_labels = c if trial % 4 else min(c, 2)  # a few skewed blocks
                labels = rng.integers(0, n_labels, size=(k, m))
            prefix = np.cumsum(one_hot(labels.ravel(), c).T.reshape(c, k, m), axis=2)
            total = prefix[:, 0, -1].copy()
            left = np.arange(1, m, dtype=np.float64)
            min_leaf = int(rng.integers(1, 4))
            valid = (left >= min_leaf) & (m - left >= min_leaf) & (rng.random((k, m - 1)) < 0.9)
            valid[0] &= trial % 5 != 0  # some rows admit no position at all
            weighted = _weighted_impurity(
                "gini", prefix[:, :, :-1].copy(), total[:, None, None], left, m - left, m
            )
            gains = np.where(valid, float(gini_impurity(total)) - weighted, -np.inf)
            attains = valid & (gains == gains.max(axis=1, keepdims=True))
            candidates = _gini_candidates(prefix, total, valid)
            assert not (candidates & ~valid).any()
            assert not (attains & ~candidates).any()
            tied_rows += int((attains.sum(axis=1) > 1).sum())
        assert tied_rows > 0  # several positions shared a row's float max


def _presort_blocks():
    """Feature-major blocks of every tie pattern the presort meets."""
    rng = np.random.default_rng(11)
    m = 300
    X = rng.random((m, 4))
    blocks = {
        "distinct": X,
        "duplicated": np.round(X, 1),
        "all_equal": np.full((m, 3), 0.25),
        "two_valued": (X > 0.5).astype(np.float64),
        "bootstrap": X[rng.integers(0, m, size=m)],
        "signed_zeros": np.where(X > 0.5, 0.0, -0.0),
        "mixed": np.column_stack([X[:, :2], np.round(X[:, 2:], 1)]),
        "one_row": X[:1],
    }
    return {name: np.ascontiguousarray(b.T) for name, b in blocks.items()}


class TestPresort:
    @pytest.mark.parametrize("name", sorted(_presort_blocks()))
    def test_equals_stable_argsort(self, name):
        XT = _presort_blocks()[name]
        expected = np.argsort(XT, axis=1, kind="stable")
        np.testing.assert_array_equal(_presort(XT), expected)


class TestCountWorkspace:
    @pytest.mark.parametrize("c", [2, 5, 11, 129])
    def test_default_fit_matches_oracle(self, c):
        """Large enough for the default screen, with tied and distinct columns."""
        rng = np.random.default_rng(c)
        m = 1500
        X = rng.random((m, 6))
        X[:, :2] = np.round(X[:, :2], 2)
        y = rng.integers(0, c, size=m)
        fast = DecisionTreeClassifier(max_depth=5, rng=1).fit(X, y)
        slow = DecisionTreeClassifier(max_depth=5, rng=1)
        reference.tree_fit(slow, X, y)
        assert _nodes_equal(fast.root_, slow.root_)
        assert _structures_equal(fast.tree_structure(), slow.tree_structure())

    def test_dtype_bound(self):
        assert _count_dtype(2) is np.int32
        assert _count_dtype(46_340) is np.int32  # 46_340**2 < 2**31
        assert _count_dtype(46_341) is np.int64

    def test_int64_workspace_stays_exact_where_int32_wraps(self):
        m = 65_536  # (m - 4)**2 > 2**31: an int32 square wraps
        dtype = _count_dtype(m)
        y = np.repeat([0, 1], [m - 3, 3])
        prefix = np.cumsum(np.eye(2, dtype=dtype)[y].T[:, None, :], axis=2)
        counts = prefix[:, 0, -1].copy()
        valid = np.ones((1, m - 1), dtype=bool)
        exact = _gini_candidates(prefix.astype(np.float64), counts.astype(np.float64), valid)
        assert exact[0, m - 4] and exact.sum() == 1  # the pure left child
        np.testing.assert_array_equal(_gini_candidates(prefix, counts, valid), exact)
        wrapped = _gini_candidates(prefix.astype(np.int32), counts.astype(np.int32), valid)
        assert not np.array_equal(wrapped, exact)

    @pytest.mark.parametrize("trial", range(0, 24, 5))
    def test_int64_workspace_grows_the_same_trees(self, trial, monkeypatch):
        monkeypatch.setattr(tree_module, "_count_dtype", lambda m: np.int64)
        X, y, kwargs = _growth_problem(trial)
        fast = DecisionTreeClassifier(rng=trial, **kwargs).fit(X, y)
        slow = DecisionTreeClassifier(rng=trial, **kwargs)
        reference.tree_fit(slow, X, y)
        assert _nodes_equal(fast.root_, slow.root_)


class TestLogisticOracle:
    """The lean SGD loops against ``reference.lr_fit_binary``/``lr_fit_multinomial``."""

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    @pytest.mark.parametrize("c", [2, 5, 11])
    @pytest.mark.parametrize("n, batch_size", [(300, 64), (256, 64), (40, 64)])
    def test_fit_equals_reference_bitwise(self, c, l2, n, batch_size, monkeypatch):
        rng = np.random.default_rng(c * 100 + n)
        X = rng.normal(size=(n, 7))
        y = rng.integers(0, c, size=n)
        y[:c] = np.arange(c)
        kwargs = dict(lr=0.3, epochs=6, batch_size=batch_size, l2=l2, rng=c)
        fast = LogisticRegression(**kwargs).fit(X, y)
        monkeypatch.setattr(LogisticRegression, "_fit_binary", reference.lr_fit_binary)
        monkeypatch.setattr(
            LogisticRegression, "_fit_multinomial", reference.lr_fit_multinomial
        )
        slow = LogisticRegression(**kwargs).fit(X, y)
        assert fast.coef_.tobytes() == slow.coef_.tobytes()
        assert np.asarray(fast.intercept_).tobytes() == np.asarray(slow.intercept_).tobytes()
        assert type(fast.intercept_) is type(slow.intercept_)
        assert fast.rng.bit_generator.state == slow.rng.bit_generator.state


def _pra_reference(attack, x_adv, v):
    """The per-row loop PRA ran before the one-call draw."""
    rng, _ = spawn_rngs(attack._seed, 2)
    labels = np.argmax(v, axis=1)
    view = attack._view
    position = {int(f): j for j, f in enumerate(view.target_indices)}
    low, high = attack.interval_low, attack.interval_high
    x_hat = np.full((x_adv.shape[0], view.d_target), 0.5 * (low + high))
    paths, restricted, intervals, n_failed = [], [], [], 0
    for i in range(x_adv.shape[0]):
        candidates = np.flatnonzero(reference.pra_restrict(attack._attack, x_adv[i], labels[i]))
        if candidates.size == 0:
            paths.append(None)
            restricted.append(0)
            intervals.append({})
            n_failed += 1
            continue
        path = attack._attack.structure.path_to(int(rng.choice(candidates)))
        paths.append(path)
        restricted.append(int(candidates.size))
        bounds = attack._attack.infer_intervals(path, low=low, high=high)
        intervals.append(bounds)
        for feature, (lo, hi) in bounds.items():
            x_hat[i, position[int(feature)]] = 0.5 * (lo + hi)
    info = {
        "selected_paths": paths,
        "n_paths_restricted": restricted,
        "n_paths_total": int(attack.structure.n_prediction_paths()),
        "intervals": intervals,
        "n_failed": n_failed,
        "n_predictions_used": int(x_adv.shape[0]),
    }
    return x_hat, info, rng


class _Scenario:
    """Hand-built scenario: PRA reads only the released model and the view."""

    def __init__(self, model, view):
        self.model = model
        self.view = view


class TestPraOneDraw:
    """PRA's single bounded draw equals one ``rng.choice`` per row."""

    def _attack(self, seed: int):
        rng = np.random.default_rng(seed)
        X = rng.random((500, 7))
        y = (X[:, 0] + 0.5 * rng.random(500) > 0.7).astype(np.int64) + (X[:, 1] > 0.6)
        tree = DecisionTreeClassifier(max_depth=6, min_samples_leaf=2, rng=0).fit(X, y)
        # One or two target features: the adversary's columns pin most of
        # the path, so many rows keep a single candidate.
        view = FeaturePartition.adversary_target(7, 0.2, rng=seed).adversary_view()
        attack = ATTACKS.create("pra").prepare(_Scenario(tree, view), seed=seed)
        Xq = rng.random((300, 7))
        v = one_hot(tree.predict(Xq), 3)
        return attack, Xq[:, view.adversary_indices], v, rng

    def _run(self, attack, x_adv, v, monkeypatch):
        streams = []

        def recording(seed, n):
            rngs = spawn_rngs(seed, n)
            streams.append(rngs[0])
            return rngs

        monkeypatch.setattr(api_attacks, "spawn_rngs", recording)
        result = attack.run(x_adv, v)
        return result, streams[0]

    def test_equals_per_row_choice(self, monkeypatch):
        seen = set()
        for seed in range(6):
            attack, x_adv, v, rng = self._attack(seed)
            # Noise-flip some labels: such rows may keep no candidate path.
            flip = rng.random(v.shape[0]) < 0.2
            v[flip] = np.roll(v[flip], 1, axis=1)
            result, stream = self._run(attack, x_adv, v, monkeypatch)
            x_hat, info, ref_stream = _pra_reference(attack, x_adv, v)
            assert result.info == info
            assert (result.x_target_hat.view(np.int64) == x_hat.view(np.int64)).all()
            assert stream.bit_generator.state == ref_stream.bit_generator.state
            seen |= {min(n, 2) for n in info["n_paths_restricted"]}
        # Unattackable rows, one-candidate rows (no draw) and real draws.
        assert seen == {0, 1, 2}

    def test_pool_without_any_candidate_draws_nothing(self, monkeypatch):
        attack, x_adv, v, _ = self._attack(0)
        # Every row reveals a fourth class that no leaf carries.
        v = np.hstack([np.zeros_like(v), np.ones((v.shape[0], 1))])
        result, stream = self._run(attack, x_adv, v, monkeypatch)
        x_hat, info, ref_stream = _pra_reference(attack, x_adv, v)
        assert result.info == info
        assert info["n_failed"] == x_adv.shape[0]
        assert (result.x_target_hat == x_hat).all()
        assert stream.bit_generator.state == spawn_rngs(attack._seed, 2)[0].bit_generator.state
        assert ref_stream.bit_generator.state == stream.bit_generator.state


def _random_tree(seed: int, depth: int = 6):
    rng = np.random.default_rng(seed)
    X = rng.random((300, 6))
    y = (X[:, 0] + 0.3 * rng.random(300) > 0.6).astype(np.int64) + (X[:, 1] > 0.8)
    tree = DecisionTreeClassifier(max_depth=depth, min_samples_leaf=3, rng=0).fit(X, y)
    return tree.tree_structure(), rng.random((200, 6))


def _depth(slot: int) -> int:
    return int(slot + 1).bit_length() - 1


class TestPathCbrBatch:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("targets", [[], [0, 2, 5], [0, 1, 2, 3, 4, 5]])
    def test_equals_summed_per_path_counts(self, seed, targets):
        structure, X = _random_tree(seed)
        leaves = np.random.default_rng(seed).choice(structure.leaf_indices(), size=len(X))
        per_path = [
            path_cbr(structure, structure.path_to(int(leaf)), x, np.array(targets))
            for leaf, x in zip(leaves, X)
        ]
        expected = (sum(c for c, _ in per_path), sum(t for _, t in per_path))
        assert path_cbr_batch(structure, leaves, X, np.array(targets)) == expected
        if not targets:
            assert expected == (0, 0)

    def test_leaves_at_mixed_depths(self):
        structure, X = _random_tree(3)
        leaves = structure.leaf_indices()
        assert len({_depth(int(leaf)) for leaf in leaves}) > 1
        X = X[: leaves.size]
        per_path = [
            path_cbr(structure, structure.path_to(int(leaf)), x, np.arange(6))
            for leaf, x in zip(leaves, X)
        ]
        expected = (sum(c for c, _ in per_path), sum(t for _, t in per_path))
        assert expected[1] > 0
        assert path_cbr_batch(structure, leaves, X, np.arange(6)) == expected

    def test_single_leaf_tree(self):
        X = np.zeros((20, 3))  # no split can separate constant rows
        y = np.arange(20) % 2
        structure = DecisionTreeClassifier(max_depth=3, rng=0).fit(X, y).tree_structure()
        assert structure.depth == 0
        assert path_cbr(structure, [0], X[0], np.arange(3)) == (0, 0)
        assert path_cbr_batch(structure, np.zeros(20, dtype=np.int64), X, np.arange(3)) == (0, 0)

    def test_no_rows_scores_nothing(self):
        structure, _ = _random_tree(0)
        assert path_cbr_batch(structure, [], np.empty((0, 6)), [0]) == (0, 0)

    def test_rejects_slots_that_are_not_leaves(self):
        structure, X = _random_tree(1)
        internal = int(np.flatnonzero(structure.exists & ~structure.is_leaf)[0])
        for slot in (internal, -1, structure.n_nodes):
            leaves = np.full(2, structure.leaf_indices()[0])
            leaves[1] = slot
            with pytest.raises(ValidationError, match=re.escape(f"slots [{slot}]")):
                path_cbr_batch(structure, leaves, X[:2], [0])

    def test_rejects_leaf_count_mismatch(self):
        structure, X = _random_tree(1)
        with pytest.raises(ValidationError, match="leaves"):
            path_cbr_batch(structure, structure.leaf_indices()[:1], X[:2], [0])


class TestTargetFeatureValidation:
    @pytest.mark.parametrize("bad", [[-1], [6], [0, 9, -3]])
    def test_every_cbr_scorer_names_bad_indices(self, bad):
        structure, X = _random_tree(2)
        leaf = int(structure.leaf_indices()[0])
        named = str(sorted(f for f in bad if not 0 <= f < 6))
        calls = [
            lambda: path_cbr(structure, structure.path_to(leaf), X[0], bad),
            lambda: reconstruction_cbr(structure, X[0], X[1], bad),
            lambda: reconstruction_cbr_batch(structure, X, X, bad),
            lambda: path_cbr_batch(structure, [leaf], X[:1], bad),
        ]
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert named in str(info.value)


class TestRandomPathDraw:
    @pytest.mark.parametrize("n_leaves", [1, 2, 3, 7, 16, 33])
    @pytest.mark.parametrize("seed", range(5))
    def test_vector_choice_equals_per_row_random_path(self, n_leaves, seed):
        """The batched baseline's draw is n scalar draws, final state included."""
        structure, _ = _random_tree(seed)
        # Demote all but n_leaves real leaves: random_path draws over the
        # leaf set and walks up through existing slots only.
        leaves = structure.leaf_indices()[:n_leaves]
        structure.is_leaf[:] = False
        structure.is_leaf[leaves] = True
        scalar_rng = np.random.default_rng(seed)
        vector_rng = np.random.default_rng(seed)
        picks = [random_path(structure, scalar_rng)[-1] for _ in range(50)]
        assert vector_rng.choice(structure.leaf_indices(), size=50).tolist() == picks
        assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_rank_transform_matches_double_argsort():
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(500, 7)), 1)  # ties: the inner sort's order decides
    n = X.shape[0]
    ranks = np.argsort(np.argsort(X, axis=0), axis=0)
    expected = ((ranks + 1.0) / (n + 1.0)) ** 0.7
    assert (_rank_transform_marginals(X, 0.7) == expected).all()

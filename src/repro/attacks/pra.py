"""Path Restriction Attack (PRA) on decision-tree predictions (§IV-B).

Algorithm 1 of the paper, implemented on the full-binary-tree layout
exported by :meth:`repro.models.tree.DecisionTreeClassifier.tree_structure`:

1. Propagate an indicator vector β from the root: at nodes testing an
   *adversary* feature, only the branch consistent with the adversary's own
   value stays live; at target-feature nodes both branches stay live.
2. Intersect with the indicator α of leaves labeled with the observed
   predicted class.
3. The surviving leaves are the candidate prediction paths; the adversary
   picks one uniformly at random and reads the branch constraints on the
   target's features off that path.

:meth:`PathRestrictionAttack.restrict_batch` runs steps 1-2 for a whole
prediction pool at once; the uniform path choice of step 3 is drawn by
the scenario adapter (:class:`repro.api.attacks.PraScenarioAttack`).

Beyond the paper's CBR evaluation, :meth:`PathRestrictionAttack.infer_intervals`
converts a candidate path into per-feature value intervals — the concrete
leakage ("deposit > 5K" in the paper's Example 2).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AttackError
from repro.federated.partition import AdversaryView
from repro.metrics.branching import path_branch_decisions
from repro.models.tree import TreeStructure


class PathRestrictionAttack:
    """Restrict a decision tree's prediction paths from its predictions.

    Parameters
    ----------
    structure:
        Full-binary-tree export of the released DT model.
    view:
        Adversary/target column split over the joint feature space.
    """

    def __init__(self, structure: TreeStructure, view: AdversaryView) -> None:
        self.structure = structure
        self.view = view
        self._adv_features = set(int(i) for i in view.adversary_indices)
        # Flat-array precomputation for the vectorized Algorithm 1: per
        # tree level, the existing internal slots, whether each tests an
        # adversary feature, the position of that feature inside x_adv,
        # and the split threshold. `restrict_batch` then propagates β one
        # whole level per numpy op instead of one Python BFS step per node.
        adv_lookup = np.zeros(view.n_features, dtype=bool)
        adv_lookup[view.adversary_indices] = True
        pos_lookup = np.zeros(view.n_features, dtype=np.int64)
        pos_lookup[view.adversary_indices] = np.arange(view.d_adv)
        self._levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for level in range(structure.depth):
            idx = np.arange(2**level - 1, 2 ** (level + 1) - 1)
            idx = idx[structure.exists[idx] & ~structure.is_leaf[idx]]
            if idx.size == 0:
                continue
            feat = structure.feature[idx]
            is_adv = adv_lookup[feat]
            # Position is only read where is_adv holds; 0 elsewhere.
            adv_pos = np.where(is_adv, pos_lookup[feat], 0)
            self._levels.append((idx, is_adv, adv_pos, structure.threshold[idx]))
        self._leaf_mask = structure.exists & structure.is_leaf
        self._leaf_paths: dict[int, list[int]] = {}
        self._interval_cache: dict[tuple, dict[int, tuple[float, float]]] = {}

    def restrict_batch(
        self, X_adv: np.ndarray, predicted_classes: np.ndarray
    ) -> np.ndarray:
        """Algorithm 1 for a whole sample pool in one pass, ``(n, n_nodes)``.

        Row ``i`` is β over all tree slots (1 = live leaf) for the sample
        with adversary features ``X_adv[i]`` (columns in
        ``view.adversary_indices`` order, as ``AdversaryView.split``
        returns them) and revealed class ``predicted_classes[i]``; it
        equals the per-node BFS of the paper (``pra_restrict`` in
        ``tests/reference.py``). The β propagation runs once per tree
        level for all samples, so an n-sample restriction costs
        ``O(depth)`` numpy ops instead of ``n`` Python tree walks.
        """
        X_adv = np.atleast_2d(np.asarray(X_adv, dtype=np.float64))
        if X_adv.shape[1] != self.view.d_adv:
            raise AttackError(
                f"X_adv has {X_adv.shape[1]} columns, expected d_adv={self.view.d_adv}"
            )
        classes = np.asarray(predicted_classes, dtype=np.int64).ravel()
        if classes.shape[0] != X_adv.shape[0]:
            raise AttackError(
                f"{X_adv.shape[0]} samples but {classes.shape[0]} predicted classes"
            )
        beta = np.zeros((X_adv.shape[0], self.structure.n_nodes), dtype=np.int8)
        beta[:, 0] = 1  # lines 1-3: the root is always evaluated
        for idx, is_adv, adv_pos, thresholds in self._levels:  # lines 4-14
            live = beta[:, idx]
            go_left = X_adv[:, adv_pos] <= thresholds  # lines 6-10
            beta[:, 2 * idx + 1] = live * (~is_adv | go_left)  # line 12 when ~is_adv
            beta[:, 2 * idx + 2] = live * (~is_adv | ~go_left)
        # line 15: α marks leaves carrying each sample's predicted class.
        alpha = self._leaf_mask & (self.structure.leaf_label == classes[:, None])
        return (alpha * beta).astype(np.int8)  # lines 16-17

    def cached_path(self, leaf: int) -> list[int]:
        """Root-to-leaf slot path, memoized per leaf (fresh list per call)."""
        path = self._leaf_paths.get(leaf)
        if path is None:
            path = self.structure.path_to(leaf)
            self._leaf_paths[leaf] = path
        return list(path)

    def infer_intervals(
        self,
        path: list[int],
        *,
        low: float = 0.0,
        high: float = 1.0,
    ) -> dict[int, tuple[float, float]]:
        """Target-feature value intervals implied by a candidate path.

        Every target-feature decision on ``path`` tightens that feature's
        interval: going left imposes ``value <= threshold``, going right
        ``value > threshold``. Features the path never tests keep the full
        ``(low, high)`` range and are omitted.

        Results are memoized per ``(path, low, high)`` — the restriction
        loop revisits the same few candidate leaves for every sample, so
        the hot path pays one walk per distinct leaf. Each call returns a
        fresh dict; the intervals themselves are unchanged.
        """
        key = (tuple(path), low, high)
        cached = self._interval_cache.get(key)
        if cached is None:
            cached = {}
            for feature, threshold, went_left in path_branch_decisions(self.structure, path):
                if feature in self._adv_features:
                    continue
                lo, hi = cached.get(feature, (low, high))
                if went_left:
                    hi = min(hi, threshold)
                else:
                    lo = max(lo, threshold)
                cached[feature] = (lo, hi)
            self._interval_cache[key] = cached
        return dict(cached)

"""Correct branching rate (CBR) metrics for tree-model attacks.

The paper defines CBR as "the fraction of inferred feature values that
belong to the same branches as those computed by the ground-truth"
(§III-C). Two settings use it:

- **PRA** (Fig. 6): a candidate root-to-leaf path is selected; each
  *target-feature* decision on that path implies a branch direction, which
  is scored against the direction the true feature value would take.
  Adversary-feature decisions are excluded — they are correct by
  construction and would inflate the metric. :func:`path_cbr_batch`
  scores many paths at once from their leaf slots.
- **GRNA on RF** (Fig. 8): the reconstructed feature values are walked
  against each tree; every target-feature decision on the true sample's
  prediction path is scored for sign agreement.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.models.tree import TreeStructure
from repro.utils.validation import check_array, check_matrix, check_vector


def _target_mask(target_features: np.ndarray, n_features: int) -> np.ndarray:
    """Boolean column mask of ``target_features``; out-of-range indices raise."""
    targets = np.asarray(target_features, dtype=np.int64).ravel()
    bad = targets[(targets < 0) | (targets >= n_features)]
    if bad.size:
        raise ValidationError(
            f"target feature indices {sorted(set(bad.tolist()))} are outside "
            f"[0, {n_features})"
        )
    mask = np.zeros(n_features, dtype=bool)
    mask[targets] = True
    return mask


def path_branch_decisions(
    structure: TreeStructure, path: list[int]
) -> list[tuple[int, float, bool]]:
    """Decode a root-to-leaf path into ``(feature, threshold, went_left)`` triples."""
    decisions = []
    for parent, child in zip(path[:-1], path[1:]):
        if child not in (2 * parent + 1, 2 * parent + 2):
            raise ValidationError(f"{child} is not a child of {parent} in the path")
        feature = int(structure.feature[parent])
        if feature < 0:
            raise ValidationError(f"path passes through non-internal node {parent}")
        decisions.append((feature, float(structure.threshold[parent]), child == 2 * parent + 1))
    return decisions


def path_cbr(
    structure: TreeStructure,
    path: list[int],
    x_true: np.ndarray,
    target_features: np.ndarray,
) -> tuple[int, int]:
    """Count correct target-feature branch decisions along ``path``.

    Returns ``(n_correct, n_total)``; callers aggregate over samples before
    dividing, so samples whose paths contain no target decisions don't
    contribute spurious 0/0 terms.
    """
    x_true = check_vector(x_true, name="x_true")
    is_target = _target_mask(target_features, x_true.shape[0])
    n_correct = n_total = 0
    for feature, threshold, went_left in path_branch_decisions(structure, path):
        if not is_target[feature]:
            continue
        n_total += 1
        truth_left = bool(x_true[feature] <= threshold)
        if truth_left == went_left:
            n_correct += 1
    return n_correct, n_total


def path_cbr_batch(
    structure: TreeStructure,
    leaves: np.ndarray,
    X_true: np.ndarray,
    target_features: np.ndarray,
) -> tuple[int, int]:
    """:func:`path_cbr` summed over the root-to-leaf paths ending at ``leaves``.

    Row ``i`` of ``X_true`` scores the path to slot ``leaves[i]``, one
    numpy pass per tree level: a leaf at depth ``L`` has its level-``l``
    ancestor at ``((leaf + 1) >> (L - l)) - 1``, and the next bit of
    ``leaf + 1`` says whether the path went left. Returns the summed
    ``(n_correct, n_total)`` — exactly the sums of the per-path counts,
    ``(0, 0)`` for no rows.
    """
    X_true = check_array(X_true, name="X_true", ndim=2, allow_empty=True)
    leaves = np.asarray(leaves, dtype=np.int64).ravel()
    if leaves.shape[0] != X_true.shape[0]:
        raise ValidationError(
            f"{leaves.shape[0]} leaves for {X_true.shape[0]} rows of X_true"
        )
    not_leaves = leaves[~np.isin(leaves, structure.leaf_indices())]
    if not_leaves.size:
        raise ValidationError(
            f"slots {sorted(set(not_leaves.tolist()))} are not leaves of this tree"
        )
    is_target = _target_mask(target_features, X_true.shape[1])
    # Heap numbering from 1: below the leading bit, bit l (from the top)
    # of `code` is the level-l turn; frexp's exponent is the bit length.
    code = leaves + 1
    depth = np.frexp(code.astype(np.float64))[1] - 1
    rows = np.arange(X_true.shape[0])
    n_correct = n_total = 0
    for level in range(int(depth.max(initial=0))):
        active = level < depth
        # Rows whose path already ended read a dummy slot, masked by `active`.
        shift = np.maximum(depth - level, 1)
        parent = (code >> shift) - 1
        went_left = ((code >> (shift - 1)) & 1) == 0
        feature = structure.feature[parent]
        threshold = structure.threshold[parent]
        scored = active & is_target[feature]
        truth_left = X_true[rows, feature] <= threshold
        n_total += int(np.count_nonzero(scored))
        n_correct += int(np.count_nonzero(scored & (truth_left == went_left)))
    return n_correct, n_total


def reconstruction_cbr(
    structure: TreeStructure,
    x_true: np.ndarray,
    x_reconstructed_full: np.ndarray,
    target_features: np.ndarray,
) -> tuple[int, int]:
    """Score a reconstructed sample's branch agreement on the true path.

    Walks the tree with the *true* sample and, at every internal node on
    that path testing a target feature, checks whether the reconstructed
    value falls on the same side of the threshold.

    Parameters
    ----------
    x_reconstructed_full:
        Full-width sample with the adversary's own (exact) values in their
        columns and reconstructed values in the target columns.
    """
    x_true = check_vector(x_true, name="x_true")
    x_rec = check_vector(x_reconstructed_full, name="x_reconstructed_full")
    if x_true.shape != x_rec.shape:
        raise ValidationError(
            f"shape mismatch: {x_true.shape} vs {x_rec.shape}"
        )
    is_target = _target_mask(target_features, x_true.shape[0])
    path = structure.prediction_path(x_true)
    n_correct = n_total = 0
    for feature, threshold, _went_left in path_branch_decisions(structure, path):
        if not is_target[feature]:
            continue
        n_total += 1
        if (x_true[feature] <= threshold) == (x_rec[feature] <= threshold):
            n_correct += 1
    return n_correct, n_total


def reconstruction_cbr_batch(
    structure: TreeStructure,
    X_true: np.ndarray,
    X_reconstructed_full: np.ndarray,
    target_features: np.ndarray,
) -> tuple[int, int]:
    """:func:`reconstruction_cbr` pooled over every row, one pass per tree level.

    All true samples descend the tree together (the frontier descent of
    :meth:`TreeStructure.leaf_slots`); at each level the rows standing at
    an internal node that tests a target feature are scored at once.
    Returns the summed ``(n_correct, n_total)`` — exactly the sums of the
    per-row counts, so :func:`aggregate_cbr` gives the same rate.
    """
    X_true = check_matrix(X_true, name="X_true")
    X_rec = check_matrix(X_reconstructed_full, name="X_reconstructed_full")
    if X_true.shape != X_rec.shape:
        raise ValidationError(f"shape mismatch: {X_true.shape} vs {X_rec.shape}")
    is_target = _target_mask(target_features, X_true.shape[1])
    rows = np.arange(X_true.shape[0])
    node = np.zeros(X_true.shape[0], dtype=np.int64)
    n_correct = n_total = 0
    for _ in range(structure.depth):
        active = ~structure.is_leaf[node]
        if not active.any():
            break
        # feature is -1 at leaves; those rows are masked out by `active`.
        feature = structure.feature[node]
        threshold = structure.threshold[node]
        truth_left = X_true[rows, feature] <= threshold
        scored = active & is_target[feature]
        n_total += int(np.count_nonzero(scored))
        n_correct += int(
            np.count_nonzero(scored & (truth_left == (X_rec[rows, feature] <= threshold)))
        )
        node = np.where(active, np.where(truth_left, 2 * node + 1, 2 * node + 2), node)
    return n_correct, n_total


def aggregate_cbr(counts: list[tuple[int, int]]) -> float:
    """Pool ``(n_correct, n_total)`` pairs into a single rate.

    Returns NaN if no decisions were scored at all (e.g. the tree never
    split on a target feature).
    """
    n_correct = sum(c for c, _ in counts)
    n_total = sum(t for _, t in counts)
    if n_total == 0:
        return float("nan")
    return n_correct / n_total

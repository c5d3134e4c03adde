"""Seed implementations of the vectorized kernels: the oracles they are checked against.

Each function is the straightforward form a production kernel replaced,
kept bit for bit. It takes the instance as its first argument, so a test
either calls it directly or patches it over the method it stands in for::

    monkeypatch.setattr(DecisionTreeClassifier, "fit", reference.tree_fit)
    monkeypatch.setattr(LogisticRegression, "_fit_binary", reference.lr_fit_binary)
    slow.step = types.MethodType(reference.adam_step, slow)

The dynamic autodiff tape needs no function here: setting
``repro.nn.train._MAX_TAPES = 0`` runs every training step on it.

Users: the kernel tests (``test_perf_kernels.py``,
``test_closed_form_kernels.py``, ``test_static_tape.py``), the oracle
harness (``test_api_equivalence.py``) and ``benchmarks/gates.py``, which
times each fast kernel against its reference here.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import AttackError, NotFittedError
from repro.models.tree import _CRITERIA, _Node
from repro.nn.data import iterate_batches
from repro.tensor import functional as F
from repro.tensor.tensor import concat
from repro.utils.numeric import one_hot, sigmoid, softmax
from repro.utils.validation import check_vector


# ----------------------------------------------------------------------
# Decision tree and random forest
# ----------------------------------------------------------------------
def tree_fit(tree, X, y):
    """``DecisionTreeClassifier.fit`` growing by :func:`tree_grow`."""
    X, y = tree._validate_fit_inputs(X, y)
    tree._impurity = _CRITERIA[tree.criterion]
    tree._n_split_features = tree._resolve_max_features(X.shape[1])
    tree._flat = None
    tree.root_ = tree_grow(tree, X, y, one_hot(y, tree.n_classes_), depth=0)
    return tree


def tree_grow(tree, X, y, Y, depth):
    """Recursive growth that re-sorts at every node."""
    counts = Y.sum(axis=0)
    label = int(counts.argmax())
    node = _Node(label=label, n_samples=X.shape[0], depth=depth)
    if (
        depth >= tree.max_depth
        or X.shape[0] < tree.min_samples_split
        or np.count_nonzero(counts) <= 1
    ):
        return node
    split = tree_best_split(tree, X, Y)
    if split is None:
        return node
    feature, threshold = split
    mask = X[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = tree_grow(tree, X[mask], y[mask], Y[mask], depth + 1)
    node.right = tree_grow(tree, X[~mask], y[~mask], Y[~mask], depth + 1)
    return node


def tree_best_split(tree, X, Y):
    """Per-feature sort and scan: the best ``(feature, threshold)`` or ``None``."""
    m, d = X.shape
    total_counts = Y.sum(axis=0)
    parent_impurity = float(tree._impurity(total_counts))
    if tree._n_split_features < d:
        features = tree.rng.choice(d, size=tree._n_split_features, replace=False)
    else:
        features = np.arange(d)
    best_gain = 1e-12  # require a strictly positive improvement
    best = None
    min_leaf = tree.min_samples_leaf
    for j in features:
        order = np.argsort(X[:, j], kind="stable")
        values = X[order, j]
        prefix = np.cumsum(Y[order], axis=0)  # (m, c) left counts after i+1 samples
        # Candidate split after position i (0-based): left size i+1.
        boundaries = np.flatnonzero(values[:-1] < values[1:])
        if boundaries.size == 0:
            continue
        left_sizes = boundaries + 1
        valid = (left_sizes >= min_leaf) & (m - left_sizes >= min_leaf)
        boundaries = boundaries[valid]
        if boundaries.size == 0:
            continue
        left_counts = prefix[boundaries]
        right_counts = total_counts - left_counts
        left_sizes = (boundaries + 1).astype(np.float64)
        right_sizes = m - left_sizes
        weighted = (
            left_sizes * tree._impurity(left_counts)
            + right_sizes * tree._impurity(right_counts)
        ) / m
        gains = parent_impurity - weighted
        k = int(gains.argmax())
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            i = boundaries[k]
            threshold = float((values[i] + values[i + 1]) / 2.0)
            best = (int(j), threshold)
    return best


def tree_predict(tree, X):
    """``DecisionTreeClassifier.predict`` as a per-sample node walk."""
    X = tree._validate_predict_input(X)
    if tree.root_ is None:
        raise NotFittedError("tree has no root; call fit first")
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, x in enumerate(X):
        node = tree.root_
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        out[i] = node.label
    return out


def forest_predict_proba(forest, X):
    """``RandomForestClassifier.predict_proba`` as a per-tree, per-sample vote loop."""
    X = forest._validate_predict_input(X)
    if not forest.trees_:
        raise NotFittedError("forest has no trees; call fit first")
    votes = np.zeros((X.shape[0], forest.n_classes_))
    for tree in forest.trees_:
        labels = tree_predict(tree, X)
        votes[np.arange(X.shape[0]), labels] += 1.0
    return votes / len(forest.trees_)


# ----------------------------------------------------------------------
# Logistic regression
# ----------------------------------------------------------------------
def lr_fit_binary(model, X, y):
    """``LogisticRegression._fit_binary`` as the allocating mini-batch loop."""
    d = X.shape[1]
    w = model.rng.normal(0.0, 0.01, size=d)
    b = 0.0
    for _ in range(model.epochs):
        for xb, yb in iterate_batches((X, y), model.batch_size, rng=model.rng):
            p = sigmoid(xb @ w + b)
            err = p - yb  # gradient of mean log-loss w.r.t. logits
            grad_w = xb.T @ err / xb.shape[0] + model.l2 * w
            grad_b = float(err.mean())
            w -= model.lr * grad_w
            b -= model.lr * grad_b
    model.coef_ = w
    model.intercept_ = np.float64(b)


def lr_fit_multinomial(model, X, y):
    """``LogisticRegression._fit_multinomial`` as the allocating mini-batch loop."""
    d, c = X.shape[1], model.n_classes_
    W = model.rng.normal(0.0, 0.01, size=(d, c))
    b = np.zeros(c)
    Y = one_hot(y, c)
    for _ in range(model.epochs):
        for xb, yb in iterate_batches((X, Y), model.batch_size, rng=model.rng):
            P = softmax(xb @ W + b, axis=1)
            err = (P - yb) / xb.shape[0]
            W -= model.lr * (xb.T @ err + model.l2 * W)
            b -= model.lr * err.sum(axis=0)
    model.coef_ = W
    model.intercept_ = b


# ----------------------------------------------------------------------
# Attacks
# ----------------------------------------------------------------------
def pra_restrict(attack, x_adv, predicted_class):
    """One row of ``PathRestrictionAttack.restrict_batch`` as a per-node Python BFS (Algorithm 1)."""
    x_adv = check_vector(x_adv, name="x_adv")
    if x_adv.shape[0] != attack.view.d_adv:
        raise AttackError(
            f"x_adv has {x_adv.shape[0]} entries, expected d_adv={attack.view.d_adv}"
        )
    structure = attack.structure
    adv_value = {
        int(feat): float(val)
        for feat, val in zip(attack.view.adversary_indices, x_adv)
    }

    beta = np.zeros(structure.n_nodes, dtype=np.int8)  # line 1
    beta[0] = 1  # line 3: the root is always evaluated
    queue = [0]  # line 2
    while queue:  # lines 4-14
        i = queue.pop(0)
        if structure.is_leaf[i] or not structure.exists[i]:
            continue
        feature = int(structure.feature[i])
        left, right = 2 * i + 1, 2 * i + 2
        if feature in attack._adv_features:  # lines 6-10
            if adv_value[feature] <= structure.threshold[i]:
                beta[left], beta[right] = beta[i], 0
            else:
                beta[left], beta[right] = 0, beta[i]
        else:  # line 12: target feature, both branches possible
            beta[left] = beta[right] = beta[i]
        queue.append(left)  # lines 13-14
        queue.append(right)

    # line 15: α marks leaves carrying the predicted class.
    alpha = np.zeros(structure.n_nodes, dtype=np.int8)
    leaf_mask = structure.exists & structure.is_leaf
    alpha[leaf_mask & (structure.leaf_label == predicted_class)] = 1
    return (alpha * beta).astype(np.int8)  # lines 16-17


def grna_prediction_loss(attack, x_adv_batch, x_hat, v_batch):
    """``GenerativeRegressionNetwork._prediction_loss`` as the op-by-op autodiff graph."""
    x_full = concat([x_adv_batch, x_hat], axis=1)
    x_full = x_full[:, attack.view.permutation_to_original()]
    v_hat = attack.model.forward_tensor(x_full)
    loss = F.mse_loss(v_hat, v_batch)
    if attack.variance_penalty > 0.0 and x_hat.shape[0] > 1:
        excess = (x_hat.var(axis=0) - attack.variance_threshold).relu()
        loss = loss + excess.mean() * attack.variance_penalty
    return loss


# ----------------------------------------------------------------------
# Optimizer
# ----------------------------------------------------------------------
def adam_step(optimizer):
    """``Adam.step`` as the allocating textbook update, parameter by parameter."""
    optimizer._t += 1
    bias1 = 1.0 - optimizer.beta1 ** optimizer._t
    bias2 = 1.0 - optimizer.beta2 ** optimizer._t
    for p, m, v in zip(optimizer.params, optimizer._m, optimizer._v):
        if p.grad is None:
            continue
        grad = p.grad
        if optimizer.weight_decay:
            grad = grad + optimizer.weight_decay * p.data
        m *= optimizer.beta1
        m += (1.0 - optimizer.beta1) * grad
        v *= optimizer.beta2
        v += (1.0 - optimizer.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        p.data = p.data - optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps)

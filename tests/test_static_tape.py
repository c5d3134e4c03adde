"""Static tape and flat-buffer optimizers: replay == the dynamic tape, to the bit.

Every fixed-shape training loop (GRNA's generator and direct estimate,
the MLP classifier, the RF distiller) records its step graph once as a
:class:`~repro.tensor.tape.StaticTape` and replays it; the optimizers
update all parameters as one flat buffer. The dynamic tape
(``repro.nn.train._MAX_TAPES = 0``) and the allocating seed update
(``reference.adam_step``) are the oracles: every comparison below is
``==`` on bytes, never ``allclose``.
"""

from types import MethodType

import numpy as np
import pytest
import reference

from repro.attacks.grna import GenerativeRegressionNetwork
from repro.checkpoint import capture_state, restore_state
from repro.datasets import load_dataset
from repro.exceptions import GradientError, ShapeError, ValidationError
from repro.federated import FeaturePartition, train_vertical_model
from repro.metrics import aggregate_cbr, reconstruction_cbr, reconstruction_cbr_batch
from repro.models.distill import RandomForestDistiller
from repro.models.forest import RandomForestClassifier
from repro.models.logistic import LogisticRegression
from repro.models.mlp import MLPClassifier
from repro.nn.layers import LayerNorm, mlp
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam, FlatParameters
from repro.nn import train
from repro.nn.train import TrainStep
from repro.tensor import functional as F
from repro.tensor.tape import StaticTape
from repro.tensor.tensor import Tensor, assemble_columns, concat


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def test_relu_kernel_matches_where_on_special_values():
    rng = np.random.default_rng(0)
    specials = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]
    x = np.concatenate([specials, rng.normal(size=991)]).reshape(50, 20)
    for data in (x, np.asfortranarray(x)):
        out = Tensor(data).relu().data
        assert _same(out, np.where(data > 0, data, 0.0))


def _layer_norm_reference(x, gamma, beta, eps):
    """The composed expression the fused kernel replaces."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / (var + eps).sqrt() * gamma + beta


@pytest.mark.parametrize("trial", range(8))
def test_fused_layer_norm_bitwise_equals_composition(trial):
    rng = np.random.default_rng(trial)
    rows, width = int(rng.integers(1, 70)), int(rng.integers(1, 40))
    data = rng.normal(size=(rows, width)) * rng.uniform(0.1, 10)
    weight = rng.normal(size=(width, width))
    upstream = rng.normal(size=(rows, width))
    scale = rng.normal(size=width) if trial else np.ones(width)
    results = []
    for fn in (F.layer_norm, _layer_norm_reference):
        x0 = Tensor(data, requires_grad=True)
        gamma = Tensor(scale, requires_grad=True)
        beta = Tensor(np.full(width, 0.1 * trial), requires_grad=True)
        # x is an op node feeding only the normalization, as in the generator.
        out = fn(x0 @ Tensor(weight), gamma, beta, 1e-5)
        (out * Tensor(upstream)).sum().backward()
        results.append((out.data, x0.grad, gamma.grad, beta.grad))
    for fused, composed in zip(*results):
        assert _same(fused, composed)


# ----------------------------------------------------------------------
# StaticTape against the dynamic tape
# ----------------------------------------------------------------------
def _zoo_loss(params, x, labels, rows):
    """A graph touching every function the engine defines."""
    w, b, gamma, beta, est = params
    h = F.layer_norm(x @ w + b, gamma, beta, 1e-5)
    h = concat([h.relu(), h.tanh(), h.sigmoid().clip(0.1, 0.9)], axis=1)
    h = h * (h * h + 1.0).sqrt() + (h.exp() + 2.0).log() - h.abs() / 3.0
    h = h.reshape(h.shape[0], -1).T.T[:, : 2 * w.shape[1]]
    logits = h @ Tensor(np.ones((h.shape[1], 3)) * 0.1) + est.take_rows(rows)[:, :3]
    loss = F.cross_entropy(logits, labels) + F.softmax(logits).var(axis=0).mean()
    loss = loss + F.log_softmax(logits).mean() * -0.5 + (logits ** 2).sum(axis=(0, 1)) * 1e-3
    est_rows = est.take_rows(rows)
    full = assemble_columns(x, est_rows[:, :2], np.array([0, 2, 3, 5]), np.array([1, 4]))
    loss = loss + F.fused_mse_loss(full, Tensor(np.zeros(full.shape)))
    return loss + F.hinged_variance_penalty(h, 0.05, 0.5) + F.mse_loss(h.mean(axis=1), x[:, 0])


def _zoo_params(rng):
    return [
        Parameter(rng.normal(size=(4, 6))),
        Parameter(rng.normal(size=6)),
        Parameter(rng.normal(size=6) + 1.0),
        Parameter(rng.normal(size=6)),
        Parameter(rng.normal(size=(30, 5))),
    ]


def _zoo_batch(rng):
    return rng.random((8, 4)), rng.integers(0, 3, size=8), rng.choice(30, size=8, replace=False)


def test_replay_bitwise_equals_dynamic_backward_over_many_steps():
    rng = np.random.default_rng(0)
    params = _zoo_params(rng)
    twins = [Parameter(p.data.copy()) for p in params]
    batches = [_zoo_batch(rng) for _ in range(6)]
    inputs = [Tensor(a) for a in batches[0]]
    tape = StaticTape(_zoo_loss(params, *inputs), inputs)
    tape.backward()
    for step, batch in enumerate(batches):
        if step:
            for p in params:
                p.zero_grad()
            tape.replay(batch)
        for p in twins:
            p.zero_grad()
        loss = _zoo_loss(twins, *[Tensor(a) for a in batch])
        loss.backward()
        assert _same(tape.loss.data, loss.data)
        for p, q in zip(params, twins):
            assert _same(p.grad, q.grad)
        # Move the parameters, as an optimizer would, in place and rebound.
        for p, q in zip(params, twins):
            p.data -= 0.01 * p.grad
            q.data = q.data - 0.01 * q.grad
        params[0].data = params[0].data.copy()


def test_dropout_masks_are_redrawn_at_every_replay():
    rng = np.random.default_rng(1)
    w = Parameter(rng.normal(size=(5, 7)))
    w2 = Parameter(w.data.copy())
    gen, gen2 = np.random.default_rng(3), np.random.default_rng(3)
    x = rng.random((9, 5))

    def loss_of(weight, inp, generator):
        # Two masks from one generator: replay must draw them in
        # construction order, not in the backward's traversal order.
        h = inp @ weight
        return h.dropout(0.5, generator).relu().sum() + (h * 2.0).dropout(0.3, generator).sum()

    placeholder = Tensor(x)
    tape = StaticTape(loss_of(w, placeholder, gen), [placeholder])
    tape.backward()
    reference = loss_of(w2, Tensor(x), gen2)
    reference.backward()
    assert _same(w.grad, w2.grad)
    for _ in range(3):
        w.zero_grad()
        w2.zero_grad()
        tape.replay([x])
        reference = loss_of(w2, Tensor(x), gen2)
        reference.backward()
        assert _same(tape.loss.data, reference.data)
        assert _same(w.grad, w2.grad)


def test_grads_land_in_the_given_buffers():
    rng = np.random.default_rng(2)
    w = Parameter(rng.normal(size=(3, 2)))
    buffer = np.zeros((3, 2))
    x = Tensor(rng.random((4, 3)))
    tape = StaticTape(((x @ w) * (x @ w)).sum(), [x], {id(w): buffer})
    tape.backward()
    assert w.grad is buffer
    expected = buffer.copy()
    tape.replay([x.data * 2.0])
    assert w.grad is buffer and not _same(buffer, expected)


def test_tape_refuses_inputs_smuggled_in_as_constants():
    x = np.ones((3, 2))
    placeholder = Tensor(x)
    w = Parameter(np.ones((2, 2)))
    loss = (placeholder @ w + Tensor(x[:, :1])).sum()
    with pytest.raises(GradientError, match="shares memory"):
        StaticTape(loss, [placeholder])


def test_tape_refuses_inputs_that_require_grad_and_bad_shapes():
    w = Parameter(np.ones((2, 2)))
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    with pytest.raises(GradientError):
        StaticTape((x @ w).sum(), [x])
    x = Tensor(np.ones((3, 2)))
    tape = StaticTape((x @ w).sum(), [x])
    with pytest.raises(ShapeError):
        tape.replay([np.ones((4, 2))])
    with pytest.raises(GradientError):
        StaticTape((x @ Tensor(np.ones((2, 2)))).sum(), [x])


# ----------------------------------------------------------------------
# TrainStep: whole training loops, static against dynamic
# ----------------------------------------------------------------------
def _both_modes(monkeypatch, run):
    static = run()
    monkeypatch.setattr(train, "_MAX_TAPES", 0)
    return static, run()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(),
        dict(dropout=0.3),
        dict(optimizer="sgd"),
        dict(batch_size=37),  # short last batch: dynamic beside the tape
    ],
    ids=["adam", "dropout", "sgd", "ragged"],
)
def test_mlp_fit_static_equals_dynamic(monkeypatch, blobs, kwargs):
    X, y = blobs

    def run():
        model = MLPClassifier((16, 8), epochs=3, rng=1, **{"batch_size": 64, **kwargs})
        model.fit(X, y)
        return [p.data for p in model.network_.parameters()] + [model.predict_proba(X)]

    static, dynamic = _both_modes(monkeypatch, run)
    assert all(_same(a, b) for a, b in zip(static, dynamic))


@pytest.mark.parametrize("loss", ["soft_ce", "mse"])
def test_distill_static_equals_dynamic(monkeypatch, blobs, loss):
    X, y = blobs
    forest = RandomForestClassifier(n_trees=5, max_depth=3, rng=0).fit(X, y)

    def run():
        surrogate = RandomForestDistiller(
            (24, 12), n_dummy=300, epochs=2, batch_size=64, loss=loss, rng=2
        ).distill(forest, X.shape[1], extra_inputs=X[:40])
        return [p.data for p in surrogate.network_.parameters()]

    static, dynamic = _both_modes(monkeypatch, run)
    assert all(_same(a, b) for a, b in zip(static, dynamic))


@pytest.fixture(scope="module")
def grna_problem():
    dataset = load_dataset("bank", n_samples=240, rng=0)
    partition = FeaturePartition.adversary_target(dataset.n_features, 0.4, rng=0)
    vfl = train_vertical_model(
        MLPClassifier(hidden_sizes=(16,), epochs=2, rng=0),
        dataset.X[:120],
        dataset.y[:120],
        dataset.X[120:],
        dataset.y[120:],
        partition,
    )
    lr = LogisticRegression(epochs=20, rng=0).fit(dataset.X[:120], dataset.y[:120])
    X_adv = vfl.adversary_features()[:70]
    return {
        "nn": (vfl.model, partition.adversary_view(), X_adv, vfl.predict(np.arange(70))),
        "lr": (lr, partition.adversary_view(), X_adv, lr.predict_proba(dataset.X[120:190])),
    }


@pytest.mark.parametrize("kind", ["nn", "lr"])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(),
        dict(use_generator=False),
        dict(use_noise=False),
        dict(use_adv_input=False),
        dict(variance_penalty=0.0),
        dict(optimizer="sgd"),
        dict(output_activation="linear"),
    ],
    ids=["default", "direct", "no-noise", "no-adv", "no-penalty", "sgd", "linear"],
)
def test_grna_static_equals_dynamic(monkeypatch, grna_problem, kind, overrides):
    model, view, X_adv, V = grna_problem[kind]

    def run():
        attack = GenerativeRegressionNetwork(
            model, view, hidden_sizes=(20, 10), epochs=3, batch_size=32, rng=7, **overrides
        )
        result = attack.run(X_adv, V)
        return [result.x_target_hat, np.array(attack.loss_history_)]

    static, dynamic = _both_modes(monkeypatch, run)
    assert all(_same(a, b) for a, b in zip(static, dynamic))


def test_grna_seed_loss_records_and_replays_too(monkeypatch, grna_problem):
    model, view, X_adv, V = grna_problem["nn"]
    monkeypatch.setattr(
        GenerativeRegressionNetwork, "_prediction_loss", reference.grna_prediction_loss
    )

    def run():
        attack = GenerativeRegressionNetwork(
            model, view, hidden_sizes=(20,), epochs=2, batch_size=32, rng=7
        )
        return attack.run(X_adv, V).x_target_hat

    static, dynamic = _both_modes(monkeypatch, run)
    assert _same(static, dynamic)


def test_train_step_keeps_one_tape_per_shape_up_to_its_limit(monkeypatch):
    rng = np.random.default_rng(0)
    batches = [
        (rng.random((rows, 3)), rng.integers(0, 2, rows)) for rows in (8, 5, 8, 3, 5, 3)
    ]

    def run():
        net = mlp([3, 5, 2], rng=0)
        step = TrainStep(lambda x, y: F.cross_entropy(net(x), y), Adam(net.parameters()))
        losses = [step(*batch) for batch in batches]
        return step, losses + [p.data for p in net.parameters()]

    step, static = run()
    assert sorted(step._tapes) == [((5, 3), (5,)), ((8, 3), (8,))]
    monkeypatch.setattr(train, "_MAX_TAPES", 0)
    step, dynamic = run()
    assert not step._tapes
    assert all(_same(a, b) for a, b in zip(static, dynamic))


# ----------------------------------------------------------------------
# Flat-buffer optimizers
# ----------------------------------------------------------------------
SHAPES = [(20, 12), (12,), (3, 5), (1,)]


def _params(rng):
    return [Parameter(rng.normal(size=s)) for s in SHAPES]


def test_flat_parameters_are_aligned_views():
    params = _params(np.random.default_rng(0))
    values = [p.data.copy() for p in params]
    flat = FlatParameters(params)
    for p, value, view in zip(params, values, flat.data_views):
        assert p.data is view and _same(view, value)
        assert p.data.flags.c_contiguous
        assert (p.data.ctypes.data - flat.data.ctypes.data) % 64 == 0
    assert flat.data.size == 240 + 16 + 16 + 8


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_adam_flat_step_equals_reference_with_missing_grads_and_rebinding(weight_decay):
    rng = np.random.default_rng(0)
    fast_params = _params(rng)
    slow_params = [Parameter(p.data.copy()) for p in fast_params]
    fast = Adam(fast_params, lr=2e-3, weight_decay=weight_decay)
    slow = Adam(slow_params, lr=2e-3, weight_decay=weight_decay)
    slow.step = MethodType(reference.adam_step, slow)
    for step in range(30):
        grads = [rng.normal(size=s) for s in SHAPES]
        for i, (p, q, g) in enumerate(zip(fast_params, slow_params, grads)):
            missing = step % 7 == 3 and i == 1
            p.grad = None if missing else g.copy()
            q.grad = None if missing else g.copy()
        if step == 11:  # a restore rebinds data; the next step adopts it
            for p in fast_params:
                p.data = p.data.copy()
        fast.step()
        slow.step()
        for p, q in zip(fast_params, slow_params):
            assert _same(p.data, q.data)


def test_sgd_flat_step_equals_per_parameter_formula():
    rng = np.random.default_rng(1)
    params = _params(rng)
    shadow = [p.data.copy() for p in params]
    velocity = [np.zeros(s) for s in SHAPES]
    opt = SGD(params, lr=0.05, momentum=0.9, weight_decay=0.01)
    for _ in range(20):
        grads = [rng.normal(size=s) for s in SHAPES]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            g = g + 0.01 * shadow[i]
            velocity[i] = velocity[i] * 0.9 + g
            shadow[i] = shadow[i] - velocity[i] * 0.05
        for p, s in zip(params, shadow):
            assert _same(p.data, s)


@pytest.mark.parametrize("cls", [Adam, SGD])
def test_optimizer_state_round_trips_through_the_codec(cls):
    rng = np.random.default_rng(3)
    params = _params(rng)
    kwargs = {"momentum": 0.9} if cls is SGD else {}
    opt = cls(params, lr=0.01, **kwargs)
    for _ in range(3):
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step()
    state = capture_state(opt)
    twin_params = [Parameter(p.data.copy()) for p in params]
    twin = cls(twin_params, lr=0.01, **kwargs)
    restore_state(twin, state)
    grads = [rng.normal(size=p.shape) for p in params]
    for ps, o in ((params, opt), (twin_params, twin)):
        for p, g in zip(ps, grads):
            p.grad = g.copy()
        o.step()
    for p, q in zip(params, twin_params):
        assert _same(p.data, q.data)
    with pytest.raises(ValidationError):
        twin._flat.assign(twin._flat.zeros(), [np.zeros(1)])


def test_layer_norm_state_dict_load_is_adopted_by_the_optimizer():
    ln = LayerNorm(4)
    opt = Adam(ln.parameters(), lr=0.1)
    ln.load_state_dict({"gamma": np.full(4, 2.0), "beta": np.zeros(4)})
    for p in ln.parameters():
        p.grad = np.ones(4)
    opt.step()
    assert ln.gamma.data is opt._flat.data_views[0]
    assert (ln.gamma.data < 2.0).all()


# ----------------------------------------------------------------------
# Batched reconstruction CBR
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trial", range(5))
def test_reconstruction_cbr_batch_equals_per_sample_counts(trial):
    rng = np.random.default_rng(trial)
    X = rng.random((150, 6))
    y = (X[:, 0] + X[:, trial % 6] > 1).astype(int)
    depth = int(rng.integers(1, 5))
    forest = RandomForestClassifier(n_trees=4, max_depth=depth, rng=trial).fit(X, y)
    X_rec = np.where(rng.random(X.shape) < 0.5, X, rng.random(X.shape))
    targets = np.array([1, 3, 4])
    for structure in forest.tree_structures():
        # Values exactly on a threshold must take the left branch.
        internal = np.flatnonzero(structure.exists & ~structure.is_leaf)
        for i in range(0, X.shape[0], 3):
            node = internal[i % internal.size]
            X_rec[i, structure.feature[node]] = structure.threshold[node]
        per_sample = [reconstruction_cbr(structure, a, b, targets) for a, b in zip(X, X_rec)]
        batch = reconstruction_cbr_batch(structure, X, X_rec, targets)
        assert batch == tuple(map(sum, zip(*per_sample)))
        rate = aggregate_cbr([batch])
        assert rate == aggregate_cbr(per_sample) or np.isnan(rate)
    with pytest.raises(ValidationError):
        reconstruction_cbr_batch(structure, X, X_rec[:, :5], targets)

"""Tests for Module/Parameter registration and state handling."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.nn import Linear, Module, Parameter, Sequential, ReLU, Dropout
from repro.tensor import Tensor


class TwoLayer(Module):
    def __init__(self):
        super().__init__()
        self.fc1 = Linear(3, 4, rng=0)
        self.fc2 = Linear(4, 2, rng=1)
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return self.fc2(self.fc1(x).relu()) * self.scale


class TestParameterDiscovery:
    def test_named_parameters_are_recursive(self):
        names = dict(TwoLayer().named_parameters())
        assert set(names) == {"fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias", "scale"}

    def test_parameters_count(self):
        model = TwoLayer()
        assert model.n_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 1

    def test_sequential_list_discovery(self):
        net = Sequential(Linear(2, 3, rng=0), ReLU(), Linear(3, 1, rng=1))
        names = [n for n, _ in net.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.2.bias" in names

    def test_parameter_always_requires_grad(self):
        assert Parameter(np.zeros(2)).requires_grad


class TestZeroGrad:
    def test_clears_all_gradients(self):
        model = TwoLayer()
        out = model(Tensor(np.ones((2, 3))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestTrainEval:
    def test_mode_propagates(self):
        net = Sequential(Linear(2, 2, rng=0), Dropout(0.5, rng=0))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_modules_yields_nested(self):
        net = Sequential(Sequential(Linear(2, 2, rng=0)), ReLU())
        kinds = [type(m).__name__ for m in net.modules()]
        assert "Linear" in kinds and "ReLU" in kinds


class TestStateDict:
    def test_roundtrip(self):
        a, b = TwoLayer(), TwoLayer()
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_state_dict_is_a_copy(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"][0] = 99.0
        assert model.scale.data[0] == 1.0

    def test_missing_key_rejected(self):
        model = TwoLayer()
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(ValidationError, match="missing"):
            model.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        model = TwoLayer()
        state = model.state_dict()
        state["extra"] = np.zeros(1)
        with pytest.raises(ValidationError, match="unexpected"):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        model = TwoLayer()
        state = model.state_dict()
        state["scale"] = np.zeros(2)
        with pytest.raises(ValidationError, match="shape"):
            model.load_state_dict(state)


class TestForwardContract:
    def test_base_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module().forward(Tensor(np.zeros(1)))

    def test_call_dispatches_to_forward(self):
        layer = Linear(2, 3, rng=0)
        x = Tensor(np.ones((1, 2)))
        np.testing.assert_array_equal(layer(x).data, layer.forward(x).data)

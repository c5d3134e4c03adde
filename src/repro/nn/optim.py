"""First-order optimizers: SGD (with momentum/weight decay) and Adam.

Algorithm 2 of the paper trains the generator with mini-batch SGD; Adam is
provided as the laptop-scale default because it reaches the same optima in
far fewer epochs (the choice is exposed as a config knob and ablated in the
benches).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.nn.module import Parameter


#: Parameter offsets in the flat buffers are multiples of this many
#: elements (64 bytes), so every parameter view starts as aligned as a
#: fresh allocation would.
_ALIGN = 8


class FlatParameters:
    """Parameters packed into one contiguous buffer, gradients into another.

    Every parameter's ``data`` is rebound to a view of :attr:`data`, and
    :attr:`grad_views` are views of :attr:`grad` in the same layout, so an
    elementwise update runs as one operation over all parameters. The
    padding between parameters stays zero in every buffer, which every
    update keeps at zero.

    A parameter whose ``data`` was rebound since (``load_state_dict``,
    checkpoint restore) is copied back in by :meth:`gather`.
    """

    def __init__(self, params: Sequence[Parameter]) -> None:
        self.params = list(params)
        offsets, total = [], 0
        for p in self.params:
            offsets.append(total)
            total += -(-p.data.size // _ALIGN) * _ALIGN
        self.size = total
        self._slices = [
            (offset, offset + p.data.size, p.data.shape)
            for p, offset in zip(self.params, offsets)
        ]
        self.data = np.zeros(total)
        self.grad = np.zeros(total)
        self.data_views = self.views(self.data)
        self.grad_views = self.views(self.grad)
        for p, view in zip(self.params, self.data_views):
            view[...] = p.data
            p.data = view

    def views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Parameter-shaped views of a buffer in this layout."""
        return [flat[lo:hi].reshape(shape) for lo, hi, shape in self._slices]

    def zeros(self) -> np.ndarray:
        """A new zero buffer in this layout."""
        return np.zeros(self.size)

    def assign(self, flat: np.ndarray, arrays: Sequence[np.ndarray]) -> None:
        """Copy per-parameter ``arrays`` into ``flat``."""
        arrays = list(arrays)
        if len(arrays) != len(self.params):
            raise ValidationError(
                f"expected {len(self.params)} parameter buffers, got {len(arrays)}"
            )
        for view, array in zip(self.views(flat), arrays):
            view[...] = array

    def gather(self) -> bool:
        """Pull rebound data and fresh gradients into the flat buffers.

        Returns False when some parameter has no gradient this step; the
        caller then updates parameter by parameter.
        """
        complete = True
        for p, view, gview in zip(self.params, self.data_views, self.grad_views):
            if p.data is not view:
                view[...] = p.data
                p.data = view
            grad = p.grad
            if grad is None:
                complete = False
            elif grad is not gview:
                np.copyto(gview, grad)
        return complete


class Optimizer:
    """Base class holding a parameter list and the ``zero_grad`` helper.

    The parameters live in one :class:`FlatParameters` buffer; an
    optimizer's state buffers share its layout, and its step runs one
    fused elementwise update over every parameter at once.
    """

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        params = list(params)
        if not params:
            raise ValidationError("optimizer got an empty parameter list")
        for p in params:
            if not isinstance(p, Parameter):
                raise ValidationError(
                    f"optimizer expects Parameters, got {type(p).__name__}"
                )
        if lr <= 0:
            raise ValidationError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = float(lr)
        self._flat = FlatParameters(params)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.zero_grad()

    def grad_buffers(self) -> dict[int, np.ndarray]:
        """``{id(param): view}`` of the flat gradient buffer, for a static tape."""
        return {id(p): view for p, view in zip(self.params, self._flat.grad_views)}

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValidationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValidationError(f"weight_decay must be >= 0, got {weight_decay}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity_flat = self._flat.zeros()
        self._scratch = self._flat.zeros()

    @property
    def _velocity(self) -> list[np.ndarray]:
        """Per-parameter views of the momentum buffer (the checkpoint layout)."""
        return self._flat.views(self._velocity_flat)

    @_velocity.setter
    def _velocity(self, arrays: Sequence[np.ndarray]) -> None:
        self._flat.assign(self._velocity_flat, arrays)

    def step(self) -> None:
        """One update over the flat buffer; parameter by parameter if a grad is missing."""
        flat = self._flat
        if flat.gather():
            self._update(flat.data, flat.grad, self._velocity_flat, self._scratch)
            return
        for p, vel, buf in zip(
            self.params, self._velocity, flat.views(self._scratch)
        ):
            if p.grad is not None:
                self._update(p.data, p.grad, vel, buf)

    def _update(self, data, grad, vel, buf) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        if self.momentum:
            vel *= self.momentum
            vel += grad
            grad = vel
        # lr * grad staged through the scratch buffer: same multiply and
        # subtract, no per-step allocations.
        np.multiply(grad, self.lr, out=buf)
        data -= buf


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValidationError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValidationError(f"eps must be positive, got {eps}")
        if weight_decay < 0.0:
            raise ValidationError(f"weight_decay must be >= 0, got {weight_decay}")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m_flat = self._flat.zeros()
        self._v_flat = self._flat.zeros()
        self._scratch = (self._flat.zeros(), self._flat.zeros())
        self._t = 0

    @property
    def _m(self) -> list[np.ndarray]:
        """Per-parameter views of the first moment (the checkpoint layout)."""
        return self._flat.views(self._m_flat)

    @_m.setter
    def _m(self, arrays: Sequence[np.ndarray]) -> None:
        self._flat.assign(self._m_flat, arrays)

    @property
    def _v(self) -> list[np.ndarray]:
        """Per-parameter views of the second moment (the checkpoint layout)."""
        return self._flat.views(self._v_flat)

    @_v.setter
    def _v(self, arrays: Sequence[np.ndarray]) -> None:
        self._flat.assign(self._v_flat, arrays)

    def step(self) -> None:
        """One bias-corrected update, fused over the flat parameter buffer.

        Every multiply/divide below targets a preallocated scratch buffer
        with ``out=``; the arithmetic (operations and their order) is
        unchanged from the textbook formulation and elementwise, so
        running it once over all parameters packed together gives the
        same bits as running it parameter by parameter — the step just
        stops allocating and stops paying ~12 numpy calls per parameter,
        which dominates small-batch training loops like GRNA's generator.
        When some parameter has no gradient the same update runs per
        parameter, skipping it.
        """
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        flat = self._flat
        buf_m, buf_v = self._scratch
        if flat.gather():
            self._update(
                flat.data, flat.grad, self._m_flat, self._v_flat, buf_m, buf_v, bias1, bias2
            )
            return
        for p, m, v, bm, bv in zip(
            self.params, self._m, self._v, flat.views(buf_m), flat.views(buf_v)
        ):
            if p.grad is not None:
                self._update(p.data, p.grad, m, v, bm, bv, bias1, bias2)

    def _update(self, data, grad, m, v, buf_m, buf_v, bias1, bias2) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=buf_m)
        m += buf_m
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=buf_v)
        buf_v *= grad
        v += buf_v
        np.divide(m, bias1, out=buf_m)  # m_hat
        np.divide(v, bias2, out=buf_v)  # v_hat
        np.sqrt(buf_v, out=buf_v)
        buf_v += self.eps
        buf_m *= self.lr
        buf_m /= buf_v
        data -= buf_m


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


def make_optimizer(name: str, params: Sequence[Parameter], lr: float, **kwargs) -> Optimizer:
    """Build an optimizer by name (``"sgd"`` or ``"adam"``)."""
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        raise ValidationError(
            f"unknown optimizer {name!r}; choose from {sorted(OPTIMIZERS)}"
        ) from None
    return cls(params, lr=lr, **kwargs)

"""A reverse-mode automatic-differentiation engine over numpy arrays.

This module stands in for PyTorch's autograd in the paper reproduction.
:class:`Tensor` wraps a ``numpy.ndarray`` and records the operations applied
to it; calling :meth:`Tensor.backward` walks the recorded graph in reverse
topological order and accumulates gradients into every tensor created with
``requires_grad=True``.

Design notes
------------
- All data is ``float64``. The attacks in this library are optimization
  procedures whose analysis (e.g. ESA exactness) relies on high precision.
- Every operation is a :class:`Function`: an array-level ``forward`` and
  ``backward`` kernel pair with no hidden state. A graph node stores its
  function, its parents and what the forward saved for the backward, so
  the same kernels serve the dynamic tape here and the recorded
  :class:`~repro.tensor.tape.StaticTape`, which replays a fixed-shape
  graph without rebuilding it.
- Broadcasting follows numpy semantics; gradients of broadcast operands are
  reduced back to the operand's shape by :func:`unbroadcast`.
- The graph is built eagerly and is acyclic by construction; ``backward``
  uses an explicit stack-based topological sort so deep generator+model
  compositions cannot hit the interpreter recursion limit.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import GradientError, ShapeError, ValidationError

ArrayLike = "np.ndarray | float | int | list | tuple"

#: Creation stamps of graph nodes: a node's stamp is larger than its
#: parents', so sorting by stamp replays a graph in construction order.
_STAMPS = itertools.count()


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Sums over the axes that were added or expanded by numpy broadcasting so
    that the returned gradient has exactly ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra < 0:
        raise ShapeError(f"cannot unbroadcast {grad.shape} to {shape}")
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    if grad.shape != shape:
        raise ShapeError(f"unbroadcast produced {grad.shape}, expected {shape}")
    return grad


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


# ----------------------------------------------------------------------
# Functions: array kernels shared by the dynamic and the static tape
# ----------------------------------------------------------------------
class Function:
    """One operation of the graph as a pair of array kernels.

    ``forward(*arrays)`` returns ``(data, saved)``: the output array and
    whatever the backward needs besides the parents' data. ``backward``
    receives the upstream gradient, that ``saved`` value and the parent
    tensors, and returns one entry per parent: ``None`` (no gradient), an
    array, or a tuple of arrays that are accumulated in order. Entries may
    have the broadcast output shape; the engine reduces them with
    :func:`unbroadcast`. Kernels never mutate their inputs, so a gradient
    may alias the upstream one.

    A replayed graph calls ``forward_into`` and ``backward_into`` instead,
    handing each kernel what it returned at the previous step. A kernel
    that allocates its results implements these forms and writes into
    those arrays — same shapes and memory layouts, so same bits — when
    given them (``None`` entries mean allocate); the plain forms then
    call them with nothing to reuse. Every kernel implements one form of
    each pair.
    """

    __slots__ = ()
    name = "op"
    #: False for functions whose output is a constant of the graph (the
    #: node never requires grad, whatever its parents do).
    differentiable = True

    def forward(self, *arrays: np.ndarray) -> tuple[np.ndarray, object]:
        return self.forward_into(None, None, *arrays)

    def backward(self, grad: np.ndarray, saved, parents: Sequence["Tensor"]) -> tuple:
        return self.backward_into(_NOTHING, grad, saved, parents)

    def forward_into(
        self, out: np.ndarray, saved, *arrays: np.ndarray
    ) -> tuple[np.ndarray, object]:
        """:meth:`forward`, free to reuse the previous step's ``out`` and ``saved``."""
        return self.forward(*arrays)

    def backward_into(self, previous: tuple, grad: np.ndarray, saved, parents) -> tuple:
        """:meth:`backward`, free to reuse the arrays it returned at the previous step."""
        return self.backward(grad, saved, parents)


#: What a kernel reuses when there is no previous step.
_NOTHING = (None, None)


class _Add(Function):
    __slots__ = ()
    name = "add"

    def forward_into(self, out, saved, a, b):
        return np.add(a, b, out=out), None

    def backward(self, grad, saved, parents):
        a, b = parents
        return (grad if a.requires_grad else None, grad if b.requires_grad else None)


class _Mul(Function):
    __slots__ = ()
    name = "mul"

    def forward_into(self, out, saved, a, b):
        return np.multiply(a, b, out=out), None

    def backward_into(self, previous, grad, saved, parents):
        a, b = parents
        return (
            np.multiply(grad, b.data, out=previous[0]) if a.requires_grad else None,
            np.multiply(grad, a.data, out=previous[1]) if b.requires_grad else None,
        )


class _Pow(Function):
    __slots__ = ("exponent",)
    name = "pow"

    def __init__(self, exponent: float) -> None:
        self.exponent = exponent

    def forward(self, a):
        return a ** self.exponent, None

    def backward(self, grad, saved, parents):
        (a,) = parents
        exponent = self.exponent
        return (grad * exponent * a.data ** (exponent - 1.0),)


class _Exp(Function):
    __slots__ = ()
    name = "exp"

    def forward_into(self, out, saved, a):
        out = np.exp(a, out=out)
        return out, out

    def backward_into(self, previous, grad, out, parents):
        return (np.multiply(grad, out, out=previous[0]),)


class _Log(Function):
    __slots__ = ()
    name = "log"

    def forward(self, a):
        return np.log(a), None

    def backward(self, grad, saved, parents):
        return (grad / parents[0].data,)


class _Tanh(Function):
    __slots__ = ()
    name = "tanh"

    def forward(self, a):
        out = np.tanh(a)
        return out, out

    def backward(self, grad, out, parents):
        return (grad * (1.0 - out * out),)


class _Sigmoid(Function):
    __slots__ = ()
    name = "sigmoid"

    def forward(self, a):
        from repro.utils.numeric import sigmoid as _sigmoid

        out = _sigmoid(a)
        return out, out

    def backward(self, grad, out, parents):
        return (grad * out * (1.0 - out),)


class _Relu(Function):
    __slots__ = ()
    name = "relu"

    def forward_into(self, out, mask, a):
        # Equals np.where(a > 0, a, 0.0) bit for bit, without its
        # branch-per-element cost: fmax maps every a <= 0 and NaN to a
        # zero, and adding 0.0 turns a -0.0 into +0.0.
        mask = np.greater(a, 0, out=mask)
        out = np.fmax(a, 0.0, out=out)
        out += 0.0
        return out, mask

    def backward_into(self, previous, grad, mask, parents):
        return (np.multiply(grad, mask, out=previous[0]),)


class _Abs(Function):
    __slots__ = ()
    name = "abs"

    def forward(self, a):
        return np.abs(a), np.sign(a)

    def backward(self, grad, sign, parents):
        return (grad * sign,)


class _Clip(Function):
    __slots__ = ("low", "high")
    name = "clip"

    def __init__(self, low: float, high: float) -> None:
        self.low, self.high = low, high

    def forward(self, a):
        mask = (a >= self.low) & (a <= self.high)
        return np.clip(a, self.low, self.high), mask

    def backward(self, grad, mask, parents):
        return (grad * mask,)


class _Sum(Function):
    __slots__ = ("axis", "keepdims")
    name = "sum"

    def __init__(self, axis, keepdims: bool) -> None:
        self.axis, self.keepdims = axis, keepdims

    def forward(self, a):
        return a.sum(axis=self.axis, keepdims=self.keepdims), None

    def backward_into(self, previous, grad, saved, parents):
        data = parents[0].data
        g = grad
        if self.axis is not None and not self.keepdims:
            axes = (self.axis,) if isinstance(self.axis, int) else tuple(self.axis)
            g = np.expand_dims(g, axis=tuple(a % data.ndim for a in axes))
        full = np.broadcast_to(g, data.shape)
        if previous[0] is None:
            return (full.copy(),)
        np.copyto(previous[0], full)
        return previous


class _DetachedMax(Function):
    """The max of the data as a graph constant (softmax's stability shift)."""

    __slots__ = ("axis", "keepdims")
    name = "detached_max"
    differentiable = False

    def __init__(self, axis, keepdims: bool) -> None:
        self.axis, self.keepdims = axis, keepdims

    def forward(self, a):
        return a.max(axis=self.axis, keepdims=self.keepdims), None


class _Reshape(Function):
    __slots__ = ("shape",)
    name = "reshape"

    def __init__(self, shape: tuple) -> None:
        self.shape = shape

    def forward(self, a):
        return a.reshape(self.shape), None

    def backward(self, grad, saved, parents):
        return (grad.reshape(parents[0].data.shape),)


class _Transpose(Function):
    __slots__ = ()
    name = "transpose"

    def forward(self, a):
        return a.T, None

    def backward(self, grad, saved, parents):
        return (grad.T,)


def _scatter_add(data: np.ndarray, key, grad: np.ndarray) -> np.ndarray:
    """Gradient of ``data[key]``: ``grad`` added at ``key`` into zeros like ``data``."""
    full = np.zeros_like(data)
    np.add.at(full, key, grad)
    return full


class _GetItem(Function):
    __slots__ = ("key",)
    name = "getitem"

    def __init__(self, key) -> None:
        self.key = key

    def forward(self, a):
        return a[self.key], None

    def backward(self, grad, saved, parents):
        return (_scatter_add(parents[0].data, self.key, grad),)


class _Take(Function):
    """``x[index]`` with the index a graph input (an integer-valued tensor).

    ``pick`` gathers one column per row, ``x[arange(n), index]``;
    otherwise whole rows, ``x[index]``. Same values and gradients as
    :class:`_GetItem` with the equivalent key, but the key is read from
    the parent at every replay instead of being frozen into the node.
    """

    __slots__ = ("pick",)
    name = "take"

    def __init__(self, pick: bool) -> None:
        self.pick = pick

    def forward(self, a, index):
        index = index.astype(np.int64)
        key = (np.arange(index.shape[0]), index) if self.pick else index
        return a[key], key

    def backward(self, grad, key, parents):
        x = parents[0]
        return (_scatter_add(x.data, key, grad) if x.requires_grad else None, None)


class _MatMul(Function):
    __slots__ = ()
    name = "matmul"

    def forward_into(self, out, saved, a, b):
        return np.matmul(a, b, out=out), None

    def backward_into(self, previous, grad, saved, parents):
        a, b = parents
        return (
            np.matmul(grad, b.data.T, out=previous[0]) if a.requires_grad else None,
            np.matmul(a.data.T, grad, out=previous[1]) if b.requires_grad else None,
        )


class _Concat(Function):
    __slots__ = ("axis",)
    name = "concat"

    def __init__(self, axis: int) -> None:
        self.axis = axis

    def forward(self, *arrays):
        out = np.concatenate(arrays, axis=self.axis)
        ax = self.axis % out.ndim
        offsets = np.cumsum([0] + [a.shape[ax] for a in arrays])
        return out, (ax, offsets)

    def backward(self, grad, saved, parents):
        ax, offsets = saved
        grads = []
        for t, start, stop in zip(parents, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[ax] = slice(int(start), int(stop))
                grads.append(grad[tuple(index)])
            else:
                grads.append(None)
        return tuple(grads)


class _Dropout(Function):
    """Inverted dropout; the mask is drawn from ``rng`` at every forward."""

    __slots__ = ("p", "rng")
    name = "dropout"

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        self.p, self.rng = p, rng

    def forward(self, a):
        mask = (self.rng.random(a.shape) >= self.p) / (1.0 - self.p)
        return a * mask, mask

    def backward(self, grad, mask, parents):
        return (grad * mask,)


_ADD, _MUL, _EXP, _LOG = _Add(), _Mul(), _Exp(), _Log()
_TANH, _SIGMOID, _RELU, _ABS = _Tanh(), _Sigmoid(), _Relu(), _Abs()
_TRANSPOSE, _MATMUL = _Transpose(), _MatMul()


def apply(fn: Function, *parents: "Tensor") -> "Tensor":
    """Run ``fn`` forward on ``parents`` and return the new graph node."""
    data, saved = fn.forward(*[p.data for p in parents])
    out = Tensor.__new__(Tensor)
    out.data = _as_array(data)
    out.grad = None
    out.requires_grad = fn.differentiable and any(p.requires_grad for p in parents)
    out._parents = parents
    out._fn = fn
    out._saved = saved
    out._stamp = next(_STAMPS)
    return out


class Tensor:
    """A node in the autodiff graph wrapping a float64 numpy array.

    Parameters
    ----------
    data:
        Array-like payload; copied to ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_fn", "_saved", "_stamp")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._fn: Function | None = None
        self._saved = None
        self._stamp = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return a copy of the underlying data as a plain ndarray."""
        return self.data.copy()

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def detach(self) -> "Tensor":
        """Return a new leaf tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", grad" if self.requires_grad else ""
        op = "leaf" if self._fn is None else self._fn.name
        return f"Tensor(shape={self.shape}, op={op}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if grad.shape != self.data.shape:
            raise GradientError(
                f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to ones (and must be supplied
            explicitly for non-scalar outputs only if a different seed is
            desired).
        """
        if not self.requires_grad:
            raise GradientError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise GradientError(
                    f"seed gradient shape {grad.shape} != output shape {self.data.shape}"
                )

        order = self._topological_order()
        self._accumulate(grad)
        for node in order:
            if node._fn is not None and node.requires_grad and node.grad is not None:
                parents = node._parents
                grads = node._fn.backward(node.grad, node._saved, parents)
                for parent, g in zip(parents, grads):
                    if g is None:
                        continue
                    for part in g if type(g) is tuple else (g,):
                        parent._accumulate(unbroadcast(part, parent.data.shape))

    def _topological_order(self) -> list["Tensor"]:
        """Reverse topological order starting at ``self`` (iterative DFS)."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return apply(_ADD, self, _ensure_tensor(other))

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        return apply(_MUL, self, _ensure_tensor(other))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-_ensure_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _ensure_tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = _ensure_tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return _ensure_tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise ValidationError("tensor exponents are not supported; use exp/log")
        return apply(_Pow(float(exponent)), self)

    # ------------------------------------------------------------------
    # Transcendental ops
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        return apply(_EXP, self)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return apply(_LOG, self)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self ** 0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return apply(_TANH, self)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid with a numerically stable forward."""
        return apply(_SIGMOID, self)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        return apply(_RELU, self)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at the origin)."""
        return apply(_ABS, self)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        return apply(_Clip(low, high), self)

    def dropout(self, p: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout with a fresh ``rng`` mask at every forward."""
        return apply(_Dropout(p, rng), self)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        return apply(_Sum(axis, keepdims), self)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Population variance (``ddof=0``) over ``axis``, differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        diff = self - mu
        return (diff * diff).mean(axis=axis, keepdims=keepdims)

    def detached_max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Max of the data (for numerically-stable softmax shifts), as a constant.

        The node never requires grad — shifting by the max does not change
        softmax's value or gradient — but, unlike a fresh leaf wrapping the
        array, it is recomputed when a recorded graph is replayed.
        """
        return apply(_DetachedMax(axis, keepdims), self)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of the tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return apply(_Reshape(shape), self)

    @property
    def T(self) -> "Tensor":
        """Matrix transpose (2-D only)."""
        if self.data.ndim != 2:
            raise ShapeError(f"T requires a 2-D tensor, got shape {self.shape}")
        return apply(_TRANSPOSE, self)

    def __getitem__(self, key) -> "Tensor":
        return apply(_GetItem(key), self)

    def take_rows(self, index: "Tensor") -> "Tensor":
        """``self[index]`` for an integer-valued index tensor."""
        return apply(_Take(pick=False), self, index)

    def pick(self, index: "Tensor") -> "Tensor":
        """``self[arange(n), index]``: entry ``index[i]`` of each row ``i``."""
        return apply(_Take(pick=True), self, index)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product ``self @ other`` for 2-D operands."""
        other = _ensure_tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError(
                f"matmul requires 2-D tensors, got {self.shape} and {other.shape}"
            )
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeError(f"matmul shape mismatch: {self.shape} @ {other.shape}")
        return apply(_MATMUL, self, other)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)


def _ensure_tensor(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def _raise_item(t: Tensor):
    raise ValidationError(f"item() requires a single-element tensor, got shape {t.shape}")


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing.

    Used to join the adversary's known features with the generator's output
    before feeding the VFL model (Algorithm 2, line 9).
    """
    tensors = [_ensure_tensor(t) for t in tensors]
    if not tensors:
        raise ValidationError("concat requires at least one tensor")
    return apply(_Concat(axis), *tensors)


def stack_rows(tensors: Iterable[Tensor]) -> Tensor:
    """Stack 1-D tensors as rows of a 2-D tensor."""
    tensors = [_ensure_tensor(t) for t in tensors]
    reshaped = [t.reshape(1, -1) if t.ndim == 1 else t for t in tensors]
    return concat(reshaped, axis=0)


class _Assemble(Function):
    __slots__ = ("constant_positions", "variable_positions")
    name = "assemble"

    def __init__(self, constant_positions: np.ndarray, variable_positions: np.ndarray) -> None:
        self.constant_positions = constant_positions
        self.variable_positions = variable_positions

    def forward(self, constant, variable):
        # Column-major on purpose: the composition this fuses ends in a
        # column-gather (`concat(...)[:, perm]`) whose result numpy lays out
        # F-contiguously, and BLAS picks its reassociation by operand layout —
        # a C-ordered buffer here would flip downstream matmul bits by 1 ulp.
        width = self.constant_positions.size + self.variable_positions.size
        out = np.empty((constant.shape[0], width), order="F")
        out[:, self.constant_positions] = constant
        out[:, self.variable_positions] = variable
        return out, None

    def backward(self, grad, saved, parents):
        variable = parents[1]
        return (None, grad[:, self.variable_positions] + 0.0 if variable.requires_grad else None)


def assemble_columns(
    constant: "np.ndarray | Tensor",
    variable: Tensor,
    constant_positions: np.ndarray,
    variable_positions: np.ndarray,
) -> Tensor:
    """Scatter a constant block and a tensor block into interleaved columns.

    Single-node fusion of ``concat([constant, variable], axis=1)[:, perm]``
    — the "x_adv ∪ x̂_target" reassembly on GRNA's training hot path
    (Algorithm 2 line 9). The forward is one scatter instead of a
    concatenate plus a full-width gather, and the backward is one gather
    of the variable columns instead of an ``np.add.at`` scatter over the
    full joint width. Both the output and the gradient bytes are
    identical to the composition this replaces: the positions partition
    the column range, so ``add.at`` degenerates to assignment, and the
    trailing ``+ 0.0`` reproduces its ``0.0 + g`` zero-sign behavior.
    ``constant`` may be a tensor (a graph input); it receives no gradient.
    """
    constant = _ensure_tensor(constant)
    if constant.ndim != 2 or variable.ndim != 2:
        raise ShapeError(
            f"assemble_columns requires 2-D blocks, got {constant.shape} and {variable.shape}"
        )
    if constant.shape[0] != variable.shape[0]:
        raise ShapeError(
            f"row mismatch: {constant.shape[0]} vs {variable.shape[0]}"
        )
    constant_positions = np.asarray(constant_positions, dtype=np.int64)
    variable_positions = np.asarray(variable_positions, dtype=np.int64)
    width = constant_positions.size + variable_positions.size
    if constant.shape[1] != constant_positions.size or variable.shape[1] != variable_positions.size:
        raise ShapeError(
            "column positions do not match block widths: "
            f"{constant.shape[1]}/{constant_positions.size} and "
            f"{variable.shape[1]}/{variable_positions.size}"
        )
    combined = np.concatenate([constant_positions, variable_positions])
    combined.sort()
    if not np.array_equal(combined, np.arange(width)):
        raise ValidationError(
            "constant_positions and variable_positions must partition "
            f"the output columns 0..{width - 1} exactly"
        )
    if constant.requires_grad:
        raise GradientError("assemble_columns routes no gradient to its constant block")
    return apply(_Assemble(constant_positions, variable_positions), constant, variable)

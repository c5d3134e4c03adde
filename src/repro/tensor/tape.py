"""Static tape: record a fixed-shape graph once, replay it on new inputs.

A training loop builds the same graph at every step: the same functions
in the same order over arrays of the same shapes; only the batch data
and the parameter values change. :class:`StaticTape` takes one such
graph, built from placeholder input tensors up to a scalar loss, and
keeps what the dynamic :meth:`Tensor.backward` re-derives at every call:
the forward schedule (construction order), the reverse topological
order, where every gradient goes and how often each gradient is
accumulated. :meth:`StaticTape.replay` then reruns the recorded
functions' forward kernels on new input arrays and their backward
kernels in the recorded order, without building tensors, closures or a
traversal.

The kernels are the graph's own :class:`~repro.tensor.tensor.Function`
objects and every gradient is accumulated in the dynamic tape's order
(the first contribution copied, later ones added in place), so a replay
is bit-identical to rebuilding the graph and calling ``backward``. The
dynamic tape stays the oracle: a graph may only read step-dependent data
through its input placeholders or parameters; a constant leaf that
shares memory with an input is refused at record time.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import GradientError, ShapeError
from repro.tensor.tensor import Tensor, _as_array, unbroadcast


class StaticTape:
    """A recorded graph from input placeholders to a scalar loss.

    Parameters
    ----------
    loss:
        Scalar output of a graph built from ``inputs`` (and parameters).
    inputs:
        The placeholder leaves that :meth:`replay` rebinds to new arrays.
        They must not require grad.
    grad_buffers:
        Optional ``{id(leaf): array}``: preallocated arrays the gradient
        of those leaves is written into (an optimizer's flat gradient
        views), instead of fresh arrays.
    """

    def __init__(
        self,
        loss: Tensor,
        inputs: Sequence[Tensor],
        grad_buffers: "Mapping[int, np.ndarray] | None" = None,
    ) -> None:
        if not loss.requires_grad:
            raise GradientError("cannot record a tape for a loss that does not require grad")
        self.loss = loss
        self.inputs = tuple(inputs)
        order = loss._topological_order()
        input_ids = {id(t) for t in self.inputs}
        for t in self.inputs:
            if t._fn is not None or t.requires_grad:
                raise GradientError("tape inputs must be leaves that do not require grad")
        for node in order:
            if node._fn is None and id(node) not in input_ids and not node.requires_grad:
                for t in self.inputs:
                    if np.may_share_memory(node.data, t.data):
                        raise GradientError(
                            "a constant of the recorded graph shares memory with a "
                            "tape input; pass the input placeholder instead of its array"
                        )
        ops = [node for node in order if node._fn is not None]
        self._forward = [
            (node, node._fn, node._parents) for node in sorted(ops, key=lambda n: n._stamp)
        ]
        grad_nodes = [node for node in ops if node.requires_grad]
        self._leaves = [node for node in order if node._fn is None and node.requires_grad]
        slot_of = {id(node): i for i, node in enumerate(grad_nodes + self._leaves)}
        self._backward = [
            (
                node._fn,
                node,
                node._parents,
                tuple(
                    (slot_of[id(p)], p.data.shape) if p.requires_grad else None
                    for p in node._parents
                ),
            )
            for node in grad_nodes
        ]
        self._n_slots = len(slot_of)
        buffers = grad_buffers or {}
        self._buffers = [None] * len(grad_nodes) + [
            buffers.get(id(leaf)) for leaf in self._leaves
        ]
        # What each backward kernel returned at the previous step: the
        # arrays it may write the next step's gradients into.
        self._previous: list = [None] * len(grad_nodes)
        # Per backward node, how each contribution is routed; planned by
        # the first backward (see :meth:`_plan`).
        self._routes: "list[tuple] | None" = None

    def replay(self, arrays: Sequence[np.ndarray]) -> Tensor:
        """Rerun forward and backward on new input arrays; return the loss.

        Gradients land in the recorded leaves' ``grad`` (in the
        preallocated buffers where given), as after ``loss.backward()``.
        Arrays of the previous step — node values, intermediate and leaf
        gradients — are reused as this step's buffers.
        """
        if len(arrays) != len(self.inputs):
            raise ShapeError(f"tape takes {len(self.inputs)} inputs, got {len(arrays)}")
        for placeholder, array in zip(self.inputs, arrays):
            array = _as_array(array)
            if array.shape != placeholder.data.shape:
                raise ShapeError(
                    f"tape input recorded with shape {placeholder.data.shape}, got {array.shape}"
                )
            placeholder.data = array
        for node, fn, parents in self._forward:
            data, node._saved = fn.forward_into(node.data, node._saved, *[p.data for p in parents])
            node.data = data if type(data) is np.ndarray else _as_array(data)
        self.backward()
        return self.loss

    def backward(self) -> None:
        """Backpropagate the current forward values through the recorded order."""
        if self._routes is None:
            self._plan()
            return
        grads: list = [None] * self._n_slots
        grads[0] = np.ones_like(self.loss.data)
        previous = self._previous
        for k, (fn, node, parents, routes) in enumerate(self._routes):
            if previous[k] is None:
                contributions = fn.backward(grads[k], node._saved, parents)
            else:
                contributions = previous[k] = fn.backward_into(
                    previous[k], grads[k], node._saved, parents
                )
            for pos, part_index, slot, shape, into in routes:
                part = contributions[pos]
                if part_index >= 0:
                    part = part[part_index]
                if shape is not None:
                    part = unbroadcast(part, shape)
                if into is _ADD:
                    grads[slot] += part
                elif into is None:
                    grads[slot] = part
                else:
                    np.copyto(into, part)
                    grads[slot] = into
        self._publish(grads)

    def _plan(self) -> None:
        """First backward: accumulate as the dynamic tape does and plan the rest.

        Every first contribution to a slot is copied (into the leaf's
        preallocated buffer where there is one) and later ones added in
        place. The pass records, per contribution, whether it needs
        unbroadcasting and where it goes: added into the slot, copied into
        a buffer kept for later steps (slots that accumulate several
        contributions, preallocated leaf buffers, non C-contiguous
        contributions — a copy is C-ordered), or taken as the slot's
        gradient itself (received once, so never added into).
        """
        grads: list = [None] * self._n_slots
        grads[0] = np.ones_like(self.loss.data)
        received: list[list] = [[] for _ in range(self._n_slots)]
        routes = []
        for k, (fn, node, parents, targets) in enumerate(self._backward):
            contributions = fn.backward(grads[k], node._saved, parents)
            # Numpy scalars (gradients of 0-d values) cannot be written into.
            if all(type(g) is not np.float64 for g in contributions):
                self._previous[k] = contributions
            node_routes = []
            for pos, (target, g) in enumerate(zip(targets, contributions)):
                if g is None or target is None:
                    continue
                slot, shape = target
                parts = g if type(g) is tuple else (g,)
                for part_index, part in enumerate(parts):
                    reduced = unbroadcast(part, shape)
                    route = [pos, part_index if type(g) is tuple else -1, slot,
                             shape if reduced is not part else None, _ADD]
                    if grads[slot] is None:
                        buffer = self._buffers[slot]
                        if buffer is None:
                            buffer = reduced.copy()
                        else:
                            np.copyto(buffer, reduced)
                        grads[slot] = buffer
                        route[4] = (buffer, reduced.flags.c_contiguous)
                    else:
                        grads[slot] += reduced
                    received[slot].append(route)
                    node_routes.append(route)
            routes.append((fn, node, parents, node_routes))
        for slot, slot_routes in enumerate(received):
            if not slot_routes:
                continue
            buffer, contiguous = slot_routes[0][4]
            single = len(slot_routes) == 1 and self._buffers[slot] is None and contiguous
            slot_routes[0][4] = None if single else buffer
        self._routes = [
            (fn, node, parents, tuple(tuple(route) for route in node_routes))
            for fn, node, parents, node_routes in routes
        ]
        self._publish(grads)

    def _publish(self, grads: list) -> None:
        offset = self._n_slots - len(self._leaves)
        for i, leaf in enumerate(self._leaves):
            leaf.grad = grads[offset + i]


#: Route marker: the contribution is added into the slot's gradient.
_ADD = "add"

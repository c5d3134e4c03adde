"""One optimizer step of a fixed-shape training loop, recorded once and replayed.

:class:`TrainStep` runs ``zero_grad → forward → backward → step`` for a
loss built by a function of the batch arrays. The first batch of each
shape is recorded as a :class:`~repro.tensor.tape.StaticTape` whose
parameter gradients land directly in the optimizer's flat gradient
buffer; every later batch of that shape replays its tape. An epoch has
at most two batch shapes (full batches and the short last one), so at
most two graphs are kept — as many as the dynamic loop holds at its
peak, when the previous step's graph is still referenced while the next
one is built; batches of any further shape run on the dynamic tape.
Either way the loss, the gradients and therefore the whole training
trajectory are bit-identical to the dynamic loop.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.optim import Optimizer
from repro.tensor.tape import StaticTape
from repro.tensor.tensor import Tensor

#: Recorded batch shapes kept at once: an epoch's full and last batch.
#: At 0 every step runs on the dynamic tape, the oracle the replay is
#: checked against.
_MAX_TAPES = 2


class TrainStep:
    """``step(*arrays) -> loss`` for ``build(*placeholders) -> scalar loss``.

    ``build`` receives one leaf tensor per array and must read the batch
    only through them (see :class:`~repro.tensor.tape.StaticTape`).
    """

    def __init__(self, build: Callable[..., Tensor], optimizer: Optimizer) -> None:
        self.build = build
        self.optimizer = optimizer
        self._tapes: dict[tuple, StaticTape] = {}

    def __call__(self, *arrays: np.ndarray) -> float:
        """Run one step on a batch and return its loss."""
        self.optimizer.zero_grad()
        shapes = tuple(np.shape(a) for a in arrays)
        tape = self._tapes.get(shapes)
        if tape is not None:
            loss = tape.replay(arrays)
        else:
            inputs = [Tensor(a) for a in arrays]
            loss = self.build(*inputs)
            if len(self._tapes) < _MAX_TAPES:
                tape = self._tapes[shapes] = StaticTape(
                    loss, inputs, self.optimizer.grad_buffers()
                )
                tape.backward()
            else:
                loss.backward()
        self.optimizer.step()
        return loss.item()

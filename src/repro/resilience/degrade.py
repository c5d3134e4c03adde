"""Degradation strategies: serving a round without one of its parties.

When retries are exhausted but the surviving coalition still meets the
configured quorum, the protocol round *imputes* the missing party's
feature block instead of failing the round. The imputation strategies
live in the :data:`DEGRADATIONS` registry so scenarios select them by
name (``degradation="zero_fill"``) and extensions can register new ones
without touching the runtime.

A strategy is a function ``(party, shape, cache) -> ndarray`` returning
a float64 block of exactly ``shape``. The :class:`ReplyCache` passed in
holds the most recent successfully decoded block per party — bounded by
construction at one entry per party — which is what makes the
``last_known`` strategy possible without unbounded memory growth.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.registry import Registry

__all__ = ["DEGRADATIONS", "ReplyCache", "last_known", "zero_fill"]

#: Named imputation strategies for quorum-degraded rounds.
DEGRADATIONS = Registry("degradation strategy")


class ReplyCache:
    """Last successfully decoded reply block, per party.

    One slot per party — ``put`` overwrites, so memory is bounded by the
    topology size no matter how many rounds a storm runs. Blocks are
    copied on the way in and out: a cached block must stay byte-stable
    even if the caller later mutates its array, or degraded rounds would
    stop being reproducible.
    """

    def __init__(self) -> None:
        self._blocks: dict[int, np.ndarray] = {}

    def put(self, party: int, block: np.ndarray) -> None:
        """Remember ``block`` as party ``party``'s latest good reply."""
        self._blocks[int(party)] = np.array(block, dtype=np.float64, copy=True)

    def get(self, party: int) -> "np.ndarray | None":
        """Party's latest good block (a copy), or ``None`` if never seen."""
        block = self._blocks.get(int(party))
        return None if block is None else block.copy()

    def parties(self) -> list[int]:
        """Parties with a cached block, sorted for stable iteration."""
        return sorted(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)


def _check_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    shape = tuple(int(dim) for dim in shape)
    if any(dim < 0 for dim in shape):
        raise ValidationError(f"degraded block shape must be non-negative: {shape}")
    return shape


@DEGRADATIONS.register("zero_fill")
def zero_fill(party: int, shape: tuple[int, ...], cache: ReplyCache) -> np.ndarray:
    """Impute the missing party's block as all zeros.

    The conservative default: a zero block contributes nothing to the
    score sum, equivalent to marginalizing the party out at the origin
    of its feature space.
    """
    return np.zeros(_check_shape(shape), dtype=np.float64)


@DEGRADATIONS.register("last_known")
def last_known(party: int, shape: tuple[int, ...], cache: ReplyCache) -> np.ndarray:
    """Impute with the party's most recent good block of the same shape.

    Falls back to :func:`zero_fill` when the cache has no block for the
    party yet (it failed its very first round) or the cached block was
    produced for a different batch shape — a stale mismatched block
    would be worse than an honest zero.
    """
    shape = _check_shape(shape)
    block = cache.get(party)
    if block is None or block.shape != shape:
        return np.zeros(shape, dtype=np.float64)
    return block

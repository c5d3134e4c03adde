"""The deterministic chaos engine: stochastic faults as pure functions.

Every stochastic fault decision — does party ``p`` flake in round ``r``
on attempt ``a``? how long does its reply take? which byte of the frame
flips? — is a *pure function* of ``(seed, party, round, attempt)``.
Nothing is mutated between decisions, so the answers cannot depend on
scheduler interleaving, on which other parties are still retrying, or
on where a checkpoint cut the run: the three properties that make a
storm bit-reproducible fall out of statelessness rather than careful
locking.

The per-party stream derivation reuses the library's
:func:`~repro.utils.random.spawn_rngs` prefix scheme: party ``p``'s
base seed is the ``p``-th integer of the spawn draw for ``seed``, so
the fault streams of a 3-party storm are a prefix of the same storm
widened to 10 parties. Each decision then seeds a fresh generator with
``[base, round, attempt, salt]`` — numpy hashes the sequence through
``SeedSequence``, so neighbouring rounds and attempts are decorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.utils.random import check_random_state

__all__ = ["FaultOutcome", "decision_rng", "party_stream_base"]

#: Salt values partitioning one (party, round, attempt) cell into
#: independent decision streams.
FAULT_SALT = 0
JITTER_SALT = 1


@dataclass(frozen=True)
class FaultOutcome:
    """What the chaos engine decided for one (party, round, attempt).

    Attributes
    ----------
    kind:
        ``"ok"`` (the attempt succeeds), ``"drop"``/``"crash"`` (the
        party is permanently gone — retrying is pointless), ``"flaky"``
        (this attempt fails, another may succeed), or ``"corrupt"``
        (the reply frame is bit-flipped in flight).
    latency:
        Simulated seconds the reply takes; the protocol round
        advances its :class:`~repro.resilience.SimClock` by the wave's
        slowest reply and compares each latency against the retry
        policy's per-attempt timeout.
    token:
        A deterministic 63-bit draw accompanying ``"corrupt"`` outcomes;
        the runtime derives the flipped byte/bit position from it so the
        corruption itself is reproducible.
    """

    kind: str
    latency: float = 0.0
    token: int = 0

    @property
    def permanent(self) -> bool:
        """True when retrying this party cannot help."""
        return self.kind in ("drop", "crash")

    @property
    def failed(self) -> bool:
        """True when this attempt produced no usable reply by itself.

        Timeouts are not included: a slow reply only *becomes* a failure
        against a retry policy's timeout, which the runtime owns.
        """
        return self.kind in ("drop", "crash", "flaky", "corrupt")


#: The "nothing happened" outcome shared by every un-faulted party.
OK = FaultOutcome(kind="ok")


@lru_cache(maxsize=1024)
def party_stream_base(seed: int, party: int) -> int:
    """Party ``party``'s base seed under the spawn-prefix scheme.

    The ``party``-th integer of :func:`spawn_rngs`' seed draw for
    ``seed`` — prefix-stable, so adding parties to a topology never
    changes the fault streams of the existing ones. Cached: the draw is
    O(party) and the protocol round asks per attempt.
    """
    draws = check_random_state(int(seed)).integers(0, 2**63 - 1, size=int(party) + 1)
    return int(draws[party])


def decision_rng(
    seed: int, party: int, round_id: int, attempt: int, salt: int = FAULT_SALT
) -> np.random.Generator:
    """A fresh generator for one fault decision cell.

    Pure in its arguments: the same cell always yields the same stream,
    regardless of which other cells were evaluated before it or on
    which thread — the statelessness the module docstring leans on.
    """
    return np.random.default_rng(
        [party_stream_base(seed, party), int(round_id), int(attempt), int(salt)]
    )

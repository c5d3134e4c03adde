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
widened to 10 parties. Each decision cell is the first ``random()`` of
a generator seeded with ``[base, round, attempt, salt]`` — numpy hashes
the sequence through ``SeedSequence``, so neighbouring rounds and
attempts are decorrelated.

Building that generator costs ~20 µs, almost all of it hashing, so the
hot path does not build it. :func:`decision_uniforms` replays numpy's
``SeedSequence`` mixing, PCG64 seeding and first ``random()`` as
vectorised integer arithmetic: the hash constants do not depend on the
entropy, so one pass yields a whole block of rounds, bit for bit the
values :func:`decision_rng` would give. A :class:`DecisionBlocks` holds
the current :data:`BLOCK_ROUNDS`-round block per ``(seed, party,
attempt)``; each :class:`~repro.federation.faults.FaultPlan` and
:class:`~repro.resilience.RetryPolicy` owns one, so draws live as long
as the plan or policy that made them and no two scenarios share any.
A block only caches pure values, so the statelessness argument above
still holds. Round ids of ``2**32`` and beyond add an entropy word, so
those cells fall back to :func:`decision_rng`, which stays public as
the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.random import check_random_state

__all__ = [
    "DecisionBlocks",
    "FaultOutcome",
    "decision_rng",
    "decision_uniforms",
    "party_stream_base",
]

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


# ----------------------------------------------------------------------
# Block draws: numpy's SeedSequence -> PCG64 -> random(), vectorised
# ----------------------------------------------------------------------
#: Rounds per block of decisions drawn in one vectorised pass.
BLOCK_ROUNDS = 1024

#: Round ids from here on take two entropy words; see the module docstring.
_ROUND_LIMIT = 2**32

_M32 = 0xFFFFFFFF
_M64 = 2**64 - 1
_M128 = 2**128 - 1
_U32 = np.uint32
_U64 = np.uint64


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**k`` (mod 2**32) for ``k = 0..count``: the hash
    constant sequence ``SeedSequence`` walks, fixed whatever the data."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=_U32)


# numpy.random.bit_generator's SeedSequence constants (pool size 4).
# Entropy is at most five words (a two-word base, round, attempt,
# salt): 4 initial hashes, 12 pool cross-mixes, 4 for the fifth word.
_MIX_CONSTANTS = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12 + 4)
_STATE_CONSTANTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L = _U32(0xCA01F9DD)
_MIX_MULT_R = _U32(0x4973F715)

# PCG64 seeding steps from state 0 (state = inc, state += initstate,
# step) and random() steps once more, so the state random() reads is
# initstate*M**2 + inc*(M**2 + M + 1) with inc = 2*initseq + 1, i.e.
# initstate*A + initseq*B + C below (all mod 2**128), where M is PCG's
# default 128-bit multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_PCG_A = _PCG_MULT * _PCG_MULT & _M128
_PCG_C = (_PCG_A + _PCG_MULT + 1) & _M128
_PCG_B = 2 * _PCG_C & _M128
# Rows: the factors of (initstate, initseq), as uint64 halves.
_PCG_K_HIGH = np.array([[_PCG_A >> 64], [_PCG_B >> 64]], dtype=_U64)
_PCG_K_LOW = np.array([[_PCG_A & _M64], [_PCG_B & _M64]], dtype=_U64)


def _uint32_words(value: int) -> list[int]:
    """numpy's little-endian uint32 words of a non-negative int (0 -> [0])."""
    value = int(value)
    if value < 0:
        raise ValidationError(f"entropy must be non-negative, got {value}")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hashmix(values: np.ndarray, k: int) -> np.ndarray:
    """``SeedSequence.hashmix`` of each row, rows taking hash calls k, k+1, ..."""
    rows = values.shape[0]
    out = values ^ _MIX_CONSTANTS[k : k + rows, None]
    out *= _MIX_CONSTANTS[k + 1 : k + rows + 1, None]
    out ^= out >> _U32(16)
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _U32(16)
    return out


def _seed_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(8, uint32)`` per column.

    ``entropy`` is ``(n_words, n)`` uint32, one seed per column; the
    result is ``(8, n)``. Mirrors ``SeedSequence.mix_entropy``: the
    pool rows a source row updates in one pass are independent, so each
    pass is one vectorised step.
    """
    n = entropy.shape[1]
    pool = list(_hashmix(entropy[:4], 0))
    k = 4
    for src in range(4):
        dsts = [d for d in range(4) if d != src]
        hashed = _hashmix(np.broadcast_to(pool[src], (3, n)), k)
        k += 3
        for d, row in zip(dsts, _mix(np.stack([pool[d] for d in dsts]), hashed)):
            pool[d] = row
    mixed = np.stack(pool)
    for src in range(4, entropy.shape[0]):
        mixed = _mix(mixed, _hashmix(np.broadcast_to(entropy[src], (4, n)), k))
        k += 4
    state = mixed[[0, 1, 2, 3, 0, 1, 2, 3]]
    state ^= _STATE_CONSTANTS[:8, None]
    state *= _STATE_CONSTANTS[1:9, None]
    state ^= state >> _U32(16)
    return state


def _mul_mod_2_128(high, low, k_high, k_low):
    """``(high, low) * (k_high, k_low)`` mod ``2**128``, in uint64 halves.

    The low half of ``low * k_low`` wraps for free; its high half is
    built from 32-bit pieces. The other cross terms only matter mod
    ``2**64``.
    """
    a, b = low & _U64(_M32), low >> _U64(32)
    c, d = k_low & _U64(_M32), k_low >> _U64(32)
    ac, bc, ad = a * c, b * c, a * d
    mid = (ac >> _U64(32)) + (bc & _U64(_M32)) + (ad & _U64(_M32))
    low_high = b * d + (bc >> _U64(32)) + (ad >> _U64(32)) + (mid >> _U64(32))
    return low_high + high * k_low + low * k_high, low * k_low


def _first_random(state: np.ndarray) -> np.ndarray:
    """PCG64's first ``random()`` for each column of an ``(8, n)`` seed state."""
    words = state.astype(_U64)
    seeds = words[0::2] | (words[1::2] << _U64(32))  # generate_state(4, uint64)
    # Rows (initstate, initseq); each 128-bit seed is (high, low) words.
    high, low = _mul_mod_2_128(seeds[0::2], seeds[1::2], _PCG_K_HIGH, _PCG_K_LOW)
    # state = initstate*A + initseq*B + C, carrying out of the low words.
    sum_low = low[0] + low[1]
    carry = (sum_low < low[0]).astype(_U64)
    state_low = sum_low + _U64(_PCG_C & _M64)
    carry += state_low < sum_low
    state_high = high[0] + high[1] + _U64(_PCG_C >> 64) + carry
    # XSL-RR output, then random()'s top 53 bits.
    xored = state_high ^ state_low
    rot = state_high >> _U64(58)
    out = (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))
    return (out >> _U64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def decision_uniforms(
    seed: int, party: int, rounds, attempt: int, salt: int = FAULT_SALT
) -> np.ndarray:
    """``decision_rng(seed, party, r, attempt, salt).random()`` per round.

    Bit for bit the oracle's values, in one vectorised pass over
    ``rounds`` (~0.25 µs a cell in 1024-round blocks, against ~20 µs a
    generator). Every round id must lie in ``[0, 2**32)``; larger ids
    take a second entropy word, and callers draw those cells from
    :func:`decision_rng`. ``attempt`` and ``salt`` must lie in the same
    range.
    """
    rounds = np.asarray(rounds)
    if rounds.ndim != 1:
        raise ValidationError(f"rounds must be 1-d, got shape {rounds.shape}")
    if rounds.size and (rounds.min() < 0 or rounds.max() >= _ROUND_LIMIT):
        raise ValidationError(
            f"round ids must lie in [0, 2**32) for block draws; got "
            f"{int(rounds.min())}..{int(rounds.max())}"
        )
    head = _uint32_words(party_stream_base(seed, party))
    tail = _uint32_words(attempt) + _uint32_words(salt)
    if len(tail) != 2:
        raise ValidationError(
            f"attempt and salt must lie in [0, 2**32), got {attempt}, {salt}"
        )
    entropy = np.empty((len(head) + 1 + len(tail), rounds.size), dtype=_U32)
    entropy[: len(head)] = np.array(head, dtype=_U32)[:, None]
    entropy[len(head)] = rounds
    entropy[len(head) + 1 :] = np.array(tail, dtype=_U32)[:, None]
    return _first_random(_seed_state(entropy))


class DecisionBlocks:
    """First uniforms of one salt's decision cells, drawn a block at a time.

    Holds the latest :data:`BLOCK_ROUNDS`-round block per ``(seed,
    party, attempt)``, so memory stays bounded however long a run lasts,
    and rounds advancing in order draw each block once. A reader racing
    a block swap on another thread still reads its own complete block:
    values never depend on the cache.
    """

    def __init__(self, salt: int) -> None:
        self.salt = salt
        self._blocks: dict[tuple[int, int, int], tuple[int, list[float]]] = {}

    def uniform(self, seed: int, party: int, round_id: int, attempt: int) -> float:
        """``decision_rng(seed, party, round_id, attempt, salt).random()``."""
        if not 0 <= round_id < _ROUND_LIMIT:
            return float(decision_rng(seed, party, round_id, attempt, self.salt).random())
        key = (seed, party, attempt)
        index = round_id // BLOCK_ROUNDS
        held = self._blocks.get(key)
        if held is None or held[0] != index:
            start = index * BLOCK_ROUNDS
            rounds = np.arange(start, start + BLOCK_ROUNDS, dtype=np.int64)
            held = (
                index,
                decision_uniforms(seed, party, rounds, attempt, self.salt).tolist(),
            )
            self._blocks[key] = held
        return held[1][round_id - index * BLOCK_ROUNDS]

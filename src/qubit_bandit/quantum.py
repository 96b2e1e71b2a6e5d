"""Two-branch quantum states and their seeded measurement.

Every state here is fully described by one branch probability. A lone
qubit, and a GHZ register whose parties all read the same bit, is its
chance p0 of reading 0, measured with sample_bit; an entangled pair is the
weight of its first branch. Amplitudes are real and non-negative, so
storing the probability directly keeps normalization exact by construction.
Measurement never mutates a state; callers re-prepare (or reuse) states
explicitly.

Each trial of a run draws from RandomStream(seed, trial), seeded by NumPy's
SeedSequence([seed, trial]). A multi-trial run derives every trial's seed
words in one pass with _stream_words, NumPy's documented hash vectorised
across trials, and hands each stream its row; the draws are the same.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Correlation",
    "Direction",
    "EntangledPair",
    "RandomStream",
    "measure_pair",
    "sample_bit",
    "sample_bits",
    "shift_probability",
]

_SEED_LIMIT = 2**64
# uniform() serves draws from a pre-drawn block that doubles on each refill
# up to the cap; the first block holds a 10-round coop trial's 30 draws
_BLOCK_START = 64
_BLOCK_CAP = 4096

# NumPy's SeedSequence pool hash (NEP 19, numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _is_number(value, integer: bool = False) -> bool:
    """A real (or, with integer, an integral) number that is not a bool.

    Python and numpy numbers both qualify; True would otherwise pass as 1.
    """
    # exact Python types first: the ABC check is slow, and every stream runs this
    kind = type(value)
    if kind is int or (kind is float and not integer):
        return True
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_probability(name: str, value: float) -> float:
    """value as a Python float, or ValueError when it is not a probability."""
    # also rejects NaN, since both comparisons come back False
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def _check_fraction(name: str, value: float) -> float:
    """value as a Python float, or ValueError when it is not in (0, 1]."""
    if not (_is_number(value) and 0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return float(value)


def _check_count(name: str, value: int, minimum: int) -> int:
    """value as a Python int, or ValueError when it is not an integer >= minimum."""
    if not (_is_number(value, integer=True) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_seed(seed: int) -> int:
    """seed as a Python int, or ValueError when it is not an integer in [0, 2**64)."""
    if not (_is_number(seed, integer=True) and 0 <= seed < _SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


class Correlation(Enum):
    """Branch structure of a two-qubit state: equal bits or opposite bits."""

    CORRELATED = "correlated"  # sqrt(p)|00> + sqrt(1-p)|11>
    ANTICORRELATED = "anticorrelated"  # sqrt(p)|01> + sqrt(1-p)|10>


class Direction(Enum):
    """Which basis outcome a probability shift favors."""

    TOWARD_ZERO = "toward0"
    TOWARD_ONE = "toward1"


# Enum class attribute lookups are slow before Python 3.12, so the update
# primitive compares against these
_TOWARD_ZERO = Direction.TOWARD_ZERO
_TOWARD_ONE = Direction.TOWARD_ONE


@dataclass(frozen=True)
class EntangledPair:
    """Two qubits restricted to two branches.

    Correlated pairs read (0, 0) with probability p_first and (1, 1)
    otherwise; anticorrelated pairs read (0, 1) and (1, 0).
    """

    correlation: Correlation
    p_first: float

    def __post_init__(self) -> None:
        if not isinstance(self.correlation, Correlation):
            raise ValueError(f"correlation must be a Correlation, got {self.correlation!r}")
        object.__setattr__(self, "p_first", _check_probability("p_first", self.p_first))


def _hasher(multiplier: int, factor: int):
    """SeedSequence's word hash: xor, step the multiplier, multiply, fold.

    The multiplier sequence does not depend on the data, so it stays a
    Python int while the words are uint32 arrays, one entry per stream.
    """

    def hash_words(value: np.ndarray) -> np.ndarray:
        nonlocal multiplier
        value = value ^ multiplier
        multiplier = multiplier * factor & _MASK32
        value = value * multiplier
        return value ^ (value >> 16)

    return hash_words


def _stream_words(seed: int, streams) -> np.ndarray:
    """SeedSequence([seed, s]).generate_state(4, np.uint64) for every s in streams.

    One row of four uint64 words per stream, in the order given: NumPy's
    pool mix run as uint32 array arithmetic across all streams at once.
    Streams must lie in [0, 2**32), where each is one entropy word.
    """
    seed = _check_seed(seed)
    streams = np.asarray(streams)
    if streams.size and not (
        streams.ndim == 1
        and streams.dtype.kind in "iu"
        and 0 <= streams.min()
        and streams.max() <= _MASK32
    ):
        raise ValueError("streams must be integers in [0, 2**32)")
    n = len(streams)
    # the entropy [seed, stream] as 32-bit words, low word first, zero-padded
    # to the pool; the seed is one word below 2**32 and two from there on
    entropy = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    columns = [np.full(n, word, np.uint32) for word in entropy]
    columns.append(streams.astype(np.uint32))
    columns += [np.zeros(n, np.uint32)] * (_POOL_SIZE - len(columns))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(column) for column in columns]
    # mix all words together, so later words affect earlier ones
    for source in range(_POOL_SIZE):
        for target in range(_POOL_SIZE):
            if source != target:
                mixed = _MIX_MULT_L * pool[target] - _MIX_MULT_R * hashmix(pool[source])
                pool[target] = mixed ^ (mixed >> 16)
    # generate_state: eight 32-bit words cycling over the pool, paired low
    # then high into four uint64 words
    hash_out = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hash_out(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    state = state.astype(np.uint64)
    return state[:, 0::2] | (state[:, 1::2] << 32)


@functools.cache
def _given_state() -> type:
    """The ISeedSequence that hands PCG64 precomputed words.

    Built on first use, because importing numpy.random costs start-up time
    and memory that a run without streams should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class GivenState(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks for its four uint64 words, which is what it holds
            return self.words

    return GivenState


class RandomStream:
    """Deterministic uniform source with derivable substreams.

    The same (seed, stream) pair always yields the same draw sequence, on any
    platform. Distinct stream indices under one root seed give statistically
    independent sequences, which is what lets trials run in any order (or
    concurrently) without changing results. uniform() and uniforms() share
    one sequence however calls to them interleave; scalar draws are served
    from a block held in reverse order, so the next draw is the last item.
    seed, stream and counts may be numpy integers, which act as Python ints.

    _words, when given, is this stream's row of _stream_words(seed, ...);
    it replaces NumPy's SeedSequence, which stays the reference otherwise.
    """

    def __init__(self, seed: int, stream: int = 0, _words: np.ndarray | None = None) -> None:
        self.seed = seed = _check_seed(seed)
        self.stream = stream = _check_count("stream", stream, 0)
        if _words is None:
            state = np.random.SeedSequence([seed, stream])
        else:
            state = _given_state()(_words)
        generator = np.random.Generator(np.random.PCG64(state))
        self._random = generator.random
        self._block: list[float] = []
        self._block_size = _BLOCK_START

    def uniform(self) -> float:
        """One draw in [0, 1)."""
        try:
            return self._block.pop()
        except IndexError:
            # refill straight from the generator: a subclass may override
            # uniforms(), and it must see only the draws callers ask for
            size = self._block_size
            self._block_size = min(2 * size, _BLOCK_CAP)
            block = self._random(size).tolist()
            block.reverse()
            self._block = block
            return block.pop()

    def uniforms(self, count: int) -> np.ndarray:
        """count draws in [0, 1), identical to count successive uniform() calls."""
        count = _check_count("count", count, 0)
        block = self._block
        held = min(count, len(block))
        head = block[len(block) - held :]
        del block[len(block) - held :]
        head.reverse()
        if held == count:
            return np.array(head, dtype=float)
        rest = self._random(count - held)
        return np.concatenate((head, rest)) if held else rest

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream={self.stream})"


def sample_bit(p_zero: float, rng: RandomStream) -> int:
    """Draw one bit that reads 0 with probability p_zero. Consumes one draw."""
    return 0 if rng.uniform() < p_zero else 1


def sample_bits(p_zero: float, count: int, rng: RandomStream) -> np.ndarray:
    """Vectorized sample_bit: count bits from one source, one draw each."""
    _check_probability("p_zero", p_zero)
    return (rng.uniforms(count) >= p_zero).astype(np.uint8)


def measure_pair(state: EntangledPair, rng: RandomStream) -> tuple[int, int]:
    """Read both halves of a pair jointly. One draw selects the branch."""
    first = rng.uniform() < state.p_first
    if state.correlation is Correlation.CORRELATED:
        return (0, 0) if first else (1, 1)
    return (0, 1) if first else (1, 0)


def shift_probability(p0: float, direction: Direction, c: float) -> float:
    """Move p0 by c toward the given outcome, clamped to [0, 1].

    This is the single update primitive every decision policy uses; c must
    be in (0, 1]. Every reference round calls it, so it checks inline.
    """
    # a float (numpy float64 included) skips the slower check, which rejects bools
    if not (isinstance(c, float) or _is_number(c)) or not 0.0 < c <= 1.0:
        raise ValueError(f"c must be in (0, 1], got {c!r}")
    if not (isinstance(p0, float) or _is_number(p0)) or not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be in [0, 1], got {p0!r}")
    if direction is _TOWARD_ZERO:
        return min(p0 + c, 1.0)
    if direction is _TOWARD_ONE:
        return max(p0 - c, 0.0)
    raise ValueError(f"direction must be a Direction, got {direction!r}")


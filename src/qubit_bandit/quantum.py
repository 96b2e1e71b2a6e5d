"""Two-branch quantum states and their seeded measurement.

Every state here is fully described by one branch probability. A lone
qubit, and a GHZ register whose parties all read the same bit, is its
chance p0 of reading 0, measured with sample_bit. The duo's anticorrelated
pair is the weight of its first branch, read by one draw in
policies.duo_conflict_assign. Amplitudes are real and non-negative, so
storing the probability directly keeps normalization exact by construction.
Measurement never mutates a state; callers re-prepare (or reuse) states
explicitly.

Each trial of a run draws from RandomStream(seed, trial): NumPy's PCG64
stream seeded by SeedSequence([seed, trial]), computed with uint64 numpy
arithmetic so that NumPy's random module, whose import costs start-up time
and memory, is never loaded. _stream_words is NumPy's
seed hash vectorised across streams. Every stream starts from
_first_blocks, which steps all streams of a chunk at once: a run hands
each trial its first block, sized to the draws the trial makes, and a lone
stream is a chunk of one with nothing drawn ahead. Refills come through
jump-ahead tables. The draws are NumPy's, bit for bit.
"""

from __future__ import annotations

import functools
import numbers
from enum import Enum

import numpy as np

__all__ = [
    "Direction",
    "RandomStream",
    "sample_bit",
    "sample_bits",
    "shift_probability",
]

_SEED_LIMIT = 2**64
# a stream's first block holds up to _BLOCK_START draws (none for a lone
# stream); uniform()'s refills start at twice that and double up to the cap
_BLOCK_START = 64
_BLOCK_CAP = 4096

# NumPy's SeedSequence pool hash (NEP 19; bit_generator.pyx in NumPy's source)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# NumPy's PCG64 (O'Neill, PCG, 2014): a 128-bit LCG, state -> a * state + inc,
# each draw one step then the XSL-RR output; 128-bit values are (hi, lo)
# pairs of uint64 words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1
_MULT = (_PCG_MULT >> 64, _PCG_MULT & _MASK64)
_TO_UNIT = 2.0**-53
# streams whose first blocks _first_blocks steps together: a few MB of arrays
_CHUNK = 2048


def _is_number(value, integer: bool = False) -> bool:
    """A real (or, with integer, an integral) number that is not a bool.

    Python and numpy numbers both qualify; True would otherwise pass as 1.
    """
    # exact ints and floats (numpy float64 included) first: the ABC check is
    # slow, and every stream runs this
    if type(value) is int or (not integer and isinstance(value, float)):
        return True
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_probability(name: str, value: float) -> float:
    """value as a Python float, or ValueError when it is not a probability."""
    # a float (numpy's float64 too) compares faster as a Python float
    if isinstance(value, float) and 0.0 <= (number := float(value)) <= 1.0:
        return number
    # also rejects NaN, since both comparisons come back False
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def _check_fraction(name: str, value: float) -> float:
    """value as a Python float, or ValueError when it is not in (0, 1]."""
    # a float (numpy's float64 too) compares faster as a Python float
    if isinstance(value, float) and 0.0 < (number := float(value)) <= 1.0:
        return number
    if not (_is_number(value) and 0.0 < value <= 1.0):
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return float(value)


def _check_count(name: str, value: int, minimum: int) -> int:
    """value as a Python int, or ValueError when it is not an integer >= minimum."""
    if not (_is_number(value, integer=True) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _check_seed(seed: int, name: str = "seed") -> int:
    """seed as a Python int, or ValueError when it is not an integer in [0, 2**64)."""
    if not (_is_number(seed, integer=True) and 0 <= seed < _SEED_LIMIT):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


class Direction(Enum):
    """Which basis outcome a probability shift favors."""

    TOWARD_ZERO = "toward0"
    TOWARD_ONE = "toward1"


# Enum class attribute lookups are slow before Python 3.12, so the update
# primitive compares against these
_TOWARD_ZERO = Direction.TOWARD_ZERO
_TOWARD_ONE = Direction.TOWARD_ONE


def _multipliers(start: int, factor: int, count: int) -> np.ndarray:
    """The first count + 1 multipliers of a SeedSequence hash, as a uint32 column.

    The sequence does not depend on the data: hash call k xors with row k
    and multiplies by row k + 1.
    """
    values = [start]
    for _ in range(count):
        values.append(values[-1] * factor & _MASK32)
    return np.array(values, np.uint32)[:, None]


# the pool hash runs 4 + 12 times, the output hash 8 times
_HASH_A = _multipliers(_INIT_A, _MULT_A, 16)
_HASH_B = _multipliers(_INIT_B, _MULT_B, 8)
# the pool hash call that mixes source word s into target word t: NumPy runs
# them s outer, t inner, after the 4 calls that fill the pool, so s's calls
# follow the 3 of each earlier source; call 0 for t == s is never read
_MIX_CALLS = np.array(
    [
        [_POOL_SIZE + 3 * s + t - (t > s) if t != s else 0 for t in range(_POOL_SIZE)]
        for s in range(_POOL_SIZE)
    ]
)
_MIX_BEFORE, _MIX_AFTER = _HASH_A[_MIX_CALLS], _HASH_A[_MIX_CALLS + 1]


def _hash(values: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """SeedSequence's word hash: xor, multiply by the next multiplier, fold."""
    value = (values ^ before) * after
    return value ^ (value >> 16)


def _stream_words(seed: int, streams) -> np.ndarray:
    """SeedSequence([seed, s]).generate_state(4, np.uint64) for every s in streams.

    One row of four uint64 words per stream, in the order given: NumPy's
    pool mix run as uint32 array arithmetic, a pool word per row and a
    stream per column. Streams must be integers in [0, 2**64).
    """
    seed = _check_seed(seed)
    array = np.asarray(streams)
    if array.dtype.kind not in "iu":
        # NumPy makes floats of ints on both sides of 2**63, so check each
        array = np.array([_check_seed(s, "stream") for s in streams], np.uint64)
    if array.size and not (array.ndim == 1 and 0 <= array.min()):
        raise ValueError("streams must be integers in [0, 2**64)")
    array = array.astype(np.uint64)
    # the entropy [seed, stream] as 32-bit words, low word first, zero-padded
    # to the pool; the seed is one word below 2**32 and two from there on. A
    # stream's high word below 2**32 is 0, which is what padding adds, so
    # every stream takes two words
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    entropy = np.zeros((_POOL_SIZE, len(array)), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words)] = array & _MASK32
    entropy[len(seed_words) + 1] = array >> 32
    pool = _hash(entropy, _HASH_A[:_POOL_SIZE], _HASH_A[1 : _POOL_SIZE + 1])
    # mix all words together, so later words affect earlier ones; a source
    # word is mixed into the other three, none of which feeds another
    for source in range(_POOL_SIZE):
        hashed = _hash(pool[source], _MIX_BEFORE[source], _MIX_AFTER[source])
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        mixed[source] = pool[source]
        pool = mixed
    # generate_state: eight 32-bit words cycling over the pool, paired low
    # then high into four uint64 words
    state = _hash(np.concatenate((pool, pool)), _HASH_B[:8], _HASH_B[1:]).astype(np.uint64)
    return (state[0::2] | (state[1::2] << 32)).T


def _mulhi(x, y):
    """High 64 bits of the 128-bit products x * y, from 32-bit limbs."""
    x0, x1 = x & _MASK32, x >> 32
    y0, y1 = y & _MASK32, y >> 32
    low, cross, cross2 = x0 * y0, x0 * y1, x1 * y0
    carry = (low >> 32) + (cross & _MASK32) + (cross2 & _MASK32)
    return x1 * y1 + (cross >> 32) + (cross2 >> 32) + (carry >> 32)


def _mul(x, y):
    """x * y mod 2**128 for (hi, lo) pairs.

    x holds uint64 arrays, y uint64 arrays or Python ints below 2**64; the
    arrays broadcast, and their products and sums wrap mod 2**64.
    """
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    return _mulhi(x_lo, y_lo) + x_hi * y_lo + x_lo * y_hi, x_lo * y_lo


def _add(x, y):
    """x + y mod 2**128 for (hi, lo) pairs, as _mul takes them."""
    (x_hi, x_lo), (y_hi, y_lo) = x, y
    lo = x_lo + y_lo
    return x_hi + y_hi + (lo < y_lo), lo


def _doubles(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """NumPy's random() of PCG64 states: XSL-RR output, top 53 bits scaled to [0, 1)."""
    folded = hi ^ lo
    rotation = hi >> 58
    out = (folded >> rotation) | (folded << ((64 - rotation) & 63))
    return (out >> 11) * _TO_UNIT


@functools.cache
def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    """a**j (row 0) and C_j (row 1) for j in 0 .. _BLOCK_CAP, as (hi, lo) uint64 arrays.

    C_j is the sum of a**i over i < j, so a**j * s + C_j * inc is the state
    j steps after s. Filled by doubling: with a**m and C_m known, rows
    i + m are a**m * a**i and a**m * C_i + C_m. Built on first use, not at
    import.
    """
    size = _BLOCK_CAP + 1
    hi, lo = np.zeros((2, size), np.uint64), np.zeros((2, size), np.uint64)
    lo[0, 0] = 1  # a**0; C_0 is 0
    # a**m and C_m from m = 1, as one-item arrays: their products wrap
    # silently, where numpy scalars would warn
    power = tuple(np.array([word], np.uint64) for word in _MULT)
    total = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    m = 1
    while m < size:
        count = min(m, size - m)
        rows_hi, rows_lo = _mul((hi[:, :count], lo[:, :count]), power)
        hi[0, m : m + count], lo[0, m : m + count] = rows_hi[0], rows_lo[0]
        hi[1, m : m + count], lo[1, m : m + count] = _add((rows_hi[1], rows_lo[1]), total)
        power, total = _mul(power, power), _add(_mul(total, power), total)
        m *= 2
    return hi, lo


def _seeded(words: np.ndarray):
    """PCG64 (state, inc) for rows of seed words, seeded as NumPy seeds it.

    initstate = w0 * 2**64 + w1 and inc = 2 * (w2 * 2**64 + w3) + 1; from
    state 0, one step (which lands on inc), add initstate, one more step.
    """
    w0, w1, w2, w3 = words.T
    inc = ((w2 << 1) | (w3 >> 63), (w3 << 1) | 1)
    return _add(_mul(_add((w0, w1), inc), _MULT), inc), inc


def _first_blocks(seed: int, streams, needed: int):
    """Per stream of the sequence streams, in order: its first
    min(needed, _BLOCK_START) draws, last draw first, and its [state hi,
    state lo, inc hi, inc lo] after them.

    This is RandomStream's _start for every stream: the streams of a chunk
    step together, one LCG step a draw, so each numpy operation serves the
    whole chunk. needed (>= 0) is the draws each stream's trial makes, so a
    short trial's stream steps no further than it reads, and a lone stream
    (needed 0) steps none; refills continue the same sequence.
    """
    size = min(needed, _BLOCK_START)
    for begin in range(0, len(streams), _CHUNK):
        state, inc = _seeded(_stream_words(seed, streams[begin : begin + _CHUNK]))
        draws = np.empty((size, len(state[0])))
        for step in range(size):
            state = _add(_mul(state, _MULT), inc)
            draws[step] = _doubles(*state)
        pcg = np.array((*state, *inc)).T.tolist()
        # a column per stream, read from the last draw up
        yield from zip(draws[::-1].T, pcg)


class RandomStream:
    """Deterministic uniform source with derivable substreams.

    The same (seed, stream) pair always yields the same draw sequence, on any
    platform: that of NumPy's Generator(PCG64(SeedSequence([seed, stream]))),
    computed here without NumPy's random module. Distinct stream indices
    under one root seed give statistically independent sequences, which is
    what lets trials run in any order (or concurrently) without changing
    results. uniform() and uniforms() share one sequence however calls to
    them interleave; scalar draws are served from a block held in reverse
    order, so the next draw is the last item. Blocks come from the jump
    tables, up to _BLOCK_CAP draws in one pass of numpy operations. seed,
    stream and counts may be numpy integers, which act as Python ints.

    _start, when given, is this stream's item of _first_blocks(seed, ...):
    its first block and the state after it, derived in bulk by a run that
    has already checked seed and stream, and taken over by the stream.
    Without it, the stream is a chunk of one with nothing drawn ahead.
    """

    def __init__(self, seed: int, stream: int = 0, _start=None) -> None:
        if _start is None:
            seed, stream = _check_seed(seed), _check_seed(stream, "stream")
            (_start,) = _first_blocks(seed, [stream], 0)
        self.seed, self.stream = seed, stream
        first, pcg = _start
        self._block: list[float] = first.tolist()
        self._block_size = 2 * _BLOCK_START
        # the state after the last draw made, then inc, as Python ints:
        # [state hi, state lo, inc hi, inc lo]
        self._pcg: list[int] = pcg

    def _draws(self, count: int) -> np.ndarray:
        """The count draws after the last one made (count >= 1)."""
        table_hi, table_lo = _jump_tables()
        state_hi, state_lo, inc_hi, inc_lo = self._pcg
        # rows a**j * state and C_j * inc, whose sum is the state j draws on
        base = (
            np.array([[state_hi], [inc_hi]], np.uint64),
            np.array([[state_lo], [inc_lo]], np.uint64),
        )
        blocks = []
        for begin in range(0, count, _BLOCK_CAP):
            steps = slice(1, min(count - begin, _BLOCK_CAP) + 1)
            terms_hi, terms_lo = _mul((table_hi[:, steps], table_lo[:, steps]), base)
            hi, lo = _add((terms_hi[0], terms_lo[0]), (terms_hi[1], terms_lo[1]))
            base[0][0], base[1][0] = hi[-1], lo[-1]
            blocks.append(_doubles(hi, lo))
        self._pcg[:2] = int(hi[-1]), int(lo[-1])
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def uniform(self) -> float:
        """One draw in [0, 1)."""
        try:
            return self._block.pop()
        except IndexError:
            # refill straight from the stream: a subclass may override
            # uniforms(), and it must see only the draws callers ask for
            size = self._block_size
            self._block_size = min(2 * size, _BLOCK_CAP)
            block = self._draws(size)[::-1].tolist()
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
        rest = self._draws(count - held)
        return np.concatenate((head, rest)) if held else rest

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream={self.stream})"


def sample_bit(p_zero: float, rng: RandomStream) -> int:
    """Draw one bit that reads 0 with probability p_zero. Consumes one draw."""
    # an exact float in range skips the full check, which rejects bools and
    # returns any other number (numpy's included) as a Python float
    if type(p_zero) is not float or not 0.0 <= p_zero <= 1.0:
        p_zero = _check_probability("p_zero", p_zero)
    return 0 if rng.uniform() < p_zero else 1


def sample_bits(p_zero: float, count: int, rng: RandomStream) -> np.ndarray:
    """Vectorized sample_bit: count bits from one source, one draw each."""
    _check_probability("p_zero", p_zero)
    return (rng.uniforms(count) >= p_zero).astype(np.uint8)


def shift_probability(p0: float, direction: Direction, c: float) -> float:
    """Move p0 by c toward the given outcome, clamped to [0, 1].

    This is the single update primitive every decision policy uses; c must
    be in (0, 1]. Every reference round calls it, so exact floats in range
    skip the full check; any other number (numpy's included) is checked and
    taken as a Python float, so the result is one too.
    """
    if type(c) is not float or not 0.0 < c <= 1.0:
        c = _check_fraction("c", c)
    if type(p0) is not float or not 0.0 <= p0 <= 1.0:
        p0 = _check_probability("p0", p0)
    if direction is _TOWARD_ZERO:
        return min(p0 + c, 1.0)
    if direction is _TOWARD_ONE:
        return max(p0 - c, 0.0)
    raise ValueError(f"direction must be a Direction, got {direction!r}")


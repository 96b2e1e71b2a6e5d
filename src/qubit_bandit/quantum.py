"""Two-branch quantum states and their seeded measurement.

Every state here is fully described by one branch probability. A lone
qubit, and a GHZ register whose parties all read the same bit, is its
chance p0 of reading 0, measured with sample_bit; an entangled pair is the
weight of its first branch. Amplitudes are real and non-negative, so
storing the probability directly keeps normalization exact by construction.
Measurement never mutates a state; callers re-prepare (or reuse) states
explicitly.
"""

from __future__ import annotations

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
# uniform() serves draws from a pre-drawn block that starts small (short
# trials draw little) and doubles on each refill up to the cap
_BLOCK_START = 16
_BLOCK_CAP = 4096


def _is_number(value, integer: bool = False) -> bool:
    """A real (or, with integer, an integral) number that is not a bool.

    Python and numpy numbers both qualify; True would otherwise pass as 1.
    """
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_probability(name: str, value: float) -> float:
    """value as a Python float, or ValueError when it is not a probability."""
    # also rejects NaN, since both comparisons come back False
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


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


class RandomStream:
    """Deterministic uniform source with derivable substreams.

    The same (seed, stream) pair always yields the same draw sequence, on any
    platform. Distinct stream indices under one root seed give statistically
    independent sequences, which is what lets trials run in any order (or
    concurrently) without changing results. uniform() and uniforms() share
    one sequence however calls to them interleave; scalar draws are served
    from a block held in reverse order, so the next draw is the last item.
    """

    def __init__(self, seed: int, stream: int = 0) -> None:
        if not (isinstance(seed, int) and 0 <= seed < _SEED_LIMIT):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
        if not (isinstance(stream, int) and stream >= 0):
            raise ValueError(f"stream must be a non-negative integer, got {stream!r}")
        self.seed = seed
        self.stream = stream
        generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
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
        if not (isinstance(count, int) and count >= 0):
            raise ValueError(f"count must be a non-negative integer, got {count!r}")
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
    be strictly positive.
    """
    if not c > 0.0:
        raise ValueError(f"shift constant must be > 0, got {c!r}")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"p0 must be in [0, 1], got {p0!r}")
    if direction is _TOWARD_ZERO:
        return min(p0 + c, 1.0)
    if direction is _TOWARD_ONE:
        return max(p0 - c, 0.0)
    raise ValueError(f"direction must be a Direction, got {direction!r}")


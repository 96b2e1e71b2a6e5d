"""Decision procedures built on measurement outcomes.

Four ways to play: a single agent that learns by shifting its qubit, a
conflict-free assignment for two users sharing one machine pair, a
cooperative update for two users on replicated pairs, and a majority-vote
update for n users on a shared GHZ register. All are pure step functions:
state in, (new state, record) out, randomness only through the given stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bandit import ReplicatedBandit, TwoArmBandit, pull, pull_pair
from .quantum import (
    Correlation,
    Direction,
    EntangledPair,
    RandomStream,
    measure_pair,
    sample_bit,
    shift_probability,
)

__all__ = [
    "UpdateConfig",
    "GhzConstants",
    "StepRecord",
    "single_agent_step",
    "duo_conflict_assign",
    "coop_pair_step",
    "majority_update_rule",
    "ghz_step",
]


@dataclass(frozen=True)
class UpdateConfig:
    """Per-round probability increment applied after a reward outcome.

    c must be finite and strictly positive; values well below 1 keep the
    state off the clamp boundaries for longer.
    """

    c: float

    def __post_init__(self) -> None:
        if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be finite and > 0, got {self.c!r}")


@dataclass(frozen=True)
class GhzConstants:
    """Agreement-graded increments for majority play.

    constants[0] applies on full agreement, constants[i] when i users
    dissent; the sequence must be finite, strictly decreasing and positive.
    A group of n users needs ceil(n/2) constants.
    """

    constants: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.constants)
        object.__setattr__(self, "constants", values)
        if len(values) == 0:
            raise ValueError("constants must not be empty")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"constants must all be finite, got {values}")
        if values[-1] <= 0.0:
            raise ValueError(f"constants must all be > 0, got {values}")
        for earlier, later in zip(values, values[1:]):
            if not earlier > later:
                raise ValueError(f"constants must be strictly decreasing, got {values}")

    @staticmethod
    def required_count(n_users: int) -> int:
        return (n_users + 1) // 2

    def validate_for(self, n_users: int) -> None:
        needed = self.required_count(n_users)
        if len(self.constants) != needed:
            raise ValueError(
                f"expected {needed} constants for {n_users} users, got {len(self.constants)}"
            )


@dataclass(slots=True)
class StepRecord:
    """What one round did: state in, observations, update applied, state out.

    machines and rewards hold one entry per user; both are empty for rounds
    that involve no machine play. update_magnitude is 0 when no update applied.
    """

    step: int
    p0_before: float
    measured_bit: int
    machines: tuple[int, ...]
    rewards: tuple[int, ...]
    update_direction: Direction | None
    update_magnitude: float
    p0_after: float


def single_agent_step(
    p0: float,
    env: TwoArmBandit,
    cfg: UpdateConfig,
    rng: RandomStream,
    step: int = 0,
) -> tuple[float, StepRecord]:
    """One round of measurement-driven play on a two-armed bank.

    The measured bit picks the machine. A reward reinforces the outcome that
    was measured (machine 0 rewarded shifts toward 0, machine 1 rewarded
    shifts toward 1); no reward pushes the other way. Consumes exactly two
    draws: measurement, then pull.
    """
    bit = sample_bit(p0, rng)
    reward = pull(env.arm(bit), rng)
    if bit == 0:
        direction = Direction.TOWARD_ZERO if reward else Direction.TOWARD_ONE
    else:
        direction = Direction.TOWARD_ONE if reward else Direction.TOWARD_ZERO
    new_p0 = shift_probability(p0, direction, cfg.c)
    record = StepRecord(step, p0, bit, (bit,), (reward,), direction, cfg.c, new_p0)
    return new_p0, record


def duo_conflict_assign(rng: RandomStream, p_first: float = 0.5) -> tuple[int, int]:
    """Assign two users to distinct machines from one anticorrelated pair.

    Returns (machine for user U, machine for user V); the bits are always
    complementary, so the users never collide. p_first biases U toward
    machine 0 and is exposed for study; the fair default is 0.5. One draw.
    """
    return measure_pair(EntangledPair(Correlation.ANTICORRELATED, p_first), rng)


def coop_pair_step(
    p0: float,
    env: ReplicatedBandit,
    cfg: UpdateConfig,
    rng: RandomStream,
    step: int = 0,
) -> tuple[float, StepRecord]:
    """One cooperative round for two users sharing a correlated pair.

    Both users read the same bit and play that machine on their own pair.
    Two rewards shift toward the measured outcome, zero rewards shift away,
    and a split (exactly one reward) leaves the state untouched. Consumes
    exactly three draws: measurement, then one pull per user.
    """
    if env.n_users != 2:
        raise ValueError(f"cooperative play needs exactly 2 users, got {env.n_users}")
    bit = sample_bit(p0, rng)
    rewards = pull_pair(env, (bit, bit), rng)
    total = rewards[0] + rewards[1]
    if total == 1:
        direction = None
        magnitude = 0.0
        new_p0 = p0
    else:
        both_rewarded = total == 2
        if bit == 0:
            direction = Direction.TOWARD_ZERO if both_rewarded else Direction.TOWARD_ONE
        else:
            direction = Direction.TOWARD_ONE if both_rewarded else Direction.TOWARD_ZERO
        magnitude = cfg.c
        new_p0 = shift_probability(p0, direction, magnitude)
    record = StepRecord(step, p0, bit, (bit, bit), rewards, direction, magnitude, new_p0)
    return new_p0, record


def majority_update_rule(n: int, rewards: tuple[int, ...]) -> tuple[int, bool] | None:
    """Map a reward vector to (constant index, majority rewarded), or None on a tie.

    The index counts dissent: 1 on full agreement, up to ceil(n/2) at the
    narrowest majority. An even split (possible only for even n) yields no
    decision.
    """
    if len(rewards) != n:
        raise ValueError(f"expected {n} rewards, got {len(rewards)}")
    rewarded = 0
    for r in rewards:
        if r not in (0, 1):
            raise ValueError(f"rewards must be 0 or 1, got {r!r}")
        rewarded += r
    majority = max(rewarded, n - rewarded)
    if 2 * majority <= n:
        return None
    return n - majority + 1, rewarded > n - rewarded


def ghz_step(
    p0: float,
    env: ReplicatedBandit,
    constants: GhzConstants,
    rng: RandomStream,
    step: int = 0,
) -> tuple[float, StepRecord]:
    """One majority round for n users sharing a GHZ register.

    Everyone reads the same bit and plays that machine on their own pair.
    The update only happens when a strict majority agrees on the outcome:
    shift toward the measured bit if the majority was rewarded, away if not,
    by the constant matching the level of agreement. Consumes exactly n + 1
    draws: measurement, then one pull per user.
    """
    n = env.n_users
    constants.validate_for(n)
    bit = sample_bit(p0, rng)
    rewards = pull_pair(env, (bit,) * n, rng)
    outcome = majority_update_rule(n, rewards)
    if outcome is None:
        direction = None
        magnitude = 0.0
        new_p0 = p0
    else:
        index, majority_rewarded = outcome
        magnitude = constants.constants[index - 1]
        if bit == 0:
            direction = Direction.TOWARD_ZERO if majority_rewarded else Direction.TOWARD_ONE
        else:
            direction = Direction.TOWARD_ONE if majority_rewarded else Direction.TOWARD_ZERO
        new_p0 = shift_probability(p0, direction, magnitude)
    record = StepRecord(step, p0, bit, (bit,) * n, rewards, direction, magnitude, new_p0)
    return new_p0, record

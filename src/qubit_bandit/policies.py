"""Decision procedures built on measurement outcomes.

Four ways to play: a single agent that learns by shifting its qubit, a
conflict-free assignment for two users sharing one machine pair, a
cooperative update for two users on replicated pairs, and a majority-vote
update for n users on a shared GHZ register. Single and cooperative play
are the one- and two-user cases of the majority round. The step functions
play one round each: state in, (new state, record) out, randomness only
through the given stream. Besides the bank, they take what the oracle's
one-step enumerators take: c, or n and the graded constants, c and n as
plain numbers checked before the first draw. They are the per-round
reference: the harness plays every trial of a run by the same rules in its
own loop, and the tests compare the two routes draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bandit import TwoArmBandit, pull
from .quantum import (
    Direction,
    RandomStream,
    _TOWARD_ONE,
    _TOWARD_ZERO,
    _check_count,
    _check_fraction,
    _check_probability,
    sample_bit,
    shift_probability,
)

__all__ = [
    "GhzConstants",
    "StepRecord",
    "single_agent_step",
    "duo_conflict_assign",
    "coop_pair_step",
    "majority_update_rule",
    "ghz_step",
]


@dataclass(frozen=True)
class GhzConstants:
    """Agreement-graded increments for majority play.

    constants[0] applies on full agreement, constants[i] when i users
    dissent; the sequence must be numbers in (0, 1], strictly decreasing.
    A group of n users needs ceil(n/2) constants.
    """

    constants: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(_check_fraction("constants", v) for v in self.constants)
        object.__setattr__(self, "constants", values)
        if len(values) == 0:
            raise ValueError("constants must not be empty")
        for earlier, later in zip(values, values[1:]):
            if not earlier > later:
                raise ValueError(f"constants must be strictly decreasing, got {values}")

    @staticmethod
    def required_count(n_users: int) -> int:
        return (n_users + 1) // 2

    def validate_for(self, n_users: int) -> None:
        n_users = _check_count("n_users", n_users, 2)
        needed = self.required_count(n_users)
        if len(self.constants) != needed:
            raise ValueError(
                f"expected {needed} constants for {n_users} users, got {len(self.constants)}"
            )


@dataclass(slots=True)
class StepRecord:
    """What one round did: state in, observations, update applied, state out.

    machines and rewards hold one entry per user. update_magnitude is 0 when
    no update applied.
    """

    step: int
    p0_before: float
    measured_bit: int
    machines: tuple[int, ...]
    rewards: tuple[int, ...]
    update_direction: Direction | None
    update_magnitude: float
    p0_after: float


# the update direction indexed by "toward zero"
_TOWARD = (_TOWARD_ONE, _TOWARD_ZERO)


def _majority_round(
    p0: float,
    arms: TwoArmBandit,
    n: int,
    constants: tuple[float, ...],
    rng: RandomStream,
    step: int,
) -> tuple[float, StepRecord]:
    """One round of the clamped linear reward-penalty rule for n voting users.

    Measure p0, let each user, in order, pull the machine the bit names, and
    ask majority_update_rule for the outcome: on a tie nothing moves;
    otherwise p0 shifts by the constant for that level of dissent, toward
    the measured bit if the majority was rewarded and away from it if not.
    Single play is n = 1 and coop n = 2, each with the one constant c.
    p0 is taken as a Python float once, so a tie returns the float the
    round read, whatever number type came in.
    """
    # an exact float in range skips the full check, as in shift_probability
    if type(p0) is not float or not 0.0 <= p0 <= 1.0:
        p0 = _check_probability("p0", p0)
    bit = sample_bit(p0, rng)
    p_reward = arms.arm(bit)
    rewards: tuple[int, ...] = ()
    for _ in range(n):
        rewards += (pull(p_reward, rng),)
    outcome = majority_update_rule(n, rewards)
    if outcome is None:
        return p0, StepRecord(step, p0, bit, (bit,) * n, rewards, None, 0.0, p0)
    index, majority_rewarded = outcome
    magnitude = constants[index - 1]
    direction = _TOWARD[(bit == 0) == majority_rewarded]
    new_p0 = shift_probability(p0, direction, magnitude)
    return new_p0, StepRecord(step, p0, bit, (bit,) * n, rewards, direction, magnitude, new_p0)


def single_agent_step(
    p0: float,
    env: TwoArmBandit,
    c: float,
    rng: RandomStream,
    step: int = 0,
) -> tuple[float, StepRecord]:
    """One round of measurement-driven play on a two-armed bank.

    The measured bit picks the machine. A reward reinforces the outcome that
    was measured (machine 0 rewarded shifts toward 0, machine 1 rewarded
    shifts toward 1) by c in (0, 1]; no reward pushes the other way.
    Consumes exactly two draws: measurement, then pull.
    """
    # an exact float in range skips the full check, as in shift_probability
    if type(c) is not float or not 0.0 < c <= 1.0:
        c = _check_fraction("c", c)
    return _majority_round(p0, env, 1, (c,), rng, step)


def duo_conflict_assign(rng: RandomStream, p_first: float = 0.5) -> tuple[int, int]:
    """Assign two users to distinct machines from one anticorrelated pair.

    The pair sqrt(p_first)|01> + sqrt(1 - p_first)|10> is the weight
    p_first in [0, 1] of its first branch; the fair default is 0.5. One
    draw reads it: below p_first, U takes machine 0 and V machine 1, else
    the reverse. Returns (machine for U, machine for V), always distinct,
    so the users never collide.
    """
    p_first = _check_probability("p_first", p_first)
    return (0, 1) if rng.uniform() < p_first else (1, 0)


def coop_pair_step(
    p0: float,
    env: TwoArmBandit,
    c: float,
    rng: RandomStream,
    step: int = 0,
) -> tuple[float, StepRecord]:
    """One cooperative round for two users sharing a correlated pair.

    Both users read the same bit and play that machine on their own copy of
    env. Two rewards shift toward the measured outcome by c in (0, 1], zero
    rewards away, and a split (exactly one reward) leaves the state alone.
    Consumes exactly three draws: measurement, then one pull per user.
    """
    # an exact float in range skips the full check; checked here, since a
    # split never reaches shift_probability
    if type(c) is not float or not 0.0 < c <= 1.0:
        c = _check_fraction("c", c)
    return _majority_round(p0, env, 2, (c,), rng, step)


def majority_update_rule(n: int, rewards: tuple[int, ...]) -> tuple[int, bool] | None:
    """Map a reward vector to (constant index, majority rewarded), or None on a tie.

    The index counts dissent: 1 on full agreement, up to ceil(n/2) at the
    narrowest majority. An even split (possible only for even n) yields no
    decision. n is taken as a Python int, so the result holds Python numbers.
    """
    # an exact int skips the full check, which refuses bools
    if type(n) is not int or n < 1:
        n = _check_count("n", n, 1)
    if len(rewards) != n:
        raise ValueError(f"expected {n} rewards, got {len(rewards)}")
    rewarded = rewards.count(1)
    if rewarded + rewards.count(0) != n:
        bad = next(r for r in rewards if r not in (0, 1))
        raise ValueError(f"rewards must be 0 or 1, got {bad!r}")
    if 2 * rewarded == n:
        return None
    majority_rewarded = 2 * rewarded > n
    dissent = n - rewarded if majority_rewarded else rewarded
    return dissent + 1, majority_rewarded


def ghz_step(
    p0: float,
    env: TwoArmBandit,
    n: int,
    constants: GhzConstants,
    rng: RandomStream,
    step: int = 0,
) -> tuple[float, StepRecord]:
    """One majority round for n >= 2 users sharing a GHZ register.

    Everyone reads the same bit and plays that machine on their own copy of
    env. The update only happens when a strict majority agrees on the
    outcome: shift toward the measured bit if the majority was rewarded,
    away if not, by the constant matching the level of agreement, so
    constants must hold ceil(n/2) of them. Consumes exactly n + 1 draws:
    measurement, then one pull per user.
    """
    # an exact int skips the full check, which refuses bools
    if type(n) is not int or n < 2:
        n = _check_count("n", n, 2)
    constants.validate_for(n)
    return _majority_round(p0, env, n, constants.constants, rng, step)

"""Decision procedures built on measurement outcomes.

Four ways to play: a single agent that learns by shifting its qubit, a
conflict-free assignment for two users sharing one machine pair, a
cooperative update for two users on replicated pairs, and a majority-vote
update for n users on a shared GHZ register. Single and cooperative play
are the one- and two-user cases of the majority round. The step functions
play one round each: state in, (new state, record) out, randomness only
through the given stream. play_trials runs the same rules for every trial
of a run, of any scenario, and yields each trial's per-round columns; it is
what the harness runs, and the step functions are its per-round reference.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .bandit import ReplicatedBandit, TwoArmBandit, pull
from .quantum import (
    Correlation,
    Direction,
    EntangledPair,
    RandomStream,
    _TOWARD_ONE,
    _TOWARD_ZERO,
    _check_count,
    _check_fraction,
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
    "play_trials",
]


@dataclass(frozen=True)
class UpdateConfig:
    """Per-round probability increment applied after a reward outcome.

    c must be in (0, 1]; values well below 1 keep the state off the clamp
    boundaries for longer.
    """

    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", _check_fraction("c", self.c))


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
    """
    bit = sample_bit(p0, rng)
    arm = arms.arm(bit)
    rewards: tuple[int, ...] = ()
    for _ in range(n):
        rewards += (pull(arm, rng),)
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
    return _majority_round(p0, env, 1, (cfg.c,), rng, step)


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
    return _majority_round(p0, env.template, 2, (cfg.c,), rng, step)


def majority_update_rule(n: int, rewards: tuple[int, ...]) -> tuple[int, bool] | None:
    """Map a reward vector to (constant index, majority rewarded), or None on a tie.

    The index counts dissent: 1 on full agreement, up to ceil(n/2) at the
    narrowest majority. An even split (possible only for even n) yields no
    decision.
    """
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
    return _majority_round(p0, env.template, n, constants.constants, rng, step)


class _Machine:
    """A reward probability that play_trials' drift moves in place."""

    __slots__ = ("p_reward",)

    def __init__(self, p_reward: float) -> None:
        self.p_reward = p_reward


# play_trials builds a run's update table once; the tables are immutable,
# so runs with the same constants share one, and the cache is kept small so
# a sweep over many constants does not grow it
@functools.lru_cache(maxsize=64)
def _update_moves(n: int, constants: tuple[float, ...]) -> tuple[tuple, tuple]:
    """moves[bit][r]: the (direction, magnitude) update for r rewards out of n
    after reading bit. This is play_trials' only toward-zero decision."""
    no_update = (None, 0.0)
    return tuple(
        tuple(
            (
                Direction.TOWARD_ZERO if (bit == 0) == (2 * r > n) else Direction.TOWARD_ONE,
                float(constants[min(r, n - r)]),
            )
            if constants and 2 * r != n
            else no_update
            for r in range(n + 1)
        )
        for bit in (0, 1)
    )


def _draws_per_round(n: int, drift: float) -> int:
    """The draw contract: the bit, one pull per user, and with drift, when
    users play, one step per machine."""
    return 1 + n + (2 if drift > 0.0 and n > 0 else 0)


def play_trials(
    p: float,
    machines: tuple[tuple[int, ...], tuple[int, ...]],
    constants: tuple[float, ...],
    arms: tuple[float, float],
    drift: float,
    horizon: int,
    streams: Iterable[RandomStream],
) -> Iterator[tuple[list[float], list[int], list[int], list, list[int]]]:
    """Play one trial of any scenario per stream, in turn, each from start p;
    yield each as per-round columns.

    machines[b] names the machine each user plays when the measurement reads
    b: (b,) * n for n learners, (b, 1 - b) for the duo, () for a bare
    source. arms holds the reward probabilities of machines 0 and 1, where
    every trial starts. Each round, in draw-contract order:

    1. one draw measures p into the bit b;
    2. each user, in order, pulls machines[b] (one draw each);
    3. with r rewards out of n, p moves by constants[min(r, n - r)], toward
       zero iff (b == 0) == (2r > n), clamped to [0, 1]; a tie (2r == n)
       moves nothing, and empty constants never move p (duo, source);
    4. when drift > 0 and users play, each machine's reward probability
       takes a clamped +/- drift step, machine 0 first (one draw each).

    Single play is n = 1 and coop n = 2 with constants (c,); these are the
    rules single_agent_step, coop_pair_step, ghz_step and drift_step apply
    one round at a time. Inputs are not validated here; callers check them
    once per run. The run's update table, players and machines are set up
    once, and pull is looked up when the first trial starts.

    Each item is (states, bits, rewards, updates, rewarded): states holds
    horizon + 1 values of p, round t moving states[t] to states[t + 1];
    rewards is flat, n entries a round, round t's rewards (0 or 1, in user
    order) at rewards[n * t : n * (t + 1)], so a trial keeps no per-round
    tuple; updates holds one (direction, magnitude) pair per round,
    (None, 0.0) when no update applies; rewarded is each round's reward
    count. harness.Trajectory reads these columns back round by round. The
    generator lets go of a trial's columns before it plays the next one.
    """
    n = len(machines[0])
    moves = _update_moves(n, constants)
    held = (_Machine(arms[0]), _Machine(arms[1]))
    plays = (tuple(held[m] for m in machines[0]), tuple(held[m] for m in machines[1]))
    drifting = held if drift > 0.0 and n > 0 else ()
    toward_zero = Direction.TOWARD_ZERO
    draw = pull
    start = p
    for rng in streams:
        held[0].p_reward, held[1].p_reward = arms
        uniform = rng.uniform
        p = start
        states = [p]
        bits: list[int] = []
        rewards: list[int] = []
        updates: list = []
        rewarded: list[int] = []
        for _ in range(horizon):
            bit = 0 if uniform() < p else 1
            r = 0
            for machine in plays[bit]:
                reward = draw(machine, rng)
                rewards.append(reward)
                r += reward
            update = moves[bit][r]
            direction, magnitude = update
            if direction is toward_zero:
                p = min(p + magnitude, 1.0)
            elif direction is not None:
                p = max(p - magnitude, 0.0)
            for machine in drifting:
                step = drift if uniform() < 0.5 else -drift
                machine.p_reward = min(max(machine.p_reward + step, 0.0), 1.0)
            states.append(p)
            bits.append(bit)
            updates.append(update)
            rewarded.append(r)
        yield states, bits, rewards, updates, rewarded

"""Seeded Monte Carlo runner, aggregate metrics, and bit-stream checks.

Each trial draws from its own stream derived from (root seed, trial index),
so runs are reproducible bit for bit and trial execution order is irrelevant.
A run derives all its trials' streams in bulk and hands each trial its
stream's first block of draws.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from itertools import islice, repeat
from typing import Iterator, Sequence

import numpy as np

# bench/tracer.py wraps the per-round reference functions under these
# harness names, so they stay importable here although the run path plays
# every trial through play_trials instead
from .bandit import drift_step  # noqa: F401
from .policies import (  # noqa: F401
    coop_pair_step,
    ghz_step,
    single_agent_step,
)
from .policies import GhzConstants, StepRecord, _draws_per_round, play_trials
from .quantum import (
    Direction,
    RandomStream,
    _check_count,
    _check_fraction,
    _check_probability,
    _check_seed,
    _is_number,
    _first_blocks,
)

__all__ = [
    "Scenario",
    "ConfigError",
    "ExperimentConfig",
    "Trajectory",
    "TrialMetrics",
    "Metrics",
    "RandomnessTestResult",
    "run_experiment",
    "frequency_test",
    "chi_square_pairs_test",
]


class Scenario(Enum):
    QRNG = "qrng"
    SINGLE_AGENT = "single"
    DUO_CONFLICT = "duo-conflict"
    COOP_PAIR = "coop"
    GHZ = "ghz"


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


_FLOAT_FIELDS = ("p1", "p2", "c", "initial_p0", "p_first", "drift_step", "window")
_INT_FIELDS = ("horizon", "trials", "seed", "n_users")


@contextmanager
def _naming(field: str) -> Iterator[None]:
    """Re-raise a ValueError from the block as a ConfigError naming field once."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{field}: {str(exc).removeprefix(field + ' ')}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; defaults are a fair start with drift off.

    c applies to single and coop runs, constants and n_users to ghz runs,
    p_first to duo-conflict runs. initial_p0 doubles as the source bias for
    qrng runs (where horizon is the bit count). drift_step of 0 disables
    drift; a positive value turns on the bounded random walk.
    """

    scenario: Scenario
    p1: float = 0.5
    p2: float = 0.5
    c: float | None = None
    constants: tuple[float, ...] | None = None
    n_users: int | None = None
    initial_p0: float = 0.5
    p_first: float = 0.5
    horizon: int = 1000
    trials: int = 1
    seed: int = 0
    drift_step: float = 0.0
    window: float = 0.2

    def __post_init__(self) -> None:
        # numpy numbers become Python ones, so the trial loop computes in
        # float64 and the emitted metadata holds plain values; anything else
        # stays as given for validate() to name
        for names, integer, cast in ((_FLOAT_FIELDS, False, float), (_INT_FIELDS, True, int)):
            for name in names:
                value = getattr(self, name)
                if _is_number(value, integer):
                    object.__setattr__(self, name, cast(value))
        if self.constants is not None:
            values = tuple(float(v) if _is_number(v) else v for v in self.constants)
            object.__setattr__(self, "constants", values)

    def users(self) -> int:
        """Machine players per round (0 for qrng, which plays nothing)."""
        return len(_trial_inputs(self)[1][0])

    def drift_on(self) -> bool:
        return self.drift_step > 0.0

    def validate(self) -> None:
        if not isinstance(self.scenario, Scenario):
            raise ConfigError(f"scenario: expected a Scenario, got {self.scenario!r}")
        for name in ("p1", "p2", "initial_p0", "p_first"):
            with _naming(name):
                _check_probability(name, getattr(self, name))
        for name in ("horizon", "trials"):
            with _naming(name):
                _check_count(name, getattr(self, name), 1)
        with _naming("seed"):
            _check_seed(self.seed)
        with _naming("drift_step"):
            _check_probability("drift_step", self.drift_step)
        with _naming("window"):
            _check_fraction("window", self.window)
        if self.scenario in (Scenario.SINGLE_AGENT, Scenario.COOP_PAIR):
            if self.c is None:
                raise ConfigError(f"c: required for scenario '{self.scenario.value}'")
            with _naming("c"):
                _check_fraction("c", self.c)
        if self.scenario is Scenario.GHZ:
            if self.n_users is None:
                raise ConfigError("n_users: required for scenario 'ghz'")
            with _naming("n_users"):
                _check_count("n_users", self.n_users, 2)
            if self.constants is None:
                raise ConfigError("constants: required for scenario 'ghz'")
            with _naming("constants"):
                GhzConstants(self.constants).validate_for(self.n_users)


@dataclass(frozen=True)
class Trajectory:
    """One trial as per-round columns, in the layout play_trials yields.

    Round t reads states[t] and leaves states[t + 1], measures bits[t],
    sends the users to machines[bits[t]], collects n rewards and applies
    updates[t], a (direction, magnitude) pair. rewards is flat, n entries a
    round (n = len(machines[0]), 0 for a bare source), so round t's rewards
    are rewards[n * t : n * (t + 1)]; rounds() and records regroup them, and
    nothing else reads this layout.
    """

    trial: int
    machines: tuple[tuple[int, ...], tuple[int, ...]]
    states: list[float]
    bits: list[int]
    rewards: list[int]
    updates: list[tuple[Direction | None, float]]

    def rounds(self) -> Iterator[tuple[int, float, float, int, tuple[int, ...], tuple]]:
        """Per round, lazily: (step, p0 before, p0 after, measured bit,
        reward tuple, update pair)."""
        states = self.states
        n = len(self.machines[0])
        # n consumers of one iterator regroup the flat column into n-tuples
        grouped = zip(*[iter(self.rewards)] * n) if n else repeat(())
        return zip(
            range(len(self.bits)), states, islice(states, 1, None), self.bits, grouped, self.updates
        )

    @property
    def records(self) -> tuple[StepRecord, ...]:
        """The rounds as StepRecords, built on each access."""
        machines = self.machines
        return tuple(
            StepRecord(step, before, bit, machines[bit], got, direction, magnitude, after)
            for step, before, after, bit, got, (direction, magnitude) in self.rounds()
        )


@dataclass(frozen=True)
class TrialMetrics:
    """Summary of one trial; regret and best_arm_fraction are None when undefined
    (drift on, or no machine play)."""

    trial: int
    total_reward: int
    regret: float | None
    conflicts: int
    final_p0: float
    best_arm_fraction: float | None


@dataclass(frozen=True, eq=False)
class Metrics:
    """Aggregates over trials, plus the per-step mean reward curve.

    regret is realized per-user regret against the fixed best arm,
    horizon * max(p1, p2) - reward; its mean is non-negative, though a lucky
    single trial can dip below zero. mean_step_reward is each round's mean
    reward over trials and users: the exact reward count over the number of
    plays, correctly rounded. Regret over any round window is recoverable
    via regret_over.
    """

    n_trials: int
    horizon: int
    n_users: int
    best_p: float | None
    window: float
    per_trial: tuple[TrialMetrics, ...]
    mean_total_reward: float
    mean_regret: float | None
    total_conflicts: int
    final_p0_mean: float
    final_p0_std: float
    mean_best_arm_fraction: float | None
    mean_step_reward: np.ndarray | None

    def regret_over(self, start: int, stop: int) -> float | None:
        """Mean per-user realized regret accumulated over rounds [start, stop)."""
        start, stop = _check_count("start", start, 0), _check_count("stop", stop, 0)
        if self.best_p is None or self.mean_step_reward is None:
            return None
        if not start <= stop <= self.horizon:
            raise ValueError(f"window [{start}, {stop}) outside horizon {self.horizon}")
        return self.best_p * (stop - start) - float(np.sum(self.mean_step_reward[start:stop]))

    def to_dict(self) -> dict:
        """Scalar summary in field order (per-trial rows and the reward curve are left out)."""
        left_out = ("per_trial", "mean_step_reward")
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in left_out}


def _trial_inputs(config: ExperimentConfig):
    """What play_trials needs for this scenario: start p, machines per bit, constants.

    The machines per bit are the only statement of a scenario's players.
    """
    if config.scenario is Scenario.QRNG:
        return config.initial_p0, ((), ()), ()
    if config.scenario is Scenario.DUO_CONFLICT:
        return config.p_first, ((0, 1), (1, 0)), ()
    if config.scenario is Scenario.GHZ:
        n, constants = config.n_users or 0, config.constants
    else:
        n, constants = (1 if config.scenario is Scenario.SINGLE_AGENT else 2), (config.c,)
    return config.initial_p0, ((0,) * n, (1,) * n), constants


def _trials(config: ExperimentConfig, order: Sequence[int]) -> Iterator[tuple[int, tuple]]:
    """The trial source: (trial, play_trials' columns) for each trial of
    order, played when asked for.

    Each trial's stream gets its first block in bulk, sized by the draws
    the trial makes. Nothing here keeps a trial once it is handed over, so
    a consumer that drops each trial before asking for the next holds one
    trial at a time.
    """
    start, machines, constants = _trial_inputs(config)
    seed, drift, horizon = config.seed, config.drift_step, config.horizon
    needed = horizon * _draws_per_round(len(machines[0]), drift)
    streams = (
        RandomStream(seed, trial, first)
        for trial, first in zip(order, _first_blocks(seed, order, needed))
    )
    played = play_trials(start, machines, constants, (config.p1, config.p2), drift, horizon, streams)
    # next() rather than zip: zip would hold the last trial's columns while
    # the next trial is played
    for trial in order:
        yield trial, next(played)


class _Summary:
    """The summariser: folds trials, handed over in any order, into their
    TrialMetrics, the mean reward curve and the run's Metrics.

    The curve is kept as each round's reward count summed over trials, in
    exact integers, so the order trials arrive in cannot change it and
    memory stays bounded by one trial. metrics() divides each count once by
    users × trials, both exact as float64, so mean_step_reward is the
    correctly rounded mean of exact reward counts.
    """

    def __init__(self, config: ExperimentConfig) -> None:
        # machines per bit, as Trajectory takes them
        self.machines = machines = _trial_inputs(config)[1]
        self.config = config
        self.horizon = config.horizon
        self.n_users = n_users = config.users()
        self.scored = n_users > 0 and not config.drift_on()
        self.best_p = max(config.p1, config.p2)
        best_arm = 0 if config.p1 >= config.p2 else 1
        # users on the best machine when the measurement reads 0, and when it reads 1
        self.best_users = (machines[0].count(best_arm), machines[1].count(best_arm))
        self.window_steps = max(1, int(config.horizon * config.window))
        # bits whose users collide; only the duo's users share one machine pair
        self.colliding = []
        if config.scenario is Scenario.DUO_CONFLICT:
            self.colliding = [bit for bit, (u, v) in enumerate(machines) if u == v]
        self.per_trial: list[TrialMetrics | None] = [None] * config.trials
        # per round, the reward count summed over the trials added so far;
        # qrng plays no machine, and its horizon is a bit count
        self.counts = [0] * config.horizon if n_users else []

    def add(self, trial: int, columns: tuple) -> None:
        """Summarise one trial from play_trials' columns; add its per-round
        reward counts to the curve's."""
        states, bits, _, _, rewarded = columns
        total_reward = sum(rewarded)
        regret: float | None = None
        best_fraction: float | None = None
        if self.scored:
            n_users, window_steps, best_users = self.n_users, self.window_steps, self.best_users
            regret = self.best_p * self.horizon - total_reward / n_users
            zeros = bits[-window_steps:].count(0)
            hits = zeros * best_users[0] + (window_steps - zeros) * best_users[1]
            best_fraction = hits / (window_steps * n_users)
        conflicts = sum(map(bits.count, self.colliding))
        self.per_trial[trial] = TrialMetrics(
            trial, total_reward, regret, conflicts, states[-1], best_fraction
        )
        self.counts = list(map(operator.add, self.counts, rewarded))

    def metrics(self) -> Metrics:
        """The run's Metrics, once every trial has been added."""
        config, summaries, scored = self.config, self.per_trial, self.scored
        finals = np.array([s.final_p0 for s in summaries])
        mean_curve = None
        if self.n_users:
            mean_curve = np.array(self.counts, dtype=float) / (self.n_users * config.trials)
        return Metrics(
            n_trials=config.trials,
            horizon=config.horizon,
            n_users=self.n_users,
            best_p=self.best_p if scored else None,
            window=config.window,
            per_trial=tuple(summaries),
            mean_total_reward=float(np.mean([s.total_reward for s in summaries])),
            mean_regret=float(np.mean([s.regret for s in summaries])) if scored else None,
            total_conflicts=int(sum(s.conflicts for s in summaries)),
            final_p0_mean=float(np.mean(finals)),
            final_p0_std=float(np.std(finals)),
            mean_best_arm_fraction=(
                float(np.mean([s.best_arm_fraction for s in summaries])) if scored else None
            ),
            mean_step_reward=mean_curve,
        )


def run_experiment(
    config: ExperimentConfig,
    record_trajectories: bool = True,
    trial_order: Sequence[int] | None = None,
) -> tuple[tuple[Trajectory, ...], Metrics]:
    """Run all trials of a configured experiment.

    Returns (trajectories, metrics); trajectories is empty when
    record_trajectories is off, which keeps long runs cheap while metrics
    stay identical. trial_order only permutes execution, never results.
    """
    config.validate()
    n_trials = config.trials
    if trial_order is None:
        order: Sequence[int] = range(n_trials)
    else:
        order = tuple(_check_count("trial_order", trial, 0) for trial in trial_order)
        if sorted(order) != list(range(n_trials)):
            raise ValueError(f"trial_order must be a permutation of range({n_trials})")

    summary = _Summary(config)
    trajectories: list[Trajectory | None] = [None] * n_trials
    for trial, columns in _trials(config, order):
        summary.add(trial, columns)
        if record_trajectories:
            trajectories[trial] = Trajectory(trial, summary.machines, *columns[:4])
        del columns  # released before the next trial is played
    return (tuple(trajectories) if record_trajectories else ()), summary.metrics()


@dataclass(frozen=True)
class RandomnessTestResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    n: int


def _as_bit_array(bits: Sequence[int], minimum: int, test_name: str) -> np.ndarray:
    try:
        array = np.asarray(bits)
    except ValueError as exc:  # a ragged sequence has no array shape
        raise ValueError(f"{test_name}: expected a flat bit sequence") from exc
    if array.ndim != 1:
        raise ValueError(f"{test_name}: expected a flat bit sequence")
    if array.size < minimum:
        raise ValueError(
            f"{test_name}: sequence too short, need at least {minimum} bits, got {array.size}"
        )
    # checked before the cast, which would truncate 0.5 to 0 and 1.9 to 1
    if array.dtype.kind not in "biuf" or not np.all((array == 0) | (array == 1)):
        raise ValueError(f"{test_name}: sequence must contain only 0s and 1s")
    return array.astype(np.int64)


def frequency_test(bits: Sequence[int]) -> RandomnessTestResult:
    """Monobit balance check: z is the signed excess of ones in standard errors.

    Two-sided at significance 0.001 (|z| below 3.29 passes). Needs at least
    100 bits.
    """
    array = _as_bit_array(bits, 100, "frequency_test")
    n = array.size
    ones = int(array.sum())
    z = (2.0 * ones - n) / math.sqrt(n)
    return RandomnessTestResult("frequency", z, 3.29, abs(z) < 3.29, n)


# upper 0.001 quantile of the chi-square distribution with 3 degrees of freedom
_CHI2_3DOF_P999 = 16.266236196238129


def chi_square_pairs_test(bits: Sequence[int]) -> RandomnessTestResult:
    """Serial pair check: non-overlapping bit pairs against uniform counts.

    Chi-square over the four pair codes, 3 degrees of freedom, significance
    0.001. Needs at least 1000 bits; an odd trailing bit is ignored.
    """
    array = _as_bit_array(bits, 1000, "chi_square_pairs_test")
    n_pairs = array.size // 2
    codes = 2 * array[: 2 * n_pairs : 2] + array[1 : 2 * n_pairs : 2]
    counts = np.bincount(codes, minlength=4)
    expected = n_pairs / 4.0
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    return RandomnessTestResult(
        "chi_square_pairs", statistic, _CHI2_3DOF_P999, statistic < _CHI2_3DOF_P999, array.size
    )

"""Seeded Monte Carlo runner, aggregate metrics, and bit-stream checks.

Each trial draws from its own stream derived from (root seed, trial index),
so runs are reproducible bit for bit and trial execution order is irrelevant.
A run derives the seed words of all its trials' streams in one pass.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from enum import Enum
from itertools import islice, repeat
from typing import Iterator, Sequence

import numpy as np

# bench/tracer.py wraps the per-round reference functions under these
# harness names, so they stay importable here although the run path calls
# play_trial instead
from .bandit import drift_step  # noqa: F401
from .policies import (  # noqa: F401
    GhzConstants,
    StepRecord,
    coop_pair_step,
    ghz_step,
    play_trial,
    single_agent_step,
)
from .quantum import (
    Direction,
    RandomStream,
    _check_count,
    _check_fraction,
    _check_probability,
    _check_seed,
    _is_number,
    _stream_words,
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
        if self.scenario is Scenario.QRNG:
            return 0
        if self.scenario is Scenario.SINGLE_AGENT:
            return 1
        if self.scenario in (Scenario.DUO_CONFLICT, Scenario.COOP_PAIR):
            return 2
        return self.n_users if self.n_users is not None else 0

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
    """One trial as per-round columns, in the layout play_trial returns.

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
    single trial can dip below zero. mean_step_reward averages over trials
    and users, so regret over any round window is recoverable via regret_over.
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
    """What play_trial needs for this scenario: start p, machines per bit, constants."""
    n = config.users()
    if config.scenario is Scenario.QRNG:
        return config.initial_p0, ((), ()), ()
    if config.scenario is Scenario.DUO_CONFLICT:
        return config.p_first, ((0, 1), (1, 0)), ()
    constants = config.constants if config.scenario is Scenario.GHZ else (config.c,)
    return config.initial_p0, ((0,) * n, (1,) * n), constants


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

    start, machines, constants = _trial_inputs(config)
    arms = (config.p1, config.p2)
    horizon = config.horizon
    n_users = config.users()
    scored = n_users > 0 and not config.drift_on()
    best_p = max(config.p1, config.p2)
    best_arm = 0 if config.p1 >= config.p2 else 1
    # users on the best machine when the measurement reads 0, and when it reads 1
    best_users = (machines[0].count(best_arm), machines[1].count(best_arm))
    window_steps = max(1, int(horizon * config.window))
    window_start = horizon - window_steps
    # bits whose users collide; only the duo's users share one machine pair
    colliding = []
    if config.scenario is Scenario.DUO_CONFLICT:
        colliding = [bit for bit, (u, v) in enumerate(machines) if u == v]

    summaries: list[TrialMetrics | None] = [None] * n_trials
    rewarded_by_trial: list[list[int] | None] = [None] * n_trials
    trajectories: list[Trajectory | None] = [None] * n_trials
    for trial, words in zip(order, _stream_words(config.seed, order)):
        states, bits, rewards, updates, rewarded = play_trial(
            start,
            machines,
            constants,
            arms,
            config.drift_step,
            horizon,
            RandomStream(config.seed, trial, words),
        )
        total_reward = sum(rewarded)
        regret: float | None = None
        best_fraction: float | None = None
        if scored:
            regret = best_p * horizon - total_reward / n_users
            zeros = bits[window_start:].count(0)
            hits = zeros * best_users[0] + (window_steps - zeros) * best_users[1]
            best_fraction = hits / (window_steps * n_users)
        conflicts = sum(bits.count(bit) for bit in colliding)
        summaries[trial] = TrialMetrics(
            trial, total_reward, regret, conflicts, states[-1], best_fraction
        )
        rewarded_by_trial[trial] = rewarded
        if record_trajectories:
            trajectories[trial] = Trajectory(trial, machines, states, bits, rewards, updates)

    finals = np.array([s.final_p0 for s in summaries])
    mean_curve = None
    if n_users:
        # per-user reward per round, one row per trial in trial-index order
        curves = np.array(rewarded_by_trial, dtype=float) / n_users
        mean_curve = np.mean(curves, axis=0)
    metrics = Metrics(
        n_trials=n_trials,
        horizon=horizon,
        n_users=n_users,
        best_p=best_p if scored else None,
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
    return (tuple(trajectories) if record_trajectories else ()), metrics


@dataclass(frozen=True)
class RandomnessTestResult:
    name: str
    statistic: float
    threshold: float
    passed: bool
    n: int


def _as_bit_array(bits: Sequence[int], minimum: int, test_name: str) -> np.ndarray:
    array = np.asarray(bits)
    if array.ndim != 1:
        raise ValueError(f"{test_name}: expected a flat bit sequence")
    if array.size < minimum:
        raise ValueError(
            f"{test_name}: sequence too short, need at least {minimum} bits, got {array.size}"
        )
    array = array.astype(np.int64)
    if not np.all((array == 0) | (array == 1)):
        raise ValueError(f"{test_name}: sequence must contain only 0s and 1s")
    return array


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

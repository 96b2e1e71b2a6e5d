"""Seeded Monte Carlo runner, aggregate metrics, and bit-stream checks.

Each trial draws from its own stream derived from (root seed, trial index),
so runs are reproducible bit for bit and trial execution order is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .bandit import DriftMode, DriftModel, ReplicatedBandit, TwoArmBandit, drift_step, pull
from .policies import (
    GhzConstants,
    StepRecord,
    UpdateConfig,
    coop_pair_step,
    duo_conflict_assign,
    ghz_step,
    single_agent_step,
)
from .quantum import RandomStream, sample_bit

__all__ = [
    "Scenario",
    "ConfigError",
    "ExperimentConfig",
    "Trajectory",
    "TrialMetrics",
    "Metrics",
    "RandomnessTestResult",
    "run_experiment",
    "aggregate",
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


_SEED_LIMIT = 2**64


def _is_int(value) -> bool:
    """An int that is not a bool: True would otherwise pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if self.constants is not None:
            object.__setattr__(self, "constants", tuple(float(v) for v in self.constants))

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
        for name, value in (
            ("p1", self.p1),
            ("p2", self.p2),
            ("initial_p0", self.initial_p0),
            ("p_first", self.p_first),
        ):
            if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
                raise ConfigError(f"{name}: must be in [0, 1], got {value!r}")
        if not (_is_int(self.horizon) and self.horizon >= 1):
            raise ConfigError(f"horizon: must be an integer >= 1, got {self.horizon!r}")
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ConfigError(f"trials: must be an integer >= 1, got {self.trials!r}")
        if not (_is_int(self.seed) and 0 <= self.seed < _SEED_LIMIT):
            raise ConfigError(f"seed: must be an integer in [0, 2**64), got {self.seed!r}")
        if not (isinstance(self.drift_step, (int, float)) and 0.0 <= self.drift_step <= 1.0):
            raise ConfigError(f"drift_step: must be in [0, 1], got {self.drift_step!r}")
        if not (isinstance(self.window, (int, float)) and 0.0 < self.window <= 1.0):
            raise ConfigError(f"window: must be in (0, 1], got {self.window!r}")
        if self.scenario in (Scenario.SINGLE_AGENT, Scenario.COOP_PAIR):
            if self.c is None:
                raise ConfigError(f"c: required for scenario '{self.scenario.value}'")
            if not (isinstance(self.c, (int, float)) and math.isfinite(self.c) and self.c > 0.0):
                raise ConfigError(f"c: must be finite and > 0, got {self.c!r}")
        if self.scenario is Scenario.GHZ:
            if self.n_users is None:
                raise ConfigError("n_users: required for scenario 'ghz'")
            if not (_is_int(self.n_users) and self.n_users >= 2):
                raise ConfigError(f"n_users: must be an integer >= 2, got {self.n_users!r}")
            if self.constants is None:
                raise ConfigError("constants: required for scenario 'ghz'")
            try:
                GhzConstants(self.constants).validate_for(self.n_users)
            except ValueError as exc:
                raise ConfigError(f"constants: {exc}") from exc


@dataclass(frozen=True)
class Trajectory:
    """Ordered per-round records for one trial."""

    trial: int
    records: tuple[StepRecord, ...]


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
        if self.best_p is None or self.mean_step_reward is None:
            return None
        if not 0 <= start <= stop <= self.horizon:
            raise ValueError(f"window [{start}, {stop}) outside horizon {self.horizon}")
        return self.best_p * (stop - start) - float(np.sum(self.mean_step_reward[start:stop]))

    def to_dict(self) -> dict:
        """Scalar summary (the reward curve is left out)."""
        return {
            "n_trials": self.n_trials,
            "horizon": self.horizon,
            "n_users": self.n_users,
            "best_p": self.best_p,
            "window": self.window,
            "mean_total_reward": self.mean_total_reward,
            "mean_regret": self.mean_regret,
            "total_conflicts": self.total_conflicts,
            "final_p0_mean": self.final_p0_mean,
            "final_p0_std": self.final_p0_std,
            "mean_best_arm_fraction": self.mean_best_arm_fraction,
        }


def _run_trial(config: ExperimentConfig, rng: RandomStream) -> tuple[StepRecord, ...]:
    """Execute one trial; per round, policy draws come first, drift draws after."""
    horizon = config.horizon
    records: list[StepRecord] = []
    drift = (
        DriftModel(config.drift_step, DriftMode.BOUNDED_RANDOM_WALK) if config.drift_on() else None
    )
    scenario = config.scenario

    if scenario is Scenario.QRNG:
        p0 = config.initial_p0
        for step in range(horizon):
            bit = sample_bit(p0, rng)
            records.append(StepRecord(step, p0, bit, (), (), None, 0.0, p0))
        return tuple(records)

    if scenario is Scenario.SINGLE_AGENT:
        env = TwoArmBandit.from_probs(config.p1, config.p2, drift)
        cfg = UpdateConfig(config.c)
        p0 = config.initial_p0
        for step in range(horizon):
            p0, record = single_agent_step(p0, env, cfg, rng, step=step)
            records.append(record)
            if drift is not None:
                env = drift_step(env, rng)
        return tuple(records)

    if scenario is Scenario.DUO_CONFLICT:
        env = TwoArmBandit.from_probs(config.p1, config.p2, drift)
        p_first = config.p_first
        for step in range(horizon):
            machines = duo_conflict_assign(rng, p_first)
            rewards = (pull(env.arm(machines[0]), rng), pull(env.arm(machines[1]), rng))
            records.append(
                StepRecord(step, p_first, machines[0], machines, rewards, None, 0.0, p_first)
            )
            if drift is not None:
                env = drift_step(env, rng)
        return tuple(records)

    if scenario is Scenario.COOP_PAIR:
        env = ReplicatedBandit(TwoArmBandit.from_probs(config.p1, config.p2, drift), 2)
        cfg = UpdateConfig(config.c)
        p0 = config.initial_p0
        for step in range(horizon):
            p0, record = coop_pair_step(p0, env, cfg, rng, step=step)
            records.append(record)
            if drift is not None:
                env = ReplicatedBandit(drift_step(env.template, rng), 2)
        return tuple(records)

    if scenario is Scenario.GHZ:
        env = ReplicatedBandit(TwoArmBandit.from_probs(config.p1, config.p2, drift), config.n_users)
        constants = GhzConstants(config.constants)
        p0 = config.initial_p0
        for step in range(horizon):
            p0, record = ghz_step(p0, env, constants, rng, step=step)
            records.append(record)
            if drift is not None:
                env = ReplicatedBandit(drift_step(env.template, rng), config.n_users)
        return tuple(records)

    raise ConfigError(f"scenario: unhandled value {scenario!r}")


def _trial_summary(
    trial: int,
    records: tuple[StepRecord, ...],
    *,
    p1: float,
    p2: float,
    drift_on: bool,
    window: float,
    shared_pair: bool,
) -> tuple[TrialMetrics, np.ndarray | None]:
    """Per-trial metrics plus the per-step per-user reward curve (None without arms)."""
    horizon = len(records)
    n_users = len(records[0].machines)
    has_arms = n_users > 0
    curve = np.zeros(horizon) if has_arms else None
    total_reward = 0
    conflicts = 0
    for record in records:
        if has_arms:
            round_reward = sum(record.rewards)
            total_reward += round_reward
            curve[record.step] = round_reward / n_users
        if shared_pair and record.machines[0] == record.machines[1]:
            conflicts += 1
    final_p0 = records[-1].p0_after

    regret: float | None = None
    best_fraction: float | None = None
    if has_arms and not drift_on:
        best_p = max(p1, p2)
        best_arm = 0 if p1 >= p2 else 1
        regret = best_p * horizon - total_reward / n_users
        window_steps = max(1, int(horizon * window))
        start = horizon - window_steps
        hits = sum(1 for record in records[start:] for m in record.machines if m == best_arm)
        best_fraction = hits / (window_steps * n_users)

    return (
        TrialMetrics(trial, total_reward, regret, conflicts, final_p0, best_fraction),
        curve,
    )


def _assemble(
    summaries: list[TrialMetrics],
    curves: list[np.ndarray | None],
    *,
    horizon: int,
    n_users: int,
    p1: float,
    p2: float,
    drift_on: bool,
    window: float,
) -> Metrics:
    has_arms = n_users > 0
    finals = np.array([s.final_p0 for s in summaries])
    if has_arms and not drift_on:
        best_p: float | None = max(p1, p2)
        mean_regret = float(np.mean([s.regret for s in summaries]))
        mean_best = float(np.mean([s.best_arm_fraction for s in summaries]))
    else:
        best_p = None
        mean_regret = None
        mean_best = None
    mean_curve = np.mean(np.stack(curves), axis=0) if has_arms else None
    return Metrics(
        n_trials=len(summaries),
        horizon=horizon,
        n_users=n_users,
        best_p=best_p,
        window=window,
        per_trial=tuple(summaries),
        mean_total_reward=float(np.mean([s.total_reward for s in summaries])),
        mean_regret=mean_regret,
        total_conflicts=int(sum(s.conflicts for s in summaries)),
        final_p0_mean=float(np.mean(finals)),
        final_p0_std=float(np.std(finals)),
        mean_best_arm_fraction=mean_best,
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
        order = tuple(trial_order)
        if sorted(order) != list(range(n_trials)):
            raise ValueError(f"trial_order must be a permutation of range({n_trials})")

    shared_pair = config.scenario is Scenario.DUO_CONFLICT
    summaries: list[TrialMetrics | None] = [None] * n_trials
    curves: list[np.ndarray | None] = [None] * n_trials
    trajectories: list[Trajectory | None] = [None] * n_trials
    for trial in order:
        stream = RandomStream(config.seed, stream=trial)
        records = _run_trial(config, stream)
        summaries[trial], curves[trial] = _trial_summary(
            trial,
            records,
            p1=config.p1,
            p2=config.p2,
            drift_on=config.drift_on(),
            window=config.window,
            shared_pair=shared_pair,
        )
        if record_trajectories:
            trajectories[trial] = Trajectory(trial, records)

    metrics = _assemble(
        summaries,
        curves,
        horizon=config.horizon,
        n_users=config.users(),
        p1=config.p1,
        p2=config.p2,
        drift_on=config.drift_on(),
        window=config.window,
    )
    return (tuple(trajectories) if record_trajectories else ()), metrics


def aggregate(
    trajectories: Sequence[Trajectory],
    *,
    p1: float,
    p2: float,
    drift_on: bool = False,
    window: float = 0.2,
    shared_pair: bool = False,
) -> Metrics:
    """Metrics over recorded trajectories; identical to what run_experiment reports.

    shared_pair marks runs where users play one physical machine pair, which
    is the only case where same-machine picks count as conflicts.
    """
    if len(trajectories) == 0:
        raise ValueError("no trajectories to aggregate")
    summaries = []
    curves = []
    horizon = len(trajectories[0].records)
    if horizon == 0:
        raise ValueError("trajectories contain no records")
    for trajectory in trajectories:
        summary, curve = _trial_summary(
            trajectory.trial,
            trajectory.records,
            p1=p1,
            p2=p2,
            drift_on=drift_on,
            window=window,
            shared_pair=shared_pair,
        )
        summaries.append(summary)
        curves.append(curve)
    n_users = len(trajectories[0].records[0].machines)
    return _assemble(
        summaries,
        curves,
        horizon=horizon,
        n_users=n_users,
        p1=p1,
        p2=p2,
        drift_on=drift_on,
        window=window,
    )


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

"""Bernoulli slot machines: a two-armed bank, replicated copies, optional drift."""

from __future__ import annotations

from dataclasses import dataclass

from .quantum import RandomStream, _check_count, _check_probability

__all__ = [
    "BernoulliArm",
    "DriftModel",
    "TwoArmBandit",
    "ReplicatedBandit",
    "pull",
    "drift_step",
]


@dataclass(frozen=True)
class BernoulliArm:
    """A machine paying reward 1 with fixed probability, else 0."""

    p_reward: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_reward", _check_probability("p_reward", self.p_reward))


@dataclass(frozen=True)
class DriftModel:
    """Optional nonstationarity: each round every arm takes a +/- step, clamped."""

    step_size: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "step_size", _check_probability("step_size", self.step_size))


@dataclass(frozen=True)
class TwoArmBandit:
    """Two machines side by side; machine index doubles as the measured bit."""

    arm0: BernoulliArm
    arm1: BernoulliArm
    drift: DriftModel | None = None

    @classmethod
    def from_probs(cls, p1: float, p2: float, drift: DriftModel | None = None) -> TwoArmBandit:
        """Build from the two reward probabilities (machine 0 pays p1, machine 1 pays p2)."""
        return cls(BernoulliArm(p1), BernoulliArm(p2), drift)

    def arm(self, index: int) -> BernoulliArm:
        if index == 0:
            return self.arm0
        if index == 1:
            return self.arm1
        raise ValueError(f"machine index must be 0 or 1, got {index!r}")


@dataclass(frozen=True)
class ReplicatedBandit:
    """One machine pair per user, all sharing the template's reward probabilities."""

    template: TwoArmBandit
    n_users: int

    def __post_init__(self) -> None:
        if not isinstance(self.template, TwoArmBandit):
            raise ValueError(f"template must be a TwoArmBandit, got {self.template!r}")
        object.__setattr__(self, "n_users", _check_count("n_users", self.n_users, 2))


def pull(arm: BernoulliArm, rng: RandomStream) -> int:
    """Play a machine once. One draw; returns 1 on reward."""
    return 1 if rng.uniform() < arm.p_reward else 0


def drift_step(env: TwoArmBandit, rng: RandomStream) -> TwoArmBandit:
    """Advance the environment one drift move; identity when it has no drift model.

    Each arm independently moves step_size up or down (sign drawn for arm 0
    first, then arm 1) and is clamped to [0, 1].
    """
    drift = env.drift
    if drift is None:
        return env
    step = drift.step_size
    moved = []
    for arm in (env.arm0, env.arm1):
        delta = step if rng.uniform() < 0.5 else -step
        moved.append(BernoulliArm(min(max(arm.p_reward + delta, 0.0), 1.0)))
    return TwoArmBandit(moved[0], moved[1], drift)

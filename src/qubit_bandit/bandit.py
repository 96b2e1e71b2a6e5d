"""Bernoulli slot machines: a two-armed bank with optional drift.

A machine is its reward probability: it pays 1 with that probability, else 0.
Users who play replicated pairs all play copies of one bank, so a bank
stands for every copy, and the number of users is a plain count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quantum import RandomStream, _check_probability, _is_number

__all__ = ["TwoArmBandit", "pull", "drift_step"]


@dataclass(frozen=True)
class TwoArmBandit:
    """Two machines side by side; machine index doubles as the measured bit.

    Machine 0 pays p1 and machine 1 pays p2. drift is the step of the
    optional bounded random walk; 0 turns it off.
    """

    p1: float
    p2: float
    drift: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "drift"):
            object.__setattr__(self, name, _check_probability(name, getattr(self, name)))

    def arm(self, index: int) -> float:
        """Machine index's reward probability."""
        # an exact int skips the slower check, which refuses bools and floats
        if type(index) is int or _is_number(index, integer=True):
            if index == 0:
                return self.p1
            if index == 1:
                return self.p2
        raise ValueError(f"machine index must be 0 or 1, got {index!r}")


def pull(p_reward: float, rng: RandomStream) -> int:
    """Play a machine of reward probability p_reward once. One draw; returns
    1 on reward.

    p_reward is not checked here: TwoArmBandit and ExperimentConfig check
    their probabilities once.
    """
    return 1 if rng.uniform() < p_reward else 0


def drift_step(env: TwoArmBandit, rng: RandomStream) -> TwoArmBandit:
    """Advance the bank one drift move; the same bank when drift is 0.

    Each machine independently moves drift up or down (sign drawn for
    machine 0 first, then machine 1) and is clamped to [0, 1].
    """
    step = env.drift
    if not step:
        return env
    moved = []
    for p in (env.p1, env.p2):
        delta = step if rng.uniform() < 0.5 else -step
        moved.append(min(max(p + delta, 0.0), 1.0))
    return TwoArmBandit(moved[0], moved[1], step)

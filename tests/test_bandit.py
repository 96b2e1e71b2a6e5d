"""Tests for the Bernoulli machines, replicated copies, and drift."""

import numpy as np
import pytest

from qubit_bandit.bandit import (
    BernoulliArm,
    DriftModel,
    ReplicatedBandit,
    TwoArmBandit,
    drift_step,
    pull,
)
from qubit_bandit.quantum import RandomStream


class _Scripted:
    """Minimal stand-in for RandomStream fed from a fixed list of draws."""

    def __init__(self, values):
        self._values = list(values)
        self.consumed = 0

    def uniform(self):
        self.consumed += 1
        return self._values.pop(0)


@pytest.mark.parametrize("bad", [-0.2, 1.5, float("nan"), True])
def test_arm_rejects_invalid_reward_probability(bad):
    with pytest.raises(ValueError):
        BernoulliArm(bad)


def test_pull_edge_probabilities():
    rng = RandomStream(0)
    assert all(pull(BernoulliArm(1.0), rng) == 1 for _ in range(50))
    assert all(pull(BernoulliArm(0.0), rng) == 0 for _ in range(50))


def test_pull_frequency_tracks_reward_probability():
    rng = RandomStream(101)
    arm = BernoulliArm(0.35)
    n = 100_000
    wins = sum(pull(arm, rng) for _ in range(n))
    assert abs(wins / n - 0.35) < 0.008


def test_pull_consumes_one_draw():
    stub = _Scripted([0.2])
    assert pull(BernoulliArm(0.5), stub) == 1
    assert stub.consumed == 1


def test_from_probs_assigns_machines_in_order():
    env = TwoArmBandit.from_probs(0.8, 0.2)
    assert env.arm0.p_reward == 0.8
    assert env.arm1.p_reward == 0.2
    assert env.arm(0) is env.arm0
    assert env.arm(1) is env.arm1


def test_arm_lookup_rejects_other_indices():
    env = TwoArmBandit.from_probs(0.5, 0.5)
    with pytest.raises(ValueError):
        env.arm(2)


@pytest.mark.parametrize("n", [0, 1])
def test_replicated_bandit_needs_at_least_two_users(n):
    with pytest.raises(ValueError):
        ReplicatedBandit(TwoArmBandit.from_probs(0.5, 0.5), n)


# ---------------------------------------------------------------------------
# drift


def test_drift_model_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        DriftModel(-0.1)
    with pytest.raises(ValueError):
        DriftModel(1.5)


def test_drift_step_identity_without_drift():
    env = TwoArmBandit.from_probs(0.8, 0.2)
    stub = _Scripted([])
    assert drift_step(env, stub) is env
    assert stub.consumed == 0


def test_drift_step_signs_and_draw_order():
    # draw below 0.5 moves an arm up, at or above 0.5 moves it down;
    # machine 0's sign is drawn first
    env = TwoArmBandit.from_probs(0.5, 0.5, DriftModel(0.05))
    moved = drift_step(env, _Scripted([0.1, 0.9]))
    assert moved.arm0.p_reward == pytest.approx(0.55)
    assert moved.arm1.p_reward == pytest.approx(0.45)
    moved = drift_step(env, _Scripted([0.9, 0.1]))
    assert moved.arm0.p_reward == pytest.approx(0.45)
    assert moved.arm1.p_reward == pytest.approx(0.55)


def test_drift_step_consumes_two_draws_and_keeps_model():
    env = TwoArmBandit.from_probs(0.5, 0.5, DriftModel(0.05))
    stub = _Scripted([0.1, 0.9])
    moved = drift_step(env, stub)
    assert stub.consumed == 2
    assert moved.drift == env.drift


def test_drift_step_clamps_to_unit_interval():
    env = TwoArmBandit.from_probs(0.99, 0.01, DriftModel(0.05))
    moved = drift_step(env, _Scripted([0.1, 0.9]))
    assert moved.arm0.p_reward == 1.0
    assert moved.arm1.p_reward == 0.0


def test_drift_signs_are_balanced():
    env = TwoArmBandit.from_probs(0.5, 0.5, DriftModel(1e-6))
    rng = RandomStream(404)
    ups = 0
    n = 50_000
    for _ in range(n):
        moved = drift_step(env, rng)
        ups += moved.arm0.p_reward > 0.5
    # 0.01 is about 9 sigma at n=5e4
    assert abs(ups / n - 0.5) < 0.01


def test_drift_walk_is_unbiased_in_ensemble_mean():
    model = DriftModel(0.05)
    finals = []
    for trial in range(2000):
        env = TwoArmBandit.from_probs(0.5, 0.5, model)
        rng = RandomStream(7, stream=trial)
        for _ in range(50):
            env = drift_step(env, rng)
        finals.append(env.arm0.p_reward)
    # per-walk std is at most 0.05 * sqrt(50) = 0.354
    assert abs(float(np.mean(finals)) - 0.5) < 0.04


def test_drift_sequence_is_reproducible():
    model = DriftModel(0.03)

    def walk(seed):
        env = TwoArmBandit.from_probs(0.4, 0.6, model)
        rng = RandomStream(seed)
        out = []
        for _ in range(100):
            env = drift_step(env, rng)
            out.append((env.arm0.p_reward, env.arm1.p_reward))
        return out

    assert walk(5) == walk(5)
    assert walk(5) != walk(6)

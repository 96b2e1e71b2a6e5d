"""Tests for the Bernoulli machines, replicated copies, and drift."""

import numpy as np
import pytest

from qubit_bandit.bandit import TwoArmBandit, drift_step, pull
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
        TwoArmBandit(bad, 0.5)
    with pytest.raises(ValueError):
        TwoArmBandit(0.5, bad)


@pytest.mark.parametrize("bad", [True, float("nan"), -0.1, 1.5])
@pytest.mark.parametrize("field", ["p1", "p2", "drift"])
def test_bank_guards_each_of_its_fields(field, bad):
    fields = {"p1": 0.5, "p2": 0.5, "drift": 0.0, field: bad}
    with pytest.raises(ValueError, match=field):
        TwoArmBandit(**fields)


def test_pull_edge_probabilities():
    rng = RandomStream(0)
    assert all(pull(1.0, rng) == 1 for _ in range(50))
    assert all(pull(0.0, rng) == 0 for _ in range(50))


def test_pull_frequency_tracks_reward_probability():
    rng = RandomStream(101)
    n = 100_000
    wins = sum(pull(0.35, rng) for _ in range(n))
    assert abs(wins / n - 0.35) < 0.008


def test_pull_consumes_one_draw():
    stub = _Scripted([0.2])
    assert pull(0.5, stub) == 1
    assert stub.consumed == 1


def test_bank_assigns_machines_in_order():
    env = TwoArmBandit(0.8, 0.2)
    assert env.p1 == 0.8
    assert env.p2 == 0.2
    assert env.drift == 0.0
    assert env.arm(0) == 0.8
    assert env.arm(1) == 0.2


def test_arm_lookup_rejects_other_indices():
    env = TwoArmBandit(0.8, 0.2)
    # bools and floats are not machine indexes, though they compare equal to one
    for index in (2, -1, True, False, 1.0, 0.0, np.True_):
        with pytest.raises(ValueError, match="^machine index must be 0 or 1, got "):
            env.arm(index)
    assert (env.arm(np.int64(0)), env.arm(np.int64(1))) == (0.8, 0.2)


# ---------------------------------------------------------------------------
# drift


def test_drift_model_rejects_out_of_range_step():
    with pytest.raises(ValueError):
        TwoArmBandit(0.5, 0.5, -0.1)
    with pytest.raises(ValueError):
        TwoArmBandit(0.5, 0.5, 1.5)


def test_drift_step_identity_without_drift():
    env = TwoArmBandit(0.8, 0.2, 0.0)
    stub = _Scripted([])
    assert drift_step(env, stub) is env
    assert stub.consumed == 0


def test_drift_step_signs_and_draw_order():
    # draw below 0.5 moves an arm up, at or above 0.5 moves it down;
    # machine 0's sign is drawn first
    env = TwoArmBandit(0.5, 0.5, 0.05)
    moved = drift_step(env, _Scripted([0.1, 0.9]))
    assert moved.p1 == pytest.approx(0.55)
    assert moved.p2 == pytest.approx(0.45)
    moved = drift_step(env, _Scripted([0.9, 0.1]))
    assert moved.p1 == pytest.approx(0.45)
    assert moved.p2 == pytest.approx(0.55)


def test_drift_step_consumes_two_draws_and_keeps_model():
    env = TwoArmBandit(0.5, 0.5, 0.05)
    stub = _Scripted([0.1, 0.9])
    moved = drift_step(env, stub)
    assert stub.consumed == 2
    assert moved.drift == env.drift


def test_drift_step_clamps_to_unit_interval():
    env = TwoArmBandit(0.99, 0.01, 0.05)
    moved = drift_step(env, _Scripted([0.1, 0.9]))
    assert moved.p1 == 1.0
    assert moved.p2 == 0.0


def test_drift_signs_are_balanced():
    env = TwoArmBandit(0.5, 0.5, 1e-6)
    rng = RandomStream(404)
    ups = 0
    n = 50_000
    for _ in range(n):
        moved = drift_step(env, rng)
        ups += moved.p1 > 0.5
    # 0.01 is about 9 sigma at n=5e4
    assert abs(ups / n - 0.5) < 0.01


def test_drift_walk_is_unbiased_in_ensemble_mean():
    step = 0.05
    finals = []
    for trial in range(2000):
        env = TwoArmBandit(0.5, 0.5, step)
        rng = RandomStream(7, stream=trial)
        for _ in range(50):
            env = drift_step(env, rng)
        finals.append(env.p1)
    # per-walk std is at most 0.05 * sqrt(50) = 0.354
    assert abs(float(np.mean(finals)) - 0.5) < 0.04


def test_drift_sequence_is_reproducible():
    step = 0.03

    def walk(seed):
        env = TwoArmBandit(0.4, 0.6, step)
        rng = RandomStream(seed)
        out = []
        for _ in range(100):
            env = drift_step(env, rng)
            out.append((env.p1, env.p2))
        return out

    assert walk(5) == walk(5)
    assert walk(5) != walk(6)

"""Tests for the decision procedures: single agent, duo, cooperative, majority."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubit_bandit.bandit import TwoArmBandit
from qubit_bandit.oracle import enumerate_coop_step, enumerate_ghz_step
from qubit_bandit.policies import (
    GhzConstants,
    coop_pair_step,
    duo_conflict_assign,
    ghz_step,
    majority_update_rule,
    single_agent_step,
)
from qubit_bandit.quantum import Direction, RandomStream


class _Scripted:
    """Stand-in for RandomStream replaying a fixed sequence of draws."""

    def __init__(self, values):
        self._values = [float(v) for v in values]
        self.consumed = 0

    def uniform(self):
        value = self._values[self.consumed]
        self.consumed += 1
        return value


class _NoDraws:
    """Stand-in for RandomStream that fails the test on any draw."""

    def uniform(self):
        raise AssertionError("drew before checking the arguments")


def _env(p1, p2):
    return TwoArmBandit(p1, p2)


# ---------------------------------------------------------------------------
# step arguments


@pytest.mark.parametrize(
    "bad", [0.0, -0.1, float("inf"), 1.5, 1.0000000000000002, float("nan"), True, "0.1"]
)
def test_steps_refuse_a_bad_increment_before_any_draw(bad):
    for step in (single_agent_step, coop_pair_step):
        with pytest.raises(ValueError, match=r"^c must be in \(0, 1\], got "):
            step(0.5, _env(0.8, 0.2), bad, _NoDraws())


def test_steps_accept_an_increment_of_one():
    for step in (single_agent_step, coop_pair_step):
        out, record = step(0.5, _env(1.0, 1.0), 1.0, _Scripted([0.3, 0.5, 0.5]))
        assert out == record.p0_after == 1.0
        assert record.update_magnitude == 1.0


@pytest.mark.parametrize("n", [0, 1, 2.0, True, "3", np.float64(3.0)])
def test_ghz_step_refuses_a_bad_user_count_before_any_draw(n):
    with pytest.raises(ValueError, match="^n must be an integer >= 2, got "):
        ghz_step(0.5, _env(0.8, 0.2), n, GhzConstants((0.1,)), _NoDraws())


def _assert_python_numbers(out, record):
    r = record
    numbers = (out, r.step, r.p0_before, r.measured_bit, *r.machines, *r.rewards)
    numbers += (r.update_magnitude, r.p0_after)
    users = len(r.machines) + len(r.rewards)
    assert tuple(map(type, numbers)) == (float, int, float, int, *[int] * users, float, float)
    assert type(r.update_direction) is Direction


def test_steps_take_numpy_numbers_as_python_ones():
    # both rounds update, so c and the magnitude reach the record
    out, record = coop_pair_step(
        np.float64(0.5), _env(0.8, 0.2), np.float64(0.1), _Scripted([0.3, 0.1, 0.1])
    )
    assert (out, record.update_magnitude) == (0.6, 0.1)
    _assert_python_numbers(out, record)
    stub = _Scripted([0.3, 0.1, 0.1, 0.95])
    out, record = ghz_step(0.5, _env(0.8, 0.2), np.int64(3), GhzConstants((0.1, 0.05)), stub)
    assert (out, record.rewards, record.update_magnitude) == (0.55, (1, 1, 0), 0.05)
    _assert_python_numbers(out, record)


# ---------------------------------------------------------------------------
# configuration containers


def test_ghz_constants_must_be_strictly_decreasing_and_positive():
    GhzConstants((0.1, 0.05, 0.01))
    with pytest.raises(ValueError):
        GhzConstants(())
    with pytest.raises(ValueError):
        GhzConstants((0.1, 0.1))
    with pytest.raises(ValueError):
        GhzConstants((0.05, 0.1))
    with pytest.raises(ValueError):
        GhzConstants((0.1, 0.0))
    GhzConstants((1.0, 0.5))
    for bad in ((True,), (0.5, False), ("0.5",), (0.5, None), (3.0, 2.0), (float("nan"),)):
        with pytest.raises(ValueError):
            GhzConstants(bad)


@pytest.mark.parametrize("n,needed", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4)])
def test_ghz_constants_required_count(n, needed):
    assert GhzConstants.required_count(n) == needed


def test_ghz_constants_validate_for_checks_exact_length():
    constants = GhzConstants((0.1, 0.05))
    constants.validate_for(3)
    constants.validate_for(4)
    with pytest.raises(ValueError):
        constants.validate_for(5)
    with pytest.raises(ValueError):
        constants.validate_for(2)


@pytest.mark.parametrize("n_users", [True, 2.5, 1, "3"])
def test_ghz_constants_validate_for_rejects_bad_user_counts(n_users):
    with pytest.raises(ValueError, match="n_users must be an integer >= 2"):
        GhzConstants((0.1, 0.05)).validate_for(n_users)


# ---------------------------------------------------------------------------
# single agent


@pytest.mark.parametrize(
    "draws,bit,reward,direction,p0_after",
    [
        # measurement draw then pull draw, starting at p0 = 0.5 on (0.8, 0.2)
        ([0.3, 0.1], 0, 1, Direction.TOWARD_ZERO, 0.6),
        ([0.3, 0.95], 0, 0, Direction.TOWARD_ONE, 0.4),
        ([0.7, 0.1], 1, 1, Direction.TOWARD_ONE, 0.4),
        ([0.7, 0.95], 1, 0, Direction.TOWARD_ZERO, 0.6),
    ],
)
def test_single_agent_step_four_outcome_branches(draws, bit, reward, direction, p0_after):
    stub = _Scripted(draws)
    out, record = single_agent_step(0.5, _env(0.8, 0.2), 0.1, stub, step=7)
    assert out == pytest.approx(p0_after, abs=1e-15)
    assert stub.consumed == 2
    assert record.step == 7
    assert record.p0_before == 0.5
    assert record.measured_bit == bit
    assert record.machines == (bit,)
    assert record.rewards == (reward,)
    assert record.update_direction is direction
    assert record.update_magnitude == 0.1
    assert record.p0_after == out


def test_single_agent_step_clamps_at_boundaries():
    out, record = single_agent_step(0.95, _env(1.0, 0.0), 0.1, _Scripted([0.3, 0.5]))
    assert out == 1.0
    assert record.update_direction is Direction.TOWARD_ZERO


def test_single_agent_reward_monotone_environment_pins_the_state():
    """With machine 0 always paying and machine 1 never paying, every round
    shifts toward 0, so the state reaches 1.0 and stays there."""
    env = _env(1.0, 0.0)
    c = 0.01
    pinned = 0
    trials = 1000
    for trial in range(trials):
        rng = RandomStream(1234, stream=trial)
        p0 = 0.5
        for step in range(500):
            p0, _ = single_agent_step(p0, env, c, rng, step)
        pinned += p0 >= 1.0 - 1e-12
    assert pinned / trials > 0.99


def test_single_agent_mirror_symmetry():
    """Swapping the machines and flipping only the measurement draws mirrors
    the trajectory around 1/2: states map to their complements, measured bits
    flip, and the reward sequence is unchanged."""
    steps = 300
    draws = RandomStream(99).uniforms(2 * steps)
    mirrored = draws.copy()
    mirrored[0::2] = 1.0 - mirrored[0::2]

    c = 0.07
    a, b = _Scripted(draws), _Scripted(mirrored)
    p0, q0 = 0.5, 0.5
    for step in range(steps):
        p0, rec = single_agent_step(p0, _env(0.8, 0.3), c, a, step)
        q0, mirror = single_agent_step(q0, _env(0.3, 0.8), c, b, step)
        assert mirror.measured_bit == 1 - rec.measured_bit
        assert mirror.rewards == rec.rewards
        assert q0 == pytest.approx(1.0 - p0, abs=1e-9)


# ---------------------------------------------------------------------------
# duo conflict avoidance


def test_duo_conflict_assign_is_always_collision_free():
    rng = RandomStream(2)
    for _ in range(1000):
        u, v = duo_conflict_assign(rng)
        assert {u, v} == {0, 1}


def test_duo_conflict_assign_branches_on_the_single_draw():
    assert duo_conflict_assign(_Scripted([0.3])) == (0, 1)
    assert duo_conflict_assign(_Scripted([0.7])) == (1, 0)


@pytest.mark.parametrize("bad", [-0.5, 2.0, float("nan"), float("inf"), True])
def test_duo_conflict_assign_rejects_invalid_p_first(bad):
    with pytest.raises(ValueError, match="^p_first must be in"):
        duo_conflict_assign(RandomStream(0), bad)


def test_duo_conflict_assign_first_user_bias():
    rng = RandomStream(8)
    n = 40_000
    first_on_zero = sum(duo_conflict_assign(rng, p_first=0.75)[0] == 0 for _ in range(n))
    assert abs(first_on_zero / n - 0.75) < 0.011


# ---------------------------------------------------------------------------
# cooperative pair


@pytest.mark.parametrize(
    "draws,bit,rewards,direction,p0_after",
    [
        # measurement, then one pull per user on (0.8, 0.2), p0 = 0.5, c = 0.1
        ([0.3, 0.1, 0.1], 0, (1, 1), Direction.TOWARD_ZERO, 0.6),
        ([0.3, 0.9, 0.9], 0, (0, 0), Direction.TOWARD_ONE, 0.4),
        ([0.3, 0.1, 0.9], 0, (1, 0), None, 0.5),
        ([0.3, 0.9, 0.1], 0, (0, 1), None, 0.5),
        ([0.7, 0.1, 0.1], 1, (1, 1), Direction.TOWARD_ONE, 0.4),
        ([0.7, 0.9, 0.9], 1, (0, 0), Direction.TOWARD_ZERO, 0.6),
    ],
)
def test_coop_pair_step_outcomes(draws, bit, rewards, direction, p0_after):
    stub = _Scripted(draws)
    out, record = coop_pair_step(0.5, _env(0.8, 0.2), 0.1, stub)
    assert out == pytest.approx(p0_after, abs=1e-15)
    assert stub.consumed == 3
    assert record.measured_bit == bit
    assert record.machines == (bit, bit)
    assert record.rewards == rewards
    assert record.update_direction is direction
    assert record.update_magnitude == (0.0 if direction is None else 0.1)


@pytest.mark.parametrize("draws", [[0.3, 0.1, 0.9], [0.3, 0.1, 0.1]], ids=["split", "update"])
def test_coop_pair_step_takes_a_numpy_start_as_a_python_float(draws):
    # a split returns the state it read, so it must have read a Python float
    out, record = coop_pair_step(np.float32(0.5), _env(0.8, 0.2), 0.1, _Scripted(draws))
    assert [type(x) for x in (out, record.p0_before, record.p0_after)] == [float] * 3


@given(
    p0=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    u=st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
)
def test_coop_split_leaves_state_bit_identical(p0, u):
    # reward draws 0.25 / 0.75 on p = 0.5 machines force a split
    out, record = coop_pair_step(p0, _env(0.5, 0.5), 0.1, _Scripted([u, 0.25, 0.75]))
    assert out == p0
    assert record.p0_after == p0
    assert record.update_direction is None


# ---------------------------------------------------------------------------
# majority rule


def _majority_by_counting(n, rewards):
    """Independent restatement: count the dissenting users directly."""
    agreeing = max(sum(rewards), n - sum(rewards))
    dissenting = n - agreeing
    if agreeing == dissenting:
        return None
    if agreeing <= n // 2:
        return None
    return dissenting + 1, sum(rewards) > n - sum(rewards)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_majority_update_rule_exhaustive(n):
    for rewards in itertools.product((0, 1), repeat=n):
        assert majority_update_rule(n, rewards) == _majority_by_counting(n, rewards)


def test_majority_update_rule_rejects_bad_input():
    with pytest.raises(ValueError):
        majority_update_rule(3, (1, 0))
    with pytest.raises(ValueError):
        majority_update_rule(2, (1, 2))


def test_majority_update_rule_returns_python_numbers_for_a_numpy_count():
    outcome = majority_update_rule(np.int64(3), (1, 1, 0))
    assert outcome == (2, True)
    assert tuple(map(type, outcome)) == (int, bool)


@pytest.mark.parametrize(
    "n,rewards", [(True, (1,)), (0, ()), (2.0, (1, 1))], ids=["bool", "zero", "float"]
)
def test_majority_update_rule_refuses_a_bad_count(n, rewards):
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got "):
        majority_update_rule(n, rewards)


def test_majority_ties_only_happen_for_even_groups():
    for n in (3, 5, 7):
        for rewards in itertools.product((0, 1), repeat=n):
            assert majority_update_rule(n, rewards) is not None


# ---------------------------------------------------------------------------
# ghz majority play


@pytest.mark.parametrize(
    "draws,rewards,direction,magnitude,p0_after",
    [
        # measurement then three pulls on (0.8, 0.2), p0 = 0.5, constants (0.1, 0.05)
        ([0.3, 0.1, 0.1, 0.1], (1, 1, 1), Direction.TOWARD_ZERO, 0.1, 0.6),
        ([0.3, 0.1, 0.1, 0.95], (1, 1, 0), Direction.TOWARD_ZERO, 0.05, 0.55),
        ([0.3, 0.95, 0.95, 0.1], (0, 0, 1), Direction.TOWARD_ONE, 0.05, 0.45),
        ([0.3, 0.95, 0.95, 0.95], (0, 0, 0), Direction.TOWARD_ONE, 0.1, 0.4),
        ([0.7, 0.1, 0.1, 0.1], (1, 1, 1), Direction.TOWARD_ONE, 0.1, 0.4),
        ([0.7, 0.95, 0.95, 0.95], (0, 0, 0), Direction.TOWARD_ZERO, 0.1, 0.6),
    ],
)
def test_ghz_step_three_users(draws, rewards, direction, magnitude, p0_after):
    stub = _Scripted(draws)
    out, record = ghz_step(0.5, _env(0.8, 0.2), 3, GhzConstants((0.1, 0.05)), stub)
    assert out == pytest.approx(p0_after, abs=1e-15)
    assert stub.consumed == 4
    assert record.machines == (record.measured_bit,) * 3
    assert record.rewards == rewards
    assert record.update_direction is direction
    assert record.update_magnitude == magnitude


def test_ghz_step_even_split_is_a_no_op():
    stub = _Scripted([0.3, 0.1, 0.1, 0.95, 0.95])
    out, record = ghz_step(0.5, _env(0.5, 0.5), 4, GhzConstants((0.1, 0.05)), stub)
    assert out == 0.5
    assert stub.consumed == 5
    assert record.update_direction is None
    assert record.update_magnitude == 0.0


def test_ghz_step_rejects_mismatched_constants():
    with pytest.raises(ValueError):
        ghz_step(0.5, _env(0.5, 0.5), 5, GhzConstants((0.1, 0.05)), _NoDraws())


@pytest.mark.parametrize(
    "policy,n_draws",
    [
        (lambda stub: single_agent_step(0.5, _env(0.5, 0.5), 0.1, stub), 2),
        (lambda stub: coop_pair_step(0.5, _env(0.5, 0.5), 0.1, stub), 3),
        (lambda stub: ghz_step(0.5, _env(0.5, 0.5), 5, GhzConstants((0.1, 0.05, 0.01)), stub), 6),
        (lambda stub: duo_conflict_assign(stub), 1),
    ],
)
def test_policies_consume_a_fixed_number_of_draws(policy, n_draws):
    stub = _Scripted([0.42] * 10)
    policy(stub)
    assert stub.consumed == n_draws


# ---------------------------------------------------------------------------
# one-step frequencies against the enumeration oracle


def _one_step_frequencies(sampler, n, rng):
    counts = {}
    for _ in range(n):
        out = sampler(rng)
        counts[out] = counts.get(out, 0) + 1
    return counts


def _assert_matches_distribution(counts, dist, n):
    # the sampled states must land exactly on the enumerated support: both
    # sides compute the clamped shift with the same float expressions
    assert set(counts) <= set(dist.support())
    for state, prob in dist.outcomes:
        freq = counts.get(state, 0) / n
        sigma = max((prob * (1.0 - prob) / n) ** 0.5, 1e-9)
        assert abs(freq - prob) < 5.0 * sigma + 1e-12


def test_coop_one_step_matches_enumeration():
    p0, p1, p2, c = 0.4, 0.7, 0.3, 0.1
    env = _env(p1, p2)
    rng = RandomStream(55)
    n = 150_000
    counts = _one_step_frequencies(lambda r: coop_pair_step(p0, env, c, r)[0], n, rng)
    dist = enumerate_coop_step(p0, p1, p2, c)
    _assert_matches_distribution(counts, dist, n)


def test_ghz_one_step_matches_enumeration():
    p0, p1, p2 = 0.45, 0.8, 0.3
    constants = GhzConstants((0.1, 0.05))
    env = _env(p1, p2)
    rng = RandomStream(56)
    n = 150_000
    counts = _one_step_frequencies(lambda r: ghz_step(p0, env, 3, constants, r)[0], n, rng)
    dist = enumerate_ghz_step(p0, p1, p2, 3, constants)
    _assert_matches_distribution(counts, dist, n)

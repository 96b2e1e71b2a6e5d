"""Tests for the experiment runner, metrics, and bit-stream checks."""

import tracemalloc
import warnings

import numpy as np
import pytest

from qubit_bandit.harness import (
    ConfigError,
    ExperimentConfig,
    Scenario,
    chi_square_pairs_test,
    frequency_test,
    run_experiment,
)
from qubit_bandit.quantum import RandomStream, sample_bits


def _single_config(**overrides):
    base = dict(
        scenario=Scenario.SINGLE_AGENT,
        p1=0.8,
        p2=0.2,
        c=0.05,
        horizon=200,
        trials=4,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation


def test_user_counts_per_scenario():
    assert ExperimentConfig(scenario=Scenario.QRNG).users() == 0
    assert _single_config().users() == 1
    assert ExperimentConfig(scenario=Scenario.DUO_CONFLICT).users() == 2
    assert ExperimentConfig(scenario=Scenario.COOP_PAIR, c=0.1).users() == 2
    ghz = ExperimentConfig(scenario=Scenario.GHZ, n_users=5, constants=(0.1, 0.05, 0.01))
    assert ghz.users() == 5
    assert ExperimentConfig(scenario=Scenario.GHZ).users() == 0


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(c=None), "c"),
        (dict(c=-0.5), "c"),
        (dict(p1=1.5), "p1"),
        (dict(p2=-0.1), "p2"),
        (dict(initial_p0=2.0), "initial_p0"),
        (dict(horizon=0), "horizon"),
        (dict(trials=0), "trials"),
        (dict(seed=-1), "seed"),
        (dict(drift_step=1.5), "drift_step"),
        (dict(window=0.0), "window"),
        (dict(c=float("inf")), "c"),
        (dict(horizon=True), "horizon"),
        (dict(trials=True), "trials"),
        (dict(seed=True), "seed"),
        (dict(p1=True), "p1"),
        (dict(p2=False), "p2"),
        (dict(initial_p0=True), "initial_p0"),
        (dict(p_first=True), "p_first"),
        (dict(drift_step=True), "drift_step"),
        (dict(window=True), "window"),
        (dict(c=True), "c"),
        (dict(c=2.0), "c"),
        (dict(c=1.0000000000000002), "c"),
    ],
)
def test_validate_names_the_offending_field(overrides, field):
    with pytest.raises(ConfigError, match=rf"^{field}:"):
        _single_config(**overrides).validate()


@pytest.mark.parametrize(
    "overrides,field",
    [
        (dict(n_users=None), "n_users"),
        (dict(n_users=1), "n_users"),
        (dict(constants=None), "constants"),
        (dict(constants=(0.1,)), "constants"),  # 3 users need 2 constants
        (dict(constants=(0.05, 0.1)), "constants"),
        (dict(n_users=True), "n_users"),
        (dict(constants=(float("inf"), 0.05)), "constants"),
        (dict(constants=(True, 0.05)), "constants"),
        (dict(constants=(0.1, "0.05")), "constants"),
        (dict(constants=(3.0, 2.0)), "constants"),
        (dict(constants=(1.5, 0.5)), "constants"),
    ],
)
def test_validate_ghz_requirements(overrides, field):
    base = dict(scenario=Scenario.GHZ, n_users=3, constants=(0.1, 0.05))
    base.update(overrides)
    with pytest.raises(ConfigError, match=rf"^{field}:"):
        ExperimentConfig(**base).validate()


def test_numpy_numbers_become_python_numbers():
    config = ExperimentConfig(
        scenario=Scenario.GHZ,
        n_users=np.int64(3),
        constants=(0.1, 0.05),
        p1=np.float32(0.5),
        horizon=np.int64(3),
    )
    config.validate()
    assert (config.n_users, config.p1, config.horizon) == (3, 0.5, 3)
    assert [type(v) for v in (config.n_users, config.p1, config.horizon)] == [int, float, int]


def test_increments_of_one_are_accepted():
    _single_config(c=1.0).validate()
    ExperimentConfig(scenario=Scenario.GHZ, n_users=3, constants=(1.0, 0.5)).validate()


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


# ---------------------------------------------------------------------------
# runner determinism and trial independence


def test_run_experiment_is_reproducible():
    a_traj, a_metrics = run_experiment(_single_config())
    b_traj, b_metrics = run_experiment(_single_config())
    assert a_traj == b_traj
    assert a_metrics.to_dict() == b_metrics.to_dict()
    np.testing.assert_array_equal(a_metrics.mean_step_reward, b_metrics.mean_step_reward)


def test_different_seeds_give_different_runs():
    a, _ = run_experiment(_single_config(seed=3))
    b, _ = run_experiment(_single_config(seed=4))
    assert a != b


def test_adding_trials_leaves_earlier_trials_untouched():
    short, _ = run_experiment(_single_config(trials=2))
    long, _ = run_experiment(_single_config(trials=5))
    assert long[:2] == short


def test_trial_order_only_permutes_execution():
    in_order, metrics_in_order = run_experiment(_single_config())
    reversed_traj, metrics_reversed = run_experiment(
        _single_config(), trial_order=[3, 2, 1, 0]
    )
    assert reversed_traj == in_order
    assert metrics_reversed.to_dict() == metrics_in_order.to_dict()
    np.testing.assert_array_equal(
        metrics_reversed.mean_step_reward, metrics_in_order.mean_step_reward
    )


def _traced_peak(config, order):
    tracemalloc.start()
    try:
        run_experiment(config, record_trajectories=False, trial_order=order)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_is_bounded_by_one_trial_whatever_the_order():
    # reversed, every trial arrives before trial 0 does, so a summariser that
    # adds trials in index order would hold all sixteen
    config, lone = _single_config(horizon=2_000, trials=16), _single_config(horizon=2_000, trials=1)
    # fills the update-table memo and the refill jump tables outside the measurement
    run_experiment(lone)
    one = _traced_peak(lone, None)
    reversed_ = _traced_peak(config, range(config.trials - 1, -1, -1))
    assert reversed_ <= 1.3 * one


def test_trial_order_must_be_a_permutation():
    with pytest.raises(ValueError):
        run_experiment(_single_config(), trial_order=[0, 0, 1, 2])
    # a bool is not a trial index, although True == 1
    with pytest.raises(ValueError, match="trial_order"):
        run_experiment(_single_config(), trial_order=[0, True, 2, 3])


@pytest.mark.parametrize(
    "config,limit",
    [
        (_single_config(c=0.01, horizon=20_000, trials=2), 72),
        (
            ExperimentConfig(
                scenario=Scenario.GHZ,
                n_users=5,
                constants=(0.08, 0.04, 0.02),
                p1=0.7,
                p2=0.3,
                drift_step=0.002,
                horizon=10_000,
                trials=2,
                seed=3,
            ),
            100,
        ),
    ],
    ids=["single", "ghz-drift"],
)
def test_trial_columns_stay_compact(config, limit):
    # bytes a round that run_experiment's result keeps alive: a per-round
    # reward tuple alone would cost about 56 more
    run_experiment(config)  # fills the update-table memo outside the measurement
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_experiment(config)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result[0]) == config.trials
    assert kept / (config.horizon * config.trials) < limit


def test_metrics_do_not_depend_on_recording_trajectories():
    recorded_traj, recorded = run_experiment(_single_config())
    silent_traj, silent = run_experiment(_single_config(), record_trajectories=False)
    assert silent_traj == ()
    assert len(recorded_traj) == 4
    assert silent.to_dict() == recorded.to_dict()


# ---------------------------------------------------------------------------
# scenario behavior


def test_single_agent_locks_onto_an_always_paying_machine():
    config = ExperimentConfig(
        scenario=Scenario.SINGLE_AGENT, p1=1.0, p2=0.0, c=0.01, horizon=1000, trials=20, seed=0
    )
    _, metrics = run_experiment(config, record_trajectories=False)
    assert metrics.mean_best_arm_fraction > 0.99
    assert metrics.final_p0_mean == pytest.approx(1.0, abs=1e-12)


def test_duo_conflict_never_collides_and_splits_evenly():
    config = ExperimentConfig(scenario=Scenario.DUO_CONFLICT, p1=0.8, p2=0.2, horizon=20_000, seed=5)
    trajectories, metrics = run_experiment(config)
    assert metrics.total_conflicts == 0
    records = trajectories[0].records
    first_on_zero = sum(r.machines[0] == 0 for r in records) / len(records)
    second_on_zero = sum(r.machines[1] == 0 for r in records) / len(records)
    assert abs(first_on_zero - 0.5) < 0.02
    assert abs(second_on_zero - 0.5) < 0.02
    assert first_on_zero + second_on_zero == pytest.approx(1.0, abs=1e-12)


def test_ghz_symmetric_machines_leave_the_state_centered():
    # p1 == p2 makes the update a fair walk: no pull toward either machine
    config = ExperimentConfig(
        scenario=Scenario.GHZ,
        p1=0.5,
        p2=0.5,
        n_users=3,
        constants=(0.02, 0.01),
        horizon=10_000,
        trials=100,
        seed=1,
    )
    _, metrics = run_experiment(config, record_trajectories=False)
    assert abs(metrics.final_p0_mean - 0.5) < 0.05


def test_qrng_scenario_records_bits_without_machine_play():
    config = ExperimentConfig(scenario=Scenario.QRNG, initial_p0=0.5, horizon=5000, seed=2)
    trajectories, metrics = run_experiment(config)
    records = trajectories[0].records
    assert all(r.machines == () and r.rewards == () for r in records)
    assert metrics.mean_step_reward is None
    assert metrics.mean_regret is None
    assert metrics.best_p is None
    assert metrics.final_p0_mean == 0.5
    bits = [r.measured_bit for r in records]
    assert frequency_test(bits).passed


def test_drift_disables_regret_metrics():
    config = _single_config(drift_step=0.01)
    _, metrics = run_experiment(config)
    assert metrics.mean_regret is None
    assert metrics.best_p is None
    assert metrics.mean_best_arm_fraction is None
    assert all(t.regret is None for t in metrics.per_trial)
    assert metrics.regret_over(0, 10) is None
    # the reward curve itself is still there
    assert metrics.mean_step_reward is not None


def test_drift_draws_do_not_disturb_policy_draws():
    # with step size 0 the walk is degenerate, so any difference against the
    # no-drift run would mean drift consumed draws out of turn; instead use a
    # tiny positive step and check the policy stream still matches round 0
    still = run_experiment(_single_config(trials=1))[0][0].records
    drifting = run_experiment(_single_config(trials=1, drift_step=1e-9))[0][0].records
    assert drifting[0] == still[0]


# ---------------------------------------------------------------------------
# metrics arithmetic


def test_regret_over_windows_add_up():
    _, metrics = run_experiment(_single_config())
    total = metrics.regret_over(0, 200)
    assert total == pytest.approx(metrics.mean_regret, abs=1e-9)
    split = metrics.regret_over(0, 120) + metrics.regret_over(120, 200)
    assert split == pytest.approx(total, abs=1e-9)


def test_regret_over_rejects_bad_windows():
    _, metrics = run_experiment(_single_config())
    with pytest.raises(ValueError):
        metrics.regret_over(-1, 10)
    with pytest.raises(ValueError):
        metrics.regret_over(10, 500)
    with pytest.raises(ValueError):
        metrics.regret_over(True, 3)
    with pytest.raises(ValueError):
        metrics.regret_over(0.5, 3)


# ---------------------------------------------------------------------------
# bit-stream checks


def test_frequency_test_all_zeros_statistic_is_exact():
    result = frequency_test([0] * 10_000)
    assert result.statistic == -100.0
    assert not result.passed
    assert result.n == 10_000


def test_frequency_test_balanced_sequence_passes():
    result = frequency_test([0, 1] * 5000)
    assert result.statistic == 0.0
    assert result.passed


def test_frequency_test_threshold_is_two_sided():
    # 5164 ones in 10000 bits: z = 3.28, just under; 5166 gives 3.32
    assert frequency_test([1] * 5164 + [0] * 4836).passed
    assert not frequency_test([1] * 5166 + [0] * 4834).passed
    assert not frequency_test([0] * 5166 + [1] * 4834).passed


def test_frequency_test_needs_one_hundred_bits():
    with pytest.raises(ValueError, match="sequence too short"):
        frequency_test([0, 1] * 49)


def test_frequency_test_rejects_non_bits():
    with pytest.raises(ValueError):
        frequency_test([0, 1, 2] * 100)
    with pytest.raises(ValueError):
        frequency_test(np.zeros((10, 100), dtype=int))


_RANDOMNESS_TESTS = [(frequency_test, 100), (chi_square_pairs_test, 1000)]


@pytest.mark.parametrize("check,minimum", _RANDOMNESS_TESTS, ids=["frequency", "pairs"])
def test_randomness_tests_name_themselves_on_a_ragged_sequence(check, minimum):
    # numpy cannot shape the last, shorter pair into an array
    bits = [[0, 1]] * minimum + [[0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{check.__name__}: expected a flat bit sequence$"):
            check(bits)


@pytest.mark.parametrize(
    "half_bits",
    [[0.5, 0.5], [1.9, 0], ["1", "1"]],
    ids=["half", "truncates-to-one", "text"],
)
@pytest.mark.parametrize("check,minimum", _RANDOMNESS_TESTS, ids=["frequency", "pairs"])
def test_randomness_tests_reject_values_a_cast_would_make_bits(check, minimum, half_bits):
    # each value fills half the sequence; a cast to int would read 0.5 as 0 and 1.9 as 1
    bits = [half_bits[0]] * (minimum // 2) + [half_bits[1]] * (minimum // 2)
    with pytest.raises(ValueError, match=f"{check.__name__}: sequence must contain only 0s and 1s"):
        check(bits)


@pytest.mark.parametrize(
    "pair",
    [[False, True], [0.0, 1.0]],
    ids=["bools", "floats"],
)
@pytest.mark.parametrize("check,minimum", _RANDOMNESS_TESTS, ids=["frequency", "pairs"])
def test_randomness_tests_read_bools_and_exact_floats_as_bits(check, minimum, pair):
    # ints and the uint8 arrays sample_bits returns have tests of their own
    bits = pair * (minimum // 2)
    assert check(bits) == check([0, 1] * (minimum // 2))


def test_chi_square_pairs_alternating_bits_fail():
    # every non-overlapping pair is 01: maximally unbalanced pair counts
    result = chi_square_pairs_test([0, 1] * 500)
    assert result.statistic == pytest.approx(1500.0)
    assert not result.passed


def test_chi_square_pairs_constant_bits_fail():
    assert not chi_square_pairs_test([0] * 1000).passed
    assert not chi_square_pairs_test([1] * 1000).passed


def test_chi_square_pairs_fair_stream_passes():
    bits = sample_bits(0.5, 100_000, RandomStream(31))
    result = chi_square_pairs_test(bits)
    assert result.passed
    assert result.threshold == pytest.approx(16.2662, abs=1e-3)


def test_chi_square_pairs_needs_one_thousand_bits():
    with pytest.raises(ValueError, match="sequence too short"):
        chi_square_pairs_test([0, 1] * 499)


def test_chi_square_pairs_ignores_odd_trailing_bit():
    bits = list(sample_bits(0.5, 1001, RandomStream(32)))
    trimmed = chi_square_pairs_test(bits[:1000])
    padded = chi_square_pairs_test(bits)
    assert padded.statistic == trimmed.statistic


def test_frequency_test_passes_on_the_package_stream():
    bits = sample_bits(0.5, 100_000, RandomStream(33))
    assert frequency_test(bits).passed

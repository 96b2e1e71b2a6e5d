"""The trial loop against the per-round reference, and the draw contract.

run_experiment plays every trial of every scenario through one loop,
harness._trials. Here the same seeded streams are replayed through the
step functions one round at a time, with a fresh environment and
drift_step after every round, and the records and metrics of both routes
must agree exactly. The draw and pull counts of every scenario are checked
against the contract: per round, single 2 draws, coop 3, GHZ n + 1, duo 3,
plus 2 with drift on.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubit_bandit import bandit, cli, harness, oracle
from qubit_bandit.bandit import TwoArmBandit, drift_step, pull
from qubit_bandit.harness import ExperimentConfig, Scenario, run_experiment
from qubit_bandit.policies import (
    GhzConstants,
    StepRecord,
    coop_pair_step,
    duo_conflict_assign,
    ghz_step,
    single_agent_step,
)
from qubit_bandit.quantum import RandomStream


def _reference_trial(config, rng):
    """One trial, round by round through the step functions."""
    env = TwoArmBandit(config.p1, config.p2, config.drift_step)
    records = []
    p0 = config.initial_p0
    for step in range(config.horizon):
        scenario = config.scenario
        if scenario is Scenario.SINGLE_AGENT:
            p0, record = single_agent_step(p0, env, config.c, rng, step=step)
        elif scenario is Scenario.DUO_CONFLICT:
            machines = duo_conflict_assign(rng, config.p_first)
            rewards = (pull(env.arm(machines[0]), rng), pull(env.arm(machines[1]), rng))
            p_first = config.p_first
            record = StepRecord(step, p_first, machines[0], machines, rewards, None, 0.0, p_first)
        elif scenario is Scenario.COOP_PAIR:
            p0, record = coop_pair_step(p0, env, config.c, rng, step=step)
        else:
            constants = GhzConstants(config.constants)
            p0, record = ghz_step(p0, env, config.n_users, constants, rng, step=step)
        records.append(record)
        env = drift_step(env, rng)
    return tuple(records)


def _reference_metrics(config, trials):
    """Metrics.to_dict() recomputed from the reference records of every trial."""
    n = len(trials[0][0].rewards)
    horizon = config.horizon
    scored = not config.drift_on()
    best_arm = 0 if config.p1 >= config.p2 else 1
    window_steps = max(1, int(horizon * config.window))
    totals, regrets, fractions, finals = [], [], [], []
    conflicts = 0
    for records in trials:
        total = sum(sum(r.rewards) for r in records)
        totals.append(total)
        finals.append(records[-1].p0_after)
        if config.scenario is Scenario.DUO_CONFLICT:
            conflicts += sum(r.machines[0] == r.machines[1] for r in records)
        if scored:
            regrets.append(max(config.p1, config.p2) * horizon - total / n)
            hits = sum(m == best_arm for r in records[-window_steps:] for m in r.machines)
            fractions.append(hits / (window_steps * n))
    return {
        "n_trials": len(trials),
        "horizon": horizon,
        "n_users": n,
        "best_p": max(config.p1, config.p2) if scored else None,
        "window": config.window,
        "mean_total_reward": float(np.mean(totals)),
        "mean_regret": float(np.mean(regrets)) if scored else None,
        "total_conflicts": conflicts,
        "final_p0_mean": float(np.mean(finals)),
        "final_p0_std": float(np.std(finals)),
        "mean_best_arm_fraction": float(np.mean(fractions)) if scored else None,
    }


probabilities = st.floats(0.0, 1.0)


@st.composite
def configs(draw):
    scenario = draw(st.sampled_from([s for s in Scenario if s is not Scenario.QRNG]))
    kwargs = dict(
        scenario=scenario,
        p1=draw(probabilities),
        p2=draw(probabilities),
        initial_p0=draw(probabilities),
        p_first=draw(probabilities),
        horizon=draw(st.integers(1, 60)),
        trials=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
        drift_step=draw(st.sampled_from([0.0, 0.05, 0.3])),
        window=draw(st.sampled_from([0.2, 0.5, 1.0])),
    )
    if scenario in (Scenario.SINGLE_AGENT, Scenario.COOP_PAIR):
        kwargs["c"] = draw(st.floats(0.01, 0.5))
    if scenario is Scenario.GHZ:
        n = draw(st.integers(2, 6))
        k = (n + 1) // 2
        constants = draw(st.lists(st.floats(0.01, 0.5), min_size=k, max_size=k, unique=True))
        kwargs["n_users"] = n
        kwargs["constants"] = tuple(sorted(constants, reverse=True))
    return ExperimentConfig(**kwargs)


_CONTRACT = [
    # (scenario settings, draws per round without drift, pulls per round)
    (dict(scenario=Scenario.SINGLE_AGENT, c=0.1), 2, 1),
    (dict(scenario=Scenario.COOP_PAIR, c=0.1), 3, 2),
    (dict(scenario=Scenario.GHZ, n_users=4, constants=(0.1, 0.05)), 5, 4),
    (dict(scenario=Scenario.GHZ, n_users=5, constants=(0.1, 0.05, 0.01)), 6, 5),
    (dict(scenario=Scenario.DUO_CONFLICT), 3, 2),
]

# _trials hands each trial over in blocks of _BLOCK_CAP = 4,096 rounds:
# (horizon, trials) on both sides of one block edge, and one round past two
# blocks, where a second trial's blocks follow the first's
_BLOCK_EDGES = ((4_095, 1), (4_096, 1), (4_097, 1), (8_193, 2))


def _at_block_edges(test):
    """test with an explicit example per scenario, drift setting and block-edge horizon."""
    for settings_, _, _ in _CONTRACT:
        for drift in (0.0, 0.01):
            for horizon, trials in _BLOCK_EDGES:
                run = dict(horizon=horizon, trials=trials, seed=horizon, drift_step=drift)
                config = ExperimentConfig(p1=0.6, p2=0.3, window=0.3, **run, **settings_)
                test = example(config=config)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(config=configs())
@_at_block_edges
def test_trial_loop_matches_the_per_round_reference(config):
    trajectories, metrics = run_experiment(config)
    reference = [
        _reference_trial(config, RandomStream(config.seed, stream=trial))
        for trial in range(config.trials)
    ]
    assert [t.records for t in trajectories] == reference
    assert metrics.to_dict() == _reference_metrics(config, reference)
    n = len(reference[0][0].rewards)
    np.testing.assert_array_equal(metrics.mean_step_reward, _exact_mean(reference))
    if n in (1, 2, 4):
        # per-user rewards are dyadic, so numpy's float sum is exact as well
        curves = [[sum(r.rewards) / n for r in records] for records in reference]
        np.testing.assert_array_equal(metrics.mean_step_reward, np.mean(curves, axis=0))


def _exact_mean(trials):
    """Each round's reward over trials and users, as an exact Fraction rounded once."""
    plays = len(trials[0][0].rewards) * len(trials)
    counts = [sum(sum(r.rewards) for r in round_) for round_ in zip(*trials)]
    return np.array([float(Fraction(count, plays)) for count in counts])


def _reference_curve(config):
    """The exact mean reward curve of the per-round reference's trials."""
    trials = [
        _reference_trial(config, RandomStream(config.seed, stream=trial))
        for trial in range(config.trials)
    ]
    return _exact_mean(trials)


def _ghz3(horizon, trials, seed):
    # a round's per-user reward is a third, so a float sum over trials would
    # round in an order-dependent way
    return ExperimentConfig(
        scenario=Scenario.GHZ,
        n_users=3,
        constants=(0.1, 0.05),
        p1=0.6,
        p2=0.3,
        horizon=horizon,
        trials=trials,
        seed=seed,
    )


# np.mean sums one column pairwise, so a float running sum over trials would
# differ from it and from the exact mean here
@pytest.mark.parametrize("trials", [8, 100, 5000])
def test_mean_curve_matches_exact_mean_at_horizon_one(trials):
    config = _ghz3(horizon=1, trials=trials, seed=0)
    _, metrics = run_experiment(config, record_trajectories=False)
    assert metrics.mean_step_reward.tobytes() == _reference_curve(config).tobytes()


def test_reversed_trial_order_keeps_metrics_bit_identical():
    # reversed, every trial is added before trial 0, and the curve of thirds
    # must still come out as the exact mean
    config = _ghz3(horizon=10, trials=1000, seed=8)
    _, in_order = run_experiment(config, record_trajectories=False)
    _, reversed_ = run_experiment(
        config, record_trajectories=False, trial_order=range(config.trials - 1, -1, -1)
    )
    assert reversed_.to_dict() == in_order.to_dict()
    assert reversed_.per_trial == in_order.per_trial
    curve = _reference_curve(config).tobytes()
    assert in_order.mean_step_reward.tobytes() == reversed_.mean_step_reward.tobytes() == curve


def _counting(monkeypatch, module):
    """Count every draw of module's RandomStream and every pull the loop makes."""
    counts = {"draws": 0, "pulls": 0}

    class CountingStream(RandomStream):
        def uniform(self):
            counts["draws"] += 1
            return super().uniform()

        def uniforms(self, count):
            counts["draws"] += count
            return super().uniforms(count)

    def counting_pull(p_reward, rng):
        counts["pulls"] += 1
        return pull(p_reward, rng)

    monkeypatch.setattr(module, "RandomStream", CountingStream)
    monkeypatch.setattr(bandit, "pull", counting_pull)
    return counts


@pytest.mark.parametrize("drift", [0.0, 0.01], ids=["still", "drift"])
@pytest.mark.parametrize(
    "settings_,draws,pulls", _CONTRACT, ids=["single", "coop", "ghz4", "ghz5", "duo"]
)
def test_run_experiment_keeps_the_draw_contract(monkeypatch, settings_, draws, pulls, drift):
    counts = _counting(monkeypatch, harness)
    config = ExperimentConfig(p1=0.6, p2=0.3, horizon=7, trials=3, drift_step=drift, **settings_)
    run_experiment(config)
    rounds = config.horizon * config.trials
    drift_draws = 2 if drift else 0
    assert counts == {"draws": (draws + drift_draws) * rounds, "pulls": pulls * rounds}


def test_asymptotic_report_keeps_the_draw_contract(monkeypatch):
    counts = _counting(monkeypatch, harness)
    oracle.asymptotic_claim_report(0.7, 0.4, 0.1, horizon=9, trials=4)
    assert counts == {"draws": 2 * 9 * 4, "pulls": 9 * 4}


# at horizon 5,000 the window, rounds 4,000 to 4,999, starts in a trial's
# first block of 4,096 rounds and ends in its second
@pytest.mark.parametrize("horizon,trials", [(40, 6), (5_000, 3)])
def test_asymptotic_report_matches_the_per_round_reference(horizon, trials):
    # a small c keeps the horizon-40 states off the clamps, so every window state counts
    p1, p2, c, seed = 0.6, 0.5, 0.02, 9
    report = oracle.asymptotic_claim_report(p1, p2, c, horizon=horizon, trials=trials, seed=seed)
    env = TwoArmBandit(p1, p2)
    window_steps = max(1, int(horizon * 0.2))
    mean_states, zero_rates = [], []
    for trial in range(trials):
        rng = RandomStream(seed, stream=trial)
        p0 = 0.5
        state_acc = 0.0
        zero_picks = 0
        for step in range(horizon):
            p0, record = single_agent_step(p0, env, c, rng, step=step)
            if step >= horizon - window_steps:
                state_acc += record.p0_after
                zero_picks += record.machines[0] == 0
        mean_states.append(state_acc / window_steps)
        zero_rates.append(zero_picks / window_steps)
    assert report.mc_mean_p0 == float(np.mean(mean_states))
    assert report.mc_zero_choice_rate == float(np.mean(zero_rates))


def _expected_row(trial, record):
    """A reference record as the emitted row's fields, numbers at 12 digits."""
    direction = record.update_direction
    return {
        "trial": trial,
        "step": record.step,
        "p0_before": cli._round12(record.p0_before),
        "measured_bit": record.measured_bit,
        "chosen_machine": list(record.machines),
        "reward": list(record.rewards),
        "update_direction": direction.value if direction else "none",
        "update_magnitude": cli._round12(record.update_magnitude),
        "p0_after": cli._round12(record.p0_after),
    }


def _csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for key in ("trial", "step", "measured_bit"):
            row[key] = int(row[key])
        for key in ("chosen_machine", "reward"):
            row[key] = [int(v) for v in row[key].split("|")]
        for key in ("p0_before", "update_magnitude", "p0_after"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


# even n is where the move table has both a tie entry (r = n/2) and graded
# entries (constants past the first); no golden file has an even n above 2
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("drift", ["0", "0.05"], ids=["still", "drift"])
@pytest.mark.parametrize("n,constants", [(4, "0.2,0.1"), (6, "0.2,0.1,0.05")], ids=["n4", "n6"])
def test_even_ghz_rows_match_the_per_round_reference(capsys, n, constants, drift, fmt):
    argv = ["ghz", "--n", str(n), "--constants", constants, "--p1", "0.55", "--p2", "0.45"]
    argv += ["--horizon", "40", "--trials", "3", "--seed", "17", "--drift-step", drift]
    argv += ["--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    rows = _csv_rows(out) if fmt == "csv" else json.loads(out)["steps"]
    config = cli.parse_args(argv)[0]
    reference = [
        (trial, record)
        for trial in range(config.trials)
        for record in _reference_trial(config, RandomStream(config.seed, stream=trial))
    ]
    assert rows == [_expected_row(trial, record) for trial, record in reference]
    # the rows cover ties, full agreement and every graded constant
    records = [record for _, record in reference]
    assert any(2 * sum(r.rewards) == n and r.update_direction is None for r in records)
    assert {r.update_magnitude for r in records} == {0.0, *map(float, constants.split(","))}

"""End-to-end acceptance checks.

One test per shipped guarantee. Each prints a single verdict line straight to
the terminal (capture suspended) before asserting, so a full run always shows
the scoreboard:

    [acceptance] criterion 01 fair-source-statistics: PASS (...)

Statistical checks run at fixed seeds; tolerances are stated inline.
"""

import itertools
import time

import numpy as np

import pytest

from qubit_bandit.bandit import ReplicatedBandit, TwoArmBandit
from qubit_bandit.cli import main, parse_args
from qubit_bandit.harness import ExperimentConfig, Scenario, run_experiment
from qubit_bandit.oracle import (
    asymptotic_claim_report,
    enumerate_single_step,
    evolve_distribution,
)
from qubit_bandit.policies import (
    GhzConstants,
    UpdateConfig,
    coop_pair_step,
    duo_conflict_assign,
    ghz_step,
    majority_update_rule,
    single_agent_step,
)
from qubit_bandit.quantum import RandomStream


def _verdict(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[acceptance] criterion {number:02d} {name}: {status}{extra}")


def _battery_verdicts(cli_output: str) -> dict[str, str]:
    verdicts = {}
    for line in cli_output.splitlines():
        if line.startswith("#") and "result=" in line:
            name = line[1:].strip().split()[0]
            verdicts[name] = line.rsplit("result=", 1)[1]
    return verdicts


def test_01_fair_source_statistics(capsys):
    started = time.perf_counter()
    assert main(["qrng", "--count", "100000", "--p0", "0.5", "--seed", "0"]) == 0
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    verdicts = _battery_verdicts(out)
    ok = verdicts == {"frequency": "pass", "chi_square_pairs": "pass"} and elapsed < 1.0
    _verdict(capsys, 1, "fair-source-statistics", ok, f"{verdicts}, {elapsed:.2f} s")
    assert verdicts["frequency"] == "pass"
    assert verdicts["chi_square_pairs"] == "pass"
    assert elapsed < 1.0


def test_02_biased_source_statistics(capsys):
    started = time.perf_counter()
    assert main(["qrng", "--count", "100000", "--p0", "0.6", "--seed", "0"]) == 0
    elapsed = time.perf_counter() - started
    bits = capsys.readouterr().out.splitlines()[0]
    assert len(bits) == 100_000
    zero_fraction = bits.count("0") / len(bits)
    ok = abs(zero_fraction - 0.6) <= 0.01 and elapsed < 1.0
    _verdict(capsys, 2, "biased-source-statistics", ok, f"zero fraction {zero_fraction:.4f}, {elapsed:.2f} s")
    assert abs(zero_fraction - 0.6) <= 0.01
    assert elapsed < 1.0


def test_03_one_step_oracle_equivalence(capsys):
    started = time.perf_counter()
    params = np.random.default_rng(2024)
    samples = 100_000
    worst_z = 0.0
    for case in range(50):
        p0, p1, p2 = params.random(3)
        c = params.uniform(0.005, 0.3)
        env = TwoArmBandit(p1, p2)
        cfg = UpdateConfig(c)
        stream = RandomStream(777, stream=case)
        counts: dict[float, int] = {}
        for _ in range(samples):
            out, _ = single_agent_step(p0, env, cfg, stream)
            counts[out] = counts.get(out, 0) + 1
        dist = enumerate_single_step(p0, p1, p2, c)
        # sampled states must be exactly the enumerated ones, no binning
        assert set(counts) <= set(dist.support())
        for state, prob in dist.outcomes:
            freq = counts.get(state, 0) / samples
            se = max((prob * (1.0 - prob) / samples) ** 0.5, 1e-12)
            worst_z = max(worst_z, abs(freq - prob) / se)
    elapsed = time.perf_counter() - started
    ok = worst_z < 5.0 and elapsed < 30.0
    _verdict(capsys, 3, "one-step-oracle-equivalence", ok, f"worst z {worst_z:.2f}, {elapsed:.1f} s")
    assert worst_z < 5.0
    assert elapsed < 30.0


def test_04_markov_chain_equivalence(capsys):
    started = time.perf_counter()
    config = ExperimentConfig(
        scenario=Scenario.SINGLE_AGENT,
        p1=0.8,
        p2=0.2,
        c=0.1,
        initial_p0=0.5,
        horizon=10,
        trials=100_000,
        seed=0,
    )
    _, metrics = run_experiment(config, record_trajectories=False)
    finals = np.array([t.final_p0 for t in metrics.per_trial])
    dist = evolve_distribution(0.5, 0.8, 0.2, 0.1, 10)

    support = np.array(dist.support())
    probs = np.array([p for _, p in dist.outcomes])
    # the exact lattice can hold rationally distinct states less than an ulp
    # apart; compare at observable resolution by clustering within 1e-9
    cluster_id = np.concatenate(([0], np.cumsum(np.diff(support) > 1e-9)))
    n_clusters = int(cluster_id[-1]) + 1
    cluster_prob = np.bincount(cluster_id, weights=probs, minlength=n_clusters)

    nearest = np.abs(finals[:, None] - support[None, :]).argmin(axis=1)
    off_lattice = float(np.abs(finals - support[nearest]).max())
    assert off_lattice < 1e-9
    counts = np.bincount(cluster_id[nearest], minlength=n_clusters)

    n = finals.size
    worst_z = 0.0
    for k in range(n_clusters):
        freq = counts[k] / n
        se = max((cluster_prob[k] * (1.0 - cluster_prob[k]) / n) ** 0.5, 1e-12)
        worst_z = max(worst_z, abs(freq - cluster_prob[k]) / se)
    elapsed = time.perf_counter() - started
    ok = worst_z < 5.0 and elapsed < 60.0
    _verdict(
        capsys,
        4,
        "markov-chain-equivalence",
        ok,
        f"{n_clusters} lattice points, worst z {worst_z:.2f}, {elapsed:.1f} s",
    )
    assert worst_z < 5.0
    assert elapsed < 60.0


def test_05_convergence_and_regret(capsys):
    started = time.perf_counter()
    config = ExperimentConfig(
        scenario=Scenario.SINGLE_AGENT,
        p1=0.8,
        p2=0.2,
        c=0.01,
        horizon=10_000,
        trials=100,
        seed=2,
    )
    _, metrics = run_experiment(config, record_trajectories=False)
    m0_fraction = metrics.mean_best_arm_fraction  # window 0.2: final 2000 rounds
    first_half = metrics.regret_over(0, 5000)
    second_half = metrics.regret_over(5000, 10_000)
    elapsed = time.perf_counter() - started
    ok = m0_fraction >= 0.95 and second_half < 0.5 * first_half and elapsed < 60.0
    _verdict(
        capsys,
        5,
        "convergence-and-regret",
        ok,
        f"M0 fraction {m0_fraction:.4f}, regret {first_half:.1f} -> {second_half:.1f}, "
        f"{elapsed:.1f} s",
    )
    assert m0_fraction >= 0.95
    assert second_half < 0.5 * first_half
    assert elapsed < 60.0


@pytest.mark.parametrize("p1,p2", [(0.8, 0.2), (0.6, 0.4)])
def test_06_asymptotic_claim_report(p1, p2, capsys):
    report = asymptotic_claim_report(p1, p2, 0.01)
    consistent = (
        report.chain_mean_p0 is not None
        and abs(report.mc_mean_p0 - report.chain_mean_p0) < 5.0 * report.mc_mean_p0_ci / 1.96
        and abs(report.mc_zero_choice_rate - report.chain_mean_p0)
        < 5.0 * report.mc_zero_choice_rate_ci / 1.96
    )
    text = report.summary()
    emitted = (
        f"{report.reward_share:.6f}" in text
        and f"{report.mc_mean_p0:.6f}" in text
        and f"{report.mc_mean_p0_ci:.6f}" in text
        and f"{report.chain_mean_p0:.6f}" in text
    )
    _verdict(
        capsys,
        6,
        f"asymptotic-claim-report[{p1:g},{p2:g}]",
        consistent and emitted,
        f"share {report.reward_share:.3f}, mc {report.mc_mean_p0:.4f}"
        f"+/-{report.mc_mean_p0_ci:.4f}, chain {report.chain_mean_p0:.4f}",
    )
    assert report.reward_share == pytest.approx(p1 / (p1 + p2))
    assert report.chain_mean_p0 is not None
    # internal consistency: the seeded Monte Carlo window mean must sit within
    # five estimator standard errors of the exact chain value (and the pick
    # rate likewise); closeness to reward_share is deliberately NOT asserted
    assert abs(report.mc_mean_p0 - report.chain_mean_p0) < 5.0 * report.mc_mean_p0_ci / 1.96
    assert (
        abs(report.mc_zero_choice_rate - report.chain_mean_p0)
        < 5.0 * report.mc_zero_choice_rate_ci / 1.96
    )
    assert emitted


def test_07_conflict_free_duo(capsys):
    started = time.perf_counter()
    config = ExperimentConfig(scenario=Scenario.DUO_CONFLICT, horizon=100_000, seed=5)
    trajectories, metrics = run_experiment(config)
    records = trajectories[0].records
    first_freq = sum(r.machines[0] == 0 for r in records) / len(records)
    second_freq = sum(r.machines[1] == 0 for r in records) / len(records)
    elapsed = time.perf_counter() - started
    ok = (
        metrics.total_conflicts == 0
        and abs(first_freq - 0.5) <= 0.01
        and abs(second_freq - 0.5) <= 0.01
        and elapsed < 5.0
    )
    _verdict(
        capsys,
        7,
        "conflict-free-duo",
        ok,
        f"conflicts {metrics.total_conflicts}, M0 freq {first_freq:.4f}/{second_freq:.4f}, "
        f"{elapsed:.1f} s",
    )
    assert metrics.total_conflicts == 0
    assert abs(first_freq - 0.5) <= 0.01
    assert abs(second_freq - 0.5) <= 0.01
    assert elapsed < 5.0


def test_08_cooperative_split_neutrality(capsys):
    params = np.random.default_rng(515)
    stream = RandomStream(515)
    splits = 0
    violations = 0
    for case in range(10_000):
        if case % 100 == 0:
            p1, p2 = params.random(2)
            env = ReplicatedBandit(TwoArmBandit(p1, p2), 2)
            cfg = UpdateConfig(params.uniform(0.001, 0.4))
        p0 = float(params.random())
        out, record = coop_pair_step(p0, env, cfg, stream)
        if sum(record.rewards) == 1:
            splits += 1
            if out != p0 or record.p0_after != p0:
                violations += 1
    ok = violations == 0 and splits > 1500
    _verdict(capsys, 8, "cooperative-split-neutrality", ok, f"{splits} splits, {violations} violations")
    assert violations == 0
    assert splits > 1500  # the property was actually exercised


def test_09_ghz_rules(capsys):
    def brute_force(n, rewards):
        rewarded = sum(rewards)
        unrewarded = n - rewarded
        if rewarded == unrewarded:
            return None
        agreeing = max(rewarded, unrewarded)
        return n - agreeing + 1, rewarded > unrewarded

    checked = 0
    for n in range(2, 8):
        for rewards in itertools.product((0, 1), repeat=n):
            assert majority_update_rule(n, rewards) == brute_force(n, rewards)
            checked += 1

    rejected = 0
    for bad in ((0.1, 0.1), (0.05, 0.1), (0.1, 0.0), ()):
        with pytest.raises(ValueError):
            GhzConstants(bad)
        rejected += 1
    for n, constants in ((4, (0.1,)), (2, (0.1, 0.05)), (7, (0.1, 0.05, 0.01))):
        with pytest.raises(ValueError):
            GhzConstants(constants).validate_for(n)
        rejected += 1
    _verdict(capsys, 9, "ghz-rules", True, f"{checked} reward vectors, {rejected} rejections")


def test_10_reproducibility(tmp_path, capsys):
    argv = [
        "single",
        "--c",
        "0.05",
        "--p1",
        "0.7",
        "--p2",
        "0.4",
        "--horizon",
        "300",
        "--trials",
        "3",
        "--seed",
        "11",
    ]
    paths = {}
    for fmt in ("csv", "json"):
        a, b = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert main(argv + ["--format", fmt, "--output", str(a)]) == 0
        assert main(argv + ["--format", fmt, "--output", str(b)]) == 0
        paths[fmt] = (a.read_bytes(), b.read_bytes())
    capsys.readouterr()
    bytes_identical = all(first == second for first, second in paths.values())

    config = parse_args(argv)[0]
    _, in_order = run_experiment(config)
    _, permuted = run_experiment(config, trial_order=(2, 0, 1))
    aggregates_identical = (
        in_order.to_dict() == permuted.to_dict()
        and np.array_equal(in_order.mean_step_reward, permuted.mean_step_reward)
        and in_order.per_trial == permuted.per_trial
    )
    ok = bytes_identical and aggregates_identical
    _verdict(
        capsys,
        10,
        "reproducibility",
        ok,
        f"byte-identical csv/json: {bytes_identical}, permuted aggregates equal: "
        f"{aggregates_identical}",
    )
    assert bytes_identical
    assert aggregates_identical


def test_11_state_validity(capsys):
    started = time.perf_counter()
    params = np.random.default_rng(31337)
    steps_taken = 0

    def check(p0):
        assert 0.0 <= p0 <= 1.0
        assert abs((p0 + (1.0 - p0)) - 1.0) <= 1e-12

    block = 0
    # 500k single, 200k coop, 200k ghz, 100k duo: one million steps total
    for scenario, blocks in (("single", 500), ("coop", 200), ("ghz", 200), ("duo", 100)):
        for _ in range(blocks):
            stream = RandomStream(888, stream=block)
            block += 1
            p1, p2 = params.random(2)
            if scenario == "duo":
                p_first = float(params.random())
                check(p_first)
                for _ in range(1000):
                    machines = duo_conflict_assign(stream, p_first)
                    assert {machines[0], machines[1]} == {0, 1}
                    steps_taken += 1
                continue
            p0 = float(params.random())
            check(p0)
            if scenario == "single":
                env = TwoArmBandit(p1, p2)
                cfg = UpdateConfig(params.uniform(0.001, 0.4))
                for _ in range(1000):
                    p0, _ = single_agent_step(p0, env, cfg, stream)
                    check(p0)
                    steps_taken += 1
            elif scenario == "coop":
                env = ReplicatedBandit(TwoArmBandit(p1, p2), 2)
                cfg = UpdateConfig(params.uniform(0.001, 0.4))
                for _ in range(1000):
                    p0, _ = coop_pair_step(p0, env, cfg, stream)
                    check(p0)
                    steps_taken += 1
            else:
                n = 3 + block % 3
                count = GhzConstants.required_count(n)
                first = params.uniform(0.05, 0.2)
                constants = GhzConstants(tuple(first * 0.5**i for i in range(count)))
                env = ReplicatedBandit(TwoArmBandit(p1, p2), n)
                for _ in range(1000):
                    p0, _ = ghz_step(p0, env, constants, stream)
                    check(p0)
                    steps_taken += 1
    elapsed = time.perf_counter() - started
    ok = steps_taken == 1_000_000
    _verdict(capsys, 11, "state-validity", ok, f"{steps_taken} steps, {elapsed:.1f} s")
    assert steps_taken == 1_000_000

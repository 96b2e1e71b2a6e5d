"""Tests for the enumeration references: one-step laws, chain evolution, drift."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qubit_bandit import oracle
from qubit_bandit.oracle import (
    TransitionDistribution,
    asymptotic_claim_report,
    enumerate_coop_step,
    enumerate_ghz_step,
    enumerate_single_step,
    evolve_distribution,
    expected_drift,
)
from qubit_bandit.policies import GhzConstants
from qubit_bandit.quantum import RandomStream


def _mass_near(dist, target, tol=1e-9):
    return sum(prob for state, prob in dist.outcomes if abs(state - target) <= tol)


def _merged_at_nine_decimals(pairs):
    merged = {}
    for state, prob in pairs:
        key = round(state, 9)
        merged[key] = merged.get(key, 0.0) + prob
    return merged


# ---------------------------------------------------------------------------
# the distribution container


def test_distribution_accessors():
    dist = TransitionDistribution(((0.4, 0.2), (0.6, 0.8)))
    assert dist.support() == (0.4, 0.6)
    assert dist.probabilities() == {0.4: 0.2, 0.6: 0.8}
    assert dist.mean() == pytest.approx(0.56)


def test_distribution_rejects_unsorted_or_duplicate_states():
    with pytest.raises(ValueError):
        TransitionDistribution(((0.6, 0.5), (0.4, 0.5)))
    with pytest.raises(ValueError):
        TransitionDistribution(((0.4, 0.5), (0.4, 0.5)))


def test_distribution_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        TransitionDistribution(((0.4, -0.1), (0.6, 1.1)))
    with pytest.raises(ValueError):
        TransitionDistribution(((0.4, 0.3), (0.6, 0.3)))
    with pytest.raises(ValueError):
        TransitionDistribution(((1.4, 1.0),))


# ---------------------------------------------------------------------------
# one-step enumeration


def test_enumerate_single_step_symmetric_example():
    # up-move probability: 0.5 * 0.8 + 0.5 * (1 - 0.2) = 0.8
    dist = enumerate_single_step(0.5, 0.8, 0.2, 0.1)
    assert dist.support() == (0.4, 0.6)
    assert dist.probabilities()[0.6] == pytest.approx(0.8, abs=1e-15)
    assert dist.probabilities()[0.4] == pytest.approx(0.2, abs=1e-15)


def test_enumerate_single_step_deterministic_environment():
    # machine 0 always pays, machine 1 never does: every branch shifts up
    dist = enumerate_single_step(0.5, 1.0, 0.0, 0.1)
    assert dist.outcomes == ((0.6, 1.0),)


def test_enumerate_single_step_pinned_state_stays_pinned():
    dist = enumerate_single_step(1.0, 1.0, 0.0, 0.1)
    assert dist.outcomes == ((1.0, 1.0),)


def test_enumerate_single_step_clamps_and_merges():
    dist = enumerate_single_step(0.95, 0.8, 0.2, 0.1)
    assert dist.support() == (0.85, 1.0)
    assert _mass_near(dist, 1.0) == pytest.approx(0.8, abs=1e-15)


def test_enumerate_single_step_drops_zero_mass_branches():
    # p0 = 1 gives the machine-1 branches zero probability
    dist = enumerate_single_step(1.0, 0.8, 0.2, 0.1)
    assert dist.support() == (0.9, 1.0)


@pytest.mark.parametrize("fn_args", [(-0.1, 0.5, 0.5, 0.1), (0.5, 1.5, 0.5, 0.1), (0.5, 0.5, 0.5, 0.0)])
def test_enumerate_single_step_validates_inputs(fn_args):
    with pytest.raises(ValueError):
        enumerate_single_step(*fn_args)


def test_one_step_probabilities_sum_to_one_over_random_inputs():
    rng = np.random.default_rng(12345)
    constants = GhzConstants((0.08, 0.04, 0.02))
    for _ in range(1000):
        p0, p1, p2 = rng.random(3)
        c = rng.uniform(0.001, 0.5)
        for dist in (
            enumerate_single_step(p0, p1, p2, c),
            enumerate_coop_step(p0, p1, p2, c),
            enumerate_ghz_step(p0, p1, p2, 5, constants),
        ):
            total = sum(prob for _, prob in dist.outcomes)
            assert abs(total - 1.0) <= 1e-12
            assert all(0.0 <= s <= 1.0 for s in dist.support())


def test_enumerate_coop_step_split_mass_stays_in_place():
    dist = enumerate_coop_step(0.4, 0.7, 0.3, 0.1)
    # split probability: 0.4 * 2*0.7*0.3 + 0.6 * 2*0.3*0.7 = 0.42
    assert _mass_near(dist, 0.4) == pytest.approx(0.42, abs=1e-12)


def test_enumerate_ghz_step_even_group_keeps_tie_mass_in_place():
    dist = enumerate_ghz_step(0.45, 0.5, 0.5, 4, GhzConstants((0.1, 0.05)))
    # tie: exactly 2 of 4 rewarded, probability C(4,2)/16 = 0.375 on each branch
    assert _mass_near(dist, 0.45) == pytest.approx(0.375, abs=1e-12)


def _one_constant(enumerate_step):
    """A single or coop enumerator called like enumerate_ghz_step."""
    return lambda p0, p1, p2, n, constants: enumerate_step(p0, p1, p2, *constants.constants)


# single play is the majority round for n = 1 and coop for n = 2
@pytest.mark.parametrize(
    "n,enumerate_step",
    [
        pytest.param(1, _one_constant(enumerate_single_step), id="single-1"),
        pytest.param(2, _one_constant(enumerate_coop_step), id="coop-2"),
    ]
    + [pytest.param(n, enumerate_ghz_step, id=str(n)) for n in range(2, 7)],
)
def test_enumerate_ghz_step_matches_a_sum_over_every_reward_vector(n, enumerate_step):
    constants = GhzConstants((0.3, 0.2, 0.1)[: (n + 1) // 2])
    rng = random.Random(n)
    for p0, p1, p2 in [(0.5, 0.5, 0.5), (0.05, 0.9, 0.2)] + [
        (rng.random(), rng.random(), rng.random()) for _ in range(20)
    ]:
        by_vector = {}
        for bit, branch_prob, q in ((0, p0, p1), (1, 1.0 - p0, p2)):
            for rewards in itertools.product((0, 1), repeat=n):
                prob = branch_prob * math.prod(q if r else 1.0 - q for r in rewards)
                yes = sum(rewards)
                if 2 * yes == n:
                    nxt = p0
                else:
                    rewarded_majority = 2 * yes > n
                    step = constants.constants[n - yes if rewarded_majority else yes]
                    if (bit == 0) == rewarded_majority:
                        nxt = min(p0 + step, 1.0)
                    else:
                        nxt = max(p0 - step, 0.0)
                by_vector[nxt] = by_vector.get(nxt, 0.0) + prob
        enumerated = enumerate_step(p0, p1, p2, n, constants).probabilities()
        assert enumerated.keys() == {s for s, prob in by_vector.items() if prob > 0.0}
        for state, prob in enumerated.items():
            assert prob == pytest.approx(by_vector[state], abs=1e-15)
    # the enumerators re-derive the majority rule instead of calling the policy code
    assert not hasattr(oracle, "majority_update_rule")


# ---------------------------------------------------------------------------
# expected drift


def test_expected_drift_worked_example():
    assert expected_drift(0.5, 0.8, 0.2, 0.1) == pytest.approx(0.06, abs=1e-15)


def test_expected_drift_vanishes_for_indifferent_machines():
    for p0 in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert expected_drift(p0, 0.5, 0.5, 0.01) == pytest.approx(0.0, abs=1e-15)


def test_expected_drift_matches_enumerated_mean_away_from_clamps():
    rng = np.random.default_rng(777)
    for _ in range(200):
        c = rng.uniform(0.001, 0.2)
        p0 = rng.uniform(c, 1.0 - c)  # no clamping possible
        p1, p2 = rng.random(2)
        dist = enumerate_single_step(p0, p1, p2, c)
        drift = expected_drift(p0, p1, p2, c)
        assert dist.mean() - p0 == pytest.approx(drift, abs=1e-12)
        assert abs(drift) <= c


# ---------------------------------------------------------------------------
# multi-step evolution


def test_evolve_zero_steps_is_a_point_mass():
    dist = evolve_distribution(0.37, 0.8, 0.2, 0.1, 0)
    assert dist.outcomes == ((0.37, 1.0),)


@pytest.mark.parametrize(
    "p0,p1,p2,c",
    [
        (0.5, 0.8, 0.2, 0.1),
        (0.3, 0.7, 0.4, 0.05),
        (0.95, 0.9, 0.1, 0.1),
        (0.0, 0.6, 0.6, 0.25),
    ],
)
def test_evolve_one_step_equals_single_step_enumeration(p0, p1, p2, c):
    assert evolve_distribution(p0, p1, p2, c, 1).outcomes == enumerate_single_step(
        p0, p1, p2, c
    ).outcomes


def test_evolve_stays_on_the_shifted_lattice():
    dist = evolve_distribution(0.5, 0.7, 0.4, 0.1, 7)
    for state in dist.support():
        offsets = [abs(state - min(max(0.5 + k * 0.1, 0.0), 1.0)) for k in range(-7, 8)]
        assert min(offsets) < 1e-9


@pytest.mark.parametrize("horizon", [2, 25, 40])
def test_evolve_two_steps_by_hand(horizon):
    # one step: 0.6 w.p. 0.8, 0.4 w.p. 0.2; compose each branch once more per
    # round. By round 5 the walk reaches both clamps. Composing the float
    # enumerator drifts off the exact lattice by an ulp (0.4 - 0.1 != 0.5 -
    # 0.2), and after re-anchoring at a clamp the exact lattice itself holds
    # points an ulp apart, so both sides are merged at nine decimals here.
    by_hand = {0.5: 1.0}
    for _ in range(horizon):
        by_hand = _merged_at_nine_decimals(
            (nxt, prob * q)
            for state, prob in by_hand.items()
            for nxt, q in enumerate_single_step(state, 0.8, 0.2, 0.1).outcomes
        )
    assert (0.0 in by_hand and 1.0 in by_hand) == (horizon >= 5)
    exact = _merged_at_nine_decimals(evolve_distribution(0.5, 0.8, 0.2, 0.1, horizon).outcomes)
    assert exact.keys() == by_hand.keys()
    for state, prob in exact.items():
        assert prob == pytest.approx(by_hand[state], abs=1e-12)
    assert 0.5 * sum(abs(prob - by_hand[state]) for state, prob in exact.items()) <= 1e-12


def test_evolve_long_horizon_boundary_mass_is_geometric():
    """At (p1, p2) = (0.8, 0.2) the up-move probability is 0.8 from every
    state, so near the upper clamp the chain is a biased walk with reflecting
    boundary. Detailed balance gives stationary mass (1 - r) * r^k at the
    k-th lattice point below 1.0, with r = 0.2 / 0.8; by step 200 the chain
    has converged to that profile well beyond the tolerance used here."""
    dist = evolve_distribution(0.5, 0.8, 0.2, 0.1, 200)
    r = 0.25
    for k in range(4):
        expected = (1.0 - r) * r**k
        assert _mass_near(dist, 1.0 - 0.1 * k) == pytest.approx(expected, abs=1e-5)


def test_evolve_is_deterministic():
    a = evolve_distribution(0.4, 0.65, 0.35, 0.05, 50)
    b = evolve_distribution(0.4, 0.65, 0.35, 0.05, 50)
    assert a.outcomes == b.outcomes


def test_evolve_guards_against_lattice_blowup():
    with pytest.raises(ValueError):
        evolve_distribution(0.5, 0.8, 0.2, 0.001, 10, max_states=50)


def _frontier_lattice(p0, c):
    """Every reachable lattice integer, found by walking up and down moves."""
    den = math.lcm(Fraction(p0).denominator, Fraction(c).denominator)
    start, step = int(Fraction(p0) * den), int(Fraction(c) * den)
    states = {start}
    frontier = [start]
    while frontier:
        n = frontier.pop()
        for nxt in (min(n + step, den), max(n - step, 0)):
            if nxt not in states:
                states.add(nxt)
                frontier.append(nxt)
    order = sorted(states)
    return [n / den for n in order], order.index(start)


def _lattice_cases():
    rng = random.Random(7)
    cases = [(0.0, 0.3), (1.0, 0.3), (0.37, 1.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.1), (0.3, 0.07)]
    for _ in range(40):
        # random floats: c is generally not commensurate with p0
        cases.append((rng.random(), rng.uniform(0.02, 1.0)))
        cases.append((round(rng.random(), 2), round(rng.uniform(0.01, 0.3), 2)))
    return cases


@pytest.mark.parametrize("p0,c", _lattice_cases())
def test_closed_form_lattice_equals_the_frontier_walk(p0, c):
    values, start_index, targets, weights = oracle._lattice_chain(p0, 0.7, 0.4, c, 10**6)
    expected_values, expected_start = _frontier_lattice(p0, c)
    assert values.tolist() == expected_values
    assert start_index == expected_start
    assert targets.shape == (2 * len(values),) and weights.shape == (2, len(values))
    # up and down moves keep every state's mass
    assert np.allclose(weights.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("p0,c", [(0.5, 0.1), (0.37, 0.05), (0.3, 0.07), (0.0, 1.0)])
def test_lattice_guard_is_exact_at_the_lattice_size(p0, c):
    size = len(_frontier_lattice(p0, c)[0])
    assert len(oracle._lattice_chain(p0, 0.7, 0.4, c, size)[0]) == size
    evolve_distribution(p0, 0.7, 0.4, c, 3, max_states=size)
    if size > 1:
        with pytest.raises(ValueError, match="max_states"):
            oracle._lattice_chain(p0, 0.7, 0.4, c, size - 1)
        with pytest.raises(ValueError, match="max_states"):
            evolve_distribution(p0, 0.7, 0.4, c, 3, max_states=size - 1)


@pytest.mark.parametrize("horizon", [-1, True])
def test_evolve_rejects_negative_horizon(horizon):
    with pytest.raises(ValueError):
        evolve_distribution(0.5, 0.8, 0.2, 0.1, horizon)


def test_evolve_accepts_numpy_integer_horizon():
    assert evolve_distribution(0.5, 0.8, 0.2, 0.1, np.int64(3)) == evolve_distribution(
        0.5, 0.8, 0.2, 0.1, 3
    )


def test_asymptotic_report_accepts_numpy_integer_trials():
    report = asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=np.int64(3))
    assert report == asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=3)
    assert type(report.trials) is int


def test_oracle_accepts_an_increment_of_one():
    dist = evolve_distribution(0.5, 0.8, 0.2, 1.0, 2)
    assert {state for state, _ in dist.outcomes} <= {0.0, 1.0}


def test_asymptotic_report_stores_numpy_window_as_float():
    report = asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=3, window=np.float64(0.5))
    assert report == asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=3, window=0.5)
    assert type(report.window) is float


def test_oracle_computes_numpy_float_inputs_in_float64():
    # exactly representable values, so float32 and float64 inputs are equal
    half, quarter = np.float32(0.5), np.float32(0.25)
    assert evolve_distribution(half, 0.75, quarter, quarter, 4) == evolve_distribution(
        0.5, 0.75, 0.25, 0.25, 4
    )
    assert enumerate_single_step(half, 0.75, 0.25, np.float32(0.125)) == enumerate_single_step(
        0.5, 0.75, 0.25, 0.125
    )
    report = asymptotic_claim_report(0.8, quarter, quarter, horizon=10, trials=3)
    assert report == asymptotic_claim_report(0.8, 0.25, 0.25, horizon=10, trials=3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: evolve_distribution(0.5, 0.8, 0.2, float("inf"), 3),
        lambda: asymptotic_claim_report(0.8, 0.2, float("inf"), horizon=10, trials=2),
        lambda: asymptotic_claim_report(0.8, 0.2, 0.1, horizon=True, trials=2),
        lambda: asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=True),
        lambda: asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=2, window=True),
        lambda: evolve_distribution(0.5, 0.8, 0.2, 2.0, 3),
        lambda: asymptotic_claim_report(0.8, 0.2, 1.5, horizon=10, trials=2),
        lambda: asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=2, seed=True),
        lambda: enumerate_ghz_step(0.5, 0.8, 0.2, True, GhzConstants((0.1,))),
        *[
            lambda bad=bad: evolve_distribution(0.5, 0.8, 0.2, 0.1, 3, max_states=bad)
            for bad in (True, "a", None, 2.5, 0)
        ],
        *[
            lambda bad=bad: asymptotic_claim_report(
                0.8, 0.2, 0.1, horizon=10, trials=2, max_states=bad
            )
            for bad in (True, "a", None, 2.5, 0)
        ],
    ],
    ids=[
        "evolve-infinite-c",
        "report-infinite-c",
        "report-bool-horizon",
        "report-bool-trials",
        "report-bool-window",
        "evolve-c-above-one",
        "report-c-above-one",
        "report-bool-seed",
        "ghz-bool-n",
        *[
            f"{fn}-max-states-{bad!r}"
            for fn in ("evolve", "report")
            for bad in (True, "a", None, 2.5, 0)
        ],
    ],
)
def test_oracle_rejects_bad_input_with_value_error(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# long-run report


def test_asymptotic_report_smoke():
    report = asymptotic_claim_report(0.8, 0.2, 0.05, horizon=2000, trials=20, seed=1)
    assert report.reward_share == pytest.approx(0.8)
    assert 0.0 <= report.mc_mean_p0 <= 1.0
    assert report.mc_mean_p0_ci > 0.0
    assert 0.0 <= report.mc_zero_choice_rate <= 1.0
    assert report.chain_mean_p0 is not None
    # Monte Carlo and the exact chain look at the same window; they should
    # agree within a few widths of the (wide, 20-trial) confidence interval
    assert abs(report.mc_mean_p0 - report.chain_mean_p0) < 5.0 * report.mc_mean_p0_ci / 1.96

    text = report.summary()
    assert "reward share" in text
    assert f"{report.reward_share:.6f}" in text


def test_asymptotic_report_chain_column_is_the_evolved_window_average():
    # horizon 20 with the default 20 percent window averages rounds 17 .. 20
    report = asymptotic_claim_report(0.7, 0.4, 0.1, horizon=20, trials=2, initial_p0=0.35)
    expected = np.mean([evolve_distribution(0.35, 0.7, 0.4, 0.1, t).mean() for t in range(17, 21)])
    assert report.chain_mean_p0 == pytest.approx(expected, abs=1e-12)


def test_asymptotic_report_is_reproducible():
    a = asymptotic_claim_report(0.7, 0.3, 0.05, horizon=500, trials=5, seed=9)
    b = asymptotic_claim_report(0.7, 0.3, 0.05, horizon=500, trials=5, seed=9)
    assert a == b


@pytest.mark.parametrize("seed", [9, 2**32 + 5])
def test_asymptotic_report_streams_equal_seed_sequence_streams(monkeypatch, seed):
    bulk = asymptotic_claim_report(0.7, 0.4, 0.05, horizon=300, trials=12, seed=seed)

    def reference(seed, stream, first):
        # every trial's stream built on its own instead of handed a bulk first block
        return RandomStream(seed, stream)

    monkeypatch.setattr(oracle, "RandomStream", reference)
    assert asymptotic_claim_report(0.7, 0.4, 0.05, horizon=300, trials=12, seed=seed) == bulk

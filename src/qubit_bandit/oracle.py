"""Exact references the sampling paths are checked against.

Everything here is computed by enumeration rather than simulation: the
one-step outcome distribution of single, cooperative and n-user majority
play, the expected state change, the exact single-agent state distribution
after T rounds (the clamped update walks a finite lattice, known in closed
form, with an up and a down successor per state whose weights are summed in
_outcomes order, so each round moves all mass in one scatter along two
successor columns), and a report that puts the long-run behavior next to the
simple reward-share ratio p1 / (p1 + p2) without asserting that they agree.

Single play is the majority round for n = 1 and coop for n = 2, so one
outcome table, _outcomes, holds the direction rule and the binomial law for
all three enumerators and the chain. It deliberately re-derives the rule
instead of calling the policy code, so the two routes stay independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from .harness import ExperimentConfig, Scenario, _trials
from .policies import GhzConstants
from .quantum import _check_count, _check_fraction, _check_probability

__all__ = [
    "TransitionDistribution",
    "AsymptoticReport",
    "enumerate_single_step",
    "enumerate_coop_step",
    "enumerate_ghz_step",
    "expected_drift",
    "evolve_distribution",
    "asymptotic_claim_report",
]

_PROB_SUM_TOL = 1e-12


def _check_probabilities(**values: float) -> tuple[float, ...]:
    """The named probabilities as Python floats, in the order given."""
    return tuple(_check_probability(name, value) for name, value in values.items())


@dataclass(frozen=True)
class TransitionDistribution:
    """A finite distribution over next-state values, sorted ascending."""

    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", tuple((float(s), float(p)) for s, p in self.outcomes))
        total = 0.0
        previous = None
        for state, prob in self.outcomes:
            if not 0.0 <= state <= 1.0:
                raise ValueError(f"state {state!r} outside [0, 1]")
            # negated comparisons, here and for the sum, so NaN fails them
            if not prob >= 0.0:
                raise ValueError(f"negative probability {prob!r} for state {state!r}")
            if previous is not None and state <= previous:
                raise ValueError("outcomes must be sorted by state with no duplicates")
            previous = state
            total += prob
        if not abs(total - 1.0) <= _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {_PROB_SUM_TOL}")

    def probabilities(self) -> dict[float, float]:
        return dict(self.outcomes)

    def support(self) -> tuple[float, ...]:
        return tuple(state for state, _ in self.outcomes)

    def mean(self) -> float:
        return float(sum(state * prob for state, prob in self.outcomes))


def _outcomes(p0, p1: float, p2: float, n: int):
    """Every outcome of one n-user majority round, for bit 0 then bit 1.

    Every user plays the machine the measured bit names, so the rewarded
    count r = 0..n is binomial given the bit. Yields (toward zero, or None
    on a tie; constant index min(r, n - r); probability). p0 may be an array
    of states; the enumerators and the chain builder all sum in this order,
    so their floating-point results agree bit for bit.
    """
    for bit, branch, q in ((0, p0, p1), (1, 1.0 - p0, p2)):
        for r in range(n + 1):
            # a rewarded majority moves toward the bit, an unrewarded one away
            toward_zero = None if 2 * r == n else (bit == 0) == (2 * r > n)
            prob = branch * math.comb(n, r) * q**r * (1.0 - q) ** (n - r)
            yield toward_zero, min(r, n - r), prob


def _merged(moves: list[tuple[float, float]]) -> TransitionDistribution:
    merged: dict[float, float] = {}
    for state, prob in moves:
        merged[state] = merged.get(state, 0.0) + prob
    outcomes = tuple(sorted((s, p) for s, p in merged.items() if p > 0.0))
    return TransitionDistribution(outcomes)


def _majority_step(
    p0: float, p1: float, p2: float, n: int, constants: tuple[float, ...]
) -> TransitionDistribution:
    """Apply the clamped shift to every outcome (a tie stays) and merge duplicates."""
    moves = []
    for toward_zero, dissent, prob in _outcomes(p0, p1, p2, n):
        if toward_zero is None:
            moves.append((p0, prob))
        else:
            step = constants[dissent]
            moves.append((min(p0 + step, 1.0) if toward_zero else max(p0 - step, 0.0), prob))
    # clamping can collapse outcomes onto one state
    return _merged(moves)


def enumerate_single_step(p0: float, p1: float, p2: float, c: float) -> TransitionDistribution:
    """Exact one-step outcome distribution of single-agent play: one user, one constant c."""
    p0, p1, p2 = _check_probabilities(p0=p0, p1=p1, p2=p2)
    return _majority_step(p0, p1, p2, 1, (_check_fraction("c", c),))


def enumerate_coop_step(p0: float, p1: float, p2: float, c: float) -> TransitionDistribution:
    """Exact one-step outcome distribution of cooperative paired play.

    Conditioned on the measured branch, the two rewards are independent
    Bernoulli draws on the same machine; a split leaves the state in place.
    """
    p0, p1, p2 = _check_probabilities(p0=p0, p1=p1, p2=p2)
    return _majority_step(p0, p1, p2, 2, (_check_fraction("c", c),))


def enumerate_ghz_step(
    p0: float, p1: float, p2: float, n: int, constants: GhzConstants
) -> TransitionDistribution:
    """Exact one-step outcome distribution of n-user majority play.

    Conditioned on the measured branch, the rewarded count is binomial; the
    majority rule maps each count to a graded shift, a tie to no move.
    """
    p0, p1, p2 = _check_probabilities(p0=p0, p1=p1, p2=p2)
    n = _check_count("n", n, 2)
    constants.validate_for(n)
    return _majority_step(p0, p1, p2, n, constants.constants)


def expected_drift(p0: float, p1: float, p2: float, c: float) -> float:
    """Mean one-step change of the state under single-agent play, ignoring clamps.

    Closed form: c * (p0 * (2*p1 - 1) + (1 - p0) * (1 - 2*p2)). Positive drift
    pushes toward machine 0.
    """
    p0, p1, p2 = _check_probabilities(p0=p0, p1=p1, p2=p2)
    c = _check_fraction("c", c)
    return c * (p0 * (2.0 * p1 - 1.0) + (1.0 - p0) * (1.0 - 2.0 * p2))


def _lattice_chain(
    p0: float, p1: float, p2: float, c: float, max_states: int
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Reachable clamped lattice and its two successor columns.

    States are exact integers over the common dyadic denominator of the
    floats p0 and c, clamped to [0, den], so points reached along different
    paths always merge. Down moves walk the start's residue class mod step
    to 0, up moves walk the multiples of step from 0 to den, and down moves
    walk den's residue class back to 0; a move never leaves these three
    classes, so the reachable set is their union. Each class runs from its
    residue up to den, and den tops its own, so the sorted lattice
    interleaves the k = 1, 2 or 3 distinct classes: state i moves up to
    min(i + k, last) and down to max(i - k, 0). Returns (sorted state values
    as floats, index of the start state, up targets followed by down
    targets, (2, states) up and down weights).
    """
    (p0_num, p0_den), (c_num, c_den) = p0.as_integer_ratio(), c.as_integer_ratio()
    den = math.lcm(p0_den, c_den)
    start, step = p0_num * (den // p0_den), c_num * (den // c_den)
    residues = {start % step, 0, den % step}
    size = sum((den - r) // step + 1 for r in residues)
    if size > max_states:
        raise ValueError(
            f"reachable state lattice exceeds max_states={max_states}; "
            "raise the bound or use a larger c"
        )
    order = sorted(n for r in residues for n in range(r, den + 1, step))
    i, k = np.arange(size), len(residues)
    targets = np.concatenate((np.minimum(i + k, size - 1), np.maximum(i - k, 0)))
    # int / int is correctly rounded, so each value is the float nearest n / den
    values = np.array([n / den for n in order])
    # summed in _outcomes order from zero, as _merged does, so one round of the
    # chain equals enumerate_single_step bit for bit
    outcomes = list(_outcomes(values, p1, p2, 1))
    weights = np.array([sum(p for way, _, p in outcomes if way is up) for up in (True, False)])
    return values, order.index(start), targets, weights


def _chain(start_index: int, targets: np.ndarray, weights: np.ndarray) -> Iterator[np.ndarray]:
    """The distribution over _lattice_chain's states after 0, 1, 2, ... rounds."""
    mass = np.zeros(weights.shape[1])
    mass[start_index] = 1.0
    while True:
        yield mass
        mass = np.bincount(targets, (weights * mass).ravel(), len(mass))


def evolve_distribution(
    p0: float, p1: float, p2: float, c: float, horizon: int, max_states: int = 4096
) -> TransitionDistribution:
    """Exact state distribution of single-agent play after horizon rounds.

    Every reachable state is the start value plus an integer multiple of c,
    re-anchored at a boundary after clamping, so the chain lives on a finite
    lattice, built in closed form; each round scatters every state's mass to
    its up and down successors in one bincount over two successor columns,
    in O(states) time and memory. Raises when the lattice would exceed
    max_states.
    """
    p0, p1, p2 = _check_probabilities(p0=p0, p1=p1, p2=p2)
    c = _check_fraction("c", c)
    horizon = _check_count("horizon", horizon, 0)
    max_states = _check_count("max_states", max_states, 1)
    values, start_index, targets, weights = _lattice_chain(p0, p1, p2, c, max_states)
    mass = next(islice(_chain(start_index, targets, weights), horizon, None))
    # distinct rationals can collapse to one float once a boundary re-anchors
    # the lattice within an ulp of an older point; merge their masses
    return _merged(list(zip(values.tolist(), mass.tolist())))


@dataclass(frozen=True)
class AsymptoticReport:
    """Long-run single-agent behavior next to the reward-share ratio.

    reward_share is p1 / (p1 + p2), machine 0's share of the combined reward
    rates, included for comparison only; nothing here asserts the simulation
    approaches it. Monte Carlo columns are window-and-trial averages with a
    95 percent confidence halfwidth; chain columns are exact and None when
    the lattice is too large to enumerate.
    """

    p1: float
    p2: float
    c: float
    horizon: int
    trials: int
    seed: int
    initial_p0: float
    window: float
    reward_share: float
    mc_mean_p0: float
    mc_mean_p0_ci: float
    mc_zero_choice_rate: float
    mc_zero_choice_rate_ci: float
    chain_mean_p0: float | None

    def summary(self) -> str:
        lines = [
            f"single-agent long run: p1={self.p1:g} p2={self.p2:g} c={self.c:g} "
            f"horizon={self.horizon} trials={self.trials} seed={self.seed}",
            f"window: final {self.window:.0%} of rounds",
            f"reward share p1/(p1+p2):      {self.reward_share:.6f}",
            f"mean state (simulated):       {self.mc_mean_p0:.6f} +/- {self.mc_mean_p0_ci:.6f}",
            f"machine-0 pick rate:          {self.mc_zero_choice_rate:.6f} "
            f"+/- {self.mc_zero_choice_rate_ci:.6f}",
        ]
        if self.chain_mean_p0 is None:
            lines.append("mean state (exact chain):     unavailable (lattice too large)")
        else:
            lines.append(f"mean state (exact chain):     {self.chain_mean_p0:.6f}")
        return "\n".join(lines)


def asymptotic_claim_report(
    p1: float,
    p2: float,
    c: float,
    horizon: int = 10_000,
    trials: int = 100,
    seed: int = 0,
    initial_p0: float = 0.5,
    window: float = 0.2,
    max_states: int = 4096,
) -> AsymptoticReport:
    """Measure where single-agent play settles and report it against p1/(p1+p2).

    Plays seeded Monte Carlo trials through the harness's trial source (one
    derived stream per trial), averages the state and the machine-0 pick
    rate over the final window of each trial, and, when the lattice fits,
    adds the exact chain average over the same window. The report
    quantifies the comparison; it draws no conclusion. A bad run field raises
    the ConfigError run_experiment raises.
    """
    run = dict(initial_p0=initial_p0, horizon=horizon, seed=seed, window=window)
    config = ExperimentConfig(Scenario.SINGLE_AGENT, p1, p2, c, **run)
    config.validate()
    trials = _check_count("trials", trials, 2)
    max_states = _check_count("max_states", max_states, 1)
    p1, p2, c, initial_p0 = config.p1, config.p2, config.c, config.initial_p0
    horizon, seed, window = config.horizon, config.seed, config.window
    if p1 + p2 <= 0.0:
        raise ValueError("p1 + p2 must be positive for the reward-share ratio")
    window_steps = max(1, int(horizon * window))
    start = horizon - window_steps

    mean_states = np.empty(trials)
    zero_rates = np.empty(trials)
    for block in _trials(config, range(trials)):
        if not block.start:
            state_acc, zero_picks = 0.0, 0
        # the window's rounds in this block, whose states after them are
        # summed in round order across the trial's blocks
        first = max(start - block.start, 0)
        for state in block.states[first + 1 :]:
            state_acc += state
        zero_picks += block.bits[first:].count(0)
        if block.start + len(block.bits) == horizon:
            mean_states[block.trial] = state_acc / window_steps
            zero_rates[block.trial] = zero_picks / window_steps

    mc_mean_p0 = float(np.mean(mean_states))
    mc_mean_p0_ci = float(1.96 * np.std(mean_states, ddof=1) / math.sqrt(trials))
    mc_zero_rate = float(np.mean(zero_rates))
    mc_zero_rate_ci = float(1.96 * np.std(zero_rates, ddof=1) / math.sqrt(trials))

    try:
        values, start_index, targets, weights = _lattice_chain(initial_p0, p1, p2, c, max_states)
    except ValueError:
        chain_mean_p0 = None
    else:
        # the means after rounds start + 1 .. horizon, summed in round order
        acc = 0.0
        for mass in islice(_chain(start_index, targets, weights), start + 1, horizon + 1):
            acc += float(values @ mass)
        chain_mean_p0 = acc / window_steps

    return AsymptoticReport(
        p1=p1,
        p2=p2,
        c=c,
        horizon=horizon,
        trials=trials,
        seed=seed,
        initial_p0=initial_p0,
        window=window,
        reward_share=p1 / (p1 + p2),
        mc_mean_p0=mc_mean_p0,
        mc_mean_p0_ci=mc_mean_p0_ci,
        mc_zero_choice_rate=mc_zero_rate,
        mc_zero_choice_rate_ci=mc_zero_rate_ci,
        chain_mean_p0=chain_mean_p0,
    )

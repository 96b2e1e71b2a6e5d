"""Tests for two-branch states, seeded measurement, and amplitude shifts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubit_bandit.bandit import ReplicatedBandit, TwoArmBandit
from qubit_bandit.oracle import asymptotic_claim_report, enumerate_ghz_step
from qubit_bandit.policies import GhzConstants
from qubit_bandit.quantum import (
    Correlation,
    Direction,
    EntangledPair,
    RandomStream,
    measure_pair,
    sample_bit,
    sample_bits,
    shift_probability,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
magnitudes = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# state containers


@pytest.mark.parametrize("bad", [-0.5, 2.0, float("nan"), float("inf"), True])
def test_entangled_pair_rejects_invalid_probability(bad):
    with pytest.raises(ValueError):
        EntangledPair(Correlation.CORRELATED, bad)


# ---------------------------------------------------------------------------
# seeded randomness


def test_random_stream_is_deterministic_per_seed_and_stream():
    a = RandomStream(42, stream=3)
    b = RandomStream(42, stream=3)
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_random_streams_with_different_stream_ids_differ():
    a = RandomStream(42, stream=0)
    b = RandomStream(42, stream=1)
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


def test_random_streams_with_different_seeds_differ():
    a = RandomStream(1)
    b = RandomStream(2)
    assert a.uniform() != b.uniform()


def test_uniforms_matches_repeated_scalar_draws():
    a = RandomStream(7)
    b = RandomStream(7)
    block = a.uniforms(64)
    singles = np.array([b.uniform() for _ in range(64)])
    np.testing.assert_array_equal(block, singles)


@pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 5000])
def test_interleaved_scalar_and_block_draws_follow_the_raw_generator(k):
    # scalar draws come from a block of 16 that doubles up to 4096, so the
    # runs below cross both sizes; odd runs leave a block partly used
    seed, stream = 21, 4
    scalar_runs = (0, 3, 16, 1, 40, 5000, 7)
    raw = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
    reference = raw.random(sum(scalar_runs) + k * len(scalar_runs))
    rng = RandomStream(seed, stream=stream)
    drawn = []
    for run in scalar_runs:
        drawn += [rng.uniform() for _ in range(run)]
        block = rng.uniforms(k)
        assert block.shape == (k,) and block.dtype == np.float64
        drawn += block.tolist()
    np.testing.assert_array_equal(np.array(drawn), reference)


@pytest.mark.parametrize(
    "seed,stream", [(-1, 0), (2**64, 0), (0, -1), (True, 0), (0, True), (1.0, 0)]
)
def test_random_stream_rejects_out_of_range_identifiers(seed, stream):
    with pytest.raises(ValueError):
        RandomStream(seed, stream=stream)


@pytest.mark.parametrize("count", [-1, True, 2.0])
def test_uniforms_rejects_bad_counts(count):
    with pytest.raises(ValueError):
        RandomStream(0).uniforms(count)


@pytest.mark.parametrize(
    "build,int_fields",
    [
        (lambda k: RandomStream(k, stream=k), ("seed", "stream")),
        (lambda k: RandomStream(0).uniforms(k).tolist(), ()),
        (lambda k: ReplicatedBandit(TwoArmBandit.from_probs(0.5, 0.5), k), ("n_users",)),
        (lambda k: enumerate_ghz_step(0.5, 0.8, 0.2, k, GhzConstants((0.1, 0.05))), ()),
        (lambda k: GhzConstants((0.1, 0.05)).validate_for(k), ()),
        (
            lambda k: asymptotic_claim_report(0.8, 0.2, 0.1, horizon=10, trials=3, seed=k),
            ("seed",),
        ),
    ],
    ids=["stream", "uniforms", "replicated-users", "ghz-step", "ghz-validate-for", "report-seed"],
)
def test_numpy_integers_act_as_python_ints(build, int_fields):
    def comparable(value):
        # streams have no equality; equal streams draw equal sequences
        return value.uniforms(8).tolist() if isinstance(value, RandomStream) else value

    expected = comparable(build(3))
    for k in (np.int64(3), np.uint8(3)):
        got = build(k)
        assert [type(getattr(got, field)) for field in int_fields] == [int] * len(int_fields)
        assert comparable(got) == expected


# ---------------------------------------------------------------------------
# measurement


def test_sample_bit_edge_probabilities():
    rng = RandomStream(0)
    assert all(sample_bit(1.0, rng) == 0 for _ in range(100))
    assert all(sample_bit(0.0, rng) == 1 for _ in range(100))


def test_sample_bits_matches_scalar_loop():
    a = RandomStream(11)
    b = RandomStream(11)
    block = sample_bits(0.37, 500, a)
    singles = np.array([sample_bit(0.37, b) for _ in range(500)], dtype=np.uint8)
    np.testing.assert_array_equal(block, singles)


def test_sample_bits_frequency_tracks_p0():
    rng = RandomStream(123)
    n = 100_000
    zeros = np.sum(sample_bits(0.3, n, rng) == 0)
    # 5 sigma around 0.3 with n=1e5 is about +/-0.0072
    assert abs(zeros / n - 0.3) < 0.008


def test_sample_bit_consumes_one_draw():
    a = RandomStream(9)
    b = RandomStream(9)
    bit = sample_bit(0.5, a)
    b.uniform()
    assert bit in (0, 1)
    assert a.uniform() == b.uniform()


def test_correlated_pair_always_agrees():
    rng = RandomStream(5)
    pair = EntangledPair(Correlation.CORRELATED, 0.5)
    for _ in range(1000):
        first, second = measure_pair(pair, rng)
        assert first == second


def test_anticorrelated_pair_always_disagrees():
    rng = RandomStream(5)
    pair = EntangledPair(Correlation.ANTICORRELATED, 0.5)
    for _ in range(1000):
        first, second = measure_pair(pair, rng)
        assert first != second


def test_pair_first_bit_marginal_tracks_p_first():
    rng = RandomStream(17)
    pair = EntangledPair(Correlation.ANTICORRELATED, 0.25)
    n = 40_000
    zeros = sum(measure_pair(pair, rng)[0] == 0 for _ in range(n))
    assert abs(zeros / n - 0.25) < 0.011


def test_measure_pair_consumes_exactly_one_draw():
    pair = EntangledPair(Correlation.CORRELATED, 0.5)
    a = RandomStream(21)
    b = RandomStream(21)
    measure_pair(pair, a)
    b.uniform()
    assert a.uniform() == b.uniform()


# ---------------------------------------------------------------------------
# amplitude shifts


@pytest.mark.parametrize(
    "p0,direction,c,expected",
    [
        (0.5, Direction.TOWARD_ZERO, 0.1, 0.6),
        (0.5, Direction.TOWARD_ONE, 0.1, 0.4),
        (0.95, Direction.TOWARD_ZERO, 0.1, 1.0),
        (0.05, Direction.TOWARD_ONE, 0.1, 0.0),
        (1.0, Direction.TOWARD_ZERO, 0.01, 1.0),
        (0.0, Direction.TOWARD_ONE, 0.01, 0.0),
    ],
)
def test_shift_probability_values(p0, direction, c, expected):
    assert shift_probability(p0, direction, c) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("c", [0.0, -0.1, float("nan"), True, float("inf"), 1.5])
def test_shift_probability_rejects_non_positive_magnitude(c):
    with pytest.raises(ValueError):
        shift_probability(0.5, Direction.TOWARD_ZERO, c)


@pytest.mark.parametrize("p0", [-0.01, 1.01, True])
def test_shift_probability_rejects_out_of_range_state(p0):
    with pytest.raises(ValueError):
        shift_probability(p0, Direction.TOWARD_ONE, 0.1)


@given(p0=probabilities, c=magnitudes)
def test_shift_toward_zero_raises_p0_by_at_most_c(p0, c):
    out = shift_probability(p0, Direction.TOWARD_ZERO, c)
    assert 0.0 <= out <= 1.0
    assert out >= p0
    assert out - p0 <= c + 1e-15
    if p0 + c <= 1.0:
        assert out == pytest.approx(p0 + c, abs=1e-15)


@given(p0=probabilities, c=magnitudes)
def test_shift_toward_one_lowers_p0_by_at_most_c(p0, c):
    out = shift_probability(p0, Direction.TOWARD_ONE, c)
    assert 0.0 <= out <= 1.0
    assert out <= p0
    assert p0 - out <= c + 1e-15
    if p0 - c >= 0.0:
        assert out == pytest.approx(p0 - c, abs=1e-15)

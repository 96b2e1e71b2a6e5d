"""Tests for two-branch states, seeded measurement, and amplitude shifts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qubit_bandit.quantum import (
    Correlation,
    Direction,
    EntangledPair,
    GhzState,
    Qubit,
    RandomStream,
    angle_to_p0,
    measure_ghz,
    measure_pair,
    measure_qubit,
    p0_to_angle,
    sample_bit,
    sample_bits,
    shift_probability,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
magnitudes = st.floats(min_value=1e-9, max_value=1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# state containers


def test_qubit_holds_p0_and_exposes_complement():
    q = Qubit(0.3)
    assert q.p0 == 0.3
    assert q.p1 == pytest.approx(0.7)


@pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan"), float("inf"), True])
def test_qubit_rejects_invalid_probability(bad):
    with pytest.raises(ValueError):
        Qubit(bad)


def test_qubit_is_immutable():
    q = Qubit(0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.p0 = 0.9


@pytest.mark.parametrize("bad", [-0.5, 2.0, float("nan")])
def test_entangled_pair_rejects_invalid_probability(bad):
    with pytest.raises(ValueError):
        EntangledPair(Correlation.CORRELATED, bad)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_ghz_state_needs_at_least_two_qubits(n):
    with pytest.raises(ValueError):
        GhzState(n, 0.5)


def test_ghz_state_rejects_non_integer_size():
    with pytest.raises(ValueError):
        GhzState(2.0, 0.5)


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


@pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -1)])
def test_random_stream_rejects_out_of_range_identifiers(seed, stream):
    with pytest.raises(ValueError):
        RandomStream(seed, stream=stream)


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


def test_measure_qubit_frequency_tracks_p0():
    rng = RandomStream(123)
    n = 100_000
    zeros = np.sum(sample_bits(0.3, n, rng) == 0)
    # 5 sigma around 0.3 with n=1e5 is about +/-0.0072
    assert abs(zeros / n - 0.3) < 0.008


def test_measure_qubit_consumes_one_draw_and_leaves_state_alone():
    q = Qubit(0.5)
    a = RandomStream(9)
    b = RandomStream(9)
    bit = measure_qubit(q, a)
    b.uniform()
    assert bit in (0, 1)
    assert q.p0 == 0.5
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


def test_measure_ghz_consumes_one_draw_and_tracks_p0():
    state = GhzState(5, 0.7)
    a = RandomStream(33)
    b = RandomStream(33)
    bit = measure_ghz(state, a)
    b.uniform()
    assert bit in (0, 1)
    assert a.uniform() == b.uniform()

    rng = RandomStream(34)
    n = 40_000
    zeros = sum(measure_ghz(state, rng) == 0 for _ in range(n))
    assert abs(zeros / n - 0.7) < 0.012


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


@pytest.mark.parametrize("c", [0.0, -0.1, float("nan")])
def test_shift_probability_rejects_non_positive_magnitude(c):
    with pytest.raises(ValueError):
        shift_probability(0.5, Direction.TOWARD_ZERO, c)


@pytest.mark.parametrize("p0", [-0.01, 1.01])
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


# ---------------------------------------------------------------------------
# angle parameterisation


@pytest.mark.parametrize(
    "theta,p0",
    [
        (0.0, 1.0),
        (90.0, 0.0),
        (45.0, 0.5),
        (60.0, 0.25),
        (30.0, 0.75),
    ],
)
def test_angle_to_p0_reference_points(theta, p0):
    assert angle_to_p0(theta) == pytest.approx(p0, abs=1e-12)


def test_angle_for_sixty_percent_zero_share():
    # cos^2(theta) = 0.6 at theta = acos(sqrt(0.6)) = 39.2315...
    assert angle_to_p0(39.2315) == pytest.approx(0.6, abs=1e-5)
    assert p0_to_angle(0.6) == pytest.approx(39.2315, abs=1e-3)
    assert p0_to_angle(0.6) == pytest.approx(math.degrees(math.acos(math.sqrt(0.6))), abs=1e-12)


@given(p0=probabilities)
def test_angle_round_trip(p0):
    assert angle_to_p0(p0_to_angle(p0)) == pytest.approx(p0, abs=1e-9)


@pytest.mark.parametrize("theta", [-1.0, 90.5, float("nan")])
def test_angle_to_p0_rejects_out_of_range(theta):
    with pytest.raises(ValueError):
        angle_to_p0(theta)


@pytest.mark.parametrize("p0", [-0.1, 1.0001])
def test_p0_to_angle_rejects_out_of_range(p0):
    with pytest.raises(ValueError):
        p0_to_angle(p0)

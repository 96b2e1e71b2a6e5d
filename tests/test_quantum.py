"""Tests for two-branch states, seeded measurement, and amplitude shifts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qubit_bandit import quantum
from qubit_bandit.bandit import ReplicatedBandit, TwoArmBandit
from qubit_bandit.oracle import asymptotic_claim_report, enumerate_ghz_step
from qubit_bandit.policies import GhzConstants
from qubit_bandit.quantum import (
    Correlation,
    Direction,
    EntangledPair,
    RandomStream,
    _first_blocks,
    _stream_words,
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


@pytest.mark.parametrize("k", [0, 1, 15, 16, 17, 63, 64, 65, 5000])
def test_interleaved_scalar_and_block_draws_follow_the_raw_generator(k):
    # scalar draws come from a block of 64 that doubles up to 4096, so the
    # runs below cross both sizes; odd runs leave a block partly used
    seed, stream = 21, 4
    scalar_runs = (0, 3, 64, 1, 130, 5000, 7)
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


seeds = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))
streams = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


def _numpy_draws(seed, stream, count):
    """The reference: count draws of NumPy's own generator for (seed, stream)."""
    bit_generator = np.random.PCG64(np.random.SeedSequence([seed, stream]))
    return np.random.Generator(bit_generator).random(count)


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    stream=streams,
    runs=st.lists(st.tuples(st.booleans(), st.integers(0, 4200)), min_size=1, max_size=5),
)
@example(seed=0, stream=0, runs=[(True, 0)])
@example(seed=2**32 - 1, stream=2**32 - 1, runs=[(True, 63), (False, 2), (True, 200)])
@example(seed=2**32, stream=2**32, runs=[(False, 4096), (True, 1), (False, 4097)])
@example(seed=2**64 - 1, stream=2**64 - 1, runs=[(True, 65), (False, 4200), (True, 4200)])
def test_random_stream_draws_equal_numpy_pcg64(seed, stream, runs):
    # runs of uniform() (True) and uniforms() (False) calls, interleaved; the
    # counts cross the 64-draw first block and the 4096-draw cap
    rng = RandomStream(seed, stream)
    drawn = []
    for scalar, count in runs:
        drawn += [rng.uniform() for _ in range(count)] if scalar else rng.uniforms(count).tolist()
    reference = _numpy_draws(seed, stream, sum(count for _, count in runs))
    np.testing.assert_array_equal(np.array(drawn), reference)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, stream=streams, count=st.integers(0, 150))
@example(seed=0, stream=0, count=0)
@example(seed=2**32 - 1, stream=2**32 - 1, count=1)
@example(seed=2**32, stream=0, count=64)
@example(seed=2**64 - 1, stream=2**32 - 1, count=65)
@example(seed=2**32, stream=2**32, count=64)
@example(seed=2**64 - 1, stream=2**64 - 1, count=65)
def test_bulk_stream_words_equal_numpy_seed_sequence(seed, stream, count):
    indices = (stream, 0, 2**32 - 1)
    words = _stream_words(seed, np.array(indices, dtype=np.uint64))
    assert words.shape == (3, 4) and words.dtype == np.uint64
    for index, row in zip(indices, words):
        reference = np.random.SeedSequence([seed, index]).generate_state(4, np.uint64)
        np.testing.assert_array_equal(row, reference)
    (first,) = _first_blocks(seed, [stream], quantum._BLOCK_START)
    bulk, plain = RandomStream(seed, stream, first), RandomStream(seed, stream)
    for _ in range(3):
        assert [bulk.uniform() for _ in range(count)] == [plain.uniform() for _ in range(count)]
        np.testing.assert_array_equal(bulk.uniforms(count), plain.uniforms(count))


@pytest.mark.parametrize("size", [1, 30, 64])
@pytest.mark.parametrize(
    "streams", [[2**64 - 1], range(2**32 - 1500, 2**32 + 1500)], ids=["one", "3000"]
)
def test_first_blocks_equal_per_stream_draws(streams, size):
    # 3000 streams span a chunk boundary, and 2**32, where a stream's entropy
    # grows a second word; each stream goes on past its first block, however
    # short, through refills
    assert len(streams) == 1 or len(streams) > quantum._CHUNK
    seed = 2**32 + 5
    starts = list(_first_blocks(seed, streams, size))
    assert len(starts) == len(streams)
    for stream, start in zip(streams, starts):
        drawn = RandomStream(seed, stream, start).uniforms(100)
        np.testing.assert_array_equal(drawn, _numpy_draws(seed, stream, 100))


@pytest.mark.parametrize(
    "streams,valid",
    [
        ([2**32], True),
        ([0, 2**64 - 1], True),
        ([2**64], False),
        ([-1], False),
        ([True], False),
        ([0.0], False),
        ([[0, 1]], False),
    ],
    ids=["2**32", "2**64-1", "2**64", "negative", "bool", "float", "nested"],
)
def test_bulk_stream_words_reject_streams_outside_one_word(streams, valid):
    # a stream of 2**32 or more is two entropy words in SeedSequence, which
    # the bulk hash derives exactly; anything else outside [0, 2**64) fails
    if not valid:
        with pytest.raises(ValueError):
            _stream_words(0, streams)
        return
    expected = [np.random.SeedSequence([0, s]).generate_state(4, np.uint64) for s in streams]
    np.testing.assert_array_equal(_stream_words(0, streams), expected)


@pytest.mark.parametrize(
    "seed,stream",
    [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (True, 0), (0, True), (1.0, 0)],
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


@pytest.mark.parametrize(
    "p_zero", [1.5, -0.1, float("nan"), True, np.True_], ids=["high", "low", "nan", "bool", "np-bool"]
)
def test_sample_bit_rejects_out_of_range_probability(p_zero):
    with pytest.raises(ValueError, match="p_zero"):
        sample_bit(p_zero, RandomStream(0))


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


@pytest.mark.parametrize("c", [0.0, -0.1, float("nan"), True, float("inf"), 1.5, np.True_])
def test_shift_probability_rejects_non_positive_magnitude(c):
    with pytest.raises(ValueError):
        shift_probability(0.5, Direction.TOWARD_ZERO, c)


@pytest.mark.parametrize("p0", [-0.01, 1.01, True, np.False_, np.True_])
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

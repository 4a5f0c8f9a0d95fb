"""PRNG unit tests.

The generator is validated two independent ways: against the published
SplitMix64 reference vector (state 0), and against a from-scratch big-int
reference implementation written here from the algorithm definition, which
shares no code with the package.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detforest.prng import (
    SPLIT_STREAM,
    SYNTH_STREAM,
    TRIAL_STREAM,
    RngState,
    bounded_uint,
    bounded_uint_block,
    derive_stream,
    next_u64,
    next_u64_block,
    shuffle,
)

from helpers import state_with_draw

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# Published reference outputs for SplitMix64 starting at state 0.
PUBLISHED_STATE0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]

FIXTURES = Path(__file__).parent / "fixtures"


def ref_finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def ref_next(state: int) -> tuple[int, int]:
    state = (state + GOLDEN) & MASK
    return ref_finalize(state), state


def ref_bounded(state: int, n: int) -> tuple[int, int]:
    limit = ((1 << 64) // n) * n
    while True:
        v, state = ref_next(state)
        if v < limit:
            return v % n, state


def ref_shuffle(state: int, m: int) -> tuple[list[int], int]:
    perm = list(range(m))
    for i in range(m - 1, 0, -1):
        j, state = ref_bounded(state, i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm, state


class TestNextU64:
    def test_published_vector_from_state_zero(self):
        rng = RngState(0)
        got = []
        for _ in range(5):
            v, rng = next_u64(rng)
            got.append(v)
        assert got == PUBLISHED_STATE0

    def test_extended_fixture_vector(self):
        lines = FIXTURES.joinpath("splitmix64_state0.txt").read_text().splitlines()
        expected = [int(line, 16) for line in lines if line and not line.startswith("#")]
        assert expected[:5] == PUBLISHED_STATE0
        rng = RngState(0)
        for want in expected:
            v, rng = next_u64(rng)
            assert v == want

    @given(st.integers(min_value=0, max_value=MASK))
    def test_matches_reference(self, state):
        v, rng = next_u64(RngState(state))
        ref_v, ref_state = ref_next(state)
        assert v == ref_v
        assert rng.state == ref_state

    def test_state_advances_by_golden(self):
        _, rng = next_u64(RngState(7))
        assert rng.state == (7 + GOLDEN) & MASK


class TestNextU64Block:
    @given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=0, max_value=300))
    @settings(max_examples=50)
    def test_block_equals_scalar_chain(self, state, count):
        block, rng_after = next_u64_block(RngState(state), count)
        assert block.dtype == np.uint64
        assert block.shape == (count,)
        rng = RngState(state)
        for i in range(count):
            v, rng = next_u64(rng)
            assert int(block[i]) == v
        assert rng_after == rng

    def test_empty_block_leaves_state_unchanged(self):
        block, rng = next_u64_block(RngState(123), 0)
        assert block.size == 0
        assert rng == RngState(123)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            next_u64_block(RngState(0), -1)


class TestDeriveStream:
    def test_pinned_values(self):
        # Computed with the big-int reference implementation.
        assert derive_stream(0, 0) == RngState(0)  # finalize(0) = 0 fixed point
        assert derive_stream(0, 1) == RngState(0xE220A8397B1DCDAF)
        assert derive_stream(42, 7) == RngState(0x53AD348AF3DDAF4B)
        assert derive_stream(MASK, MASK) == RngState(0xE4D971771B652C20)

    @given(st.integers(min_value=0, max_value=MASK), st.integers(min_value=0, max_value=MASK))
    @settings(max_examples=100)
    def test_matches_reference(self, seed, index):
        assert derive_stream(seed, index).state == ref_finalize(seed ^ ((index * GOLDEN) & MASK))

    def test_reserved_streams_are_distinct(self):
        seed = 99
        states = {
            derive_stream(seed, idx).state
            for idx in (0, 1, 2, SPLIT_STREAM, SYNTH_STREAM, TRIAL_STREAM)
        }
        assert len(states) == 6

    @pytest.mark.parametrize("seed,index", [(-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)])
    def test_out_of_range_rejected(self, seed, index):
        with pytest.raises(ValueError):
            derive_stream(seed, index)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            RngState(-1)
        with pytest.raises(ValueError):
            RngState(1 << 64)


class TestBoundedUint:
    def test_pinned_trace_from_state_zero(self):
        # First draw from state 0 is 0xE220A8397B1DCDAF, below the n=10
        # rejection limit, so the result is that value mod 10.
        v, rng = bounded_uint(RngState(0), 10)
        assert v == 5
        assert rng.state == GOLDEN  # exactly one step consumed

    def test_n_one_consumes_exactly_one_step(self):
        v, rng = bounded_uint(RngState(0), 1)
        assert v == 0
        assert rng.state == GOLDEN

    @given(
        st.integers(min_value=0, max_value=MASK),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=200)
    def test_matches_reference_and_range(self, state, n):
        v, rng = bounded_uint(RngState(state), n)
        ref_v, ref_state = ref_bounded(state, n)
        assert v == ref_v
        assert rng.state == ref_state
        assert 0 <= v < n

    @pytest.mark.parametrize("n", [0, -3])
    def test_invalid_n_rejected(self, n):
        with pytest.raises(ValueError):
            bounded_uint(RngState(0), n)


class TestShuffle:
    def test_pinned_permutations_from_state_zero(self):
        perm3, _ = shuffle(RngState(0), 3)
        assert perm3 == [2, 0, 1]
        perm5, _ = shuffle(RngState(0), 5)
        assert perm5 == [2, 3, 1, 4, 0]

    def test_single_element_consumes_nothing(self):
        perm, rng = shuffle(RngState(77), 1)
        assert perm == [0]
        assert rng == RngState(77)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            shuffle(RngState(0), 0)

    @given(
        st.integers(min_value=0, max_value=MASK),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=100)
    def test_is_permutation_and_matches_reference(self, state, m):
        perm, rng = shuffle(RngState(state), m)
        assert sorted(perm) == list(range(m))
        ref_perm, ref_state = ref_shuffle(state, m)
        assert perm == ref_perm
        assert rng.state == ref_state

    def test_rejected_draw_falls_back_to_scalar_loop(self):
        # Partners are drawn with bounds 10, 9, 8, 7, ...: the 4th draw has
        # bound 7, and 2**64 - 1 lies above its rejection limit (2**64 mod 7
        # is 2), so that draw is redrawn and every later partner shifts.
        m = 10
        rng = state_with_draw(4, MASK)
        assert next_u64_block(rng, 4)[0][3] == MASK
        perm, after = shuffle(rng, m)
        ref_perm, r = list(range(m)), rng
        for i in range(m - 1, 0, -1):
            j, r = bounded_uint(r, i + 1)
            ref_perm[i], ref_perm[j] = ref_perm[j], ref_perm[i]
        assert perm == ref_perm
        assert after == r
        assert after.state == (rng.state + m * GOLDEN) & MASK  # one extra step
        assert (perm, after.state) == ref_shuffle(rng.state, m)


class TestBoundedUintBlock:
    @given(
        st.integers(min_value=0, max_value=MASK),
        st.lists(st.integers(min_value=1, max_value=MASK), max_size=20),
    )
    @settings(max_examples=100)
    def test_equals_scalar_draws(self, state, bounds):
        values, rng = bounded_uint_block(RngState(state), np.array(bounds, dtype=np.uint64))
        ref, r = [], RngState(state)
        for b in bounds:
            v, r = bounded_uint(r, b)
            ref.append(v)
        assert values.tolist() == ref
        assert rng == r

    def test_rejection_redraws_only_from_the_rejected_draw(self):
        # 2**64 mod 3 is 1, so 2**64 - 1 is the one rejected value for bound 3.
        rng = state_with_draw(2, MASK)
        values, after = bounded_uint_block(rng, np.full(4, 3, dtype=np.uint64))
        ref, r = [], rng
        for _ in range(4):
            v, r = bounded_uint(r, 3)
            ref.append(v)
        assert values.tolist() == ref
        assert after == r
        assert after.state == (rng.state + 5 * GOLDEN) & MASK

    def test_zero_bound_rejected(self):
        with pytest.raises(ValueError):
            bounded_uint_block(RngState(0), np.array([3, 0], dtype=np.uint64))

    def test_draw_above_the_max_test_but_not_rejected(self):
        # 2**64 - 5 exceeds 2**64 - max(bounds) = 2**64 - 7, so the block
        # goes to the scalar loop, yet bound 7 accepts it (2**64 mod 7 is 2):
        # the result is the plain remainders, one draw per bound.
        rng = state_with_draw(1, MASK - 4)
        bounds = np.array([7, 3], dtype=np.uint64)
        raw, raw_after = next_u64_block(rng, 2)
        values, after = bounded_uint_block(rng, bounds)
        assert values.tolist() == (raw % bounds).tolist()
        assert after == raw_after

    def test_empty_block(self):
        values, after = bounded_uint_block(RngState(5), np.array([], dtype=np.uint64))
        assert values.size == 0 and values.dtype == np.uint64
        assert after == RngState(5)


class TestStateWithDraw:
    @pytest.mark.parametrize("k, value", [(1, 0), (3, MASK), (7, 0x0123456789ABCDEF)])
    def test_kth_draw_has_the_value(self, k, value):
        values, _ = next_u64_block(state_with_draw(k, value), k)
        assert int(values[k - 1]) == value

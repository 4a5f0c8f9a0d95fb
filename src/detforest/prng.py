"""Pinned, splittable pseudo-random number generation (SplitMix64).

Every random decision in this package flows through this module, so that a
64-bit seed fully determines a forest, bit for bit, on any machine and in
any order of growing its trees.  The generator is SplitMix64, chosen
because its whole state transition is one addition and its output function
is a short multiply-xor-shift chain -- trivial to re-implement exactly in
any language.

The algorithm, pinned exactly (all arithmetic mod 2**64):

    GOLDEN = 0x9E3779B97F4A7C15

    finalize(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

    derive_stream(seed, stream_index) -> state:
        state = finalize(seed ^ (stream_index * GOLDEN))

    next_u64(state) -> (value, state'):
        state' = state + GOLDEN
        value  = finalize(state')

Independent streams are addressed by ``(seed, stream_index)``.  Stream
indices 0, 1, 2, ... belong to the trees of a forest; a few indices at the
top of the 64-bit range are reserved for non-tree consumers (train/test
splitting, the synthetic data generator, trial-seed derivation) so they can
never collide with a tree index.

States are plain values, never shared or mutated in place: every operation
returns the advanced state.  That is what makes per-tree streams safe under
any worker count.

Distinct ``(seed, stream_index)`` pairs yield distinct initial states except
with negligible collision probability (the finalizer is a bijection, so a
collision requires ``seed ^ index*GOLDEN`` itself to collide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Reserved stream indices (top of the 64-bit range; tree indices count up
# from 0, and ForestConfig caps n_trees at TRIAL_STREAM, so they stay below).
SPLIT_STREAM = 0xFFFFFFFFFFFFFFFF
SYNTH_STREAM = 0xFFFFFFFFFFFFFFFE
TRIAL_STREAM = 0xFFFFFFFFFFFFFFFD


@dataclass(frozen=True)
class RngState:
    """Immutable SplitMix64 state. Advancing it is a pure function."""

    state: int

    def __post_init__(self) -> None:
        if not 0 <= self.state <= _MASK64:
            raise ValueError(f"state out of 64-bit range: {self.state}")


def _finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_stream(seed: int, stream_index: int) -> RngState:
    """Initial state of the independent stream addressed by (seed, index)."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed out of 64-bit range: {seed}")
    if not 0 <= stream_index <= _MASK64:
        raise ValueError(f"stream_index out of 64-bit range: {stream_index}")
    return RngState(_finalize(seed ^ ((stream_index * _GOLDEN) & _MASK64)))


def next_u64(rng: RngState) -> tuple[int, RngState]:
    """One SplitMix64 step: uniform value in [0, 2**64) plus the next state."""
    state = (rng.state + _GOLDEN) & _MASK64
    return _finalize(state), RngState(state)


def next_u64_block(rng: RngState, count: int) -> tuple[np.ndarray, RngState]:
    """`count` successive next_u64 values as a uint64 array.

    Bit-identical to calling :func:`next_u64` `count` times; vectorized by
    exploiting that the state walks an arithmetic progression.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    steps = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(rng.state) + steps * np.uint64(_GOLDEN)  # wraps mod 2**64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    final = (rng.state + count * _GOLDEN) & _MASK64
    return z, RngState(final)


def bounded_uint(rng: RngState, n: int) -> tuple[int, RngState]:
    """Unbiased draw in [0, n) by rejection sampling.

    Values >= floor(2**64 / n) * n are rejected and redrawn, then the
    survivor is reduced modulo n, so the bias never depends on n.  May
    advance the state more than one step (n = 1 advances exactly one).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    limit = ((_MASK64 + 1) // n) * n
    while True:
        value, rng = next_u64(rng)
        if value < limit:
            return value % n, rng


def bounded_uint_block(rng: RngState, bounds: np.ndarray) -> tuple[np.ndarray, RngState]:
    """Successive bounded_uint draws, draw i in [0, bounds[i]), as uint64.

    Bit-identical to calling :func:`bounded_uint` once per bound, and the
    one place that checks draws against rejection limits.  All draws come
    from one :func:`next_u64_block`.  bounded_uint accepts v for bound b
    exactly when v < floor(2**64 / b) * b, that is when
    v <= 2**64 - 1 - (2**64 mod b); as 2**64 mod b < max(bounds), every
    draw is accepted when the largest is at most 2**64 - max(bounds).
    Only if that test fails (probability below
    ``len(bounds) * max(bounds) / 2**64``) does the scalar loop redo the
    whole block, because a rejection shifts every later draw.
    """
    b = np.asarray(bounds, dtype=np.uint64)
    if b.size and int(b.min()) < 1:
        raise ValueError(f"bounds must be >= 1, got {int(b.min())}")
    values, after = next_u64_block(rng, b.size)
    if not b.size or np.all(values <= np.uint64(2**64 - int(b.max()))):
        return values % b, after
    out = np.empty(b.size, dtype=np.uint64)
    for i, n in enumerate(b.tolist()):
        out[i], rng = bounded_uint(rng, n)
    return out, rng


def permute(partners: list[int]) -> list[int]:
    """Fisher-Yates on [0, len(partners) + 1) with the given swap partners.

    Walks from the high index downward: position i swaps with the next
    partner, which shuffle draws as ``bounded_uint(i + 1)``.
    """
    perm = list(range(len(partners) + 1))
    for i, j in zip(range(len(partners), 0, -1), partners):
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def shuffle(rng: RngState, m: int) -> tuple[list[int], RngState]:
    """Uniform random permutation of [0, m) via Fisher-Yates.

    The m - 1 swap partners are one :func:`bounded_uint_block` draw over
    the bounds m, m - 1, ..., 2, applied by :func:`permute`.  Deterministic
    given the state.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    partners, rng = bounded_uint_block(rng, np.arange(m, 1, -1, dtype=np.uint64))
    return permute(partners.tolist()), rng

"""SplitMix64 stream pinning and derived-draw behaviour."""

import copy
import math
import pickle
import random

import numpy as np
import pytest

from backrank import DomainError, SplitMix64
from helpers import ScalarSplitMix64

# First three outputs of the published SplitMix64 algorithm for seed 0,
# recomputed independently from the reference recurrence. [DERIVED]
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_seed0_reference_vector():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(3)) == SEED0_STREAM


def test_stream_is_pure_function_of_seed():
    a = [SplitMix64(99).next_u64() for _ in range(50)]
    b = [SplitMix64(99).next_u64() for _ in range(50)]
    assert a == b
    assert a != [SplitMix64(100).next_u64() for _ in range(50)]


def test_seed_wraps_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_uniform_matches_documented_scaling():
    # uniform() must be (next_u64() >> 11) * 2^-53 on the same stream
    raw = SplitMix64(7)
    derived = SplitMix64(7)
    for _ in range(100):
        expect = (raw.next_u64() >> 11) / float(1 << 53)
        got = derived.uniform()
        assert got == expect
        assert 0.0 <= got < 1.0


def test_normal_consumes_two_uniforms():
    raw = SplitMix64(3)
    u1 = ((raw.next_u64() >> 11) + 1) / float(1 << 53)
    u2 = (raw.next_u64() >> 11) / float(1 << 53)
    expect = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    assert ScalarSplitMix64(3).normal() == expect
    g = SplitMix64(3)
    assert g.normal_array(()) == expect
    assert g.next_u64() == raw.next_u64()


def test_normal_scales_and_shifts():
    base = ScalarSplitMix64(11).normal()
    assert ScalarSplitMix64(11).normal(mu=2.0, sigma=3.0) == pytest.approx(2.0 + 3.0 * base,
                                                                          abs=1e-15)
    assert SplitMix64(11).normal_array((), 3.0) == pytest.approx(3.0 * base, abs=1e-15)


def test_randint_range_and_error():
    g = SplitMix64(5)
    draws = [g.randint(10) for _ in range(500)]
    assert set(draws) <= set(range(10))
    assert len(set(draws)) == 10     # all residues show up in 500 draws
    for bad in (0, -3, 2.5, 1.0, "3", np.int64(10)):
        with pytest.raises(DomainError):
            g.randint(bad)


def test_shuffle_is_a_permutation_and_deterministic():
    xs = list(range(20))
    ys = list(xs)
    SplitMix64(42).shuffle(xs)
    SplitMix64(42).shuffle(ys)
    assert xs == ys
    assert sorted(xs) == list(range(20))
    assert xs != list(range(20))     # overwhelmingly unlikely to be identity


def test_sample_without_replacement():
    g = SplitMix64(8)
    picked = g.sample(list(range(30)), 10)
    assert len(picked) == 10
    assert len(set(picked)) == 10
    for k in (3, -1):
        with pytest.raises(DomainError):
            g.sample([1, 2], k)
    assert g.sample([1, 2], 0) == []


def test_normal_array_row_major_from_scalar_stream():
    arr = SplitMix64(21).normal_array((3, 4), sigma=0.5)
    g = ScalarSplitMix64(21)
    flat = [g.normal(0.0, 0.5) for _ in range(12)]
    assert arr.shape == (3, 4)
    assert np.array_equal(arr.ravel(), np.array(flat))
    # bit for bit at any seed and shape, and the stream goes on in step
    for seed in (0, 1, 7, 2**63 + 5):
        for shape, sigma in (((3, 4), 0.5), ((), 1.0), ((0,), 1.0), ((2, 1000), 0.02)):
            g, ref = SplitMix64(seed), ScalarSplitMix64(seed)
            arr = g.normal_array(shape, sigma)
            flat = [ref.normal(0.0, sigma) for _ in range(math.prod(shape))]
            assert arr.shape == shape and arr.dtype == np.float64
            assert arr.ravel().tobytes() == np.array(flat, dtype=np.float64).tobytes()
            assert g.next_u64() == ref.next_u64()


def test_normal_array_rejects_a_negative_dimension_and_keeps_the_stream():
    g, ref = SplitMix64(5), ScalarSplitMix64(5)
    assert [g.next_u64(), g.next_u64()] == [ref.next_u64(), ref.next_u64()]
    for shape in ((-1,), (2, -3), (-1, -2)):
        with pytest.raises(DomainError):
            g.normal_array(shape)
    assert g.next_u64() == ref.next_u64()


# Output counts on each side of the 1,024-output block edge, so calls start
# and end mid-block and normal_array takes over a half-used block.
COUNTS = (0, 1, 1023, 1024, 1025, 3 * 1024 + 7)
METHODS = ("next_u64", "uniform", "randint", "shuffle", "sample", "normal_array")


def draw(g, method, count, n):
    """One step that takes ``count`` outputs' worth of ``method`` from g."""
    if method == "next_u64":
        return [g.next_u64() for _ in range(count)]
    if method == "uniform":
        return [g.uniform() for _ in range(count)]
    if method == "randint":
        return [g.randint(n) for _ in range(count)]
    if method == "shuffle":
        xs = list(range(count))
        g.shuffle(xs)
        return xs
    if method == "sample":
        return g.sample(range(count), min(n, count))
    return g.normal_array((count,), 0.5).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 5, 2**64 - 1])
def test_block_stream_equals_the_scalar_oracle_across_interleavings(seed):
    steps = [(m, c) for m in METHODS for c in COUNTS]
    driver = random.Random(seed)
    driver.shuffle(steps)
    g, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for method, count in steps:
        n = driver.choice((1, 7, 1000, 2**64 + 3))
        assert draw(g, method, count, n) == draw(ref, method, count, n), (method, count)
        assert g.next_u64() == ref.next_u64(), (method, count)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda g: pickle.loads(pickle.dumps(g))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_clone_goes_on_with_the_same_stream_on_its_own(clone):
    for used in (0, 1, 500, 1024):
        g, ref = SplitMix64(9), ScalarSplitMix64(9)
        draw(g, "next_u64", used, 0)
        draw(ref, "next_u64", used, 0)
        twin = clone(g)
        ahead = draw(g, "next_u64", 1500, 0)     # runs over a block edge
        assert ahead == draw(ref, "next_u64", 1500, 0)
        assert draw(twin, "next_u64", 1500, 0) == ahead


def test_moments_are_sane():
    g = SplitMix64(2024)
    us = [g.uniform() for _ in range(20000)]
    assert abs(sum(us) / len(us) - 0.5) < 0.01
    ns = g.normal_array((20000,)).tolist()
    mean = sum(ns) / len(ns)
    var = sum((x - mean) ** 2 for x in ns) / len(ns)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05

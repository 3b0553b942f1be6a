"""The generator contract: SplitMix64 outputs, uniform and normal
conversions, and stream derivation.  Frozen values below were computed with
an independent pure-Python implementation of the same algorithm."""

import math
import warnings

import numpy as np
import pytest

from ssmkit import SeededGenerator

MASK = (1 << 64) - 1


def reference_raw(seed: int, index: int) -> int:
    # Pure-integer SplitMix64, kept independent of the numpy code path.
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def reference_uniform(seed: int, index: int) -> float:
    return (reference_raw(seed, index) >> 11) * 2.0**-53


def reference_normal(seed: int, pair: int) -> float:
    u1 = reference_uniform(seed, 2 * pair)
    u2 = reference_uniform(seed, 2 * pair + 1)
    return math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)


FROZEN_RAW = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ],
    MASK: [
        16490336266968443936,
        16834447057089888969,
        4048727598324417001,
        7862637804313477842,
    ],
}
FROZEN_UNIFORM_42 = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
]
FROZEN_NORMAL_42 = [0.8822489062222688, -0.4508498757188601, 0.1883526341159315]


class TestRawOutputs:
    @pytest.mark.parametrize("seed", sorted(FROZEN_RAW))
    def test_frozen_raw_values(self, seed):
        got = SeededGenerator(seed).raw_at(0, 4)
        assert [int(v) for v in got] == FROZEN_RAW[seed]

    def test_matches_reference_across_seeds_and_offsets(self):
        for seed in (0, 1, 12345, 2**63, MASK):
            gen = SeededGenerator(seed)
            got = gen.raw_at(1000, 8)
            want = [reference_raw(seed, 1000 + i) for i in range(8)]
            assert [int(v) for v in got] == want

    def test_seed_wraps_modulo_2_64(self):
        assert (
            SeededGenerator(2**64 + 5).raw_at(0, 3).tolist()
            == SeededGenerator(5).raw_at(0, 3).tolist()
        )

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError):
            SeededGenerator(1.5)


class TestNoOverflowWarning:
    """The index arithmetic wraps modulo 2**64 by design; uint64 array
    operations wrap without a warning, so none may reach the caller."""

    @pytest.mark.parametrize("seed", [0, MASK])
    @pytest.mark.parametrize("start", [0, 2**63 - 402, 2**63 - 1, 2**63, 2**63 + 7])
    @pytest.mark.parametrize("count", [0, 1, 401])
    def test_no_warning(self, seed, start, count):
        gen = SeededGenerator(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = gen.raw_at(start, count)
            uniforms = gen.uniform_at(start, count)
            normals = gen.normal_at(start, count)
        assert raw.shape == uniforms.shape == (count,)
        assert normals.shape == (count,)
        picks = sorted({0, count // 2, count - 1}) if count else []
        assert [int(raw[i]) for i in picks] == [
            reference_raw(seed, start + i) for i in picks
        ]


class TestUniforms:
    def test_frozen_values(self):
        got = SeededGenerator(42).uniform_at(0, 4)
        np.testing.assert_array_equal(got, FROZEN_UNIFORM_42)

    def test_range_half_open(self):
        u = SeededGenerator(9).uniform_at(0, 100_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_sequential_equals_indexed(self):
        gen = SeededGenerator(7)
        first = gen.uniforms(5)
        second = gen.uniforms(5)
        np.testing.assert_array_equal(first, SeededGenerator(7).uniform_at(0, 5))
        np.testing.assert_array_equal(second, SeededGenerator(7).uniform_at(5, 5))
        assert gen.position == 10

    def test_mean_near_half(self):
        u = SeededGenerator(123).uniform_at(0, 200_000)
        assert abs(u.mean() - 0.5) < 0.005


class TestNormals:
    def test_frozen_values(self):
        # Transcendental steps may differ from scalar libm by an ulp, so the
        # normal contract is 1e-15 rather than bit equality.
        got = SeededGenerator(42).normal_at(0, 3)
        np.testing.assert_allclose(got, FROZEN_NORMAL_42, rtol=0, atol=1e-15)

    def test_each_normal_consumes_two_uniforms(self):
        gen = SeededGenerator(5)
        gen.normals(3)
        assert gen.position == 6
        # A normal drawn next must reproduce the indexed draw at pair 3.
        np.testing.assert_array_equal(
            gen.normals(1), SeededGenerator(5).normal_at(6, 1)
        )

    def test_matches_reference(self):
        got = SeededGenerator(99).normal_at(0, 50)
        want = [reference_normal(99, j) for j in range(50)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_moments(self):
        z = SeededGenerator(17).normal_at(0, 200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


class TestIntegers:
    def test_range_and_determinism(self):
        gen = SeededGenerator(3)
        draws = gen.integers(1000, 7)
        assert draws.min() >= 0 and draws.max() < 7
        np.testing.assert_array_equal(draws, SeededGenerator(3).integers(1000, 7))

    def test_high_must_be_positive(self):
        with pytest.raises(ValueError):
            SeededGenerator(3).integers(1, 0)


class TestDerive:
    def test_deterministic_and_key_sensitive(self):
        base = SeededGenerator(11)
        a = base.derive("step", 0).uniforms(4)
        b = base.derive("step", 1).uniforms(4)
        c = SeededGenerator(11).derive("step", 0).uniforms(4)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, b)

    def test_derive_does_not_consume(self):
        gen = SeededGenerator(11)
        gen.derive("x")
        assert gen.position == 0

    def test_string_and_int_keys_distinct(self):
        base = SeededGenerator(2)
        assert base.derive("1").seed != base.derive(1).seed

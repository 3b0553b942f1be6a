"""The generator contract: SplitMix64 outputs, uniform and normal
conversions, and stream derivation.  Frozen values below were computed with
an independent pure-Python implementation of the same algorithm."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from ssmkit import SeededGenerator
from ssmkit import rng as rng_module
from ssmkit.rng import _BLOCK_VALUES, _box_muller, _first_uniform, _KeyedStreams

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

    @pytest.mark.parametrize("method", ["raw_at", "uniform_at", "normal_at"])
    @pytest.mark.parametrize("start", [-1, -3, -(2**70)])
    def test_negative_start_rejected(self, method, start):
        with pytest.raises(ValueError, match="start must be non-negative"):
            getattr(SeededGenerator(4), method)(start, 2)

    @pytest.mark.parametrize("method", ["raw_at", "uniform_at"])
    def test_last_index_is_2_64_minus_2(self, method):
        gen = SeededGenerator(4)
        assert getattr(gen, method)(MASK - 1, 1).shape == (1,)
        with pytest.raises(ValueError, match="past index 2\\*\\*64 - 2"):
            getattr(gen, method)(MASK, 1)
        with pytest.raises(ValueError, match="past index 2\\*\\*64 - 2"):
            getattr(gen, method)(MASK - 1, 2)

    def test_normal_pairs_past_the_end_rejected(self):
        # A normal consumes two outputs.
        assert SeededGenerator(4).normal_at(MASK - 2, 1).shape == (1,)
        with pytest.raises(ValueError, match="past index"):
            SeededGenerator(4).normal_at(MASK - 1, 1)


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

    def test_first_uniform_on_python_ints(self):
        # The particle filter's resampling draw, without numpy.
        gen = np.random.default_rng(5)
        seeds = [0, 1, 2**63 - 1, 2**63, MASK - 1, MASK]
        seeds += [int(s) for s in gen.integers(0, 2**63, size=2000, dtype=np.uint64)]
        seeds += [int(s) + 2**63 for s in gen.integers(0, 2**63, size=2000, dtype=np.uint64)]
        seeds += [SeededGenerator(9).derive("resample", t).seed for t in range(1000)]
        for seed in seeds:
            want = SeededGenerator(seed).uniform_at(0, 1)[0]
            got = _first_uniform(seed)
            assert type(got) is float
            assert got == want, seed


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

    @pytest.mark.parametrize("start", [0, 1, 6, 2**63 - 3, MASK - 801])
    @pytest.mark.parametrize("count", [1, 2, 5, 400])
    def test_equals_the_plain_expression(self, start, count):
        # Box-Muller on the indexed uniforms, each step a fresh array.
        gen = SeededGenerator(77)
        u = gen.uniform_at(start, 2 * count).reshape(count, 2)
        want = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
        assert gen.normal_at(start, count).tobytes() == want.tobytes()

    @pytest.mark.parametrize("start", [0, 1, 6, 2**63 - 3, MASK - 801])
    @pytest.mark.parametrize("count", [1, 2, 5, 400])
    def test_batched_rows_equal_single_seed_draws(self, start, count):
        seeds = [0, 1, 2**63, MASK] + [
            SeededGenerator(3).derive("step", t).seed for t in range(12)
        ]
        block = _box_muller(np.array(seeds, dtype=np.uint64), start, count)
        assert block.shape == (len(seeds), count)
        for seed, row in zip(seeds, block):
            want = SeededGenerator(seed).normal_at(start, count)
            assert row.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("high", [2.5, 3.0, np.float64(4.0), "3", None])
    def test_high_must_be_an_integer(self, high):
        gen = SeededGenerator(3)
        with pytest.raises(ValueError, match="high must be an integer"):
            gen.integers(3, high)
        assert gen.position == 0

    @pytest.mark.parametrize("high", [2**53 + 1, 2**64, 2**70, np.uint64(2**63)])
    def test_high_above_53_bits_rejected(self, high):
        with pytest.raises(ValueError, match=r"high must lie in \[1, 2\*\*53\]"):
            SeededGenerator(3).integers(3, high)

    def test_high_of_2_53_reaches_the_top_bits(self):
        gen = SeededGenerator(3)
        draws = gen.integers(5, 2**53)
        want = (SeededGenerator(3).raw_at(0, 5) >> np.uint64(11)).astype(np.int64)
        np.testing.assert_array_equal(draws, want)
        assert draws.dtype == np.int64


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

    @pytest.mark.parametrize("key", [2**127, 2**130, -(2**127) - 1])
    def test_int_key_outside_128_bits_rejected(self, key):
        with pytest.raises(ValueError, match="int keys must lie in"):
            SeededGenerator(2).derive("step", key)

    @pytest.mark.parametrize("key", [2**127 - 1, -(2**127), np.uint64(2**63)])
    def test_int_keys_at_the_range_ends_accepted(self, key):
        digest = hashlib.sha256(
            SeededGenerator(2).seed.to_bytes(8, "little")
            + b"i" + int(key).to_bytes(16, "little", signed=True)
        ).digest()
        assert SeededGenerator(2).derive(key).seed == int.from_bytes(digest[:8], "little")


class TestKeyedStreams:
    """The particle filter's per-step streams: each behaves as
    rng.derive(key, t), and a step's first normal draw comes from a block
    only after the step before it drew the same count."""

    @staticmethod
    def record_blocks(monkeypatch):
        """List of (rows, count) for every batched draw made."""
        blocks = []

        def recording(seeds, start, count):
            if np.ndim(seeds):
                blocks.append((len(seeds), count))
            return _box_muller(seeds, start, count)

        monkeypatch.setattr(rng_module, "_box_muller", recording)
        return blocks

    @pytest.mark.parametrize("count", [1, 7, 400, _BLOCK_VALUES // 2])
    def test_streams_equal_derived_generators(self, count, monkeypatch):
        blocks = self.record_blocks(monkeypatch)
        rng = SeededGenerator(21)
        steps = 2 * (_BLOCK_VALUES // count) + 3
        streams = _KeyedStreams(rng, "step", steps)
        for t in range(steps):
            stream, plain = streams(t), rng.derive("step", t)
            assert stream.seed == plain.seed
            assert stream.normals(count).tobytes() == plain.normals(count).tobytes()
            assert stream.uniforms(3).tobytes() == plain.uniforms(3).tobytes()
            assert stream.position == plain.position
        # Step 0 draws alone; then blocks of B steps, the last one cut at the end.
        rows = _BLOCK_VALUES // count
        expected, t = [], 1
        while t < steps:
            expected.append((min(rows, steps - t), count))
            t += rows
        assert blocks == expected

    def test_no_block_past_the_block_size(self, monkeypatch):
        blocks = self.record_blocks(monkeypatch)
        rng = SeededGenerator(22)
        streams = _KeyedStreams(rng, "step", 6)
        for t in range(6):
            got = streams(t).normals(_BLOCK_VALUES // 2 + 1)
            assert got.tobytes() == rng.derive("step", t).normals(_BLOCK_VALUES // 2 + 1).tobytes()
        assert blocks == []

    def test_varying_counts_form_no_block(self, monkeypatch):
        blocks = self.record_blocks(monkeypatch)
        rng = SeededGenerator(23)
        streams = _KeyedStreams(rng, "step", 20)
        for t in range(20):
            count = 10 + t % 2
            assert streams(t).normals(count).tobytes() == (
                rng.derive("step", t).normals(count).tobytes())
        assert blocks == []

    def test_count_change_inside_a_block_draws_plainly(self, monkeypatch):
        blocks = self.record_blocks(monkeypatch)
        rng = SeededGenerator(25)
        streams = _KeyedStreams(rng, "step", 8)
        for t, count in enumerate([8, 8, 8, 9, 8, 8, 8, 8]):
            got = streams(t).normals(count)
            assert got.tobytes() == rng.derive("step", t).normals(count).tobytes()
        # Steps 1-7 from one block; step 3 is drawn plainly, step 4 alone
        # (step 3 drew another count), and steps 5-7 from a new block.
        assert blocks == [(7, 8), (3, 8)]

    def test_rows_are_handed_out_once(self):
        rng = SeededGenerator(24)
        streams = _KeyedStreams(rng, "step", 5)
        streams(0).normals(8)
        stream = streams(1)  # forms the block for steps 1 to 4
        first = stream.normal_at(0, 8)
        first[:] = 0.0
        again = stream.normal_at(0, 8)
        assert again.tobytes() == rng.derive("step", 1).normal_at(0, 8).tobytes()
        later = streams(2).normals(8)
        assert later.tobytes() == rng.derive("step", 2).normals(8).tobytes()
        assert not np.shares_memory(first, later)

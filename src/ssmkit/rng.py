"""Counter-based deterministic random numbers.

Output i of a stream with seed s is mix64(s + (i+1) * GOLDEN) where mix64 is
the SplitMix64 finalizer and all arithmetic wraps modulo 2**64.  A generator
carries a cursor that advances as variates are drawn, so the sequential
stream is a pure function of the seed and is bit-identical across platforms.
Uniforms take the top 53 bits of an output, giving values in [0, 1);
normals are Box-Muller pairs, each consuming exactly two uniforms.  A
stream has 2**64 - 1 outputs, indices 0 to 2**64 - 2.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeededGenerator"]

_U64_MASK = (1 << 64) - 1
_GOLDEN_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_S11 = np.uint64(11)
# Uniforms carry 53 bits, so integers() reaches every value below this.
_MAX_HIGH = 1 << 53
_KEY_RANGE = 1 << 127  # int keys are hashed as signed 128-bit values


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, applied to z in place; returns z."""
    tmp = np.right_shift(z, _S30)
    z ^= tmp
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def _box_muller(seeds, start: int, count: int) -> np.ndarray:
    """count normals from output start on, for a uint64 seed or a vector.

    For a vector of B seeds the result is (B, count), and row i has the
    bytes of SeededGenerator(seeds[i]).normal_at(start, count): every
    operation is elementwise.  Pair j consumes outputs start+2j and
    start+2j+1.  The radii are formed before the angles' outputs are, and
    both in place, so a block holds at most three times its normals.
    """
    # log1p(-u) = log(1 - u) stays finite because u < 1.
    radius = _uniforms_every_other(seeds, start, count)
    np.negative(radius, radius)
    np.log1p(radius, radius)
    radius *= -2.0
    np.sqrt(radius, radius)
    angle = _uniforms_every_other(seeds, start + 1, count)
    angle *= 2.0 * np.pi
    np.cos(angle, angle)
    radius *= angle
    return radius


def _uniforms_every_other(seeds, first: int, count: int) -> np.ndarray:
    """Uniforms from outputs first, first + 2, ..., one row per seed of a vector."""
    offsets = np.arange(first + 1, first + 2 * count + 1, 2, dtype=np.uint64)
    # Array arithmetic on uint64 wraps modulo 2**64 without a warning.
    offsets *= _GOLDEN
    if isinstance(seeds, np.ndarray):
        # Row by row: np.add(offsets, seeds[:, None], out=z) allocates
        # numpy's iteration buffers, 33 KB by tracemalloc at 5 x 400
        # outputs, twice z.
        z = np.empty((len(seeds), count), dtype=np.uint64)
        for i in range(len(seeds)):
            np.add(offsets, seeds[i], z[i])
    else:
        z = offsets
        z += seeds
    _mix64(z)
    z >>= _S11
    # astype then scale in place: a casting multiply would hold a buffer.
    u = z.astype(np.float64)
    u *= 2.0**-53
    return u


def _first_uniform(seed: int) -> float:
    """uniform_at(0, 1)[0] of the stream with this seed, on Python ints."""
    z = (seed + _GOLDEN_INT) & _U64_MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _U64_MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _U64_MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _check_span(start: int, count: int) -> None:
    if count < 0:
        raise ValueError("count must be non-negative")
    if start < 0:
        raise ValueError(f"start must be non-negative, got {start}")
    if count and start + count > _U64_MASK:
        raise ValueError(f"outputs {start}..{start + count - 1} run past index 2**64 - 2")


class SeededGenerator:
    """Deterministic random stream with an explicit draw counter.

    Draws are indexed, so any block of the stream can also be produced
    out of order through the ``*_at`` methods without touching the cursor;
    the plain methods consume sequentially.  Not shareable between
    concurrent tasks: use :meth:`derive` to give each task its own stream.
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = np.uint64(int(seed) & _U64_MASK)
        self._position = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    @property
    def position(self) -> int:
        """Index of the next raw output to be consumed."""
        return self._position

    # Indexed access: pure functions of (seed, start, count).

    def raw_at(self, start: int, count: int) -> np.ndarray:
        """uint64 outputs for indices start, ..., start+count-1."""
        _check_span(start, count)
        # Array arithmetic on uint64 wraps modulo 2**64 without a warning.
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        idx *= _GOLDEN
        idx += self._seed
        return _mix64(idx)

    def uniform_at(self, start: int, count: int) -> np.ndarray:
        """Uniforms on [0, 1), one raw output per value."""
        return (self.raw_at(start, count) >> _S11) * 2.0**-53

    def normal_at(self, start: int, count: int) -> np.ndarray:
        """Standard normals; pair j consumes outputs start+2j, start+2j+1."""
        _check_span(start, 2 * count)
        if count == 0:
            return np.empty(0)
        return _box_muller(self._seed, start, count)

    # Sequential access: advances the cursor.

    def uniforms(self, count: int) -> np.ndarray:
        out = self.uniform_at(self._position, count)
        self._position += count
        return out

    def normals(self, count: int) -> np.ndarray:
        out = self.normal_at(self._position, count)
        self._position += 2 * count
        return out

    def integers(self, count: int, high: int) -> np.ndarray:
        """Integers on {0, ..., high-1} via floor(u * high), one output each.

        high is an integer from 1 to 2**53: a uniform carries 53 bits.
        """
        if not isinstance(high, (int, np.integer)):
            raise ValueError(f"high must be an integer, got {type(high).__name__}")
        if not 0 < high <= _MAX_HIGH:
            raise ValueError(f"high must lie in [1, 2**53], got {high}")
        return np.minimum((self.uniforms(count) * high).astype(np.int64), high - 1)

    def derive(self, *keys: int | str) -> "SeededGenerator":
        """Fresh child stream keyed by (seed, *keys) through SHA-256.

        Does not consume from this stream.  Distinct key tuples yield
        independent streams, stably across platforms and sessions.  An int
        key lies in [-2**127, 2**127).
        """
        h = hashlib.sha256()
        h.update(self.seed.to_bytes(8, "little"))
        for key in keys:
            if isinstance(key, str):
                h.update(b"s" + key.encode("utf-8"))
            else:
                key = int(key)
                if not -_KEY_RANGE <= key < _KEY_RANGE:
                    raise ValueError(f"int keys must lie in [-2**127, 2**127), got {key}")
                h.update(b"i" + key.to_bytes(16, "little", signed=True))
        return SeededGenerator(int.from_bytes(h.digest()[:8], "little"))


# Normals per block of first draws.  A draw costs about 20 numpy calls: at
# 400 normals per step, a step's stream and draw took 19-20 us in blocks of
# 5 steps against 28-54 us alone, and from about 2000 per step blocks gain
# nothing.  Forming a block holds about 26 bytes per value at its peak, and
# 2048 values keep the fixed-lag smoother's peak memory at N = 500 within
# eight times its ring of carried positions (TestFixedLagMemory); 4096 would
# not.
_BLOCK_VALUES = 2048


class _KeyedStreams:
    """The streams rng.derive(key, t) for t = 0, ..., steps - 1.

    Each stream gives the bytes its derived generator gives.  When step t's
    first normal draw is normal_at(0, c) and step t - 1's was too, with the
    same c, one batched draw forms that draw for steps t to t + B - 1,
    B = _BLOCK_VALUES // c, and those steps read their rows of it.  Any
    other draw, and any normal draw after a step's first, is a plain one,
    and a first normal draw that misses the block releases it.
    """

    def __init__(self, rng: SeededGenerator, key: str, steps: int):
        self._rng = rng
        self._key = key
        self._steps = steps
        self._previous = (-1, 0)  # (step, count) of the last first normal_at(0, c)
        self._lo = 0  # the block holds rows for steps lo, ..., lo + len(block) - 1
        self._seeds: list[int] = []
        self._block: np.ndarray | None = None

    def __call__(self, t: int) -> SeededGenerator:
        return _KeyedStream(self._seed(t), self, t)

    def _seed(self, t: int) -> int:
        """Step t's seed; each step's is derived once, through rng.derive."""
        i = t - self._lo
        if 0 <= i < len(self._seeds):
            return self._seeds[i]
        return self._rng.derive(self._key, t).seed

    def _first_normals(self, t: int, count: int, seed: int) -> np.ndarray | None:
        """Step t's normal_at(0, count) from a block, or None for a plain draw."""
        previous, self._previous = self._previous, (t, count)
        i = t - self._lo
        block = self._block
        if block is not None and block.shape[1] == count and 0 <= i < len(block):
            return block[i]
        # Release this block before the next one is formed.
        block = self._block = None
        rows = min(_BLOCK_VALUES // count, self._steps - t)
        if previous != (t - 1, count) or rows < 2:
            return None
        self._seeds = [seed] + [self._seed(s) for s in range(t + 1, t + rows)]
        self._lo = t
        self._block = _box_muller(np.array(self._seeds, dtype=np.uint64), 0, count)
        return self._block[0]


class _KeyedStream(SeededGenerator):
    """SeededGenerator(seed) whose first normal_at(0, c) may be a row of its
    family's block: the row has that call's bytes whatever the step drew
    before it."""

    def __init__(self, seed: int, family: _KeyedStreams, t: int):
        super().__init__(seed)
        self._family = family
        self._t = t
        self._first = True

    def normal_at(self, start: int, count: int) -> np.ndarray:
        if self._first:
            self._first = False
            if start == 0 and count > 0:
                row = self._family._first_normals(self._t, count, self.seed)
                if row is not None:
                    return row
        return super().normal_at(start, count)

"""Counter-based deterministic random numbers.

Output i of a stream with seed s is mix64(s + (i+1) * GOLDEN) where mix64 is
the SplitMix64 finalizer and all arithmetic wraps modulo 2**64.  A generator
carries a cursor that advances as variates are drawn, so the sequential
stream is a pure function of the seed and is bit-identical across platforms.
Uniforms take the top 53 bits of an output, giving values in [0, 1);
normals are Box-Muller pairs, each consuming exactly two uniforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["SeededGenerator"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)
_U64_MASK = (1 << 64) - 1


def _mix64(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, applied to z in place; returns z."""
    tmp = np.right_shift(z, _S30)
    z ^= tmp
    z *= _MIX1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


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
        if count < 0:
            raise ValueError("count must be non-negative")
        # Array arithmetic on uint64 wraps modulo 2**64 without a warning.
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        idx *= _GOLDEN
        idx += self._seed
        return _mix64(idx)

    def uniform_at(self, start: int, count: int) -> np.ndarray:
        """Uniforms on [0, 1), one raw output per value."""
        return (self.raw_at(start, count) >> np.uint64(11)) * 2.0**-53

    def normal_at(self, start: int, count: int) -> np.ndarray:
        """Standard normals; pair j consumes outputs start+2j, start+2j+1."""
        if count == 0:
            return np.empty(0)
        u = self.uniform_at(start, 2 * count).reshape(count, 2)
        # log1p(-u) = log(1 - u) stays finite because u < 1.
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        return radius * np.cos(2.0 * np.pi * u[:, 1])

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
        """Integers on {0, ..., high-1} via floor(u * high), one output each."""
        if high <= 0:
            raise ValueError("high must be positive")
        return np.minimum((self.uniforms(count) * high).astype(np.int64), high - 1)

    def derive(self, *keys: int | str) -> "SeededGenerator":
        """Fresh child stream keyed by (seed, *keys) through SHA-256.

        Does not consume from this stream.  Distinct key tuples yield
        independent streams, stably across platforms and sessions.
        """
        h = hashlib.sha256()
        h.update(self.seed.to_bytes(8, "little"))
        for key in keys:
            if isinstance(key, str):
                h.update(b"s" + key.encode("utf-8"))
            else:
                h.update(b"i" + int(key).to_bytes(16, "little", signed=True))
        return SeededGenerator(int.from_bytes(h.digest()[:8], "little"))

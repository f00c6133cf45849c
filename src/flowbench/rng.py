"""Deterministic 64-bit generator used everywhere randomness is needed.

All stochastic behaviour in the package (simulated workloads, sampling,
text generation) draws from this generator so that runs are reproducible
bit-for-bit from a seed. Never use `random` or `hash()` in its place:
both vary between interpreter invocations.

splitmix64 is counter-based: draw k from state s is `_mix64(s + k*_GAMMA)`
(mod 2**64), so `SplitMix64` computes its draws a batch at a time. A
batch of n draws is n 128-bit lanes of one Python int, lane i (counted
from the least significant end) holding draw i + 1 after the batch's base
state. The state lanes are `base * ones + steps`, where `ones` holds 1 in
every lane and `steps` holds (i + 1) * _GAMMA mod 2**64 in lane i. Then
`_mix64`'s rounds run over every lane at once, with the lane mask (2**64 - 1
in each lane) applied before each multiply, so no 64x64-bit product carries
into the next lane; a lane's upper 64 bits only catch the products' high
halves. `int.to_bytes` and one `struct` unpack of each lane's low 8 bytes
turn the lanes into a tuple of draws. Batches grow 4 -> 16 -> 64 -> 128
lanes, so a generator that makes a handful of draws computes only a few.
"""

from __future__ import annotations

import math
import struct
from operator import length_hint

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15

# Largest rate `SplitMix64.poisson` draws from: above it `exp(-lam)`
# underflows toward zero and the draws would silently cap near 745.
MAX_POISSON_RATE = 700.0


def checked_rate(name: str, lam) -> float:
    """`lam` as a float if it is an int or float (not a bool) `poisson` can
    draw from, else `ValueError` naming `name`: a rate is never converted
    from a bool or a string."""
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0.0 <= lam <= MAX_POISSON_RATE:
        raise ValueError(f"{name} must be a number in [0, {MAX_POISSON_RATE:g}], got {lam!r}")  # NaN too
    return float(lam)


def checked_seed(seed: int) -> int:
    """`seed` itself if it is an int (not a bool) in [0, 2**64), else `ValueError`:
    a seed is never masked, so two seed labels never name the same stream."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed <= MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned int, got {seed!r}")
    return seed


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def derive_seed(seed: int, *parts: int | str) -> int:
    """Stable sub-seed from a master seed and a label path.

    Used to give independent, reproducible streams to sub-systems
    (e.g. a training run vs. a serving run of the same scenario).
    """
    x = checked_seed(seed)
    for part in parts:
        if isinstance(part, int):
            token = _mix64(part & MASK64)
        else:
            token = _fnv1a64(part.encode("utf-8"))
        x = _mix64((x + _GAMMA) ^ token)
    return x


class _Lanes:
    """The constants of an n-lane batch, and the lanes of the batch after it."""

    __slots__ = ("ones", "steps", "mask", "nbytes", "unpack", "advance", "grown")

    def __init__(self, n: int, grown: _Lanes | None = None):
        self.ones = int.from_bytes(b"\x01".ljust(16, b"\0") * n, "little")
        self.steps = int.from_bytes(
            b"".join((k * _GAMMA & MASK64).to_bytes(16, "little") for k in range(1, n + 1)), "little"
        )
        self.mask = MASK64 * self.ones
        self.nbytes = 16 * n
        self.unpack = struct.Struct("<" + "Q8x" * n).unpack
        self.advance = n * _GAMMA
        self.grown = self if grown is None else grown


_FIRST_LANES = _Lanes(4, _Lanes(16, _Lanes(64, _Lanes(128))))
_NO_DRAWS = iter(())


class SplitMix64:
    """splitmix64 with a 64-bit state, computed a batch of draws at a time.

    `state` is read-only: the state after the draws handed out so far,
    exactly as the one-draw-at-a-time chain `state = (state + _GAMMA) mod
    2**64` would leave it. The generator keeps the undrawn rest of its
    current batch (`_batch`), the state after the batch's last lane
    (`_end`), and the lanes of its next batch."""

    __slots__ = ("_batch", "_end", "_lanes")

    def __init__(self, seed: int):
        self._end = checked_seed(seed)
        self._batch = _NO_DRAWS
        self._lanes = _FIRST_LANES

    @property
    def state(self) -> int:
        return (self._end - length_hint(self._batch) * _GAMMA) & MASK64

    def _refill(self) -> int:
        """Compute the next batch; return its first draw, keep the rest."""
        lanes = self._lanes
        base = self._end
        self._end = (base + lanes.advance) & MASK64
        self._lanes = lanes.grown
        m = lanes.mask
        z = (base * lanes.ones + lanes.steps) & m
        z = ((z ^ (z >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
        z = ((z ^ (z >> 27)) & m) * 0x94D049BB133111EB & m
        batch = self._batch = iter(lanes.unpack((z ^ (z >> 31)).to_bytes(lanes.nbytes, "little")))
        return next(batch)

    def next_u64(self) -> int:
        # The loop runs at most once: it hands out the batch's next draw if
        # one is left, without the call and handler `next()` would need.
        for z in self._batch:
            return z
        return self._refill()

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision (the product is
        exact: `z >> 11` < 2**53)."""
        for z in self._batch:
            return (z >> 11) * 2.0**-53
        return (self._refill() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        if type(n) is not int or n <= 0:
            raise ValueError(f"randrange() n must be an int >= 1, got {n!r}")
        return self.next_u64() % n

    def sample(self, seq, k: int) -> list:
        """k distinct elements, in selection order (partial Fisher-Yates);
        all of them, shuffled, when `seq` has fewer than k."""
        if type(k) is not int or k < 0:
            raise ValueError(f"sample() k must be an int >= 0, got {k!r}")
        pool = list(seq)
        k = min(k, len(pool))
        out = []
        for _ in range(k):
            idx = self.randrange(len(pool))
            out.append(pool.pop(idx))
        return out

    def poisson(self, lam: float) -> int:
        """Knuth's product-of-uniforms inverse-transform sampler.

        `lam` must lie in [0, MAX_POISSON_RATE] (see `checked_rate`; a float
        in range skips it).
        """
        if type(lam) is not float or not 0.0 <= lam <= MAX_POISSON_RATE:
            lam = checked_rate("lam", lam)
        if lam == 0.0:
            return 0
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.random()
            if p <= limit:
                return k
            k += 1

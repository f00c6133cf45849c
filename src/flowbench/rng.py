"""Deterministic 64-bit generator used everywhere randomness is needed.

All stochastic behaviour in the package (simulated workloads, sampling,
text generation) draws from this generator so that runs are reproducible
bit-for-bit from a seed. Never use `random` or `hash()` in its place:
both vary between interpreter invocations.
"""

from __future__ import annotations

import math

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


class SplitMix64:
    """Tiny splitmix-style generator with a 64-bit state. `next_u64` and
    `random` write `_mix64` out, so a draw is one Python frame."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = checked_seed(seed)

    def next_u64(self) -> int:
        z = self.state = (self.state + _GAMMA) & MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        z = self.state = (self.state + _GAMMA) & MASK64
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        return ((z ^ (z >> 31)) >> 11) / (1 << 53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        return self.next_u64() % n

    def sample(self, seq, k: int) -> list:
        """k distinct elements, in selection order (partial Fisher-Yates)."""
        pool = list(seq)
        k = min(k, len(pool))
        out = []
        for _ in range(k):
            idx = self.randrange(len(pool))
            out.append(pool.pop(idx))
        return out

    def poisson(self, lam: float) -> int:
        """Knuth's product-of-uniforms inverse-transform sampler.

        `lam` must lie in [0, MAX_POISSON_RATE] (see `checked_rate`).
        """
        if checked_rate("lam", lam) == 0.0:
            return 0
        limit = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.random()
            if p <= limit:
                return k
            k += 1

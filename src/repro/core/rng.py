"""Deterministic random number generation for the simulator.

Each consumer (the ULE balancer, a workload generator, ...) gets its own
named stream derived from the experiment seed, so adding a new random
consumer never perturbs the draws seen by existing ones.  This is the
standard trick for reproducible discrete-event simulation.
"""

from __future__ import annotations

import hashlib
import random


class RandomStream:
    """A named, independently seeded pseudo-random stream.

    The stream seed is derived by hashing ``(root_seed, name)`` so streams
    are stable across runs and uncorrelated with each other.  ``draws``
    counts the values drawn, so a run can tell afterwards whether its
    seed mattered at all (:meth:`RandomSource.drew`).
    """

    __slots__ = ("name", "_rng", "draws")

    def __init__(self, root_seed: int, name: str):
        self.name = name
        self.draws = 0
        digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
        self._rng = random.Random(int.from_bytes(digest[:8], "big"))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        self.draws += 1
        return self._rng.randint(lo, hi)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in ``[lo, hi)``."""
        self.draws += 1
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (1/mean)."""
        self.draws += 1
        return self._rng.expovariate(rate)

    def choice(self, seq):
        """Uniformly pick one element of a non-empty sequence."""
        self.draws += 1
        return self._rng.choice(seq)

    def shuffle(self, seq) -> None:
        """Shuffle a mutable sequence in place."""
        self.draws += 1
        self._rng.shuffle(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        self.draws += 1
        return self._rng.gauss(mu, sigma)

    def jitter_ns(self, base_ns: int, fraction: float) -> int:
        """Return ``base_ns`` multiplied by a uniform factor in
        ``[1 - fraction, 1 + fraction]``, never below 1 ns.

        Used to add realistic variance to modelled compute phases.
        """
        if fraction <= 0.0:
            return max(1, int(base_ns))
        self.draws += 1
        factor = self._rng.uniform(1.0 - fraction, 1.0 + fraction)
        return max(1, int(base_ns * factor))


class RandomSource:
    """Factory handing out :class:`RandomStream` objects by name.

    A single :class:`RandomSource` is owned by the simulation engine;
    every component asks it for a stream under a stable name.
    """

    __slots__ = ("root_seed", "_streams")

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream registered under ``name``, creating it on
        first use."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.root_seed, name)
        return self._streams[name]

    def drew(self) -> bool:
        """Whether any stream has drawn a value.

        The engine's only seed-dependent input is this source, so a
        run that drew nothing followed the same trajectory it would
        have followed under every other seed.
        """
        return any(stream.draws for stream in self._streams.values())
